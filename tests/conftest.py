import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("samplerec", derandomize=True, database=None, deadline=None)
settings.load_profile("samplerec")

# hypothesis also caches the constants it reads from local modules, from
# collection on; keep that cache in a directory removed when the run exits.
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)
