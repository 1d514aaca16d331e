"""Child processes of the benchmark: the traced run, the set-up probe and
the runtime record.

    python3 perfbench/child.py trace SPAWN RECORD -- <samplerec arguments>
    python3 perfbench/child.py setup D S PAIRS
    python3 perfbench/child.py runtime RECORD

All import samplerec from the PYTHONPATH that perfbench/run.py sets (the
checkout's src/); `trace` and `runtime` write one JSON record to RECORD.

`trace` runs the same entry point as `python -m samplerec` (cli.main), in
this process, after wrapping each layer's public functions where the calling
module looks them up: `density.sample_points` and `lsq.build_matrices` as
attributes that `experiments` reads at call time, `basis_matrix` as bound in
both `density` and `lsq`, the runners in `cli.RUNNERS`. Nothing under src/
changes. Spans stay in memory and are written out after the command returns.
SPAWN is the parent's time.monotonic() when it started this process; on
Linux that clock is CLOCK_MONOTONIC, shared by all processes, so interpreter
start-up counts in the import time. Modules that only the tracer needs are
imported after that time is taken.

`setup` times nothing itself: the parent takes the wall time of the whole
process, which imports samplerec and builds the basis, the spectrum summary
and the density for every (k, m) in PAIRS, a JSON list.

`runtime` records the library versions and BLAS threads of a child, in a
process of its own that nothing times.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def openblas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({
            line.split()[-1] for line in fh
            if "openblas" in os.path.basename(line.split()[-1])
        })
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                counts[os.path.basename(path)] = int(getattr(lib, symbol)())
                break
    return counts


def runtime_record() -> dict:
    """Library versions, BLAS build and thread counts of this process."""
    import numpy
    import scipy
    import samplerec

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "samplerec_file": samplerec.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": openblas_threads(),
    }


class Tracer:
    """Spans at layer boundaries plus the counts measured at the same place.

    A span is [layer, start, end, child_seconds, parent_index, instance];
    an instance starts at each call of density.sample_points.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []
        self.instance = -1
        self.g_shape: tuple[int, int] | None = None
        self.seen_points: set = set()
        self.kept: list = []  # holds evaluated point arrays so their ids stay unique
        self.norm_path = "svd"
        self.density = None  # the samplerec.density module, once installed
        self.counts = {
            "basis_matrix.entries": 0,
            "basis_matrix.repeats": 0,
            "density.points": 0,
            "density.bisect_evals": 0,
            "build_matrices.bytes_written": 0,
            "spectral_norm.svd": 0,
            "spectral_norm.gram": 0,
            "spectral_norm.lanczos": 0,
            "g_decompositions": 0,
            "worst_case_error_trunc.entries": 0,
        }

    def span(self, layer: str, fn, before=None, after=None):
        """Wrap fn in a span; before/after hooks see the bound arguments."""
        import inspect

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if before or after:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            if before:
                before(bound.arguments)
            parent = self.open[-1] if self.open else -1
            record = [layer, 0.0, 0.0, 0.0, parent, self.instance]
            self.open.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                record[2] = end
                self.open.pop()
                if parent >= 0:
                    self.spans[parent][3] += end - record[1]
            if after:
                after(bound.arguments, result)
            return result

        return traced

    # hooks -------------------------------------------------------------

    def start_instance(self, args) -> None:
        params, n = args["params"], int(args["n"])
        self.instance += 1
        self.g_shape = (n, int(params.k))
        self.seen_points.clear()
        self.kept.clear()
        self.counts["density.points"] += n
        steps = getattr(self.density, "BISECT_STEPS", 48)
        self.counts["density.bisect_evals"] += steps * n * int(params.basis.params.d)

    def basis_matrix_call(self, args) -> None:
        points, basis = args["points"], args["basis"]
        m = len(basis) if args.get("m") is None else int(args["m"])
        n = int(getattr(points, "shape", (len(points),))[0])
        self.counts["basis_matrix.entries"] += n * m
        key = (id(points), m)
        if key in self.seen_points:
            self.counts["basis_matrix.repeats"] += 1
        else:
            self.seen_points.add(key)
            self.kept.append(points)

    def matrices_built(self, args, info) -> None:
        import numpy as np

        counted: list = []
        for name in ("B", "G", "Gamma"):
            arr = getattr(info, name, None)
            if isinstance(arr, np.ndarray) and not any(np.may_share_memory(arr, c) for c in counted):
                self.counts["build_matrices.bytes_written"] += arr.nbytes
                counted.append(arr)

    def norm_started(self, args) -> None:
        self.norm_path = "svd"

    def norm_done(self, args, result) -> None:
        self.counts["spectral_norm." + self.norm_path] += 1

    def e_trunc_call(self, args) -> None:
        m = args["info"].m if args.get("m") is None else int(args["m"])
        self.counts["worst_case_error_trunc.entries"] += m * m

    def library_call(self, module, attr: str, hook) -> None:
        """Count calls of a library function without opening a span."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            hook(args)
            return fn(*args, **kwargs)

        setattr(module, attr, counted)

    def in_norm(self, path: str):
        def hook(args) -> None:
            if self.open and self.spans[self.open[-1]][0] == "lsq.spectral_norm":
                self.norm_path = path
        return hook

    def g_decomposition(self, args) -> None:
        if args and getattr(args[0], "shape", None) == self.g_shape:
            self.counts["g_decompositions"] += 1

    # installation ------------------------------------------------------

    def install(self) -> None:
        import numpy.linalg
        import scipy.linalg
        import scipy.sparse.linalg
        from samplerec import cli, density, errors, experiments, lsq, spectral

        self.density = density
        layers = (
            (spectral, "ordered_basis", "spectral.ordered_basis", None, None),
            (spectral, "spectral_sums", "spectral.spectral_sums", None, None),
            (density, "basis_matrix", "spectral.basis_matrix", self.basis_matrix_call, None),
            (lsq, "basis_matrix", "spectral.basis_matrix", self.basis_matrix_call, None),
            (density, "sample_points", "density.sample_points", self.start_instance, None),
            (density, "density_values", "density.density_values", None, None),
            (lsq, "build_matrices", "lsq.build_matrices", None, self.matrices_built),
            (lsq, "singular_extrema", "lsq.singular_extrema", None, None),
            (lsq, "spectral_norm", "lsq.spectral_norm", self.norm_started, self.norm_done),
            (lsq, "pseudoinverse", "lsq.pseudoinverse", None, None),
            (errors, "worst_case_error_trunc", "errors.worst_case_error_trunc", self.e_trunc_call, None),
            (errors, "certified_upper_bound", "errors.certified_upper_bound", None, None),
            (experiments, "write_result", "cli.write", None, None),
        )
        # A function that a later refactor removes is skipped; its metrics read 0.
        for module, attr, layer, before, after in layers:
            if hasattr(module, attr):
                setattr(module, attr, self.span(layer, getattr(module, attr), before, after))
        for name, runner in list(cli.RUNNERS.items()):
            cli.RUNNERS[name] = self.span("experiments", runner)
        self.library_call(scipy.linalg, "eigh", self.in_norm("gram"))
        self.library_call(scipy.sparse.linalg, "svds", self.in_norm("lanczos"))
        for module, attr in ((numpy.linalg, "svd"), (numpy.linalg, "qr"),
                             (scipy.linalg, "svd"), (scipy.linalg, "qr")):
            self.library_call(module, attr, self.g_decomposition)


def trace(spawn: float, record_path: str, argv: list[str]) -> int:
    import samplerec.cli

    imported = time.monotonic()
    tracer = Tracer()
    tracer.install()
    code = samplerec.cli.main(argv)
    done = time.monotonic()
    record = {
        "import_s": imported - spawn,
        "main_s": done - imported,
        "spans": tracer.spans,
        "counts": tracer.counts,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


def setup(d: int, s: float, pairs: list) -> int:
    from samplerec import density, spectral

    space = spectral.SpaceParams(d, s)
    for k, m in pairs:
        basis = spectral.ordered_basis(space, m + 1)
        spectral.spectral_sums(space, basis)
        density.truncated_density(basis, k, m)
    return 0


def runtime(record_path: str) -> int:
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(runtime_record(), fh)
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "trace":
        if sys.argv[4] != "--":
            sys.exit("usage: child.py trace SPAWN RECORD -- <samplerec arguments>")
        sys.exit(trace(float(sys.argv[2]), sys.argv[3], sys.argv[5:]))
    if mode == "setup":
        sys.exit(setup(int(sys.argv[2]), float(sys.argv[3]), json.loads(sys.argv[4])))
    if mode == "runtime":
        sys.exit(runtime(sys.argv[2]))
    sys.exit(f"unknown mode {mode!r}")
