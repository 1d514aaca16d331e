import ast
import importlib
import pkgutil
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_solver_figures_match_lsq():
    # the README quotes the norm solver's step cap and Ritz stride, and the
    # kappa limit of the Gram route; a retune of any of them must carry the
    # README along
    from samplerec import lsq

    text = " ".join(README.read_text(encoding="utf-8").split())
    caps = re.findall(r"(\d+) steps", text)
    strides = re.findall(r"every (\d+)th step", text)
    extra = re.findall(r"at most (\d+) products", text)
    kappas = re.findall(r"`lsq\.KAPPA_LIMIT` (?:= (\d+)|\((\d+)\))", text)
    assert len(caps) == 2 and len(strides) == 1 and len(extra) == 1
    assert sorted(bool(equals) for equals, _ in kappas) == [False, True]
    assert {int(equals or parens) for equals, parens in kappas} == {round(lsq.KAPPA_LIMIT)}
    assert {int(x) for x in caps} == {lsq._LANCZOS_STEPS}
    assert int(strides[0]) == lsq._RITZ_STRIDE and int(extra[0]) == lsq._RITZ_STRIDE - 1


def test_readme_names_resolve():
    # every backticked name of a samplerec module the README quotes, as
    # `lsq.X` or `samplerec.density.X(...)`, with any module of the package
    # as its prefix, is an attribute of that module, so a README that names
    # a deleted constant or class fails here
    import samplerec

    modules = [module.name for module in pkgutil.iter_modules(samplerec.__path__) if not module.name.startswith("_")]
    for module in modules:
        importlib.import_module(f"samplerec.{module}")
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    names = set()
    for span in re.findall(r"`([^`]*)`", text):
        names.update(re.findall(rf"\b(?:samplerec|{'|'.join(modules)})(?:\.\w+)+", span))
    assert {"lsq.KAPPA_LIMIT", "density.ViewGram", "density.BlockGram", "expsums.TailGram", "samplerec.rng"} <= names
    for name in sorted(names):
        parts = name.split(".")
        obj = samplerec
        for part in parts[parts[0] == "samplerec" :]:
            assert hasattr(obj, part), f"README quotes `{name}`, which does not resolve"
            obj = getattr(obj, part)


# The package's modules, each above the ones before it: a module imports
# only modules earlier in this list, so the point set never reads the
# solver, nor the solver the error bounds.
LAYERS = ["rounding", "rng", "spectral", "expsums", "density", "lsq", "errors", "experiments", "cli"]


def package_imports(path: Path) -> set[str]:
    """The samplerec modules that the module at path imports, anywhere in
    it, as from . import x or from .x import y (or with samplerec for .)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").split(".")[0] == "samplerec"):
            module = (node.module or "").removeprefix("samplerec").lstrip(".")
            found.update([module.split(".")[0]] if module else [alias.name for alias in node.names])
    return found


def test_modules_import_only_the_layers_below():
    import samplerec

    src = Path(samplerec.__file__).parent
    modules = [module.name for module in pkgutil.iter_modules(samplerec.__path__) if not module.name.startswith("_")]
    assert sorted(modules) == sorted(LAYERS)
    for rank, name in enumerate(LAYERS):
        upward = sorted(package_imports(src / f"{name}.py") - set(LAYERS[:rank]))
        assert upward == [], f"{name} imports {upward}, which are not below it"


def test_only_density_reads_the_point_set_form():
    # the form of a point set (B or its staircase, and the panel width of
    # its d >= 2 tail) is read in samplerec.density alone: other modules
    # go through PointSet.gram, G and tail_gram; and density, which builds
    # the Gram operators of its forms, imports no lsq, errors or experiments
    import samplerec

    src = Path(samplerec.__file__).parent
    readers = [
        path.name
        for path in sorted(src.glob("*.py"))
        if path.name != "density.py"
        and re.search(r"\.(?:B|sums)\b|_GRAM_PANEL", path.read_text(encoding="utf-8"))
    ]
    assert readers == [], f"{readers} read the point-set form"
    # the exponential sums are the d = 1 staircase's, made inside expsums
    makers = [
        path.name
        for path in sorted(src.glob("*.py"))
        if path.name != "expsums.py" and re.search(r"\bexp_sums\b", path.read_text(encoding="utf-8"))
    ]
    assert makers == [], f"{makers} name exp_sums"
    imported = package_imports(src / "density.py")
    assert not imported & {"lsq", "errors", "experiments"}, f"density.py imports {sorted(imported)}"


def test_each_instance_input_is_checked_in_one_module():
    # the range check of points ([0, 1)^d) is made in samplerec.spectral
    # alone (points_array, and basis_eval's one point), and whether a head
    # holds vectors is tested in samplerec.lsq alone (check_vectors, and
    # HeadSVD.rank_ok): every other reader calls those
    import samplerec

    src = Path(samplerec.__file__).parent
    checks = ((r"<\s*1\.0\b|must lie in \[0, 1\)", "spectral.py"), (r"\.vt is (?:not )?None", "lsq.py"))
    for pattern, owner in checks:
        readers = [
            path.name
            for path in sorted(src.glob("*.py"))
            if path.name != owner and re.search(pattern, path.read_text(encoding="utf-8"))
        ]
        assert readers == [], f"{readers} match {pattern!r}, which belongs to {owner}"
    assert (src / "spectral.py").read_text(encoding="utf-8").count('"points must lie in [0, 1)^d"') == 1
    assert (src / "lsq.py").read_text(encoding="utf-8").count("head.vt is None") == 1


def test_only_spectral_decodes_flat_indices():
    # the flat-index code (0 the constant, odd a sine, even a cosine,
    # frequency (i + 1) // 2) is decoded in samplerec.spectral alone, once
    # per basis (OrderedBasis.frequencies and sines): no other module reads
    # .indices, so none can take // 2, % 2 or == 0 of them
    import samplerec

    src = Path(samplerec.__file__).parent
    readers = []
    for path in sorted(src.glob("*.py")):
        if path.name == "spectral.py":
            continue
        readers += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "indices"
        ]
    assert readers == [], f"{readers} read flat indices"


def test_only_expsums_reads_the_staircase_layout():
    # a staircase's layout (values, starts) and its per-position arrays
    # (freq, factor, sine) are read in samplerec.expsums alone: other
    # modules go through Staircase.gram_block and TailGram, by basis
    # position, so a new layout stays behind that boundary
    import samplerec

    src = Path(samplerec.__file__).parent
    readers = [
        path.name
        for path in sorted(src.glob("*.py"))
        if path.name != "expsums.py"
        and re.search(r"\.(?:values|starts|freq|factor|sine)\b(?!\s*\()", path.read_text(encoding="utf-8"))
    ]
    assert readers == [], f"{readers} read the staircase layout"


def test_only_rounding_steps_to_the_next_float():
    # the rounding model (unit roundoff, steps to the next float) is stated
    # in samplerec.rounding alone: other modules read rounding.U and its
    # outward steps, so none names nextafter or finfo
    import samplerec

    src = Path(samplerec.__file__).parent
    readers = []
    for path in sorted(src.glob("*.py")):
        if path.name == "rounding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", getattr(node, "name", None))
            if name in ("nextafter", "finfo"):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == [], f"{readers} name nextafter or finfo"


def test_gram_operators_hold_shape_and_matvec_alone():
    # lsq.spectral_norm reads a Gram operator's shape and matvec alone, and
    # the Frobenius check reads the density (PointSet.tail_frobenius_sq),
    # so no operator defines another public method
    from samplerec import density, errors, expsums

    for cls in (expsums.TailGram, density.BlockGram, density.ViewGram, errors._TruncGram):
        public = sorted(name for name in vars(cls) if not name.startswith("_"))
        assert public == ["matvec"], f"{cls.__name__} defines {public}"
