"""Command-line entry point for the experiment runners."""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import os
import sys

from . import experiments
from .lsq import ConvergenceError
from .spectral import EnumerationLimitError, PrecisionError

# A numerical or size limit, or the memory the process may take, stopped
# the run before it could finish.
EXIT_LIMIT = 3

RUNNERS = {
    "claims": experiments.run_claims,
    "rates": experiments.run_rates,
    "beta": experiments.run_beta,
    "density-check": experiments.run_density_check,
}

_HELP = {
    "claims": "sweep the head-size constant and record concentration statistics",
    "rates": "worst-case error decay over the n grid",
    "beta": "tail statistics over head sizes (n_grid entries read as k)",
    "density-check": "quadrature self-check of the sampling density",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samplerec",
        description="Density-weighted least-squares recovery experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _HELP.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", metavar="PATH", help="flat key = value config file")
        cmd.add_argument("--seed", type=int, metavar="U64", help="master seed (overrides config)")
        cmd.add_argument("--out", metavar="PATH", help="CSV output path (overrides config)")
    return parser


def _openblas_thread_calls() -> list[tuple]:
    """(get, set) thread-count functions of each OpenBLAS library mapped into
    this process, found by path in /proc/self/maps, under the symbol names
    of scipy-openblas (numpy's wheels) and of plain builds."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({
            line.split()[-1] for line in fh
            if "openblas" in os.path.basename(line.split()[-1])
        })
    calls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            if hasattr(lib, name.format("get")) and hasattr(lib, name.format("set")):
                calls.append((getattr(lib, name.format("get")), getattr(lib, name.format("set"))))
                break
    return calls


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every OpenBLAS library of the process on one thread,
    then give each its thread count back.

    BLAS products split their work between threads at points that move the
    low bits of the result, so CSV bytes would depend on the thread count;
    the command line pins it, the library API does not.  When no library
    can be pinned (another BLAS, no /proc) the run goes ahead after one line
    on stderr.
    """
    try:
        calls = _openblas_thread_calls()
    except OSError as exc:
        calls, why = [], str(exc)
    else:
        why = "no OpenBLAS library with a thread-count setter is loaded"
    if not calls:
        print(f"warning: BLAS not pinned to one thread ({why}); CSV low bits may "
              "depend on the thread count", file=sys.stderr)
    counts = [get() for get, _ in calls]
    for _, set_threads in calls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(calls, counts):
            set_threads(count)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _one_blas_thread():
        return _run(args)


def _run(args) -> int:
    try:
        config = experiments.load_config(args.config, seed=args.seed, out=args.out)
        result = RUNNERS[args.command](config)
    except experiments.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except experiments.ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except (PrecisionError, EnumerationLimitError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    out = config.out or args.command.replace("-", "_") + ".csv"
    try:
        experiments.write_result(result, out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(result.report)
    print(f"wrote {out}")
    return 0
