"""Command-line entry point for the experiment runners."""

from __future__ import annotations

import argparse
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
