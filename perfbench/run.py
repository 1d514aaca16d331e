#!/usr/bin/env python3
"""Benchmark of the samplerec command line on three experiment workloads.

Run from the root of a checkout (Linux, Python >= 3.10, numpy, scipy):

    python3 perfbench/run.py --workload claims-d1 --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --workload rates-d1 --smoke --seconds 1

--trace 0 times `python -m samplerec <subcommand>` processes with no tracing
and reports the end-to-end metrics. --trace 1 alternates those processes with
traced ones (perfbench/child.py) and reports the per-layer metrics. Every run
checks the CSV bytes: runs of one seed must agree, and a traced run must
agree with the untraced one. --smoke runs each workload's shape at a tiny
size. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; a provenance record is printed before it and
the full record is written under .perfbench-runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
RUNS_DIR = ROOT / ".perfbench-runs"

# The first config seed of every --trace 0 run; its CSV is compared with the
# sha256 recorded in reference.json.
REFERENCE_SEED = 20250814

# A --trace 0 run alternates these config seeds and reports medians over
# all its runs. They are fixed, so every run does the same work: on
# claims-d1 the sweep of both reaches c=1.6 (m=3432) at n=2048, where other
# seeds may stop at c=0.8. A --trace 1 run uses the second. Three runs at
# least, so the reference seed runs twice and its CSV bytes are compared.
CONFIG_SEEDS = (REFERENCE_SEED, 2)
MIN_UNTRACED_RUNS = 3
# After each samplerec run, set-up probes run until all probes together have
# taken SETUP_SHARE of the samplerec time so far, and SETUP_REPEATS times at
# least. Interleaving them spreads them over the same stretch of time as the
# runs, so a slow phase of the machine hits both alike.
SETUP_SHARE = 0.3
SETUP_REPEATS = 3

# Whole-run budget; a child still running then is killed and counted failed.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    subcommand: str
    d: int
    s: float
    n_grid: tuple[int, ...]
    c_head: float
    m_factor: int
    trials: int
    smoke_grid: tuple[int, ...]

    def config_text(self, smoke: bool) -> str:
        grid = self.smoke_grid if smoke else self.n_grid
        return (
            f"d = {self.d}\ns = {self.s}\nn_grid = {', '.join(map(str, grid))}\n"
            f"c_head = {self.c_head}\nm_factor = {self.m_factor}\ntrials = {self.trials}\n"
        )


# Why each workload is here, and which layers it exercises or bypasses, is
# recorded in perfbench/README.md.
WORKLOADS = {
    "claims-d1": Workload("claims", 1, 1.0, (512, 2048), 0.05, 8, 2, (32, 64)),
    "rates-d1": Workload("rates", 1, 1.0, (64, 128, 256, 512, 1024, 2048, 4096), 0.25, 8, 3,
                         (16, 32, 64)),
    "rates-d2-s075": Workload("rates", 2, 0.75, (256, 512, 1024, 2048, 4096), 0.25, 8, 1,
                              (32, 64)),
}

END_TO_END_UNITS = {
    "run_s": "s",
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

LAYERS = (
    "spectral.basis_matrix",
    "spectral.spectral_sums",
    "spectral.ordered_basis",
    "density.sample_points",
    "density.density_values",
    "lsq.build_matrices",
    "lsq.spectral_norm",
    "lsq.singular_extrema",
    "lsq.pseudoinverse",
    "errors.worst_case_error_trunc",
    "errors.certified_upper_bound",
)

# Per-layer counts: a run fails unless every traced run repeats them exactly.
COUNT_UNITS = {
    "spectral.basis_matrix.calls": "count",
    "spectral.basis_matrix.entries": "count",
    "spectral.basis_matrix.repeat_frac": "ratio",
    "density.points": "count",
    "density.bisect_evals": "count",
    "lsq.build_matrices.bytes_written": "bytes",
    "lsq.spectral_norm.svd.calls": "count",
    "lsq.spectral_norm.gram.calls": "count",
    "lsq.spectral_norm.lanczos.calls": "count",
    "lsq.g_decompositions_per_instance": "count/instance",
    "errors.worst_case_error_trunc.entries": "count",
    "experiments.instances": "count",
    "experiments.degenerate": "count",
}

TIME_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "experiments.self_s": "s",
    "experiments.instance_ms_p50": "ms",
    "experiments.instance_ms_p90": "ms",
    "cli.import_s": "s",
    "cli.write_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}

# Top-level layers that start the next grid point, so they end no instance.
GRID_LAYERS = ("spectral.ordered_basis", "spectral.spectral_sums")


@dataclass
class Process:
    seconds: float
    rss_mib: float
    code: int
    stderr: str


@dataclass
class Run:
    seed: int
    traced: bool
    proc: Process
    csv: bytes | None
    record: dict | None
    failure: str | None


class Bench:
    """One workload measured in one working directory."""

    def __init__(self, workload: Workload, smoke: bool, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.config = workdir / "workload.cfg"
        self.config.write_text(workload.config_text(smoke), encoding="utf-8")
        self.env = child_env()
        self.count = 0
        self.setup: list[float] = []
        self.setup_failures: list[str] = []
        self.setup_spent = 0.0

    def next_stem(self) -> Path:
        """A fresh path prefix in the working directory for one child."""
        self.count += 1
        return self.workdir / f"p{self.count}"

    def spawn(self, argv: list[str], stem: Path) -> Process:
        """Run one child to completion; wall time and peak RSS from wait4."""
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            start = time.monotonic()
            child = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                     stdout=out, stderr=err)
            pidfd = os.pidfd_open(child.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], max(self.deadline - time.monotonic(), 0.0))
                if not ready:
                    child.kill()
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                os.close(pidfd)
            seconds = time.monotonic() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        stderr = Path(f"{stem}.err").read_text(encoding="utf-8", errors="replace")
        return Process(seconds, usage.ru_maxrss / 1024.0, child.returncode, stderr)

    def run(self, seed: int, traced: bool) -> Run:
        """One `samplerec <subcommand>` run, untraced or through child.py."""
        stem = self.next_stem()
        csv_path = Path(f"{stem}.csv")
        record_path = Path(f"{stem}.trace.json")
        args = [self.workload.subcommand, "--config", str(self.config),
                "--seed", str(seed), "--out", str(csv_path)]
        if traced:
            argv = [sys.executable, str(HERE / "child.py"), "trace",
                    repr(time.monotonic()), str(record_path), "--", *args]
        else:
            argv = [sys.executable, "-m", "samplerec", *args]
        proc = self.spawn(argv, stem)
        failure = None
        if proc.code != 0:
            kind = "validation failure" if "validation failure" in proc.stderr else "error"
            failure = f"{kind}: exit {proc.code}: {proc.stderr.strip()[-400:]}"
        csv = csv_path.read_bytes() if csv_path.is_file() else None
        record = None
        if failure is None and csv is None:
            failure = "no CSV written"
        if traced and failure is None:
            record = json.loads(record_path.read_text(encoding="utf-8"))
        return Run(seed, traced, proc, csv, record, failure)

    def probe_setup(self, run: Run, until_s: float, at_least: int = 0) -> None:
        """Fresh processes that build what the run visited, until all probes
        have taken until_s seconds and number at_least; their wall seconds
        go to self.setup. A failed probe stops further ones."""
        pairs = sorted(set(csv_work(run.csv, self.workload)[2]))
        argv = [sys.executable, str(HERE / "child.py"), "setup", str(self.workload.d),
                repr(self.workload.s), json.dumps(pairs)]
        while (self.setup_spent < until_s or len(self.setup) < at_least) \
                and not self.setup_failures and not self.out_of_time():
            proc = self.spawn(argv, self.next_stem())
            self.setup_spent += proc.seconds
            if proc.code != 0:
                self.setup_failures.append(f"set-up exit {proc.code}: {proc.stderr.strip()[-400:]}")
            else:
                self.setup.append(proc.seconds)

    def runtime(self) -> dict | None:
        """Library versions and BLAS threads of a child, from an untimed process."""
        stem = self.next_stem()
        record_path = Path(f"{stem}.json")
        proc = self.spawn([sys.executable, str(HERE / "child.py"), "runtime", str(record_path)], stem)
        if proc.code != 0:
            return None
        return json.loads(record_path.read_text(encoding="utf-8"))

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


def child_env() -> dict:
    """Environment of every child: the checkout's src/ and one BLAS thread.

    BLAS is pinned to one thread so that runs on a shared machine stay
    steady; the provenance record says so.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def check_csvs(runs: list[Run]) -> None:
    """Mark a run failed when its CSV differs from the first run of its seed."""
    first: dict[int, bytes] = {}
    for run in runs:
        if run.failure is None:
            expected = first.setdefault(run.seed, run.csv)
            if run.csv != expected:
                run.failure = f"CSV differs from the first run of seed {run.seed}"


def csv_work(csv: bytes, workload: Workload) -> tuple[int, int, list[tuple[int, int]]]:
    """(instances, degenerate instances, (k, m) pairs) read from a CSV."""
    header, *lines = csv.decode("utf-8").splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    pairs = [(int(r["k"]), int(r["m"])) for r in rows]
    if workload.subcommand == "claims":
        instances = sum(int(r["trials"]) for r in rows)
        degenerate = sum(round(float(r["degenerate_frac"]) * int(r["trials"])) for r in rows)
    else:
        instances = workload.trials * len(rows)
        degenerate = sum(int(r["degenerate_trials"]) for r in rows)
    return instances, degenerate, pairs


def instance_ms(spans: list) -> list[float]:
    """Duration of each instance: from its sample_points call to the end of
    the last top-level call made for it."""
    runners = {i for i, span in enumerate(spans) if span[0] == "experiments"}
    start: dict[int, float] = {}
    end: dict[int, float] = {}
    for layer, t0, t1, _, parent, inst in spans:
        if parent not in runners or inst < 0 or layer in GRID_LAYERS:
            continue
        if layer == "density.sample_points" and inst not in start:
            start[inst] = t0
        end[inst] = max(end.get(inst, t1), t1)
    return [1000.0 * (end[i] - start[i]) for i in sorted(start)]


def layer_figures(run: Run, workload: Workload) -> tuple[dict, dict]:
    """(times, counts) of one traced run."""
    record = run.record
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for layer, t0, t1, child, _, _ in record["spans"]:
        self_s[layer] += t1 - t0 - child
        calls[layer] += 1
    c = record["counts"]
    instances = calls["density.sample_points"]
    _, degenerate, _ = csv_work(run.csv, workload)
    durations = instance_ms(record["spans"]) or [0.0]
    p90 = statistics.quantiles(durations, n=10, method="inclusive")[-1] if len(durations) > 1 else durations[0]
    times = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    times.update({
        "experiments.self_s": self_s["experiments"],
        "experiments.instance_ms_p50": statistics.median(durations),
        "experiments.instance_ms_p90": p90,
        "cli.import_s": record["import_s"],
        "cli.write_s": self_s["cli.write"],
        # share of the time from spawn to the return of cli.main that the
        # import and the spans' self times cover
        "trace.accounted_frac": (sum(self_s.values()) + record["import_s"])
        / (record["import_s"] + record["main_s"]),
    })
    bm_calls = calls["spectral.basis_matrix"]
    counts = {
        "spectral.basis_matrix.calls": bm_calls,
        "spectral.basis_matrix.entries": c["basis_matrix.entries"],
        "spectral.basis_matrix.repeat_frac": c["basis_matrix.repeats"] / bm_calls if bm_calls else 0.0,
        "density.points": c["density.points"],
        "density.bisect_evals": c["density.bisect_evals"],
        "lsq.build_matrices.bytes_written": c["build_matrices.bytes_written"],
        "lsq.spectral_norm.svd.calls": c["spectral_norm.svd"],
        "lsq.spectral_norm.gram.calls": c["spectral_norm.gram"],
        "lsq.spectral_norm.lanczos.calls": c["spectral_norm.lanczos"],
        "lsq.g_decompositions_per_instance": c["g_decompositions"] / instances if instances else 0.0,
        "errors.worst_case_error_trunc.entries": c["worst_case_error_trunc.entries"],
        "experiments.instances": instances,
        "experiments.degenerate": degenerate,
    }
    return times, counts


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(runtime: dict | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        **(runtime or {}),
        "blas_threads_pinned": "OPENBLAS/OMP/MKL_NUM_THREADS=1 in every child, to keep runs steady",
        "processes": "one samplerec process at a time",
        "git_revision": git_revision(),
    }


def traced_metrics(runs: list[Run], workload: Workload) -> dict:
    """Per-layer metrics from alternating untraced and traced runs.

    A traced run fails when its instance count differs from its CSV's or its
    counts differ from the first traced run's.
    """
    figures = []
    for run in runs:
        if run.traced and run.failure is None:
            times, counts = layer_figures(run, workload)
            if counts["experiments.instances"] != csv_work(run.csv, workload)[0]:
                run.failure = "traced instance count differs from the CSV"
            elif figures and counts != figures[0][1]:
                run.failure = "per-layer counts differ from the first traced run"
            else:
                figures.append((times, counts))
    untraced = [r.proc.seconds for r in runs if not r.traced and r.failure is None]
    traced = [r.proc.seconds for r in runs if r.traced and r.failure is None]
    if not (figures and untraced):
        return {}
    times = {key: statistics.median(f[0][key] for f in figures) for key in figures[0][0]}
    times["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced)
    metrics = {key: {"value": times[key], "unit": unit} for key, unit in TIME_UNITS.items()}
    metrics.update({key: {"value": figures[0][1][key], "unit": unit}
                    for key, unit in COUNT_UNITS.items()})
    return metrics


def untraced_metrics(runs: list[Run], workload: Workload, setup: list[float]) -> dict:
    """End-to-end metrics: medians over the runs and the set-up probes."""
    good = [r for r in runs if r.failure is None]
    if not (good and setup):
        return {}
    values = {
        "run_s": statistics.median(r.proc.seconds for r in good),
        "instances_per_s": statistics.median(
            csv_work(r.csv, workload)[0] / r.proc.seconds for r in good),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(r.proc.rss_mib for r in good),
    }
    return {key: {"value": v, "unit": END_TO_END_UNITS[key]} for key, v in values.items()}


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload; return its result record."""
    workload = WORKLOADS[name]
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS_DIR))
    try:
        bench = Bench(workload, smoke, workdir)
        runtime = bench.runtime()
        runs: list[Run] = []
        start = time.monotonic()
        notes: dict = {}
        if trace:
            # Untraced and traced runs alternate on one seed, so the overhead
            # ratio compares neighbours.
            while not runs or (time.monotonic() - start < seconds and not bench.out_of_time()):
                runs.append(bench.run(CONFIG_SEEDS[1], traced=False))
                runs.append(bench.run(CONFIG_SEEDS[1], traced=True))
            check_csvs(runs)
            metrics = traced_metrics(runs, workload)
            notes["traced_run_s"] = [r.proc.seconds for r in runs if r.traced]
        else:
            run_spent = 0.0
            while len(runs) < MIN_UNTRACED_RUNS or time.monotonic() - start < seconds:
                if bench.out_of_time():
                    break
                run = bench.run(CONFIG_SEEDS[len(runs) % len(CONFIG_SEEDS)], traced=False)
                runs.append(run)
                if run.failure is None:
                    run_spent += run.proc.seconds
                    bench.probe_setup(run, SETUP_SHARE * run_spent)
            check_csvs(runs)
            good = [r for r in runs if r.failure is None]
            if good:
                bench.probe_setup(good[-1], 0.0, at_least=SETUP_REPEATS)
            metrics = untraced_metrics(runs, workload, bench.setup)
            notes["setup_s_samples"] = bench.setup
            ref = [r for r in good if r.seed == REFERENCE_SEED]
            if ref:
                sha = hashlib.sha256(ref[0].csv).hexdigest()
                notes["reference_csv_sha256"] = sha
                if not smoke:
                    expected = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
                    notes["csv_matches_reference"] = sha == expected["csv_sha256"].get(name)
        failures = [f"seed {r.seed}{' traced' if r.traced else ''}: {r.failure}"
                    for r in runs if r.failure] + bench.setup_failures
        attempted = len(runs) + len(bench.setup) + len(bench.setup_failures)
        return {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "smoke": smoke,
            "config": workload.config_text(smoke),
            "config_seeds": sorted({r.seed for r in runs}),
            "correct": not failures and bool(metrics),
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
            "metrics": metrics,
            "notes": notes,
            "samples": [
                {"seed": r.seed, "traced": r.traced, "seconds": r.proc.seconds,
                 "peak_rss_mib": r.proc.rss_mib, "failure": r.failure}
                for r in runs
            ],
            "provenance": provenance(runtime),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_summary(result: dict) -> None:
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']}"
          f"{' smoke' if result['smoke'] else ''}: {len(result['samples'])} samplerec runs,"
          f" config seeds {result['config_seeds']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<40} {metric['value']:<14.6g} {metric['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<40} {frac:<14.6g} ratio ({result['failed']} of {result['attempted']})")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    if "csv_matches_reference" in result["notes"]:
        print(f"  {'csv_matches_reference':<40} {str(result['notes']['csv_matches_reference']).lower()}"
              f" (sha256 {result['notes']['reference_csv_sha256']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="each workload's shape at a tiny size, in seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "samplerec" / "__main__.py").is_file():
        print(f"perfbench: no samplerec package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [measure(n, args.seed, args.seconds, bool(args.trace), args.smoke) for n in names]
    for result in results:
        print_summary(result)
        path = RUNS_DIR / (f"{result['workload']}-seed{args.seed}-trace{args.trace}"
                           f"{'-smoke' if args.smoke else ''}.json")
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if not all(r["metrics"] for r in results):
        print("perfbench: no metrics measured", file=sys.stderr)
        return 1
    print("provenance " + json.dumps(results[0]["provenance"]))
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): v
            for r in results for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
