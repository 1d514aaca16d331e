import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import samplerec
from samplerec import cli, density, experiments, lsq, spectral
from samplerec.experiments import (
    ConfigError,
    ExperimentConfig,
    ValidationError,
    csv_text,
    derive_seed,
    head_size,
    load_config,
    parse_config,
    run_beta,
    run_claims,
    run_density_check,
    run_rates,
)


def write_config(tmp_path, text, name="exp.cfg"):
    """Write a config file: text as UTF-8, or bytes as they are."""
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_config_full_file(tmp_path):
    path = write_config(
        tmp_path,
        "# comment line\n"
        "d = 2\n"
        "s = 1.5\n"
        "n_grid = 64, 128,256\n"
        "\n"
        "c_head = 0.1   # trailing comment\n"
        "m_factor = 4\n"
        "trials = 3\n"
        "seed = 99\n"
        "out = results.csv\n",
    )
    raw = parse_config(path)
    assert raw == {
        "d": 2, "s": 1.5, "n_grid": (64, 128, 256), "c_head": 0.1,
        "m_factor": 4, "trials": 3, "seed": 99, "out": "results.csv",
    }
    config = load_config(path)
    assert config.d == 2 and config.n_grid == (64, 128, 256)


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "k_grid = 1,2\n", "a.cfg"))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "just words\n", "b.cfg"))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "trials = many\n", "c.cfg"))
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "seed = 1\nseed = 2\n", "d.cfg"))


def test_load_config_overrides(tmp_path):
    path = write_config(tmp_path, "seed = 5\nout = a.csv\n")
    config = load_config(path, seed=9, out="b.csv")
    assert config.seed == 9
    assert config.out == "b.csv"
    assert load_config(path).seed == 5


def test_config_validation():
    # d and s are checked by SpaceParams alone, its ValueError raised again
    # as a ConfigError with the same words
    with pytest.raises(ConfigError, match=r"^dimension must be at least 1, got 0$"):
        ExperimentConfig(d=0)
    with pytest.raises(ConfigError, match=r"^smoothness must be finite and exceed 0\.5, got 0\.5$"):
        ExperimentConfig(s=0.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_grid=())
    with pytest.raises(ConfigError):
        ExperimentConfig(n_grid=(1,))
    with pytest.raises(ConfigError):
        ExperimentConfig(n_grid=(1 << 15,))
    with pytest.raises(ConfigError):
        ExperimentConfig(c_head=0.0)
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError):
            ExperimentConfig(s=value)
        with pytest.raises(ConfigError):
            ExperimentConfig(c_head=value)
    with pytest.raises(ConfigError):
        ExperimentConfig(m_factor=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-1)


def test_head_size_values():
    assert head_size(64, 0.05) == 1  # clamped up from floor(0.769)
    assert head_size(512, 0.05) == 4
    assert head_size(2048, 0.05) == 13
    assert head_size(4096, 0.25) == 123
    assert head_size(2, 1e-9) == 1


def test_derive_seed_properties():
    a = derive_seed(7, 1, 2, 3)
    assert a == derive_seed(7, 1, 2, 3)
    assert a != derive_seed(7, 1, 2, 4)
    assert a != derive_seed(8, 1, 2, 3)
    assert 0 <= a < 1 << 128


def test_derive_seed_is_numpys_seed_sequence():
    # SeedSequence([7, 1, 2, 3]).generate_state(2, np.uint64), first word
    # high, as numpy.random computed it
    assert derive_seed(7, 1, 2, 3) == 0x2BB5F9FD32B47EC1BB168BEED275D0D8


def test_derive_seed_rejects_negative_entries():
    for path in ((-1, 1), (7, -1), (7, 1, 2, -3)):
        with pytest.raises(ValueError, match="non-negative"):
            derive_seed(*path)


def test_run_claims_uniform_head_is_exact():
    # with k=1, m=3 the density is uniform and s_min(G) = sqrt(n) exactly,
    # so the first row reports full success
    config = ExperimentConfig(n_grid=(64,), c_head=0.01, m_factor=3, trials=4, seed=5)
    result = run_claims(config)
    assert result.header[:5] == ("n", "c", "k", "m", "trials")
    first = result.rows[0]
    assert (first[0], first[2], first[3]) == (64, 1, 3)
    assert first[5] == 1.0
    for row in result.rows:
        for frac in (row[5], row[7], row[8]):
            assert 0.0 <= frac <= 1.0
    # sweep ended for an explicit reason
    assert "dropped below 1/2" in result.report or "sweep stopped" in result.report


def test_run_claims_deterministic():
    config = ExperimentConfig(n_grid=(64,), c_head=0.2, m_factor=3, trials=3, seed=1)
    assert csv_text(run_claims(config)) == csv_text(run_claims(config))


def test_run_claims_huge_trials_reaches_the_first_draw(monkeypatch):
    # trials bounds the work of a cell but sizes no array: with 10^13 trials
    # the first draw still runs, where the runner used to die of MemoryError
    class Drawn(Exception):
        pass

    def first_draw(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(density, "sample_points", first_draw)
    with pytest.raises(Drawn):
        run_claims(ExperimentConfig(n_grid=(64,), c_head=0.2, m_factor=3, trials=10 ** 13, seed=1))


def test_run_rates_rows_and_invariants():
    config = ExperimentConfig(n_grid=(64, 128), c_head=0.25, m_factor=8, trials=3, seed=3)
    result = run_rates(config)
    assert [row[0] for row in result.rows] == [64, 128]
    a_k = [row[3] for row in result.rows]
    assert a_k == sorted(a_k, reverse=True)
    for row in result.rows:
        assert row[8] <= row[9]  # e_trunc <= e_upper
        assert row[10] <= 1.0 + 1e-10  # ratio1
        assert row[12] == 0  # no degenerate draws at these sizes
    assert "log-log slope" in result.report
    assert csv_text(result) == csv_text(run_rates(config))


def test_rates_report_states_the_papers_rate():
    # on a clean grid the fitted slope is followed by the slope of the
    # paper's rate n^-s log^(sd) n at the same n, fitted the same way, and
    # by the range of the CSV's ratio2 column over the clean rows
    config = ExperimentConfig(d=2, s=0.75, n_grid=(64, 128, 256), c_head=0.25, m_factor=8, trials=2, seed=3)
    result = run_rates(config)
    lines = result.report.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("log-log slope of median e_trunc"))
    logn = [math.log(row[0]) for row in result.rows]
    rate = float(np.polyfit(logn, [-0.75 * x + 1.5 * math.log(x) for x in logn], 1)[0])
    assert lines[first + 1] == f"log-log slope of the paper's rate n^-s log^(sd) n over the same n: {rate:.4f}"
    ratio2 = [row[11] for row in result.rows]
    assert all(row[12] == 0 for row in result.rows)
    assert lines[first + 2] == (
        "ratio2 = e_trunc^2 k / tail(k) over the clean rows (the paper's constant): "
        f"{min(ratio2):.3g} to {max(ratio2):.3g}"
    )
    assert first + 3 == len(lines)


def test_run_rates_prepares_one_basis(monkeypatch):
    # one ordered basis, of the grid's largest m (not its last), serves
    # every grid point
    lengths = []
    ordered_basis = spectral.ordered_basis

    def counted(params, m, *args, **kwargs):
        lengths.append(m)
        return ordered_basis(params, m, *args, **kwargs)

    monkeypatch.setattr(spectral, "ordered_basis", counted)
    run_rates(ExperimentConfig(n_grid=(128, 256, 64), c_head=0.25, m_factor=8, trials=1, seed=3))
    assert lengths == [8 * head_size(256, 0.25) + 1]


def test_run_rates_limit_error_names_the_first_grid_point_to_reach_it():
    # at s = 5 the tail past the basis of n = 256 (m = 88) is below the
    # float resolution of the total, and past those of n = 64 and 128 it is
    # not: the error names the 89-term head, as it did when each grid point
    # prepared its own basis, and not the 513-term head of n = 1024
    with pytest.raises(spectral.PrecisionError, match="past the 89-term head"):
        run_rates(ExperimentConfig(s=5.0, n_grid=(64, 128, 256, 1024), c_head=0.25, trials=1))


def test_run_beta_reads_grid_as_head_sizes():
    config = ExperimentConfig(n_grid=(8, 16, 32), seed=2)
    result = run_beta(config)
    assert result.header[0] == "k"
    assert [row[0] for row in result.rows] == [8, 16, 32]
    for row in result.rows:
        assert 0.5 <= row[4] <= 4.0  # beta/a
        assert row[5] <= 1.0 + 1e-9  # gamma vs beta at half k
    assert csv_text(result) == csv_text(run_beta(config))


def test_run_density_check_unit_mass():
    config = ExperimentConfig(n_grid=(64, 256), c_head=0.25, m_factor=8, seed=0)
    result = run_density_check(config)
    for row in result.rows:
        assert abs(row[4] - 1.0) <= 1e-10
        assert row[5] <= 1e-10
    assert csv_text(result) == csv_text(run_density_check(config))


@pytest.mark.parametrize(
    "runner, config, message",
    [
        (run_rates, dict(d=1, c_head=1.0, n_grid=(64, 16384)),
         "n=16384: configuration infeasible: truncation m=13504 above cap 8192"),
        (run_claims, dict(d=1, c_head=1.0, n_grid=(64, 16384)),
         "n=16384: base configuration infeasible: truncation m=13504 above cap 8192"),
        (run_density_check, dict(d=1, c_head=1.0, n_grid=(64, 16384)),
         "n=16384: configuration infeasible: truncation m=13504 above cap 8192"),
        (run_density_check, dict(d=3, s=0.6, c_head=0.25, n_grid=(64, 16384)),
         r"n=16384: quadrature grid 216\^3 exceeds 4194304 points"),
    ],
)
def test_infeasible_grid_point_exits_before_any_draw(monkeypatch, runner, config, message):
    # the last grid point is infeasible; the first is fine and would sample
    def no_work(*args, **kwargs):
        raise AssertionError("work started before every grid point was checked")

    monkeypatch.setattr(density, "sample_points", no_work)
    monkeypatch.setattr(density, "density_selfcheck", no_work)
    with pytest.raises(ConfigError, match=message):
        runner(ExperimentConfig(trials=3, **config))


def test_csv_formatting_17_significant_digits():
    result = experiments.ExperimentResult(
        header=("a", "b"), rows=((1, 0.1), (2, 1.0)), report=""
    )
    text = csv_text(result)
    assert text.splitlines()[1] == "1,0.10000000000000001"
    assert text.splitlines()[2] == "2,1"


def test_cli_runs_and_writes_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, "n_grid = 16, 32\nc_head = 0.5\ntrials = 2\nseed = 4\n")
    code = cli.main(["rates", "--config", path, "--out", "r.csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote r.csv" in out
    assert "log-log slope" in out
    first = (tmp_path / "r.csv").read_bytes()
    assert first.startswith(b"n,k,m,")
    code = cli.main(["rates", "--config", path, "--out", "r2.csv"])
    assert code == 0
    assert (tmp_path / "r2.csv").read_bytes() == first


def test_cli_seed_override_changes_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, "n_grid = 16\ntrials = 2\nseed = 4\n")
    assert cli.main(["rates", "--config", path, "--out", "a.csv"]) == 0
    assert cli.main(["rates", "--config", path, "--seed", "5", "--out", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


def test_cli_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, "n_grid = 8, 16\n")
    assert cli.main(["beta", "--config", path]) == 0
    assert (tmp_path / "beta.csv").exists()
    assert cli.main(["density-check", "--config", path, "--seed", "1"]) == 0
    assert (tmp_path / "density_check.csv").exists()


def test_cli_unwritable_output_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, "n_grid = 16\nc_head = 0.5\ntrials = 1\n")
    out = tmp_path / "no" / "such" / "x.csv"
    assert cli.main(["rates", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1
    assert not out.parent.exists()


def test_cli_config_errors_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "bogus = 1\n")
    assert cli.main(["rates", "--config", path]) == 2
    assert "unknown key" in capsys.readouterr().err
    assert cli.main(["rates", "--config", str(tmp_path / "nope.cfg")]) == 2
    capsys.readouterr()
    path2 = write_config(tmp_path, "n_grid = 4096\nc_head = 8.0\n", "big.cfg")
    assert cli.main(["rates", "--config", path2]) == 2
    assert "infeasible" in capsys.readouterr().err
    path3 = write_config(tmp_path, "d = 0\n", "flat.cfg")
    assert cli.main(["rates", "--config", path3]) == 2
    assert capsys.readouterr().err == "error: dimension must be at least 1, got 0\n"


def test_cli_validation_failures_exit_1(monkeypatch, capsys):
    def broken(config):
        raise ValidationError("synthetic invariant breach")

    monkeypatch.setitem(cli.RUNNERS, "rates", broken)
    assert cli.main(["rates"]) == 1
    assert "synthetic invariant breach" in capsys.readouterr().err


def _raise_precision(*args, **kwargs):
    raise spectral.PrecisionError("synthetic enclosure still too wide")


def _raise_enumeration(*args, **kwargs):
    raise spectral.EnumerationLimitError("synthetic sublevel set over the cap")


def _raise_convergence(*args, **kwargs):
    raise lsq.ConvergenceError("synthetic Lanczos stall")


@pytest.mark.parametrize(
    "module, attr, raiser",
    [
        (spectral, "spectral_sums", _raise_precision),
        (spectral, "ordered_basis", _raise_enumeration),
        (lsq, "spectral_norm", _raise_convergence),
    ],
)
def test_cli_limit_errors_exit_3(tmp_path, monkeypatch, capsys, module, attr, raiser):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(module, attr, raiser)
    path = write_config(tmp_path, "n_grid = 16\nc_head = 0.5\ntrials = 1\n")
    assert cli.main(["rates", "--config", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "synthetic" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "rates.csv").exists()


def test_cli_lanczos_step_cap_exits_3(tmp_path, monkeypatch, capsys):
    # at n = 1024 the d = 1 tail Gram has 252 columns, so its norm takes
    # Lanczos, which cannot converge in two steps
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(lsq, "_LANCZOS_STEPS", 2)
    path = write_config(tmp_path, "n_grid = 1024\nc_head = 0.25\ntrials = 1\n")
    assert cli.main(["rates", "--config", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: Lanczos reached its cap of 2 steps")
    assert err.count("\n") == 1
    assert not (tmp_path / "rates.csv").exists()


_NO_SCIPY = """
import sys
from samplerec import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print("scipy modules:", loaded)
sys.exit(code)
"""


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("command", ["claims", "rates", "beta", "density-check"])
def test_cli_run_path_imports_no_scipy(tmp_path, command, d):
    # every subcommand on a small config, with its norms by Lanczos (rates
    # at n = 64 and 1024, with up to 252 tail columns), loads numpy alone
    src = str(Path(samplerec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cfg = write_config(tmp_path, f"d = {d}\nn_grid = 64, 1024\nc_head = 0.25\ntrials = 1\nseed = 5\n")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, command, "--config", cfg, "--out", str(tmp_path / "out.csv")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "scipy modules: []" in proc.stdout


_NO_UNUSED_MODULES = """
import json, sys
# modules no run calls for: numpy >= 2 imports numpy.random on first use,
# np.unique and np.median import numpy.ma, fractions imports decimal, and
# statistics imports both
UNUSED = ("numpy.random", "numpy.ma", "fractions", "decimal", "statistics")
def loaded():
    return sorted(m for m in sys.modules if any(m == u or m.startswith(u + ".") for u in UNUSED))
import samplerec
print("loaded by import samplerec:", loaded())
from samplerec import cli, lsq
loaded_after = []
runs, fallback = json.loads(sys.argv[1]), json.loads(sys.argv[2])
for argv in runs + [fallback]:
    if argv is fallback:
        # every draw takes the dense SVD route of e_trunc
        lsq.KAPPA_LIMIT = 1.0
    if cli.main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
    if loaded():
        loaded_after.append((argv[0], loaded()))
print("unused modules loaded after:", loaded_after)
"""


def test_cli_run_path_imports_no_numpy_random(tmp_path):
    # the draws come from samplerec.rng, which computes numpy's Philox
    # stream and SeedSequence without loading numpy.random (numpy >= 2
    # imports it on first use); no run loads numpy.ma, fractions, decimal or
    # statistics either, nor does importing the package, and a rates run
    # with every e_trunc on the kappa fallback loads none of them
    src = str(Path(samplerec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    runs = []
    for command, d in (("claims", 1), ("rates", 1), ("rates", 2), ("beta", 2), ("density-check", 2)):
        cfg = write_config(tmp_path, f"d = {d}\nn_grid = 64, 128\nc_head = 0.25\ntrials = 1\n", f"{command}{d}.cfg")
        runs.append([command, "--config", cfg, "--out", str(tmp_path / f"{command}{d}.csv")])
    fallback = ["rates", "--config", runs[1][2], "--out", str(tmp_path / "fallback.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_UNUSED_MODULES, json.dumps(runs), json.dumps(fallback)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "loaded by import samplerec: []" in proc.stdout
    assert "dense e_trunc fallback (kappa(G) above 1.0): 2 of 2 full-rank draws" in proc.stdout
    assert "unused modules loaded after: []" in proc.stdout


@given(
    values=st.lists(st.floats(0.0, 1e300, exclude_min=True), min_size=1, max_size=48),
    repeats=st.lists(st.integers(0, 47), max_size=16),
)
def test_median_is_numpy_median_to_the_bit(values, repeats):
    # lengths 1 to 64, odd and even, with ties from repeated values, and
    # NaN as np.median gives it when any value is NaN
    values = values + [values[i % len(values)] for i in repeats]
    assert experiments._median(values) == float(np.median(values))
    assert math.isnan(experiments._median(values[1:] + [math.nan]))


# sha256 of the CSVs of small configs, with one BLAS thread (numpy 2.4.6,
# OpenBLAS 0.3.31), which the command line now pins itself.  The beta
# config orders d=3 ties, whose float weights once depended on coordinate
# order; weighing factor weights in ascending order left its digest as it
# was.  The
# claims digest (d=1) dates from the structured Gram path, which takes the
# norm of the tail block from the Toeplitz Gram operator of the weighted
# exponential sums and the densities from their closed form; it moved
# tail_ratio_median by at most 2.1e-15 relative.  The rates digest
# dates from the closed-form series enclosure, which moved beta_k, gamma_k
# and ratio2 by at most 4.5e-16 relative, and e_upper, which now pays for the
# upper end of the tail, by 2.1e-14; and then from the tail Gram read from
# the view B[:, k:] in place of the formed Gamma, which moved s_max_Gamma and
# ratio1 by at most 2.5e-16 relative.  Both the claims and the rates digest
# then moved with the in-house Lanczos, the numpy eigvalsh of formed Grams
# and of operators up to size 160, the real-FFT Toeplitz product and e_trunc
# by the operator on the dense route: the float columns by at most 9.7e-16
# relative, integer and fraction columns unchanged.  The claims digest then
# moved with the exponential sums summed over row blocks of points, which
# moved tail_ratio_median by 3.5e-16 relative; the head factorization from
# G^T G moved no claims column.  The rates digest (d=2) then moved with the
# same head factorization at every d, G^T G and G^T B_tail from B's views in
# place of the SVD of G: s_min_G, e_trunc, e_upper, ratio1 and ratio2 by at
# most 8.5e-16 relative, integer columns unchanged.  The claims digest then
# moved with the exponential sums from one complex exponential per point and
# power tables by multiplication: tail_ratio_median by 3.9e-16 relative.
# The rates digest then moved with the Gram form of d >= 2 instances with
# m <= n (B^T B summed over row chunks while sampling, its tail block's norm
# by Lanczos): s_min_G, s_max_Gamma, e_upper and ratio1 by at most 5.6e-16
# relative, integer columns unchanged.  The rates digest then moved with the
# structured form of d = 2 draws with m <= n (Gram blocks from the
# two-dimensional exponential sums, the tail norm on upper column panels),
# after test_cli_csv_is_the_same_in_every_point_set_form passed on its
# config: s_min_G by 5.5e-16, s_max_Gamma 5.8e-16, e_trunc 4.1e-16, e_upper
# 4.3e-16, ratio1 2.5e-16 and ratio2 8.5e-16 relative, the others unchanged.
# The rates digest then moved with the closed-form density at every d (a
# constant plus the cosine products that the tie classes cut at k and m
# leave, in place of the mixture of m squared basis functions), after the
# closed form matched the mixture within 1e-14 relative at d = 1 to 4:
# s_min_G by 3.9e-16, s_max_Gamma 2.7e-16, e_trunc 4.1e-16, e_upper
# 5.2e-16, ratio1 2.5e-16 and ratio2 8.5e-16 relative, the others
# unchanged; the claims (d = 1, the same closed form bit for bit), beta and
# density-check digests did not move.  The claims digest then moved with
# Lanczos's second stop rule (the top Ritz value converged, r^2 <= eps theta
# (theta - theta_2)), after every Lanczos run of the benchmark workloads
# matched a dense eigvalsh within 1e-14 relative: tail_ratio_median by
# 3.9e-16 relative, the fraction and integer columns unchanged; the rates
# golden, whose tails all have q <= 160 and take eigvalsh, did not move.
# The claims and rates digests then moved with the factor CDFs inverted by
# a per-period reduction and four Newton steps in place of 48 bisection
# steps, after test_cli_csv_moves_within_roundoff_from_the_bisection_inverse
# passed on both configs: claims tail_ratio_median by 2.2e-14 relative;
# rates s_min_G by 1.2e-15, s_max_Gamma 1.1e-15, e_trunc 8.2e-16, e_upper
# 9.1e-16, ratio1 1.1e-15 and ratio2 1.9e-15 relative; integer and
# fraction columns unchanged.  The beta and density-check digests, which
# draw no points, did not move.  The claims and rates digests then moved
# with one eigensolver route (Lanczos for operators of every size, where
# those up to size 160 took eigvalsh of their product with the identity),
# after every Lanczos run of the benchmark workloads, the small ones
# included, matched a dense eigvalsh within 1e-14 relative: claims
# tail_ratio_median by 4.4e-16 relative; rates s_max_Gamma by 5.5e-16,
# e_trunc 4.7e-16, e_upper 1.8e-16, ratio1 4.9e-16 and ratio2 1.1e-15
# relative; integer and fraction columns unchanged.  The rates digest then
# moved with the staircase sums at d >= 2 (real sums on a dyadic staircase
# in place of the two-dimensional box of complex sums), after
# test_cli_csv_is_the_same_in_every_point_set_form passed on every config:
# s_min_G by 7.7e-16, s_max_Gamma 2.3e-16, e_trunc 1.7e-16, e_upper
# 5.2e-16, ratio1 5.0e-16 and ratio2 3.4e-16 relative, the integer and
# fraction columns unchanged.  The rates digest then moved with the
# staircase reader scaling each Gram entry by one rounding of p_j p_l (in
# place of p_j, then p_l), which gives the d = 1 blocks the bits of the
# complex formula, after test_cli_csv_is_the_same_in_every_point_set_form
# passed on every config: s_min_G by 2.7e-16, s_max_Gamma 1.4e-16, e_trunc
# 2.1e-16, ratio1 2.5e-16 and ratio2 4.2e-16 relative, the others
# unchanged; the claims digest (d = 1) did not move.  The rates digest then
# moved with e_trunc applied as the factors of W (the head-by-tail block
# and S^-2 V^T, never their product), after
# test_cli_csv_is_the_same_in_every_point_set_form and the 1e-13 oracle
# against the formed W passed: e_trunc by 2.1e-16, ratio1 1.2e-16 and
# ratio2 4.2e-16 relative, the others unchanged; the claims digest, which
# computes no e_trunc, did not move.  The claims and rates digests then
# moved with Lanczos by the three-term recurrence in place of the stored,
# twice-orthogonalized basis, after every Lanczos run of the benchmark
# workloads matched a dense eigvalsh within 1e-14 relative, with no more
# products than before: claims tail_ratio_median by 5.3e-16 relative;
# rates s_max_Gamma by 1.4e-16, e_trunc 4.1e-16, ratio1 6.1e-16 and ratio2
# 1.1e-15 relative, the others unchanged; the beta and density-check
# digests, which take no norm, did not move.
_GOLDEN = {
    "claims": (
        "d = 1\ns = 1.0\nn_grid = 256, 1024\nc_head = 0.05\nm_factor = 8\n"
        "trials = 2\nseed = 20250814\n",
        "c8932b59a4e2d611f913701603af9c4763b66f09aa294d7600d03aa93c4e02fb",
    ),
    "rates": (
        "d = 2\ns = 1.0\nn_grid = 64, 128, 256, 512\nc_head = 0.25\nm_factor = 8\n"
        "trials = 2\nseed = 20250814\n",
        "de014f564ac1d42cd0fcddfc957f90f3f49addc08b740cf8c7b58aa8d68d083e",
    ),
    "beta": (
        "d = 3\ns = 1.3\nn_grid = 16, 64, 256, 1024\nseed = 20250814\n",
        "c947c104d138e7511845a7bf760b52ad85fb1d53ca1f6cbffa91a0a092bba1b2",
    ),
    "density-check": (
        "d = 2\ns = 1.0\nn_grid = 64, 256\nc_head = 0.25\nm_factor = 8\nseed = 20250814\n",
        "b56597545636533aaec74f4e198111152d536d6ec7be8c3ba9447e772a203923",
    ),
}


def _run_cli(tmp_path, command, config_text, timeout, preexec_fn=None):
    """python -m samplerec <command> in a subprocess, with one BLAS thread;
    preexec_fn runs in the child before it starts."""
    src = str(Path(samplerec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cfg = write_config(tmp_path, config_text, f"{command}.cfg")
    out = tmp_path / f"{command}.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "samplerec", command, "--config", cfg, "--out", str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=timeout,
        preexec_fn=preexec_fn,
    )
    return proc, out


def test_cli_csv_bytes_match_recorded_digests(tmp_path):
    for command, (config, digest) in _GOLDEN.items():
        proc, out = _run_cli(tmp_path, command, config, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, command


def test_cli_instances_that_keep_b_are_unchanged(tmp_path):
    # d = 2 with m > n at every grid point (m = 1312 at n = 512, 2360 at
    # n = 1024): the instances keep B, whose Gram would be larger, and the
    # tail norm is Lanczos on the view B[:, k:]; the CSV was the bytes of
    # the code before the Gram form until the closed-form density moved
    # s_min_G by 4.7e-16, s_max_Gamma 4.0e-16, e_trunc 1.3e-15, e_upper
    # 5.1e-16, ratio1 1.1e-15 and ratio2 2.6e-15 relative, and Lanczos's
    # Ritz-value stop rule moved e_trunc by 1.4e-16, ratio1 2.1e-16 and
    # ratio2 2.2e-16 relative, and the reduced Newton inverse of the factor
    # CDFs moved s_min_G by 1.5e-14, s_max_Gamma 2.6e-15, e_trunc 3.5e-14,
    # e_upper 1.6e-14, ratio1 2.2e-14 and ratio2 6.9e-14 relative, and the
    # three-term Lanczos recurrence moved e_trunc by 2.4e-16, ratio1 2.4e-16
    # and ratio2 5.8e-16 relative
    config = "d = 2\ns = 0.75\nn_grid = 512, 1024\nc_head = 2.0\nm_factor = 8\ntrials = 1\nseed = 20250814\n"
    proc, out = _run_cli(tmp_path, "rates", config, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [row.split(",")[2] for row in out.read_text().splitlines()[1:]] == ["1312", "2360"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "7a4adf0d23c40a677830620034dbfca078a8bdcc1202629c787f9f41bd68d79b"
    )


def test_cli_rates_on_a_repeated_grid_fits_no_slope(tmp_path):
    # n_grid 64, 64 gives two clean rows at one n: the report says the
    # slope is unavailable where a fit through one n printed numpy's
    # RankWarning on stderr and a slope of -0.093; the CSV is the one the
    # fitted run wrote
    config = "d = 1\ns = 1.0\nn_grid = 64, 64\nc_head = 0.25\nm_factor = 8\ntrials = 2\nseed = 20250814\n"
    proc, out = _run_cli(tmp_path, "rates", config, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "log-log slope unavailable: clean rows at fewer than two distinct n" in proc.stdout
    assert "log-log slope of" not in proc.stdout
    assert "paper's rate" not in proc.stdout and "ratio2" not in proc.stdout
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["64", "64"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4aaefff6e2ca4c94215a84142601fc706115c80075953795a1cd16c2efd93f50"
    )


# Small rates and claims configs at d = 1, d = 2 (s = 0.75 and 1.0), d = 3,
# d = 4 and d = 8 (s = 3, the paper's regime d > 2s + 1), whose d = 1 and
# m <= n draws take the structured form, the staircase (at d = 1 one box of
# the exponential sums); the rates golden config is the first.
_CROSS_FORM = [
    ("rates", "d = 2\ns = 1.0\nn_grid = 64, 128, 256, 512\nc_head = 0.25\nm_factor = 8\n"
              "trials = 2\nseed = 20250814\n"),
    ("rates", "d = 2\ns = 0.75\nn_grid = 256, 512, 1024\nc_head = 0.25\nm_factor = 8\ntrials = 2\nseed = 2\n"),
    ("rates", "d = 3\ns = 0.6\nn_grid = 64, 256, 512\nc_head = 0.25\nm_factor = 8\ntrials = 2\nseed = 5\n"),
    ("claims", "d = 2\ns = 0.75\nn_grid = 256, 1024\nc_head = 0.05\nm_factor = 8\ntrials = 2\nseed = 3\n"),
    ("claims", "d = 2\ns = 1.0\nn_grid = 256, 1024\nc_head = 0.05\nm_factor = 8\ntrials = 2\nseed = 4\n"),
    ("claims", "d = 3\ns = 0.6\nn_grid = 256, 512\nc_head = 0.05\nm_factor = 8\ntrials = 2\nseed = 6\n"),
    ("rates", "d = 1\ns = 1.0\nn_grid = 64, 256, 1024\nc_head = 0.25\nm_factor = 8\ntrials = 2\nseed = 7\n"),
    ("rates", "d = 1\ns = 2.5\nn_grid = 64, 256, 1024\nc_head = 0.25\nm_factor = 8\ntrials = 2\nseed = 8\n"),
    ("claims", "d = 1\ns = 1.0\nn_grid = 256, 1024\nc_head = 0.05\nm_factor = 8\ntrials = 2\nseed = 9\n"),
    ("rates", "d = 4\ns = 0.75\nn_grid = 128, 512, 1024\nc_head = 0.25\nm_factor = 8\ntrials = 2\nseed = 10\n"),
    ("rates", "d = 8\ns = 3.0\nn_grid = 256, 1024\nc_head = 0.25\nm_factor = 8\ntrials = 2\nseed = 2\n"),
]

_INT_COLUMNS = {"n", "k", "m", "trials", "degenerate_trials"}
_FRACTION_COLUMNS = {"smin_success_frac", "tail_success_frac", "degenerate_frac"}


def cross_form_drift(header, drawn, twin, exact=_INT_COLUMNS):
    """Largest relative difference of each float column between two CSVs of
    one config; the exact columns (the integer ones by default) must match
    exactly, and a NaN cell must be NaN in both."""
    assert len(drawn) == len(twin)
    drift = {}
    for j, name in enumerate(header):
        if name in exact:
            assert [row[j] for row in drawn] == [row[j] for row in twin], name
            continue
        worst = 0.0
        for row_a, row_b in zip(drawn, twin):
            a, b = float(row_a[j]), float(row_b[j])
            assert math.isnan(a) == math.isnan(b), name
            if a != b:
                worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
        drift[name] = worst
    return drift


@pytest.mark.parametrize("command, config", _CROSS_FORM, ids=[
    f"{command}-d{config.split()[2]}-s{config.split()[5]}" for command, config in _CROSS_FORM
])
def test_cli_csv_is_the_same_in_every_point_set_form(tmp_path, monkeypatch, command, config):
    # each config run as drawn, then with every point set replaced by its
    # twin that holds B (dense_matrix of the same points and densities),
    # whose Gram blocks, tail norm and head factorization all come from B
    path = write_config(tmp_path, config)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "drawn.csv")]) == 0
    sample = density.sample_points

    def with_b(params, n, seed):
        pts = sample(params, n, seed)
        return dataclasses.replace(pts, B=density.dense_matrix(pts), sums=None)

    monkeypatch.setattr(density, "sample_points", with_b)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "twin.csv")]) == 0
    header, *drawn = [line.split(",") for line in (tmp_path / "drawn.csv").read_text().splitlines()]
    twin_header, *twin = [line.split(",") for line in (tmp_path / "twin.csv").read_text().splitlines()]
    assert header == twin_header and drawn
    drift = cross_form_drift(header, drawn, twin)
    assert max(drift.values()) <= 1e-13, drift


def test_cli_paper_regime_csv_is_unchanged(tmp_path):
    # rates at d = 8, s = 3, where d > 2s + 1, the last cross-form config,
    # pinned after test_cli_csv_is_the_same_in_every_point_set_form passed
    # on it: the largest drift from its dense twin was 1.3e-15 relative
    command, config = _CROSS_FORM[-1]
    proc, out = _run_cli(tmp_path, command, config, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "56f5bd4c252d8b2459e62c1286c09a3293d6c4d65288718dd6007de132e94039"
    )


def bisection_inverse(sign, freq, u):
    """The 48-step bisection inverse of the factor CDFs that the reduced
    Newton inverse replaced, kept as its oracle: final bracket 2^-48, so
    |F(x) - u| <= 2^-47."""
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        below = density._factor_cdf(sign, freq, mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# The claims and rates golden configs, the config that keeps B, and the
# three perfbench workload configs at seeds 20250814 and 2 (the rates ones
# at seed 2 are the BLAS-thread configs).
_INVERSE_ORACLE = [
    ("claims", _GOLDEN["claims"][0]),
    ("rates", _GOLDEN["rates"][0]),
    ("rates", "d = 2\ns = 0.75\nn_grid = 512, 1024\nc_head = 2.0\nm_factor = 8\ntrials = 1\nseed = 20250814\n"),
] + [
    (command, f"d = {d}\ns = {s}\nn_grid = {grid}\nc_head = {c_head}\nm_factor = 8\ntrials = {trials}\n"
              f"seed = {seed}\n")
    for seed in (20250814, 2)
    for command, d, s, grid, c_head, trials in (
        ("claims", 1, 1.0, "512, 2048", 0.05, 2),
        ("rates", 1, 1.0, "64, 128, 256, 512, 1024, 2048, 4096", 0.25, 3),
        ("rates", 2, 0.75, "256, 512, 1024, 2048, 4096", 0.25, 1),
    )
]


@pytest.mark.parametrize("command, config", _INVERSE_ORACLE, ids=[
    f"{command}-d{config.split()[2]}-s{config.split()[5]}-n{config.split()[8].rstrip(',')}-seed{config.split()[-1]}"
    for command, config in _INVERSE_ORACLE
])
def test_cli_csv_moves_within_roundoff_from_the_bisection_inverse(tmp_path, monkeypatch, command, config):
    # each config run as drawn, then with the bisection inverse in place of
    # the reduced Newton one: the same components and uniforms, points that
    # differ by roundoff, so every decision (integer and fraction columns)
    # is the same and the float columns agree within 1e-12 relative
    path = write_config(tmp_path, config)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "newton.csv")]) == 0
    monkeypatch.setattr(density, "_invert_factor_cdf", bisection_inverse)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "bisection.csv")]) == 0
    header, *newton = [line.split(",") for line in (tmp_path / "newton.csv").read_text().splitlines()]
    oracle_header, *bisected = [line.split(",") for line in (tmp_path / "bisection.csv").read_text().splitlines()]
    assert header == oracle_header and newton
    drift = cross_form_drift(header, newton, bisected, exact=_INT_COLUMNS | _FRACTION_COLUMNS)
    assert max(drift.values()) <= 1e-12, drift


@pytest.mark.parametrize("threads", [None, "2"])
def test_cli_csv_bytes_do_not_depend_on_blas_threads(tmp_path, threads):
    # the perfbench rates-d1 config at seed 2, whose CSV moved in its float
    # columns at two OpenBLAS threads, and the rates-d2-s075 one, whose d = 2
    # draws sum their staircase sums by real matrix products: the
    # command line pins one thread itself, so the bytes are the one-thread
    # bytes with the variable unset (OpenBLAS's default) or set to 2; the
    # d = 2 digest moved with the closed-form density (s_min_G by 5.5e-16,
    # s_max_Gamma 9.9e-16, e_trunc 2.2e-16, e_upper 7.5e-16, ratio1 5.0e-16
    # and ratio2 3.7e-16 relative), the d = 1 one did not; both then moved
    # with Lanczos's Ritz-value stop rule: d = 1 s_max_Gamma by 2.0e-16,
    # e_trunc 2.1e-16, ratio1 3.7e-16 and ratio2 4.3e-16, d = 2 s_max_Gamma
    # 1.8e-16, e_trunc 1.9e-16, ratio1 2.6e-16 and ratio2 2.9e-16 relative;
    # both then moved with the reduced Newton inverse of the factor CDFs:
    # d = 1 s_min_G by 2.0e-14, s_max_Gamma 3.3e-15, e_trunc 2.3e-15,
    # e_upper 1.7e-14, ratio1 1.5e-14 and ratio2 4.5e-15, d = 2 s_min_G
    # 1.6e-15, s_max_Gamma 6.8e-16, e_trunc 1.2e-15, e_upper 1.6e-15, ratio1
    # 8.9e-16 and ratio2 2.4e-15 relative, integer columns unchanged; both
    # then moved with Lanczos for the operators up to size 160 (once dense
    # eigvalsh): d = 1 s_max_Gamma by 8.0e-16, e_trunc 6.5e-16, ratio1
    # 4.9e-16 and ratio2 1.3e-15, d = 2 s_max_Gamma 1.9e-16, e_trunc 7.4e-16,
    # ratio1 7.7e-16 and ratio2 1.4e-15 relative, integer columns unchanged;
    # the d = 2 one then moved with the staircase sums: s_min_G by 5.2e-16,
    # s_max_Gamma 1.9e-16, e_trunc 3.5e-16, e_upper 3.8e-16, ratio1 6.3e-16
    # and ratio2 8.2e-16 relative, integer columns unchanged; the d = 1 one
    # did not move when its draws took the one-box staircase, and the d = 2
    # one then moved with the staircase reader's one rounding of p_j p_l,
    # after test_cli_csv_is_the_same_in_every_point_set_form passed at
    # 1e-13: s_min_G by 3.8e-16, s_max_Gamma 2.0e-16, e_trunc 2.2e-16,
    # e_upper 4.2e-16, ratio1 5.1e-16 and ratio2 5.8e-16 relative, integer
    # columns unchanged; both then moved with e_trunc applied as the factors
    # of W, never formed, after test_cli_csv_is_the_same_in_every_point_set_form
    # and the 1e-13 oracle against the formed W passed: d = 1 e_trunc by
    # 3.3e-16, e_upper 2.7e-16, ratio1 1.2e-16 and ratio2 6.4e-16, d = 2
    # e_trunc 3.0e-16, ratio1 2.6e-16 and ratio2 6.4e-16 relative, the
    # others unchanged; both then moved with the three-term Lanczos
    # recurrence: d = 1 s_max_Gamma by 3.5e-16, e_trunc 2.7e-16, e_upper
    # 1.4e-16, ratio1 4.7e-16 and ratio2 6.4e-16, d = 2 s_max_Gamma 1.8e-16,
    # e_trunc 4.3e-16, e_upper 1.9e-16, ratio1 5.0e-16 and ratio2 7.5e-16
    # relative, the others unchanged
    src = str(Path(samplerec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    for config, digest in (
        ("d = 1\ns = 1.0\nn_grid = 64, 128, 256, 512, 1024, 2048, 4096\nc_head = 0.25\nm_factor = 8\n"
         "trials = 3\nseed = 2\n", "627b31ba99c6fd16df62e83b7c4950568c5b37b902526cdf0c06bdb239d3a60f"),
        ("d = 2\ns = 0.75\nn_grid = 256, 512, 1024, 2048, 4096\nc_head = 0.25\nm_factor = 8\n"
         "trials = 1\nseed = 2\n", "830563fb3e0fd27603b119f4b2737d4d8d541ced754c03eaecdaa5c9acc6dd39"),
    ):
        cfg = write_config(tmp_path, config)
        out = tmp_path / "rates.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "samplerec", "rates", "--config", cfg, "--out", str(out)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, config


def test_cli_gives_blas_threads_back_and_runs_unpinned(tmp_path, monkeypatch, capsys):
    # in process, main runs on one thread and leaves each library at the
    # thread count it found; with no library to pin, the run goes ahead after one stderr line
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, "n_grid = 16, 32\nc_head = 0.5\ntrials = 2\nseed = 4\n")
    calls = cli._openblas_thread_calls()
    before = [get() for get, _ in calls]
    during = []
    rates = cli.RUNNERS["rates"]

    def counted_rates(config):
        during.extend(get() for get, _ in calls)
        return rates(config)

    monkeypatch.setitem(cli.RUNNERS, "rates", counted_rates)
    assert cli.main(["rates", "--config", path, "--out", "a.csv"]) == 0
    assert calls and during == [1] * len(calls)
    assert [get() for get, _ in calls] == before
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(cli, "_openblas_thread_calls", list)
    assert cli.main(["rates", "--config", path, "--out", "b.csv"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: BLAS not pinned to one thread") and err.count("\n") == 1
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cli_out_of_memory_exits_3(tmp_path):
    # n = 8000, m = 8192 keeps B (m > n), a 500 MiB array the child may not
    # map; this used to end in a MemoryError traceback with exit 1, the code
    # of a failed invariant
    limit = 450 << 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    config = "d = 2\ns = 0.75\nn_grid = 8000\nc_head = 1.151\nm_factor = 8\ntrials = 1\n"
    proc, out = _run_cli(tmp_path, "rates", config, timeout=120, preexec_fn=cap_address_space)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: out of memory: ") and proc.stderr.count("\n") == 1
    assert "(8000, 8192)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("d, s", [(3, "0.51"), (1, "100")])
def test_cli_density_check_needs_no_series_total(tmp_path, d, s):
    # tol 1e-10 is below the float resolution of the series total at d=3,
    # s=0.51, and the sigma^2 tail past the basis is below it at d=1, s=100;
    # density-check reads neither the total nor the tail, and used to exit 3
    # on both
    config = f"d = {d}\ns = {s}\nn_grid = 64\nc_head = 0.25\nm_factor = 8\n"
    proc, out = _run_cli(tmp_path, "density-check", config, timeout=60)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header[4] == "quadrature" and len(rows) == 1
    assert abs(float(rows[0][4]) - 1.0) <= 1e-10


def test_cli_density_check_runs_below_its_matrix_size(tmp_path):
    # d=2, s=0.75, m=984: the 236^2-point quadrature grid's basis matrix
    # would take 418 MiB, more than the child may map in all; only row
    # blocks of it exist at a time
    limit = 384 << 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    config = "d = 2\ns = 0.75\nn_grid = 4096\nc_head = 0.25\nm_factor = 8\n"
    proc, out = _run_cli(tmp_path, "density-check", config, timeout=120, preexec_fn=cap_address_space)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header[2:5] == ["m", "resolution", "quadrature"] and len(rows) == 1
    m, resolution = int(rows[0][2]), int(rows[0][3])
    assert resolution ** 2 * m * 8 > limit
    assert abs(float(rows[0][4]) - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "command, line",
    [("rates", "s = inf"), ("claims", "c_head = inf"), ("rates", "s = nan"),
     ("claims", "c_head = 1e308"), ("rates", "c_head = 1e308"), ("density-check", "c_head = 1e308")],
)
def test_cli_non_finite_config_exits_2(tmp_path, command, line):
    # s = inf used to hang in the weight bisection, and c_head = inf, or a
    # finite c_head whose head size c_head * n / log n is inf, to end in an
    # OverflowError traceback; the timeout turns a hang into a failure
    proc, out = _run_cli(tmp_path, command, f"n_grid = 64\ntrials = 1\n{line}\n", timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    assert not list(tmp_path.glob("*.csv"))


def test_cli_config_not_utf8_exits_2(tmp_path):
    # a config file that is not valid UTF-8 used to end in a
    # UnicodeDecodeError traceback with exit 1, the code of a failed invariant
    proc, out = _run_cli(tmp_path, "rates", b"d = 1\ns = 1.0\n\xff\xfe = 3\n", timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot read config file ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("s", ["300", "400", "1e308"])
def test_cli_weight_beyond_float_range_exits_3(tmp_path, s):
    # the norm weights of the basis at such s overflow a float; this used to
    # end in an OverflowError traceback with exit 1, and at s = 1e308, where
    # 2s is inf and 2^(2s) inf without overflow, in a basis enumeration that
    # grew without bound, which the address-space cap stops early
    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc, out = _run_cli(tmp_path, "rates", f"d = 1\nn_grid = 64\ntrials = 1\ns = {s}\n", timeout=60,
                         preexec_fn=cap_address_space)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "beyond float range" in proc.stderr
    assert not out.exists()
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("d, s, ulps", [(4, 0.6, "the width is 72 ulps of the total, tol 55"),
                                        (3, 0.51, "the width is 80 ulps of the total, tol 0.859")],
                         ids=["d4-s0.6", "d3-s0.51"])
def test_cli_enclosure_wider_than_tol_exits_3(tmp_path, d, s, ulps):
    # the certified total's enclosure is dozens of ulps wide, so tol = 1e-10
    # refuses a total of 12561.5 as it does one of 1.0e6; the message says so
    proc, out = _run_cli(tmp_path, "rates", f"d = {d}\ns = {s}\nn_grid = 64\ntrials = 1\n", timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: enclosure width ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith(f"above tol 1.0e-10: {ulps}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, grid, s, message",
    [
        ("rates", "64\ntrials = 1", "100", "below the float resolution of the total"),
        ("rates", "64\ntrials = 1", "200", "below the float resolution of the total"),
        ("beta", "8, 16", "100", "below the float resolution of the total"),
        # the 17-function basis needs the weight 1 + 8^400, past float range,
        # so enumeration stops before the tail is summed
        ("beta", "8, 16", "200", "beyond float range"),
    ],
)
def test_cli_tail_below_float_resolution_exits_3(tmp_path, command, grid, s, message):
    # the sigma^2 tail past the head is below one ulp of the total 2; this
    # used to print numpy overflow warnings before the error line
    proc, out = _run_cli(tmp_path, command, f"d = 1\nn_grid = {grid}\ns = {s}\n", timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()
    assert not list(tmp_path.glob("*.csv"))


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def check_emitted_csv(text, command, n_grid, m_factor):
    """What the theory fixes on one emitted CSV, read back from its text:
    integer columns integral, k <= n/2 and m = m_factor k, fractions in
    [0, 1], a_k and beta_k at most gamma_k, e_trunc <= e_upper, and ratio1
    at most 1 up to the split bound's slack."""
    header, *rows = [line.split(",") for line in text.splitlines()]
    assert rows, text
    for row in rows:
        cell = dict(zip(header, row, strict=True))
        ints = {name: int(cell[name]) for name in _INT_COLUMNS | {"resolution"} if name in cell}
        if "n" in ints:
            assert ints["n"] in n_grid and ints["k"] <= ints["n"] / 2 and ints["m"] == m_factor * ints["k"]
        elif command == "beta":
            assert ints["k"] in n_grid
        for name, value in cell.items():
            if name.endswith("_frac"):
                assert 0.0 <= float(value) <= 1.0, name
        if "gamma_k" in cell:
            assert max(float(cell["a_k"]), float(cell["beta_k"])) <= float(cell["gamma_k"])
        if "e_upper" in cell and not math.isnan(float(cell["e_trunc"])):
            assert float(cell["e_trunc"]) <= float(cell["e_upper"])
            assert float(cell["ratio1"]) <= 1.0 + experiments._SPLIT_SLACK / float(cell["a_k"])


@given(
    command=st.sampled_from(tuple(cli.RUNNERS)),
    d=st.integers(1, 4),
    s=st.one_of(st.floats(0.51, 3.0), st.floats(0.51, 400.0)),
    n_grid=st.lists(st.integers(2, 256), min_size=1, max_size=3, unique=True),
    c_head=st.one_of(st.floats(0.01, 1.0), st.floats(0.01, 8.0), st.just(1e308)),
    m_factor=st.integers(2, 8),
    trials=st.integers(1, 2),
    seed=st.integers(0, (1 << 64) - 1),
)
@settings(max_examples=300)
def test_cli_emits_a_checked_csv_or_one_error_line(tmp_path_factory, command, d, s, n_grid, c_head, m_factor, trials, seed):
    # any config that passes the parser, run in process: exit 0 with a CSV
    # whose invariants hold, or exit 2 or 3 with one stderr line and no
    # CSV; a quadrature grid above 2^16 points (the subcommand's own cap is
    # 2^22) exits 2, so that each example takes at most about a second
    tmp = tmp_path_factory.mktemp("property")
    path = write_config(tmp, f"d = {d}\ns = {s!r}\nn_grid = {', '.join(map(str, n_grid))}\n"
                             f"c_head = {c_head!r}\nm_factor = {m_factor}\ntrials = {trials}\nseed = {seed}\n")
    out = tmp / "out.csv"
    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(experiments, "_DENSITY_GRID_CAP", 1 << 16)
        code = cli.main([command, "--config", path, "--out", str(out)])
    assert code in (0, 2, 3), stderr.getvalue()
    if code:
        assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n")
        assert "Traceback" not in stderr.getvalue()
        assert not out.exists()
    else:
        check_emitted_csv(out.read_text(), command, n_grid, m_factor)

