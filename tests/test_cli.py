import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import samplerec
from samplerec import cli, experiments, lsq, spectral
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
    path = tmp_path / name
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
    with pytest.raises(ConfigError):
        ExperimentConfig(d=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(s=0.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_grid=())
    with pytest.raises(ConfigError):
        ExperimentConfig(n_grid=(1,))
    with pytest.raises(ConfigError):
        ExperimentConfig(n_grid=(1 << 15,))
    with pytest.raises(ConfigError):
        ExperimentConfig(c_head=0.0)
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


def _raise_arpack(*args, **kwargs):
    raise ArpackNoConvergence("synthetic ARPACK stall", np.empty(0), np.empty((0, 0)))


@pytest.mark.parametrize(
    "module, attr, raiser",
    [
        (spectral, "spectral_sums", _raise_precision),
        (spectral, "ordered_basis", _raise_enumeration),
        (lsq, "spectral_norm", _raise_arpack),
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


# sha256 of the CSVs of two small configs, with one BLAS thread (numpy 2.4.6,
# OpenBLAS 0.3.31); other thread counts change low digits.  The claims digest
# dates from before the factor-table basis evaluation replaced the
# column-masked one; the rates digest from e_trunc's move to the reduced tail
# block of one thin SVD of G, which moved s_min_G, e_trunc, e_upper, ratio1
# and ratio2 by at most 1e-15 relative.
_GOLDEN = {
    "claims": (
        "d = 1\ns = 1.0\nn_grid = 256, 1024\nc_head = 0.05\nm_factor = 8\n"
        "trials = 2\nseed = 20250814\n",
        "98f699293e95c1dd108d5229c517252cae8bcce6054fafc41615e2bc335f96d4",
    ),
    "rates": (
        "d = 2\ns = 1.0\nn_grid = 64, 128, 256, 512\nc_head = 0.25\nm_factor = 8\n"
        "trials = 2\nseed = 20250814\n",
        "87e3806358374e8766c6a26a47ba27e7ace50cddafdec8fe52279ed30de620a8",
    ),
}


def test_cli_csv_bytes_match_recorded_digests(tmp_path):
    src = str(Path(samplerec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for command, (config, digest) in _GOLDEN.items():
        cfg = write_config(tmp_path, config, f"{command}.cfg")
        out = tmp_path / f"{command}.csv"
        subprocess.run(
            [sys.executable, "-m", "samplerec", command, "--config", cfg, "--out", str(out)],
            env=env, cwd=tmp_path, check=True, capture_output=True, timeout=120,
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, command


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
