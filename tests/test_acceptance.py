"""End-to-end acceptance gate: ten criteria, one printed PASS/FAIL line each.

The emit fixture prints through the capture plug so the verdict lines are
visible in a plain `pytest -v` run.  Criteria that aggregate over a whole
experiment share module-scoped runs (timed, since two criteria carry runtime
budgets).
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from samplerec.density import density_selfcheck, density_values, sample_points, truncated_density
from samplerec.errors import worst_case_error_trunc
from samplerec.experiments import (
    ExperimentConfig,
    csv_text,
    derive_seed,
    run_beta,
    run_claims,
    run_density_check,
    run_rates,
)
from samplerec.lsq import RANK_RTOL, fit, head_factor, head_svd
from samplerec.spectral import (
    CoefVector,
    OrderedBasis,
    SpaceParams,
    SpectrumSummary,
    basis_matrix,
    beta_gamma,
    empirical_error,
    ordered_basis,
    random_unit_function,
    spectral_sums,
)

ACC_SEED = 20250814


@pytest.fixture
def emit(capsys):
    def _emit(num, name, ok, detail):
        line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print("\n" + line, flush=True)
        assert ok, line

    return _emit


@pytest.fixture(scope="module")
def claims_run():
    config = ExperimentConfig(
        d=1, s=1.0, n_grid=(512, 2048), c_head=0.05, m_factor=8, trials=50, seed=ACC_SEED
    )
    start = time.perf_counter()
    result = run_claims(config)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def rates_run():
    config = ExperimentConfig(
        d=1, s=1.0, n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
        c_head=0.25, m_factor=8, trials=7, seed=ACC_SEED,
    )
    start = time.perf_counter()
    result = run_rates(config)
    return result, time.perf_counter() - start


def make_instance(d, k, m, n, pts_seed):
    basis = ordered_basis(SpaceParams(d, 1.0), m + 1)
    dens = truncated_density(basis, k, m)
    return basis, sample_points(dens, n, pts_seed)


def weighted_matrix(pts, basis):
    """The instance's weighted matrix B, evaluated at its points: the dense oracle."""
    return basis_matrix(basis, pts.points, pts.m) / np.sqrt(pts.densities)[:, None]


def first_row_per_n(result):
    rows = {}
    for row in result.rows:
        rows.setdefault(row[0], row)
    return rows


def ball_probe_errors(pts, g_pinv, basis, m, probes, seed):
    """Recovery errors of random unit-ball functions: lower bounds on e_trunc."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = rng.standard_normal((probes, m))
    u = g / np.linalg.norm(g, axis=1, keepdims=True)
    coef = u * basis.sigma[:m]
    residual = coef.copy()
    residual[:, : pts.k] -= (g_pinv @ (weighted_matrix(pts, basis)[:, :m] @ coef.T)).T
    return np.linalg.norm(residual, axis=1)


def block_power_norm(mat, block=4, iters=300, seed=5):
    """Independent top-singular-value estimate by subspace iteration."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    v, _ = np.linalg.qr(rng.standard_normal((mat.shape[1], block)))
    for _ in range(iters):
        v, _ = np.linalg.qr(mat.T @ (mat @ v))
    small = v.T @ (mat.T @ (mat @ v))
    return float(math.sqrt(np.max(np.linalg.eigvalsh(small))))


def brute_flat_total(s, terms, chunk=1 << 24):
    """One-dimensional spectrum total by raw summation over `terms` flat
    indices (plus the constant), no integral-test assistance."""
    total = 1.0
    done = 0
    while done < terms:
        hi = min(done + chunk, terms)
        flat = np.arange(done + 1, hi + 1, dtype=np.int64)
        f = ((flat + 1) // 2).astype(np.float64)
        total += float(np.sum(1.0 / (1.0 + f ** (2.0 * s))))
        done = hi
    return total


def test_01_reproduces_head_span_functions(emit):
    start = time.perf_counter()
    worst = 0.0
    degenerate = 0
    for d in (1, 2):
        basis, pts = make_instance(d, 16, 128, 256, derive_seed(ACC_SEED, 10, d))
        head = head_factor(pts)
        for t in range(100):
            f = random_unit_function(basis, (1, 16), derive_seed(ACC_SEED, 11, d, t))
            if not head.rank_ok:
                degenerate += 1
                continue
            err = empirical_error(CoefVector(basis, fit(pts, head, f.evaluate(pts.points))), f)
            worst = max(worst, err / f.l2_norm())
    elapsed = time.perf_counter() - start
    emit(
        1, "head-span reproduction",
        worst < 1e-9 and elapsed < 30.0,
        f"max rel L2 error {worst:.3e} over {200 - degenerate} non-degenerate draws, "
        f"{degenerate} degenerate, {elapsed:.1f}s",
    )


def test_02_split_bound_on_every_instance(emit, rates_run):
    result, _ = rates_run
    ratio1 = [row[10] for row in result.rows if not math.isnan(row[10])]
    worst_gap = -math.inf
    checked = 0
    for d, n, k, m in ((1, 128, 8, 32), (2, 256, 12, 48)):
        for t in range(3):
            basis, pts = make_instance(d, k, m, n, derive_seed(ACC_SEED, 20, d, t))
            sv = np.linalg.svd(pts.G, compute_uv=False)
            s_min = sv[-1]
            if s_min <= RANK_RTOL * sv[0]:
                continue
            e_tr = worst_case_error_trunc(pts, head_svd(pts.G), basis)
            s_gam = np.linalg.svd(weighted_matrix(pts, basis)[:, k:] * basis.sigma[k:m], compute_uv=False)[0]
            worst_gap = max(worst_gap, e_tr - (float(basis.sigma[k]) + s_gam / s_min))
            checked += 1
    emit(
        2, "per-instance split bound",
        len(ratio1) == 7 and max(ratio1) <= 1.0 + 1e-10 and checked == 6 and worst_gap <= 1e-10,
        f"max e_trunc/(a_k + s_max/s_min) = {max(ratio1):.6f} over rates grid; "
        f"worst slack {worst_gap:.3e} on {checked} fresh d=1,2 instances",
    )


def test_03_gram_min_singular_success(emit, claims_run):
    result, elapsed = claims_run
    fracs = {n: row[5] for n, row in first_row_per_n(result).items()}
    emit(
        3, "smallest-singular-value success",
        set(fracs) == {512, 2048} and all(f > 0.5 for f in fracs.values()) and elapsed < 300.0,
        f"success fractions at base c: {fracs[512]:.2f} (n=512), {fracs[2048]:.2f} (n=2048), "
        f"threshold 1/2, run {elapsed:.1f}s of 300s",
    )


def test_04_tail_block_ratio_stability(emit, claims_run):
    result, _ = claims_run
    rows = first_row_per_n(result)
    medians = [rows[n][6] for n in (512, 2048)]
    fracs = [rows[n][7] for n in (512, 2048)]
    spread = max(medians) / min(medians)
    emit(
        4, "tail-block ratio stability",
        all(map(math.isfinite, medians)) and spread < 2.0 and all(f > 0.5 for f in fracs),
        f"medians {medians[0]:.4f}/{medians[1]:.4f} (spread {spread:.3f} < 2), "
        f"success at threshold 3: {fracs[0]:.2f}/{fracs[1]:.2f}",
    )


def test_05_error_tail_benchmark_bounded(emit, rates_run):
    result, _ = rates_run
    ratio2 = [row[11] for row in result.rows if not math.isnan(row[11])]
    emit(
        5, "squared error vs tail benchmark",
        len(ratio2) == 7 and max(ratio2) < 100.0,
        f"max e_trunc^2*k/tail(k) = {max(ratio2):.3f} over the grid, bound 100",
    )


def test_06_loglog_decay_slope(emit, rates_run):
    result, elapsed = rates_run
    clean = [row for row in result.rows if row[12] == 0 and not math.isnan(row[8])]
    slope = float(
        np.polyfit([math.log(r[0]) for r in clean], [math.log(r[8]) for r in clean], 1)[0]
    )
    emit(
        6, "log-log decay slope",
        len(clean) == 7 and -1.25 <= slope <= -0.75 and elapsed < 600.0,
        f"median e_trunc slope {slope:.4f} in [-1.25, -0.75], run {elapsed:.1f}s of 600s",
    )


def test_07_singular_value_decay_band(emit):
    basis = ordered_basis(SpaceParams(2, 1.0), 4098)
    n = np.arange(32, 4097)
    ratio = basis.sigma[n] * n / np.log(n)
    band = float(ratio.max() / ratio.min())
    emit(
        7, "d=2 decay band",
        band <= 10.0,
        f"a_n*n/log(n) spread {band:.3f} over every n in [32, 4096], bound 10",
    )


def test_08_tail_statistics(emit):
    params = SpaceParams(1, 1.0)
    basis = ordered_basis(params, 2050)
    summary = spectral_sums(basis)
    over_a = []
    for k in range(8, 2049):
        beta, _ = beta_gamma(summary, k)
        over_a.append(beta / float(basis.sigma[k]))
    band_ok = 0.5 <= min(over_a) and max(over_a) <= 4.0
    order_ok = True
    for k in range(2, 2049):
        _, gamma = beta_gamma(summary, k)
        beta_half, _ = beta_gamma(summary, k // 2)
        order_ok = order_ok and gamma <= beta_half * (1.0 + 1e-12)

    # synthetic geometric spectrum sigma_j = 2^-j: beta_k = sqrt(4/3)*2^-k/sqrt(k)
    # exactly.  tail(k) = total - head[k] loses ~1e-16 absolute however head is
    # summed, so the closed form is checked absolutely at depth and relatively
    # only while 4^k * eps stays below the tolerance.
    j = np.arange(40)
    geo = OrderedBasis(
        params=params,
        indices=j.reshape(-1, 1).astype(np.int64),
        weights=4.0 ** j,
        sigma=2.0 ** -j.astype(float),
    )
    geo_summary = SpectrumSummary(
        basis=geo,
        total_lo=4.0 / 3.0,
        total_hi=4.0 / 3.0,
        head=np.concatenate(([0.0], np.cumsum(geo.sigma ** 2))),
    )
    hook_ok = True
    worst_abs = 0.0
    for k in range(1, 15):
        beta, _ = beta_gamma(geo_summary, k)
        closed = math.sqrt(4.0 / 3.0) * 2.0 ** -k / math.sqrt(k)
        worst_abs = max(worst_abs, abs(beta - closed))
        hook_ok = hook_ok and abs(beta - closed) <= 1e-12
        if k <= 6:
            hook_ok = hook_ok and abs(beta / closed - 1.0) <= 1e-12
            ratio = beta / (geo.sigma[k])
            hook_ok = hook_ok and abs(ratio - math.sqrt(4.0 / (3.0 * k))) <= 1e-12
    emit(
        8, "tail statistics",
        band_ok and order_ok and hook_ok,
        f"beta/a in [{min(over_a):.4f}, {max(over_a):.4f}] for k in [8, 2048]; "
        f"gamma_k <= beta_(k//2) everywhere: {order_ok}; "
        f"geometric hook worst abs dev {worst_abs:.2e}",
    )


def test_09_independent_oracles(emit):
    # certified series totals vs a billion-term raw sum
    params1, params2 = SpaceParams(1, 1.0), SpaceParams(2, 1.0)
    basis1 = ordered_basis(params1, 16)
    basis2 = ordered_basis(params2, 16)
    total1 = spectral_sums(basis1).total
    total2 = spectral_sums(basis2).total
    brute1 = brute_flat_total(1.0, 10 ** 9)
    rel1 = abs(brute1 - total1) / total1
    rel2 = abs(brute1 ** 2 - total2) / total2
    sums_ok = rel1 <= 1e-8 and rel2 <= 1e-8

    # worst-case error vs random ball probes; small tail dimension so the
    # probes can actually land near the extremal direction
    probe_ok = True
    best = []
    for k, m, n, pts_seed in ((2, 4, 64, 424242), (3, 6, 64, 7)):
        basis, pts = make_instance(1, k, m, n, pts_seed)
        g_pinv = np.linalg.pinv(pts.G, rtol=RANK_RTOL)
        e_tr = worst_case_error_trunc(pts, head_svd(pts.G), basis)
        probes = ball_probe_errors(pts, g_pinv, basis, m, 10_000, seed=99)
        probe_ok = probe_ok and bool(np.all(probes <= e_tr * (1.0 + 1e-12)))
        probe_ok = probe_ok and float(probes.max()) >= 0.95 * e_tr
        best.append(float(probes.max()) / e_tr)
    basis, pts = make_instance(1, 16, 128, 256, derive_seed(ACC_SEED, 30))
    g_pinv = np.linalg.pinv(pts.G, rtol=RANK_RTOL)
    e_tr = worst_case_error_trunc(pts, head_svd(pts.G), basis)
    probes = ball_probe_errors(pts, g_pinv, basis, 128, 10_000, seed=99)
    probe_ok = probe_ok and bool(np.all(probes <= e_tr * (1.0 + 1e-12)))
    residual = np.eye(128)
    residual[:16, :] -= g_pinv @ weighted_matrix(pts, basis)
    power = block_power_norm(residual * basis.sigma[:128])
    probe_ok = probe_ok and abs(power - e_tr) <= 1e-8 * e_tr

    # density normalization by tensor-grid quadrature: the self-check's
    # closed form, and the mixture of squared basis functions it stands
    # for, evaluated by basis_matrix on the same grid
    quad_err = []
    form_dev = []
    for d, k, m in ((1, 4, 16), (2, 4, 20)):
        basis = ordered_basis(SpaceParams(d, 1.0), m + 1)
        dens = truncated_density(basis, k, m)
        resolution = max(16, 4 * basis.max_frequency(m))
        quad_err.append(abs(density_selfcheck(dens, resolution) - 1.0))
        axis = np.arange(resolution) / resolution
        grid = np.array(np.meshgrid(*([axis] * d), indexing="ij")).reshape(d, -1).T
        bsq = basis_matrix(basis, grid, m) ** 2
        mixture = 0.5 * (bsq[:, :k].sum(axis=1) / k + bsq[:, k:] @ dens.tail_weights)
        quad_err.append(abs(float(np.mean(mixture)) - 1.0))
        form_dev.append(float(np.max(np.abs(density_values(dens, grid) / mixture - 1.0))))
    quad_ok = max(quad_err) <= 1e-10 and max(form_dev) <= 1e-14

    emit(
        9, "independent oracles",
        sums_ok and probe_ok and quad_ok,
        f"series rel dev {rel1:.2e} (d=1) / {rel2:.2e} (d=2); best probe "
        f"{best[0]:.4f}/{best[1]:.4f} of e_trunc, power-iteration dev "
        f"{abs(power - e_tr) / e_tr:.2e}; quadrature err {max(quad_err):.2e} "
        f"(closed form and mixture), closed form vs mixture {max(form_dev):.2e}",
    )


def test_10_deterministic_output(emit, tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("n_grid = 64, 128\ntrials = 2\nc_head = 0.25\nseed = 3\n", encoding="utf-8")
    payloads = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "samplerec", "rates", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    cli_same = payloads[0] == payloads[1] and len(payloads[0]) > 0

    claims_cfg = ExperimentConfig(n_grid=(16, 32), c_head=0.5, trials=2, seed=9)
    beta_cfg = ExperimentConfig(n_grid=(8, 16), seed=1)
    dens_cfg = ExperimentConfig(n_grid=(32,), c_head=0.25, seed=2)
    rerun_same = (
        csv_text(run_claims(claims_cfg)) == csv_text(run_claims(claims_cfg))
        and csv_text(run_beta(beta_cfg)) == csv_text(run_beta(beta_cfg))
        and csv_text(run_density_check(dens_cfg)) == csv_text(run_density_check(dens_cfg))
    )
    emit(
        10, "byte-identical reruns",
        cli_same and rerun_same,
        f"subprocess rates CSV identical: {cli_same}; "
        f"in-process claims/beta/density-check identical: {rerun_same}",
    )
