"""Experiment runners: concentration checks, error rates, tail statistics.

Every runner is a pure function of its configuration: per-trial seeds derive
from the master seed through fixed integer paths, trials are reduced in
order, and CSV cells are printed with 17 significant digits, so repeated
runs produce byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import density, errors, lsq, spectral
from .rng import seed_words

DEFAULT_GRID = (64, 128, 256, 512, 1024, 2048, 4096)

# Seed-path tags, one per experiment family.
_STAGE_CLAIMS = 1
_STAGE_RATES = 2

# gamma_k <= beta_{floor(k/2)} holds exactly; allow enclosure roundoff.
_TAIL_ORDER_RTOL = 1e-9

# Zero-tolerance slack on the per-instance error split.
_SPLIT_SLACK = 1e-10

_DENSITY_GRID_CAP = 1 << 22


class ConfigError(ValueError):
    """Invalid configuration or usage; the CLI exits with code 2."""


class ValidationError(RuntimeError):
    """A mathematical invariant failed on emitted results; CLI exit code 1."""


@dataclass(frozen=True)
class ExperimentConfig:
    d: int = 1
    s: float = 1.0
    n_grid: tuple[int, ...] = DEFAULT_GRID
    c_head: float = 0.05
    m_factor: int = 8
    trials: int = 10
    seed: int = 0
    out: str | None = None

    def __post_init__(self) -> None:
        try:
            self.space()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.n_grid:
            raise ConfigError("n_grid must not be empty")
        for n in self.n_grid:
            if not 2 <= n <= density.MAX_POINTS:
                raise ConfigError(f"n_grid entries must lie in [2, {density.MAX_POINTS}], got {n}")
        if not (math.isfinite(self.c_head) and self.c_head > 0.0):
            raise ConfigError(f"c_head must be finite and positive, got {self.c_head}")
        if self.m_factor < 2:
            raise ConfigError(f"m_factor must be at least 2, got {self.m_factor}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    def space(self) -> spectral.SpaceParams:
        return spectral.SpaceParams(self.d, self.s)


_INT_KEYS = ("d", "m_factor", "trials", "seed")
_FLOAT_KEYS = ("s", "c_head")
CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def parse_config(path: str) -> dict:
    """Read a flat key = value file into a dict of typed config overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    raw: dict = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            if key in _INT_KEYS:
                raw[key] = int(value)
            elif key in _FLOAT_KEYS:
                raw[key] = float(value)
            elif key == "n_grid":
                raw[key] = tuple(int(tok.strip()) for tok in value.split(",") if tok.strip())
            else:
                raw[key] = value
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return raw


def load_config(path: str | None = None, seed: int | None = None, out: str | None = None) -> ExperimentConfig:
    """Config from an optional file, with seed/out overriding the file."""
    raw = parse_config(path) if path else {}
    if seed is not None:
        raw["seed"] = int(seed)
    if out is not None:
        raw["out"] = str(out)
    return ExperimentConfig(**raw)


def head_size(n: int, c_head: float) -> int:
    """k = floor(c_head * n / log n), clamped up to 1 so a head always exists;
    ConfigError when c_head * n / log n is beyond float range."""
    k = c_head * n / math.log(n)
    if not math.isfinite(k):
        raise ConfigError(f"n={n}: configuration infeasible: head size c_head * n / log n beyond float range")
    return max(1, math.floor(k))


def derive_seed(master: int, *path: int) -> int:
    """A 128-bit child seed from the master seed and an integer path: the two
    words numpy's SeedSequence([master, *path]).generate_state(2, np.uint64)
    gives, first word high, computed by rng.seed_words without numpy.random.
    ValueError for a negative master or path entry."""
    a, b = seed_words([master, *path], 2)
    return a << 64 | b


@dataclass(frozen=True)
class ExperimentResult:
    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    report: str


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def csv_text(result: ExperimentResult) -> str:
    lines = [",".join(result.header)]
    lines.extend(",".join(_format_cell(v) for v in row) for row in result.rows)
    return "\n".join(lines) + "\n"


def write_result(result: ExperimentResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text(result))


def _prepare(space: spectral.SpaceParams, m: int):
    """Basis of length m + 1 (so a_m exists) and its spectrum summary."""
    basis = spectral.ordered_basis(space, m + 1)
    summary = spectral.spectral_sums(basis)
    return basis, summary


def _checked_gamma_norm(pts: density.PointSet, basis: spectral.OrderedBasis, head: lsq.HeadSVD) -> float:
    """Spectral norm of the point set's scaled tail block
    Gamma = B[:, k:] diag(sigma_k..m), validated against its Frobenius norm.

    The spectral norm is the square root of the top eigenvalue of the Gram
    operator Gamma^T Gamma of the point set's form (pts.tail_gram; the
    PointSet docstring describes the forms), and Gamma is never formed.  The
    Frobenius norm comes from the sampling density (pts.tail_frobenius_sq)
    and ||G||_F^2 = sum(head.sv^2) of the instance's head factorization, on
    either route or values-only, so the bound is not read from the operator
    it checks.
    """
    sigma = basis.sigma[pts.k : pts.m]
    s_gam = math.sqrt(lsq.spectral_norm(pts.tail_gram(sigma)))
    fro = math.sqrt(pts.tail_frobenius_sq(sigma, float(head.sv @ head.sv)))
    if s_gam > fro * (1.0 + 1e-9) + 1e-12:
        raise ValidationError(
            f"spectral norm {s_gam:.17g} exceeds Frobenius norm {fro:.17g}"
        )
    return s_gam


def _check_feasible(n: int, k: int, m: int) -> str | None:
    if k > n // 2:
        return f"head size k={k} above n/2={n // 2}"
    if m > density.MAX_TRUNCATION:
        return f"truncation m={m} above cap {density.MAX_TRUNCATION}"
    return None


def _median(values) -> float:
    """np.median of a nonempty sequence of floats, bit for bit: the middle
    value, or the mean of the middle two, and NaN when any value is NaN."""
    # by sorting: np.median imports numpy.ma (for its NaN check) on first use
    v = np.sort(np.asarray(values, dtype=float))
    if np.isnan(v[-1]):
        return math.nan
    h = len(v) // 2
    return float(v[h]) if len(v) % 2 else float((v[h - 1] + v[h]) / 2.0)


def _grid_sizes(config: ExperimentConfig, what: str) -> list[tuple[int, int, int]]:
    """(n, k, m) at c_head for each n of the grid, every one checked for
    feasibility first, so an infeasible grid point exits before any work;
    what names the configuration in the message."""
    sizes = []
    for n in config.n_grid:
        k = head_size(n, config.c_head)
        m = config.m_factor * k
        infeasible = _check_feasible(n, k, m)
        if infeasible:
            raise ConfigError(f"n={n}: {what} infeasible: {infeasible}")
        sizes.append((n, k, m))
    return sizes


def run_claims(config: ExperimentConfig) -> ExperimentResult:
    """Concentration sweep: for each n, double c from c_head until the
    success fraction of s_min(G) >= sqrt(n)/2 drops below one half (or a
    size cap stops the sweep), recording tail-norm ratios along the way.

    Each draw reads s_min(G), s_max(G) and rank_ok alone, so its head
    factorization is values-only (lsq.head_factor with compute_uv False):
    the eigenvalues of G^T G, no eigenvectors.
    """
    header = (
        "n", "c", "k", "m", "trials",
        "smin_success_frac", "tail_ratio_median", "tail_success_frac",
        "degenerate_frac",
    )
    space = config.space()
    rows: list[tuple] = []
    lines: list[str] = []
    # The first m + 1 entries of a longer ordered basis are the ordered basis
    # of length m + 1, so one basis serves every cell and grows only when a
    # cell outruns it.
    basis, summary = None, None
    _grid_sizes(config, "base configuration")
    for i_n, n in enumerate(config.n_grid):
        c = float(config.c_head)
        step = 0
        while True:
            k = head_size(n, c)
            m = config.m_factor * k
            infeasible = _check_feasible(n, k, m)
            if infeasible:
                lines.append(f"n={n}: sweep stopped before the drop: {infeasible}")
                break
            if basis is None or m + 1 > len(basis):
                basis, summary = _prepare(space, m)
            dens = density.truncated_density(basis, k, m)
            _, gamma_k = spectral.beta_gamma(summary, k)
            sqrt_n = math.sqrt(n)
            s_mins, ratios = [], []
            degenerate = 0
            for t in range(config.trials):
                pts = density.sample_points(
                    dens, n, derive_seed(config.seed, _STAGE_CLAIMS, i_n, step, t)
                )
                head = lsq.head_factor(pts, compute_uv=False)
                degenerate += not head.rank_ok
                s_mins.append(head.s_min)
                ratios.append(_checked_gamma_norm(pts, basis, head) / (gamma_k * sqrt_n))
            frac_smin = float(np.mean(np.array(s_mins) >= 0.5 * sqrt_n))
            frac_tail = float(np.mean(np.array(ratios) <= 3.0))
            ratio_median = _median(ratios)
            rows.append((
                n, c, k, m, config.trials,
                frac_smin, ratio_median, frac_tail,
                degenerate / config.trials,
            ))
            if step == 0:
                lines.append(
                    f"n={n}: at c={c:g} (k={k}) head success {frac_smin:.2f}, "
                    f"tail ratio median {ratio_median:.3f}, "
                    f"tail success {frac_tail:.2f}"
                )
            if frac_smin < 0.5:
                lines.append(f"n={n}: head success dropped below 1/2 at c={c:g} (k={k})")
                break
            c *= 2.0
            step += 1
    return ExperimentResult(header, tuple(rows), "\n".join(lines))


def run_rates(config: ExperimentConfig) -> ExperimentResult:
    """Worst-case error decay over the n grid, with per-instance checks.

    Every non-degenerate instance is validated against the split bound
    e_trunc <= a_k + s_max(Gamma) / s_min(G) (absolute slack 1e-10) and
    e_trunc <= e_upper; the report carries the fitted log-log slope of the
    median e_trunc against n, that of the paper's rate n^-s log^(sd) n over
    the same n, and the range of ratio2 over the rows with no degenerate
    draw.  Every grid point is checked for feasibility before the first
    draw, and one basis of the grid's largest m serves them all.
    """
    header = (
        "n", "k", "m", "a_k", "beta_k", "gamma_k",
        "s_min_G", "s_max_Gamma", "e_trunc", "e_upper",
        "ratio1", "ratio2", "degenerate_trials",
    )
    space = config.space()
    rows: list[tuple] = []
    lines: list[str] = []
    fit_logn: list[float] = []
    fit_loge: list[float] = []
    fit_ratio2: list[float] = []
    full_rank = fallbacks = 0
    sizes = _grid_sizes(config, "configuration")
    # the first m + 1 entries of the longest basis are the ordered basis of
    # length m + 1, and the head sums of its summary are those of that basis
    try:
        basis, summary = _prepare(space, max(m for _, _, m in sizes))
    except (spectral.EnumerationLimitError, spectral.PrecisionError):
        # the limit message names the basis length: raise it as the first
        # grid point, in grid order, whose own basis reaches the limit
        for _, _, m in sizes:
            _prepare(space, m)
        raise
    for i_n, (n, k, m) in enumerate(sizes):
        dens = density.truncated_density(basis, k, m)
        a_k = float(basis.sigma[k])
        beta_k, gamma_k = spectral.beta_gamma(summary, k)
        s_min_l, s_gam_l, e_tr_l, e_up_l, ratio1_l = [], [], [], [], []
        degenerate = 0
        for t in range(config.trials):
            pts = density.sample_points(
                dens, n, derive_seed(config.seed, _STAGE_RATES, i_n, 0, t)
            )
            head = lsq.head_factor(pts)
            if not head.rank_ok:
                degenerate += 1
                continue
            s_gam = _checked_gamma_norm(pts, basis, head)
            full_rank += 1
            fallbacks += head.u is not None
            e_tr = errors.worst_case_error_trunc(pts, head, basis)
            e_up = errors.certified_upper_bound(e_tr, summary, pts, head.s_min)
            split = a_k + s_gam / head.s_min
            if e_tr > split + _SPLIT_SLACK:
                raise ValidationError(
                    f"n={n} trial {t}: e_trunc {e_tr:.17g} above split bound {split:.17g}"
                )
            if e_tr > e_up + 1e-12:
                raise ValidationError(
                    f"n={n} trial {t}: e_trunc {e_tr:.17g} above certified bound {e_up:.17g}"
                )
            s_min_l.append(head.s_min)
            s_gam_l.append(s_gam)
            e_tr_l.append(e_tr)
            e_up_l.append(e_up)
            ratio1_l.append(e_tr / split)
        if e_tr_l:
            med_e = _median(e_tr_l)
            row = (
                n, k, m, a_k, beta_k, gamma_k,
                _median(s_min_l), _median(s_gam_l),
                med_e, _median(e_up_l),
                float(max(ratio1_l)), med_e ** 2 * k / summary.tail(k),
                degenerate,
            )
            if degenerate == 0:
                fit_logn.append(math.log(n))
                fit_loge.append(math.log(med_e))
                fit_ratio2.append(row[11])
        else:
            row = (n, k, m, a_k, beta_k, gamma_k,
                   math.nan, math.nan, math.nan, math.nan, math.nan, math.nan, degenerate)
        rows.append(row)
        lines.append(
            f"n={n}: k={k}, m={m}, median e_trunc "
            f"{row[8]:.6g}, max ratio1 {row[10]:.9f}, degenerate {degenerate}"
        )
    lines.append(
        f"dense e_trunc fallback (kappa(G) above {lsq.KAPPA_LIMIT:.1f}): "
        f"{fallbacks} of {full_rank} full-rank draws"
    )
    if len(set(fit_logn)) >= 2:
        slope = float(np.polyfit(fit_logn, fit_loge, 1)[0])
        lines.append(f"log-log slope of median e_trunc vs n: {slope:.4f} (reference -s = {-config.s:g})")
        # log of the paper's rate n^-s log^(sd) n at the same n; a feasible
        # n is at least 2 (k <= n / 2), so log log n is finite
        rate = [-config.s * x + config.s * config.d * math.log(x) for x in fit_logn]
        lines.append(f"log-log slope of the paper's rate n^-s log^(sd) n over the same n: "
                     f"{float(np.polyfit(fit_logn, rate, 1)[0]):.4f}")
        lines.append(f"ratio2 = e_trunc^2 k / tail(k) over the clean rows (the paper's constant): "
                     f"{min(fit_ratio2):.3g} to {max(fit_ratio2):.3g}")
    else:
        lines.append("log-log slope unavailable: clean rows at fewer than two distinct n")
    return ExperimentResult(header, tuple(rows), "\n".join(lines))


def run_beta(config: ExperimentConfig) -> ExperimentResult:
    """Tail statistics over head sizes; for this subcommand the n_grid
    entries are read as head sizes k.

    Validates gamma_k <= beta_{floor(k/2)} at every k.
    """
    header = ("k", "a_k", "beta_k", "gamma_k", "beta_over_a", "gamma_over_beta_half")
    space = config.space()
    k_max = max(config.n_grid)
    basis, summary = _prepare(space, k_max)
    rows: list[tuple] = []
    ratios = []
    for k in config.n_grid:
        a_k = float(basis.sigma[k])
        beta_k, gamma_k = spectral.beta_gamma(summary, k)
        beta_half, _ = spectral.beta_gamma(summary, k // 2)
        over = gamma_k / beta_half
        if over > 1.0 + _TAIL_ORDER_RTOL:
            raise ValidationError(
                f"k={k}: gamma {gamma_k:.17g} above beta at k/2 = {beta_half:.17g}"
            )
        rows.append((k, a_k, beta_k, gamma_k, beta_k / a_k, over))
        ratios.append(beta_k / a_k)
    report = (
        f"beta/a over {len(rows)} head sizes: min {min(ratios):.4f}, max {max(ratios):.4f}\n"
        f"gamma <= beta at half head size held at every k"
    )
    return ExperimentResult(header, tuple(rows), report)


def run_density_check(config: ExperimentConfig) -> ExperimentResult:
    """Quadrature self-check of the sampling density over the n grid.

    Every grid point's sizes and quadrature grid are checked against their
    caps before the first quadrature.  Validates that the tensor-grid
    quadrature equals 1 within 1e-10.
    """
    header = ("n", "k", "m", "resolution", "quadrature", "abs_error")
    space = config.space()
    rows: list[tuple] = []
    worst = 0.0
    sizes = _grid_sizes(config, "configuration")
    # the first m entries of the longest basis are the ordered basis of length m
    basis = spectral.ordered_basis(space, max(m for _, _, m in sizes))
    resolutions = []
    for n, _, m in sizes:
        resolution = max(16, 4 * basis.max_frequency(m))
        if resolution ** space.d > _DENSITY_GRID_CAP:
            raise ConfigError(
                f"n={n}: quadrature grid {resolution}^{space.d} exceeds {_DENSITY_GRID_CAP} points"
            )
        resolutions.append(resolution)
    for (n, k, m), resolution in zip(sizes, resolutions):
        dens = density.truncated_density(basis, k, m)
        value = density.density_selfcheck(dens, resolution)
        err = abs(value - 1.0)
        if err > 1e-10:
            raise ValidationError(f"n={n}: density quadrature {value:.17g} off unit mass")
        worst = max(worst, err)
        rows.append((n, k, m, resolution, value, err))
    report = f"density quadrature within {worst:.3e} of 1 on {len(rows)} grids"
    return ExperimentResult(header, tuple(rows), report)
