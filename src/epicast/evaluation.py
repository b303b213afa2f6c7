"""Rolling-window backtesting, rank aggregation, and nonparametric model comparison.

The comparison tests' p-values and MCB's critical value (normal, chi-square and F
tails, and the normal-range quantile) are computed with NumPy and ``math`` alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import baselines, core, ewnet, wavelet
from .core import MetricSet, SplitSpec, TimeSeries
from .ewnet import EwnetConfig

WEEKLY_STEPS = {"short": 13, "medium": 26, "long": 52}
MONTHLY_STEPS = {"short": 3, "medium": 6, "long": 12}
# The forecasters ``rolling_evaluate`` always scores, in report order; EWNet is first.
BUILTIN_FORECASTERS = ("EWNet", "RW", "RWD", "ARNN")


@dataclass(frozen=True)
class HorizonSpec:
    kind: str
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be positive")

    @classmethod
    def for_frequency(cls, kind: str, frequency: int) -> "HorizonSpec":
        """Short/medium/long spans: 13/26/52 at frequency 52 (weekly), and the monthly
        3/6/12 at any other frequency."""
        table = WEEKLY_STEPS if frequency == 52 else MONTHLY_STEPS
        if kind not in table:
            raise ValueError(f"unknown horizon kind {kind!r}")
        return cls(kind=kind, steps=table[kind])


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-D array, ties sharing their mean rank; any NaN makes
    every rank NaN. Equal to ``scipy.stats.rankdata(values)``, without importing scipy."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    new_value = np.r_[True, ordered[1:] != ordered[:-1]]
    # Sorted positions bounds[g] .. bounds[g + 1] - 1 hold the g-th distinct value.
    bounds = np.r_[np.flatnonzero(new_value), values.size]
    group = np.cumsum(new_value) - 1
    ranks = np.empty(values.size)
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


@dataclass(frozen=True)
class RankTable:
    """D x M matrix of per-case model ranks (1 = best, midranks for ties)."""

    models: tuple[str, ...]
    datasets: tuple[str, ...]
    ranks: np.ndarray
    metric: str

    def __post_init__(self):
        ranks = np.asarray(self.ranks, dtype=float)
        d, m = ranks.shape
        if d != len(self.datasets) or m != len(self.models):
            raise ValueError("rank matrix shape does not match labels")
        if len(set(self.models)) != m:
            raise ValueError(f"repeated model name in {self.models}")
        if len(set(self.datasets)) != d:
            raise ValueError(f"repeated case name in {self.datasets}")
        expected = m * (m + 1) / 2.0
        if not np.allclose(ranks.sum(axis=1), expected):
            raise ValueError("each row must sum to M(M+1)/2")
        object.__setattr__(self, "ranks", ranks)

    @classmethod
    def from_scores(cls, models, datasets, scores, metric: str) -> "RankTable":
        """Rank models per dataset row by score, lower is better."""
        scores = np.asarray(scores, dtype=float)
        ranks = np.vstack([_average_ranks(row) for row in scores])
        return cls(models=tuple(models), datasets=tuple(datasets), ranks=ranks, metric=metric)

    def mean_ranks(self) -> np.ndarray:
        return self.ranks.mean(axis=0)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: str
    p_value: float
    alpha: float
    decision: str

    @classmethod
    def from_p(cls, statistic: float, df: str, p_value: float, alpha: float) -> "TestResult":
        p_value = float(min(max(p_value, 0.0), 1.0))
        return cls(
            statistic=float(statistic), df=df, p_value=p_value, alpha=alpha,
            decision="reject" if p_value < alpha else "retain",
        )


@dataclass(frozen=True)
class EvaluationCell:
    forecaster: str
    metrics: MetricSet
    coverage: float | None = None


@dataclass(frozen=True)
class EvaluationReport:
    horizon: HorizonSpec
    split: SplitSpec
    cells: tuple[EvaluationCell, ...]
    forecasts: dict

    def metric_table(self, metric: str) -> dict[str, float]:
        return {c.forecaster: getattr(c.metrics, metric) for c in self.cells}


def backtest_split(n: int, horizon: HorizonSpec, external: dict | None = None) -> SplitSpec:
    """The train/validation/test split of an ``n``-point backtest at ``horizon``; a
    series that leaves fewer than 8 training points is a ValueError, and so is an
    ``external`` forecast named like a built-in or shorter than the horizon."""
    # Checked before SplitSpec, which rejects fewer than 3 training points itself.
    if n - horizon.steps - core.validation_len(n - horizon.steps, horizon.steps) < 8:
        raise ValueError(f"series of length {n} too short for horizon {horizon.steps}")
    for name, point in (external or {}).items():
        if name in BUILTIN_FORECASTERS:
            raise ValueError(f"external forecast name {name!r} is a built-in forecaster's")
        if np.size(point) < horizon.steps:
            raise ValueError(f"external forecast {name!r} has {np.size(point)} rows, "
                             f"{horizon.steps} needed")
    return SplitSpec.for_series(n, test_len=horizon.steps)


def _plan_case(series: TimeSeries, horizon: HorizonSpec, cfg: EwnetConfig, external: dict):
    """A case's horizon, split, test window, train + validation and lag searches."""
    split = backtest_split(len(series), horizon, external)
    train, val, test = np.split(series.values, [split.train_len, split.train_len + split.val_len])
    fit_span = np.concatenate([train, val])
    return horizon, split, test, fit_span, [
        (train, val, cfg), baselines.arnn_search(fit_span, cfg.train_cfg, cfg.p_grid)]


def _report(case, ewnet_fit, arnn_fit, cfg: EwnetConfig, external: dict) -> EvaluationReport:
    """A case's report from its EWNet and ARNN refits (or their ValueErrors)."""
    horizon, split, test, fit_span, _ = case
    model = core.unwrap(ewnet_fit)
    point = ewnet.forecast_ewnet(model, horizon.steps)
    band = ewnet.precontrol_interval(point, ewnet.in_sample_residuals(model))
    coverage = float(np.mean((test >= band.lower) & (test <= band.upper)))
    if isinstance(arnn_fit, ValueError):  # named, so that it is not read as EWNet's
        raise type(arnn_fit)(f"ARNN: {arnn_fit}")
    forecasts = dict(zip(BUILTIN_FORECASTERS, (
        point,
        baselines.rw_forecast(fit_span, horizon.steps),
        baselines.rwd_forecast(fit_span, horizon.steps),
        ewnet.forecast_ewnet(arnn_fit, horizon.steps),
    )))
    forecasts.update((name, point[:horizon.steps]) for name, point in external.items())
    cells = tuple(
        EvaluationCell(forecaster=name,
                       metrics=core.metric_set(test, point, fit_span, cfg.seasonal_lag),
                       coverage=coverage if i == 0 else None)
        for i, (name, point) in enumerate(forecasts.items()))
    return EvaluationReport(horizon=horizon, split=split, cells=cells, forecasts=forecasts)


def backtest(cases, cfg: EwnetConfig, external: dict | None = None) -> list:
    """Backtest each (series, horizon) case: its report, or the ValueError it raised alone.

    Hold out the last ``steps`` points as test and the ``core.validation_len``
    points before them as validation, fit EWNet, RW, RWD and ARNN on the prefix,
    and score the test span. The EWNet forecaster selects its lag order on the
    validation window, is refit on train + validation, and additionally reports
    pre-control interval coverage; ARNN is ``baselines.arnn_forecast`` on train +
    validation. ``external`` maps names to precomputed forecasts of at least ``steps``
    values, of which the first ``steps`` are scored; ``backtest_split`` checks them
    before any model is trained. Every case's searches go to one ``ewnet.fit_selected``
    call, whose lag searches train as one batch and refits as another, so that
    independent cases share the worker. An ARNN error is reported with an ``ARNN: ``
    prefix, after any error of EWNet's.
    """
    external = {name: np.asarray(point, dtype=float) for name, point in (external or {}).items()}
    plans = [core.attempt(_plan_case, series, horizon, cfg, external)
             for series, horizon in cases]
    # Both searches of a case refit on its train + validation: EWNet's train and
    # validation, and ARNN's head and tail, each concatenate to ``fit_span``.
    fits = iter(ewnet.fit_selected([search for plan in plans
                                    if not isinstance(plan, ValueError) for search in plan[4]]))
    return [plan if isinstance(plan, ValueError) else
            core.attempt(_report, plan, next(fits), next(fits), cfg, external)
            for plan in plans]


def rolling_evaluate(series: TimeSeries, horizon: HorizonSpec, cfg: EwnetConfig,
                     external: dict | None = None) -> EvaluationReport:
    """The ``backtest`` of one case; its ValueError is raised."""
    return core.unwrap(backtest([(series, horizon)], cfg, external)[0])


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.array([math.erfc(-v / math.sqrt(2.0)) for v in x])


def _chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with whole ``df``: the finite sums of Abramowitz & Stegun
    26.4.4-5, each term in logs so that exp(-x/2) cannot underflow before its factor."""
    if x <= 0:
        return 1.0
    odd, log_x = df % 2, math.log(x)
    total = math.erfc(math.sqrt(x / 2.0)) if odd else 0.0
    log_term = -x / 2.0 + (0.5 * (log_x + math.log(2.0 / math.pi)) if odd else 0.0)
    for i in range(1, df // 2 + 1):
        total += math.exp(log_term)
        log_term += log_x - math.log(2 * i + odd)
    return min(total, 1.0)


def _f_sf(x: float, d1: int, d2: int) -> float:
    """P(F > x) for F with (d1, d2) df: I_y(d2/2, d1/2) at y = d2 / (d2 + d1 x), y and 1 - y
    from logs, by the modified Lentz method (Numerical Recipes 3rd ed., 6.4), which converges
    fast for y < (a + 1) / (a + b + 2); above that, I_y(a, b) = 1 - I_{1-y}(b, a)."""
    ratio = d1 * x / d2
    if ratio <= 0:
        return 1.0
    a, b, log_y, log_rest = d2 / 2.0, d1 / 2.0, -math.log1p(ratio), -math.log1p(1.0 / ratio)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * log_y + b * log_rest)
    flip = math.exp(log_y) >= (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, log_y = b, a, log_rest
    f, c, d, y = 1.0, 1.0, 0.0, math.exp(log_y)
    for j in range(1, 20000):
        k = j // 2
        num = (-(a + k) * (a + b + k) if j % 2 else k * (b - k)) * y / ((a + j - 1) * (a + j))
        d = 1.0 / (1.0 + num * d or 1e-300)
        c = 1.0 + num / c or 1e-300
        f *= c * d
        if abs(c * d - 1.0) <= 1e-16:
            break
    return 1.0 - front / (a * f) if flip else front / (a * f)


def friedman_chi2(table: RankTable, alpha: float = 0.05) -> TestResult:
    """Friedman statistic 12D/(M(M+1)) * [sum R_m^2 - M(M+1)^2/4] on mean ranks."""
    d, m = table.ranks.shape
    if d < 2 or m < 2:
        raise ValueError("need at least 2 datasets and 2 models")
    mean_ranks = table.mean_ranks()
    statistic = 12.0 * d / (m * (m + 1)) * (np.sum(mean_ranks**2) - m * (m + 1) ** 2 / 4.0)
    p_value = _chi2_sf(statistic, m - 1)
    return TestResult.from_p(statistic, df=str(m - 1), p_value=p_value, alpha=alpha)


def iman_f(chi2: float, m: int, d: int, alpha: float = 0.05) -> TestResult:
    """Iman-Davenport F_F = (D-1) chi2 / (D(M-1) - chi2), df (M-1, (M-1)(D-1))."""
    if m < 2 or d < 2:
        raise ValueError("need at least 2 datasets and 2 models")
    denom = d * (m - 1) - chi2
    if denom <= 0:
        raise ValueError("chi-square statistic too large for the Iman F transform")
    statistic = (d - 1) * chi2 / denom
    df1, df2 = m - 1, (m - 1) * (d - 1)
    p_value = _f_sf(statistic, df1, df2)
    return TestResult.from_p(statistic, df=f"({df1}, {df2})", p_value=p_value, alpha=alpha)


def _wilcoxon_prepare(errors_a, errors_b):
    a = np.asarray(errors_a, dtype=float)
    b = np.asarray(errors_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    with np.errstate(invalid="ignore", over="ignore"):
        diffs = a - b
    bad = np.flatnonzero(~np.isfinite(diffs))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"error pair at position {i} ({float(a.flat[i])} vs "
                         f"{float(b.flat[i])}) has a non-finite difference")
    diffs = diffs[diffs != 0.0]
    if diffs.size < 5:
        raise ValueError("too few non-zero differences (need at least 5)")
    ranks = _average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    return diffs, ranks, w_plus


def _wilcoxon_exact_p(ranks: np.ndarray, w_plus: float) -> float:
    """Two-sided p by dynamic programming over all 2^n sign assignments.

    Midranks are half-integers, so everything is doubled to stay integral.
    """
    doubled = np.rint(2.0 * ranks).astype(int)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:-r]
        counts = counts + shifted
    counts /= counts.sum()
    w2 = int(round(2.0 * w_plus))
    lower = counts[: w2 + 1].sum()
    upper = counts[w2:].sum()
    return min(1.0, 2.0 * min(lower, upper))


def _wilcoxon_normal_p(diffs: np.ndarray, ranks: np.ndarray, w_plus: float) -> float:
    n = diffs.size
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(np.abs(diffs), return_counts=True)
    var -= np.sum(tie_counts**3 - tie_counts) / 48.0
    # Continuity correction toward the mean.
    z = (w_plus - mu - 0.5 * np.sign(w_plus - mu)) / math.sqrt(var)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def wilcoxon_signed_rank(errors_a, errors_b, alpha: float = 0.05) -> TestResult:
    """Two-sided paired Wilcoxon test; exact enumeration for n <= 20, normal
    approximation with continuity and tie corrections beyond."""
    diffs, ranks, w_plus = _wilcoxon_prepare(errors_a, errors_b)
    n = diffs.size
    w_stat = min(w_plus, ranks.sum() - w_plus)
    if n <= 20:
        p_value = _wilcoxon_exact_p(ranks, w_plus)
        branch = "exact"
    else:
        p_value = _wilcoxon_normal_p(diffs, ranks, w_plus)
        branch = "normal"
    return TestResult.from_p(w_stat, df=f"n={n} ({branch})", p_value=p_value, alpha=alpha)


@dataclass(frozen=True)
class McbEntry:
    model: str
    mean_rank: float
    lower: float
    upper: float
    significantly_worse: bool


@functools.cache
def _range_quadrature() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """256 Gauss-Legendre nodes z on [-9, 9], their weights times the normal density, and Phi(z)."""
    nodes, weights = np.polynomial.legendre.leggauss(256)
    z = 9.0 * nodes
    return z, 9.0 * weights * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi), _normal_cdf(z)


# The smallest alpha MCB takes; the tests hold q to 1e-11 relative down to it (m = 2). Below
# it the [-9, 9] quadrature and the q <= 40 bracket lose accuracy: a relative error of 7e-10
# at alpha = 1e-12, and q = 40 where it is 52.4 at 1e-300.
MIN_ALPHA = 1e-9


def _studentized_range_q(alpha: float, m: int) -> float:
    """Tukey's q at infinite error df: the root of log T(q) = log alpha for the upper tail T =
    1 - P of the range of m standard normals, P(q) = m * integral of phi(z) [Phi(z) - Phi(z -
    q)]^(m-1) dz, by Newton steps on dP/dq at the same nodes; a step that leaves the root's
    bracket bisects it. For a small alpha's relative accuracy, T is integrated directly, as
    m * integral of phi(z) Phi(z)^(m-1) (1 - (1 - r)^(m-1)) dz with r = Phi(z - q) / Phi(z).
    Above alpha = 0.5 the root is that of log P(q) = log(1 - alpha), the small lower tail."""
    z, weighted_density, cdf = _range_quadrature()
    upper, target = alpha <= 0.5, math.log(min(alpha, 1.0 - alpha))
    nodes, weights = np.polynomial.legendre.leggauss(8)
    lo, hi, q = 0.0, 40.0, 3.0
    for _ in range(100):
        shifted = _normal_cdf(z - q)
        if upper:
            with np.errstate(divide="ignore"):  # r = 1, log1p(-1), where both cdfs round to 1
                beyond = -np.expm1((m - 1) * np.log1p(-shifted / cdf))
            tail = float(m * (weighted_density @ (cdf ** (m - 1) * beyond)))
        else:  # below q = 1, phi integrated over [z - q, z]: Phi(z) - Phi(z - q) loses digits
            spread = z[:, None] - 0.5 * q * (nodes + 1.0)
            inner = cdf - shifted if q >= 1.0 else (
                0.5 * q * np.exp(-0.5 * spread ** 2) @ weights / math.sqrt(2.0 * math.pi))
            tail = float(m * (weighted_density @ inner ** (m - 1)))
        shifted_density = np.exp(-0.5 * (z - q) ** 2) / math.sqrt(2.0 * math.pi)
        excess = (math.log(tail) if tail > 0.0 else -math.inf) - target
        slope = float(m * (m - 1) * (weighted_density @ ((cdf - shifted) ** (m - 2)
                                                         * shifted_density)))
        step = (-excess if upper else excess) * tail / slope if slope else math.inf
        # Below an excess of 1e-15 the quadrature's rounding, not q, sets the log tail.
        if abs(step) <= 1e-12 * q or abs(excess) <= 1e-15:
            return q - step
        lo, hi = (q, hi) if (excess > 0) == upper else (lo, q)
        q = q - step if lo < q - step < hi else 0.5 * (lo + hi)
    return q


def mcb_analysis(table: RankTable, alpha: float = 0.05,
                 critical_constant: float | None = None) -> list[McbEntry]:
    """Multiple comparisons with the best: mean ranks with symmetric intervals
    of half-width (q_alpha,M / sqrt(2)) * sqrt(M(M+1) / (12 D)).

    A model is significantly worse when its whole interval lies above the
    best model's upper bound. ``critical_constant`` overrides q_alpha,M.
    """
    d, m = table.ranks.shape
    if d < 2 or m < 2:
        raise ValueError("need at least 2 datasets and 2 models")
    if critical_constant is None and not MIN_ALPHA <= alpha < 1.0:
        raise ValueError(f"alpha must be in [{MIN_ALPHA:g}, 1), got {alpha!r}")
    q = critical_constant if critical_constant is not None else _studentized_range_q(alpha, m)
    half = (q / math.sqrt(2.0)) * math.sqrt(m * (m + 1) / (12.0 * d))
    means = table.mean_ranks()
    best_upper = means.min() + half
    entries = []
    for name, mean_rank in zip(table.models, means):
        entries.append(McbEntry(
            model=name,
            mean_rank=float(mean_rank),
            lower=float(mean_rank - half),
            upper=float(mean_rank + half),
            significantly_worse=bool(mean_rank - half > best_upper),
        ))
    return entries


def hurst_exponent(series) -> float:
    """Rescaled-range Hurst estimate: slope of log(R/S) on log(window size)
    over dyadic windows from 32 points; zero-variance blocks are skipped, and a
    non-finite value is a ValueError that names its position."""
    values = wavelet._as_values(series)
    n = values.size
    if n < 32:
        raise ValueError("need at least 32 observations")
    sizes = []
    # Short series start from smaller windows so at least two sizes exist.
    w = min(32, max(8, n // 4))
    while w <= n // 2:
        sizes.append(w)
        w *= 2
    log_w, log_rs = [], []
    for w in sizes:
        # One row per whole block; each row reduces the block's values in their order.
        blocks = values[:n - n % w].reshape(-1, w)
        spread = np.std(blocks, axis=1)
        walk = np.cumsum(blocks - blocks.mean(axis=1, keepdims=True), axis=1)
        kept = spread != 0.0
        if kept.any():
            ratios = (walk.max(axis=1) - walk.min(axis=1))[kept] / spread[kept]
            log_w.append(math.log(w))
            log_rs.append(math.log(ratios.mean()))
    if len(log_w) < 2:
        raise ValueError("not enough usable windows (constant series?)")
    slope = np.polyfit(log_w, log_rs, 1)[0]
    return float(slope)
