"""Rolling-window backtesting, rank aggregation, and nonparametric model comparison.

Only the p-values and MCB's critical value need ``scipy.stats``; it is imported
where they are computed, so that importing this module (and the CLI) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import baselines, core, ewnet
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


def friedman_chi2(table: RankTable, alpha: float = 0.05) -> TestResult:
    """Friedman statistic 12D/(M(M+1)) * [sum R_m^2 - M(M+1)^2/4] on mean ranks."""
    d, m = table.ranks.shape
    if d < 2 or m < 2:
        raise ValueError("need at least 2 datasets and 2 models")
    mean_ranks = table.mean_ranks()
    statistic = 12.0 * d / (m * (m + 1)) * (np.sum(mean_ranks**2) - m * (m + 1) ** 2 / 4.0)
    from scipy import stats
    p_value = stats.chi2.sf(statistic, df=m - 1)
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
    from scipy import stats
    p_value = stats.f.sf(statistic, df1, df2)
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
    from scipy import stats
    # Continuity correction toward the mean.
    z = (w_plus - mu - 0.5 * np.sign(w_plus - mu)) / math.sqrt(var)
    return min(1.0, 2.0 * stats.norm.sf(abs(z)))


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


def _studentized_range_q(alpha: float, m: int) -> float:
    from scipy import stats
    # Normal-based Tukey quantile: infinite error degrees of freedom.
    return float(stats.studentized_range.ppf(1.0 - alpha, m, np.inf))


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
    over dyadic windows from 32 points; zero-variance blocks are skipped."""
    values = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=float)
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
        ratios = []
        for start in range(0, n - w + 1, w):
            block = values[start:start + w]
            dev = block - block.mean()
            spread = float(np.std(block))
            if spread == 0.0:
                continue
            walk = np.cumsum(dev)
            ratios.append((walk.max() - walk.min()) / spread)
        if ratios:
            log_w.append(math.log(w))
            log_rs.append(math.log(np.mean(ratios)))
    if len(log_w) < 2:
        raise ValueError("not enough usable windows (constant series?)")
    slope = np.polyfit(log_w, log_rs, 1)[0]
    return float(slope)
