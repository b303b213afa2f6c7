import itertools
import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from epicast import neuralnet
from epicast.core import TimeSeries
from epicast.evaluation import (
    BUILTIN_FORECASTERS,
    HorizonSpec,
    RankTable,
    _average_ranks,
    _chi2_sf,
    _f_sf,
    _studentized_range_q,
    backtest,
    backtest_split,
    friedman_chi2,
    hurst_exponent,
    iman_f,
    mcb_analysis,
    rolling_evaluate,
    wilcoxon_signed_rank,
)
from epicast.ewnet import EwnetConfig
from epicast.neuralnet import TrainConfig


def random_rank_table(d, m, seed, metric="mase"):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(d, m))
    return RankTable.from_scores(
        models=[f"m{i}" for i in range(m)],
        datasets=[f"d{i}" for i in range(d)],
        scores=scores,
        metric=metric,
    )


class TestHorizonSpec:
    @pytest.mark.parametrize("kind,freq,steps", [
        ("short", 52, 13), ("medium", 52, 26), ("long", 52, 52),
        ("short", 12, 3), ("medium", 12, 6), ("long", 12, 12),
    ])
    def test_table(self, kind, freq, steps):
        assert HorizonSpec.for_frequency(kind, freq).steps == steps

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            HorizonSpec.for_frequency("decade", 52)

    @pytest.mark.parametrize("freq", [1, 4, 7, 365])
    def test_any_other_frequency_takes_the_monthly_spans(self, freq):
        # As the CLI and README document; this once raised for every frequency but 12 and 52.
        assert [HorizonSpec.for_frequency(kind, freq).steps
                for kind in ("short", "medium", "long")] == [3, 6, 12]


class TestRankTable:
    def test_from_scores_lower_is_better(self):
        table = RankTable.from_scores(["a", "b", "c"], ["d1"],
                                      [[3.0, 1.0, 2.0]], "mase")
        np.testing.assert_array_equal(table.ranks, [[3.0, 1.0, 2.0]])

    def test_ties_get_midranks(self):
        table = RankTable.from_scores(["a", "b", "c"], ["d1"],
                                      [[1.0, 1.0, 5.0]], "mase")
        np.testing.assert_array_equal(table.ranks, [[1.5, 1.5, 3.0]])

    def test_rejects_invalid_row_sum(self):
        with pytest.raises(ValueError, match="sum"):
            RankTable(models=("a", "b"), datasets=("d1",),
                      ranks=np.array([[1.0, 3.0]]), metric="mase")

    def test_rejects_repeated_model_names(self):
        with pytest.raises(ValueError, match="repeated model name"):
            RankTable(models=("a", "b", "a"), datasets=("d1",),
                      ranks=np.array([[1.0, 2.0, 3.0]]), metric="mase")

    def test_rejects_repeated_case_names(self):
        # One case counted twice would make up a dataset for Friedman and MCB.
        with pytest.raises(ValueError, match=r"repeated case name in \('c1', 'c1'\)"):
            RankTable(models=("a", "b"), datasets=("c1", "c1"),
                      ranks=np.array([[1.0, 2.0], [1.0, 2.0]]), metric="mase")

    def test_mean_ranks(self):
        table = RankTable(models=("a", "b"), datasets=("d1", "d2"),
                          ranks=np.array([[1.0, 2.0], [2.0, 1.0]]), metric="mase")
        np.testing.assert_allclose(table.mean_ranks(), [1.5, 1.5])

    def test_from_scores_rejects_a_row_with_nan(self):
        with pytest.raises(ValueError, match="sum"):
            RankTable.from_scores(["a", "b", "c"], ["d1", "d2"],
                                  [[1.0, 2.0, 3.0], [2.0, np.nan, 1.0]], "mase")


# Small integer grids force ties; the specials cover ordering at the extremes,
# -0.0 == 0.0, and NaN, which scipy spreads to the whole row.
_SCORE = st.one_of(
    st.integers(-3, 3).map(float),
    st.integers(-3, 3).map(lambda k: k * 1e-3),
    st.sampled_from([np.inf, -np.inf, 0.0, -0.0, np.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(row=st.lists(_SCORE, min_size=1, max_size=12))
def test_average_ranks_equal_scipy_rankdata(row):
    expected = stats.rankdata(row)
    got = _average_ranks(row)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
    assert np.array_equal(got, expected, equal_nan=True)


class TestFriedman:
    def test_matches_scipy_on_continuous_scores(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=(12, 4))
        table = RankTable.from_scores(["a", "b", "c", "d"],
                                      [f"d{i}" for i in range(12)], scores, "mase")
        result = friedman_chi2(table)
        ref_stat, ref_p = stats.friedmanchisquare(*scores.T)
        assert result.statistic == pytest.approx(ref_stat, rel=1e-10)
        assert result.p_value == pytest.approx(ref_p, rel=1e-10)
        assert result.df == "3"

    def test_identical_rankings_maximize_statistic(self):
        ranks = np.tile(np.arange(1.0, 5.0), (10, 1))
        table = RankTable(models=("a", "b", "c", "d"),
                          datasets=tuple(f"d{i}" for i in range(10)),
                          ranks=ranks, metric="mase")
        result = friedman_chi2(table)
        # chi2 = D(M-1) at perfect agreement.
        assert result.statistic == pytest.approx(30.0)
        assert result.decision == "reject"

    def test_needs_two_of_each(self):
        with pytest.raises(ValueError):
            friedman_chi2(random_rank_table(1, 3, 0))


class TestImanF:
    def test_hand_value(self):
        # chi2=30, M=4, D=10: F = 9*30 / (30 - 30) undefined; use a safe case.
        # chi2=12, M=4, D=10: F = 9*12 / (30 - 12) = 6, df (3, 27).
        result = iman_f(12.0, m=4, d=10)
        assert result.statistic == pytest.approx(6.0)
        assert result.df == "(3, 27)"
        assert result.p_value == pytest.approx(stats.f.sf(6.0, 3, 27))

    @pytest.mark.parametrize("chi2,expected", [
        (316.60, 20.686),
        (306.88, 19.766),
        (302.00, 19.314),
        (311.42, 20.193),
    ])
    def test_reference_chi2_f_pairs(self, chi2, expected):
        # Reference values for M=23 forecasters over D=45 evaluation cases.
        result = iman_f(chi2, m=23, d=45)
        assert result.statistic == pytest.approx(expected, abs=5e-3)
        assert result.df == "(22, 968)"
        assert result.decision == "reject"

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError):
            iman_f(30.0, m=4, d=10)


class TestWilcoxon:
    def brute_force_p(self, diffs):
        ranks = stats.rankdata(np.abs(diffs))
        w_plus = ranks[np.asarray(diffs) > 0].sum()
        n = len(diffs)
        ws = [sum(r for r, s in zip(ranks, signs) if s)
              for signs in itertools.product([False, True], repeat=n)]
        ws = np.array(ws)
        lower = np.mean(ws <= w_plus + 1e-9)
        upper = np.mean(ws >= w_plus - 1e-9)
        return min(1.0, 2.0 * min(lower, upper))

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            diffs = rng.normal(size=9)
            diffs = diffs[diffs != 0]
            result = wilcoxon_signed_rank(diffs, np.zeros_like(diffs))
            assert result.p_value == pytest.approx(self.brute_force_p(diffs), abs=1e-12)

    def test_exact_matches_brute_force_with_ties(self):
        diffs = np.array([1.0, -1.0, 2.0, 2.0, 3.0, -2.0, 4.0])
        result = wilcoxon_signed_rank(diffs, np.zeros_like(diffs))
        assert result.p_value == pytest.approx(self.brute_force_p(diffs), abs=1e-12)

    def test_constant_shift_ten_pairs(self):
        a = np.arange(10.0)
        b = a + 3.0
        result = wilcoxon_signed_rank(a, b)
        # All 10 differences share a sign: p = 2 / 2^10.
        assert result.p_value == pytest.approx(0.001953125, abs=1e-12)
        assert result.decision == "reject"

    def test_matches_scipy_exact(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=14)
        b = rng.normal(size=14)
        result = wilcoxon_signed_rank(a, b)
        ref = stats.wilcoxon(a, b, mode="exact")
        assert result.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_normal_branch_close_to_exact_at_boundary(self):
        # n = 20 sits on the exact/normal switch; the approximation should
        # agree with enumeration to within 0.01 for continuous data.
        from epicast.evaluation import (
            _wilcoxon_exact_p,
            _wilcoxon_normal_p,
            _wilcoxon_prepare,
        )

        rng = np.random.default_rng(9)
        for _ in range(5):
            a = rng.normal(size=20)
            b = rng.normal(size=20)
            diffs, ranks, w_plus = _wilcoxon_prepare(a, b)
            exact = _wilcoxon_exact_p(ranks, w_plus)
            approx = _wilcoxon_normal_p(diffs, ranks, w_plus)
            assert abs(exact - approx) < 0.01

    def test_large_sample_matches_scipy(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=60)
        b = rng.normal(loc=0.3, size=60)
        result = wilcoxon_signed_rank(a, b)
        ref = stats.wilcoxon(a, b, correction=True, mode="approx")
        assert result.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_too_few_nonzero_diffs(self):
        with pytest.raises(ValueError, match="at least 5"):
            wilcoxon_signed_rank([1, 2, 3, 4], [1, 2, 3, 0])

    @pytest.mark.parametrize("a,b,position", [
        ([np.nan, 1, 2, 3, 4, 5], [0] * 6, 0),
        ([np.inf, 1, 2, 3, 4, 5], [0] * 6, 0),
        ([1, 2, 3, 4, 5, 6], [0, 0, 0, -np.inf, 0, 0], 3),
        ([1, 2, np.inf, 4, 5, 6], [0, 0, np.inf, 0, 0, np.nan], 2),
        ([1e308, 2, 3, 4, 5, 6], [-1e308, 0, 0, 0, 0, 0], 0),  # difference overflows
    ], ids=["nan", "inf", "neg-inf-in-b", "inf-minus-inf", "overflow"])
    def test_non_finite_pair_is_named(self, a, b, position):
        with pytest.raises(ValueError, match=f"error pair at position {position} .*non-finite"):
            wilcoxon_signed_rank(a, b)


class TestMcb:
    def test_half_width_formula(self):
        table = random_rank_table(20, 5, 4)
        entries = mcb_analysis(table, critical_constant=3.0)
        half = (3.0 / np.sqrt(2.0)) * np.sqrt(5 * 6 / (12.0 * 20))
        for entry, mean in zip(entries, table.mean_ranks()):
            assert entry.upper - entry.mean_rank == pytest.approx(half)
            assert entry.mean_rank - entry.lower == pytest.approx(half)

    def test_default_critical_constant(self):
        # Frozen Tukey quantile q_{0.05} for 23 groups, infinite df.
        assert _studentized_range_q(0.05, 23) == pytest.approx(5.1132, abs=2e-3)

    def test_separated_model_flagged_worse(self):
        # One model always last by a wide margin; the others interchange.
        rng = np.random.default_rng(6)
        scores = rng.normal(size=(30, 3))
        scores = np.column_stack([scores, np.full(30, 100.0)])
        table = RankTable.from_scores(["a", "b", "c", "bad"],
                                      [f"d{i}" for i in range(30)], scores, "mase")
        entries = mcb_analysis(table)
        flags = {e.model: e.significantly_worse for e in entries}
        assert flags["bad"]
        best = min(entries, key=lambda e: e.mean_rank)
        assert not best.significantly_worse

    def test_indistinguishable_models_not_flagged(self):
        table = random_rank_table(10, 3, 1)
        entries = mcb_analysis(table, critical_constant=50.0)
        assert not any(e.significantly_worse for e in entries)

    @pytest.mark.parametrize("alpha", [9.9e-10, 1e-12, 1e-300, 0.0, -0.05, 1.0, math.nan])
    def test_alpha_outside_the_accurate_range_is_rejected(self, alpha):
        # Below 1e-9 the range quantile loses accuracy (1e-300 gave the bracket cap 40).
        with pytest.raises(ValueError) as excinfo:
            mcb_analysis(random_rank_table(10, 3, 1), alpha)
        assert str(excinfo.value) == f"alpha must be in [1e-09, 1), got {alpha!r}"

    def test_alpha_at_the_floor_is_accepted(self):
        table = random_rank_table(10, 3, 1)
        q = _studentized_range_q(1e-9, 3)
        half = (q / math.sqrt(2.0)) * math.sqrt(3 * 4 / (12.0 * 10))
        entries = mcb_analysis(table, 1e-9)
        assert [e.upper - e.mean_rank for e in entries] == pytest.approx([half] * 3, rel=1e-12)


class TestDistributions:
    """The NumPy/math tail probabilities and range quantile against scipy.stats."""

    def test_chi2_sf_matches_scipy(self):
        x = np.r_[0.0, np.geomspace(1e-4, 500.0, 80)]
        for df in range(1, 30):
            np.testing.assert_allclose([_chi2_sf(v, df) for v in x], stats.chi2.sf(x, df),
                                       rtol=1e-9, atol=0, err_msg=f"df={df}")

    def test_f_sf_matches_scipy(self):
        x = np.r_[0.0, np.geomspace(1e-4, 1e3, 60)]
        for d1 in range(1, 30):
            for d2 in (1, 5, 29, 145, 1000):
                # atol: scipy's own tail loses digits below ~1e-290 (3.6e-4 relative at
                # 3e-302 against mpmath) and gives 0 where this gives denormals.
                np.testing.assert_allclose([_f_sf(v, d1, d2) for v in x],
                                           stats.f.sf(x, d1, d2), rtol=1e-9, atol=1e-300,
                                           err_msg=f"d1={d1}, d2={d2}")

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.6, 0.9])
    def test_range_quantile_matches_scipy(self, alpha):
        m = np.arange(2, 31)
        np.testing.assert_allclose([_studentized_range_q(alpha, int(k)) for k in m],
                                   stats.studentized_range.ppf(1.0 - alpha, m, np.inf),
                                   rtol=1e-9, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(df=st.integers(1, 60), d2=st.integers(1, 2000),
           x=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=2))
    def test_tail_probabilities_lie_in_the_unit_interval_and_do_not_increase(self, df, d2, x):
        # Sums and fractions round, so x a few ulps apart may break the order by as much.
        lo, hi = sorted(x)
        for sf in (lambda v: _chi2_sf(v, df), lambda v: _f_sf(v, df, d2)):
            assert 0.0 <= sf(hi) <= sf(lo) * (1.0 + 1e-12)
            assert sf(lo) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(0.0, 1e4))
    def test_chi2_with_two_df_is_exponential(self, x):
        assert _chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-12, abs=0)

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(1e-3, 0.9))
    def test_range_of_two_normals_is_root_two_times_the_normal_quantile(self, alpha):
        # The range of two standard normals is |Z1 - Z2| = sqrt(2) |Z|, and
        # Phi^-1(1 - alpha/2) = -Phi^-1(alpha/2), which does not round 1 - alpha/2.
        expected = -math.sqrt(2.0) * statistics.NormalDist().inv_cdf(alpha / 2.0)
        assert _studentized_range_q(alpha, 2) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("alpha", [1e-4, 1e-6, 1e-9])
    def test_small_alpha_range_of_two_normals_keeps_relative_accuracy(self, alpha):
        expected = -math.sqrt(2.0) * statistics.NormalDist().inv_cdf(alpha / 2.0)
        np.testing.assert_allclose(_studentized_range_q(alpha, 2), expected, rtol=1e-11,
                                   atol=0)

    @pytest.mark.parametrize("alpha", [0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_alpha_near_one_range_of_two_normals_keeps_relative_accuracy(self, alpha):
        # q shrinks with 1 - alpha, so the solve runs on the lower tail P(q) = 1 - alpha.
        expected = -math.sqrt(2.0) * statistics.NormalDist().inv_cdf(alpha / 2.0)
        np.testing.assert_allclose(_studentized_range_q(alpha, 2), expected, rtol=1e-11,
                                   atol=0)

    @settings(max_examples=100, deadline=None)
    @given(df=st.integers(1, 60), d2=st.integers(1, 2000))
    def test_a_zero_statistic_has_p_one(self, df, d2):
        assert _chi2_sf(0.0, df) == 1.0
        assert _f_sf(0.0, df, d2) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(df=st.integers(1, 60), d2=st.integers(1, 2000),
           x=st.floats(1e6, np.finfo(float).max))
    def test_a_huge_statistic_has_a_finite_p_and_warns_nothing(self, df, d2, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (_chi2_sf(x, df), _f_sf(x, df, d2), _f_sf(x, d2, df)):
                assert math.isfinite(p) and p >= 0.0

    def test_a_zero_friedman_statistic_has_p_one(self):
        # Each model holds every rank once, so the mean ranks are equal.
        ranks = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 1.0], [3.0, 1.0, 2.0]])
        result = friedman_chi2(RankTable(models=("a", "b", "c"), datasets=("x", "y", "z"),
                                         ranks=ranks, metric="mase"))
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == 1.0


def hurst_loop(values):
    """The rescaled-range estimate block by block: the reference for ``hurst_exponent``."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 32:
        raise ValueError("need at least 32 observations")
    sizes = []
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
    return float(np.polyfit(log_w, log_rs, 1)[0])


@st.composite
def hurst_series(draw):
    """Noise at scales from 1e-3 to 1e6, with constant stretches (blocks of zero spread)
    or constant steps of a power-of-two length (window sizes that lose every block)."""
    n = draw(st.integers(32, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3, 6))
    kind = draw(st.sampled_from(["noise", "stretches", "steps"]))
    if kind == "steps":
        step = 2 ** draw(st.integers(3, 10))
        values = np.repeat(rng.normal(size=n // step + 1), step)[:n] * scale
        # A short noisy tail, which no block or only the last blocks hold.
        tail = draw(st.integers(0, 31))
        values[n - tail:] += rng.normal(size=tail) * scale
        return values
    values = rng.normal(size=n) * scale
    if kind == "stretches":
        for _ in range(draw(st.integers(1, 4))):
            start = draw(st.integers(0, n - 1))
            values[start:start + draw(st.integers(1, n))] = values[start]
    return values


class TestHurst:
    def test_white_noise_near_half(self):
        estimates = [hurst_exponent(np.random.default_rng(s).normal(size=4096))
                     for s in range(20)]
        assert min(estimates) >= 0.45
        assert max(estimates) <= 0.58

    def test_persistent_series_above_noise(self):
        rng = np.random.default_rng(0)
        walk = np.cumsum(rng.normal(size=4096))
        assert hurst_exponent(walk) > 0.8

    def test_trend_is_strongly_persistent(self):
        assert hurst_exponent(np.arange(2048.0)) > 0.9

    def test_antipersistent_below_noise(self):
        rng = np.random.default_rng(1)
        noise = rng.normal(size=4097)
        assert hurst_exponent(np.diff(noise)) < 0.45

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            hurst_exponent(np.zeros(31))

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            hurst_exponent(np.full(128, 3.0))

    def test_accepts_time_series(self):
        ts = TimeSeries(values=np.random.default_rng(2).normal(size=256))
        assert 0.0 < hurst_exponent(ts) < 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_named(self, bad):
        values = np.random.default_rng(3).normal(size=200)
        values[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite input .* at position 7$"):
                hurst_exponent(values)

    @settings(max_examples=200, deadline=None)
    @given(values=hurst_series())
    def test_equals_the_per_block_loop_bit_for_bit(self, values):
        expected, got = [], []
        for estimate, out in ((hurst_loop, expected), (hurst_exponent, got)):
            try:
                out.append(estimate(values))
            except ValueError as exc:
                out.append(str(exc))
        assert got == expected


@pytest.fixture(scope="module")
def report():
    rng = np.random.default_rng(3)
    y = np.empty(120)
    y[0] = 30.0
    for t in range(1, 120):
        y[t] = 30.0 + 0.6 * (y[t - 1] - 30.0) + rng.normal()
    series = TimeSeries(values=y, frequency=12)
    cfg = EwnetConfig(levels=2, p_grid=(1, 2),
                      train_cfg=TrainConfig(learning_rate=0.05, epochs=80,
                                            restarts=2, seed=5))
    return rolling_evaluate(series, HorizonSpec("short", 3), cfg=cfg,
                            external={"flat30": np.full(3, 30.0)})


class TestRollingEvaluate:
    def test_split_lengths(self, report):
        assert report.split.test_len == 3
        assert report.split.val_len == 6
        assert report.split.train_len == 111

    def test_all_forecasters_scored(self, report):
        table = report.metric_table("mase")
        assert set(table) == {"EWNet", "RW", "RWD", "ARNN", "flat30"}
        assert all(np.isfinite(v) for v in table.values())

    def test_builtins_come_first_in_order(self, report):
        names = tuple(c.forecaster for c in report.cells)
        assert names == (*BUILTIN_FORECASTERS, "flat30")
        assert tuple(report.forecasts) == names

    def test_external_named_like_a_builtin_rejected(self):
        series = TimeSeries(values=np.random.default_rng(0).normal(size=60) + 10)
        cfg = EwnetConfig(p_grid=(1,), train_cfg=TrainConfig(epochs=2, restarts=1))
        with pytest.raises(ValueError, match="external forecast name 'RW'"):
            rolling_evaluate(series, HorizonSpec("short", 3), cfg,
                             external={"RW": np.zeros(3)})

    def test_coverage_only_for_ewnet(self, report):
        by_name = {c.forecaster: c for c in report.cells}
        assert by_name["EWNet"].coverage is not None
        assert 0.0 <= by_name["EWNet"].coverage <= 1.0
        assert by_name["RW"].coverage is None

    def test_forecast_lengths(self, report):
        assert all(f.shape == (3,) for f in report.forecasts.values())

    def test_external_length_validated(self):
        series = TimeSeries(values=np.random.default_rng(0).normal(size=60) + 10)
        with pytest.raises(ValueError, match="external"):
            rolling_evaluate(series, HorizonSpec("short", 3), EwnetConfig(),
                             external={"bad": np.zeros(2)})

    def test_a_longer_external_forecast_is_scored_on_its_first_steps(self):
        series = TimeSeries(values=np.random.default_rng(0).normal(size=60) + 10)
        cfg = EwnetConfig(levels=1, p_grid=(1,), train_cfg=TrainConfig(epochs=2, restarts=1))
        report = rolling_evaluate(series, HorizonSpec("short", 3), cfg,
                                  external={"exact": [9.0, 10.0, 11.0],
                                            "longer": [9.0, 10.0, 11.0, 1e6, 1e6]})
        cells = {c.forecaster: c.metrics for c in report.cells}
        assert cells["longer"] == cells["exact"]
        np.testing.assert_array_equal(report.forecasts["longer"], [9.0, 10.0, 11.0])

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_series_too_short(self, n):
        series = TimeSeries(values=np.arange(float(n)))
        with pytest.raises(ValueError, match=f"series of length {n} too short for horizon 3"):
            rolling_evaluate(series, HorizonSpec("short", 3), EwnetConfig())


class TestBacktest:
    def test_a_case_list_equals_rolling_evaluate_case_by_case(self, monkeypatch):
        # Two datasets x two horizons, and a case too short to split, which fails alone.
        rng = np.random.default_rng(11)
        series = [TimeSeries(values=30.0 + np.cumsum(rng.normal(size=n)), frequency=12)
                  for n in (90, 130)]
        cases = [(s, HorizonSpec.for_frequency(kind, 12)) for s in series
                 for kind in ("short", "long")]
        cases.insert(2, (TimeSeries(values=np.arange(12.0)), HorizonSpec("short", 3)))
        cfg = EwnetConfig(levels=1, p_grid=(1, 3),
                          train_cfg=TrainConfig(learning_rate=0.05, epochs=30, restarts=2,
                                                seed=4))
        external = {"flat": np.full(12, 30.0)}
        batches = []
        fit_networks = neuralnet.fit_networks
        monkeypatch.setattr(neuralnet, "fit_networks",
                            lambda jobs: batches.append(len(jobs)) or fit_networks(jobs))
        got = backtest(cases, cfg, external)
        # Per case, the searches train 2 lags x 2 components (EWNet) and 2 lags (ARNN),
        # and the refits 2 components and 1 network: one batch each for the four cases.
        assert batches == [4 * (2 * 2 + 2), 4 * (2 + 1)]
        assert str(got.pop(2)) == "series of length 12 too short for horizon 3"
        del cases[2]
        for report, (s, horizon) in zip(got, cases):
            want = rolling_evaluate(s, horizon, cfg, external)
            assert (report.horizon, report.split, report.cells) == \
                (want.horizon, want.split, want.cells)
            assert list(report.forecasts) == list(want.forecasts)
            for name, point in want.forecasts.items():
                assert report.forecasts[name].tobytes() == point.tobytes()


class TestBacktestSplit:
    def test_split_of_a_long_enough_series(self):
        split = backtest_split(120, HorizonSpec("long", 12), {"x": np.zeros(20)})
        assert (split.train_len, split.val_len, split.test_len) == (84, 24, 12)

    @pytest.mark.parametrize("external,message", [
        ({"x": np.zeros(3)}, "external forecast 'x' has 3 rows, 12 needed"),
        ({"x": np.zeros(12), "ARNN": np.zeros(12)},
         "external forecast name 'ARNN' is a built-in forecaster's"),
    ], ids=["short", "builtin-name"])
    def test_rejects_an_external_forecast(self, external, message):
        with pytest.raises(ValueError) as excinfo:
            backtest_split(120, HorizonSpec("long", 12), external)
        assert str(excinfo.value) == message

    def test_checks_the_series_before_the_forecasts(self):
        with pytest.raises(ValueError, match="series of length 20 too short for horizon 12"):
            backtest_split(20, HorizonSpec("long", 12), {"x": np.zeros(3)})
