import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, given, settings, strategies as st

from nirscope.stats import (
    _betainc,
    _f_p,
    _t_p,
    GroupSummary,
    levene,
    one_way_anova,
    one_way_anova_from_summary,
    summarize,
    t_test,
    t_test_from_summary,
)

# Published single-task group summaries for the two significant channels.
S7D6_SINGLE = (GroupSummary(4336, 1.40e-6, 8.68e-6), GroupSummary(5135, 5.78e-7, 6.28e-6))
S5D6_SINGLE = (GroupSummary(4336, -6.72e-9, 6.53e-6), GroupSummary(5135, -3.51e-7, 6.11e-6))
S7D6_DUAL = (GroupSummary(4336, 1.83e-6, 8.66e-6), GroupSummary(5135, 9.54e-7, 6.15e-6))
S5D6_DUAL = (GroupSummary(4336, 3.56e-7, 7.66e-6), GroupSummary(5135, -2.24e-7, 5.68e-6))


@pytest.mark.parametrize(
    "pair,expected,p_published",
    [
        (S7D6_SINGLE, 5.374, 0.001),
        (S5D6_SINGLE, 2.646, 0.008),
        (S7D6_DUAL, 5.738, 0.001),
        (S5D6_DUAL, 4.226, 0.001),
    ],
)
def test_pooled_t_reproduces_published_channel_values(pair, expected, p_published):
    res = t_test_from_summary(*pair, equal_variance=True)
    assert res.statistic == pytest.approx(expected, abs=0.05)
    if p_published == 0.001:
        assert res.p_two_sided < 0.001
    else:
        assert res.p_two_sided == pytest.approx(p_published, abs=0.002)


def test_welch_t_differs_from_pooled_on_unequal_variances():
    pooled = t_test_from_summary(*S7D6_SINGLE, equal_variance=True)
    welch = t_test_from_summary(*S7D6_SINGLE, equal_variance=False)
    assert welch.statistic != pytest.approx(pooled.statistic, abs=1e-3)
    assert welch.df < pooled.df


@pytest.mark.parametrize(
    "ms,ctrl,expected,tol",
    [
        ((13, 43.85, 9.57), (11, 44.36, 10.56), 0.016, 0.01),  # age
        ((13, 21.43, 3.95), (11, 18.94, 2.21), 3.43, 0.05),  # pegboard time
        ((13, 26.85, 1.52), (11, 28.18, 1.17), 5.65, 0.10),  # cognition score
    ],
)
def test_anova_from_summary_reproduces_published_f(ms, ctrl, expected, tol):
    res = one_way_anova_from_summary([GroupSummary(*ms), GroupSummary(*ctrl)])
    assert res.statistic == pytest.approx(expected, abs=tol)


def test_anova_published_p_values():
    age = one_way_anova_from_summary(
        [GroupSummary(13, 43.85, 9.57), GroupSummary(11, 44.36, 10.56)]
    )
    assert age.p_two_sided == pytest.approx(0.9, abs=0.05)
    moca = one_way_anova_from_summary(
        [GroupSummary(13, 26.85, 1.52), GroupSummary(11, 28.18, 1.17)]
    )
    assert moca.p_two_sided == pytest.approx(0.027, abs=0.01)


def test_identical_summaries_give_zero_t_unit_p():
    g = GroupSummary(10, 1.5, 2.0)
    res = t_test_from_summary(g, g)
    assert res.statistic == 0.0
    assert res.p_two_sided == 1.0
    assert res.mean_difference == 0.0


def test_zero_spread_equal_means_is_not_an_error():
    res = t_test_from_summary(GroupSummary(5, 2.0, 0.0), GroupSummary(7, 2.0, 0.0))
    assert res.statistic == 0.0
    assert res.p_two_sided == 1.0


def test_t_test_same_multiset_zero():
    a = [1.0, 2.0, 3.0, 4.0]
    res = t_test(a, list(reversed(a)))
    assert res.statistic == 0.0


def test_t_test_translation_moves_mean_difference_only():
    rng = np.random.default_rng(5)
    a = rng.normal(size=20)
    b = rng.normal(size=25)
    base = t_test(a, b)
    shifted = t_test(a, b + 3.0)
    assert shifted.mean_difference == pytest.approx(base.mean_difference - 3.0, rel=1e-12)
    assert summarize(b + 3.0).sd == pytest.approx(summarize(b).sd, rel=1e-12)


def test_t_test_matches_summary_path_exactly():
    rng = np.random.default_rng(7)
    a = rng.normal(size=15)
    b = rng.normal(1.0, 2.0, size=20)
    for ev in (True, False):
        raw = t_test(a, b, equal_variance=ev)
        summ = t_test_from_summary(summarize(a), summarize(b), equal_variance=ev)
        assert raw.statistic == summ.statistic
        assert raw.p_two_sided == summ.p_two_sided


def test_t_sign_flips_on_group_swap_p_unchanged():
    rng = np.random.default_rng(11)
    a = rng.normal(size=12)
    b = rng.normal(0.8, 1.0, size=14)
    ab = t_test(a, b)
    ba = t_test(b, a)
    assert ba.statistic == pytest.approx(-ab.statistic, rel=1e-12)
    assert ba.p_two_sided == pytest.approx(ab.p_two_sided, rel=1e-12)


def test_welch_df_of_tiny_variances_is_finite():
    # q2 = var / n is near 2e-282, so q2**2 underflows to 0: df was 0 / 0.
    tiny = t_test([0.0, 0.0], [0.0, 2.8409263603372385e-141], equal_variance=False)
    unit = t_test([0.0, 0.0], [0.0, 1.0], equal_variance=False)
    assert tiny.df == unit.df == 1.0
    assert tiny.statistic == pytest.approx(unit.statistic, rel=1e-12)
    assert tiny.p_two_sided == pytest.approx(unit.p_two_sided, rel=1e-12)


def test_two_group_anova_equals_pooled_t_squared():
    rng = np.random.default_rng(3)
    a = rng.normal(size=18)
    b = rng.normal(0.5, 1.5, size=22)
    f = one_way_anova([a, b])
    t = t_test(a, b, equal_variance=True)
    assert f.statistic == pytest.approx(t.statistic**2, rel=1e-10)
    assert f.p_two_sided == pytest.approx(t.p_two_sided, rel=1e-9)


def test_anova_raw_and_summary_paths_agree():
    rng = np.random.default_rng(13)
    groups = [rng.normal(m, 1.0, size=n) for m, n in ((0, 10), (0.5, 14), (1.0, 9))]
    raw = one_way_anova(groups)
    summ = one_way_anova_from_summary([summarize(g) for g in groups])
    assert raw.statistic == pytest.approx(summ.statistic, rel=1e-10)


def test_anova_equal_means_f_zero():
    res = one_way_anova_from_summary(
        [GroupSummary(10, 2.0, 1.0), GroupSummary(12, 2.0, 1.5)]
    )
    assert res.statistic == 0.0
    assert res.p_two_sided == 1.0


def test_levene_identical_constant_groups():
    res = levene([[3.0, 3.0, 3.0], [3.0, 3.0, 3.0, 3.0]])
    assert res.statistic == 0.0


def test_levene_detects_tenfold_scale():
    rng = np.random.default_rng(42)
    a = rng.normal(0, 1, size=50)
    a -= a.mean()
    b = 10.0 * rng.normal(0, 1, size=50)
    b -= b.mean()
    res = levene([a, b])
    assert res.p_two_sided < 0.05


def test_levene_median_close_to_mean_on_symmetric_data():
    rng = np.random.default_rng(8)
    a = rng.normal(size=200)
    b = rng.normal(0, 2, size=200)
    mean_c = levene([a, b], center="mean")
    median_c = levene([a, b], center="median")
    assert median_c.statistic == pytest.approx(mean_c.statistic, rel=0.2)
    assert (mean_c.p_two_sided < 0.05) == (median_c.p_two_sided < 0.05)


def test_levene_rejects_unknown_center():
    with pytest.raises(ValueError):
        levene([[1.0, 2.0], [3.0, 4.0]], center="mode")


# --- the p-value tails ---


def test_t_p_at_zero_is_one():
    for df in (1, 2, 5, 30, 1000):
        assert _t_p(0.0, df) == 1.0


def test_t_p_df1_matches_cauchy_closed_form():
    # two-sided p at |t| = 1 with one degree of freedom: 1 - (2/pi)*atan(1) = 0.5
    assert _t_p(1.0, 1) == pytest.approx(1.0 - (2.0 / math.pi) * math.atan(1.0), rel=1e-12)


def test_f_p_at_one_with_equal_df_is_half():
    for d in (1, 4, 10, 25):
        assert _f_p(1.0, d, d) == pytest.approx(0.5, abs=1e-12)


# The oracle grid: degrees of freedom from 2 to 1e5, |t| from 1e-3 to 40 and
# F from 1e-3 to 1e3, so p runs from 1 down past the smallest normal double.
TAIL_DFS = np.geomspace(2, 1e5, 40)


def _assert_tail_matches_scipy_sf(ours, ref, where):
    if ref >= 1e-300:  # denormal values carry fewer significant bits
        assert ours == pytest.approx(ref, rel=1e-10, abs=0), where


def test_t_p_matches_scipy_sf():
    for df in TAIL_DFS:
        for t in np.geomspace(1e-3, 40.0, 80):
            ref = 2.0 * float(scipy.stats.t.sf(t, df))
            _assert_tail_matches_scipy_sf(_t_p(t, df), ref, (df, t))


def test_f_p_matches_scipy_sf():
    for d1 in (1, 2, 3, 5):
        for d2 in TAIL_DFS:
            for f in np.geomspace(1e-3, 1e3, 60):
                ref = float(scipy.stats.f.sf(f, d1, d2))
                _assert_tail_matches_scipy_sf(_f_p(f, d1, d2), ref, (d1, d2, f))


# --- the incomplete beta function against scipy.special.betainc ---

# Degrees of freedom from 10 to 1e5, as the t and F tests of a run see them.
DFS = np.unique(np.round(np.geomspace(10, 1e5, 40)))


def _assert_betainc_matches_scipy(a, b, x):
    ref = float(scipy.special.betainc(a, b, x))
    if ref >= 1e-300:  # denormal values carry fewer significant bits
        assert _betainc(a, b, x, 1.0 - x) == pytest.approx(ref, rel=1e-11, abs=0), (a, b, x)


def test_betainc_matches_scipy_on_t_test_arguments():
    ts = np.concatenate([np.geomspace(1e-4, 40.0, 60), np.linspace(1.5, 2.0, 21)])
    for df in DFS:
        for t in ts:
            _assert_betainc_matches_scipy(0.5 * df, 0.5, df / (df + t * t))


def test_betainc_matches_scipy_on_f_test_arguments():
    for d1 in (1, 2, 3):
        for d2 in DFS:
            for f in np.geomspace(1e-3, 100.0, 40):
                _assert_betainc_matches_scipy(0.5 * d1, 0.5 * d2, d1 * f / (d1 * f + d2))


PARAM = st.floats(0.05, 1e5)
UNIT = st.floats(0.0, 1.0)
# x on a grid of 2**-40, so that 1 - x is exact: near x = 0 or 1, I_x moves
# by far more than 1e-12 over the rounding error of 1 - x.
GRID_UNIT = st.integers(0, 2**40).map(lambda k: k / 2**40)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(PARAM, PARAM, GRID_UNIT)
def test_betainc_reflection_and_range(a, b, x):
    i = _betainc(a, b, x, 1.0 - x)
    assert 0.0 <= i <= 1.0
    assert i + _betainc(b, a, 1.0 - x, x) == pytest.approx(1.0, rel=0, abs=1e-12)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(PARAM, PARAM, UNIT, UNIT)
def test_betainc_monotone_in_x(a, b, x1, x2):
    lo, hi = sorted((x1, x2))
    # to within its rounding error
    assert _betainc(a, b, lo, 1.0 - lo) <= _betainc(a, b, hi, 1.0 - hi) * (1.0 + 1e-12)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(0.1, 1e5))
def test_t_p_is_symmetric(t, df):
    assert _t_p(-t, df) == _t_p(t, df)


def test_nan_statistic_or_df_gives_nan_p():
    assert math.isnan(_t_p(math.nan, 5))
    assert math.isnan(_t_p(1.0, math.nan))
    assert math.isnan(_f_p(math.nan, 1, 5))
    assert math.isnan(_f_p(1.0, math.nan, 5))
    assert math.isnan(t_test([1.0, math.nan, 2.0], [1.0, 2.0, 3.0]).p_two_sided)


def test_p_monotone_in_statistic_magnitude():
    stats_grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    ps = [_t_p(s, 21) for s in stats_grid]
    assert all(p1 > p2 for p1, p2 in zip(ps, ps[1:]))
    fps = [_f_p(s, 3, 40) for s in [0.1, 0.5, 1.0, 2.0, 5.0]]
    assert all(p1 > p2 for p1, p2 in zip(fps, fps[1:]))


# --- validation errors ---


def test_group_summary_validation():
    with pytest.raises(ValueError):
        GroupSummary(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        GroupSummary(5, 0.0, -0.1)


def test_small_groups_rejected():
    with pytest.raises(ValueError):
        t_test([1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        one_way_anova([[1.0, 2.0]])


def test_t_test_of_tiny_spreads_equals_the_rescaled_test():
    # Each sd**2 of these groups underflows to 0; t and p must not become inf and 0.
    for equal_variance in (True, False):
        tiny = t_test([0.0, 1e-170], [0.0, 3e-170], equal_variance=equal_variance)
        unit = t_test([0.0, 1.0], [0.0, 3.0], equal_variance=equal_variance)
        assert tiny.statistic == pytest.approx(unit.statistic, rel=1e-12)
        assert tiny.p_two_sided == pytest.approx(unit.p_two_sided, rel=1e-12)
        assert tiny.df == pytest.approx(unit.df, rel=1e-12)
        assert tiny.mean_difference == pytest.approx(-1e-170, rel=1e-12)
        summary = t_test_from_summary(
            GroupSummary(2, 0.0, 1e-170), GroupSummary(2, 1e-170, 1e-170), equal_variance
        )
        assert summary.statistic == pytest.approx(-1.0, rel=1e-12)


def test_anova_and_levene_of_tiny_spreads_equal_the_rescaled_tests():
    # Every squared deviation of these groups underflows to 0; F and p must
    # not become 0 and 1.
    cases = (
        (one_way_anova, [[0.0, 1.0, 2.0], [0.0, 3.0, 1.0]]),
        (levene, [[0.0, 1.0, 2.0, 0.5], [0.0, 3.0, 1.0, 7.0]]),
    )
    for test, groups in cases:
        unit = test(groups)
        tiny = test([[v * 1e-170 for v in g] for g in groups])
        assert unit.statistic > 0.0
        assert tiny.statistic == pytest.approx(unit.statistic, rel=1e-12)
        assert tiny.p_two_sided == pytest.approx(unit.p_two_sided, rel=1e-12)
        assert tiny.df == unit.df


# --- invariances of the group tests (property-based) ---

# Samples on a grid of 1/8 in [-100, 100], at least two distinct values a
# group: a shift on the same grid is exact, and no group has zero spread.
GRID_VALUE = st.integers(-800, 800).map(lambda k: k / 8.0)
GRID_GROUP = st.lists(GRID_VALUE, min_size=3, max_size=12).filter(lambda g: len(set(g)) >= 2)
GRID_GROUPS = st.lists(GRID_GROUP, min_size=2, max_size=4)
# Shift, scale and reordering change every statistic and p-value by rounding
# only: 1e-9 relative, or 1e-9 absolute for values near zero (a t near 0, a
# p near 1), where a relative bound says nothing.
INVARIANCE_TOL = dict(rel_tol=1e-9, abs_tol=1e-9)


def _t_tests(groups) -> list[float]:
    """Statistic and p of the pooled t and Welch tests of the first two groups."""
    a, b = groups[0], groups[1]
    results = (t_test(a, b, equal_variance=True), t_test(a, b, equal_variance=False))
    return [v for r in results for v in (r.statistic, r.p_two_sided)]


def _group_tests(groups) -> list[float]:
    """Statistic and p of the pooled t, Welch, Levene and the ANOVA; the
    t-tests compare the first two groups."""
    results = (levene(groups), one_way_anova(groups))
    return _t_tests(groups) + [v for r in results for v in (r.statistic, r.p_two_sided)]


def _assert_invariant(before, after):
    for x, y in zip(before, after, strict=True):
        assert math.isclose(x, y, **INVARIANCE_TOL), (before, after)


def _informative_deviations(groups) -> bool:
    # Levene is an ANOVA of |x - mean|; when those are constant within every
    # group, its within-group spread is zero up to rounding and F is 0/0.
    return any(np.ptp(np.abs(np.array(g) - np.mean(g))) > 0 for g in groups)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=20),
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=20),
)
def test_group_swap_negates_t_and_keeps_every_p_exactly(a, b):
    for equal_variance in (True, False):
        ab = t_test(a, b, equal_variance=equal_variance)
        ba = t_test(b, a, equal_variance=equal_variance)
        assert ba.statistic == -ab.statistic
        assert ba.p_two_sided == ab.p_two_sided
        assert ba.df == ab.df
    for test in (levene, one_way_anova):
        ab, ba = test([a, b]), test([b, a])
        assert (ba.statistic, ba.df, ba.p_two_sided) == (ab.statistic, ab.df, ab.p_two_sided)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(GRID_GROUPS, GRID_VALUE)
def test_common_shift_changes_no_test(groups, shift):
    assume(_informative_deviations(groups))
    shifted = [[v + shift for v in g] for g in groups]
    _assert_invariant(_group_tests(groups), _group_tests(shifted))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(GRID_GROUPS, st.floats(1e-3, 1e3))
def test_positive_common_scale_changes_no_test(groups, scale):
    assume(_informative_deviations(groups))
    scaled = [[v * scale for v in g] for g in groups]
    _assert_invariant(_group_tests(groups), _group_tests(scaled))
    # Deviations this small square to 0 in floating point; every test
    # measures them in units of the largest spread and still holds.
    tiny = [[v * scale * 1e-170 for v in g] for g in groups]
    _assert_invariant(_group_tests(groups), _group_tests(tiny))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(GRID_GROUPS, st.data())
def test_reordering_within_groups_changes_no_test(groups, data):
    assume(_informative_deviations(groups))
    reordered = [data.draw(st.permutations(g)) for g in groups]
    _assert_invariant(_group_tests(groups), _group_tests(reordered))
