"""Classical group-comparison tests: t-tests, one-way ANOVA, and Levene's test.

All tests are available both on raw samples and on (n, mean, sd) summaries so
published summary tables can be checked directly. Sample standard deviations
use the n-1 denominator throughout. P-values come from the regularized
incomplete beta function I_x(a, b), computed here by its continued fraction
(``_betainc``), within 1e-11 relative of ``scipy.special.betainc`` on t-test
and F-test arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GroupSummary",
    "TestResult",
    "t_test",
    "t_test_from_summary",
    "one_way_anova",
    "one_way_anova_from_summary",
    "levene",
    "t_cdf",
    "f_cdf",
]


@dataclass(frozen=True)
class GroupSummary:
    """Size, mean, and sample standard deviation of one group."""

    n: int
    mean: float
    sd: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"group needs n >= 2, got n={self.n}")
        if self.sd < 0:
            raise ValueError(f"standard deviation must be >= 0, got {self.sd}")


@dataclass(frozen=True)
class TestResult:
    """Outcome of a statistical test.

    ``df`` is a single value for t-tests and a ``(between, within)`` pair for
    F-tests. ``p_two_sided`` is the two-sided p for t-tests and the upper-tail
    p for F-tests. ``mean_difference`` is set for t-tests only.
    """

    statistic: float
    df: float | tuple[float, float]
    p_two_sided: float
    mean_difference: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.p_two_sided <= 1.0 or math.isnan(self.p_two_sided)):
            raise ValueError(f"p-value out of [0, 1]: {self.p_two_sided}")


# Below this spread a squared deviation falls under 2**-1022 / eps, where
# subnormal rounding is no longer negligible and values underflow to 0.
_TINY_SPREAD = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)


def summarize(samples: Sequence[float]) -> GroupSummary:
    """Build a GroupSummary (n-1 denominator sd) from raw samples."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError(f"group needs at least 2 samples, got {x.size}")
    sd = float(x.std(ddof=1))
    spread = float(np.ptp(x))
    if 0.0 < spread < _TINY_SPREAD:
        sd = spread * float((x / spread).std(ddof=1))
    return GroupSummary(n=int(x.size), mean=float(x.mean()), sd=sd)


# Bernoulli-number coefficients B_2k / (2k (2k - 1)) of Stirling's series
# for log Gamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_CF_EPS = 1e-15
_CF_MAXITER = 10_000


def _stirling_tail(z: float) -> float:
    inv, inv2 = 1.0 / z, 1.0 / (z * z)
    total = 0.0
    for c in reversed(_STIRLING):
        total = total * inv2 + c
    return total * inv


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a + b)."""
    small, big = min(a, b), max(a, b)
    if big < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # log Gamma(big + small) / Gamma(big) from Stirling's series: the
    # difference of two large lgamma values loses up to 1e-10 at big = 2e4.
    s = big + small
    log_ratio = (
        (big - 0.5) * math.log1p(small / big)
        + small * math.log(s)
        - small
        + (_stirling_tail(s) - _stirling_tail(big))
    )
    return math.lgamma(small) - log_ratio


def _beta_frac(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) for x <= a / (a + b), with y = 1 - x and
    lam = (a + b) y - b >= 0, by the continued fraction of Didonato &
    Morris (1992, TOMS 708 ``bfrac``).

    Its terms take lam, the distance from the mean, as given, where the
    classic fraction in x alone cancels near that point (it lost 3.5e-11 on
    t-test arguments at df = 1e5). Of x and y, the one <= 1/2 is exact, so
    each logarithm is taken of an exact value.
    """
    log_x = math.log(x) if x <= 0.5 else math.log1p(-y)
    log_y = math.log(y) if y <= 0.5 else math.log1p(-x)
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b))
    c = 1.0 + lam
    c0, c1, yp1 = b / a, 1.0 + 1.0 / a, y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _CF_MAXITER + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _CF_EPS * r:
            return front * r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), for a, b > 0.

    Agrees with ``scipy.special.betainc`` to 1e-12 relative when
    min(a, b) <= 50, which covers t-tests (b = 1/2) and F-tests with few
    groups; the error grows with min(a, b), to about 3e-11 at 5000.
    """
    if math.isnan(x):  # a NaN statistic or df gives a NaN p-value
        return math.nan
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    y = 1.0 - x
    # (a + b) y - b, from whichever of x and y is small near the mean, so
    # that its rounding error is about eps * min(a, b).
    lam = (a + b) * y - b if a > b else a - (a + b) * x
    if lam < 0.0:  # past the mean: I_x(a, b) = 1 - I_y(b, a)
        return 1.0 - _beta_frac(b, a, y, x, -lam)
    return _beta_frac(a, b, x, y, lam)


def t_cdf(t: float, df: float) -> float:
    """CDF of Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    p_tail = 0.5 * _betainc(0.5 * df, 0.5, x)
    return 1.0 - p_tail if t > 0 else p_tail


def f_cdf(f: float, d1: float, d2: float) -> float:
    """CDF of the F distribution with (d1, d2) degrees of freedom."""
    if d1 <= 0 or d2 <= 0:
        raise ValueError(f"degrees of freedom must be positive, got ({d1}, {d2})")
    if f <= 0:
        return 0.0
    if math.isinf(f):
        return 1.0
    x = d1 * f / (d1 * f + d2)
    return _betainc(0.5 * d1, 0.5 * d2, x)


def _t_two_sided_p(t: float, df: float) -> float:
    return 2.0 * (1.0 - t_cdf(abs(t), df))


def t_test_from_summary(
    a: GroupSummary, b: GroupSummary, equal_variance: bool = True
) -> TestResult:
    """Independent two-sample t-test from group summaries.

    ``equal_variance=True`` uses the pooled-variance statistic with
    n1+n2-2 degrees of freedom; ``False`` uses Welch's statistic with
    Welch-Satterthwaite degrees of freedom. Two groups with zero spread and
    equal means give statistic 0 and p 1 rather than an error.
    """
    diff = a.mean - b.mean
    # t and df do not depend on the unit: spreads whose squares would
    # underflow are measured in units of the larger one.
    larger = max(a.sd, b.sd)
    unit = larger if 0.0 < larger < _TINY_SPREAD else 1.0
    v1, v2 = (a.sd / unit) ** 2, (b.sd / unit) ** 2
    if equal_variance:
        df = float(a.n + b.n - 2)
        sp2 = ((a.n - 1) * v1 + (b.n - 1) * v2) / df
        se = math.sqrt(sp2 * (1.0 / a.n + 1.0 / b.n))
    else:
        q1, q2 = v1 / a.n, v2 / b.n
        se = math.sqrt(q1 + q2)
        if q1 + q2 > 0:
            # In shares of q1 + q2, so that the squares of tiny variances
            # cannot underflow to 0 / 0.
            r1, r2 = q1 / (q1 + q2), q2 / (q1 + q2)
            df = 1.0 / (r1**2 / (a.n - 1) + r2**2 / (b.n - 1))
        else:
            df = float(a.n + b.n - 2)
    if se == 0.0:
        if diff == 0.0:
            return TestResult(0.0, df, 1.0, mean_difference=0.0)
        stat = math.copysign(math.inf, diff)
        return TestResult(stat, df, 0.0, mean_difference=diff)
    stat = diff / unit / se
    return TestResult(stat, df, _t_two_sided_p(stat, df), mean_difference=diff)


def t_test(
    a: Sequence[float], b: Sequence[float], equal_variance: bool = True
) -> TestResult:
    """Independent two-sample t-test on raw samples."""
    return t_test_from_summary(summarize(a), summarize(b), equal_variance)


def one_way_anova_from_summary(groups: Sequence[GroupSummary]) -> TestResult:
    """One-way ANOVA F-test from per-group (n, mean, sd) summaries."""
    if len(groups) < 2:
        raise ValueError(f"ANOVA needs at least 2 groups, got {len(groups)}")
    k = len(groups)
    n_total = sum(g.n for g in groups)
    grand = sum(g.n * g.mean for g in groups) / n_total
    # F does not depend on the unit: spreads and mean deviations whose
    # squares would underflow are measured in units of the largest of them.
    largest = max(max(g.sd, abs(g.mean - grand)) for g in groups)
    unit = largest if 0.0 < largest < _TINY_SPREAD else 1.0
    ss_between = sum(g.n * ((g.mean - grand) / unit) ** 2 for g in groups)
    ss_within = sum((g.n - 1) * (g.sd / unit) ** 2 for g in groups)
    df_between = float(k - 1)
    df_within = float(n_total - k)
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    if ms_within == 0.0:
        if ms_between == 0.0:
            return TestResult(0.0, (df_between, df_within), 1.0)
        return TestResult(math.inf, (df_between, df_within), 0.0)
    stat = ms_between / ms_within
    p = 1.0 - f_cdf(stat, df_between, df_within)
    return TestResult(stat, (df_between, df_within), p)


def one_way_anova(groups: Sequence[Sequence[float]]) -> TestResult:
    """One-way ANOVA F-test on raw samples."""
    return one_way_anova_from_summary([summarize(g) for g in groups])


def levene(groups: Sequence[Sequence[float]], center: str = "mean") -> TestResult:
    """Levene's test for equality of variances.

    Runs a one-way ANOVA on absolute deviations from each group's center.
    ``center="mean"`` is the classic Levene statistic; ``center="median"``
    gives the Brown-Forsythe variant.
    """
    if center not in ("mean", "median"):
        raise ValueError(f"center must be 'mean' or 'median', got {center!r}")
    deviations = []
    for g in groups:
        x = np.asarray(g, dtype=float)
        if x.size < 2:
            raise ValueError(f"group needs at least 2 samples, got {x.size}")
        c = float(np.mean(x)) if center == "mean" else float(np.median(x))
        deviations.append(np.abs(x - c))
    return one_way_anova(deviations)
