"""Classical group-comparison tests: t-tests, one-way ANOVA, and Levene's test.

All tests are available both on raw samples and on (n, mean, sd) summaries so
published summary tables can be checked directly. Sample standard deviations
use the n-1 denominator throughout. P-values come from the regularized
incomplete beta function, ``scipy.special.betainc``.
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


def summarize(samples: Sequence[float]) -> GroupSummary:
    """Build a GroupSummary (n-1 denominator sd) from raw samples."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError(f"group needs at least 2 samples, got {x.size}")
    return GroupSummary(n=int(x.size), mean=float(x.mean()), sd=float(x.std(ddof=1)))


def t_cdf(t: float, df: float) -> float:
    """CDF of Student's t with ``df`` degrees of freedom."""
    from scipy.special import betainc

    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    p_tail = 0.5 * float(betainc(0.5 * df, 0.5, x))
    return 1.0 - p_tail if t > 0 else p_tail


def f_cdf(f: float, d1: float, d2: float) -> float:
    """CDF of the F distribution with (d1, d2) degrees of freedom."""
    from scipy.special import betainc

    if d1 <= 0 or d2 <= 0:
        raise ValueError(f"degrees of freedom must be positive, got ({d1}, {d2})")
    if f <= 0:
        return 0.0
    if math.isinf(f):
        return 1.0
    x = d1 * f / (d1 * f + d2)
    return float(betainc(0.5 * d1, 0.5 * d2, x))


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
    v1, v2 = a.sd**2, b.sd**2
    if equal_variance:
        df = float(a.n + b.n - 2)
        sp2 = ((a.n - 1) * v1 + (b.n - 1) * v2) / df
        se = math.sqrt(sp2 * (1.0 / a.n + 1.0 / b.n))
    else:
        q1, q2 = v1 / a.n, v2 / b.n
        se = math.sqrt(q1 + q2)
        if q1 + q2 > 0:
            df = (q1 + q2) ** 2 / (q1**2 / (a.n - 1) + q2**2 / (b.n - 1))
        else:
            df = float(a.n + b.n - 2)
    if se == 0.0:
        if diff == 0.0:
            return TestResult(0.0, df, 1.0, mean_difference=0.0)
        stat = math.copysign(math.inf, diff)
        return TestResult(stat, df, 0.0, mean_difference=diff)
    stat = diff / se
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
    ss_between = sum(g.n * (g.mean - grand) ** 2 for g in groups)
    ss_within = sum((g.n - 1) * g.sd**2 for g in groups)
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
