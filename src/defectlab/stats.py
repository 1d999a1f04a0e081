"""Estimates and confidence intervals for simulated failure probabilities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Z_95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at 95% (z = Z_95) for a binomial proportion.

    The ends are exact at the edges: no successes give a lower bound of 0,
    and all successes an upper bound of 1, so the estimate stays inside.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    z = Z_95
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def as_fraction(x) -> Fraction:
    """Exact rational from a Fraction, int, or decimal string/float literal."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


@dataclass
class FailureEstimate:
    """Point estimate of a failure probability, with provenance.

    Exhaustive computations carry the exact rational in `exact` and a
    degenerate interval; Monte Carlo runs carry Wilson 95% bounds and the raw
    counts.
    """

    value: float
    ci_low: float
    ci_high: float
    trials: int = 0
    failures: int = 0
    exact: Fraction | None = None

    @classmethod
    def from_exact(cls, exact: Fraction) -> "FailureEstimate":
        v = float(exact)
        return cls(value=v, ci_low=v, ci_high=v, exact=exact)

    @classmethod
    def from_counts(cls, failures: int, trials: int) -> "FailureEstimate":
        lo, hi = wilson_interval(failures, trials)
        return cls(value=failures / trials, ci_low=lo, ci_high=hi,
                   trials=trials, failures=failures)

    @property
    def std_error(self) -> float:
        if self.trials == 0:
            return 0.0
        p = self.value
        return math.sqrt(max(p * (1 - p), 1e-300) / self.trials)
