"""Closed-form arrival-process quantities for independent Poisson tick streams.

For two independent Poisson processes with rates ``lambda1`` and ``lambda2``,
the quantities below describe the pairs produced by the tick-retaining
synchronization scheme: the expected overlap of consecutive pair intervals,
the expected paired interarrival of each asset, and the dimensionless ratio

    gamma = sqrt(E(dt1) * E(dt2)) / E(overlap).

All three expectations are infinite series in the splitting probabilities
``x_i = lambda_i / (lambda1 + lambda2)``. The Beta(1,k) distribution function
has the elementary form ``F(x) = 1 - (1-x)**k``, which collapses every term
to a power of ``x_i``. The series are therefore arithmetico-geometric, and
each sums in closed form in the rate ratio ``r = lambda1 / lambda2``; ``gamma``
depends on ``r`` alone.

Two caveats about how these closed forms relate to measurements on paired
data. First, ``expected_dt1`` and ``expected_dt2`` differ from each other at
unequal rates even though the measured per-asset paired interarrival means
are necessarily equal (pairs advance through both assets together); only
their geometric mean - which is how they enter ``gamma`` - matches the
measurement. Second, the overlap series makes ``gamma`` smaller than 1 at
equal rates (0.75), while the empirical ``w = sqrt(m1*m2)/m_overlap`` is
>= 1 by construction. Estimator corrections therefore always use the
empirical ``w``; this module reports the analytic values so the two can be
compared side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidParameter
from .market_data import TickSeries


@dataclass(frozen=True)
class PoissonPair:
    """Arrival intensities (ticks per second) of the two assets."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        for name, lam in (("lambda1", self.lambda1), ("lambda2", self.lambda2)):
            if not np.isfinite(lam) or lam <= 0:
                raise InvalidParameter(f"{name} must be positive and finite, got {lam}")

    @property
    def x1(self) -> float:
        return 1.0 / (1.0 + float(self.lambda2) / float(self.lambda1))

    @property
    def x2(self) -> float:
        return 1.0 / (1.0 + float(self.lambda1) / float(self.lambda2))


@dataclass(frozen=True)
class TheoryReport:
    """Series values for a :class:`PoissonPair`.

    ``expected_dt1``/``expected_dt2`` are the expected paired interarrivals,
    ``expected_overlap`` the expected overlap interval, ``gamma`` their
    dimensionless ratio.
    """

    expected_overlap: float
    expected_dt1: float
    expected_dt2: float
    gamma: float


def pq_terms(pp: PoissonPair, n: int) -> tuple[float, float]:
    """n-th splitting probabilities of the overlap series.

    ``p_n`` is the Beta(1, n+1) minus Beta(1, n) CDF increment at ``x2``,
    which reduces to ``x2 * x1**n``; ``q_n`` swaps the roles.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameter(f"n must be an integer >= 1, got {n!r}")
    x1, x2 = pp.x1, pp.x2
    return float(x2 * x1**n), float(x1 * x2**n)


def theory_report(pp: PoissonPair) -> TheoryReport:
    """The overlap and paired-interarrival series, summed in closed form.

    With ``r = lambda1 / lambda2``, ``sum_n n (p_n + q_n) = r + 1/r`` and the
    paired-interarrival multipliers are ``x1 + 1/r`` and ``x2 + r``. At equal
    rates the expected overlap is ``2/lam``, the expected paired
    interarrival ``1.5/lam`` and ``gamma = 0.75``. A rate pair whose values
    float64 cannot hold raises :class:`InvalidParameter`.
    """
    lam1, lam2 = float(pp.lambda1), float(pp.lambda2)  # Python floats overflow without a warning
    r, r_inv = lam1 / lam2, lam2 / lam1
    expected_overlap = 0.5 * (1.0 / lam1 + 1.0 / lam2) * (r + r_inv)
    expected_dt1 = (pp.x1 + r_inv) / lam1
    expected_dt2 = (pp.x2 + r) / lam2
    # gamma = 2r(1 + r + r^2) / ((1 + r)^2 (1 + r^2)) is unchanged by r -> 1/r;
    # the form in s <= 1 cannot overflow
    s = min(r, r_inv)
    gamma = 2.0 * s * (1.0 + s + s * s) / ((1.0 + s) ** 2 * (1.0 + s * s))
    values = (expected_overlap, expected_dt1, expected_dt2, gamma)
    if not all(0.0 < v < np.inf for v in values):
        raise InvalidParameter(
            f"the arrival quantities at rates {lam1} and {lam2} exceed the float64 range")
    return TheoryReport(*values)


def estimate_rates(a: TickSeries, b: TickSeries) -> PoissonPair:
    """Maximum-likelihood Poisson rates: interarrival count over span."""
    rates = []
    for s in (a, b):
        if len(s) < 2 or s.span <= 0:
            raise InsufficientData("rate estimation needs at least 2 ticks spanning time")
        rates.append((len(s) - 1) / s.span)
    return PoissonPair(lambda1=rates[0], lambda2=rates[1])
