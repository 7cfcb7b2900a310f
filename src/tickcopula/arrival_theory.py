"""Closed-form arrival-process quantities for independent Poisson tick streams.

For two independent Poisson processes with rates ``lambda1`` and ``lambda2``,
the quantities below describe the pairs produced by the tick-retaining
synchronization scheme: the expected overlap of consecutive pair intervals,
the expected paired interarrival of each asset, and the dimensionless ratio

    gamma = sqrt(E(dt1) * E(dt2)) / E(overlap).

All three expectations are infinite series in the splitting probabilities
``x_i = lambda_i / (lambda1 + lambda2)``. The Beta(1,k) distribution function
has the elementary form ``F(x) = 1 - (1-x)**k``, which collapses every term
to a power of ``x_i``; the series are summed by truncation with an exact
geometric tail bound.

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
        return self.lambda1 / (self.lambda1 + self.lambda2)

    @property
    def x2(self) -> float:
        return self.lambda2 / (self.lambda1 + self.lambda2)


@dataclass(frozen=True)
class TheoryReport:
    """Series values for a :class:`PoissonPair`.

    ``expected_dt1``/``expected_dt2`` are the expected paired interarrivals,
    ``expected_overlap`` the expected overlap interval, ``gamma`` their
    dimensionless ratio. ``truncation_n`` is the number of series terms
    summed and ``truncation_error_bound`` an upper bound on the truncation
    error of any reported time quantity.
    """

    expected_overlap: float
    expected_dt1: float
    expected_dt2: float
    gamma: float
    truncation_n: int
    truncation_error_bound: float


def pq_terms(pp: PoissonPair, n: int) -> tuple[float, float]:
    """n-th splitting probabilities of the overlap series.

    ``p_n`` is the Beta(1, n+1) minus Beta(1, n) CDF increment at ``x2``,
    which reduces to ``x2 * x1**n``; ``q_n`` swaps the roles.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameter(f"n must be an integer >= 1, got {n!r}")
    x1, x2 = pp.x1, pp.x2
    return float(x2 * x1**n), float(x1 * x2**n)


def _tail_bound_linear(r: float, n: int) -> float:
    """Exact tail of sum_{k>n} k r**k."""
    return r ** (n + 1) * ((n + 1) - n * r) / (1.0 - r) ** 2


def _tail_bound_geom(r: float, n: int) -> float:
    """Exact tail of sum_{k>n} r**k."""
    return r ** (n + 1) / (1.0 - r)


def _truncation_n(r: float, tol: float) -> int:
    """Smallest n with the k*r**k tail below tol (the dominating tail)."""
    n = 8
    while _tail_bound_linear(r, n) > tol:
        n *= 2
        if n > 1 << 26:
            raise InvalidParameter(f"tolerance {tol} unattainable for rate ratio {r}")
    # shrink back to the first adequate n
    lo, hi = n // 2, n
    while lo < hi:
        mid = (lo + hi) // 2
        if _tail_bound_linear(r, mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


def theory_report(pp: PoissonPair, tol: float = 1e-12) -> TheoryReport:
    """Sum the overlap and paired-interarrival series to tolerance ``tol``.

    The truncation point is chosen from the exact geometric tail bounds so
    that every reported time quantity is within ``tol`` of its limit. At
    equal rates the sums collapse analytically: expected overlap ``2/lam``,
    expected paired interarrival ``1.5/lam`` and ``gamma = 0.75``.
    """
    if not np.isfinite(tol) or tol <= 0:
        raise InvalidParameter(f"tol must be positive, got {tol}")
    x1, x2 = pp.x1, pp.x2
    rate_scale = 1.0 / pp.lambda1 + 1.0 / pp.lambda2
    r = max(x1, x2)
    # scale tol down so the bound holds after the rate prefactors
    term_tol = tol / max(rate_scale, 1.0 / pp.lambda1, 1.0 / pp.lambda2) / 2.0
    n_trunc = _truncation_n(r, term_tol)

    k = np.arange(1, n_trunc + 1, dtype=float)
    pow1 = x1**k
    pow2 = x2**k
    # overlap: (1/2) * rate_scale * sum_n n (p_n + q_n)
    s_pq = float(np.sum(k * (x2 * pow1 + x1 * pow2)))
    expected_overlap = 0.5 * rate_scale * s_pq
    # paired interarrival multipliers: sum_k (1-x_i) x_i^k + k x_i (1-x_i)^k
    eta1 = float(np.sum((1.0 - x1) * pow1 + k * x1 * pow2))
    eta2 = float(np.sum((1.0 - x2) * pow2 + k * x2 * pow1))
    expected_dt1 = eta1 / pp.lambda1
    expected_dt2 = eta2 / pp.lambda2

    gamma = float(np.sqrt(expected_dt1 * expected_dt2) / expected_overlap)
    tail_lin = _tail_bound_linear(r, n_trunc)
    tail_geo = _tail_bound_geom(r, n_trunc)
    bound = max(
        0.5 * rate_scale * 2.0 * tail_lin,
        (tail_geo + tail_lin) / pp.lambda1,
        (tail_geo + tail_lin) / pp.lambda2,
    )
    return TheoryReport(
        expected_overlap=float(expected_overlap),
        expected_dt1=float(expected_dt1),
        expected_dt2=float(expected_dt2),
        gamma=gamma,
        truncation_n=int(n_trunc),
        truncation_error_bound=float(bound),
    )


def estimate_rates(a: TickSeries, b: TickSeries) -> PoissonPair:
    """Maximum-likelihood Poisson rates: interarrival count over span."""
    rates = []
    for s in (a, b):
        if len(s) < 2 or s.span <= 0:
            raise InsufficientData("rate estimation needs at least 2 ticks spanning time")
        rates.append((len(s) - 1) / s.span)
    return PoissonPair(lambda1=rates[0], lambda2=rates[1])
