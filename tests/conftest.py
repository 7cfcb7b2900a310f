"""Shared helpers: independent oracles and data builders for the test suite.

``dependence_checks`` Monte-Carlo-verifies the sign identities behind the
underestimation of concordance on nonsynchronous pairs: conditioning the
common-interval sign product on a disagreeing contamination sign leaves its
expectation unchanged, while adding the contamination shrinks the absolute
expectation without flipping its sign.

``PINNED`` maps the name of every seeded output frozen bit for bit to the
SHA-256 that :func:`digest` gives it. A change that moves an output edits
its key in ``digests.json``, and the JSON diff is the list of what moved.
"""

import hashlib
import json
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from tickcopula import CopulaModel, InvalidParameter, TickSeries, kendall_tau, pair_ticks, sample_uniform

PINNED = json.loads(Path(__file__).with_name("digests.json").read_text())


def digest(*parts) -> str:
    """SHA-256 of ``parts`` in order: bytes as they are, str as UTF-8, arrays and numpy scalars by their
    C-order bytes, anything else as sorted-key JSON."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, str):
            p = p.encode()
        elif isinstance(p, (np.ndarray, np.generic)):
            p = np.ascontiguousarray(p).tobytes()
        elif not isinstance(p, bytes):
            p = json.dumps(p, sort_keys=True).encode()
        h.update(p)
    return h.hexdigest()


def traced_peak(fn, *args):
    """Peak bytes tracemalloc sees allocated during ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def rows_apart_in_se(x, y) -> float:
    """How many standard errors of their difference the means of ``x`` and ``y`` lie apart."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    se = np.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
    return float(abs(x.mean() - y.mean()) / se)


class InfiniteTail:
    """Normal quantiles, but infinite above 0.99: a price, paired or not, turns non-finite."""

    def ppf(self, u):
        return np.where(u > 0.99, np.inf, stats.norm.ppf(u))


class HugeTails:
    """Innovations of +-1.2e308 in the tails: prices stay finite, a return between them may not."""

    def ppf(self, u):
        return np.where(np.abs(u - 0.5) > 0.45, np.sign(u - 0.5) * 1.2e308, 0.0)


def uncorrected_tau(sim) -> float:
    """The all-pairs Kendall tau of one simulated sample's ``pair_ticks``: what the block estimator counts."""
    return kendall_tau(pair_ticks(sim.a, sim.b), basis="all-pairs").tau_hat


def gaussian_tau_oracle(rho, t1, t2) -> float:
    """E[tau_hat] of tick-retaining pairs at times ``t1``/``t2``, given the stream, under a Gaussian copula.

    With the Gaussian copula of correlation ``rho`` and zero-mean normal
    margins, the two log-price lattices are Brownian motions of correlation
    ``rho`` sampled at the event times. Asset 1's i-th return spans
    ``l1_i``, asset 2's ``l2_i``, and ``o_ij`` is the overlap of asset 1's
    i-th return interval with asset 2's j-th. The differences of returns i
    and j are then bivariate normal, of correlation
    ``rho * c_ij / sqrt(v_ij * w_ij)`` with ``c_ij = o_ii + o_jj - o_ij - o_ji``,
    ``v_ij = l1_i + l1_j`` and ``w_ij = l2_i + l2_j``, so the pair is
    concordant in mean ``(2 / pi) * arcsin`` of it. Every pair i < j is
    evaluated, in memory quadratic in the pairs.
    """
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    l1, l2 = np.diff(t1), np.diff(t2)
    o = np.minimum(t1[1:, None], t2[None, 1:]) - np.maximum(t1[:-1, None], t2[None, :-1])
    np.maximum(o, 0.0, out=o)
    own = np.diag(o)
    c = own[:, None] + own[None, :] - o - o.T
    corr = rho * c / np.sqrt((l1[:, None] + l1[None, :]) * (l2[:, None] + l2[None, :]))
    return float(np.mean(2.0 / np.pi * np.arcsin(corr[np.triu_indices(l1.size, k=1)])))


def invert_fit_two_roots(curve, value) -> float:
    """Solve the curve's fitted quadratic for ``value``: both roots, keeping the one nearest the span.

    The root is clipped to the span. A linear fit is solved directly; a
    negative discriminant gives the span end the curve approaches.
    """
    a, b, c = curve.quad_coeffs
    lo, hi = curve.span
    if abs(c) < 1e-12:
        root = (value - a) / b
    else:
        disc = b * b - 4.0 * c * (a - value)
        if disc < 0:
            return hi if c < 0 else lo
        sq = float(np.sqrt(disc))
        roots = ((-b + sq) / (2.0 * c), (-b - sq) / (2.0 * c))
        root = min(roots, key=lambda r: max(lo - r, r - hi, 0.0))
    return float(np.clip(root, lo, hi))


def make_series(times, log_prices=None):
    times = np.asarray(times, dtype=float)
    if log_prices is None:
        log_prices = np.linspace(0.0, 1.0, times.size)
    return TickSeries(times, np.asarray(log_prices, dtype=float))


def kendall_tau_brute(rx, ry) -> float:
    """O(n^2) sign-sum definition of Kendall's tau with tied pairs dropped."""
    rx = np.asarray(rx, dtype=float)
    ry = np.asarray(ry, dtype=float)
    sx = np.sign(rx[:, None] - rx[None, :])
    sy = np.sign(ry[:, None] - ry[None, :])
    prod = sx * sy
    iu = np.triu_indices(rx.size, k=1)
    vals = prod[iu]
    untied = (sx[iu] != 0) & (sy[iu] != 0)
    return float(vals[untied].sum() / untied.sum())


def refresh_pairs_oracle(t1, t2):
    """Independent refresh-time pairing: explicit refresh loop via searchsorted.

    Structurally different from the production run-based pairing: it materializes
    each refresh time as the max of the two next arrivals and looks up the
    previous ticks from scratch.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    pairs = []
    v = max(t1[0], t2[0])
    while True:
        i = int(np.searchsorted(t1, v, side="right")) - 1
        j = int(np.searchsorted(t2, v, side="right")) - 1
        pairs.append((i, j))
        nxt1 = t1[i + 1] if i + 1 < t1.size else None
        nxt2 = t2[j + 1] if j + 1 < t2.size else None
        if nxt1 is None or nxt2 is None:
            break
        v = max(nxt1, nxt2)
    return pairs


def poisson_ticks(rng, lam, n):
    """A Poisson tick series with iid standard normal log-price increments."""
    gaps = rng.exponential(1.0 / lam, n)
    times = np.cumsum(gaps)
    prices = np.cumsum(np.sqrt(gaps) * rng.standard_normal(n))
    return TickSeries(times, prices)


def seeded_day():
    """Two seeded Poisson tick series whose a0 pairing has 4731 pairs."""
    rng = np.random.default_rng(20261018)
    return poisson_ticks(rng, 1.0, 7000), poisson_ticks(rng, 1.5, 9000)


@dataclass(frozen=True)
class DependenceCheckReport:
    """Monte Carlo comparison of concordance with and without contamination.

    ``sign_common`` estimates E(sign A) where A is the sign product over the
    common (overlapping) intervals of two same-configuration pairs;
    ``sign_observed`` estimates E(sign(A + B)) where B carries the
    non-overlapping contamination. ``conditional_diff`` is
    E(sign A | sign A != sign B) - E(sign A), zero in expectation.
    ``identity_lhs/rhs`` are the two sides of the decomposition
    E(sign(A+B)) = E(sign A | sign A != sign B, |A|>|B|) * P(|A|>|B|).
    """

    config: int
    n_mc: int
    sign_common: float
    sign_common_se: float
    sign_observed: float
    sign_observed_se: float
    conditional_diff: float
    conditional_diff_se: float
    identity_lhs: float
    identity_rhs: float
    identity_se: float

    @property
    def underestimates(self) -> bool:
        return abs(self.sign_observed) < abs(self.sign_common)

    @property
    def same_sign(self) -> bool:
        return np.sign(self.sign_observed) == np.sign(self.sign_common)


def dependence_checks(
    config: int,
    model: CopulaModel,
    margins,
    n_mc: int,
    seed=None,
) -> DependenceCheckReport:
    """Simulate two same-configuration pairs and test the sign identities.

    The geometry: two non-overlapping common intervals of standard
    exponential lengths u1, u2, padded on each side by standard exponential
    lengths eps_i, eta_i during which only the enveloping asset trades.
    ``config`` 4 nests asset 1's interarrival inside asset 2's; ``config`` 1
    is the mirror image. Margins must be a pair of symmetric zero-mean
    distributions (objects with a ``ppf``).
    """
    if config not in (1, 4):
        raise InvalidParameter("config must be 1 or 4 (the nested configurations)")
    if n_mc < 10_000:
        raise InvalidParameter(f"n_mc must be at least 10000, got {n_mc}")
    rng = np.random.default_rng(seed)
    u = rng.exponential(1.0, (n_mc, 2))
    eps = rng.exponential(1.0, (n_mc, 2))
    eta = rng.exponential(1.0, (n_mc, 2))

    uv1 = sample_uniform(model, n_mc, rng)
    uv2 = sample_uniform(model, n_mc, rng)
    m1, m2 = margins
    x1, y1 = m1.ppf(uv1[:, 0]), m2.ppf(uv1[:, 1])
    x2, y2 = m1.ppf(uv2[:, 0]), m2.ppf(uv2[:, 1])

    dx = np.sqrt(u[:, 0]) * x1 - np.sqrt(u[:, 1]) * x2
    dy = np.sqrt(u[:, 0]) * y1 - np.sqrt(u[:, 1]) * y2
    a = dx * dy

    # contamination from the enveloping asset's extra increments, times the
    # other asset's return: asset 2 envelops in config 4, asset 1 in config 1
    extra_margin, other = (m2, dx) if config == 4 else (m1, dy)
    extra = (
        np.sqrt(eps[:, 0]) * extra_margin.ppf(rng.random(n_mc))
        + np.sqrt(eta[:, 0]) * extra_margin.ppf(rng.random(n_mc))
        - np.sqrt(eps[:, 1]) * extra_margin.ppf(rng.random(n_mc))
        - np.sqrt(eta[:, 1]) * extra_margin.ppf(rng.random(n_mc))
    )
    b = other * extra

    sign_a = np.sign(a)
    sign_b = np.sign(b)
    sign_ab = np.sign(a + b)

    def mean_se(arr):
        return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))

    sa_mean, sa_se = mean_se(sign_a)
    sab_mean, sab_se = mean_se(sign_ab)
    mixed = sign_a != sign_b
    cond_mean, cond_se = mean_se(sign_a[mixed])
    dominant = mixed & (np.abs(a) > np.abs(b))
    p_dom = float((np.abs(a) > np.abs(b)).mean())
    p_dom_se = float(np.sqrt(p_dom * (1.0 - p_dom) / n_mc))
    dom_mean, dom_se = mean_se(sign_a[dominant])
    identity_rhs = dom_mean * p_dom
    identity_se = float(
        np.sqrt(sab_se**2 + (p_dom * dom_se) ** 2 + (dom_mean * p_dom_se) ** 2)
    )
    return DependenceCheckReport(
        config=config,
        n_mc=n_mc,
        sign_common=sa_mean,
        sign_common_se=sa_se,
        sign_observed=sab_mean,
        sign_observed_se=sab_se,
        conditional_diff=cond_mean - sa_mean,
        conditional_diff_se=float(np.sqrt(cond_se**2 + sa_se**2)),
        identity_lhs=sab_mean,
        identity_rhs=float(identity_rhs),
        identity_se=identity_se,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def std_normal_margins():
    return (stats.norm(0.0, 1.0), stats.norm(0.0, 1.0))
