"""Shared helpers: independent oracles and data builders for the test suite."""

import numpy as np
import pytest
from scipy import stats

from tickcopula import TickSeries


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def std_normal_margins():
    return (stats.norm(0.0, 1.0), stats.norm(0.0, 1.0))
