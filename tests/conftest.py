"""Shared helpers: independent oracles and data builders for the test suite."""

import numpy as np
import pytest
from scipy import stats

from tickcopula import TickSeries


def make_series(times, log_prices=None, asset_id="test"):
    times = np.asarray(times, dtype=float)
    if log_prices is None:
        log_prices = np.linspace(0.0, 1.0, times.size)
    return TickSeries(times, np.asarray(log_prices, dtype=float), asset_id=asset_id)


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


def poisson_ticks(rng, lam, n, asset_id="sim"):
    """A Poisson tick series with iid standard normal log-price increments."""
    gaps = rng.exponential(1.0 / lam, n)
    times = np.cumsum(gaps)
    prices = np.cumsum(np.sqrt(gaps) * rng.standard_normal(n))
    return TickSeries(times, prices, asset_id=asset_id)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def std_normal_margins():
    return (stats.norm(0.0, 1.0), stats.norm(0.0, 1.0))
