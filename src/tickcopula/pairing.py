"""Synchronization schemes for two nonsynchronous tick series.

Three schemes are provided:

``pair_ticks``
    Matches ticks across the two assets while *retaining their original
    transaction times*. The matched timestamps coincide with those produced
    by refresh-time sampling, so no interpolation or uprooting takes place;
    each pair is made of one actual tick of each asset.
``pair_refresh_time``
    Classic refresh-time synchronization: the ``pair_ticks`` pairs
    restamped, both members at the refresh time (the later of the two
    ticks), as if observed simultaneously.
``pair_previous_tick``
    Fixed grid of width ``delta``; each grid point samples the last tick of
    each asset at or before it. Pairs that repeat both ticks are collapsed;
    pairs repeating a single tick are kept (their return is zero), which is
    what makes this scheme degrade fastest at high sampling frequency.

``diagnostics`` computes the per-pair overlap intervals, the four-way
ordering configuration of consecutive pairs, interarrival means and the
fraction of raw ticks lost to the synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegeneratePairing, InsufficientData, InvalidParameter, NoOverlap
from .market_data import TickSeries

SCHEME_PAIRED = "a0"
SCHEME_REFRESH = "refresh"
SCHEME_PREV_TICK = "prev-tick"


@dataclass(frozen=True)
class PairedSeries:
    """n synchronized pairs of (timestamp, log-price) for two assets.

    ``t1``/``x`` belong to the first asset, ``t2``/``y`` to the second.
    ``n_raw1``/``n_raw2`` record the tick counts of the source series so the
    data-loss fraction stays computable after pairing.
    """

    t1: np.ndarray
    x: np.ndarray
    t2: np.ndarray
    y: np.ndarray
    scheme: str
    n_raw1: int
    n_raw2: int
    delta: float | None = None

    def __post_init__(self):
        t1 = np.asarray(self.t1, dtype=float)
        t2 = np.asarray(self.t2, dtype=float)
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if not (t1.shape == t2.shape == x.shape == y.shape) or t1.ndim != 1:
            raise InvalidParameter("paired arrays must be 1-d and equally long")
        if t1.size == 0:
            raise InsufficientData("empty pairing")
        if not all(np.isfinite(v).all() for v in (t1, x, t2, y)):
            raise InvalidParameter("paired series contains non-finite values")
        # prev-tick may legitimately repeat a tick; backward jumps are never valid
        if (np.diff(t1) < 0).any() or (np.diff(t2) < 0).any():
            raise InvalidParameter("paired timestamps must be nondecreasing")
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.t1.size

    def returns(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-asset log-returns between consecutive pairs (length n-1)."""
        return np.diff(self.x), np.diff(self.y)


@dataclass(frozen=True)
class PairDiagnostics:
    """Overlap intervals, configurations and interarrival summaries.

    ``overlaps[i]`` is the time span common to the two interarrivals behind
    return pair ``i+1``; ``configs[i]`` labels the ordering of the four
    timestamps involved (1..4). ``loss1``/``loss2`` are the fractions of raw
    ticks of each asset that ended up in no pair.
    """

    overlaps: np.ndarray
    configs: np.ndarray
    m1: float
    m2: float
    m_overlap: float
    loss1: float
    loss2: float

    @property
    def w(self) -> float:
        """Empirical correction factor sqrt(m1*m2)/m_overlap."""
        return float(np.sqrt(self.m1 * self.m2) / self.m_overlap)


def _check_overlap(a: TickSeries, b: TickSeries) -> None:
    if a.times[0] > b.times[-1] or b.times[0] > a.times[-1]:
        raise NoOverlap(
            f"time supports are disjoint: [{a.times[0]}, {a.times[-1]}] vs "
            f"[{b.times[0]}, {b.times[-1]}]"
        )


def _tick_pairs(t: np.ndarray, from_a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tick-retaining pairs of each row of merged tick streams.

    A row of ``t`` holds both assets' tick times in nondecreasing order, and
    ``from_a`` marks asset 1's ticks. Returns ``(row, i1, i2)``: per pair, in
    row order, its row and the indices of its two ticks within their own
    asset. The pairs are those of the refresh-time walk: the later of the two
    pending ticks closes a pair, the other asset contributes its last tick
    not after it, and equal timestamps pair together.

    The walk runs on *runs*: maximal stretches of one asset's ticks, where
    an equal-time tick of each asset is one *joint* event and a run of its
    own. A refresh falls on the first event of a run. From run r the next is
    r+2 when run r+1 is single-asset and run r is joint or one tick long (it
    left one asset without a pending tick), else r+1. So every run after an
    r+1 step is a refresh, and from there refreshes alternate through the
    following stretch of r+2 steps. A joint sentinel before each row starts
    its walk; the pair it closes is dropped.
    """
    k, m = t.shape
    label = np.full((k, m + 1), 2, dtype=np.int8)  # 1: asset 1, 2: asset 2, 0: joint
    label[:, 1:][from_a] = 1
    label[:, 0] = 0  # the sentinels
    tied = t[:, 1:] == t[:, :-1]
    label[:, 2:][tied] = 0  # a tick tied with the one before it joins it ...
    keep = np.ones((k, m + 1), dtype=bool)
    keep[:, 1:-1] = ~tied  # ... which is then dropped
    event = np.flatnonzero(keep)  # kept events, as flat indices into the (k, m + 1) layout
    label = label[keep]
    starts = np.flatnonzero(np.r_[True, (label[1:] != label[:-1]) | (label[1:] == 0)])
    run_joint = label[starts] == 0
    run_len = np.diff(np.r_[starts, label.size])
    skip = np.r_[~run_joint[1:] & (run_joint[:-1] | (run_len[:-1] == 1)), False]
    run = np.arange(starts.size)
    anchor = np.maximum.accumulate(np.where(np.r_[True, ~skip[:-1]], run, 0))
    row, col = np.divmod(event[starts], m + 1)
    refresh = ((run - anchor) % 2 == 0) & (col > 0)
    row, col = row[refresh], col[refresh]
    # ticks of asset 1 among the row's first ``col`` ticks; the rest are asset 2's
    n_a = np.cumsum(from_a, axis=1)[row, col - 1]
    return row, n_a - 1, col - n_a - 1


def pair_ticks(a: TickSeries, b: TickSeries) -> PairedSeries:
    """Pair the two series keeping original transaction times.

    The pair timestamps are exactly the refresh-time sample points'
    previous ticks, so the price pairs agree with refresh-time sampling
    while the per-asset timestamps stay strictly increasing actual ticks.

    Raises
    ------
    NoOverlap
        If the series' time supports are disjoint.
    """
    _check_overlap(a, b)
    times = np.concatenate([a.times, b.times])
    order = np.argsort(times, kind="stable")  # a merge of two sorted runs
    _, i1, i2 = _tick_pairs(times[order][None], (order < len(a))[None])
    return PairedSeries(
        t1=a.times[i1],
        x=a.log_prices[i1],
        t2=b.times[i2],
        y=b.log_prices[i2],
        scheme=SCHEME_PAIRED,
        n_raw1=len(a),
        n_raw2=len(b),
    )


def _refresh_stamped(p: PairedSeries) -> PairedSeries:
    """The tick-retaining pairs ``p`` with both members stamped at the refresh time."""
    v = np.maximum(p.t1, p.t2)
    return replace(p, t1=v, t2=v.copy(), scheme=SCHEME_REFRESH)


def pair_refresh_time(a: TickSeries, b: TickSeries) -> PairedSeries:
    """Refresh-time synchronization: both assets stamped at the refresh time.

    Price pairs are identical to :func:`pair_ticks`; the timestamps are the
    refresh times themselves, which is what a correlation estimator sees when
    it treats the sample as genuinely synchronous.
    """
    return _refresh_stamped(pair_ticks(a, b))


def pair_previous_tick(a: TickSeries, b: TickSeries, delta: float) -> PairedSeries:
    """Previous-tick synchronization on the fixed grid ``delta, 2*delta, ...``.

    Grid points before either asset has traded are skipped. Consecutive grid
    points sampling the same two ticks are collapsed; if only one asset moved
    the pair is kept and contributes a zero return for the stale asset. If
    ``delta`` exceeds the whole session a single pair of last ticks results.
    """
    if not np.isfinite(delta) or delta <= 0:
        raise InvalidParameter(f"delta must be positive, got {delta}")
    _check_overlap(a, b)
    end = max(a.times[-1], b.times[-1])
    times = np.concatenate([a.times, b.times])
    order = np.argsort(times, kind="stable")  # a merge of two sorted runs
    t = times[order]
    # grid point k is delta + k * delta, as in np.arange(delta, stop, delta);
    # indices stay floats, since they pass 2**63 for a tiny delta
    with np.errstate(over="ignore"):
        n = np.ceil((end * (1 + 1e-12) - delta) / delta)  # np.arange's length
        if n <= 0:  # delta exceeds the session: one grid point, at its end
            k, n = np.zeros(t.size), 1
        elif not np.isfinite(n):
            raise InvalidParameter(f"delta {delta} is too small for a session ending at {end}")
        else:
            # index of the first grid point at or after each tick
            k = np.maximum(np.ceil((t - delta) / delta), 0.0)
            # undo the division's rounding, one step either way
            k += delta + k * delta < t
            k -= (k >= 1) & (delta + (k - 1) * delta >= t)
    # the sampled pair changes only at the first grid point after a tick, so
    # only those points are evaluated: the work grows with the ticks, not with
    # session / delta. Such a point closes the run of ticks sharing its k and
    # samples every tick up to there, n_a of them from asset a, the rest from b
    closes = np.append(k[1:] != k[:-1], True) & (k < n)
    n_a = np.cumsum(order < len(a))[closes]
    i1 = n_a - 1
    i2 = np.flatnonzero(closes) - n_a
    ok = (i1 >= 0) & (i2 >= 0)
    i1, i2 = i1[ok], i2[ok]
    if i1.size == 0:
        raise NoOverlap("no grid point has an eligible tick in both assets")
    return PairedSeries(
        t1=a.times[i1],
        x=a.log_prices[i1],
        t2=b.times[i2],
        y=b.log_prices[i2],
        scheme=SCHEME_PREV_TICK,
        n_raw1=len(a),
        n_raw2=len(b),
        delta=float(delta),
    )


def overlap_intervals(p: PairedSeries) -> np.ndarray:
    """Per-pair overlap intervals min(t1_i, t2_i) - max(t1_{i-1}, t2_{i-1})."""
    return np.minimum(p.t1[1:], p.t2[1:]) - np.maximum(p.t1[:-1], p.t2[:-1])


def configuration_labels(p: PairedSeries) -> np.ndarray:
    """Four-way ordering label of each consecutive pair of pairs.

    The label is determined by which asset's tick comes later at the start
    and at the end of the overlap:

    ========  ==========================  =========================
    label     start of overlap            end of overlap
    ========  ==========================  =========================
    1         asset 2 later               asset 2 earlier
    2         asset 1 later               asset 2 earlier
    3         asset 2 later               asset 1 earlier
    4         asset 1 later               asset 1 earlier
    ========  ==========================  =========================

    Label 1 means asset 2's interarrival sits inside asset 1's, label 4 the
    reverse, labels 2 and 3 the two staggered arrangements. Timestamp ties
    resolve to label 1 deterministically (they have probability zero under
    continuous arrival models).
    """
    s_prev = p.t1[:-1] - p.t2[:-1]
    s_cur = p.t1[1:] - p.t2[1:]
    start_asset1_later = s_prev > 0  # ties -> asset 2 treated as later
    end_asset1_earlier = s_cur < 0  # ties -> asset 2 treated as earlier
    labels = np.ones(s_prev.size, dtype=np.int64)
    labels[start_asset1_later & ~end_asset1_earlier] = 2
    labels[~start_asset1_later & end_asset1_earlier] = 3
    labels[start_asset1_later & end_asset1_earlier] = 4
    return labels


def _n_distinct(t: np.ndarray) -> int:
    """The number of distinct values of a nonempty nondecreasing array, without a sort."""
    return 1 + int(np.count_nonzero(t[1:] != t[:-1]))


def diagnostics(p: PairedSeries) -> PairDiagnostics:
    """Overlaps, configurations, interarrival means and loss fractions.

    Raises
    ------
    DegeneratePairing
        If any overlap interval is non-positive (e.g. previous-tick output
        with repeated ticks).
    InsufficientData
        If fewer than two pairs are available.
    """
    if len(p) < 2:
        raise InsufficientData("diagnostics need at least 2 pairs")
    overlaps = overlap_intervals(p)
    if (overlaps <= 0).any():
        bad = int(np.argmax(overlaps <= 0)) + 1
        raise DegeneratePairing(f"non-positive overlap at pair {bad}")
    configs = configuration_labels(p)
    m1 = float(np.diff(p.t1).mean())
    m2 = float(np.diff(p.t2).mean())
    m_overlap = float(overlaps.mean())
    loss1 = 1.0 - _n_distinct(p.t1) / p.n_raw1
    loss2 = 1.0 - _n_distinct(p.t2) / p.n_raw2
    return PairDiagnostics(
        overlaps=overlaps,
        configs=configs,
        m1=m1,
        m2=m2,
        m_overlap=m_overlap,
        loss1=float(loss1),
        loss2=float(loss2),
    )
