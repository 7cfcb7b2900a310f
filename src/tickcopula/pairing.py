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

The schemes share one core: ``_merged`` checks that the time supports overlap
and merges the ticks into one stream, each scheme picks the stream positions
that close its pairs, ``_last_ticks`` maps those to each asset's last tick at
or before them, and ``_paired`` builds the ``PairedSeries``.

``diagnostics`` computes the per-pair overlap intervals, the four-way
ordering configuration of consecutive pairs, interarrival means and the
fraction of raw ticks lost to the synchronization.
"""

from __future__ import annotations

import math
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
    data-loss fraction stays computable after pairing; neither may be below
    the distinct timestamps of its column. ``delta``, the previous-tick grid
    width, is ``None`` or finite and positive.
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
        if self.delta is not None and not (math.isfinite(self.delta) and self.delta > 0):
            raise InvalidParameter(f"delta must be finite and positive, got {self.delta}")
        # prev-tick may legitimately repeat a tick; backward jumps are never valid
        if (t1[1:] < t1[:-1]).any() or (t2[1:] < t2[:-1]).any():
            raise InvalidParameter("paired timestamps must be nondecreasing")
        for key, t in (("n_raw1", t1), ("n_raw2", t2)):
            count, distinct = getattr(self, key), _n_distinct(t)
            if count < distinct:  # a loss fraction would be negative or divide by zero
                raise InvalidParameter(f"{key}={count} is below the {distinct} distinct "
                                       f"timestamps of its column")
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


def _merged(a: TickSeries, b: TickSeries) -> tuple[np.ndarray, np.ndarray]:
    """Both series' tick times in one nondecreasing array, and the mask of asset 1's ticks in it."""
    _check_overlap(a, b)  # NoOverlap if the time supports are disjoint
    t = np.concatenate([a.times, b.times])
    order = np.argsort(t, kind="stable")  # a merge of two sorted runs
    t = t[order]
    return t, order < len(a)


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
    label = np.empty((k, m + 1), dtype=np.int8)  # 1: asset 1, 2: asset 2, 0: joint
    label[:, 0] = 0  # the sentinels
    np.subtract(2, from_a, out=label[:, 1:], dtype=np.int8)
    tied = t[:, 1:] == t[:, :-1]
    label[:, 2:][tied] = 0  # a tick tied with the one before it joins it ...
    keep = np.ones((k, m + 1), dtype=bool)
    keep[:, 1:-1] = ~tied  # ... which is then dropped
    event = np.flatnonzero(keep)  # kept events, as flat indices into the (k, m + 1) layout
    label = label[keep]
    del tied, keep
    starts = np.flatnonzero(np.r_[True, (label[1:] != label[:-1]) | (label[1:] == 0)])
    event = event[starts]  # the first event of each run
    run_joint = label[starts] == 0
    run_len = np.diff(starts, append=label.size)
    del label, starts
    skip = np.r_[~run_joint[1:] & (run_joint[:-1] | (run_len[:-1] == 1)), False]
    del run_joint, run_len
    run = np.arange(skip.size)
    run -= np.maximum.accumulate(np.where(np.r_[True, ~skip[:-1]], run, 0))  # runs since the last r+1 step
    row, col = np.divmod(event[run % 2 == 0], m + 1)
    del event, run
    refresh = col > 0
    row, col = row[refresh], col[refresh]
    return (row, *_last_ticks(from_a, row, col - 1))  # col counts the sentinel


def _last_ticks(from_a: np.ndarray, row: np.ndarray | int,
                pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each asset's last tick at or before merged position ``pos`` of row ``row``.

    ``from_a`` marks asset 1's ticks. Returns ``(i1, i2)``, each tick's index within
    its own asset, -1 where that asset has none.
    """
    # asset 1's ticks up to pos, counted in the narrowest unsigned dtype that holds
    # the row length, then cast back to intp, so that n_a - 1 cannot wrap
    n_a = np.cumsum(from_a, axis=1, dtype=np.min_scalar_type(from_a.shape[1]))[row, pos].astype(np.intp)
    return n_a - 1, pos - n_a


def _paired(a: TickSeries, b: TickSeries, i1: np.ndarray, i2: np.ndarray, scheme: str,
            delta: float | None = None) -> PairedSeries:
    """The pairs of tick ``i1`` of ``a`` with tick ``i2`` of ``b``, counting the source ticks."""
    return PairedSeries(t1=a.times[i1], x=a.log_prices[i1], t2=b.times[i2], y=b.log_prices[i2],
                        scheme=scheme, n_raw1=len(a), n_raw2=len(b), delta=delta)


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
    t, from_a = _merged(a, b)
    _, i1, i2 = _tick_pairs(t[None], from_a[None])
    del t, from_a
    return _paired(a, b, i1, i2, SCHEME_PAIRED)


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
    t, from_a = _merged(a, b)
    end = t[-1]
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
            k = t - delta
            k /= delta
            np.ceil(k, out=k)
            np.maximum(k, 0.0, out=k)
            # undo the division's rounding, one step either way: up where
            # delta + k * delta < t, down where k >= 1 and delta + (k - 1) * delta >= t
            point = k * delta
            point += delta
            k += point < t
            np.subtract(k, 1, out=point)
            point *= delta
            point += delta
            k -= (k >= 1) & (point >= t)
            del point
    del t
    # the sampled pair changes only at the first grid point after a tick, so
    # only those points are evaluated: the work grows with the ticks, not with
    # session / delta. Such a point closes the run of ticks sharing its k, at
    # the run's last merged position, and samples each asset's last tick there
    closes = np.flatnonzero(np.append(k[1:] != k[:-1], True) & (k < n))
    del k
    i1, i2 = _last_ticks(from_a[None], 0, closes)
    del from_a, closes
    ok = (i1 >= 0) & (i2 >= 0)
    i1, i2 = i1[ok], i2[ok]
    if i1.size == 0:
        raise NoOverlap("no grid point has an eligible tick in both assets")
    return _paired(a, b, i1, i2, SCHEME_PREV_TICK, float(delta))


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
    reverse, labels 2 and 3 the two staggered arrangements. A tied start
    counts as asset 2 later and a tied end as asset 2 earlier, so full ties
    give label 1 (ties have probability zero under continuous arrival
    models). The int64 labels are built in place as ``1 + [asset 1 later at
    the start] + 2 [asset 1 earlier at the end]``.
    """
    labels = (p.t1[1:] < p.t2[1:]).astype(np.int64)  # asset 1 earlier at the end
    labels *= 2
    labels += p.t1[:-1] > p.t2[:-1]  # asset 1 later at the start
    labels += 1
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
