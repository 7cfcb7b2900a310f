import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickcopula import (
    DegeneratePairing,
    InvalidParameter,
    NoOverlap,
    PairedSeries,
    configuration_labels,
    diagnostics,
    overlap_intervals,
    pair_previous_tick,
    pair_refresh_time,
    pair_ticks,
)
from tickcopula.pairing import _tick_pairs

from conftest import make_series, poisson_ticks, refresh_pairs_oracle


class TestPairTicks:
    def test_synchronous_series_pair_one_to_one(self):
        a = make_series([1, 2, 3, 4], [0.0, 0.1, 0.2, 0.3])
        b = make_series([1, 2, 3, 4], [1.0, 1.1, 1.2, 1.3])
        p = pair_ticks(a, b)
        assert len(p) == 4
        assert np.array_equal(p.t1, a.times)
        assert np.array_equal(p.t2, b.times)
        assert np.allclose(overlap_intervals(p), 1.0)
        d = diagnostics(p)
        assert d.loss1 == d.loss2 == 0.0

    def test_hand_trace_four_ticks(self):
        # oracle-computed with refresh_pairs_oracle: pairs (2,3), (5,4), (9,7)
        a = make_series([1, 2, 5, 9])
        b = make_series([3, 4, 6, 7])
        p = pair_ticks(a, b)
        assert np.array_equal(p.t1, [2, 5, 9])
        assert np.array_equal(p.t2, [3, 4, 7])
        oracle = refresh_pairs_oracle(a.times, b.times)
        assert np.array_equal(p.t1, a.times[[i for i, _ in oracle]])
        assert np.array_equal(p.t2, b.times[[j for _, j in oracle]])

    def test_disjoint_supports_raise(self):
        a = make_series([1, 3, 5])
        b = make_series([10, 11])
        with pytest.raises(NoOverlap):
            pair_ticks(a, b)

    def test_single_refresh_is_allowed_when_supports_touch(self):
        a = make_series([1, 3, 5])
        b = make_series([4, 11])
        p = pair_ticks(a, b)
        assert len(p) >= 1
        assert p.t1[0] == 3 and p.t2[0] == 4

    def test_matches_refresh_oracle_on_random_poisson_streams(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            lam1, lam2 = rng.uniform(0.5, 3.0, 2)
            a = poisson_ticks(rng, lam1, rng.integers(10, 120))
            b = poisson_ticks(rng, lam2, rng.integers(10, 120))
            try:
                p = pair_ticks(a, b)
            except NoOverlap:
                continue
            oracle = refresh_pairs_oracle(a.times, b.times)
            assert np.array_equal(p.t1, a.times[[i for i, _ in oracle]])
            assert np.array_equal(p.t2, b.times[[j for _, j in oracle]])

    def test_per_asset_times_strictly_increase(self, rng):
        for _ in range(50):
            a = poisson_ticks(rng, 1.0, 200)
            b = poisson_ticks(rng, 2.0, 300)
            p = pair_ticks(a, b)
            assert (np.diff(p.t1) > 0).all()
            assert (np.diff(p.t2) > 0).all()
            assert len(p) <= min(len(a), len(b))


@pytest.mark.parametrize("field", ["t1", "x", "t2", "y"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_paired_series_rejects_non_finite_values(field, value):
    columns = {name: np.arange(4.0) for name in ("t1", "x", "t2", "y")}
    columns[field][-1] = value
    with pytest.raises(InvalidParameter, match="non-finite"):
        PairedSeries(**columns, scheme="a0", n_raw1=4, n_raw2=4)


@pytest.mark.parametrize("meta, words", [
    ({"n_raw1": 0}, "n_raw1=0 is below the 12 distinct"),  # diagnostics would divide by zero
    ({"n_raw1": 5}, "n_raw1=5 is below"),  # loss1 would be -1.4
    ({"n_raw2": 11}, "n_raw2=11 is below"),
    ({"delta": np.nan}, "delta must be finite and positive"),
    ({"delta": np.inf}, "delta must be finite and positive"),
    ({"delta": 0.0}, "delta must be finite and positive"),
    ({"delta": -2.5}, "delta must be finite and positive"),
    # precedence: delta, then the timestamps' order, then the counts
    ({"delta": np.nan, "t1": np.arange(12.0)[::-1], "n_raw1": 0}, "delta must be"),
    ({"t1": np.arange(12.0)[::-1], "n_raw1": 0}, "nondecreasing"),
])
def test_paired_series_rejects_inconsistent_metadata(meta, words):
    t = np.arange(12.0)
    fields = dict(t1=t, x=np.sin(t), t2=t, y=np.cos(t), scheme="a0", n_raw1=12, n_raw2=12)
    PairedSeries(**fields)  # counts equal to the distinct timestamps are accepted
    with pytest.raises(InvalidParameter, match=words):
        PairedSeries(**{**fields, **meta})


class TestRefreshTime:
    def test_prices_match_tick_pairing_and_times_collapse(self, rng):
        a = poisson_ticks(rng, 1.0, 300)
        b = poisson_ticks(rng, 1.0, 300)
        p = pair_ticks(a, b)
        r = pair_refresh_time(a, b)
        assert np.array_equal(p.x, r.x)
        assert np.array_equal(p.y, r.y)
        assert np.array_equal(r.t1, r.t2)
        assert np.array_equal(r.t1, np.maximum(p.t1, p.t2))
        # synchronized stamps imply w == 1 exactly
        assert diagnostics(r).w == pytest.approx(1.0)


class TestPreviousTick:
    def test_synchronous_equal_spacing_matches_tick_pairing(self):
        a = make_series([1, 2, 3, 4])
        b = make_series([1, 2, 3, 4], [2.0, 2.2, 2.1, 2.5])
        p0 = pair_ticks(a, b)
        pt = pair_previous_tick(a, b, delta=1.0)
        assert np.array_equal(pt.t1, p0.t1)
        assert np.array_equal(pt.t2, p0.t2)

    def test_hand_trace_grid(self):
        # grid 2,4,6,8: grid point 2 skipped (asset 2 not yet trading),
        # then pairs (2,4), (5,6), (5,7); no full duplicates to collapse
        a = make_series([1, 2, 5, 9])
        b = make_series([3, 4, 6, 7])
        pt = pair_previous_tick(a, b, delta=2.0)
        assert np.array_equal(pt.t1, [2, 5, 5])
        assert np.array_equal(pt.t2, [4, 6, 7])

    def test_delta_larger_than_session_gives_last_ticks(self):
        a = make_series([1, 2, 5, 9])
        b = make_series([3, 4, 6, 7])
        pt = pair_previous_tick(a, b, delta=50.0)
        assert len(pt) == 1
        assert pt.t1[0] == 9 and pt.t2[0] == 7

    def test_full_duplicates_collapse(self):
        a = make_series([1.0, 10.0])
        b = make_series([1.5, 10.5])
        pt = pair_previous_tick(a, b, delta=2.0)
        # grid 2,4,6,8,10: points 4..8 all resample (1.0, 1.5)
        assert len(pt) == 2

    def test_invalid_delta(self):
        a = make_series([1, 2, 3])
        b = make_series([1, 2, 3])
        with pytest.raises(InvalidParameter):
            pair_previous_tick(a, b, delta=0.0)
        with pytest.raises(InvalidParameter, match="too small"):  # session / delta overflows
            pair_previous_tick(a, b, delta=5e-324)

    def test_repetition_flagged_degenerate_by_diagnostics(self):
        a = make_series([1.0, 6.0, 20.0])
        b = make_series([0.5, 1.5, 2.5, 3.5, 19.0])
        pt = pair_previous_tick(a, b, delta=1.0)
        assert (np.diff(pt.t1) == 0).any()  # asset 1 stalls on the grid
        with pytest.raises(DegeneratePairing):
            diagnostics(pt)


class TestOverlapAndConfigs:
    def test_figure_ordering_config1(self):
        # t1_prev < t2_prev < t2_cur < t1_cur: overlap is asset 2's interarrival
        p = pair_ticks(make_series([1, 4]), make_series([2, 3]))
        assert configuration_labels(p).tolist() == [1]
        assert np.allclose(overlap_intervals(p), [3 - 2])

    def test_all_four_configurations_by_construction(self):
        cases = {
            1: ([1, 4], [2, 3]),
            2: ([2, 4], [1, 3]),
            3: ([1, 3], [2, 4]),
            4: ([2, 3], [1, 4]),
        }
        for label, (t1, t2) in cases.items():
            p = pair_ticks(make_series(t1), make_series(t2))
            assert configuration_labels(p).tolist() == [label], f"config {label}"

    def test_minmax_formula_equals_four_case_definition(self, rng):
        # brute-force the case analysis on random strictly valid orderings
        for _ in range(500):
            # draw each asset's prev/cur so that overlap stays positive
            t_prev = np.sort(rng.uniform(0, 1, 2))
            t_cur = t_prev.max() + np.sort(rng.uniform(0.01, 1, 2))
            t1_prev, t2_prev = t_prev[0], t_prev[1]
            if rng.random() < 0.5:
                t1_prev, t2_prev = t2_prev, t1_prev
            t1_cur, t2_cur = t_cur[0], t_cur[1]
            if rng.random() < 0.5:
                t1_cur, t2_cur = t2_cur, t1_cur
            p = pair_ticks(
                make_series([t1_prev, t1_cur]), make_series([t2_prev, t2_cur])
            )
            label = configuration_labels(p)[0]
            overlap = overlap_intervals(p)[0]
            four_case = {
                1: t2_cur - t2_prev,
                2: t2_cur - t1_prev,
                3: t1_cur - t2_prev,
                4: t1_cur - t1_prev,
            }[label]
            assert overlap == pytest.approx(four_case)
            assert overlap == pytest.approx(
                min(t1_cur, t2_cur) - max(t1_prev, t2_prev)
            )

    def test_overlap_bounded_by_both_interarrivals(self, rng):
        for _ in range(50):
            a = poisson_ticks(rng, 1.0, 300)
            b = poisson_ticks(rng, 1.5, 400)
            p = pair_ticks(a, b)
            ov = overlap_intervals(p)
            assert (ov > 0).all()
            assert (ov <= np.diff(p.t1) + 1e-12).all()
            assert (ov <= np.diff(p.t2) + 1e-12).all()

    def test_correction_factor_at_least_one(self, rng):
        for _ in range(50):
            a = poisson_ticks(rng, 1.0, 400)
            b = poisson_ticks(rng, 2.0, 500)
            d = diagnostics(pair_ticks(a, b))
            assert d.w >= 1.0

    def test_loss_band_for_equal_rate_streams(self, rng):
        for _ in range(10):
            a = poisson_ticks(rng, 1.0, 1500)
            b = poisson_ticks(rng, 1.0, 1500)
            d = diagnostics(pair_ticks(a, b))
            assert 0.25 <= d.loss1 <= 0.45
            assert 0.25 <= d.loss2 <= 0.45

    def test_ties_resolve_to_config_one(self):
        p = pair_ticks(make_series([1, 2, 3]), make_series([1, 2, 3]))
        assert configuration_labels(p).tolist() == [1, 1]

    @pytest.mark.parametrize("t1, t2, label", [
        ([1, 3], [1, 4], 3),
        ([1, 4], [1, 3], 1),
        ([2, 4], [1, 4], 2),
        ([1, 4], [2, 4], 1),
    ], ids=["start-tie-asset1-ends-first", "start-tie-asset2-ends-first",
            "end-tie-asset1-starts-last", "end-tie-asset2-starts-last"])
    def test_half_ties(self, t1, t2, label):
        # a tie counts as asset 2 later at the start and as asset 2 earlier at the end
        labels = configuration_labels(pair_ticks(make_series(t1), make_series(t2)))
        assert labels.dtype == np.int64
        assert labels.tolist() == [label]


def prev_tick_full_grid_oracle(a, b, delta):
    """Previous-tick pairs from the whole grid delta, 2*delta, ... up to the session end."""
    end = max(a.times[-1], b.times[-1])
    grid = np.arange(delta, end * (1 + 1e-12), delta)
    if grid.size == 0:
        grid = np.array([end])
    i1 = np.searchsorted(a.times, grid, side="right") - 1
    i2 = np.searchsorted(b.times, grid, side="right") - 1
    ok = (i1 >= 0) & (i2 >= 0)
    pairs = sorted(set(zip(i1[ok].tolist(), i2[ok].tolist())))
    return a.times[[p[0] for p in pairs]], b.times[[p[1] for p in pairs]]


class TestPreviousTickGridAnchor:
    def test_matches_full_grid_on_random_offsets(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            delta = float(10 ** rng.uniform(-3.5, 1.0))
            # the oracle builds the whole grid: at most ~1e6 points here
            offset = float(rng.choice([0.0, rng.uniform(0, 3e4), 34200.0])) if delta > 0.05 else 0.0
            a = poisson_ticks(rng, rng.uniform(0.2, 3.0), int(rng.integers(2, 60)))
            b = poisson_ticks(rng, rng.uniform(0.2, 3.0), int(rng.integers(2, 60)))
            a = make_series(a.times + offset + rng.uniform(0, 5), a.log_prices)
            b = make_series(b.times + offset, b.log_prices)
            if rng.random() < 0.3:
                # ticks on (or an ulp off) grid points, and equal across assets
                t1, t2 = (np.unique(np.round(s.times / delta) * delta) for s in (a, b))
                if t1.size < 2 or t2.size < 2:
                    continue
                a, b = make_series(t1), make_series(t2)
            try:
                pt = pair_previous_tick(a, b, delta)
            except NoOverlap:
                continue
            t1, t2 = prev_tick_full_grid_oracle(a, b, delta)
            assert np.array_equal(pt.t1, t1) and np.array_equal(pt.t2, t2)

    def test_memory_tracks_ticks_not_clock(self, rng):
        # a grid from t = 0 holds 3.4M points at this 34 200 s offset and
        # delta = 0.01 (a ~90 MB traced peak with its index arrays) for 1000
        # ticks over ~500 s
        a = poisson_ticks(rng, 2.0, 1000)
        b = poisson_ticks(rng, 2.0, 1000)
        a = make_series(a.times + 34200.0, a.log_prices)
        b = make_series(b.times + 34200.0, b.log_prices)
        tracemalloc.start()
        try:
            pt = pair_previous_tick(a, b, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pt) > 500
        assert peak < 5e6


@st.composite
def tick_streams(draw):
    """Two tick series and a grid width; on an integer grid, cross-asset ties are common."""
    on_grid = draw(st.booleans())
    series = []
    for _ in range(2):
        n = draw(st.integers(2, 40))
        gaps = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n)))
        start = draw(st.floats(0.0, 10.0))
        if on_grid:
            gaps, start = np.ceil(gaps), float(np.floor(start))
        series.append(make_series(start + np.cumsum(gaps)))
    return series[0], series[1], draw(st.floats(0.1, 20.0))


@settings(max_examples=300, deadline=None)
@given(tick_streams())
def test_pairing_invariants(streams):
    a, b, delta = streams
    if a.times[0] > b.times[-1] or b.times[0] > a.times[-1]:
        for pair in (pair_ticks, pair_refresh_time, lambda a, b: pair_previous_tick(a, b, delta)):
            with pytest.raises(NoOverlap, match="time supports are disjoint"):
                pair(a, b)
        return
    a0 = pair_ticks(a, b)
    oracle = refresh_pairs_oracle(a.times, b.times)
    assert np.array_equal(a0.t1, a.times[[i for i, _ in oracle]])
    assert np.array_equal(a0.t2, b.times[[j for _, j in oracle]])
    refresh = pair_refresh_time(a, b)
    assert np.array_equal(refresh.x, a0.x) and np.array_equal(refresh.y, a0.y)
    stamps = np.maximum(a0.t1, a0.t2)
    assert np.array_equal(refresh.t1, stamps) and np.array_equal(refresh.t2, stamps)
    try:
        prev = pair_previous_tick(a, b, delta)
    except NoOverlap:  # no grid point saw a tick of both assets
        prev = None
    if len(a0) >= 2:
        assert (overlap_intervals(a0) > 0).all()
        assert diagnostics(a0).w >= 1.0
        assert diagnostics(refresh).w == 1.0
    for p in (a0, refresh, prev):
        if p is None or len(p) < 2:
            continue
        try:
            d = diagnostics(p)
        except DegeneratePairing:
            assert p is prev  # only previous-tick pairs may repeat a tick
            continue
        assert 0.0 <= d.loss1 <= 1.0 and 0.0 <= d.loss2 <= 1.0


@st.composite
def merged_rows(draw):
    """Rows of two assets' merged tick streams, the same tick counts in every row.

    On an integer grid cross-asset ties are common; a tied pair is merged in
    either order, as a simulated stream may hold it.
    """
    n1, n2 = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    from_a = np.r_[np.ones(n1, dtype=bool), np.zeros(n2, dtype=bool)]
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            grid = np.arange(2 * (n1 + n2) + 1, dtype=float)
            ta, tb = (np.sort(rng.choice(grid, n, replace=False)) for n in (n1, n2))
        else:
            ta, tb = np.sort(rng.random(n1) * 100), np.sort(rng.random(n2) * 100)
        order = np.lexsort((from_a if draw(st.booleans()) else ~from_a, np.r_[ta, tb]))
        rows.append((np.r_[ta, tb][order], from_a[order], ta, tb))
    return rows


@settings(max_examples=300, deadline=None)
@given(merged_rows())
def test_block_pairing_matches_oracle_row_by_row(rows):
    t, from_a, ta, tb = zip(*rows)
    row, i1, i2 = _tick_pairs(np.array(t), np.array(from_a))
    assert np.array_equal(row, np.sort(row))
    assert row.dtype == i1.dtype == i2.dtype == np.intp  # no tick count left in a narrow dtype
    for r in range(len(rows)):
        pairs = list(zip(i1[row == r].tolist(), i2[row == r].tolist()))
        assert pairs == [(int(i), int(j)) for i, j in refresh_pairs_oracle(ta[r], tb[r])]
