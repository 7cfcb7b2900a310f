"""The replicate engine behind every Monte Carlo loop, and the seeded outputs it must keep.

The SHA-256 digests in ``digests.json`` pin each study's output bit for bit,
so they pin its seed tree too: a replicate that drew from another seed, or a summary folded
in another order, changes a digest.
"""

import json
import multiprocessing
import os
import platform
import re
import resource
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tickcopula import (
    CalibrationFailure,
    CopulaModel,
    InsufficientData,
    InvalidParameter,
    NoOverlap,
    PoissonPair,
    SimSpec,
    build_curve,
    interval_misspecified,
    interval_quad,
    interval_quantile,
    kendall_tau,
    pair_previous_tick,
    pair_refresh_time,
    pair_ticks,
    param_of_tau,
    sample_uniform,
    TickCopulaError,
    calibration,
    simulate,
    synthesis,
    tables,
)
from tickcopula.calibration import _block_taus, _paired_rows, _uncorrected_taus
from tickcopula.synthesis import (
    _block_reps,
    _deal,
    _fork_map,
    _fork_workers,
    _NormalMargin,
    _run_cells,
    _simulate,
    _TMargin,
)
from tickcopula.tables import (
    STANDARD_NORMAL,
    coverage_study,
    gaussian_estimator_study,
    t_copula_margin_study,
)

from conftest import PINNED, HugeTails, InfiniteTail, digest, traced_peak

FAMILIES = ("gaussian", "student_t", "clayton", "gumbel")
COVERAGE_KEYS = ("family", "tau", "n_rep", "cp_quad", "len_quad", "cp_quantile",
                 "len_quantile", "cp_elliptical", "len_elliptical")


def _per_sample(estimate):
    """A block estimator that simulates each seed alone and applies ``estimate(sim)``."""
    return lambda spec, seeds: [estimate(simulate(replace(spec, seed=seed))) for seed in seeds]


def copula(family, tau=0.4):
    return param_of_tau(family, tau, df=5 if family == "student_t" else None)


class TestFrozenOutputs:
    def test_build_curve(self):
        curve = build_curve("clayton", PoissonPair(1, 1), STANDARD_NORMAL,
                            grid=np.linspace(0.02, 0.75, 5), n_rep=50, seed=7)
        key = "calibration/build_curve/clayton/n350"
        assert digest(curve.estimates) == PINNED[key], key

    @pytest.mark.parametrize("family", ["clayton", "gumbel"])
    def test_build_curve_straddling_the_dense_kendall_limit(self, family):
        # 600 ticks a side leave rows of about 400 returns within one replicate block,
        # on both sides of the 400-return limit of a former direct Kendall count
        curve = build_curve(family, PoissonPair(1, 1), STANDARD_NORMAL,
                            grid=np.linspace(0.02, 0.75, 5), n_rep=50, n_ticks=600, seed=7)
        key = f"calibration/build_curve/{family}/n600"
        assert digest(curve.estimates) == PINNED[key], key

    def test_gaussian_estimator_study(self):
        key = "tables/gaussian_estimator_study"
        assert digest(gaussian_estimator_study(n_rep=3)) == PINNED[key], key

    def test_t_copula_margin_study(self):
        key = "tables/t_copula_margin_study"
        assert digest(t_copula_margin_study(n_rep=3)) == PINNED[key], key

    def test_coverage_study(self):
        rows = coverage_study(families=("clayton",), taus=(0.3,), n_rep=3, curve_n_rep=50)
        key = "tables/coverage_study"
        assert digest([{k: row[k] for k in COVERAGE_KEYS} for row in rows]) == PINNED[key], key


class TestFrozenSimulator:
    """``simulate``, replicate blocks, ``sample_uniform`` and the pairings pinned bit for bit, below the studies.

    Both margins of the simulator are used, a scaled and shifted normal and a
    t; tau 0.5 gives Clayton and Gumbel exponents of -0.5, 0.5, 1 and 2.
    """

    MARGINS = (_NormalMargin(0.1, 2.0), _TMargin(5.0))

    @pytest.mark.parametrize("family, tau, mode", [
        ("gaussian", 0.4, "count"),
        ("gaussian", 0.4, "horizon"),
        ("student_t", 0.4, "count"),
        ("student_t", 0.4, "horizon"),
        ("clayton", 0.4, "count"),
        ("clayton", 0.4, "horizon"),
        ("clayton", 0.5, "count"),
        ("clayton", 0.5, "horizon"),
        ("gumbel", 0.4, "count"),
        ("gumbel", 0.4, "horizon"),
        ("gumbel", 0.5, "count"),
        ("gumbel", 0.5, "horizon"),
    ])
    def test_simulate(self, family, tau, mode):
        size = {"count": {"n1": 300, "n2": 200}, "horizon": {"horizon": 250.0}}[mode]
        sim = simulate(SimSpec(model=copula(family, tau), margins=self.MARGINS, lambda1=1.0, lambda2=2.0,
                               seed=11, **size))
        key = f"synthesis/simulate/{family}/{tau}/{mode}"
        assert digest(sim.a.times, sim.a.log_prices, sim.b.times, sim.b.log_prices) == PINNED[key], key

    PAIRINGS = {"pair_ticks": pair_ticks, "pair_previous_tick": lambda a, b: pair_previous_tick(a, b, 0.7)}

    @pytest.mark.parametrize("name", PAIRINGS)
    def test_pairings(self, name):
        sim = simulate(SimSpec(model=param_of_tau("clayton", 0.4), margins=self.MARGINS, lambda1=1.0,
                               lambda2=2.0, n1=2000, n2=3000, seed=5))
        p = self.PAIRINGS[name](sim.a, sim.b)
        key = f"pairing/{name}"
        assert digest(p.t1, p.x, p.t2, p.y) == PINNED[key], key

    BLOCK_SPEC = dict(margins=MARGINS, lambda1=1.0, lambda2=2.0, n1=300, n2=200)
    BLOCK_SEEDS = [[11, r] for r in range(8)]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_replicate_block(self, family):
        ev = _simulate(SimSpec(model=copula(family), **self.BLOCK_SPEC), self.BLOCK_SEEDS)
        key = f"synthesis/replicate_block/{family}"
        assert digest(ev.times, ev.to_b, ev.log_x, ev.log_y) == PINNED[key], key

    @pytest.mark.parametrize("family", FAMILIES)
    def test_block_rows_are_one_row_blocks(self, family):
        spec = SimSpec(model=copula(family), **self.BLOCK_SPEC)
        block = _simulate(spec, self.BLOCK_SEEDS)
        for r, seed in enumerate(self.BLOCK_SEEDS):
            one = _simulate(spec, [seed])
            for name in ("times", "to_b", "log_x", "log_y"):
                assert getattr(block, name)[r].tobytes() == getattr(one, name)[0].tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sample_uniform(self, family):
        uv = sample_uniform(copula(family), 1000, np.random.default_rng(3))
        key = f"copulas/sample_uniform/{family}"
        assert uv.shape == (1000, 2) and digest(uv) == PINNED[key], key


class TestStudyBlocks:
    """Table 3's and coverage's replicate blocks against a loop that simulates and pairs each seed alone."""

    SPECS = {
        "table3": SimSpec(model=CopulaModel("student_t", -0.4, df=8), margins=(_TMargin(5), _TMargin(7)),
                          lambda1=1.0, lambda2=2.0, n1=400, n2=600),
        "coverage": SimSpec(model=param_of_tau("clayton", 0.3), margins=STANDARD_NORMAL, lambda1=1.0,
                            lambda2=1.0, n1=350, n2=350),
    }
    SEEDS = [[5, r] for r in range(8)]

    @pytest.fixture(scope="class")
    def curve(self):
        return build_curve("clayton", PoissonPair(1, 1), STANDARD_NORMAL, grid=np.linspace(0.02, 0.75, 5),
                           n_rep=50, seed=0)

    @staticmethod
    def block(study, spec, seeds, curve):
        if study == "table3":
            return tables._corrected_rows(spec, seeds)
        return tables._coverage_bounds(spec, seeds, curve)

    @staticmethod
    def loop(study, spec, seeds, curve):
        out = []
        for seed in seeds:
            sim = simulate(replace(spec, seed=seed))
            paired = pair_ticks(sim.a, sim.b)
            if study == "table3":
                out.append(tables._uncorrected_and_corrected(paired))
            else:
                out.append(tables._interval_bounds(paired, kendall_tau(paired).tau_hat, curve))
        return out

    @staticmethod
    def rows_bytes(rows):
        return np.asarray(rows, dtype=float).tobytes()

    @pytest.mark.parametrize("replayed", [None, 2], ids=["all-in-block", "row-2-replayed"])
    @pytest.mark.parametrize("study", ["table3", "coverage"])
    def test_rows_equal_the_loop(self, study, replayed, curve, monkeypatch):
        spec = self.SPECS[study]
        expected = self.rows_bytes(self.loop(study, spec, self.SEEDS, curve))
        pair_rows = calibration._pair_rows

        def one_rejected(ev):
            pairs, n_pairs, ok = pair_rows(ev)
            ok[replayed] = False
            return pairs, n_pairs, ok

        if replayed is not None:
            monkeypatch.setattr(calibration, "_pair_rows", one_rejected)
        calls = []

        def spy(name):
            original = getattr(calibration, name)

            def recorded(*args):
                calls.append((name, args[0].seed if name == "simulate" else None))
                return original(*args)
            return recorded

        for name in ("simulate", "pair_ticks"):
            monkeypatch.setattr(calibration, name, spy(name))
        assert self.rows_bytes(self.block(study, spec, self.SEEDS, curve)) == expected
        # only a rejected row is simulated and paired alone
        assert calls == ([] if replayed is None else [("simulate", self.SEEDS[replayed]), ("pair_ticks", None)])

    def test_replayed_row_keeps_the_loops_error_order(self, monkeypatch):
        # row 1's estimate raises and row 3 is rejected with a replay that raises: a loop over
        # the seeds stops at row 1, so the block must too, and must not replay row 3 first
        spec, seeds = self.SPECS["table3"], self.SEEDS
        pair_rows, estimate = calibration._pair_rows, tables._uncorrected_and_corrected
        estimated = []

        def row_3_rejected(ev):
            pairs, n_pairs, ok = pair_rows(ev)
            ok[3] = False
            return pairs, n_pairs, ok

        def replay_fails(spec):
            raise NoOverlap(f"replayed seed {spec.seed}")

        def row_1_fails(paired):
            estimated.append(paired)
            if len(estimated) == 2:
                raise InsufficientData("row 1")
            return estimate(paired)

        monkeypatch.setattr(calibration, "_pair_rows", row_3_rejected)
        monkeypatch.setattr(calibration, "simulate", replay_fails)
        monkeypatch.setattr(tables, "_uncorrected_and_corrected", row_1_fails)
        with pytest.raises(InsufficientData, match="^row 1$"):
            tables._corrected_rows(spec, seeds)
        # with row 1 estimated, the replay is reached and raises in row 3's turn
        monkeypatch.setattr(tables, "_uncorrected_and_corrected", estimate)
        with pytest.raises(NoOverlap, match=f"^{re.escape(f'replayed seed {seeds[3]}')}$"):
            tables._corrected_rows(spec, seeds)

    @pytest.mark.parametrize("margins, n, expected", [
        # 2 ticks a side: disjoint supports, or too few pairs
        (STANDARD_NORMAL, 2, {"NoOverlap", "InsufficientData"}),
        ((InfiniteTail(), STANDARD_NORMAL[1]), 30, {"MalformedInput"}),
        ((STANDARD_NORMAL[0], HugeTails()), 30, {"InvalidParameter"}),
    ], ids=["tiny", "infinite-price", "infinite-return"])
    @pytest.mark.parametrize("study", ["table3", "coverage"])
    @pytest.mark.filterwarnings("error")
    def test_fails_as_the_loop(self, study, margins, n, expected, curve):
        """The block returns, or raises, what the loop does, at the same replicate."""
        spec = SimSpec(model=param_of_tau("clayton", 0.4), margins=margins, lambda1=1.0, lambda2=1.0, n1=n, n2=n)
        seen = set()
        for prefix in range(12):
            seeds = [[prefix, r] for r in range(10)]
            rows = []
            try:
                for seed in seeds:
                    rows += self.loop(study, spec, [seed], curve)
            except TickCopulaError as exc:
                seen.add(type(exc).__name__)
                for first in (seeds, seeds[: len(rows) + 1]):
                    with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                        self.block(study, spec, first, curve)
            if rows:
                assert self.rows_bytes(self.block(study, spec, seeds[: len(rows)], curve)) == self.rows_bytes(rows)
        assert expected <= seen

    @pytest.mark.parametrize("study", ["table3", "coverage"])
    def test_disjoint_supports_raise_no_overlap(self, study, curve):
        spec = SimSpec(model=param_of_tau("clayton", 0.4), margins=STANDARD_NORMAL, lambda1=1.0, lambda2=1.0,
                       n1=2, n2=2)
        # with 2 ticks a side, the supports are disjoint where the first two ticks are one asset's
        to_b = _simulate(spec, [[0, r] for r in range(100)]).to_b
        seed = [0, int(np.flatnonzero(to_b[:, 0] == to_b[:, 1])[0])]
        with pytest.raises(NoOverlap) as loop_error:
            self.loop(study, spec, [seed], curve)
        with pytest.raises(NoOverlap, match=f"^{re.escape(str(loop_error.value))}$"):
            self.block(study, spec, [seed], curve)


class TestBoundedMemory:
    """Traced peaks of the replicate path, which allocates each full-length array once."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sample_uniform_peak_follows_its_output(self, family):
        n = 10_000
        peak = traced_peak(sample_uniform, copula(family), n, np.random.default_rng(1))
        assert peak <= 1.6 * (16 * n)  # the (n, 2) float64 draws

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("size", [{"n1": 5000, "n2": 5000}, {"horizon": 5000.0}],
                             ids=["count", "horizon"])
    def test_simulate_peak_per_event(self, family, size):
        spec = SimSpec(model=copula(family), margins=TestFrozenSimulator.MARGINS, lambda1=1.0,
                       lambda2=1.0, seed=1, **size)
        sim = simulate(spec)
        assert traced_peak(simulate, spec) <= 64 * (len(sim.a) + len(sim.b))

    def test_replicate_block_peak_per_event(self):
        # the calibration default: 350 ticks per asset, one block of 50 replicates
        n, seeds = 350, [[0, 0, r] for r in range(_block_reps(700))]
        spec = SimSpec(model=copula("clayton"), margins=STANDARD_NORMAL, lambda1=1.0, lambda2=1.0,
                       n1=n, n2=n)
        # it traces about 49.2 B/event, at pricing; a pricing step that allocated where it now
        # works in place would add a float64 array of the block's shape, 8 B/event, and fail
        assert traced_peak(_uncorrected_taus, spec, seeds) <= 52 * len(seeds) * 2 * n

    def test_block_taus_peak_per_event(self):
        # the counting step of the calibration default block: 350 ticks per asset, 50 replicates
        n, seeds = 350, [[0, 0, r] for r in range(_block_reps(700))]
        spec = SimSpec(model=copula("clayton"), margins=STANDARD_NORMAL, lambda1=1.0, lambda2=1.0,
                       n1=n, n2=n)
        returns = _paired_rows(spec, seeds)[1]
        # it traces about 25 B/event, counting the differenced block in place; a copy of the
        # block's returns through a row mask adds about 11 B/event and fails
        assert traced_peak(_block_taus, *returns) <= 32 * len(seeds) * 2 * n

    @pytest.mark.parametrize("n", [350, 2000])
    def test_paired_rows_peak_per_event(self, n):
        # one block of Table 3's and coverage's pairs: 50 replicates at 350 ticks per asset, 8 at 2k
        seeds = [[0, 0, r] for r in range(_block_reps(2 * n))]
        spec = SimSpec(model=copula("clayton"), margins=STANDARD_NORMAL, lambda1=1.0, lambda2=1.0,
                       n1=n, n2=n)
        # with its rows consumed, it traces about 49.9 B/event at 350 ticks and 49.4 at 2k, at pricing;
        # a gather that copied a block column through an asset mask would add about 4 B/event and fail
        consumed = lambda spec, seeds: list(_paired_rows(spec, seeds)[0])
        assert traced_peak(consumed, spec, seeds) <= 52 * len(seeds) * 2 * n

    @pytest.mark.parametrize("pairing", [pair_ticks, lambda a, b: pair_previous_tick(a, b, 2.0)],
                             ids=["pair_ticks", "pair_previous_tick"])
    def test_pairing_peak_per_tick(self, pairing):
        sim = simulate(SimSpec(model=copula("gaussian"), margins=STANDARD_NORMAL, lambda1=1.0,
                               lambda2=1.0, n1=5000, n2=5000, seed=1))
        assert traced_peak(pairing, sim.a, sim.b) <= 40 * 10_000


class TestRunCells:
    CELLS = [SimSpec(model=CopulaModel("gaussian", 0.5), margins=STANDARD_NORMAL, lambda1=1.0, lambda2=2.0,
                     n1=30, n2=30),
             SimSpec(model=CopulaModel("clayton", 2.0), margins=(stats.t(5), stats.norm(0, 2)), lambda1=1.0,
                     lambda2=2.0, n1=40, n2=40)]

    def test_replicate_seeds_and_shape(self):
        def estimate(sim):
            return sim.a.log_prices[-1], sim.b.times[-1]

        out = _run_cells(self.CELLS, 3, [9, 4], _per_sample(estimate))
        assert out.shape == (2, 3, 2)
        for c, spec in enumerate(self.CELLS):
            for r in range(3):
                sim = simulate(replace(spec, seed=[9, 4, c, r]))
                assert out[c, r].tolist() == list(estimate(sim))

    def test_scalar_estimate_and_no_cells(self):
        out = _run_cells(self.CELLS, 2, [0], _per_sample(lambda sim: len(sim.a)))
        assert out.shape == (2, 2, 1) and (out[0] == 30).all() and (out[1] == 40).all()
        assert _run_cells([], 2, [0], len).shape == (0, 2, 0)

    def test_block_reps_follow_the_event_budget(self):
        # about 35k events a block: 50 replicates at 350 ticks per asset, 8 at 2k, 1 at 20k and 200k
        assert [_block_reps(2 * n) for n in (350, 2_000, 17_500, 17_501, 20_000, 200_000)] == [
            50, 8, 1, 1, 1, 1]

    def test_blocks_keep_the_seed_tree(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # the blocks record their sizes here
        b0, b1 = (_block_reps(spec.n1 + spec.n2) for spec in self.CELLS)
        n_rep = 3 * b1 + 1
        sizes = []

        def estimate(spec, seeds):
            sizes.append(len(seeds))
            return [[spec.n1, spec.lambda2, *seed] for seed in seeds]

        out = _run_cells(self.CELLS, n_rep, [9, 4], estimate)
        # the fewest blocks within each cell's budget, of sizes that differ by at most one: the
        # budgets differ and neither divides n_rep
        assert (b0, b1, n_rep) == (583, 437, 1312)
        assert sizes == [437, 437, 438] + [328] * 4
        for c, spec in enumerate(self.CELLS):
            assert out[c].tolist() == [[spec.n1, 2.0, 9, 4, c, r] for r in range(n_rep)]

    @pytest.mark.parametrize("n_rep", [1, 0, -1])
    def test_fewer_than_two_replicates_rejected(self, n_rep):
        with pytest.raises(InvalidParameter, match="n_rep"):
            _run_cells(self.CELLS, n_rep, [0], len)
        with pytest.raises(InvalidParameter, match="n_rep"):
            gaussian_estimator_study(n_rep=n_rep)
        with pytest.raises(InvalidParameter, match="n_rep"):
            t_copula_margin_study(n_rep=n_rep)


class TestForkPool:
    """``_run_cells`` runs the blocks in one share per CPU, with the one-CPU results and errors."""

    CELLS = TestRunCells.CELLS
    BLOCK = _block_reps(CELLS[0].n1 + CELLS[0].n2)  # replicates per block of cell 0

    def test_build_curve_matches_one_cpu(self, monkeypatch):
        def curve_bytes():
            return build_curve("clayton", PoissonPair(1, 1), STANDARD_NORMAL,
                               grid=np.linspace(0.02, 0.75, 5), n_rep=50, seed=7).estimates.tobytes()

        pooled = curve_bytes()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert curve_bytes() == pooled

    def test_host_without_fork_runs_in_process(self, monkeypatch):
        def outputs():
            blocks = [_run_cells(self.CELLS, 2 * self.BLOCK, [0], _uncorrected_taus, in_parent=in_parent)
                      for in_parent in (False, True)]
            curve = build_curve("clayton", PoissonPair(1, 1), STANDARD_NORMAL, grid=np.linspace(0.02, 0.75, 5),
                                n_rep=50, seed=7)
            return [b.tobytes() for b in blocks] + [curve.estimates.tobytes()]

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_cpu = outputs()
        asked, get_context = [], multiprocessing.get_context

        def spawn_only(method=None):
            asked.append(method)
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return get_context(method)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", spawn_only)
        assert outputs() == one_cpu
        assert "fork" not in asked

    @pytest.mark.parametrize("study", [
        lambda: t_copula_margin_study(n_rep=20),  # 3 cells of 3 blocks at 2000 ticks
        # 60 replicates at 350 ticks are 2 blocks of 30 in the row's one cell
        lambda: coverage_study(families=("clayton",), taus=(0.3,), n_rep=60, curve_n_rep=50),
    ], ids=["t_copula_margin_study", "coverage_study"])
    def test_study_matches_one_cpu(self, monkeypatch, study):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pooled = study()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert json.dumps(study()) == json.dumps(pooled)

    def test_earliest_failing_block_raises(self):
        def estimate(spec, seeds):
            c, r = seeds[0][-2:]
            if (c, r) == (0, self.BLOCK):
                time.sleep(0.2)  # fails after block (1, 0) in time, before it in block order
                raise InsufficientData(f"block {c}, {r}")
            if (c, r) == (1, 0):
                raise InvalidParameter(f"block {c}, {r}")
            return [0.0] * len(seeds)

        with pytest.raises(InsufficientData, match=f"^block 0, {self.BLOCK}$"):
            _run_cells(self.CELLS, 2 * self.BLOCK, [0], estimate)

    @pytest.mark.parametrize("later", ["same-share", "other-share"])
    def test_earliest_failing_block_raises_in_shares(self, monkeypatch, later):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        # cell 0 runs in 2 blocks and cell 1 in 3, dealt to two workers: blocks 0 and 3 to
        # the first and 1, 2 and 4 to the second. Block 1, (0, BLOCK), fails late in the
        # second share; block 2 fails in the same share, block 3 at once in the first
        n_rep = 2 * self.BLOCK
        k1 = -(-n_rep // _block_reps(self.CELLS[1].n1 + self.CELLS[1].n2))
        assert k1 == 3 and _deal([2, k1], 2) == [[0, 3], [1, 2, 4]]
        failing = {"same-share": (1, 0), "other-share": (1, n_rep // k1)}[later]

        def estimate(spec, seeds):
            c, r = seeds[0][-2:]
            if (c, r) == (0, self.BLOCK):
                time.sleep(0.2)
                raise InsufficientData(f"block {c}, {r}")
            if (c, r) == failing:
                raise InvalidParameter(f"block {c}, {r}")
            return [0.0] * len(seeds)

        with pytest.raises(InsufficientData, match=f"^block 0, {self.BLOCK}$"):
            _run_cells(self.CELLS, n_rep, [0], estimate)
        assert multiprocessing.active_children() == []

    def test_no_thread_in_the_parent(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def recorded_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = _run_cells(self.CELLS, 3 * self.BLOCK, [0], lambda spec, seeds: [os.getpid()] * len(seeds))
        assert os.getpid() not in out  # the blocks ran in workers
        assert started == []

    def test_no_worker_outlives_the_call(self):
        def estimate(spec, seeds):
            return [[os.getpid(), _fork_workers(99)] for _ in seeds]

        cpus = len(os.sched_getaffinity(0))
        out = _run_cells(self.CELLS, 5 * self.BLOCK, [0], estimate)
        assert multiprocessing.active_children() == []
        pids = set(out[..., 0].ravel())
        assert len(pids) <= cpus and (os.getpid() in pids) == (cpus == 1)
        assert (out[..., 1] == 1).all()  # a worker runs its own blocks in-process

        def fail(spec, seeds):
            raise InvalidParameter("every block fails")

        with pytest.raises(InvalidParameter, match="every block fails"):
            _run_cells(self.CELLS, 5 * self.BLOCK, [0], fail)
        assert multiprocessing.active_children() == []

    def test_gaussian_estimator_study_matches_one_cpu(self, monkeypatch):
        calls, fork_map = [], synthesis._fork_map

        def recorded(block, shares, **kwargs):
            calls.append((shares, kwargs))
            return fork_map(block, shares, **kwargs)

        monkeypatch.setattr(synthesis, "_fork_map", recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pooled = gaussian_estimator_study(n_rep=5)
        # 12 cells of 5 replicates are 16 blocks: each 5000-tick cell runs in two, 12 and 13,
        # 14 and 15 and so on, which fall on different shares
        assert calls == [([[0, 2, 4, 6, 8, 11, 12, 15], [1, 3, 5, 7, 9, 10, 13, 14]], {"in_parent": True})]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert json.dumps(gaussian_estimator_study(n_rep=5)) == json.dumps(pooled)
        assert calls[1:] == [([list(range(16))], {"in_parent": True})]  # one CPU runs the only share in-process

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_every_share_count_matches_one_cpu(self, monkeypatch, cpus):
        # Table 1's 16 blocks of 1 to 5 replicates, and 5 curve cells of 70 replicates at 600 ticks in
        # blocks of 23, 23 and 24. Three or four shares fork more workers than a 2-CPU host has:
        # slower, not wrong
        def outputs():
            curve = build_curve("clayton", PoissonPair(1, 1), STANDARD_NORMAL, grid=np.linspace(0.02, 0.75, 5),
                                n_rep=70, n_ticks=600, seed=7)
            return json.dumps(gaussian_estimator_study(n_rep=5)), curve.estimates.tobytes()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one_cpu = outputs()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert outputs() == one_cpu

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or len(os.sched_getaffinity(0)) < 2,
                        reason="the allocator settings are glibc's, and one CPU runs the blocks in-process")
    @pytest.mark.parametrize("n_ticks, n_cells, n_rep, max_faults", [
        (350, 12, 100, 9_000),  # the default curve's 24 blocks of 50
        (100_000, 2, 2, 14_000),  # 4 blocks of one replicate, each array above 128 KiB
    ], ids=["350-ticks", "100k-ticks"])
    def test_workers_keep_the_pages_they_free(self, monkeypatch, n_ticks, n_cells, n_rep, max_faults):
        # Two workers that keep their freed pages fault 3.8k and 7.9k pages in (4.9k and 9.1k
        # after the whole suite, whose heap the workers share copy-on-write). Where glibc trims
        # the heap after a block and mmaps each large array, they fault 13.8k-18.6k and 19.6k;
        # with the trim threshold alone raised, 3.9k and 18.6k-24.3k; with the mmap threshold
        # alone, 19.2k and 18.9k.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        specs = [SimSpec(model=param_of_tau("clayton", float(tau)), margins=STANDARD_NORMAL, lambda1=1.0,
                         lambda2=1.0, n1=n_ticks, n2=n_ticks) for tau in np.linspace(0.05, 0.7, n_cells)]
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        _run_cells(specs, n_rep, [0], _uncorrected_taus)
        assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before <= max_faults


class TestShares:
    """The deal of a cell's replicate blocks into one share per process, and the fork pool that runs the shares."""

    @settings(max_examples=200, deadline=None)
    @given(n_blocks=st.lists(st.integers(1, 6), max_size=12), workers=st.integers(1, 5))
    def test_deal_covers_every_task_once(self, n_blocks, workers):
        shares = _deal(n_blocks, workers)
        assert sorted(i for share in shares for i in share) == list(range(sum(n_blocks)))
        assert all(share == sorted(share) for share in shares)
        assert all(shares) and len(shares) <= workers
        # block b of cell c goes to share (c + b) % workers, so each share holds one residue
        owner = [(c + b) % workers for c, k in enumerate(n_blocks) for b in range(k)]
        assert all(len({owner[i] for i in share}) == 1 for share in shares)

    def test_table1_shares_carry_equal_work(self, monkeypatch):
        # at n_rep 5 each 5000-tick cell runs in blocks of 2 and 3 replicates. Dealt round-robin, the
        # first share took every 2-block and the second every 3-block: 28 and 32 replicates, 136k and
        # 176k events
        loads, fork_map = [], synthesis._fork_map

        def recorded(block, shares, **kwargs):
            for share in shares:
                rows = np.concatenate([block(i) for i in share])  # one row per replicate: its events first
                loads.append([len(rows), rows[:, 0].sum()])
            return fork_map(block, shares, **kwargs)

        monkeypatch.setattr(synthesis, "_fork_map", recorded)
        monkeypatch.setattr(tables, "_replicates", lambda spec, seeds: [[spec.n_events, 0.0, 0.0]] * len(seeds))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        gaussian_estimator_study(n_rep=5)
        assert loads == [[30, 156_000], [30, 156_000]]

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_equal_costs_split_evenly(self, workers):
        # a cell's blocks differ by at most one replicate, so they cost about the same; cells of
        # equally many blocks give each worker a share whose length is within one of the others'
        for n_blocks in ([3] * 8, [3] * 8 + [1]):
            shares = _deal(n_blocks, workers)
            n_tasks = sum(n_blocks)
            out = _fork_map(lambda i: (i, os.getpid()), shares)
            assert multiprocessing.active_children() == []
            assert [i for i, _ in out] == list(range(n_tasks))  # every task once, in task order
            pids = [pid for _, pid in out]
            ran = {pid: [i for i in range(n_tasks) if pids[i] == pid] for pid in dict.fromkeys(pids)}
            assert sorted(ran.values()) == sorted(shares) and len(shares) == workers
            assert os.getpid() not in pids
            assert max(map(len, shares)) - min(map(len, shares)) <= 1


class TestParentShare:
    """``in_parent=True``: the calling process runs the first share and forked workers run the others."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parent_runs_share_zero(self, monkeypatch, workers):
        started = []
        start = threading.Thread.start

        def recorded_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        # 7 and 8 tasks; in the second the first share does not hold task 0
        deals = {2: ([[0, 2, 5, 6], [1, 3, 4]], [[1, 2, 5, 6], [0, 3, 4, 7]]),
                 3: ([[0, 4, 5], [1, 3, 6], [2]], [[3, 4, 7], [0, 5], [1, 2, 6]])}[workers]
        for shares in deals:
            n_tasks = sum(map(len, shares))
            out = _fork_map(lambda i: (i, os.getpid()), shares, in_parent=True)
            assert multiprocessing.active_children() == []
            assert [i for i, _ in out] == list(range(n_tasks))
            pids = [pid for _, pid in out]
            ran = {pid: [i for i in range(n_tasks) if pids[i] == pid] for pid in dict.fromkeys(pids)}
            assert sorted(ran.values()) == sorted(shares)
            assert ran[os.getpid()] == shares[0]
        assert started == []

    @pytest.mark.parametrize("late", ["in-parent", "in-worker"])
    def test_lowest_failing_task_raises(self, late):
        # the parent runs tasks 0, 3 and 4, the workers 1, 5, 7 and 2, 6, 8. The failure at the
        # lower index comes late, after another share has failed at a higher one, and is its
        # share's third or second task
        low, high = {"in-parent": (4, 5), "in-worker": (6, 7)}[late]

        def block(i):
            if i == low:
                time.sleep(0.2)
                raise InsufficientData(f"task {i}")
            if i == high:
                raise InvalidParameter(f"task {i}")
            return i

        with pytest.raises(InsufficientData, match=f"^task {low}$"):
            _fork_map(block, [[0, 3, 4], [1, 5, 7], [2, 6, 8]], in_parent=True)
        assert multiprocessing.active_children() == []

    def test_keyboard_interrupt_in_the_parents_share(self):
        def block(i):
            if i == 0:  # the parent's first task
                raise KeyboardInterrupt
            time.sleep(30)  # the workers are still running when it propagates
            return i

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            _fork_map(block, [[0, 3], [1, 4], [2, 5]], in_parent=True)
        assert multiprocessing.active_children() == []
        assert time.perf_counter() - start < 10  # the workers were killed, not waited for


def test_coverage_rows_count_calibration_failures():
    """Each failure is a miss that adds no length, and is counted per method."""
    tau, n_rep, n_ticks, seed = 0.74, 20, 120, 1
    [row] = coverage_study(families=("clayton",), taus=(tau,), n_rep=n_rep, n_ticks=n_ticks,
                           curve_n_rep=50, seed=seed)
    curve = build_curve("clayton", PoissonPair(1.0, 1.0), STANDARD_NORMAL,
                        grid=np.linspace(0.02, 0.75, 12), n_rep=50, n_ticks=n_ticks, seed=[seed, 0])
    methods = {
        "quad": lambda sim, t: interval_quad(curve, t),
        "quantile": lambda sim, t: interval_quantile(curve, t),
        "elliptical": lambda sim, t: interval_misspecified(pair_refresh_time(sim.a, sim.b)),
    }
    hits, fails, lengths = dict.fromkeys(methods, 0), dict.fromkeys(methods, 0), dict.fromkeys(methods, 0.0)
    for r in range(n_rep):
        sim = simulate(SimSpec(model=param_of_tau("clayton", tau), margins=STANDARD_NORMAL,
                               lambda1=1.0, lambda2=1.0, n1=n_ticks, n2=n_ticks, seed=[seed, 17, 0, r]))
        tau_obs = kendall_tau(pair_ticks(sim.a, sim.b), basis="all-pairs").tau_hat
        for name, method in methods.items():
            try:
                iv = method(sim, tau_obs)
            except CalibrationFailure:
                fails[name] += 1
                continue
            hits[name] += iv.contains(tau)
            lengths[name] += iv.length
    assert fails["quantile"] > 0  # the case under test
    for name in methods:
        assert row[f"n_fail_{name}"] == fails[name]
        assert row[f"cp_{name}"] == hits[name] / n_rep
        assert row[f"len_{name}"] == lengths[name] / (n_rep - fails[name])
    assert list(row)[-3:] == ["n_fail_quad", "n_fail_quantile", "n_fail_elliptical"]
