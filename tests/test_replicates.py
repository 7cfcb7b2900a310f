"""The replicate engine behind every Monte Carlo loop, and the seeded outputs it must keep.

The SHA-256 digests pin each study's output bit for bit, so they pin its
seed tree too: a replicate that drew from another seed, or a summary folded
in another order, changes a digest.
"""

import hashlib
import json
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from scipy import stats

from tickcopula import (
    CalibrationFailure,
    CopulaModel,
    InsufficientData,
    InvalidParameter,
    PoissonPair,
    SimSpec,
    build_curve,
    interval_misspecified,
    interval_quad,
    interval_quantile,
    kendall_tau,
    pair_refresh_time,
    pair_ticks,
    param_of_tau,
    simulate,
)
from tickcopula import synthesis
from tickcopula.synthesis import _block_reps, _fork_workers, _per_sample, _run_cells, _shares
from tickcopula.tables import (
    STANDARD_NORMAL,
    coverage_study,
    gaussian_estimator_study,
    t_copula_margin_study,
)

COVERAGE_KEYS = ("family", "tau", "n_rep", "cp_quad", "len_quad", "cp_quantile",
                 "len_quantile", "cp_elliptical", "len_elliptical")


def sha256(payload) -> str:
    if isinstance(payload, bytes):
        return hashlib.sha256(payload).hexdigest()
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestFrozenOutputs:
    def test_build_curve(self):
        curve = build_curve("clayton", PoissonPair(1, 1), STANDARD_NORMAL,
                            grid=np.linspace(0.02, 0.75, 5), n_rep=50, seed=7)
        assert sha256(curve.estimates.tobytes()) == (
            "bc88fcd4fdd65984c1b6e9ffb1cad794b84cf72168967c9d15acb135c015f35d"
        )

    @pytest.mark.parametrize("family, digest", [
        ("clayton", "f31f2fa55c5882c30e4633a6dd1c827d7f26eae691f668f8d99943c24808e053"),
        ("gumbel", "509b2216515894bcf63502930da23a82b55d206199c372f55bbb1ca0f3fc2990"),
    ])
    def test_build_curve_straddling_the_dense_kendall_limit(self, family, digest):
        # 600 ticks a side leave rows of about 400 returns, counted on both sides of
        # estimators._DENSE_MAX_RETURNS within one replicate block
        curve = build_curve(family, PoissonPair(1, 1), STANDARD_NORMAL,
                            grid=np.linspace(0.02, 0.75, 5), n_rep=50, n_ticks=600, seed=7)
        assert sha256(curve.estimates.tobytes()) == digest

    def test_gaussian_estimator_study(self):
        assert sha256(gaussian_estimator_study(n_rep=3)) == (
            "f66a33db3a3144a1b3dda8f9d9e158bb395207551634fe9a4aea63171ecb1607"
        )

    def test_t_copula_margin_study(self):
        assert sha256(t_copula_margin_study(n_rep=3)) == (
            "2b2b133917d26c902519b7d22604830fab8e711034d5ffc96f8511af9213c617"
        )

    def test_coverage_study(self):
        rows = coverage_study(families=("clayton",), taus=(0.3,), n_rep=3, curve_n_rep=50)
        assert sha256([{k: row[k] for k in COVERAGE_KEYS} for row in rows]) == (
            "aac0c9c428c9ef78ba193c89d16bc88bcc48e87a1c2b0b4855470a55df686b92"
        )


class TestRunCells:
    CELLS = [(CopulaModel("gaussian", 0.5), STANDARD_NORMAL, 30),
             (CopulaModel("clayton", 2.0), (stats.t(5), stats.norm(0, 2)), 40)]

    def test_replicate_seeds_and_shape(self):
        def estimate(sim):
            return sim.a.log_prices[-1], sim.b.times[-1]

        out = _run_cells(self.CELLS, 3, [9, 4], _per_sample(estimate), lambda1=1.0, lambda2=2.0)
        assert out.shape == (2, 3, 2)
        for c, (model, margins, n) in enumerate(self.CELLS):
            for r in range(3):
                sim = simulate(SimSpec(model=model, margins=margins, lambda1=1.0, lambda2=2.0,
                                       n1=n, n2=n, seed=[9, 4, c, r]))
                assert out[c, r].tolist() == list(estimate(sim))

    def test_scalar_estimate_and_no_cells(self):
        out = _run_cells(self.CELLS, 2, [0], _per_sample(lambda sim: len(sim.a)), lambda1=1.0, lambda2=1.0)
        assert out.shape == (2, 2, 1) and (out[0] == 30).all() and (out[1] == 40).all()
        assert _run_cells([], 2, [0], len, lambda1=1.0, lambda2=1.0).shape == (0, 2, 0)

    def test_block_reps_follow_the_event_budget(self):
        # about 35k events a block: 50 replicates at 350 ticks per asset, 8 at 2k, 1 at 20k and 200k
        assert [_block_reps(2 * n) for n in (350, 2_000, 17_500, 17_501, 20_000, 200_000)] == [
            50, 8, 1, 1, 1, 1]

    def test_blocks_keep_the_seed_tree(self):
        b0, b1 = (_block_reps(2 * n) for _, _, n in self.CELLS)
        n_rep = 2 * b0 + 3
        assert b1 < b0 and n_rep % b1  # the cells' blocks differ, and each ends short
        sizes = []

        def estimate(spec, seeds):
            sizes.append(len(seeds))
            return [[spec.n1, spec.lambda2, *seed] for seed in seeds]

        out = _run_cells(self.CELLS, n_rep, [9, 4], estimate, lambda1=1.0, lambda2=2.0)
        assert sizes == [b0, b0, 3] + [b1] * (n_rep // b1) + [n_rep % b1]
        for c, (_, _, n) in enumerate(self.CELLS):
            assert out[c].tolist() == [[n, 2.0, 9, 4, c, r] for r in range(n_rep)]

    @pytest.mark.parametrize("n_rep", [1, 0, -1])
    def test_fewer_than_two_replicates_rejected(self, n_rep):
        with pytest.raises(InvalidParameter, match="n_rep"):
            _run_cells(self.CELLS, n_rep, [0], len, lambda1=1.0, lambda2=1.0)
        with pytest.raises(InvalidParameter, match="n_rep"):
            gaussian_estimator_study(n_rep=n_rep)
        with pytest.raises(InvalidParameter, match="n_rep"):
            t_copula_margin_study(n_rep=n_rep)


class TestForkPool:
    """``pool=True`` runs the blocks in forked workers, with the in-process results and errors."""

    CELLS = TestRunCells.CELLS
    BLOCK = _block_reps(2 * CELLS[0][2])  # replicates per block of cell 0

    def test_build_curve_matches_one_cpu(self, monkeypatch):
        def curve_bytes():
            return build_curve("clayton", PoissonPair(1, 1), STANDARD_NORMAL,
                               grid=np.linspace(0.02, 0.75, 5), n_rep=50, seed=7).estimates.tobytes()

        pooled = curve_bytes()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert curve_bytes() == pooled

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
            _run_cells(self.CELLS, 2 * self.BLOCK, [0], estimate, lambda1=1.0, lambda2=1.0, pool=True)

    @pytest.mark.parametrize("later", ["same-share", "other-share"])
    def test_earliest_failing_block_raises_in_shares(self, monkeypatch, later):
        shares, cut = synthesis._shares, []

        def recorded_shares(costs, workers):
            cut.extend(shares(costs, workers))
            return cut

        monkeypatch.setattr(synthesis, "_shares", recorded_shares)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        # cell 0 runs in 4 blocks and cell 1 in 6, of about equal cost but the last: two
        # workers take blocks 0-4 and 5-9. Block 1, (0, BLOCK), fails late in the first share;
        # block 2 fails in the same share, block 9 at once in the other
        n_rep, b1 = 4 * self.BLOCK, _block_reps(2 * self.CELLS[1][2])
        failing = {"same-share": (0, 2 * self.BLOCK), "other-share": (1, (n_rep - 1) // b1 * b1)}[later]

        def estimate(spec, seeds):
            c, r = seeds[0][-2:]
            if (c, r) == (0, self.BLOCK):
                time.sleep(0.2)
                raise InsufficientData(f"block {c}, {r}")
            if (c, r) == failing:
                raise InvalidParameter(f"block {c}, {r}")
            return [0.0] * len(seeds)

        with pytest.raises(InsufficientData, match=f"^block 0, {self.BLOCK}$"):
            _run_cells(self.CELLS, n_rep, [0], estimate, lambda1=1.0, lambda2=1.0, pool=True)
        assert cut == [range(0, 5), range(5, 10)]
        assert multiprocessing.active_children() == []

    def test_no_thread_in_the_parent(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def recorded_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = _run_cells(self.CELLS, 3 * self.BLOCK, [0], lambda spec, seeds: [os.getpid()] * len(seeds),
                         lambda1=1.0, lambda2=1.0, pool=True)
        assert os.getpid() not in out  # the blocks ran in workers
        assert started == []

    def test_no_worker_outlives_the_call(self):
        def estimate(spec, seeds):
            return [[os.getpid(), _fork_workers(99)] for _ in seeds]

        cpus = len(os.sched_getaffinity(0))
        out = _run_cells(self.CELLS, 5 * self.BLOCK, [0], estimate, lambda1=1.0, lambda2=1.0, pool=True)
        assert multiprocessing.active_children() == []
        pids = set(out[..., 0].ravel())
        assert len(pids) <= cpus and (os.getpid() in pids) == (cpus == 1)
        assert (out[..., 1] == 1).all()  # a worker runs its own blocks in-process

        def fail(spec, seeds):
            raise InvalidParameter("every block fails")

        with pytest.raises(InvalidParameter, match="every block fails"):
            _run_cells(self.CELLS, 5 * self.BLOCK, [0], fail, lambda1=1.0, lambda2=1.0, pool=True)
        assert multiprocessing.active_children() == []


class TestShares:
    """The fork pool's cut of the blocks into one contiguous share per worker."""

    @staticmethod
    def check(costs, workers):
        shares = _shares(costs, workers)
        assert 1 <= len(shares) <= workers
        assert [i for share in shares for i in share] == list(range(len(costs)))  # contiguous, in order
        assert all(len(share) for share in shares)
        return [sum(costs[i] for i in share) for share in shares]

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_equal_costs_split_evenly(self, workers):
        assert self.check([5] * 24, workers) == [5 * 24 // workers] * workers

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_each_share_within_one_task_of_an_equal_part(self, workers):
        for seed in range(20):
            costs = np.random.default_rng(seed).integers(1, 1000, 40).tolist()
            shares = self.check(costs, workers)
            assert len(shares) == workers
            assert max(abs(cost - sum(costs) / workers) for cost in shares) <= max(costs)

    def test_a_dominant_task_leaves_no_empty_share(self):
        assert self.check([1, 1, 100, 1, 1], 4) == [2, 100, 2]
        assert self.check([100, 1], 2) == [100, 1]
        assert self.check([7], 2) == [7]


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
