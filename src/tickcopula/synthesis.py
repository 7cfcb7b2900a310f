"""Nonsynchronous two-asset data generator.

The construction: a single combined stream of Poisson event times carries
jointly drawn return innovations; each innovation pair is scaled by the
square root of its interarrival so that log-price increments have variance
proportional to elapsed time (stationary independent increments). The events
are then split between the two assets - each asset keeps the log-price of
the common lattice at its own event times only - producing two tick series
that never share a timestamp but ride on dependent price paths.

With target counts ``n1``/``n2`` the split is an exact random partition
(n2 indices drawn without replacement); with a time ``horizon`` each event
is assigned to asset 2 independently with probability lambda2/(lambda1+
lambda2), which is the standard marking of a merged Poisson stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import special

from .copulas import CopulaModel, sample_uniform, tau_of
from .errors import CalibrationFailure, InsufficientData, InvalidParameter
from .market_data import TickSeries

_LOG_P0 = float(np.log(100.0))  # arbitrary initial price level
RNG_NAME = "numpy-PCG64"  # the bit generator behind np.random.default_rng, recorded in artifacts
# A float64 array holds at most intp.max // 8 values, and numpy raises a bare
# ValueError past that; half of it leaves room for a Poisson count above its
# mean. Generator.poisson's own limit on its mean (~9.2e18) is higher still.
_MAX_EVENTS = np.iinfo(np.intp).max // 16


@dataclass(frozen=True)
class _NormalMargin:
    """N(loc, scale^2), with the quantile arithmetic of scipy's frozen ``norm``."""

    loc: float
    scale: float

    def ppf(self, q):
        return special.ndtri(q) * self.scale + self.loc


@dataclass(frozen=True)
class _TMargin:
    """Student t with ``df`` degrees of freedom, with the quantiles of scipy's frozen ``t``."""

    df: float

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        # stdtrit maps q = 0 to +inf; the quantile there is -inf
        return np.where(q == 0.0, -np.inf, special.stdtrit(self.df, q))[()]


@dataclass(frozen=True)
class SimSpec:
    """Simulation recipe: copula, margins, arrival rates and size.

    Exactly one of (``horizon``) or (``n1`` and ``n2``) must be given.
    ``margins`` is a pair of objects with a vectorized ``ppf`` (quantile
    function) applied to the copula draws: a frozen scipy distribution, or
    the light normal and t margins the CLI and the studies build.
    """

    model: CopulaModel
    margins: Sequence
    lambda1: float
    lambda2: float
    horizon: float | None = None
    n1: int | None = None
    n2: int | None = None
    seed: object = None

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "horizon"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0):
                raise InvalidParameter(f"{name} must be positive and finite, got {value}")
        count_mode = self.n1 is not None or self.n2 is not None
        if self.horizon is not None and count_mode:
            raise InvalidParameter("give either horizon or target counts, not both")
        if self.horizon is None and not count_mode:
            raise InvalidParameter("one of horizon or (n1, n2) is required")
        if count_mode:
            if self.n1 is None or self.n2 is None:
                raise InvalidParameter("n1 and n2 must be given together")
            if self.n1 < 2 or self.n2 < 2:
                raise InvalidParameter("target counts must be at least 2")
        n_events = self.n1 + self.n2 if count_mode else (self.lambda1 + self.lambda2) * self.horizon
        if n_events > _MAX_EVENTS:
            raise InvalidParameter(f"{n_events:.3g} events are more than an array can hold")
        if len(self.margins) != 2:
            raise InvalidParameter("margins must be a pair")


@dataclass(frozen=True)
class GroundTruth:
    """True dependence parameters behind a simulated pair of series."""

    family: str
    param: float
    tau: float
    df: int | None = None

    def as_dict(self) -> dict:
        out = {"family": self.family, "param": self.param, "tau": self.tau}
        if self.df is not None:
            out["df"] = self.df
        return out


@dataclass(frozen=True)
class SimResult:
    a: TickSeries
    b: TickSeries
    truth: GroundTruth


@dataclass(frozen=True)
class _Events:
    """Simulated event streams, one replicate per row.

    ``times`` are the merged event times of both assets, increasing along a
    row; ``to_b`` marks the events that are asset 2's ticks; ``log_x`` and
    ``log_y`` are the two log-price lattices at every event.
    """

    times: np.ndarray
    to_b: np.ndarray
    log_x: np.ndarray
    log_y: np.ndarray


def _events(spec: SimSpec, times: np.ndarray, to_b: np.ndarray, uv: np.ndarray) -> _Events:
    """Price the ``(k, n)`` event rows: one ``ppf`` per margin, one cumulative sum per lattice."""
    gaps = np.diff(times, axis=1, prepend=0.0)
    m1, m2 = spec.margins
    # margins see 1-d draws, as their ppf contract promises
    innov_x = np.asarray(m1.ppf(uv[..., 0].ravel()), dtype=float).reshape(times.shape)
    innov_y = np.asarray(m2.ppf(uv[..., 1].ravel()), dtype=float).reshape(times.shape)
    scale = np.sqrt(gaps)
    log_x = _LOG_P0 + np.cumsum(scale * innov_x, axis=1)
    log_y = _LOG_P0 + np.cumsum(scale * innov_y, axis=1)
    return _Events(times, to_b, log_x, log_y)


def _simulate_counts(spec: SimSpec, seeds) -> _Events:
    """Count-mode events of ``spec`` for a block of replicates, one per seed.

    Replicate ``r`` draws its gaps, split and copula sample from its own
    ``default_rng(seeds[r])``, so a row does not depend on the others in its
    block; the pricing then runs once over the stacked rows.
    """
    n = spec.n1 + spec.n2
    lam_total = spec.lambda1 + spec.lambda2
    gaps0 = np.empty((len(seeds), n))
    to_b = np.zeros((len(seeds), n), dtype=bool)
    uv = np.empty((len(seeds), n, 2))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        gaps0[row] = rng.exponential(1.0 / lam_total, n)
        to_b[row, rng.permutation(n)[: spec.n2]] = True
        uv[row] = sample_uniform(spec.model, n, rng)
    return _events(spec, np.cumsum(gaps0, axis=1), to_b, uv)


def _simulate_horizon(spec: SimSpec) -> _Events:
    """Horizon-mode events of ``spec``: a Poisson number of them, marked independently."""
    rng = np.random.default_rng(spec.seed)
    lam_total = spec.lambda1 + spec.lambda2
    n_events = int(rng.poisson(lam_total * spec.horizon))
    if n_events < 4:
        raise InsufficientData(f"horizon {spec.horizon} produced only {n_events} events")
    times = np.sort(rng.uniform(0.0, spec.horizon, n_events))
    to_b = rng.random(n_events) < spec.lambda2 / lam_total
    uv = sample_uniform(spec.model, n_events, rng)
    return _events(spec, times[None], to_b[None], uv[None])


def simulate(spec: SimSpec) -> SimResult:
    """Generate one nonsynchronous two-asset sample.

    Deterministic for a fixed ``spec.seed``. Raises
    :class:`InsufficientData` when the random split leaves either asset with
    fewer than two ticks (only possible for tiny sizes).
    """
    ev = _simulate_horizon(spec) if spec.horizon is not None else _simulate_counts(spec, [spec.seed])
    times, to_b, log_x, log_y = ev.times[0], ev.to_b[0], ev.log_x[0], ev.log_y[0]
    idx_a = np.flatnonzero(~to_b)
    idx_b = np.flatnonzero(to_b)
    if idx_a.size < 2 or idx_b.size < 2:
        raise InsufficientData("random split left an asset with fewer than 2 ticks")
    truth = GroundTruth(
        family=spec.model.family,
        param=spec.model.param,
        tau=tau_of(spec.model),
        df=spec.model.df,
    )
    return SimResult(
        a=TickSeries(times[idx_a], log_x[idx_a]),
        b=TickSeries(times[idx_b], log_y[idx_b]),
        truth=truth,
    )


def _check_n_rep(n_rep: int) -> None:
    if n_rep < 2:
        raise InvalidParameter(f"n_rep must be at least 2, got {n_rep}")


# A block simulates about this many events in one pass, and at least one
# replicate: 50 replicates at 350 ticks per asset, 8 at 2k, 1 from 17.5k up.
# At 350 ticks a 12-cell curve ran 5-19 % faster than in blocks of 10, and
# no slower at 2k or 20k, on one CPU and on two. A block peaks at about 90
# bytes per event (traced), so a worker holds about 3 MB below 17.5k ticks
# and one replicate's arrays above it: 34 MB at 200k, where blocks of 10
# would need about 340 MB.
_BLOCK_EVENTS = 35_000


def _block_reps(n_events: int) -> int:
    """Replicates per block of a cell whose replicates simulate ``n_events`` events each."""
    return max(1, _BLOCK_EVENTS // n_events)


def _fork_workers(n_tasks: int) -> int:
    """Processes for ``n_tasks`` blocks: one per CPU in this process's affinity mask, at most one per block.

    1 (run in-process) where ``fork`` or the affinity mask is unavailable,
    and inside a worker process, whose CPUs its parent already shares out.
    """
    import multiprocessing

    if (not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


def _shares(costs, workers: int) -> list[range]:
    """Cut tasks ``0 .. len(costs) - 1`` into at most ``workers`` contiguous, non-empty shares of about equal cost.

    Share ``k`` ends at the task whose running total of ``costs`` lies
    nearest ``k / workers`` of the whole, so no share's cost is further than
    one task's cost from an equal part.
    """
    ends = np.cumsum(costs)
    cuts = {int(np.abs(ends - ends[-1] * k / workers).argmin()) + 1 for k in range(1, workers)}
    bounds = sorted(cuts | {0, len(costs)})
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _run_share(block, share, writer) -> None:
    """A worker's whole life: run ``share`` in order, stop at the first error, send ``(results, error)`` once."""
    results, error = [], None
    try:
        for i in share:
            results.append(block(i))
    except Exception as exc:  # the parent raises it, caused by this traceback
        from multiprocessing.pool import ExceptionWithTraceback

        error = ExceptionWithTraceback(exc, exc.__traceback__)
    writer.send((results, error))


def _fork_map(block, costs, workers: int) -> list:
    """``[block(i) for i in range(len(costs))]`` on up to ``workers`` forked processes, in task order.

    The tasks are cut into contiguous shares of about equal total
    ``costs`` (:func:`_shares`), and each share runs in its own forked
    process, which sends its results back once through a one-way pipe.
    ``block`` reaches the workers through ``fork``, not ``pickle``, so it may
    be a closure. The parent runs no task and starts no thread: it receives
    the shares in order, and as each share stops at its first error, the
    first error received is that of the first failing task in index order,
    as in the loop. A worker killed from outside raises
    :class:`CalibrationFailure`. Every worker has exited before this returns
    or raises.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    started = []
    try:
        for share in _shares(costs, workers):
            reader, writer = context.Pipe(duplex=False)
            worker = context.Process(target=_run_share, args=(block, share, writer))
            worker.start()
            writer.close()  # a worker's death then reads as EOF; later workers never hold this end
            started.append((worker, reader))
        results = []
        for _, reader in started:
            try:
                done, error = reader.recv()
            except EOFError:
                raise CalibrationFailure("a worker process died before its replicate blocks finished "
                                         "(killed from outside, for example for lack of memory)") from None
            if error is not None:
                raise error
            results += done
        return results
    finally:
        for worker, reader in started:
            if worker.exitcode is None:
                worker.kill()
            worker.join()
            reader.close()  # after the join: a worker still writing would see a broken pipe


def _run_cells(cells, n_rep, seed_prefix, estimate, *, lambda1, lambda2, pool=False) -> np.ndarray:
    """The simulate -> estimate replicate loop behind every Monte Carlo study.

    ``cells`` is a list of ``(model, margins, n)``, each simulated with
    ``n`` ticks per asset at rates ``lambda1``/``lambda2``. Replicate ``r``
    of cell ``c`` uses seed ``[*seed_prefix, c, r]``, so each value depends
    only on the prefix and its own indices. ``estimate(spec, seeds)`` gets
    the cell's seedless :class:`SimSpec` and a block of up to
    ``_block_reps(2 * n)`` consecutive replicate seeds, and returns one
    float or k floats per seed; :func:`_per_sample` adapts an estimator of
    one :class:`SimResult`. The result has shape ``(len(cells), n_rep, k)``.
    Fewer than two replicates leave no spread to summarize and raise
    :class:`InvalidParameter`.

    With ``pool=True`` the blocks run in forked processes, one per CPU in
    the affinity mask and at most one per block; see :func:`_fork_workers`
    for when it stays in-process. Each worker takes a contiguous share of
    the blocks of about equal cost, the block's replicates times its
    simulated events. Blocks are independent and collected in (cell,
    replicate) order, so the result is the in-process result bit for bit,
    and a failure raises the error of the first failing block in that
    order. ``estimate`` must then be a pure function of its arguments:
    whatever it records in this process's memory (spans, counters, caches)
    is lost with the worker that ran it.
    """
    _check_n_rep(n_rep)
    specs = [SimSpec(model=model, margins=margins, lambda1=lambda1, lambda2=lambda2, n1=n, n2=n)
             for model, margins, n in cells]
    sizes = [_block_reps(spec.n1 + spec.n2) for spec in specs]
    tasks = [(c, first) for c, size in enumerate(sizes) for first in range(0, n_rep, size)]
    if not tasks:
        return np.zeros((0, n_rep, 0))

    def block(i):
        c, first = tasks[i]
        seeds = [[*seed_prefix, c, r] for r in range(first, min(first + sizes[c], n_rep))]
        return np.asarray(estimate(specs[c], seeds), dtype=float).reshape(len(seeds), -1)

    workers = _fork_workers(len(tasks)) if pool else 1
    if workers > 1:
        costs = [(min(first + sizes[c], n_rep) - first) * (specs[c].n1 + specs[c].n2) for c, first in tasks]
        blocks = _fork_map(block, costs, workers)
    else:
        blocks = [block(i) for i in range(len(tasks))]
    return np.concatenate(blocks).reshape(len(cells), n_rep, -1)


def _per_sample(estimate):
    """A block estimator that simulates each seed alone and applies ``estimate(sim)``."""
    return lambda spec, seeds: [estimate(simulate(replace(spec, seed=seed))) for seed in seeds]
