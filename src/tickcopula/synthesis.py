"""Nonsynchronous two-asset data generator: draw an event stream, then price it.

The stream step draws a replicate's merged event times and marks asset 2's
events: with target counts ``n1``/``n2``, exponential gaps at the total rate
and an exact random split (n2 events drawn without replacement); with a time
``horizon``, a Poisson number of uniform times, each asset 2's independently
with probability lambda2/(lambda1+lambda2), the standard marking of a merged
Poisson stream. The pricing step scales jointly drawn return innovations by
the square root of each interarrival, so that log-price increments have
variance proportional to elapsed time. Each asset keeps the log-price of the
common lattice at its own event times only: two tick series that never share
a timestamp but ride on dependent price paths.
"""

from __future__ import annotations

import ctypes
import multiprocessing
# the fork pool's pipes and process launcher: imported with the package, not
# in a study's first pooled call, where they grew the heap that call measures
import multiprocessing.connection
import multiprocessing.popen_fork
import operator
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .copulas import CopulaModel, _rows, _sample_block
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
        x = special.ndtri(q)
        x *= self.scale
        x += self.loc
        return x


@dataclass(frozen=True)
class _TMargin:
    """Student t with ``df`` degrees of freedom, with the quantiles of scipy's frozen ``t``."""

    df: float

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        x = np.asarray(special.stdtrit(self.df, q))
        x[q == 0.0] = -np.inf  # stdtrit maps q = 0 to +inf
        return x[()]


@dataclass(frozen=True)
class SimSpec:
    """Simulation recipe: copula, margins, arrival rates and size.

    Exactly one of (``horizon``) or (``n1`` and ``n2``) must be given.
    ``margins`` is a pair of objects with a vectorized ``ppf`` (quantile
    function) applied to the copula draws: a frozen scipy distribution, or
    the light normal and t margins the CLI and the studies build. A ``ppf``
    receives one contiguous 1-D float64 array per call: one coordinate's
    draws for every row of a replicate block, row after row.
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
        if (self.horizon is not None) == count_mode:
            raise InvalidParameter("give exactly one of horizon or target counts (n1, n2)")
        if count_mode:
            if self.n1 is None or self.n2 is None:
                raise InvalidParameter("n1 and n2 must be given together")
            for name in ("n1", "n2"):
                try:
                    operator.index(getattr(self, name))
                except TypeError:
                    raise InvalidParameter(f"{name} must be an integer, got {getattr(self, name)!r}") from None
            if self.n1 < 2 or self.n2 < 2:
                raise InvalidParameter("target counts must be at least 2")
        if self.n_events > _MAX_EVENTS:
            raise InvalidParameter(f"{self.n_events:.3g} events are more than an array can hold")
        if len(self.margins) != 2:
            raise InvalidParameter("margins must be a pair")

    @property
    def n_events(self):
        """Events in one replicate's stream: exactly ``n1 + n2``, or the mean Poisson count over the horizon."""
        return int(self.n1) + int(self.n2) if self.horizon is None else (self.lambda1 + self.lambda2) * self.horizon


@dataclass(frozen=True)
class SimResult:
    """The two tick series of one simulated sample; its :class:`SimSpec` describes the rest."""

    a: TickSeries
    b: TickSeries


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
    """Price the ``(k, n)`` event rows from the ``(2, k, n)`` copula draws ``uv``.

    One ``ppf`` per margin, one cumulative sum per lattice. Each margin's
    draws are read once, by its ``ppf``, so a ``ppf`` may return its input.
    """
    scale = np.empty_like(times)
    scale[:, 0] = times[:, 0]  # the gap from time 0
    np.subtract(times[:, 1:], times[:, :-1], out=scale[:, 1:])
    np.sqrt(scale, out=scale)
    log_x, log_y = (_lattice(margin, draws, scale) for margin, draws in zip(spec.margins, uv))
    return _Events(times, to_b, log_x, log_y)


def _lattice(margin, draws: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """One log-price lattice: the margin's innovations, scaled by ``scale``, summed along each row.

    ``draws`` is one coordinate's contiguous ``(k, n)`` block of copula draws,
    so the margin's ``ppf`` receives all of it as one 1-D view, with no copy.
    """
    # margins see 1-d draws, as their ppf contract promises
    log_p = np.asarray(margin.ppf(draws.ravel()), dtype=float).reshape(scale.shape)
    # a product or sum past 1.8e308 is inf, and inf + -inf NaN; the caller refuses a non-finite price
    with np.errstate(invalid="ignore", over="ignore"):
        log_p *= scale
        np.cumsum(log_p, axis=1, out=log_p)
    log_p += _LOG_P0
    return log_p


def _streams(spec: SimSpec, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Each replicate's merged event times, increasing along a row, and its mask ``to_b`` of asset 2's events.

    Row r draws from ``rngs[r]`` alone, into the block's arrays; the gap
    scaling and running sums then run once over the block. A horizon stream
    has a random length, so it stands alone.
    """
    lam_total = spec.lambda1 + spec.lambda2
    if spec.horizon is None:
        n = spec.n_events
        times = _rows(rngs, (n,), np.random.Generator.standard_exponential)
        to_b = np.zeros(times.shape, dtype=bool)
        for row, rng in zip(to_b, rngs):
            row[rng.permutation(n)[: spec.n2]] = True
        times *= 1.0 / lam_total  # exponential(1 / lam_total) gaps, bit for bit
        np.cumsum(times, axis=1, out=times)  # the gaps' running sums
        return times, to_b
    [rng] = rngs
    n = int(rng.poisson(lam_total * spec.horizon))
    if n < 4:
        raise InsufficientData(f"horizon {spec.horizon} produced only {n} events")
    times = rng.uniform(0.0, spec.horizon, (1, n))
    times.sort(axis=1)
    return times, rng.random((1, n)) < spec.lambda2 / lam_total


def _simulate(spec: SimSpec, seeds) -> _Events:
    """Events of ``spec``, one replicate per seed; a horizon spec, of random length, takes one seed.

    Row ``r`` draws its stream, then its copula sample, from its own
    ``default_rng(seeds[r])``, so it does not depend on the others. Each
    step writes every row's draws into one block array, then transforms the
    whole block at once; the pricing also runs once over the stacked rows.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    times, to_b = _streams(spec, rngs)
    # one contiguous (k, n) array of draws per coordinate: scipy's ppf copies a strided
    # input again, which lifted simulate's traced peak with scipy margins by 8 B/event
    uv = _sample_block(spec.model, times.shape[1], rngs).transpose(2, 0, 1).copy()
    del rngs  # about 0.9 kB each: held through pricing, they lift a default block's traced peak by 1 B/event
    return _events(spec, times, to_b, uv)


def simulate(spec: SimSpec) -> SimResult:
    """Generate one nonsynchronous two-asset sample.

    Deterministic for a fixed ``spec.seed``. Raises
    :class:`InsufficientData` when the random split leaves either asset with
    fewer than two ticks (only possible for tiny sizes).
    """
    ev = _simulate(spec, [spec.seed])
    times, to_b, log_x, log_y = ev.times[0], ev.to_b[0], ev.log_x[0], ev.log_y[0]
    idx_a = np.flatnonzero(~to_b)
    idx_b = np.flatnonzero(to_b)
    if idx_a.size < 2 or idx_b.size < 2:
        raise InsufficientData("random split left an asset with fewer than 2 ticks")
    return SimResult(a=TickSeries(times[idx_a], log_x[idx_a]), b=TickSeries(times[idx_b], log_y[idx_b]))


def _check_n_rep(n_rep: int) -> None:
    if n_rep < 2:
        raise InvalidParameter(f"n_rep must be at least 2, got {n_rep}")


# A block simulates at most this many events (``SimSpec.n_events`` each) in
# one pass, and at least one replicate: a cell's replicates are cut into the
# fewest blocks within this budget, of sizes that differ by at most one. That
# is 2 blocks of 50 at 350 ticks per asset and 100 replicates, 13 blocks of 7
# or 8 at 2k, and blocks of 1 from 17.5k up. At 350 ticks a 12-cell curve ran
# 5-19 % faster than in blocks of 10, and no slower at 2k or 20k, on one CPU
# and on two. A block peaks at about 49 bytes per event (traced), so a worker
# holds about 1.6 MiB below 17.5k ticks and one replicate's arrays above it:
# 18.7 MiB at 200k, where blocks of 10 would need about 190 MiB. On glibc a
# pooled worker keeps those pages from block to block (see _run_share), so
# its share faults them in once, not once a block: the 24 blocks of a
# default curve took 3.8k minor faults on two workers instead of 18.6k, at
# the same resident peak (75 MB per worker, most of it the shared imports).
_BLOCK_EVENTS = 35_000


def _block_reps(n_events: int) -> int:
    """Most replicates in one block of a cell whose replicates simulate ``n_events`` events each."""
    return max(1, _BLOCK_EVENTS // n_events)


def _fork_workers(n_tasks: int) -> int:
    """Processes for ``n_tasks`` blocks: one per CPU in this process's affinity mask, at most one per block.

    Where the calling process runs a share (``in_parent``, :func:`_fork_map`),
    it is one of them. 1 (run in-process) where ``fork`` or the affinity
    mask is unavailable, and inside a worker process, whose CPUs its parent
    already shares out.
    """
    if (not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


# glibc's mallopt, resolved here in the parent so that a forked worker only
# calls it and never runs the dynamic loader; None off glibc.
try:
    _MALLOPT = (ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int, ctypes.c_int)(("mallopt", ctypes.CDLL(None)))
                if os.confstr("CS_GNU_LIBC_VERSION") else None)
except (AttributeError, OSError, ValueError):  # no confstr, no such name, or no such symbol
    _MALLOPT = None
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # <malloc.h>


def _run_tasks(block, share) -> tuple[list, Exception | None]:
    """``block(i)`` for each ``i`` of ``share`` in order, up to the first error: ``(results, error or None)``."""
    results = []
    try:
        for i in share:
            results.append(block(i))
    except Exception as exc:
        return results, exc
    return results, None


def _run_share(block, share, writer) -> None:
    """A worker's whole life: run ``share`` in order, stop at the first error, send ``(results, error)`` once.

    First, on glibc, the worker makes its allocator keep the pages it frees
    for the rest of its life. By default glibc trims the top of the heap
    once 128 KiB or more of it is free, and it mmaps every array from its
    (dynamic) mmap threshold up and unmaps it on free, so a worker running
    block after block of one size faults the same pages back in for every
    block. With the mmap threshold at glibc's 64-bit maximum, 32 MiB, and a
    trim threshold never reached, each block reuses the pages the last one
    freed, and the worker's resident peak is that of its largest block. Both
    are needed. The mmap threshold alone still trims the heap after each
    block. And setting either switches off the dynamic mmap threshold, so
    the trim threshold alone would leave every array above 128 KiB to a
    fresh mmap. Where glibc refuses 32 MiB (32-bit glibc caps it at 512
    KiB), neither is set. The parent's allocator is left alone, also while
    it runs a share of its own.
    """
    if _MALLOPT is not None and _MALLOPT(_M_MMAP_THRESHOLD, 32 << 20):
        _MALLOPT(_M_TRIM_THRESHOLD, 2**31 - 1)  # the largest int
    results, error = _run_tasks(block, share)
    if error is not None:  # the parent raises it, caused by this traceback
        from multiprocessing.pool import ExceptionWithTraceback

        error = ExceptionWithTraceback(error, error.__traceback__)
    writer.send((results, error))


def _deal(n_blocks, workers: int) -> list[list[int]]:
    """The task indices of each share, ascending: block ``b`` of cell ``c`` goes to share ``(c + b) % workers``.

    ``n_blocks`` lists each cell's block count; tasks are numbered in
    (cell, block) order. A cell's blocks fall on consecutive shares, and
    consecutive cells start on consecutive shares, so a cell's short and
    long blocks (sizes differ by at most one) land on different shares and
    no share takes every short one. Empty shares are dropped.
    """
    owner = [(c + b) % workers for c, k in enumerate(n_blocks) for b in range(k)]
    shares = [[i for i, w in enumerate(owner) if w == s] for s in range(workers)]
    return [share for share in shares if share]


def _fork_map(block, shares, *, in_parent=False) -> list:
    """``[block(i) for i in range(n_tasks)]``, where ``shares`` lists the task indices of each process, ascending.

    The shares together hold each index below ``n_tasks`` once. Each share
    runs in a forked worker process, which sends its results back once
    through a one-way pipe, and each result is put back at its task index.
    ``block`` reaches the workers through ``fork``, not ``pickle``, so it
    may be a closure. By default the calling process runs no task. With
    ``in_parent`` it forks workers for the shares after the first only,
    runs the first share itself, and then reads the other shares in order;
    whatever ``block`` records in this process's memory then holds for the
    first share alone. With ``in_parent`` and one share it forks nothing
    and never asks for the ``fork`` context, so it also runs where
    ``fork`` is missing. Either way it starts no thread. Every share stops
    at its first error, and the call raises the error of the lowest failing
    task index: the first failing task in index order, as in the loop. An
    error that is not an :class:`Exception` (a ``KeyboardInterrupt``) in
    the parent's share propagates at once. A worker killed from outside
    raises :class:`CalibrationFailure`. Every worker has exited, killed if
    it still runs, before this returns or raises. On glibc a worker keeps
    the heap pages it frees until it exits (:func:`_run_share`), so the
    blocks of its share reuse one another's memory; the parent's allocator
    is untouched.
    """
    started = []
    try:
        for share in shares[1 if in_parent else 0:]:
            context = multiprocessing.get_context("fork")  # not above: a host without fork forks nothing
            reader, writer = context.Pipe(duplex=False)
            worker = context.Process(target=_run_share, args=(block, share, writer))
            worker.start()
            writer.close()  # a worker's death then reads as EOF; later workers never hold this end
            started.append((worker, reader))
        outcomes = [_run_tasks(block, shares[0])] if in_parent else []
        for _, reader in started:
            try:
                outcomes.append(reader.recv())
            except EOFError:
                raise CalibrationFailure("a worker process died before its replicate blocks finished "
                                         "(killed from outside, for example for lack of memory)") from None
        results, errors = [None] * sum(map(len, shares)), {}
        for share, (done, error) in zip(shares, outcomes):
            for i, result in zip(share, done):
                results[i] = result
            if error is not None:
                errors[share[len(done)]] = error  # the task that failed
        if errors:
            raise errors[min(errors)]
        return results
    finally:
        for worker, reader in started:
            if worker.exitcode is None:
                worker.kill()
            worker.join()
            reader.close()  # after the join: a worker still writing would see a broken pipe


def _run_cells(specs, n_rep, seed_prefix, estimate, *, in_parent=False) -> np.ndarray:
    """The simulate -> estimate replicate loop behind every Monte Carlo study.

    ``specs`` lists the cells, each a seedless count-mode :class:`SimSpec`
    that fixes everything a replicate simulates but its seed. Replicate
    ``r`` of cell ``c`` uses seed ``[*seed_prefix, c, r]``, so each value
    depends only on the prefix and its own indices. A cell's replicates are
    cut into ``k = ceil(n_rep / _block_reps(spec.n_events))`` blocks of
    consecutive seeds, block ``b`` holding replicates ``b * n_rep // k`` up
    to ``(b + 1) * n_rep // k``: no block exceeds the event budget, and
    sizes within a cell differ by at most one. ``estimate(spec, seeds)``
    gets the cell's spec and one block's seeds, and returns one float or k
    floats per seed. The result has shape ``(len(specs), n_rep, k)``.
    Fewer than two replicates leave no spread to summarize and raise
    :class:`InvalidParameter`.

    The blocks, numbered in (cell, replicate) order, are dealt to ``W``
    shares, one per CPU in the affinity mask and at most one per block
    (:func:`_fork_workers`): block ``b`` of cell ``c`` goes to share
    ``(c + b) % W`` (:func:`_deal`), which balances cells of mixed sizes
    without a cost model, and no share takes every short block. A share
    left empty is dropped. Each share runs in a forked worker
    (:func:`_fork_map`), or with ``in_parent=True`` share 0 runs in the
    calling process and forked workers run the rest; where there is one
    share the calling process runs it, through the same code.
    Blocks are independent and collected in that order, so the result is
    the same for every ``W``, bit for bit, and a failure raises the error of
    the first failing block in that order. ``estimate`` must then be a pure
    function of its arguments: whatever it records in this process's memory
    (spans, counters, caches) is lost with the worker that ran it, and holds
    only for the calling process's share. That share also lifts the calling
    process's memory peak by its largest block.
    """
    _check_n_rep(n_rep)
    n_blocks = [-(-n_rep // _block_reps(spec.n_events)) for spec in specs]
    tasks = [(c, range(b * n_rep // k, (b + 1) * n_rep // k)) for c, k in enumerate(n_blocks) for b in range(k)]
    if not tasks:
        return np.zeros((0, n_rep, 0))

    def block(i):
        c, reps = tasks[i]
        seeds = [[*seed_prefix, c, r] for r in reps]
        return np.asarray(estimate(specs[c], seeds), dtype=float).reshape(len(seeds), -1)

    shares = _deal(n_blocks, _fork_workers(len(tasks)))
    blocks = _fork_map(block, shares, in_parent=in_parent or len(shares) == 1)
    return np.concatenate(blocks).reshape(len(specs), n_rep, -1)
