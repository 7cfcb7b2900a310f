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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .copulas import CopulaModel, sample_uniform, tau_of
from .errors import InsufficientData, InvalidParameter
from .market_data import TickSeries

_LOG_P0 = float(np.log(100.0))  # arbitrary initial price level
RNG_NAME = "numpy-PCG64"  # the bit generator behind np.random.default_rng, recorded in artifacts


@dataclass(frozen=True)
class SimSpec:
    """Simulation recipe: copula, margins, arrival rates and size.

    Exactly one of (``horizon``) or (``n1`` and ``n2``) must be given.
    ``margins`` is a pair of ppf-capable objects (e.g. frozen scipy
    distributions) applied to the copula draws.
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
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise InvalidParameter("arrival intensities must be positive")
        count_mode = self.n1 is not None or self.n2 is not None
        if self.horizon is not None and count_mode:
            raise InvalidParameter("give either horizon or target counts, not both")
        if self.horizon is None and not count_mode:
            raise InvalidParameter("one of horizon or (n1, n2) is required")
        if self.horizon is not None and self.horizon <= 0:
            raise InvalidParameter("horizon must be positive")
        if count_mode:
            if self.n1 is None or self.n2 is None:
                raise InvalidParameter("n1 and n2 must be given together")
            if self.n1 < 2 or self.n2 < 2:
                raise InvalidParameter("target counts must be at least 2")
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


def simulate(spec: SimSpec) -> SimResult:
    """Generate one nonsynchronous two-asset sample.

    Deterministic for a fixed ``spec.seed``. Raises
    :class:`InsufficientData` when the random split leaves either asset with
    fewer than two ticks (only possible for tiny sizes).
    """
    rng = np.random.default_rng(spec.seed)
    lam_total = spec.lambda1 + spec.lambda2
    if spec.horizon is not None:
        n_events = int(rng.poisson(lam_total * spec.horizon))
        if n_events < 4:
            raise InsufficientData(
                f"horizon {spec.horizon} produced only {n_events} events"
            )
        times = np.sort(rng.uniform(0.0, spec.horizon, n_events))
        to_b = rng.random(n_events) < spec.lambda2 / lam_total
    else:
        n_events = spec.n1 + spec.n2
        gaps0 = rng.exponential(1.0 / lam_total, n_events)
        times = np.cumsum(gaps0)
        choice = rng.permutation(n_events)
        to_b = np.zeros(n_events, dtype=bool)
        to_b[choice[: spec.n2]] = True

    gaps = np.diff(times, prepend=0.0)
    uv = sample_uniform(spec.model, n_events, rng)
    m1, m2 = spec.margins
    innov_x = np.asarray(m1.ppf(uv[:, 0]), dtype=float)
    innov_y = np.asarray(m2.ppf(uv[:, 1]), dtype=float)
    scale = np.sqrt(gaps)
    log_x = _LOG_P0 + np.cumsum(scale * innov_x)
    log_y = _LOG_P0 + np.cumsum(scale * innov_y)

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
        a=TickSeries(times[idx_a], log_x[idx_a], asset_id="asset1"),
        b=TickSeries(times[idx_b], log_y[idx_b], asset_id="asset2"),
        truth=truth,
    )


def _check_n_rep(n_rep: int) -> None:
    if n_rep < 2:
        raise InvalidParameter(f"n_rep must be at least 2, got {n_rep}")


def _run_cells(cells, n_rep, seed_prefix, estimate, *, lambda1, lambda2) -> np.ndarray:
    """The simulate -> estimate replicate loop behind every Monte Carlo study.

    ``cells`` is a list of ``(model, margins, n)``, each simulated with
    ``n`` ticks per asset at rates ``lambda1``/``lambda2``. Replicate ``r``
    of cell ``c`` uses seed ``[*seed_prefix, c, r]``, so each value depends
    only on the prefix and its own indices. ``estimate(sim)`` returns a float
    or k floats; the result has shape ``(len(cells), n_rep, k)``. Fewer than
    two replicates leave no spread to summarize and raise
    :class:`InvalidParameter`.
    """
    _check_n_rep(n_rep)
    values = np.array(
        [
            estimate(simulate(SimSpec(model=model, margins=margins, lambda1=lambda1, lambda2=lambda2,
                                      n1=n, n2=n, seed=[*seed_prefix, c, r])))
            for c, (model, margins, n) in enumerate(cells)
            for r in range(n_rep)
        ],
        dtype=float,
    )
    return values.reshape(len(cells), n_rep, -1) if cells else values.reshape(0, n_rep, 0)
