"""Quadratic calibration of Kendall's tau under nonsynchronous sampling.

Asynchronicity shrinks the sample tau of paired returns below the true
value, and for non-elliptical copulas the shrinkage is not proportional.
``build_curve`` maps that bias by simulation: for a grid of true tau values
it simulates nonsynchronous data, pairs it, and records the uncorrected
estimates; a quadratic least-squares fit of estimate-on-truth summarizes the
relation. Correcting an observed estimate then means inverting the fitted
curve; that inversion is the point estimate of ``interval_quad``.

Three interval estimators are provided:

* ``interval_quad`` centers a prediction band on the companion quadratic fit
  of truth on estimate, whose residual scale lives directly in tau units.
* ``interval_quantile`` is regression-free: it inverts the per-grid-point
  empirical quantile bands of the replicate estimates.
* ``interval_misspecified`` ignores the true family, pretends the returns
  follow a Gaussian copula, and maps a corrected-correlation interval
  through ``tau = (2/pi) arcsin(theta)``. Feeding it refresh-time pairs
  reproduces the severe undercoverage a naive analysis commits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy import special

from .copulas import FAMILIES, param_of_tau
from .errors import CalibrationFailure, InvalidParameter
from .estimators import _kendall_rows, corrected_correlation, kendall_tau
from .pairing import SCHEME_PAIRED, PairedSeries, _tick_pairs, pair_ticks
from .synthesis import RNG_NAME, SimSpec, _run_cells, _simulate, simulate

__all__ = [
    "CorrectionCurve",
    "IntervalEstimate",
    "build_curve",
    "interval_quad",
    "interval_quantile",
    "interval_misspecified",
]


def _check_grid(g: np.ndarray) -> None:
    if g.ndim != 1 or g.size < 5:
        raise InvalidParameter("calibration grid needs at least 5 tau values")
    if not (np.isfinite(g).all() and (np.diff(g) > 0).all()):
        raise InvalidParameter("grid_taus must be finite and strictly increasing")
    if not (-1.0 < g[0] and g[-1] < 1.0):
        raise InvalidParameter(f"grid_taus must lie in (-1, 1), got {g[0]} to {g[-1]}")


def _quad_fit(x: np.ndarray, y: np.ndarray) -> tuple[tuple[float, float, float], float]:
    """Least-squares ``y ~ a + b*x + c*x^2``: the coefficients and the residual standard deviation."""
    design = np.column_stack([np.ones_like(x), x, x * x])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coeffs
    scale = float(np.sqrt(resid @ resid / max(y.size - 3, 1)))
    return tuple(float(v) for v in coeffs), scale


@dataclass(frozen=True)
class CorrectionCurve:
    """Simulated bias map for one copula family.

    ``estimates[k, r]`` is the r-th replicate uncorrected tau at true tau
    ``grid_taus[k]``; every replicate must be finite. The fits are worked out
    from these replicates on construction and cannot be set:
    ``quad_coeffs`` are (a, b, c) of the least-squares fit
    ``estimate ~ a + b*tau + c*tau^2`` over all replicate points and
    ``resid_scale`` the residual standard deviation of that fit; point
    correction inverts this map. ``inverse_coeffs``/``inverse_resid_scale``
    hold the companion fit of truth on estimate, whose prediction band (in
    tau units directly) backs the quadratic interval method - the pooled
    estimate-scale band under-covers wherever the local replicate spread
    exceeds the pooled one, the tau-scale band does not.
    ``meta`` records how the curve was built (rates, sizes, seed, rng).
    """

    family: str
    grid_taus: np.ndarray
    estimates: np.ndarray
    meta: dict
    quad_coeffs: tuple[float, float, float] = field(init=False)
    resid_scale: float = field(init=False)
    inverse_coeffs: tuple[float, float, float] = field(init=False)
    inverse_resid_scale: float = field(init=False)
    _bands: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameter(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        g = np.asarray(self.grid_taus, dtype=float)
        e = np.asarray(self.estimates, dtype=float)
        _check_grid(g)
        if e.ndim != 2 or e.shape[0] != g.size or e.shape[1] < 50:
            raise InvalidParameter("estimates need at least 50 replicates for each grid point")
        bad = np.argwhere(~np.isfinite(e))
        if bad.size:
            k, r = bad[0]
            raise InvalidParameter(f"replicate {r} at grid index {k} is {e[k, r]}; estimates must be finite")
        object.__setattr__(self, "grid_taus", g)
        object.__setattr__(self, "estimates", e)
        tt, yy = np.repeat(g, e.shape[1]), e.ravel()
        (a, b, c), scale = _quad_fit(tt, yy)
        object.__setattr__(self, "quad_coeffs", (a, b, c))
        object.__setattr__(self, "resid_scale", scale)
        inv_coeffs, inv_scale = _quad_fit(yy, tt)
        object.__setattr__(self, "inverse_coeffs", inv_coeffs)
        object.__setattr__(self, "inverse_resid_scale", inv_scale)
        # monotone mean fit over the grid span, else the inverse is ill-posed
        lo, hi = g[0], g[-1]
        if b + 2 * c * lo <= 0 or b + 2 * c * hi <= 0:
            raise CalibrationFailure("fitted mean curve is not increasing over the grid")
        qlo, qhi = np.quantile(e, [0.025, 0.975], axis=1)
        fit = self.predict(g)
        if not ((qlo <= fit + 1e-12) & (fit <= qhi + 1e-12)).all():
            raise CalibrationFailure("quantile bands do not bracket the mean fit")

    def predict(self, tau) -> np.ndarray:
        """Fitted mean uncorrected estimate at true tau."""
        a, b, c = self.quad_coeffs
        tau = np.asarray(tau, dtype=float)
        return a + b * tau + c * tau * tau

    def predict_inverse(self, estimate) -> np.ndarray:
        """Fitted true tau at an observed uncorrected estimate."""
        d, e, f = self.inverse_coeffs
        estimate = np.asarray(estimate, dtype=float)
        return d + e * estimate + f * estimate * estimate

    @property
    def span(self) -> tuple[float, float]:
        return float(self.grid_taus[0]), float(self.grid_taus[-1])

    @property
    def fitted_range(self) -> tuple[float, float]:
        lo, hi = self.span
        return float(self.predict(lo)), float(self.predict(hi))

    def band(self, level: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-grid empirical (alpha/2, 1-alpha/2) bands, made nondecreasing.

        Computed once per level; the arrays are shared and read-only.
        """
        if level not in self._bands:
            alpha = 1.0 - level
            lo, hi = np.quantile(self.estimates, [alpha / 2.0, 1.0 - alpha / 2.0], axis=1)
            bands = np.maximum.accumulate(lo), np.maximum.accumulate(hi)
            for b in bands:
                b.flags.writeable = False
            self._bands[level] = bands
        return self._bands[level]

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "grid_taus": self.grid_taus.tolist(),
            "estimates": self.estimates.tolist(),
            "quad_coeffs": list(self.quad_coeffs),
            "resid_scale": self.resid_scale,
            "inverse_coeffs": list(self.inverse_coeffs),
            "inverse_resid_scale": self.inverse_resid_scale,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CorrectionCurve":
        """The curve ``to_dict`` wrote, refitted from its replicates.

        The four fit keys are ignored. A missing or mistyped field raises
        :class:`InvalidParameter`.
        """
        try:
            return cls(
                family=d["family"],
                grid_taus=np.asarray(d["grid_taus"], dtype=float),
                estimates=np.asarray(d["estimates"], dtype=float),
                meta=dict(d.get("meta", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameter(f"malformed curve: {type(exc).__name__}: {exc}") from None

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict()))  # the C encoder; json.dump always runs the Python one

    @classmethod
    def from_json(cls, path) -> "CorrectionCurve":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except ValueError as exc:  # undecodable bytes or invalid JSON
                raise InvalidParameter(f"{path}: not a curve JSON file: {exc}") from None
        return cls.from_dict(d)


@dataclass(frozen=True)
class IntervalEstimate:
    """Point estimate and interval for the true Kendall tau."""

    point: float
    lo: float
    hi: float
    level: float
    method: str  # "quad-prediction" | "quantile-inversion" | "misspecified-elliptical"

    def __post_init__(self):
        if not self.lo <= self.point <= self.hi:
            raise InvalidParameter("interval must contain its point estimate")
        if not 0.0 < self.level < 1.0:
            raise InvalidParameter("level must lie in (0, 1)")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, tau: float) -> bool:
        return self.lo <= tau <= self.hi


def _replay(spec, seed) -> PairedSeries:
    """``pair_ticks`` of one seed's sample, simulated and paired alone, as a loop over the seeds would."""
    sim = simulate(replace(spec, seed=seed))
    return pair_ticks(sim.a, sim.b)


def _pair_rows(ev):
    """Tick-retaining pairs of each row of an event block, and the rows they may not stand for.

    Returns ``(row, i1, i2)`` as :func:`~tickcopula.pairing._tick_pairs`
    gives them, each row's pair count, and ``ok``: false on a row that a
    replicate's own checks might reject, or whose pairs may differ from
    ``pair_ticks`` of its sample. Those are the rows with a non-finite or
    tied tick time, a non-finite price, or fewer than 2 pairs, which is what
    disjoint supports leave (``pair_ticks`` raises :class:`NoOverlap` there).
    """
    ok = (np.isfinite(ev.times) & np.isfinite(ev.log_x) & np.isfinite(ev.log_y)).all(axis=1)
    ok &= (ev.times[:, 1:] > ev.times[:, :-1]).all(axis=1)
    pairs = _tick_pairs(ev.times, ~ev.to_b)
    n_pairs = np.bincount(pairs[0], minlength=ok.size)
    return pairs, n_pairs, ok & (n_pairs >= 2)


def _gather(pairs, n_pairs, to_b, a, b) -> np.ndarray:
    """NaN-padded ``(2, k, width)`` rows of a per-event column, read at each row's pairs.

    ``a`` and ``b`` have the block's ``(k, n)`` shape; asset 1's ticks are
    read from ``a`` and asset 2's, those ``to_b`` marks, from ``b``. Row
    ``r`` holds its ``n_pairs[r]`` pairs in order, then NaN.
    """
    row, i1, i2 = pairs
    k = n_pairs.size
    col = np.arange(row.size) - (np.cumsum(n_pairs) - n_pairs)[row]
    out = np.full((2, k, n_pairs.max()), np.nan)
    out[0, row, col] = a[~to_b].reshape(k, -1)[row, i1]
    out[1, row, col] = b[to_b].reshape(k, -1)[row, i2]
    return out


def _block_taus(xy: np.ndarray, n_pairs: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Each row's Kendall tau of the returns of the paired prices ``xy``, NaN on a row that must replay alone.

    ``xy`` is :func:`_gather`'s ``(2, k, width)`` array of prices: row ``r``
    holds ``n_pairs[r]`` pairs, then padding. This differences them into
    returns, which :func:`_kendall_rows` counts. A row replays where ``ok``
    rejects it, where a return is infinite, or where no two returns are
    comparable.
    """
    with np.errstate(invalid="ignore"):  # inf - inf; such rows replay alone
        d = np.diff(xy, axis=2)
    ok = ok & ~np.isinf(d).any(axis=(0, 2))
    cmd, untied = _kendall_rows(d[:, ok], n_pairs[ok] - 1)
    ok[ok] = untied > 0
    taus = np.full(ok.size, np.nan)
    taus[ok] = cmd[untied > 0] / untied[untied > 0]
    return taus


def _uncorrected_taus(spec, seeds) -> np.ndarray:
    """The all-pairs Kendall tau of each seed's ``pair_ticks``, the block simulated, paired and counted at once.

    The events come from one ``_simulate(spec, seeds)``, the pairs from
    :func:`_pair_rows`, and :func:`_block_taus` counts the returns of the
    prices :func:`_gather` reads at them. A row the count leaves NaN is
    replayed alone. Rows replay in seed order, so the first failing
    replicate raises its own error, as in a loop over the seeds.
    """
    ev = _simulate(spec, seeds)
    pairs, n_pairs, ok = _pair_rows(ev)
    xy = _gather(pairs, n_pairs, ev.to_b, ev.log_x, ev.log_y)
    del ev, pairs  # the Kendall count needs only the paired prices
    taus = _block_taus(xy, n_pairs, ok)
    for r in np.flatnonzero(np.isnan(taus)):
        taus[r] = kendall_tau(_replay(spec, seeds[r])).tau_hat
    return taus


def _paired_rows(spec, seeds) -> tuple[list, tuple]:
    """``pair_ticks`` of each seed's sample, from one simulated block, and the block's paired prices.

    Returns each row's :class:`PairedSeries`, which holds the values its own
    ``pair_ticks`` would, bit for bit, or ``None`` on a row that
    :func:`_pair_rows` rejects, for the caller to :func:`_replay` in its
    turn; and the arguments of :func:`_block_taus` for the block.
    """
    ev = _simulate(spec, seeds)
    pairs, n_pairs, ok = _pair_rows(ev)
    t = _gather(pairs, n_pairs, ev.to_b, ev.times, ev.times)
    xy = _gather(pairs, n_pairs, ev.to_b, ev.log_x, ev.log_y)
    rows = [PairedSeries(t1=t[0, r, :n], x=xy[0, r, :n], t2=t[1, r, :n], y=xy[1, r, :n], scheme=SCHEME_PAIRED,
                         n_raw1=spec.n1, n_raw2=spec.n2) if ok[r] else None for r, n in enumerate(n_pairs)]
    return rows, (xy, n_pairs, ok)


def build_curve(
    family: str,
    arrival,
    margins,
    grid: Sequence[float],
    n_rep: int = 100,
    n_ticks: int = 350,
    seed: int = 0,
    *,
    df: int | None = None,
) -> CorrectionCurve:
    """Simulate the bias map of the uncorrected tau for one family.

    For each true tau on ``grid``, ``n_rep`` nonsynchronous samples are
    generated at the ``arrival`` rates (a
    :class:`~tickcopula.arrival_theory.PoissonPair`), paired, and their
    all-pairs Kendall tau recorded. Each sample has ``n_ticks`` ticks of
    asset 1 and ``round(n_ticks * lambda2 / lambda1)`` of asset 2, the
    counts the rates give over one session; ``meta`` records both. A rate
    ratio that leaves asset 2 no finite count, or fewer than 2 ticks, raises
    :class:`InvalidParameter`. Cell seeds derive from
    ``(seed, grid index, replicate)`` so the curve is a pure function of
    ``seed`` regardless of evaluation order. The replicate blocks run on
    every CPU in the process's affinity mask, with the same result as on one.
    A grid of fewer than 5 distinct taus, or fewer than 50 replicates, is
    rejected before anything is simulated.
    """
    grid = np.asarray(sorted(grid), dtype=float)
    if n_rep < 50:
        raise InvalidParameter(f"n_rep must be at least 50, got {n_rep}")
    _check_grid(grid)
    n_ticks2 = n_ticks * (arrival.lambda2 / arrival.lambda1)
    if not np.isfinite(n_ticks2):
        raise InvalidParameter(f"rates lambda1={arrival.lambda1}, lambda2={arrival.lambda2} give asset 2 "
                               f"{n_ticks2} ticks for {n_ticks} of asset 1")
    n_ticks2 = round(n_ticks2)
    specs = [SimSpec(model=param_of_tau(family, float(tau), df=df), margins=margins, lambda1=arrival.lambda1,
                     lambda2=arrival.lambda2, n1=n_ticks, n2=n_ticks2) for tau in grid]
    estimates = _run_cells(specs, n_rep, [seed], _uncorrected_taus).reshape(grid.size, n_rep)

    meta = {
        "family": family,
        "lambda1": arrival.lambda1,
        "lambda2": arrival.lambda2,
        "n_ticks": n_ticks,
        "n_ticks2": n_ticks2,
        "n_rep": n_rep,
        "seed": seed,
        "df": df,
        "rng": RNG_NAME,
    }
    return CorrectionCurve(family, grid, estimates, meta)


def _invert_fit(curve: CorrectionCurve, value: float) -> float:
    """Solve a + b*tau + c*tau^2 = value for tau inside the grid span."""
    a, b, c = curve.quad_coeffs
    lo, hi = curve.span
    if abs(c) < 1e-12:
        root = (value - a) / b
    else:
        disc = b * b - 4.0 * c * (a - value)
        if disc < 0:
            # monotone fit guarantees a real root within the span; a negative
            # discriminant can only occur past the vertex, i.e. outside it
            return hi if c < 0 else lo
        sq = float(np.sqrt(disc))
        r1 = (-b + sq) / (2.0 * c)
        r2 = (-b - sq) / (2.0 * c)
        # the increasing branch holds the root nearest the span
        root = min((r1, r2), key=lambda r: max(lo - r, r - hi, 0.0))
    return float(np.clip(root, lo, hi))


def _check_observation(tau_uncorrected: float) -> None:
    if not np.isfinite(tau_uncorrected):
        raise InvalidParameter(f"observed tau must be finite, got {tau_uncorrected}")


def interval_quad(
    curve: CorrectionCurve, tau_uncorrected: float, level: float = 0.95
) -> IntervalEstimate:
    """Quadratic-regression prediction interval for the true tau.

    The band comes from the truth-on-estimate quadratic fit, whose residual
    scale lives directly in tau units, so the band width is honest at every
    grid row regardless of how the replicate spread varies along the curve.
    The interval is intersected with the grid span; an observation too far
    outside the calibrated cloud raises :class:`CalibrationFailure`. The
    point estimate inverts the forward curve, clipped to the interval.
    """
    if not 0.0 < level < 1.0:
        raise InvalidParameter(f"level must lie in (0, 1), got {level}")
    _check_observation(tau_uncorrected)
    z = float(special.ndtri(0.5 * (1.0 + level)))
    s = curve.inverse_resid_scale
    span_lo, span_hi = curve.span
    center = float(curve.predict_inverse(tau_uncorrected))
    if center + z * s < span_lo or center - z * s > span_hi:
        raise CalibrationFailure(
            f"observation {tau_uncorrected:.4f} is outside the calibrated band"
        )
    lo = float(np.clip(center - z * s, span_lo, span_hi))
    hi = float(np.clip(center + z * s, span_lo, span_hi))
    point = _invert_fit(curve, float(tau_uncorrected))
    return IntervalEstimate(
        point=float(np.clip(point, lo, hi)),
        lo=lo,
        hi=hi,
        level=level,
        method="quad-prediction",
    )


def _invert_band(grid: np.ndarray, band: np.ndarray, value: float, side: str) -> float:
    """The tau where the nondecreasing ``band`` crosses ``value``, interpolated on the grid.

    ``side="right"`` gives the largest tau with band(tau) <= value,
    ``side="left"`` the smallest with band(tau) >= value; they differ only
    where ``value`` equals a band value. Either way ``b0 < b1``, so the
    interpolation is defined.
    """
    idx = np.searchsorted(band, value, side=side)
    if idx == 0:
        return float(grid[0])
    if idx >= band.size:
        return float(grid[-1])
    b0, b1 = band[idx - 1], band[idx]
    t0, t1 = grid[idx - 1], grid[idx]
    return float(t0 + (value - b0) / (b1 - b0) * (t1 - t0))


def interval_quantile(
    curve: CorrectionCurve, tau_uncorrected: float, level: float = 0.95
) -> IntervalEstimate:
    """Regression-free inversion of the per-grid quantile bands.

    The interval collects every grid tau whose empirical replicate band (at
    the requested level) contains the observation - the vertical slice of
    the horizontal band plot. Raises :class:`CalibrationFailure` when no
    grid tau qualifies.
    """
    if not 0.0 < level < 1.0:
        raise InvalidParameter(f"level must lie in (0, 1), got {level}")
    _check_observation(tau_uncorrected)
    band_lo, band_hi = curve.band(level)
    if tau_uncorrected < band_lo[0] or tau_uncorrected > band_hi[-1]:
        raise CalibrationFailure(
            f"observation {tau_uncorrected:.4f} lies outside every calibrated band"
        )
    grid = curve.grid_taus
    # coverage at tau requires band_lo(tau) <= obs <= band_hi(tau)
    lo = _invert_band(grid, band_hi, tau_uncorrected, side="left")
    hi = _invert_band(grid, band_lo, tau_uncorrected, side="right")
    if lo > hi:
        raise CalibrationFailure("empty quantile inversion")
    means = np.maximum.accumulate(curve.estimates.mean(axis=1))
    point = _invert_band(grid, means, tau_uncorrected, side="right")
    return IntervalEstimate(
        point=float(np.clip(point, lo, hi)),
        lo=float(lo),
        hi=float(hi),
        level=level,
        method="quantile-inversion",
    )


def interval_misspecified(paired: PairedSeries, level: float = 0.95) -> IntervalEstimate:
    """Gaussian-copula interval for tau, right or wrong.

    Computes the corrected-correlation confidence interval on ``paired`` and
    maps point and endpoints through the elliptical relation
    ``tau = (2/pi) arcsin(theta)``. Under a true non-elliptical copula this
    interval can be badly miscentered; that failure is the point of
    exposing it.
    """
    cc = corrected_correlation(paired, level=level)
    to_tau = lambda t: float(2.0 / np.pi * np.arcsin(np.clip(t, -1.0, 1.0)))
    return IntervalEstimate(
        point=to_tau(cc.theta_hat),
        lo=to_tau(cc.ci[0]),
        hi=to_tau(cc.ci[1]),
        level=level,
        method="misspecified-elliptical",
    )
