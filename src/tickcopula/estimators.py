"""Dependence estimators on paired nonsynchronous data.

``corrected_correlation`` multiplies the naive paired-sample correlation by
the empirical factor ``w = sqrt(m1*m2)/m_overlap`` (>= 1 for tick-retaining
pairings) and builds a variance-stabilized confidence interval from the
pivot ``sqrt(n) * (f(theta_hat) - f(theta))`` with
``f(x) = artanh(x / w)``.

``kendall_tau`` is the concordance estimator over paired returns, either
across all return pairs or restricted to pairs of returns sharing the same
nested ordering configuration (1 or 4). Tied pairs are excluded from both
the numerator and the denominator and reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.stats._stats import _kendall_dis

from .errors import InsufficientData, InvalidParameter
from .pairing import PairDiagnostics, PairedSeries, diagnostics


@dataclass(frozen=True)
class CorrectedCorrelation:
    """Corrected paired-sample correlation with its confidence interval.

    ``theta_hat = w * rho_hat`` clamped into [-1, 1] (``clamped`` records
    whether this was necessary); ``ci`` is (lo, hi, level).
    """

    rho_hat: float
    w: float
    theta_hat: float
    clamped: bool
    n: int
    ci: tuple[float, float, float]
    diag: PairDiagnostics


def corrected_correlation(p: PairedSeries, level: float = 0.95) -> CorrectedCorrelation:
    """Correct the paired-sample correlation for nonsynchronicity.

    Parameters
    ----------
    p : PairedSeries
        Output of a tick-retaining pairing (all overlaps must be positive).
    level : float
        Nominal two-sided confidence level in (0, 1).

    Notes
    -----
    The confidence interval inverts the asymptotic standard-normal pivot of
    ``f(theta) = 0.5 * [log(1 + theta/w) - log(1 - theta/w)]`` with the
    population ratio replaced by its consistent empirical estimate ``w``;
    endpoints are therefore ``w * tanh(artanh(rho_hat) -/+ z / sqrt(n))``,
    intersected with [-1, 1].
    """
    if not 0.0 < level < 1.0:
        raise InvalidParameter(f"level must lie in (0, 1), got {level}")
    if len(p) < 10:
        raise InsufficientData(f"need at least 10 pairs, got {len(p)}")
    diag = diagnostics(p)
    rx, ry = p.returns()
    n = rx.size
    if np.ptp(rx) == 0.0 or np.ptp(ry) == 0.0:
        raise InvalidParameter("a return leg has zero variance; its correlation is undefined")
    rho_hat = float(np.corrcoef(rx, ry)[0, 1])
    w = diag.w
    theta_raw = w * rho_hat
    clamped = abs(theta_raw) >= 1.0
    theta_hat = float(np.clip(theta_raw, -1.0, 1.0))
    z = special.ndtri(0.5 * (1.0 + level))
    fhat = np.arctanh(np.clip(rho_hat, -1.0 + 1e-15, 1.0 - 1e-15))
    lo = w * np.tanh(fhat - z / np.sqrt(n))
    hi = w * np.tanh(fhat + z / np.sqrt(n))
    lo = float(np.clip(lo, -1.0, 1.0))
    hi = float(np.clip(hi, -1.0, 1.0))
    return CorrectedCorrelation(
        rho_hat=rho_hat,
        w=w,
        theta_hat=theta_hat,
        clamped=clamped,
        n=n,
        ci=(lo, hi, level),
        diag=diag,
    )


# ---------------------------------------------------------------------------
# Kendall's tau


# The most returns kendall_tau counts. Its counts are exact integers at any
# size; the cap bounds the memory of the one rank pass, which traces about
# 75 bytes a return (9.6 MiB at 133k returns), so under 1 GB at the cap.
MAX_KENDALL_RETURNS = 10_000_000


def _runs(s: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the run of equal values holding each entry of sorted rows ``s``
    starts, and each row's tied pairs. Row ``r`` counts its first ``m[r]``
    entries; each later entry is a run of its own, whatever its value.
    """
    pos = np.arange(s.shape[1])
    start = np.ones(s.shape, dtype=bool)
    np.not_equal(s[:, 1:], s[:, :-1], out=start[:, 1:])
    start[:, 1:] |= pos[1:] >= m[:, None]
    first = np.where(start, pos, 0)
    np.maximum.accumulate(first, axis=1, out=first)
    return first, pos.sum() - first.sum(axis=1)  # the sum of pos - first


def _kendall_rows(xy: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(concordant - discordant, untied pair count) of each row of returns.

    Row ``r`` of ``xy[0]`` (x) and ``xy[1]`` (y) holds ``n[r]`` finite
    returns, then padding of any value up to the common width. The caller's
    padding is first overwritten with +inf, which sorts after every return,
    and ``_runs`` counts no tie past a row's first ``n[r]`` entries, so a
    row of fewer than two returns counts nothing. One stacked argsort puts
    every row in x order and gives each return's min-rank in x and in y,
    and so ``tx`` and ``ty``, the row's pairs tied in x and in y. Pairs tied
    in both (``txy``) can exist only in a row tied in both; such a row is
    sorted on the key ``x_rank * width + y_rank`` to count them. A row has
    ``untied = n0 - tx - ty + txy`` pairs that differ in both, ``n0`` being
    all ``n (n - 1) / 2``.

    scipy's compiled ``_kendall_dis``, the O(n log n) count that
    ``scipy.stats.kendalltau`` calls, takes the x ranks in x order and the y
    ranks from 1 and returns the discordant pairs, those with ``x_i < x_j``
    and ``y_i > y_j``. The other untied pairs are concordant, so
    concordant minus discordant is ``untied - 2 dis``, in exact integers.
    """
    cmd = np.zeros(n.size, dtype=np.int64)
    if not (n >= 2).any():  # no row has a pair
        return cmd, cmd.copy()
    k, width = n.size, int(n.max())
    xy = xy[:, :, :width]
    np.copyto(xy, np.inf, where=np.arange(width) >= n[:, None])  # argsort runs ~3x slower on NaN
    v = xy.reshape(2 * k, width)
    order = np.argsort(v, axis=1)
    first, tied = _runs(np.take_along_axis(v, order, axis=1), np.tile(n, 2))
    (tx, ty), xr = tied.reshape(2, k), first[:k]  # xr: x min-ranks in x order
    yr = np.empty_like(xr)
    np.put_along_axis(yr, order[k:], first[k:], axis=1)
    yr = np.take_along_axis(yr, order[:k], axis=1)  # y min-ranks in x order
    txy = np.zeros_like(tx)
    both = (tx > 0) & (ty > 0)
    if both.any():
        key = xr[both] * width + yr[both]
        key.sort(axis=1)
        txy[both] = _runs(key, n[both])[1]
    untied = n * (n - 1) // 2 - tx - ty + txy
    yr += 1  # _kendall_dis counts y ranks from 1
    for r in np.flatnonzero(untied > 0):
        cmd[r] = untied[r] - 2 * _kendall_dis(xr[r, : n[r]], yr[r, : n[r]])
    return cmd, untied


@dataclass(frozen=True)
class TauEstimate:
    """Sample Kendall tau over paired returns."""

    tau_hat: float
    basis: str  # "all-pairs" or "same-config"
    n_used: int
    n_pairs_compared: int
    n_tied: int


def kendall_tau(p: PairedSeries, basis: str = "all-pairs") -> TauEstimate:
    """Kendall's tau of the paired returns.

    ``basis="all-pairs"`` compares every pair of return observations.
    ``basis="same-config"`` compares only returns that share an ordering
    configuration label, within each of the nested configurations 1 and 4.

    Each group's returns are copied once, into a row of the ``(2, groups,
    width)`` array that :func:`_kendall_rows` pads in place. Its one rank
    pass gives every group's tied pairs, and scipy's compiled discordance
    count the rest, all as exact integers. More than
    ``MAX_KENDALL_RETURNS`` (10^7) returns raise ``InvalidParameter``, as
    do non-finite returns.
    """
    if basis not in ("all-pairs", "same-config"):
        raise InvalidParameter(f"unknown basis {basis!r}")
    rx, ry = p.returns()
    if rx.size > MAX_KENDALL_RETURNS:
        raise InvalidParameter(f"Kendall tau counts up to {MAX_KENDALL_RETURNS} returns, got {rx.size}")
    if not (np.isfinite(rx).all() and np.isfinite(ry).all()):
        raise InvalidParameter("Kendall tau needs finite returns")
    if basis == "all-pairs":
        groups = [np.ones(rx.size, dtype=bool)]
    else:
        labels = diagnostics(p).configs
        groups = [labels == 1, labels == 4]
    n = np.array([np.count_nonzero(mask) for mask in groups])
    xy = np.empty((2, n.size, n.max()))
    for r, mask in enumerate(groups):
        xy[0, r, : n[r]], xy[1, r, : n[r]] = rx[mask], ry[mask]
    del rx, ry  # the rows of xy hold the returns now
    cmd, untied = _kendall_rows(xy, n)
    n_compared = int(untied.sum())
    if n_compared == 0:
        raise InsufficientData("no two returns are comparable: too few, or every pair tied")
    return TauEstimate(
        tau_hat=int(cmd.sum()) / n_compared,
        basis=basis,
        n_used=int(n[n >= 2].sum()),
        n_pairs_compared=n_compared,
        n_tied=int((n * (n - 1) // 2).sum()) - n_compared,
    )
