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

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

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
    first = np.maximum.accumulate(np.where(start, pos, 0), axis=1)
    return first, (pos - first).sum(axis=1)


def _min_ranks(v: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based min-rank of each entry within its row, and the tied pairs of
    each row, whose first ``m[r]`` entries are below the rest.
    """
    order = np.argsort(v, axis=1)
    first, tied = _runs(np.take_along_axis(v, order, axis=1), m)
    ranks = np.empty_like(first)
    np.put_along_axis(ranks, order, first, axis=1)
    return ranks, tied


# Rows of up to this many returns are counted by direct comparison, longer
# ones by scipy. Per row in blocks of 10 on a 2-core host: 0.05 against
# 0.45 ms at 200 returns, 0.12 against 0.50 ms at 400. The direct count
# would still win beyond 400, but its comparison matrix grows as width^2
# bytes per row. Rows are compared in chunks whose matrix stays within
# _DENSE_BYTES (one row at a time past 362 returns), small enough that
# calibration's peak resident memory does not grow. Ranks are int16: 0 to
# _DENSE_MAX_RETURNS - 1, and -1 for padding.
_DENSE_MAX_RETURNS = 400
_DENSE_BYTES = 1 << 17
assert _DENSE_MAX_RETURNS <= np.iinfo(np.int16).max


def _kendall_rows(xy: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(concordant - discordant, untied pair count) of each row of returns.

    Row ``r`` of ``xy[0]`` (x) and ``xy[1]`` (y) holds ``n[r]`` finite
    returns, then padding of any value up to the common width. Every row is
    ranked in one stacked pass, which gives ``tx``, ``ty`` and ``txy``, its
    pairs tied in x, in y and in both, and so its ``n0 - tx - ty + txy``
    untied pairs, ``n0`` being all ``n (n - 1) / 2``. The caller's padding
    is first overwritten with +inf, which sorts after every return, and
    ``_runs`` counts no tie past a row's first ``n[r]`` entries, so a row
    of fewer than two returns counts nothing. The key ``x_rank * width +
    y_rank`` puts the row in (x, y) lexicographic order, padding last.

    A row of 2 to ``_DENSE_MAX_RETURNS`` returns is counted in that order:
    one int16 comparison per pair over the strict upper triangle counts
    ``G``, the pairs ``i < j`` with ``y_j > y_i``; the padding's y-rank is
    -1, so it counts for nothing. Pairs tied in x come out in ascending y,
    so ``tx - txy`` of them fall in ``G``, and ``G - tx + txy`` pairs are
    concordant. The other ``n0 - G - ty`` untied pairs are discordant. A
    longer row rounds concordant minus discordant back from the tau-b of
    ``scipy.stats.kendalltau`` as ``tau_b * sqrt((n0 - tx) (n0 - ty))``,
    unless every pair is tied, where scipy returns NaN.
    """
    cmd = np.zeros(n.size, dtype=np.int64)
    if not (n >= 2).any():  # no row has a pair
        return cmd, cmd.copy()
    width = int(n.max())
    pos = np.arange(width)
    pad = pos >= n[:, None]
    xy = xy[:, :, :width]
    np.copyto(xy, np.inf, where=pad)  # argsort runs ~3x slower on rows holding NaN
    ranks, tied = _min_ranks(xy.reshape(2 * n.size, width), np.tile(n, 2))
    (xr, yr), (tx, ty) = ranks.reshape(xy.shape), tied.reshape(2, -1)
    key = xr * width + yr
    order = np.argsort(key, axis=1)
    _, txy = _runs(np.take_along_axis(key, order, axis=1), n)
    n0 = n * (n - 1) // 2
    untied = n0 - tx - ty + txy
    dense = (n >= 2) & (n <= _DENSE_MAX_RETURNS)
    if dense.any():
        d_width = int(n[dense].max())
        # padding can sort to an index past d_width, so gather at full width
        ys = np.take_along_axis(yr[dense], order[dense], axis=1)[:, :d_width].astype(np.int16)
        ys[pad[dense, :d_width]] = -1
        d_pos = pos[:d_width]
        upper = d_pos[:, None] < d_pos  # [i, j]: j > i
        step = max(1, _DENSE_BYTES // (d_width * d_width))
        greater = np.empty((min(step, ys.shape[0]), d_width, d_width), dtype=bool)
        g_count = np.empty(ys.shape[0], dtype=np.int64)
        for lo in range(0, ys.shape[0], step):
            chunk = ys[lo: lo + step]
            g = greater[: chunk.shape[0]]
            np.greater(chunk[:, None, :], chunk[:, :, None], out=g)
            g &= upper
            g_count[lo: lo + step] = [np.count_nonzero(row) for row in g]
        cmd[dense] = 2 * g_count - (tx - txy - ty + n0)[dense]
    # (n0 - tx) * (n0 - ty) passes the int64 range near 78k returns: take it in Python ints
    for r in np.flatnonzero(~dense & (untied > 0)):
        tau_b = float(stats.kendalltau(xy[0, r, :n[r]], xy[1, r, :n[r]]).statistic)
        cmd[r] = round(tau_b * math.sqrt(int(n0[r] - tx[r]) * int(n0[r] - ty[r])))
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
    width)`` array that :func:`_kendall_rows` pads in place, whose one rank
    pass gives every group's tied pairs. Only the concordance of a group of
    more than ``_DENSE_MAX_RETURNS`` returns comes from scipy: concordant
    minus discordant is rounded back from the tau-b of
    ``scipy.stats.kendalltau``. That is exact only while n^2 * 1e-16 is far
    below 0.5, so more than ``MAX_KENDALL_RETURNS`` (10^7) returns raise
    ``InvalidParameter``, as do non-finite returns.
    """
    if basis not in ("all-pairs", "same-config"):
        raise InvalidParameter(f"unknown basis {basis!r}")
    rx, ry = p.returns()
    if rx.size > MAX_KENDALL_RETURNS:
        raise InvalidParameter(f"Kendall counts are exact only up to {MAX_KENDALL_RETURNS} returns")
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
