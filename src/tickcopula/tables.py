"""Scripted Monte Carlo studies: estimator comparisons and interval coverage.

Each function runs a deterministic seeded experiment and returns plain row
dictionaries ready for CSV serialization. The same entry points back the
``reproduce`` CLI subcommand and the acceptance test suite.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from .arrival_theory import PoissonPair
from .calibration import (
    CalibrationFailure,
    build_curve,
    interval_misspecified,
    interval_quad,
    interval_quantile,
)
from .copulas import CopulaModel, param_of_tau
from .errors import InsufficientData
from .estimators import corrected_correlation, kendall_tau
from .pairing import _refresh_stamped, pair_previous_tick, pair_ticks
from .synthesis import _check_n_rep, _per_sample, _run_cells, simulate  # noqa: F401 (perfbench tests the tables.simulate binding)

STANDARD_NORMAL = (stats.norm(0.0, 1.0), stats.norm(0.0, 1.0))

# grid spacing for the previous-tick baseline, in units of 1/lambda
PREV_TICK_DELTA_FACTOR = 2.0


def _one_replicate(sim, lam):
    """The three competing correlation estimates on one simulated sample.

    Refresh-time pairs hold the tick-retaining price pairs, so the refresh
    estimate is the uncorrected correlation ``cc.rho_hat``.
    """
    cc = corrected_correlation(pair_ticks(sim.a, sim.b))
    try:
        prev = pair_previous_tick(sim.a, sim.b, PREV_TICK_DELTA_FACTOR / lam)
        px, py = prev.returns()
        prev_est = float(np.corrcoef(px, py)[0, 1])
    except InsufficientData:
        prev_est = np.nan
    return prev_est, cc.rho_hat, cc.theta_hat


def gaussian_estimator_study(
    cells=((-0.4, 800), (0.1, 800), (0.2, 800), (0.8, 800),
           (-0.4, 2000), (0.1, 2000), (0.2, 2000), (0.8, 2000),
           (-0.4, 5000), (0.1, 5000), (0.2, 5000), (0.8, 5000)),
    n_rep: int = 100,
    lam: float = 1.0,
    seed: int = 1,
) -> list[dict]:
    """Mean/sd and MSE of the three estimators on Gaussian-copula data.

    One row per (rho, n) cell; the row carries both the moment summaries
    and the mean squared errors against the true rho.
    """
    ests = _run_cells(
        [(CopulaModel("gaussian", rho), STANDARD_NORMAL, n) for rho, n in cells],
        n_rep, [seed], _per_sample(lambda sim: _one_replicate(sim, lam)), lambda1=lam, lambda2=lam,
    )
    rows = []
    for (rho, n), cell in zip(cells, ests):
        prev, refresh, corrected = cell.T
        prev = prev[np.isfinite(prev)]
        row = {"rho": rho, "n": n, "n_rep": n_rep}
        for name, arr in (("prev_tick", prev), ("refresh", refresh), ("corrected", corrected)):
            row[f"{name}_mean"] = float(arr.mean())
            row[f"{name}_sd"] = float(arr.std(ddof=1))
            row[f"{name}_mse"] = float(np.mean((arr - rho) ** 2))
        rows.append(row)
    return rows


def _uncorrected_and_corrected(sim):
    cc = corrected_correlation(pair_ticks(sim.a, sim.b))
    return cc.rho_hat, cc.theta_hat


def t_copula_margin_study(
    rho: float = -0.4,
    df: int = 8,
    n: int = 2000,
    n_rep: int = 100,
    lam: float = 1.0,
    seed: int = 2,
) -> list[dict]:
    """Uncorrected vs corrected estimates under a t copula, varied margins."""
    margin_rows = [
        ("t(5), t(7)", (stats.t(5), stats.t(7))),
        ("N(0,2), N(0,4)", (stats.norm(0, 2), stats.norm(0, 4))),
        ("t(4), N(0,3)", (stats.t(4), stats.norm(0, 3))),
    ]
    model = CopulaModel("student_t", rho, df=df)
    ests = _run_cells([(model, margins, n) for _, margins in margin_rows], n_rep, [seed],
                      _per_sample(_uncorrected_and_corrected), lambda1=lam, lambda2=lam)
    rows = []
    for (label, _), cell in zip(margin_rows, ests):
        unc, cor = cell.T
        rows.append(
            {
                "margins": label,
                "uncorrected_mean": float(unc.mean()),
                "uncorrected_sd": float(unc.std(ddof=1)),
                "corrected_mean": float(cor.mean()),
                "corrected_sd": float(cor.std(ddof=1)),
            }
        )
    return rows


_METHODS = ("quad", "quantile", "elliptical")


def _interval_bounds(sim, curve, level):
    """``[lo, hi]`` of each interval method on one sample; NaN where it failed."""
    paired = pair_ticks(sim.a, sim.b)
    tau_obs = kendall_tau(paired, basis="all-pairs").tau_hat
    methods = (
        lambda: interval_quad(curve, tau_obs, level),
        lambda: interval_quantile(curve, tau_obs, level),
        lambda: interval_misspecified(_refresh_stamped(paired), level),
    )
    bounds = []
    for method in methods:
        try:
            iv = method()
        except CalibrationFailure:
            bounds += [np.nan, np.nan]
        else:
            bounds += [iv.lo, iv.hi]
    return bounds


def coverage_study(
    families=("clayton", "gumbel"),
    taus=(0.1, 0.2, 0.3, 0.5),
    n_rep: int = 100,
    n_ticks: int = 350,
    curve_grid=None,
    curve_n_rep: int = 200,
    lam: float = 1.0,
    level: float = 0.95,
    seed: int = 3,
) -> list[dict]:
    """Coverage probability, mean length and failures of the three interval methods.

    One calibration curve per family (built once), then ``n_rep`` fresh
    simulations per (family, tau) row. A replicate counts as covered when
    the method's interval contains the true tau. An inversion failure
    (:class:`CalibrationFailure`) counts as a miss, adds no length, and is
    counted in the row's ``n_fail_<method>``. The misspecified-elliptical
    method runs on the refresh-time synchronized series, the object a naive
    Gaussian analysis would use.
    """
    _check_n_rep(n_rep)  # before the curves, the costly part
    if curve_grid is None:
        curve_grid = np.linspace(0.02, 0.75, 12)
    arrival = PoissonPair(lam, lam)
    rows = []
    for fi, family in enumerate(families):
        curve = build_curve(
            family,
            arrival,
            STANDARD_NORMAL,
            grid=curve_grid,
            n_rep=curve_n_rep,
            n_ticks=n_ticks,
            seed=[seed, fi],
        )
        bounds = _run_cells(
            [(param_of_tau(family, tau), STANDARD_NORMAL, n_ticks) for tau in taus],
            n_rep, [seed, 17 + fi], _per_sample(lambda sim: _interval_bounds(sim, curve, level)),
            lambda1=lam, lambda2=lam,
        ).reshape(len(taus), n_rep, len(_METHODS), 2)
        for tau_true, cell in zip(taus, bounds):
            lo, hi = cell[..., 0], cell[..., 1]
            hits = ((lo <= tau_true) & (tau_true <= hi)).sum(axis=0)
            lengths = hi - lo
            failed = np.isnan(lengths)
            row = {"family": family, "tau": tau_true, "n_rep": n_rep}
            for k, name in enumerate(_METHODS):
                ok = lengths[~failed[:, k], k]
                row[f"cp_{name}"] = float(hits[k] / n_rep)
                # cumsum adds left to right like a running total; np.sum's
                # pairwise order can move the last bit of the mean length
                row[f"len_{name}"] = float(np.cumsum(ok)[-1] / ok.size) if ok.size else np.nan
            row.update((f"n_fail_{name}", int(n)) for name, n in zip(_METHODS, failed.sum(axis=0)))
            rows.append(row)
    return rows
