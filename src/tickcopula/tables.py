"""Scripted Monte Carlo studies: estimator comparisons and interval coverage.

Each function runs a deterministic seeded experiment and returns plain row
dictionaries ready for CSV serialization. The same entry points back the
``reproduce`` CLI subcommand and the acceptance test suite.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .arrival_theory import PoissonPair
from .calibration import (
    CalibrationFailure,
    _block_taus,
    _paired_rows,
    build_curve,
    interval_misspecified,
    interval_quad,
    interval_quantile,
)
from .copulas import CopulaModel, param_of_tau
from .estimators import corrected_correlation, kendall_tau
from .pairing import _refresh_stamped, pair_previous_tick, pair_ticks
from .synthesis import SimSpec, _NormalMargin, _TMargin, _check_n_rep, _run_cells, simulate

STANDARD_NORMAL = (_NormalMargin(0.0, 1.0), _NormalMargin(0.0, 1.0))

# every study simulates both assets at this arrival rate, in ticks per second
_RATE = 1.0
# grid spacing for the previous-tick baseline, in units of 1/lambda
PREV_TICK_DELTA_FACTOR = 2.0


def _at_rate(model, margins, n_ticks: int) -> SimSpec:
    """The seedless spec of ``n_ticks`` ticks per asset, both assets at ``_RATE``."""
    return SimSpec(model=model, margins=margins, lambda1=_RATE, lambda2=_RATE, n1=n_ticks, n2=n_ticks)


def _uncorrected_and_corrected(paired):
    cc = corrected_correlation(paired)
    return cc.rho_hat, cc.theta_hat


def _replicates(spec, seeds):
    """The three competing correlation estimates on each seed's sample, simulated and paired alone.

    Table 1's block estimator. Refresh-time pairs hold the tick-retaining
    price pairs, so the refresh estimate is the uncorrected correlation.
    """
    out = []
    for seed in seeds:
        sim = simulate(replace(spec, seed=seed))
        refresh, corrected = _uncorrected_and_corrected(pair_ticks(sim.a, sim.b))
        px, py = pair_previous_tick(sim.a, sim.b, PREV_TICK_DELTA_FACTOR / _RATE).returns()
        out.append((float(np.corrcoef(px, py)[0, 1]), refresh, corrected))
    return out


def gaussian_estimator_study(
    cells=((-0.4, 800), (0.1, 800), (0.2, 800), (0.8, 800),
           (-0.4, 2000), (0.1, 2000), (0.2, 2000), (0.8, 2000),
           (-0.4, 5000), (0.1, 5000), (0.2, 5000), (0.8, 5000)),
    n_rep: int = 100,
    seed: int = 1,
) -> list[dict]:
    """Mean/sd and MSE of the three estimators on Gaussian-copula data.

    One row per (rho, n) cell; the row carries both the moment summaries
    and the mean squared errors against the true rho. The replicate blocks
    run on the fork pool of :func:`_run_cells`, with the one-CPU result bit
    for bit, and the calling process runs one share of them itself:
    perfbench's spans time the ``simulate`` and ``pair_ticks`` calls of that
    share. The deal rotates each cell's blocks across the shares, so a
    5000-tick cell's blocks of 2 and 3 replicates (``n_rep=5``) fall on
    different shares, and on two CPUs the calling process and its worker
    each run 30 of the 60 replicates. Each block's replicates are simulated
    and paired one seed at a time (:func:`_replicates`), so the calling
    process holds one sample at a time, as it did when it ran every
    replicate.
    """
    ests = _run_cells([_at_rate(CopulaModel("gaussian", rho), STANDARD_NORMAL, n) for rho, n in cells],
                      n_rep, [seed], _replicates, in_parent=True)
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


def t_copula_margin_study(n_rep: int = 100, seed: int = 2) -> list[dict]:
    """Uncorrected vs corrected estimates under a t(8) copula at rho = -0.4, varied margins.

    Each sample has 2000 ticks per asset. Each block of replicates is
    simulated and paired at once, and hands back each seed's pairs in seed
    order, replaying a row it may not stand for when that row is reached
    (:func:`_corrected_rows`); the rows and errors are a per-seed loop's.
    The blocks run on the fork pool of :func:`_run_cells`, with the
    in-process result bit for bit.
    """
    margin_rows = [
        ("t(5), t(7)", (_TMargin(5), _TMargin(7))),
        ("N(0,2), N(0,4)", (_NormalMargin(0, 2), _NormalMargin(0, 4))),
        ("t(4), N(0,3)", (_TMargin(4), _NormalMargin(0, 3))),
    ]
    model = CopulaModel("student_t", -0.4, df=8)
    ests = _run_cells([_at_rate(model, margins, 2000) for _, margins in margin_rows], n_rep, [seed],
                      _corrected_rows)
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


def _corrected_rows(spec, seeds):
    """:func:`_uncorrected_and_corrected` of each seed's pairs, as one :func:`_paired_rows` block hands them back."""
    return [_uncorrected_and_corrected(paired) for paired in _paired_rows(spec, seeds)[0]]


_METHODS = ("quad", "quantile", "elliptical")


def _coverage_bounds(spec, seeds, curve):
    """:func:`_interval_bounds` of each seed's pairs and tau, as one :func:`_paired_rows` block hands them back.

    Where the block leaves a row's tau NaN, ``kendall_tau`` counts that
    row's own pairs, as a loop over the seeds would.
    """
    rows, returns = _paired_rows(spec, seeds)
    return [_interval_bounds(paired, kendall_tau(paired).tau_hat if np.isnan(tau) else tau, curve)
            for paired, tau in zip(rows, _block_taus(*returns))]


def _interval_bounds(paired, tau_obs, curve):
    """``[lo, hi]`` of each interval method on one sample's pairs and tau; NaN where it failed."""
    methods = (
        lambda: interval_quad(curve, tau_obs),
        lambda: interval_quantile(curve, tau_obs),
        lambda: interval_misspecified(_refresh_stamped(paired)),
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
    curve_n_rep: int = 200,
    seed: int = 3,
) -> list[dict]:
    """Coverage probability, mean length and failures of the three 95 % interval methods.

    One calibration curve per family (built once, on 12 true taus from 0.02
    to 0.75), then ``n_rep`` fresh simulations per (family, tau) row. A
    replicate counts as covered when the method's interval contains the
    true tau. An inversion failure (:class:`CalibrationFailure`) counts as
    a miss, adds no length, and is counted in the row's
    ``n_fail_<method>``. The misspecified-elliptical method runs on the
    refresh-time synchronized series, the object a naive Gaussian analysis
    would use. Each block of replicates is simulated, paired and counted at
    once, as a curve's is; the intervals then run on each seed's pairs and
    tau in seed order, and a row whose tau the block leaves NaN is counted
    on its own pairs (:func:`_coverage_bounds`). The curves and the
    replicate blocks run on the fork pool of :func:`_run_cells`.
    """
    _check_n_rep(n_rep)  # before the curves, the costly part
    arrival = PoissonPair(_RATE, _RATE)
    rows = []
    for fi, family in enumerate(families):
        curve = build_curve(
            family,
            arrival,
            STANDARD_NORMAL,
            grid=np.linspace(0.02, 0.75, 12),
            n_rep=curve_n_rep,
            n_ticks=n_ticks,
            seed=[seed, fi],
        )
        bounds = _run_cells(
            [_at_rate(param_of_tau(family, tau), STANDARD_NORMAL, n_ticks) for tau in taus],
            n_rep, [seed, 17 + fi], lambda spec, seeds: _coverage_bounds(spec, seeds, curve),
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
