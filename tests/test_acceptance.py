"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Every criterion is a deterministic seeded Monte Carlo experiment; the
expected values and tolerance bands are fixed up front. Run with ``-s`` to
see the per-criterion report lines.
"""

import numpy as np
import pytest
from scipy import stats

from tickcopula import (
    CopulaModel,
    PoissonPair,
    SimSpec,
    TickSeries,
    corrected_correlation,
    diagnostics,
    kendall_tau,
    pair_ticks,
    plugin_copula,
    simulate,
    theory_report,
)
from tickcopula.copulas import cdf as copula_cdf
from tickcopula.tables import (
    STANDARD_NORMAL,
    coverage_study,
    gaussian_estimator_study,
    t_copula_margin_study,
)

from conftest import dependence_checks, kendall_tau_brute, poisson_ticks, refresh_pairs_oracle


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


ACCEPT_CELLS = ((-0.4, 2000), (0.2, 2000), (0.8, 2000), (0.8, 800))

# reference values: estimator means (and their replicate sd) reported for
# 100-simulation studies of the Gaussian copula at the four cells above
REF_CORRECTED = {(-0.4, 2000): -0.4022, (0.2, 2000): 0.1911, (0.8, 2000): 0.7888, (0.8, 800): 0.7885}
REF_CORRECTED_SD = {(-0.4, 2000): 0.039, (0.2, 2000): 0.046, (0.8, 2000): 0.029, (0.8, 800): 0.051}
REF_REFRESH = {(-0.4, 2000): -0.2682, (0.2, 2000): 0.1274, (0.8, 2000): 0.5258, (0.8, 800): 0.5255}


@pytest.fixture(scope="module")
def estimator_rows():
    return {
        (row["rho"], row["n"]): row
        for row in gaussian_estimator_study(cells=ACCEPT_CELLS, n_rep=100, seed=1)
    }


def test_criterion_1_gaussian_estimator_means(estimator_rows):
    """Corrected/refresh means and sds at the four benchmark cells."""
    details = []
    ok = True
    for cell in ACCEPT_CELLS:
        row = estimator_rows[cell]
        d_cor = abs(row["corrected_mean"] - REF_CORRECTED[cell])
        d_ref = abs(row["refresh_mean"] - REF_REFRESH[cell])
        sd_lo = 0.5 * REF_CORRECTED_SD[cell]
        sd_hi = 1.5 * REF_CORRECTED_SD[cell]
        cell_ok = (
            d_cor <= 0.02 and d_ref <= 0.03 and sd_lo <= row["corrected_sd"] <= sd_hi
        )
        ok &= cell_ok
        details.append(
            f"rho={cell[0]} n={cell[1]}: corrected {row['corrected_mean']:.4f} "
            f"(target {REF_CORRECTED[cell]}±0.02), refresh {row['refresh_mean']:.4f} "
            f"(target {REF_REFRESH[cell]}±0.03), sd {row['corrected_sd']:.4f}"
        )
    report(1, ok, "; ".join(details))
    assert ok


def test_criterion_2_mse_ordering(estimator_rows):
    """MSE(corrected) < MSE(refresh) < MSE(previous-tick) everywhere."""
    ok = True
    for cell in ACCEPT_CELLS:
        row = estimator_rows[cell]
        ok &= row["corrected_mse"] < row["refresh_mse"] < row["prev_tick_mse"]
    key = estimator_rows[(0.8, 2000)]
    ok &= key["corrected_mse"] <= 0.003
    ok &= key["refresh_mse"] >= 0.05
    report(
        2,
        ok,
        f"at rho=0.8 n=2000: mse corrected {key['corrected_mse']:.4f} <= 0.003, "
        f"refresh {key['refresh_mse']:.4f} >= 0.05, prev-tick {key['prev_tick_mse']:.4f}",
    )
    assert ok


def test_criterion_3_t_copula_margins():
    """t copula (df 8, rho -0.4): corrected ~ -0.39, uncorrected ~ -0.26."""
    rows = t_copula_margin_study(n_rep=100, seed=2)
    ok = True
    details = []
    for row in rows:
        cell_ok = (
            abs(row["corrected_mean"] - (-0.39)) <= 0.02
            and abs(row["uncorrected_mean"] - (-0.26)) <= 0.02
        )
        ok &= cell_ok
        details.append(
            f"{row['margins']}: corrected {row['corrected_mean']:.4f}, "
            f"uncorrected {row['uncorrected_mean']:.4f}"
        )
    report(3, ok, "; ".join(details))
    assert ok


def test_criterion_4_interval_coverage():
    """Coverage/length of the three interval methods over 8 (family, tau) rows."""
    rows = coverage_study(n_rep=100, n_ticks=350, curve_n_rep=200, seed=3)
    quad_cov_ok = all(r["cp_quad"] >= 0.92 for r in rows)
    grand_len = float(np.mean([r["len_quad"] for r in rows]))
    len_ok = abs(grand_len - 0.31) <= 0.05
    quant_ok = all(r["cp_quantile"] >= 0.90 for r in rows)
    ellip = {(r["family"]): r["cp_elliptical"] for r in rows if r["tau"] == 0.5}
    ellip_ok = all(cp <= 0.40 for cp in ellip.values())
    ok = quad_cov_ok and len_ok and quant_ok and ellip_ok
    report(
        4,
        ok,
        f"min cp_quad {min(r['cp_quad'] for r in rows):.2f} >= 0.92, mean quad length "
        f"{grand_len:.3f} in 0.31±0.05, min cp_quantile "
        f"{min(r['cp_quantile'] for r in rows):.2f} >= 0.90, misspecified cp at tau=0.5 "
        f"{ellip} <= 0.40",
    )
    assert ok


def test_criterion_5_arrival_series():
    """Closed forms at equal rates; brute-force series check at unequal rates."""
    ok = True
    for lam in (0.5, 1.0, 2.0):
        r = theory_report(PoissonPair(lam, lam), tol=1e-12)
        ok &= abs(r.expected_overlap - 2.0 / lam) < 1e-10
        ok &= abs(r.expected_dt1 - 1.5 / lam) < 1e-10
        ok &= abs(r.expected_dt2 - 1.5 / lam) < 1e-10
        ok &= abs(r.gamma - 0.75) < 1e-10
    brute_ok = True
    for lam1, lam2 in ((1.0, 3.0), (0.7, 1.3)):
        pp = PoissonPair(lam1, lam2)
        r = theory_report(pp, tol=1e-12)
        n = np.arange(1, 1_000_001, dtype=float)
        x1, x2 = pp.x1, pp.x2
        ei = 0.5 * (1 / lam1 + 1 / lam2) * float(np.sum(n * (x2 * x1**n + x1 * x2**n)))
        eta1 = float(np.sum((1 - x1) * x1**n + n * x1 * (1 - x1) ** n))
        eta2 = float(np.sum((1 - x2) * x2**n + n * x2 * (1 - x2) ** n))
        brute_ok &= abs(r.expected_overlap - ei) <= r.truncation_error_bound + 1e-13
        brute_ok &= abs(r.expected_dt1 - eta1 / lam1) <= r.truncation_error_bound + 1e-13
        brute_ok &= abs(r.expected_dt2 - eta2 / lam2) <= r.truncation_error_bound + 1e-13
    ok &= brute_ok
    r1 = theory_report(PoissonPair(1.0, 1.0))
    report(
        5,
        ok,
        f"equal rates: overlap {r1.expected_overlap:.12f} (2), dt {r1.expected_dt1:.12f} "
        f"(1.5), gamma {r1.gamma:.12f} (0.75); unequal-rate sums within reported bounds",
    )
    assert ok


def test_criterion_6_pivot_normality():
    """KS test of the variance-stabilized pivot against N(0,1) at the 1% level."""
    rho_true = 0.4
    zs = np.empty(500)
    for s in range(500):
        sim = simulate(
            SimSpec(
                model=CopulaModel("gaussian", rho_true),
                margins=STANDARD_NORMAL,
                lambda1=1.0,
                lambda2=1.0,
                n1=2000,
                n2=2000,
                seed=[20, s],
            )
        )
        cc = corrected_correlation(pair_ticks(sim.a, sim.b))
        zs[s] = np.sqrt(cc.n) * (
            np.arctanh(cc.rho_hat) - np.arctanh(rho_true / cc.w)
        )
    ks = stats.kstest(zs, "norm")
    ok = ks.pvalue > 0.01
    report(6, ok, f"KS statistic {ks.statistic:.4f}, p-value {ks.pvalue:.4f} > 0.01")
    assert ok


def test_criterion_7_sign_identities():
    """Under- but same-sign estimation on the nested configurations."""
    ok = True
    details = []
    for config in (1, 4):
        rep = dependence_checks(
            config, CopulaModel("gaussian", 0.6), STANDARD_NORMAL, 100_000, seed=[70, config]
        )
        lemma_ok = abs(rep.conditional_diff) <= 3 * rep.conditional_diff_se
        shrink_ok = rep.underestimates and rep.same_sign
        ident_ok = abs(rep.identity_lhs - rep.identity_rhs) <= 3 * rep.identity_se
        ok &= lemma_ok and shrink_ok and ident_ok
        details.append(
            f"config {config}: |E(sign A|mixed)-E(sign A)|={abs(rep.conditional_diff):.4f}"
            f"<=3se({3 * rep.conditional_diff_se:.4f}), observed {rep.sign_observed:.4f} vs "
            f"common {rep.sign_common:.4f}, identity gap "
            f"{abs(rep.identity_lhs - rep.identity_rhs):.4f}<=3se({3 * rep.identity_se:.4f})"
        )
    report(7, ok, "; ".join(details))
    assert ok


def test_criterion_8_plugin_convergence():
    """Sup-grid plug-in error decreases across nested samples of 500/2000/8000.

    The true copula is evaluated at the true-margin coordinates of a fixed
    return grid; the true margins of paired returns are approximated by a
    high-precision independent reference sample (~200k pairs).
    """
    rho = 0.5
    ref = simulate(
        SimSpec(
            model=CopulaModel("gaussian", rho),
            margins=STANDARD_NORMAL,
            lambda1=1.0,
            lambda2=1.0,
            n1=300_000,
            n2=300_000,
            seed=[80, 0],
        )
    )
    ref_paired = pair_ticks(ref.a, ref.b)
    ref_rx, ref_ry = (np.sort(v) for v in ref_paired.returns())
    probs = np.linspace(0.05, 0.95, 19)
    grid1 = np.quantile(ref_rx, probs)
    grid2 = np.quantile(ref_ry, probs)
    u_true = np.searchsorted(ref_rx, grid1, side="right") / (ref_rx.size + 1.0)
    v_true = np.searchsorted(ref_ry, grid2, side="right") / (ref_ry.size + 1.0)
    uu, vv = np.meshgrid(u_true, v_true, indexing="ij")
    true_c = copula_cdf(CopulaModel("gaussian", rho), uu, vv)
    g1m, g2m = np.meshgrid(grid1, grid2, indexing="ij")

    monotone = 0
    for r in range(100):
        sim = simulate(
            SimSpec(
                model=CopulaModel("gaussian", rho),
                margins=STANDARD_NORMAL,
                lambda1=1.0,
                lambda2=1.0,
                n1=8000,
                n2=8000,
                seed=[81, r],
            )
        )
        dists = []
        for n in (500, 2000, 8000):
            a, b = (TickSeries(s.times[:n], s.log_prices[:n]) for s in (sim.a, sim.b))
            paired = pair_ticks(a, b)
            cc = corrected_correlation(paired)
            theta = float(np.clip(cc.theta_hat, -0.999, 0.999))
            plug = plugin_copula(paired, theta, "gaussian")
            dists.append(float(np.max(np.abs(plug.evaluate(g1m, g2m) - true_c))))
        monotone += dists[0] > dists[1] > dists[2]
    ok = monotone >= 95
    report(8, ok, f"sup-grid distance strictly decreasing in {monotone}/100 replicates (>=95)")
    assert ok


def test_criterion_9_loss_and_relative_change():
    """With ~30-35% data loss the correction moves the estimate by >30%."""
    losses = []
    rel_changes = []
    for s in range(25):
        sim = simulate(
            SimSpec(
                model=CopulaModel("gaussian", 0.5),
                margins=STANDARD_NORMAL,
                lambda1=1.0,
                lambda2=1.0,
                n1=2000,
                n2=2000,
                seed=[90, s],
            )
        )
        p = pair_ticks(sim.a, sim.b)
        d = diagnostics(p)
        cc = corrected_correlation(p)
        losses.extend([d.loss1, d.loss2])
        rel_changes.append((cc.theta_hat - cc.rho_hat) / cc.rho_hat)
    losses = np.asarray(losses)
    rel = np.asarray(rel_changes)
    ok = ((losses >= 0.25) & (losses <= 0.45)).all()
    ok &= 0.30 <= float(losses.mean()) <= 0.35
    ok &= (rel > 0.30).all()
    report(
        9,
        ok,
        f"loss fractions in [{losses.min():.3f}, {losses.max():.3f}] (mean "
        f"{losses.mean():.3f}), relative change min {rel.min():.3f} > 0.30",
    )
    assert ok


def test_criterion_10_oracle_equivalence():
    """Fast Kendall path vs brute force; pairing vs independent refresh oracle."""
    rng = np.random.default_rng(100)
    kend_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 201))
        if rng.random() < 0.5:
            rx = rng.standard_normal(n)
            ry = 0.4 * rx + rng.standard_normal(n)
        else:
            rx = rng.integers(-3, 4, n).astype(float)
            ry = rng.integers(-3, 4, n).astype(float)
        sx = np.sign(rx[:, None] - rx[None, :])
        sy = np.sign(ry[:, None] - ry[None, :])
        iu = np.triu_indices(n, k=1)
        if (((sx[iu] != 0) & (sy[iu] != 0)).sum()) == 0:
            continue
        t = np.arange(n + 1, dtype=float)
        from tickcopula import PairedSeries

        p = PairedSeries(
            t1=t, x=np.concatenate([[0], np.cumsum(rx)]),
            t2=t, y=np.concatenate([[0], np.cumsum(ry)]),
            scheme="a0", n_raw1=n + 1, n_raw2=n + 1,
        )
        kend_ok &= kendall_tau(p).tau_hat == pytest.approx(
            kendall_tau_brute(rx, ry), abs=1e-12
        )

    pair_ok = True
    checked = 0
    for _ in range(1000):
        lam1, lam2 = rng.uniform(0.5, 3.0, 2)
        a = poisson_ticks(rng, lam1, int(rng.integers(10, 150)))
        b = poisson_ticks(rng, lam2, int(rng.integers(10, 150)))
        if a.times[0] > b.times[-1] or b.times[0] > a.times[-1]:
            continue
        p = pair_ticks(a, b)
        oracle = refresh_pairs_oracle(a.times, b.times)
        pair_ok &= np.array_equal(p.t1, a.times[[i for i, _ in oracle]])
        pair_ok &= np.array_equal(p.t2, b.times[[j for _, j in oracle]])
        checked += 1
    ok = kend_ok and pair_ok and checked >= 990
    report(
        10,
        ok,
        f"kendall fast path == brute force on random inputs up to n=200; pairing == "
        f"refresh oracle on {checked} Poisson instances",
    )
    assert ok
