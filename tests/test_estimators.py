import numpy as np
import pytest
from scipy import stats

from hypothesis import given, settings
from hypothesis import strategies as st

from tickcopula import (
    CopulaModel,
    DegeneratePairing,
    InsufficientData,
    InvalidParameter,
    PairedSeries,
    corrected_correlation,
    dependence_checks,
    kendall_tau,
    kendall_tau_brute,
    pair_previous_tick,
    pair_ticks,
)
from tickcopula import estimators

from conftest import poisson_ticks


def paired_from_returns(rx, ry, times=None):
    """Synchronous paired series whose returns are exactly (rx, ry)."""
    rx = np.asarray(rx, dtype=float)
    n = rx.size + 1
    t = np.arange(n, dtype=float) if times is None else np.asarray(times, float)
    x = np.concatenate([[0.0], np.cumsum(rx)])
    y = np.concatenate([[0.0], np.cumsum(ry)])
    return PairedSeries(t1=t, x=x, t2=t, y=y, scheme="a0", n_raw1=n, n_raw2=n)


def sign_counts(rx, ry):
    """O(n^2) (concordant - discordant, untied, tied) from pairwise signs."""
    sx = np.sign(rx[:, None] - rx[None, :])
    sy = np.sign(ry[:, None] - ry[None, :])
    iu = np.triu_indices(rx.size, k=1)
    untied = (sx[iu] != 0) & (sy[iu] != 0)
    return int((sx[iu] * sy[iu]).sum()), int(untied.sum()), int((~untied).sum())


class TestCorrectedCorrelation:
    def test_synchronous_data_needs_no_correction(self, rng):
        rx = rng.standard_normal(60)
        ry = 0.6 * rx + 0.8 * rng.standard_normal(60)
        p = paired_from_returns(rx, ry)
        cc = corrected_correlation(p)
        assert cc.w == pytest.approx(1.0)
        assert cc.theta_hat == pytest.approx(cc.rho_hat)
        assert not cc.clamped

    def test_zero_correlation_stays_zero(self):
        rx = np.tile([1.0, -1.0, 1.0, -1.0], 4)
        ry = np.tile([1.0, 1.0, -1.0, -1.0], 4)
        p = paired_from_returns(rx, ry)
        cc = corrected_correlation(p)
        assert cc.rho_hat == pytest.approx(0.0, abs=1e-15)
        assert cc.theta_hat == pytest.approx(0.0, abs=1e-15)

    def test_theta_is_w_times_rho_unclamped(self, rng):
        a = poisson_ticks(rng, 1.0, 400)
        b = poisson_ticks(rng, 1.0, 400)
        cc = corrected_correlation(pair_ticks(a, b))
        if not cc.clamped:
            assert cc.theta_hat == pytest.approx(cc.w * cc.rho_hat, rel=1e-12)

    def test_clamping_flag(self):
        # perfectly correlated returns + staggered stamps force w * rho > 1
        rx = np.linspace(0.1, 1.0, 40)
        ry = rx * 2.0
        t1 = np.arange(41, dtype=float)
        t2 = t1 + 0.45  # constant stagger shrinks every overlap to 0.55
        x = np.concatenate([[0.0], np.cumsum(rx)])
        y = np.concatenate([[0.0], np.cumsum(ry)])
        p = PairedSeries(t1=t1, x=x, t2=t2, y=y, scheme="a0", n_raw1=41, n_raw2=41)
        cc = corrected_correlation(p)
        assert cc.w == pytest.approx(1.0 / 0.55, rel=1e-9)
        assert cc.clamped
        assert cc.theta_hat == 1.0

    def test_needs_ten_pairs(self, rng):
        p = paired_from_returns(rng.standard_normal(5), rng.standard_normal(5))
        with pytest.raises(InsufficientData):
            corrected_correlation(p)

    def test_degenerate_pairing_rejected(self, rng):
        a = poisson_ticks(rng, 0.3, 40)
        b = poisson_ticks(rng, 8.0, 800)
        pt = pair_previous_tick(a, b, delta=0.25)
        if (np.diff(pt.t1) == 0).any():
            with pytest.raises(DegeneratePairing):
                corrected_correlation(pt)

    def test_interval_contains_point_and_monotone_in_level(self, rng):
        a = poisson_ticks(rng, 1.0, 600)
        b = poisson_ticks(rng, 1.0, 600)
        p = pair_ticks(a, b)
        ccs = [corrected_correlation(p, level=lv) for lv in (0.5, 0.9, 0.99)]
        for cc in ccs:
            assert cc.ci[0] <= cc.theta_hat <= cc.ci[1]
        widths = [cc.ci[1] - cc.ci[0] for cc in ccs]
        assert widths[0] < widths[1] < widths[2]
        lows = [cc.ci[0] for cc in ccs]
        highs = [cc.ci[1] for cc in ccs]
        assert lows[0] >= lows[1] >= lows[2]
        assert highs[0] <= highs[1] <= highs[2]

    def test_invalid_level(self, rng):
        p = paired_from_returns(rng.standard_normal(20), rng.standard_normal(20))
        with pytest.raises(InvalidParameter):
            corrected_correlation(p, level=1.0)

    def test_correction_never_flips_sign(self, rng):
        # w > 0, so corrected and uncorrected estimates always share a sign;
        # verified over MC replicates at both dependence signs
        from tickcopula import CopulaModel, SimSpec, simulate

        for rho in (0.6, -0.6):
            for s in range(100):
                sim = simulate(
                    SimSpec(
                        model=CopulaModel("gaussian", rho),
                        margins=(stats.norm(), stats.norm()),
                        lambda1=1.0,
                        lambda2=1.0,
                        n1=150,
                        n2=150,
                        seed=[55, s],
                    )
                )
                cc = corrected_correlation(pair_ticks(sim.a, sim.b))
                assert np.sign(cc.theta_hat) == np.sign(cc.rho_hat)


class TestKendallTau:
    def test_perfect_concordance(self):
        p = paired_from_returns(np.arange(1.0, 11.0), np.arange(2.0, 12.0))
        assert kendall_tau(p).tau_hat == 1.0

    def test_one_swapped_rank_pair(self):
        # x ranks 1..4, y ranks 1,2 then 4,3: a single discordant pair of 6
        p = paired_from_returns([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0, 3.5])
        est = kendall_tau(p)
        assert est.tau_hat == pytest.approx(2.0 / 3.0)
        assert est.n_pairs_compared == 6

    def test_fast_path_equals_brute_force(self, rng):
        for trial in range(300):
            n = int(rng.integers(2, 201))
            if rng.random() < 0.5:
                rx = rng.standard_normal(n)
                ry = rng.standard_normal(n)
            else:
                # discrete values force ties in both coordinates
                rx = rng.integers(-3, 4, n).astype(float)
                ry = (0.5 * rx + rng.integers(-2, 3, n)).astype(float)
            num, untied, tied = sign_counts(rx, ry)
            if untied == 0:
                continue
            p = paired_from_returns(rx, ry)
            fast = kendall_tau(p)
            assert fast.tau_hat == num / untied
            assert fast.tau_hat == pytest.approx(kendall_tau_brute(rx, ry), abs=1e-12)
            assert fast.n_pairs_compared == untied
            assert fast.n_tied == tied

    def test_matches_scipy_on_untied_data(self, rng):
        rx = rng.standard_normal(500)
        ry = 0.5 * rx + rng.standard_normal(500)
        est = kendall_tau(paired_from_returns(rx, ry))
        ref = stats.kendalltau(rx, ry).statistic
        assert est.tau_hat == pytest.approx(ref, abs=1e-12)

    def test_tie_counting(self):
        p = paired_from_returns([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        est = kendall_tau(p)
        # pair (0,1) tied in x; remaining two pairs concordant
        assert est.n_tied == 1
        assert est.n_pairs_compared == 2
        assert est.tau_hat == 1.0

    def test_same_config_filters_comparisons(self, rng):
        a = poisson_ticks(rng, 1.0, 800)
        b = poisson_ticks(rng, 1.0, 800)
        p = pair_ticks(a, b)
        full = kendall_tau(p, basis="same-config", configs=(1, 2, 3, 4))
        default = kendall_tau(p, basis="same-config")
        assert default.n_used < full.n_used
        assert full.n_used == len(p) - 1
        allp = kendall_tau(p, basis="all-pairs")
        assert full.n_pairs_compared < allp.n_pairs_compared

    def test_same_config_equals_groupwise_brute_force(self, rng):
        from tickcopula import diagnostics

        a = poisson_ticks(rng, 1.0, 120)
        b = poisson_ticks(rng, 1.3, 150)
        p = pair_ticks(a, b)
        rx, ry = p.returns()
        labels = diagnostics(p).configs
        num = 0
        den = 0
        for c in (1, 4):
            mask = labels == c
            if mask.sum() < 2:
                continue
            sx = np.sign(rx[mask][:, None] - rx[mask][None, :])
            sy = np.sign(ry[mask][:, None] - ry[mask][None, :])
            iu = np.triu_indices(int(mask.sum()), k=1)
            ok = (sx[iu] != 0) & (sy[iu] != 0)
            num += int((sx[iu] * sy[iu])[ok].sum())
            den += int(ok.sum())
        est = kendall_tau(p, basis="same-config")
        assert est.tau_hat == pytest.approx(num / den, abs=1e-12)

    def test_insufficient(self):
        p = paired_from_returns([1.0], [2.0])
        with pytest.raises(InsufficientData):
            kendall_tau(p)

    @pytest.mark.parametrize("basis, configs, rx", [
        ("all-pairs", (1, 4), [1.0]),
        ("all-pairs", (1, 4), [1.0, 1.0, 1.0]),
        ("same-config", (), [0.1, 0.3, 0.2]),
        ("same-config", (1, 4), [1.0, 1.0, 1.0]),
    ])
    def test_nothing_comparable(self, basis, configs, rx):
        # synchronous pairs all carry configuration label 1
        p = paired_from_returns(rx, np.arange(len(rx), dtype=float))
        with pytest.raises(InsufficientData, match="comparable"):
            kendall_tau(p, basis=basis, configs=configs)

    def test_single_return_configuration_is_not_used(self):
        # configuration labels 3, 3, 3, 1: label 1 holds one return
        t1 = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        t2 = np.array([0.5, 1.5, 2.5, 3.5, 3.9])
        p = PairedSeries(t1=t1, x=[0.0, 0.1, 0.3, 0.2, 0.6], t2=t2, y=[0.0, 0.2, 0.1, 0.4, 0.5],
                         scheme="a0", n_raw1=5, n_raw2=5)
        est = kendall_tau(p, basis="same-config", configs=(1, 3))
        assert est.n_used == 3 and est.n_pairs_compared + est.n_tied == 3

    @pytest.mark.parametrize("basis", ["all-pairs", "same-config"])
    def test_non_finite_returns_rejected(self, basis):
        # finite prices, but the return from 1.5e308 to -1.5e308 overflows
        t = np.arange(6.0)
        p = PairedSeries(t1=t, x=[0.0, 1.5e308, -1.5e308, 0.2, 0.1, 0.5], t2=t,
                         y=[0.0, 0.2, 0.1, 0.4, 0.3, 0.6], scheme="a0", n_raw1=6, n_raw2=6)
        with np.errstate(over="ignore"), pytest.raises(InvalidParameter, match="finite"):
            kendall_tau(p, basis=basis)

    def test_exactness_limit(self, monkeypatch):
        p = paired_from_returns(np.arange(6.0), np.arange(6.0))
        monkeypatch.setattr(estimators, "MAX_KENDALL_RETURNS", 5)
        with pytest.raises(InvalidParameter, match="up to 5 returns"):
            kendall_tau(p)
        monkeypatch.setattr(estimators, "MAX_KENDALL_RETURNS", 6)
        assert kendall_tau(p).tau_hat == 1.0


def _columns(n, continuous):
    if continuous:
        values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    else:
        values = st.integers(-2, 2).map(float)
    return st.lists(values, min_size=n, max_size=n).map(np.array)


@st.composite
def return_pairs(draw):
    n = draw(st.integers(2, 40))
    rx = draw(_columns(n, draw(st.booleans())))
    ry = draw(st.just(np.full(n, 0.5)) | _columns(n, draw(st.booleans())))
    return (ry, rx) if draw(st.booleans()) else (rx, ry)


@settings(deadline=None, max_examples=200)
@given(return_pairs())
def test_kendall_counts_match_sign_count(pair):
    rx, ry = pair
    n = rx.size
    counts = estimators._kendall_counts(rx, ry)
    assert counts == sign_counts(rx, ry)
    assert counts[1] + counts[2] == n * (n - 1) // 2


class TestDependenceChecks:
    def test_independence_is_symmetric(self, std_normal_margins):
        rep = dependence_checks(
            4, CopulaModel("gaussian", 0.0), std_normal_margins, 50_000, seed=0
        )
        assert abs(rep.sign_common) <= 3 * rep.sign_common_se
        assert abs(rep.sign_observed) <= 3 * rep.sign_observed_se

    def test_gaussian_common_sign_matches_tau(self, std_normal_margins):
        # with Gaussian margins the common-interval sign product has mean tau
        model = CopulaModel("gaussian", 0.6)
        rep = dependence_checks(4, model, std_normal_margins, 200_000, seed=1)
        from tickcopula import tau_of

        assert rep.sign_common == pytest.approx(tau_of(model), abs=3 * rep.sign_common_se)

    @pytest.mark.parametrize("config", [1, 4])
    def test_conditional_identity_and_shrinkage(self, config, std_normal_margins):
        rep = dependence_checks(
            config, CopulaModel("gaussian", 0.6), std_normal_margins, 100_000, seed=2
        )
        assert abs(rep.conditional_diff) <= 3 * rep.conditional_diff_se
        assert rep.underestimates
        assert rep.same_sign
        assert abs(rep.identity_lhs - rep.identity_rhs) <= 3 * rep.identity_se

    def test_requires_config_one_or_four(self, std_normal_margins):
        with pytest.raises(InvalidParameter):
            dependence_checks(2, CopulaModel("gaussian", 0.5), std_normal_margins, 20_000)

    def test_requires_minimum_draws(self, std_normal_margins):
        with pytest.raises(InvalidParameter):
            dependence_checks(4, CopulaModel("gaussian", 0.5), std_normal_margins, 100)


class TestCorrectedCorrelationDomain:
    @pytest.mark.parametrize("constant_leg", ["x", "y"])
    def test_zero_variance_leg_rejected(self, rng, constant_leg):
        r = rng.standard_normal(30)
        rx, ry = (np.zeros(30), r) if constant_leg == "x" else (r, np.zeros(30))
        with pytest.raises(InvalidParameter, match="zero variance"):
            corrected_correlation(paired_from_returns(rx, ry))


@st.composite
def return_rows(draw):
    """NaN-padded rows of unequal length on both sides of the direct-count limit, often tied."""
    limit = estimators._DENSE_MAX_RETURNS
    lengths = draw(st.lists(st.sampled_from([2, 3, 17, 60, limit - 1, limit, limit + 1, limit + 30]),
                            min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rx = np.full((len(lengths), max(lengths)), np.nan)
    ry = np.full_like(rx, np.nan)
    for r, n in enumerate(lengths):
        for rows in (rx, ry):
            spread = draw(st.sampled_from([1, 3, 10, 0]))  # 0: continuous values
            rows[r, :n] = rng.integers(-spread, spread + 1, n) if spread else rng.standard_normal(n)
    return rx, ry, np.array(lengths)


@settings(deadline=None, max_examples=60)
@given(return_rows())
def test_block_kendall_counts_match_scipy_and_brute_force(rows):
    rx, ry, lengths = rows
    cmd, untied = estimators._kendall_rows(rx, ry, lengths)
    for r, n in enumerate(lengths):
        x, y = rx[r, :n], ry[r, :n]
        assert (cmd[r], untied[r]) == estimators._kendall_counts(x, y)[:2]
        if untied[r]:
            assert cmd[r] / untied[r] == kendall_tau_brute(x, y)
