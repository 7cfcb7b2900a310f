import dataclasses
import math
import tracemalloc

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
    configuration_labels,
    corrected_correlation,
    kendall_tau,
    pair_previous_tick,
    pair_refresh_time,
    pair_ticks,
)
from tickcopula import estimators

from conftest import dependence_checks, kendall_tau_brute, make_series, poisson_ticks


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
        nested = np.isin(configuration_labels(p), (1, 4))
        est = kendall_tau(p, basis="same-config")
        assert est.n_used == nested.sum() < len(p) - 1
        allp = kendall_tau(p, basis="all-pairs")
        assert est.n_pairs_compared + est.n_tied < allp.n_pairs_compared

    def test_same_config_equals_groupwise_brute_force(self, rng):
        a = poisson_ticks(rng, 1.0, 120)
        b = poisson_ticks(rng, 1.3, 150)
        p = pair_ticks(a, b)
        rx, ry = p.returns()
        labels = configuration_labels(p)
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

    def test_same_config_of_refresh_pairs_past_the_direct_count(self, rng):
        # refresh pairs are synchronous, so every return is in configuration 1 and none in 4;
        # 400 returns was the limit of a direct count that no longer exists, and this row is longer
        p = pair_refresh_time(poisson_ticks(rng, 1.0, 1200), poisson_ticks(rng, 1.0, 1200))
        rx, ry = p.returns()
        assert rx.size > 400
        assert set(configuration_labels(p).tolist()) == {1}
        est = kendall_tau(p, basis="same-config")
        assert est == dataclasses.replace(kendall_tau(p), basis="same-config")
        assert est.tau_hat == pytest.approx(stats.kendalltau(rx, ry).statistic, abs=1e-12)

    def test_same_config_refuses_a_repeated_tick(self):
        # previous-tick pairs keep asset 1's tick while asset 2 moves: a zero overlap, so no
        # ordering configuration
        pt = pair_previous_tick(make_series([1.0, 6.0, 20.0]), make_series([0.5, 1.5, 2.5, 3.5, 19.0]), delta=1.0)
        assert (np.diff(pt.t1) == 0).any()
        with pytest.raises(DegeneratePairing, match="non-positive overlap"):
            kendall_tau(pt, basis="same-config")

    def test_insufficient(self):
        p = paired_from_returns([1.0], [2.0])
        with pytest.raises(InsufficientData):
            kendall_tau(p)

    @pytest.mark.parametrize("basis, configs, rx", [
        ("all-pairs", (1,), [1.0]),
        ("all-pairs", (1, 1, 1), [1.0, 1.0, 1.0]),
        ("same-config", (3, 3, 3), [0.1, 0.3, 0.2]),
        ("same-config", (1, 1, 1), [1.0, 1.0, 1.0]),
    ])
    def test_nothing_comparable(self, basis, configs, rx):
        # ``configs`` are the labels of the returns: synchronous pairs carry
        # label 1; asset 2 trading half a second after asset 1 gives label 3
        p = paired_from_returns(rx, np.arange(len(rx), dtype=float))
        if 3 in configs:
            p = dataclasses.replace(p, t2=p.t2 + 0.5)
        assert tuple(configuration_labels(p)) == configs
        with pytest.raises(InsufficientData, match="comparable"):
            kendall_tau(p, basis=basis)

    def test_single_return_configuration_is_not_used(self):
        t1 = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        t2 = np.array([0.0, 1.0, 2.0, 2.5, 4.5])
        p = PairedSeries(t1=t1, x=[0.0, 0.1, 0.3, 0.2, 0.6], t2=t2, y=[0.0, 0.2, 0.1, 0.4, 0.5],
                         scheme="a0", n_raw1=5, n_raw2=5)
        assert configuration_labels(p).tolist() == [1, 1, 1, 4]  # label 4 holds one return
        est = kendall_tau(p, basis="same-config")
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
    num, untied, _ = sign_counts(rx, ry)
    cmd, untied_rows = estimators._kendall_rows(np.stack([rx, ry])[:, None], np.array([rx.size]))
    assert (cmd[0], untied_rows[0]) == (num, untied)


@pytest.mark.parametrize("n, x_levels, y_levels", [
    (2, 1, 1), (2, 2, 2), (7, 3, 2), (60, 5, 60), (60, 60, 4), (401, 20, 30), (401, 401, 401),
])
def test_scipy_discordance_counter_contract(n, x_levels, y_levels):
    # _kendall_rows takes discordant pairs from scipy's private counter: x sorted ascending,
    # y ranks counted from 1, ties in either, and a pair tied in x or in y is not discordant
    from scipy.stats._stats import _kendall_dis

    rng = np.random.default_rng(n * 1000 + x_levels + y_levels)
    x = np.sort(rng.integers(0, x_levels, n)).astype(np.intp)
    y = rng.integers(1, y_levels + 1, n).astype(np.intp)
    num, untied, _ = sign_counts(x.astype(float), y.astype(float))
    dis = _kendall_dis(x, y)
    assert untied - 2 * dis == num
    if untied:
        assert (untied - 2 * dis) / untied == kendall_tau_brute(x, y)


def test_kendall_counts_exact_past_int64_products():
    # (n0 - tx) * (n0 - ty) is 2.5e19 here, past the int64 range
    n = 100_000
    n0 = n * (n - 1) // 2
    x = np.arange(n, dtype=float)
    cmd, untied = estimators._kendall_rows(np.array([[x, x], [x, -x]]), np.array([n, n]))
    assert cmd.tolist() == [n0, -n0]
    assert untied.tolist() == [n0, n0]


def test_kendall_rows_exact_with_ties_past_int64_products():
    # 90k returns on 101 integer levels: (n0 - tx) * (n0 - ty) is past the int64 range
    n = 90_000
    rng = np.random.default_rng(5)
    x = rng.integers(-50, 51, n).astype(float)
    y = np.clip(x + rng.integers(-20, 21, n), -50, 50)
    n0 = n * (n - 1) // 2

    def tie_pairs(values):
        _, c = np.unique(values, axis=0, return_counts=True)
        return sum(k * (k - 1) // 2 for k in c.tolist())

    tx, ty, txy = tie_pairs(x), tie_pairs(y), tie_pairs(np.column_stack([x, y]))
    assert (n0 - tx) * (n0 - ty) > np.iinfo(np.int64).max
    tau_b = float(stats.kendalltau(x, y).statistic)
    expected = (round(tau_b * math.sqrt((n0 - tx) * (n0 - ty))), n0 - tx - ty + txy)
    cmd, untied = estimators._kendall_rows(np.stack([x, y])[:, None], np.array([n]))
    assert (cmd[0], untied[0]) == expected


def test_rank_pass_peak_with_a_long_row_beside_a_short_one():
    # a 3000-return row beside a 10-return one: the stacked rank pass works on (4, 3000) arrays
    # of the padded block and traces about 0.5 MB, so the bound leaves room but no O(n^2) matrix
    rx, ry = np.random.default_rng(0).standard_normal((2, 2, 3000))
    tracemalloc.start()
    try:
        estimators._kendall_rows(np.stack([rx, ry]), np.array([3000, 10]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [1e308, 1e200, 1.5e154])
    @pytest.mark.parametrize("leg", ["x", "y"])
    def test_variance_past_float64_rejected(self, rng, leg, big):
        # finite returns of +-big, whose squares are not
        r, wide = rng.standard_normal(30), np.resize([big, -big], 30)
        rx, ry = (wide, r) if leg == "x" else (r, wide)
        with pytest.raises(InvalidParameter, match="^a return leg's sample variance overflows float64"):
            corrected_correlation(paired_from_returns(rx, ry))


def _row_values(draw, rng, n):
    """One side of a row: integer-tied, continuous, signed zeros or constant."""
    kind = draw(st.sampled_from(["ints", "normal", "zeros", "constant"]))
    if kind == "ints":
        spread = draw(st.sampled_from([1, 3, 10]))
        return rng.integers(-spread, spread + 1, n)
    if kind == "zeros":  # -0.0 and 0.0 compare equal, so they must tie
        return rng.choice([-0.0, 0.0, 0.25, -1.5], n, p=[0.4, 0.4, 0.1, 0.1])
    if kind == "constant":
        return np.full(n, draw(st.sampled_from([0.5, -0.0])))
    return rng.standard_normal(n)


@st.composite
def return_rows(draw):
    """Padded rows of unequal length on both sides of 400 returns, often tied.

    400 was the limit of a direct count that no longer exists; rows on both
    sides of it stay covered. Rows of 0 and 1 returns sit inside the block,
    and some blocks are exactly 400 wide. The padding past each row's length
    holds NaN, +inf, -inf or finite values that tie the returns, none of
    which may count.
    """
    limit = 400
    sizes = [0, 1, 2, 3, 17, 60, limit - 1, limit]
    if draw(st.booleans()):
        sizes += [limit + 1, limit + 30]
    lengths = draw(st.lists(st.sampled_from(sizes), min_size=1, max_size=6))
    if draw(st.booleans()):
        lengths.append(limit)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rx = np.empty((len(lengths), max(lengths)))
    ry = np.empty_like(rx)
    pad = draw(st.sampled_from(["nan", "inf", "-inf", "ties"]))
    for v in (rx, ry):  # what each row holds past its length
        v[:] = rng.integers(-2, 3, v.shape) if pad == "ties" else float(pad)
    for r, n in enumerate(lengths):
        rx[r, :n] = _row_values(draw, rng, n)
        ry[r, :n] = _row_values(draw, rng, n)
    return rx, ry, np.array(lengths)


@pytest.mark.parametrize("short", [0, 1])
def test_kendall_rows_long_row_beside_rows_without_pairs(short):
    # a row past 400 returns (the limit of a former direct count) beside one with no pair
    n = 401
    x, y = np.random.default_rng(0).standard_normal((2, n))
    xy = np.full((2, 2, n), np.nan)
    xy[:, 0] = x, y
    xy[:, 1, :short] = 0.5
    cmd, untied = estimators._kendall_rows(xy, np.array([n, short]))
    num, n_untied, _ = sign_counts(x, y)
    assert (cmd.tolist(), untied.tolist()) == ([num, 0], [n_untied, 0])
    assert cmd[0] / untied[0] == pytest.approx(stats.kendalltau(x, y).statistic, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(return_rows())
def test_block_kendall_counts_match_scipy_and_brute_force(rows):
    rx, ry, lengths = rows
    cmd, untied = estimators._kendall_rows(np.stack([rx, ry]), lengths)
    for r, n in enumerate(lengths):
        x, y = rx[r, :n], ry[r, :n]
        num, n_untied, _ = sign_counts(x, y)
        assert (cmd[r], untied[r]) == (num, n_untied)
        if untied[r]:
            assert cmd[r] / untied[r] == kendall_tau_brute(x, y)

