import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tickcopula import (
    InvalidParameter,
    PoissonPair,
    estimate_rates,
    pq_terms,
    theory_report,
)

from conftest import poisson_ticks


class TestPqTerms:
    def test_equal_rates_are_halving_powers(self):
        pp = PoissonPair(2.0, 2.0)
        for n in range(1, 10):
            p, q = pq_terms(pp, n)
            assert p == pytest.approx(0.5 ** (n + 1), rel=1e-14)
            assert q == pytest.approx(0.5 ** (n + 1), rel=1e-14)

    def test_vanishing_second_rate_limit(self):
        pp = PoissonPair(1.0, 1e-12)
        for n in (1, 5, 20):
            p, _ = pq_terms(pp, n)
            assert p < 1e-11

    def test_asymmetric_value_against_beta_cdf(self):
        pp = PoissonPair(1.0, 2.0)
        p1, q1 = pq_terms(pp, 1)
        assert p1 == pytest.approx(2.0 / 9.0, rel=1e-14)
        # cross-check the analytic Beta(1,k) CDF against scipy's
        x2 = 2.0 / 3.0
        p1_num = stats.beta(1, 2).cdf(x2) - stats.beta(1, 1).cdf(x2)
        assert p1 == pytest.approx(p1_num, rel=1e-12)
        x1 = 1.0 / 3.0
        q1_num = stats.beta(1, 2).cdf(x1) - stats.beta(1, 1).cdf(x1)
        assert q1 == pytest.approx(q1_num, rel=1e-12)

    def test_partial_sums_monotone_and_complete(self):
        pp = PoissonPair(1.0, 3.0)
        ns = np.arange(1, 400)
        ps = np.array([pq_terms(pp, int(n))[0] for n in ns])
        qs = np.array([pq_terms(pp, int(n))[1] for n in ns])
        assert (ps > 0).all() and (qs > 0).all()
        assert (np.diff(ps) < 0).all() and (np.diff(qs) < 0).all()
        total = ps.sum() + qs.sum()
        assert total == pytest.approx((1 - pp.x2) + (1 - pp.x1), abs=1e-12)

    def test_invalid_n(self):
        with pytest.raises(InvalidParameter):
            pq_terms(PoissonPair(1.0, 1.0), 0)


LOG_MAX = np.log(np.finfo(float).max)


def log_largest_value(lam1, lam2):
    """Log of the largest of overlap, dt1 and dt2, computed without leaving float64."""
    ll1, ll2 = np.log(lam1), np.log(lam2)
    lr = ll1 - ll2
    log_overlap = np.log(0.5) + np.logaddexp(-ll1, -ll2) + np.logaddexp(lr, -lr)
    log_dt1 = np.logaddexp(-np.logaddexp(0.0, -lr), -lr) - ll1
    log_dt2 = np.logaddexp(-np.logaddexp(0.0, lr), lr) - ll2
    return max(log_overlap, log_dt1, log_dt2)


def report_or_none(lam1, lam2):
    try:
        return theory_report(PoissonPair(lam1, lam2))
    except InvalidParameter:
        return None


log_uniform_rate = st.floats(np.log10(1e-320), 308.0).map(lambda e: 10.0**e)


class TestTheoryReport:
    def test_equal_rate_closed_forms(self):
        for lam in (0.5, 1.0, 2.0, 4.0):
            r = theory_report(PoissonPair(lam, lam))
            assert r.expected_overlap == 2.0 / lam
            assert r.expected_dt1 == 1.5 / lam
            assert r.expected_dt2 == 1.5 / lam
            assert r.gamma == 0.75

    def test_gamma_is_the_reported_ratio(self):
        r = theory_report(PoissonPair(1.0, 2.5))
        assert r.gamma == pytest.approx(
            np.sqrt(r.expected_dt1 * r.expected_dt2) / r.expected_overlap, rel=1e-15
        )

    def test_scale_invariance(self):
        base = theory_report(PoissonPair(1.0, 3.0))
        scaled = theory_report(PoissonPair(10.0, 30.0))
        assert scaled.expected_overlap == pytest.approx(base.expected_overlap / 10, rel=1e-10)
        assert scaled.expected_dt1 == pytest.approx(base.expected_dt1 / 10, rel=1e-10)
        assert scaled.gamma == pytest.approx(base.gamma, rel=1e-12)

    def test_symmetry_under_rate_swap(self):
        r12 = theory_report(PoissonPair(1.0, 3.0))
        r21 = theory_report(PoissonPair(3.0, 1.0))
        assert r12.expected_dt1 == pytest.approx(r21.expected_dt2, rel=1e-12)
        assert r12.expected_dt2 == pytest.approx(r21.expected_dt1, rel=1e-12)
        assert r12.expected_overlap == pytest.approx(r21.expected_overlap, rel=1e-12)
        assert r12.gamma == pytest.approx(r21.gamma, rel=1e-12)

    def test_asymmetric_against_brute_force_partial_sum(self):
        # 10^6-term direct summation as the oracle
        for lam1, lam2 in ((1.0, 3.0), (0.7, 1.3)):
            pp = PoissonPair(lam1, lam2)
            r = theory_report(pp)
            n = np.arange(1, 1_000_001, dtype=float)
            x1, x2 = pp.x1, pp.x2
            p_n = x2 * x1**n
            q_n = x1 * x2**n
            ei = 0.5 * (1 / lam1 + 1 / lam2) * float(np.sum(n * (p_n + q_n)))
            eta1 = float(np.sum((1 - x1) * x1**n + n * x1 * (1 - x1) ** n))
            eta2 = float(np.sum((1 - x2) * x2**n + n * x2 * (1 - x2) ** n))
            assert abs(r.expected_overlap - ei) <= 1e-13
            assert abs(r.expected_dt1 - eta1 / lam1) <= 1e-13
            assert abs(r.expected_dt2 - eta2 / lam2) <= 1e-13

    def test_sums_match_pq_partial_sums(self):
        # the paper's series in the splitting terms: overlap sum n (p_n + q_n),
        # paired interarrival multipliers sum p_n + n q_n and sum q_n + n p_n;
        # 600 terms leave a tail below 1e-20 at these ratios
        n = np.arange(1, 601)
        for lam1, lam2 in ((1.0, 3.0), (0.7, 1.3), (1.0, 2.0), (5.0, 0.5)):
            pp = PoissonPair(lam1, lam2)
            p, q = np.array([pq_terms(pp, int(k)) for k in n]).T
            r = theory_report(pp)
            assert abs(r.expected_overlap - 0.5 * (1 / lam1 + 1 / lam2) * np.sum(n * (p + q))) <= 1e-13
            assert abs(r.expected_dt1 - np.sum(p + n * q) / lam1) <= 1e-13
            assert abs(r.expected_dt2 - np.sum(q + n * p) / lam2) <= 1e-13

    @settings(max_examples=300, deadline=None)
    @given(lam1=log_uniform_rate, lam2=log_uniform_rate, scale=st.floats(-30.0, 30.0))
    def test_any_rate_pair_is_finite_or_refused(self, lam1, lam2, scale):
        r = report_or_none(lam1, lam2)
        # refused exactly when a true value is past the float64 range
        if r is None:
            assert log_largest_value(lam1, lam2) > LOG_MAX - 1e-9
            assert report_or_none(lam2, lam1) is None
            return
        assert log_largest_value(lam1, lam2) < LOG_MAX + 1e-9
        values = np.array([r.expected_overlap, r.expected_dt1, r.expected_dt2, r.gamma])
        assert np.isfinite(values).all() and (values > 0).all()
        swapped = theory_report(PoissonPair(lam2, lam1))
        assert (swapped.expected_dt1, swapped.expected_dt2) == (r.expected_dt2, r.expected_dt1)
        assert (swapped.expected_overlap, swapped.gamma) == (r.expected_overlap, r.gamma)
        scaled = report_or_none(lam1 * 10.0**scale, lam2 * 10.0**scale)
        if scaled is not None:
            assert scaled.gamma == pytest.approx(r.gamma, rel=1e-14)

    def test_largest_rates(self):
        r = theory_report(PoissonPair(1e308, 1e308))
        assert r.gamma == 0.75
        assert r.expected_overlap == pytest.approx(2e-308, rel=1e-14)
        assert pq_terms(PoissonPair(1e308, 1e308), 1) == (0.25, 0.25)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameter):
            PoissonPair(0.0, 1.0)
        with pytest.raises(InvalidParameter):
            PoissonPair(1.0, -2.0)


class TestEstimateRates:
    def test_eleven_ticks_over_ten_seconds(self):
        from conftest import make_series

        a = make_series(np.linspace(0.0, 10.0, 11))
        b = make_series(np.arange(0.0, 101.0))
        pp = estimate_rates(a, b)
        assert pp.lambda1 == pytest.approx(1.0)
        assert pp.lambda2 == pytest.approx(1.0)

    def test_simulated_poisson_within_clt_band(self, rng):
        lam = 5.0
        n = 10_000
        a = poisson_ticks(rng, lam, n)
        b = poisson_ticks(rng, 1.0, 500)
        pp = estimate_rates(a, b)
        assert abs(pp.lambda1 - lam) <= 3 * lam / np.sqrt(n)

    def test_minimal_two_tick_series(self):
        from conftest import make_series

        pp = estimate_rates(make_series([0.0, 2.0]), make_series([0.0, 0.5]))
        assert pp.lambda1 == pytest.approx(0.5)
        assert pp.lambda2 == pytest.approx(2.0)
