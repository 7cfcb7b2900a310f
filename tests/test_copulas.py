import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from tickcopula import copulas
from tickcopula import (
    CopulaModel,
    EmpiricalMargin,
    InsufficientData,
    InvalidParameter,
    cdf,
    fit_aic,
    log_pdf,
    param_of_tau,
    plugin_copula,
    pseudo_observations,
    sample_uniform,
    tau_of,
)
from tickcopula import pair_ticks, simulate, SimSpec

ALL_MODELS = [
    CopulaModel("gaussian", 0.5),
    CopulaModel("gaussian", -0.7),
    CopulaModel("student_t", 0.5, df=5),
    CopulaModel("clayton", 2.0),
    CopulaModel("gumbel", 2.0),
]


class TestModelValidation:
    def test_param_ranges(self):
        with pytest.raises(InvalidParameter):
            CopulaModel("gaussian", 1.0)
        with pytest.raises(InvalidParameter):
            CopulaModel("clayton", 0.0)
        with pytest.raises(InvalidParameter):
            CopulaModel("gumbel", 0.9)
        with pytest.raises(InvalidParameter):
            CopulaModel("student_t", 0.3, df=2)
        with pytest.raises(InvalidParameter):
            CopulaModel("frank", 1.0)


class TestTauMaps:
    def test_gaussian_zero_and_half(self):
        assert tau_of(CopulaModel("gaussian", 0.0)) == 0.0
        assert tau_of(CopulaModel("gaussian", 0.5)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_clayton_theta_two(self):
        assert tau_of(CopulaModel("clayton", 2.0)) == pytest.approx(0.5)

    def test_gumbel_inverse(self):
        m = param_of_tau("gumbel", 0.5)
        assert m.param == pytest.approx(2.0)

    def test_clayton_negative_tau_rejected(self):
        with pytest.raises(InvalidParameter):
            param_of_tau("clayton", -0.1)

    def test_round_trip_on_grids(self):
        for family, taus in [
            ("gaussian", np.linspace(-0.95, 0.95, 100)),
            ("student_t", np.linspace(-0.95, 0.95, 100)),
            ("clayton", np.linspace(0.01, 0.95, 100)),
            ("gumbel", np.linspace(0.0, 0.95, 100)),
        ]:
            for tau in taus:
                df = 5 if family == "student_t" else None
                m = param_of_tau(family, float(tau), df=df)
                assert tau_of(m) == pytest.approx(float(tau), abs=1e-10)

    def test_archimedean_generator_integral_oracle(self):
        # tau = 1 + 4 * int_0^1 phi(t)/phi'(t) dt, integrated numerically
        for theta in (0.7, 2.0, 5.0):
            phi_ratio = lambda t: ((t**-theta - 1.0) / theta) / (-(t ** (-theta - 1.0)))
            val, _ = integrate.quad(phi_ratio, 0.0, 1.0)
            assert tau_of(CopulaModel("clayton", theta)) == pytest.approx(1 + 4 * val, abs=1e-8)
        for theta in (1.5, 2.0, 4.0):
            phi_ratio = lambda t: (-np.log(t)) ** theta / (
                theta * (-np.log(t)) ** (theta - 1.0) * (-1.0 / t)
            )
            val, _ = integrate.quad(phi_ratio, 0.0, 1.0)
            assert tau_of(CopulaModel("gumbel", theta)) == pytest.approx(1 + 4 * val, abs=1e-8)

    def test_tau_strictly_increasing_in_param(self):
        for family, params in [
            ("gaussian", np.linspace(-0.9, 0.9, 20)),
            ("clayton", np.linspace(0.2, 8, 20)),
            ("gumbel", np.linspace(1.01, 8, 20)),
        ]:
            taus = [tau_of(CopulaModel(family, float(p))) for p in params]
            assert (np.diff(taus) > 0).all()


class TestCdf:
    def test_boundary_conditions(self):
        for m in ALL_MODELS:
            assert cdf(m, 0.0, 0.7) == 0.0
            assert cdf(m, 0.3, 0.0) == 0.0
            assert cdf(m, 1.0, 0.6) == pytest.approx(0.6, abs=1e-12)
            assert cdf(m, 0.4, 1.0) == pytest.approx(0.4, abs=1e-12)
            assert cdf(m, 1.0, 1.0) == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u, v", [(np.nan, 0.5), (0.5, np.nan), ([0.2, np.nan], 0.5), (0.5, [np.nan, 0.3])])
    def test_rejects_nan_arguments(self, u, v):
        with pytest.raises(InvalidParameter, match=r"\[0, 1\]"):
            cdf(CopulaModel("clayton", 1.0), u, v)

    def test_gaussian_independence_is_product(self):
        m = CopulaModel("gaussian", 0.0)
        u = np.linspace(0.05, 0.95, 7)
        v = np.linspace(0.05, 0.95, 7)[::-1]
        assert np.allclose(cdf(m, u, v), u * v, atol=1e-12)

    def test_gaussian_against_quadrature_reference(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(0.01, 0.99, 20)
        v = rng.uniform(0.01, 0.99, 20)
        for rho in (-0.8, -0.3, 0.45, 0.9):
            m = CopulaModel("gaussian", rho)
            mine = cdf(m, u, v)
            mvn = stats.multivariate_normal(cov=[[1, rho], [rho, 1]])
            ref = np.array(
                [mvn.cdf([stats.norm.ppf(a), stats.norm.ppf(b)]) for a, b in zip(u, v)]
            )
            assert np.allclose(mine, ref, atol=5e-7)

    def test_two_increasing_on_grid(self):
        grid = np.linspace(0.02, 0.98, 13)
        for m in ALL_MODELS:
            uu, vv = np.meshgrid(grid, grid, indexing="ij")
            c = cdf(m, uu, vv)
            rect = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
            assert (rect >= -1e-10).all()

    def test_pdf_cdf_consistency_rectangle_mass(self):
        # quadrature of the density over a box equals the cdf rectangle mass
        for m in ALL_MODELS:
            lo, hi = 0.15, 0.85
            mass_cdf = cdf(m, hi, hi) - cdf(m, lo, hi) - cdf(m, hi, lo) + cdf(m, lo, lo)
            mass_pdf, err = integrate.dblquad(
                lambda v, u: np.exp(log_pdf(m, u, v)), lo, hi, lo, hi, epsabs=1e-8, epsrel=1e-8
            )
            assert mass_pdf == pytest.approx(float(mass_cdf), abs=5e-6)


class TestDensity:
    def test_integrates_to_one(self):
        # 200-node Gauss-Legendre rule on [-8, 8] in normal-score space,
        # u = Phi(x), so the corner peaks of Clayton and Gumbel are resolved;
        # one vectorized density call on the tensor grid
        x, w = np.polynomial.legendre.leggauss(200)
        x, w = 8.0 * x, 8.0 * w * np.exp(stats.norm.logpdf(8.0 * x))
        u = special.ndtr(x)
        for m in ALL_MODELS:
            total = w @ np.exp(log_pdf(m, u[:, None], u[None, :])) @ w
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_gumbel_independence_at_theta_one(self):
        m = CopulaModel("gumbel", 1.0)
        u = np.linspace(0.1, 0.9, 5)
        assert np.allclose(np.exp(log_pdf(m, u, u[::-1])), 1.0, atol=1e-10)

    def test_rejects_boundary_arguments(self):
        with pytest.raises(InvalidParameter):
            log_pdf(CopulaModel("clayton", 1.0), 0.0, 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("u, v", [(np.nan, 0.5), (0.5, np.nan), ([0.2, np.nan], 0.5), (0.5, [np.nan, 0.3])])
    def test_rejects_nan_arguments(self, u, v):
        with pytest.raises(InvalidParameter, match="strictly inside"):
            log_pdf(CopulaModel("clayton", 1.0), u, v)

    _GRID = np.meshgrid(np.linspace(0.003, 0.997, 23), np.linspace(0.004, 0.995, 19))

    @pytest.mark.parametrize("rho", [-0.85, -0.3, 0.0, 0.45, 0.95])
    def test_gaussian_against_scipy_joint_over_margins(self, rho):
        u, v = self._GRID
        x, y = stats.norm.ppf(u), stats.norm.ppf(v)
        joint = stats.multivariate_normal(cov=[[1.0, rho], [rho, 1.0]]).logpdf(np.dstack([x, y]))
        ref = joint - stats.norm.logpdf(x) - stats.norm.logpdf(y)
        assert np.allclose(log_pdf(CopulaModel("gaussian", rho), u, v), ref, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("rho, df", [(-0.6, 3), (0.0, 5), (0.5, 4), (0.9, 30)])
    def test_student_t_against_scipy_joint_over_margins(self, rho, df):
        u, v = self._GRID
        x, y = stats.t.ppf(u, df), stats.t.ppf(v, df)
        joint = stats.multivariate_t(shape=[[1.0, rho], [rho, 1.0]], df=df).logpdf(np.dstack([x, y]))
        ref = joint - stats.t.logpdf(x, df) - stats.t.logpdf(y, df)
        assert np.allclose(log_pdf(CopulaModel("student_t", rho, df=df), u, v), ref, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.0, 7.5])
    def test_clayton_closed_form(self, theta):
        u, v = self._GRID
        # c(u, v) = (1 + th) (uv)^(-1-th) (u^-th + v^-th - 1)^(-2-1/th)
        c = (1 + theta) * (u * v) ** (-1 - theta) * (u**-theta + v**-theta - 1) ** (-2 - 1 / theta)
        assert np.allclose(log_pdf(CopulaModel("clayton", theta), u, v), np.log(c), rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("theta", [1.0, 1.3, 2.0, 5.0])
    def test_gumbel_closed_form(self, theta):
        u, v = self._GRID
        # with s = -log u, t = -log v, w = s^th + t^th and C = exp(-w^(1/th)):
        # c(u, v) = C (uv)^-1 (st)^(th-1) w^(1/th-2) (w^(1/th) + th - 1)
        s, t = -np.log(u), -np.log(v)
        w = s**theta + t**theta
        c = (np.exp(-w ** (1 / theta)) / (u * v) * (s * t) ** (theta - 1)
             * w ** (1 / theta - 2) * (w ** (1 / theta) + theta - 1))
        assert np.allclose(log_pdf(CopulaModel("gumbel", theta), u, v), np.log(c), rtol=1e-10, atol=1e-10)


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        for m in ALL_MODELS:
            a = sample_uniform(m, 100, np.random.default_rng(42))
            b = sample_uniform(m, 100, np.random.default_rng(42))
            assert np.array_equal(a, b)

    def test_independence_correlation_band(self):
        m = CopulaModel("gaussian", 0.0)
        n = 100_000
        xy = stats.norm.ppf(sample_uniform(m, n, np.random.default_rng(1)))
        r = np.corrcoef(xy[:, 0], xy[:, 1])[0, 1]
        assert abs(r) <= 4.0 / np.sqrt(n)

    @pytest.mark.parametrize(
        "model",
        [
            CopulaModel("gaussian", 0.5),
            CopulaModel("gaussian", -0.6),
            CopulaModel("gaussian", 0.9),
            CopulaModel("student_t", 0.5, df=4),
            CopulaModel("student_t", -0.4, df=8),
            CopulaModel("student_t", 0.8, df=15),
            CopulaModel("clayton", 0.5),
            CopulaModel("clayton", 2.0),
            CopulaModel("clayton", 6.0),
            CopulaModel("gumbel", 1.25),
            CopulaModel("gumbel", 2.0),
            CopulaModel("gumbel", 4.0),
        ],
    )
    def test_sample_tau_matches_tau_of(self, model):
        n = 100_000
        uv = sample_uniform(model, n, np.random.default_rng(7))
        tau_emp = stats.kendalltau(uv[:, 0], uv[:, 1]).statistic
        # clayton theta=2 at n=1e5 has MC sd ~ 0.002; 0.01 is a 3-sigma-plus band
        assert tau_emp == pytest.approx(tau_of(model), abs=0.01)

    def test_clayton_sample_tau_example(self):
        uv = sample_uniform(CopulaModel("clayton", 2.0), 100_000, np.random.default_rng(3))
        tau_emp = stats.kendalltau(uv[:, 0], uv[:, 1]).statistic
        assert tau_emp == pytest.approx(0.5, abs=0.01)

    def test_margins_are_uniform(self):
        for m in ALL_MODELS:
            uv = sample_uniform(m, 20_000, np.random.default_rng(11))
            for col in uv.T:
                assert stats.kstest(col, "uniform").pvalue > 0.01

    @pytest.mark.filterwarnings("error")
    def test_gumbel_frailty_overflow_is_quiet(self):
        # at tau = 0.999999 some frailties overflow or vanish: the draws hold
        # 0, 1 or nan, which the tick checks reject, but nothing warns
        uv = sample_uniform(param_of_tau("gumbel", 0.999999), 300, np.random.default_rng(1))
        assert not ((uv > 0) & (uv < 1)).all()

    def test_elliptical_normal_scores_relation(self):
        # sample correlation of normal scores ~ sin(pi/2 * tau) on gaussian data
        m = CopulaModel("gaussian", 0.6)
        uv = sample_uniform(m, 50_000, np.random.default_rng(13))
        z = stats.norm.ppf(uv)
        r = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
        tau_emp = stats.kendalltau(uv[:, 0], uv[:, 1]).statistic
        assert np.sin(np.pi * tau_emp / 2.0) == pytest.approx(r, abs=0.01)


class TestPseudoObservations:
    def test_values_strictly_inside_unit_square(self, rng):
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)
        uv = pseudo_observations(x, y)
        assert (uv > 0).all() and (uv < 1).all()

    def test_rank_scaling(self):
        uv = pseudo_observations([3.0, 1.0, 2.0], [10.0, 30.0, 20.0])
        assert np.allclose(uv[:, 0], [0.75, 0.25, 0.5])
        assert np.allclose(uv[:, 1], [0.25, 0.75, 0.5])


class TestFitAic:
    def _sim_uv(self, model, n, seed):
        return sample_uniform(model, n, np.random.default_rng(seed))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pseudo_observations(self, bad):
        uv = pseudo_observations(*self._sim_uv(CopulaModel("gaussian", 0.3), 100, 9).T)
        uv[17, 1] = bad
        with pytest.raises(InvalidParameter, match="strictly inside"):
            fit_aic(uv)

    def test_needs_thirty_points(self):
        uv = self._sim_uv(CopulaModel("gaussian", 0.3), 10, 0)
        with pytest.raises(InsufficientData):
            fit_aic(uv)

    def test_clayton_recovered_in_ninety_percent_of_replicates(self):
        wins = 0
        n_rep = 100
        for r in range(n_rep):
            uv = self._sim_uv(CopulaModel("clayton", 2.0), 2000, [21, r])
            uv = pseudo_observations(uv[:, 0], uv[:, 1])
            fits = fit_aic(uv, t_df_grid=(4, 8, 16))
            wins += fits[0].model.family == "clayton"
        assert wins >= 90

    def test_gaussian_param_recovered(self):
        good = 0
        n_rep = 60
        for r in range(n_rep):
            uv = self._sim_uv(CopulaModel("gaussian", 0.5), 2000, [22, r])
            uv = pseudo_observations(uv[:, 0], uv[:, 1])
            fits = fit_aic(uv, families=("gaussian",))
            good += abs(fits[0].model.param - 0.5) < 0.05
        assert good >= int(0.95 * n_rep)

    def test_comonotone_data_hits_boundary(self):
        x = np.linspace(0.0, 1.0, 200)
        uv = pseudo_observations(x, x**2)  # strictly comonotone
        fits = fit_aic(uv, families=("gaussian", "clayton"))
        assert all(f.boundary for f in fits)

    def test_aic_ascending_and_df_profiled(self):
        uv = self._sim_uv(CopulaModel("student_t", 0.5, df=5), 1500, 4)
        uv = pseudo_observations(uv[:, 0], uv[:, 1])
        fits = fit_aic(uv, t_df_grid=(3, 5, 8, 12, 20))
        aics = [f.aic for f in fits]
        assert aics == sorted(aics)
        tfit = next(f for f in fits if f.model.family == "student_t")
        assert tfit.n_params == 2
        assert 3 <= tfit.model.df <= 20

    def test_fixed_df_counts_one_parameter(self):
        uv = self._sim_uv(CopulaModel("student_t", 0.4, df=8), 500, 5)
        uv = pseudo_observations(uv[:, 0], uv[:, 1])
        fits = fit_aic(uv, families=("student_t",), t_df=8)
        assert fits[0].n_params == 1
        assert fits[0].model.df == 8

    def test_loglik_matches_log_pdf_sum(self):
        # the optimized objective must agree with the reference density
        uv = self._sim_uv(CopulaModel("gumbel", 2.0), 400, 6)
        uv = pseudo_observations(uv[:, 0], uv[:, 1])
        fits = fit_aic(uv, families=("gumbel", "clayton", "gaussian", "student_t"), t_df_grid=(3, 7, 15))
        assert len(fits) == 4
        for f in fits:
            ref = float(np.sum(log_pdf(f.model, uv[:, 0], uv[:, 1])))
            assert f.loglik == pytest.approx(ref, rel=1e-9, abs=1e-6)

    @pytest.mark.parametrize("kw", [{"t_df": 2}, {"t_df": 0}, {"t_df_grid": (2, 5)}, {"t_df_grid": (3, 4.5)}])
    def test_bad_student_t_df_rejected_before_fitting(self, monkeypatch, kw):
        uv = pseudo_observations(*self._sim_uv(CopulaModel("gaussian", 0.3), 100, 8).T)

        def no_quantiles(*args, **kwargs):
            raise AssertionError("a quantile transform ran before the df check")

        monkeypatch.setattr(special, "ndtri", no_quantiles)
        monkeypatch.setattr(special, "stdtrit", no_quantiles)
        with pytest.raises(InvalidParameter, match="df"):
            fit_aic(uv, **kw)

    # (family, df, param, loglik) of each fit in AIC order, as computed from
    # closed-form sufficient statistics; summing log_pdf point by point adds
    # the same terms in another order, which moves only the last bits
    PINNED = [
        (CopulaModel("student_t", 0.5, df=5), 600, 31, {"t_df_grid": (3, 5, 8, 12, 20)}, [
            ("student_t", 3, 0.5319813483343565, 125.22681469159988),
            ("gumbel", None, 1.5802192233286303, 114.39194105488824),
            ("gaussian", None, 0.5477134143932298, 104.45690321768097),
            ("clayton", None, 0.8438225815348643, 83.30407066116095),
        ]),
        (CopulaModel("clayton", 1.5), 500, 32, {"t_df_grid": (4, 8, 16)}, [
            ("clayton", None, 1.4479126263489677, 150.57271574164042),
            ("student_t", 4, 0.5971129753198497, 115.0516342653234),
            ("gaussian", None, 0.5972919291330283, 107.50171763323515),
            ("gumbel", None, 1.5462065788553043, 75.8564205359327),
        ]),
        (CopulaModel("gumbel", 1.8), 500, 33, {"t_df": 6}, [
            ("gumbel", None, 1.838543241882841, 147.9619318130836),
            ("student_t", 6, 0.6672808258459605, 147.92957735221353),
            ("gaussian", None, 0.6610604345478011, 140.37343505532525),
            ("clayton", None, 1.072916141368073, 99.05364526356834),
        ]),
        (CopulaModel("gaussian", -0.4), 400, 34, {"families": ("gaussian", "student_t")}, [
            ("gaussian", None, -0.4696316715567598, 47.980319191594084),
            ("student_t", 21, -0.4695071088291318, 48.456282818974785),
        ]),
    ]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(30, 500),
        levels=st.sampled_from([None, 2, 5, 40]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_deduplicated_features_equal_per_point_quantiles(self, n, levels, seed):
        # the features fit_aic hands to each fit, against per-point scipy.stats
        # quantiles; `levels` distinct values per column make average-rank ties
        rng = np.random.default_rng(seed)
        xy = rng.standard_normal((n, 2)) if levels is None else rng.integers(0, levels, (n, 2))
        uv = pseudo_observations(xy[:, 0] + 0.3 * xy[:, 1], xy[:, 1])
        u, v = uv.T
        seen = {}

        def record(features, family, df):
            seen[family, df] = features
            return 0.0, 0.0, False

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(copulas, "_fit_family_tau", record)
            fit_aic(uv, families=("gaussian",))
            for df in (3, 4, 7, 15, 30):  # the df search visits only some of a grid
                fit_aic(uv, families=("student_t",), t_df=df)
        x, y = stats.norm.ppf(u), stats.norm.ppf(v)
        expected = {("gaussian", None): (x * x + y * y, x * y)}
        for df in (3, 4, 7, 15, 30):
            x, y = stats.t.ppf(u, df), stats.t.ppf(v, df)
            t_margins = (df + 1.0) / 2.0 * (np.log1p(x * x / df) + np.log1p(y * y / df))
            expected["student_t", df] = (x * x + y * y, x * y, t_margins)
        assert seen.keys() == expected.keys()
        for key, terms in expected.items():
            assert [t.tobytes() for t in seen[key]] == [t.tobytes() for t in terms], key

    def test_one_t_quantile_call_per_df_over_distinct_values(self, monkeypatch):
        n = 300
        uv = pseudo_observations(*self._sim_uv(CopulaModel("student_t", 0.5, df=5), n, 35).T)
        dfs, sizes = [], []
        stdtrit = special.stdtrit

        def counted(df, p):
            dfs.append(df)
            sizes.append(np.size(p))
            return stdtrit(df, p)

        monkeypatch.setattr(special, "stdtrit", counted)
        fit_aic(uv)  # the default grid, df 3..30
        assert len(dfs) <= 10
        assert len(set(dfs)) == len(dfs)
        assert max(sizes) <= n
        dfs.clear()
        fit_aic(uv, families=("student_t",), t_df=7)
        assert dfs == [7]

    @staticmethod
    def _t_profile(uv, grid):
        """Log-likelihood of the t fit at each df of ``grid``, each pinned by ``t_df``."""
        return [fit_aic(uv, families=("student_t",), t_df=d)[0].loglik for d in grid]

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["gaussian", "student_t", "clayton", "gumbel"]),
        tau=st.floats(0.05, 0.8),
        n=st.integers(30, 400),
        levels=st.sampled_from([None, 3, 7, 20]),
        grid=st.one_of(st.just(tuple(range(3, 31))), st.lists(st.integers(3, 60), min_size=1, max_size=10)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_df_search_returns_a_local_maximum_of_the_profile(self, family, tau, n, levels, grid, seed):
        # `levels` rounds each column to that many values, which ties ranks
        model = param_of_tau(family, tau, df=5 if family == "student_t" else None)
        xy = self._sim_uv(model, n, seed)
        if levels is not None:
            xy = np.floor(xy * levels)
        uv = pseudo_observations(*xy.T)
        dfs = sorted(set(grid))
        prof = self._t_profile(uv, dfs)
        fit = fit_aic(uv, families=("student_t",), t_df_grid=grid)[0]
        i = dfs.index(fit.model.df)
        assert fit.loglik == prof[i]
        # a local maximum: a strict rise into it, no rise out of it
        local = [j for j in range(len(dfs))
                 if (j == 0 or prof[j] > prof[j - 1]) and (j == len(dfs) - 1 or prof[j] >= prof[j + 1])]
        assert i in local
        if len(local) == 1:  # unimodal: the full-grid argmax, smallest df on ties
            assert i == int(np.argmax(prof))

    # multimodal profiles found by sweeping small samples: the search stops
    # at df 30 although a small df fits better
    @pytest.mark.parametrize("model, n, seed, levels, search_df, argmax_df, gap", [
        (CopulaModel("clayton", 2.0), 30, [3, 30, 99], None, 30, 3, 0.142),
        (CopulaModel("gaussian", 0.3), 60, [3, 60], 7, 30, 4, 0.018),
    ], ids=["clayton-n30", "gaussian-n60-7-levels"])
    def test_df_search_on_multimodal_profiles(self, model, n, seed, levels, search_df, argmax_df, gap):
        xy = self._sim_uv(model, n, seed)
        uv = pseudo_observations(*(xy if levels is None else np.floor(xy * levels)).T)
        grid = range(3, 31)
        prof = self._t_profile(uv, grid)
        fit = fit_aic(uv, families=("student_t",))[0]
        assert fit.model.df == search_df
        assert grid[int(np.argmax(prof))] == argmax_df
        assert max(prof) - fit.loglik == pytest.approx(gap, abs=1e-3)

    @pytest.mark.parametrize("model, n, seed, kw, expected", PINNED)
    def test_pinned_fits(self, model, n, seed, kw, expected):
        uv = pseudo_observations(*self._sim_uv(model, n, seed).T)
        fits = fit_aic(uv, **kw)
        assert [(f.model.family, f.model.df) for f in fits] == [e[:2] for e in expected]
        for f, (_, _, param, loglik) in zip(fits, expected):
            assert f.model.param == pytest.approx(param, abs=1e-9)
            assert f.loglik == pytest.approx(loglik, rel=1e-12)


class TestPluginCopula:
    def _paired(self, rho, n, seed):
        sim = simulate(
            SimSpec(
                model=CopulaModel("gaussian", rho),
                margins=(stats.norm(), stats.norm()),
                lambda1=1.0,
                lambda2=1.0,
                n1=n,
                n2=n,
                seed=seed,
            )
        )
        return pair_ticks(sim.a, sim.b)

    def test_boundary_grounded(self):
        p = self._paired(0.5, 500, 0)
        plug = plugin_copula(p, 0.5, "gaussian")
        assert plug.evaluate(-np.inf, 0.01) == 0.0
        assert plug.evaluate(0.01, -np.inf) == 0.0

    def test_independence_model_gives_product(self):
        p = self._paired(0.0, 500, 1)
        plug = plugin_copula(p, 0.0, "gaussian")
        rx, ry = p.returns()
        r1 = np.quantile(rx, [0.2, 0.5, 0.8])
        r2 = np.quantile(ry, [0.3, 0.6, 0.9])
        vals = plug.evaluate(r1, r2)
        expect = plug.margin1.ecdf(r1) * plug.margin2.ecdf(r2)
        assert np.allclose(vals, expect, atol=1e-12)

    def test_monotone_in_each_argument_on_grid(self):
        p = self._paired(0.6, 800, 2)
        plug = plugin_copula(p, 0.6, "gaussian")
        rx, ry = p.returns()
        g1 = np.quantile(rx, np.linspace(0.01, 0.99, 50))
        g2 = np.quantile(ry, np.linspace(0.01, 0.99, 50))
        uu, vv = np.meshgrid(g1, g2, indexing="ij")
        c = plug.evaluate(uu, vv)
        assert (np.diff(c, axis=0) >= -1e-12).all()
        assert (np.diff(c, axis=1) >= -1e-12).all()

    def test_inadmissible_parameter_rejected(self):
        p = self._paired(0.5, 300, 3)
        with pytest.raises(InvalidParameter):
            plugin_copula(p, 1.5, "gaussian")

    def test_empirical_margin_ecdf_range(self, rng):
        m = EmpiricalMargin(rng.standard_normal(50))
        xs = np.linspace(-4, 4, 100)
        vals = m.ecdf(xs)
        assert (np.diff(vals) >= 0).all()
        assert vals.max() <= 50 / 51.0
        assert m.ecdf(100.0) == pytest.approx(50 / 51.0)
