import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from tickcopula import (
    CalibrationFailure,
    CorrectionCurve,
    ExtrapolationWarning,
    InvalidParameter,
    PoissonPair,
    SimSpec,
    TickCopulaError,
    TickSeries,
    build_curve,
    correct_tau,
    interval_misspecified,
    interval_quad,
    interval_quantile,
    kendall_tau,
    pair_refresh_time,
    pair_ticks,
    param_of_tau,
    sample_uniform,
    simulate,
)
from tickcopula.calibration import _uncorrected_tau, _uncorrected_taus

STD_MARGINS = (stats.norm(), stats.norm())


def make_curve(coeffs, grid=None, resid_scale=0.03, n_rep=60, seed=0):
    """A CorrectionCurve around a prescribed mean map with synthetic spread.

    The forward coefficients are pinned exactly to ``coeffs`` so inversion
    tests have closed-form answers; the inverse fit and the replicate cloud
    come from simulated noise of scale ``resid_scale``.
    """
    rng = np.random.default_rng(seed)
    if grid is None:
        grid = np.linspace(0.05, 0.7, 8)
    grid = np.asarray(grid, dtype=float)
    a, b, c = coeffs
    mean = a + b * grid + c * grid**2
    est = mean[:, None] + rng.standard_normal((grid.size, n_rep)) * resid_scale
    fitted = CorrectionCurve.from_samples("clayton", grid, est, {"synthetic": True})
    return CorrectionCurve(
        family="clayton",
        grid_taus=grid,
        estimates=est,
        quad_coeffs=(float(a), float(b), float(c)),
        resid_scale=float(resid_scale),
        inverse_coeffs=fitted.inverse_coeffs,
        inverse_resid_scale=fitted.inverse_resid_scale,
        meta={"synthetic": True},
    )


class TestCorrectionCurveValidation:
    def test_non_monotone_fit_rejected(self):
        with pytest.raises(CalibrationFailure):
            make_curve((0.0, 0.1, -0.5))  # derivative negative over the grid

    def test_minimum_sizes(self):
        with pytest.raises(InvalidParameter):
            make_curve((0.0, 1.0, 0.0), grid=[0.1, 0.2, 0.3])
        with pytest.raises(InvalidParameter):
            make_curve((0.0, 1.0, 0.0), n_rep=10)

    def test_json_round_trip(self, tmp_path):
        curve = make_curve((0.01, 0.7, -0.1))
        path = tmp_path / "curve.json"
        curve.to_json(path)
        loaded = CorrectionCurve.from_json(path)
        assert loaded.family == curve.family
        assert np.array_equal(loaded.grid_taus, curve.grid_taus)
        assert np.array_equal(loaded.estimates, curve.estimates)
        assert loaded.quad_coeffs == curve.quad_coeffs
        assert loaded.resid_scale == curve.resid_scale
        assert loaded.meta == curve.meta


class TestCorrectTau:
    def test_identity_curve(self):
        curve = make_curve((0.0, 1.0, 0.0))
        assert correct_tau(curve, 0.4) == pytest.approx(0.4, abs=1e-12)

    def test_hand_computed_quadratic_roots(self):
        curve = make_curve((0.0, 0.6, 0.2), grid=np.linspace(0.05, 0.7, 8))
        # 0.6*(0.5) + 0.2*(0.5)^2 = 0.35, so 0.35 inverts to exactly 0.5
        assert correct_tau(curve, 0.35) == pytest.approx(0.5, abs=1e-10)
        # generic value: positive root of 0.2 t^2 + 0.6 t - 0.38 = 0
        root = (-0.6 + np.sqrt(0.36 + 4 * 0.2 * 0.38)) / (2 * 0.2)
        assert correct_tau(curve, 0.38) == pytest.approx(root, abs=1e-10)

    def test_extrapolation_warns_and_returns_boundary(self):
        curve = make_curve((0.0, 0.6, 0.2))
        f_lo, f_hi = curve.fitted_range
        with pytest.warns(ExtrapolationWarning):
            out = correct_tau(curve, f_hi + 0.05)
        assert out == pytest.approx(curve.grid_taus[-1])
        with pytest.warns(ExtrapolationWarning):
            out = correct_tau(curve, f_lo - 0.05)
        assert out == pytest.approx(curve.grid_taus[0])

    def test_concave_curve_root_selection(self):
        # negative curvature like real nonsynchronous shrinkage maps
        curve = make_curve((0.0, 0.72, -0.23))
        for tau_true in (0.1, 0.3, 0.6):
            obs = curve.predict(tau_true)
            assert correct_tau(curve, float(obs)) == pytest.approx(tau_true, abs=1e-9)


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("invert", [correct_tau, interval_quad, interval_quantile])
def test_non_finite_observation_rejected(invert, tau):
    with pytest.raises(InvalidParameter, match="finite"):
        invert(make_curve((0.0, 1.0, 0.0)), tau)


class TestIntervalQuad:
    def test_contains_point_and_band_width(self):
        curve = make_curve((0.0, 0.7, -0.1), resid_scale=0.02)
        iv = interval_quad(curve, 0.3, level=0.95)
        assert iv.lo <= iv.point <= iv.hi
        # band lives in tau units: width 2*z*inverse_resid_scale, unclipped
        z = stats.norm.ppf(0.975)
        assert iv.length == pytest.approx(2 * z * curve.inverse_resid_scale, rel=1e-9)
        # tau-unit residual scale ~ estimate noise / local slope
        assert curve.inverse_resid_scale == pytest.approx(0.02 / 0.65, rel=0.25)

    def test_zero_residual_collapses_to_point(self):
        curve = make_curve((0.0, 1.0, 0.0), resid_scale=0.0)
        iv = interval_quad(curve, 0.4)
        assert iv.length == pytest.approx(0.0, abs=1e-9)
        assert iv.point == pytest.approx(0.4, abs=1e-9)

    def test_far_outside_band_fails(self):
        curve = make_curve((0.0, 1.0, 0.0), resid_scale=0.01)
        with pytest.raises(CalibrationFailure):
            interval_quad(curve, 2.0)

    def test_interval_clipped_to_grid_span(self):
        curve = make_curve((0.0, 1.0, 0.0), resid_scale=0.05)
        iv = interval_quad(curve, 0.06)
        assert iv.lo == pytest.approx(curve.grid_taus[0])


class TestIntervalQuantile:
    def test_identity_bands_recover_level_width(self):
        rng = np.random.default_rng(1)
        grid = np.linspace(0.05, 0.7, 10)
        est = grid[:, None] + rng.standard_normal((10, 200)) * 0.02
        curve = CorrectionCurve.from_samples("clayton", grid, est, {})
        iv = interval_quantile(curve, 0.35, level=0.95)
        assert iv.lo <= 0.35 <= iv.hi
        # identity curve: tau interval ~ obs +/- 1.96 * 0.02
        assert iv.length == pytest.approx(2 * 1.96 * 0.02, rel=0.25)

    def test_outside_all_bands_fails(self):
        curve = make_curve((0.0, 0.7, 0.0), resid_scale=0.02)
        with pytest.raises(CalibrationFailure):
            interval_quantile(curve, 0.95)

    def test_point_inside_interval(self):
        curve = make_curve((0.01, 0.65, -0.05), resid_scale=0.03)
        iv = interval_quantile(curve, 0.25)
        assert iv.lo <= iv.point <= iv.hi


class TestIntervalMisspecified:
    def _gaussian_paired(self, rho, n, seed, refresh=False):
        from tickcopula import CopulaModel, SimSpec, simulate

        sim = simulate(
            SimSpec(
                model=CopulaModel("gaussian", rho),
                margins=STD_MARGINS,
                lambda1=1.0,
                lambda2=1.0,
                n1=n,
                n2=n,
                seed=seed,
            )
        )
        return pair_refresh_time(sim.a, sim.b) if refresh else pair_ticks(sim.a, sim.b)

    def test_truly_gaussian_coverage_sanity(self):
        # corrected pairs + elliptical map: near-nominal coverage on gaussian data
        tau_true = 2 / np.pi * np.arcsin(0.5)
        hits = 0
        for s in range(60):
            p = self._gaussian_paired(0.5, 1200, [31, s])
            iv = interval_misspecified(p, level=0.95)
            hits += iv.contains(tau_true)
        assert hits >= 0.85 * 60

    def test_refresh_pairs_leave_attenuation_uncorrected(self):
        # on refresh-synchronized stamps w == 1, so the interval centers on
        # the attenuated correlation; with strong dependence it misses badly
        misses = 0
        tau_true = 2 / np.pi * np.arcsin(0.8)
        for s in range(30):
            p = self._gaussian_paired(0.8, 1500, [32, s], refresh=True)
            iv = interval_misspecified(p, level=0.95)
            misses += not iv.contains(tau_true)
        assert misses >= 25

    def test_maps_endpoints_through_arcsine(self):
        from tickcopula import corrected_correlation

        p = self._gaussian_paired(0.4, 800, 33)
        cc = corrected_correlation(p, level=0.9)
        iv = interval_misspecified(p, level=0.9)
        assert iv.lo == pytest.approx(2 / np.pi * np.arcsin(cc.ci[0]))
        assert iv.hi == pytest.approx(2 / np.pi * np.arcsin(cc.ci[1]))
        assert iv.point == pytest.approx(2 / np.pi * np.arcsin(np.clip(cc.theta_hat, -1, 1)))


class TestBuildCurve:
    def test_small_clayton_curve_underestimates(self):
        curve = build_curve(
            "clayton",
            PoissonPair(1.0, 1.0),
            STD_MARGINS,
            grid=np.linspace(0.1, 0.6, 5),
            n_rep=50,
            n_ticks=200,
            seed=11,
        )
        fit = curve.predict(curve.grid_taus)
        assert (fit < curve.grid_taus).all()  # shrinkage everywhere
        assert curve.meta["n_ticks"] == 200
        # calibration consistency: inverting the fit at a grid point's mean
        # estimate recovers the grid point within 2 residual scales
        import warnings

        for k, tau in enumerate(curve.grid_taus):
            mean_est = float(curve.estimates[k].mean())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ExtrapolationWarning)
                back = correct_tau(curve, mean_est)
            assert abs(back - tau) <= 2 * curve.resid_scale

    def test_underestimation_law_at_clt_scale(self):
        # positive true tau: mean uncorrected estimate below truth and the
        # estimate's sign agrees with the truth in >= 99% of replicates
        from tickcopula import CopulaModel, SimSpec, simulate

        for tau_true in (0.1, 0.3, 0.5):
            model = param_of_tau("clayton", tau_true)
            ests = []
            for r in range(100):
                sim = simulate(
                    SimSpec(
                        model=model, margins=STD_MARGINS, lambda1=1.0, lambda2=1.0,
                        n1=2000, n2=2000, seed=[61, int(tau_true * 10), r],
                    )
                )
                p = pair_ticks(sim.a, sim.b)
                ests.append(kendall_tau(p).tau_hat)
            ests = np.asarray(ests)
            assert ests.mean() < tau_true
            assert (np.sign(ests) == 1.0).mean() >= 0.99

    def test_synchronous_limit_is_identity(self):
        # no deletion: both assets live on the same event lattice, so the
        # uncorrected tau is unbiased and the fitted map is the identity
        rng_master = 5
        grid = np.linspace(0.1, 0.6, 6)
        n_rep, n = 60, 400
        est = np.empty((grid.size, n_rep))
        for gi, tau in enumerate(grid):
            model = param_of_tau("gaussian", float(tau))
            for r in range(n_rep):
                rng = np.random.default_rng([rng_master, gi, r])
                gaps = rng.exponential(1.0, n)
                times = np.cumsum(gaps)
                uv = sample_uniform(model, n, rng)
                x = np.cumsum(np.sqrt(gaps) * stats.norm.ppf(uv[:, 0]))
                y = np.cumsum(np.sqrt(gaps) * stats.norm.ppf(uv[:, 1]))
                p = pair_ticks(TickSeries(times, x), TickSeries(times, y))
                est[gi, r] = kendall_tau(p).tau_hat
        tt = np.repeat(grid, n_rep)
        design = np.column_stack([np.ones_like(tt), tt, tt * tt])
        coef, *_ = np.linalg.lstsq(design, est.ravel(), rcond=None)
        a, b, c = coef
        assert abs(a) < 0.02
        assert abs(b - 1.0) < 0.05
        assert abs(c) < 0.05


class _InfiniteTail:
    """Normal quantiles, but infinite above 0.99: a price, paired or not, turns non-finite."""

    def ppf(self, u):
        return np.where(u > 0.99, np.inf, stats.norm.ppf(u))


class _HugeTails:
    """Innovations of +-1.2e308 in the tails: prices stay finite, a return between them may not."""

    def ppf(self, u):
        return np.where(np.abs(u - 0.5) > 0.45, np.sign(u - 0.5) * 1.2e308, 0.0)


@pytest.mark.parametrize("margins, n, family, prefixes, expected", [
    (STD_MARGINS, 2, "clayton", range(12), {("InsufficientData", 0), ("NoOverlap", 0)}),
    # at prefixes 145 and 176 the first infinite price is an unpaired tick
    ((_InfiniteTail(), stats.norm()), 30, "clayton", [*range(12), 145, 176],
     {("MalformedInput", 3), ("MalformedInput", 0), ("MalformedInput", 2)}),
    ((stats.norm(), _HugeTails()), 30, "gumbel", range(12), {("InvalidParameter", 1)}),
], ids=["tiny", "infinite-price", "infinite-return"])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_block_taus_fail_as_a_loop_over_seeds(margins, n, family, prefixes, expected):
    """The block estimator returns, or raises, what the per-seed loop does, at the same replicate."""
    spec = SimSpec(model=param_of_tau(family, 0.4), margins=margins, lambda1=1.0, lambda2=3.0, n1=n, n2=n + 1)
    seen = set()
    for prefix in prefixes:
        seeds = [[prefix, r] for r in range(10)]
        taus = []
        try:
            for seed in seeds:
                taus.append(_uncorrected_tau(simulate(replace(spec, seed=seed))))
        except TickCopulaError as exc:
            seen.add((type(exc).__name__, len(taus)))
            for first in (seeds, seeds[: len(taus) + 1]):
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    _uncorrected_taus(spec, first)
            seeds = seeds[: len(taus)]
        if seeds:
            assert _uncorrected_taus(spec, seeds).tolist() == taus
    assert expected <= seen
