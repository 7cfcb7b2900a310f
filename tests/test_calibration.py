import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from tickcopula import (
    CalibrationFailure,
    CopulaModel,
    CorrectionCurve,
    InvalidParameter,
    PoissonPair,
    SimSpec,
    TickCopulaError,
    TickSeries,
    build_curve,
    calibration,
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
from tickcopula.calibration import (
    IntervalEstimate,
    _block_taus,
    _invert_fit,
    _pair_rows,
    _paired_rows,
    _uncorrected_taus,
)
from tickcopula.copulas import _sample_block
from tickcopula.synthesis import _events, _Events, _simulate, _streams

from conftest import (
    HugeTails,
    InfiniteTail,
    gaussian_tau_oracle,
    invert_fit_two_roots,
    rows_apart_in_se,
    uncorrected_tau,
)

STD_MARGINS = (stats.norm(), stats.norm())


def make_curve(coeffs, grid=None, noise=0.03, n_rep=60, seed=0):
    """A CorrectionCurve whose replicates scatter around a prescribed mean map.

    The replicates are the quadratic ``coeffs`` at each grid tau plus normal
    noise of scale ``noise``. With ``noise=0`` the fitted forward coefficients
    equal ``coeffs`` up to rounding, so inversion tests have closed-form answers.
    """
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.05, 0.7, 8) if grid is None else np.asarray(grid, dtype=float)
    a, b, c = coeffs
    mean = a + b * grid + c * grid**2
    est = mean[:, None] + rng.standard_normal((grid.size, n_rep)) * noise
    return CorrectionCurve("clayton", grid, est, {"synthetic": True})


class TestCorrectionCurveValidation:
    def test_non_monotone_fit_rejected(self):
        with pytest.raises(CalibrationFailure):
            make_curve((0.0, 0.1, -0.5))  # derivative negative over the grid

    def test_minimum_sizes(self):
        with pytest.raises(InvalidParameter):
            make_curve((0.0, 1.0, 0.0), grid=[0.1, 0.2, 0.3])
        with pytest.raises(InvalidParameter):
            make_curve((0.0, 1.0, 0.0), n_rep=10)

    @pytest.mark.parametrize("scale", [2.5, -2.5])
    def test_grid_taus_outside_the_tau_range_rejected(self, scale):
        d = make_curve((0.01, 0.7, -0.1)).to_dict()
        d["grid_taus"] = sorted(scale * t for t in d["grid_taus"])
        with pytest.raises(InvalidParameter, match=r"\(-1, 1\)"):
            CorrectionCurve.from_dict(d)

    @pytest.mark.parametrize("family", ["banana", 5])
    def test_unknown_family_rejected(self, family):
        d = make_curve((0.01, 0.7, -0.1)).to_dict()
        with pytest.raises(InvalidParameter, match="unknown family"):
            CorrectionCurve.from_dict({**d, "family": family})

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
        assert loaded.inverse_coeffs == curve.inverse_coeffs
        assert loaded.inverse_resid_scale == curve.inverse_resid_scale
        assert loaded.meta == curve.meta


class TestCorrectTau:
    """The tau correction: `_invert_fit`, the point estimate of `interval_quad`."""

    def test_identity_curve(self):
        curve = make_curve((0.0, 1.0, 0.0), noise=0.0)
        assert _invert_fit(curve, 0.4) == pytest.approx(0.4, abs=1e-12)

    def test_hand_computed_quadratic_roots(self):
        curve = make_curve((0.0, 0.6, 0.2), noise=0.0)
        # 0.6*(0.5) + 0.2*(0.5)^2 = 0.35, so 0.35 inverts to exactly 0.5
        assert _invert_fit(curve, 0.35) == pytest.approx(0.5, abs=1e-10)
        # generic value: positive root of 0.2 t^2 + 0.6 t - 0.38 = 0
        root = (-0.6 + np.sqrt(0.36 + 4 * 0.2 * 0.38)) / (2 * 0.2)
        assert _invert_fit(curve, 0.38) == pytest.approx(root, abs=1e-10)

    def test_extrapolation_returns_boundary(self):
        curve = make_curve((0.0, 0.6, 0.2))
        f_lo, f_hi = curve.fitted_range
        assert _invert_fit(curve, f_hi + 0.05) == pytest.approx(curve.grid_taus[-1])
        assert _invert_fit(curve, f_lo - 0.05) == pytest.approx(curve.grid_taus[0])

    def test_concave_curve_root_selection(self):
        # negative curvature like real nonsynchronous shrinkage maps
        curve = make_curve((0.0, 0.72, -0.23))
        for tau_true in (0.1, 0.3, 0.6):
            obs = curve.predict(tau_true)
            assert _invert_fit(curve, float(obs)) == pytest.approx(tau_true, abs=1e-9)

    def test_increasing_root_is_the_root_nearest_the_span(self):
        # on every curve the monotonicity check admits, the one root solved is the one of both nearest the span
        rng = np.random.default_rng(40)
        curves = n_negative = 0
        while curves < 300:
            lo, hi = np.sort(rng.uniform(-0.9, 0.9, 2))
            if hi - lo < 0.1:
                continue
            try:
                curve = make_curve((rng.normal(0, 0.1), rng.uniform(0.05, 1.5), rng.normal(0, 1.5)),
                                   grid=np.linspace(lo, hi, int(rng.integers(5, 13))), noise=0.01,
                                   n_rep=50, seed=curves)
            except CalibrationFailure:
                continue
            curves += 1
            f_lo, f_hi = curve.fitted_range
            beyond = (f_hi - f_lo) * np.array([1e-9, 1e-3, 0.1, 1.0, 10.0, 1e4])
            values = [*np.linspace(f_lo, f_hi, 9), np.nextafter(f_lo, -1), np.nextafter(f_hi, 1),
                      *(f_lo - beyond), *(f_hi + beyond)]
            a, b, c = curve.quad_coeffs
            for value in map(float, values):
                n_negative += b * b - 4.0 * c * (a - value) < 0
                assert _invert_fit(curve, value) == invert_fit_two_roots(curve, value)
        assert n_negative > 100


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("invert", [interval_quad, interval_quantile])
def test_non_finite_observation_rejected(invert, tau):
    with pytest.raises(InvalidParameter, match="finite"):
        invert(make_curve((0.0, 1.0, 0.0)), tau)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [2.0, -1.0000000000000002, 1e308, -1e308])
@pytest.mark.parametrize("invert", [interval_quad, interval_quantile])
def test_observation_past_one_rejected(invert, tau):
    # no Kendall tau lies past [-1, 1]; -1e308 overflowed the quadratic before it was refused
    with pytest.raises(InvalidParameter, match=re.escape(f"observed tau must lie in [-1, 1], got {tau}")):
        invert(make_curve((0.0, 1.0, 0.0)), tau)


@pytest.mark.parametrize("level", [0.0, 1.0, np.nan])
@pytest.mark.parametrize("invert", [interval_quad, interval_quantile])
def test_level_outside_the_unit_interval_rejected(invert, level):
    with pytest.raises(InvalidParameter, match=re.escape(f"level must lie in (0, 1), got {level}")):
        invert(make_curve((0.0, 1.0, 0.0)), 0.4, level=level)


def test_interval_estimate_level_one_rejected():
    with pytest.raises(InvalidParameter, match="level must lie in"):
        IntervalEstimate(point=0.4, lo=0.3, hi=0.5, level=1.0, method="quad-prediction")


class TestIntervalQuad:
    def test_contains_point_and_band_width(self):
        curve = make_curve((0.0, 0.7, -0.1), noise=0.02)
        iv = interval_quad(curve, 0.3, level=0.95)
        assert iv.lo <= iv.point <= iv.hi
        # band lives in tau units: width 2*z*inverse_resid_scale, unclipped
        z = stats.norm.ppf(0.975)
        assert iv.length == pytest.approx(2 * z * curve.inverse_resid_scale, rel=1e-9)
        # tau-unit residual scale ~ estimate noise / local slope
        assert curve.inverse_resid_scale == pytest.approx(0.02 / 0.65, rel=0.25)

    def test_zero_residual_collapses_to_point(self):
        curve = make_curve((0.0, 1.0, 0.0), noise=0.0)
        iv = interval_quad(curve, 0.4)
        assert iv.length == pytest.approx(0.0, abs=1e-9)
        assert iv.point == pytest.approx(0.4, abs=1e-9)

    def test_far_outside_band_fails(self):
        curve = make_curve((0.0, 1.0, 0.0), noise=0.01)
        with pytest.raises(CalibrationFailure):
            interval_quad(curve, 0.99)

    def test_interval_clipped_to_grid_span(self):
        curve = make_curve((0.0, 1.0, 0.0), noise=0.05)
        iv = interval_quad(curve, 0.06)
        assert iv.lo == pytest.approx(curve.grid_taus[0])

    @pytest.mark.parametrize("family", ["clayton", "gumbel"])
    def test_point_is_the_inverted_fit(self, family):
        curve = build_curve(family, PoissonPair(1.0, 1.0), STD_MARGINS, grid=np.linspace(0.05, 0.7, 6),
                            n_rep=50, n_ticks=200, seed=5)
        f_lo, f_hi = curve.fitted_range
        checked = 0
        for obs in np.linspace(f_lo - 0.1, f_hi + 0.1, 201):
            try:
                iv = interval_quad(curve, float(obs))
            except CalibrationFailure:
                continue
            inverted = _invert_fit(curve, float(obs))
            if iv.lo <= inverted <= iv.hi:
                assert iv.point == inverted
                checked += 1
        assert checked > 150


class TestIntervalQuantile:
    def test_identity_bands_recover_level_width(self):
        rng = np.random.default_rng(1)
        grid = np.linspace(0.05, 0.7, 10)
        est = grid[:, None] + rng.standard_normal((10, 200)) * 0.02
        curve = CorrectionCurve("clayton", grid, est, {})
        iv = interval_quantile(curve, 0.35, level=0.95)
        assert iv.lo <= 0.35 <= iv.hi
        # identity curve: tau interval ~ obs +/- 1.96 * 0.02
        assert iv.length == pytest.approx(2 * 1.96 * 0.02, rel=0.25)

    def test_observation_on_a_flat_band_takes_its_far_end(self):
        # grid points 4 and 5 share one replicate cloud, so both bands are flat there
        rng = np.random.default_rng(1)
        grid = np.linspace(0.05, 0.7, 10)
        est = grid[:, None] + rng.standard_normal((10, 200)) * 0.03
        est[4] = est[5] = 0.5 * (grid[4] + grid[5]) + rng.standard_normal(200) * 0.03
        curve = CorrectionCurve("clayton", grid, est, {})
        band_lo, band_hi = curve.band(0.95)
        assert interval_quantile(curve, float(band_lo[4])).hi == grid[5]
        assert interval_quantile(curve, float(band_hi[5])).lo == grid[4]

    def test_outside_all_bands_fails(self):
        curve = make_curve((0.0, 0.7, 0.0), noise=0.02)
        with pytest.raises(CalibrationFailure):
            interval_quantile(curve, 0.95)

    def test_band_computed_once_per_level(self):
        curve = make_curve((0.01, 0.65, -0.05), noise=0.03)
        band = curve.band(0.9)
        assert curve.band(0.9) is band and curve.band(0.95) is not band
        alpha = 1.0 - 0.9
        for b, q in zip(band, (alpha / 2.0, 1.0 - alpha / 2.0)):
            assert not b.flags.writeable
            assert b.tobytes() == np.maximum.accumulate(np.quantile(curve.estimates, q, axis=1)).tobytes()

    def test_point_inside_interval(self):
        curve = make_curve((0.01, 0.65, -0.05), noise=0.03)
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
        for k, tau in enumerate(curve.grid_taus):
            back = _invert_fit(curve, float(curve.estimates[k].mean()))
            assert abs(back - tau) <= 2 * curve.resid_scale

    def test_asset_two_ticks_at_its_own_rate(self):
        # at lambda2 = 3 lambda1 a sample holds 350 ticks of asset 1 and 1050 of asset 2,
        # which pair into more returns and shrink tau less than 350 of each
        kw = dict(grid=np.linspace(0.1, 0.5, 5), n_rep=50, n_ticks=350, seed=0)
        faster = build_curve("clayton", PoissonPair(1.0, 3.0), STD_MARGINS, **kw)
        equal = build_curve("clayton", PoissonPair(1.0, 1.0), STD_MARGINS, **kw)
        assert (faster.meta["n_ticks"], faster.meta["n_ticks2"]) == (350, 1050)
        assert (equal.meta["n_ticks"], equal.meta["n_ticks2"]) == (350, 350)
        assert not np.array_equal(faster.estimates, equal.estimates)
        spec = SimSpec(model=param_of_tau("clayton", 0.5), margins=STD_MARGINS, lambda1=1.0, lambda2=3.0,
                       n1=350, n2=1050)
        direct = [uncorrected_tau(simulate(replace(spec, seed=[71, r]))) for r in range(50)]
        assert rows_apart_in_se(faster.estimates[-1], direct) < 4
        assert rows_apart_in_se(equal.estimates[-1], direct) > 4

    @pytest.mark.parametrize("lambda1, lambda2", [(1e-300, 1e300), (1.0, 1e-3)],
                             ids=["no-finite-count", "fewer-than-two"])
    def test_rate_ratio_without_a_count_rejected_before_simulating(self, lambda1, lambda2, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a curve without a tick count for asset 2 was simulated")

        monkeypatch.setattr("tickcopula.calibration._run_cells", unreachable)
        with pytest.raises(InvalidParameter, match="lambda2|at least 2"):
            build_curve("clayton", PoissonPair(lambda1, lambda2), STD_MARGINS, grid=np.linspace(0.1, 0.5, 5),
                        n_rep=50)

    @pytest.mark.parametrize("grid, message", [
        ([0.1, 0.2, 0.3], "at least 5 tau values"),
        ([0.1, 0.2, 0.3, 0.3, 0.5], "strictly increasing"),
    ], ids=["three-points", "repeated-tau"])
    def test_bad_grid_rejected_before_simulating(self, grid, message, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a bad grid was simulated")

        monkeypatch.setattr("tickcopula.calibration._run_cells", unreachable)
        with pytest.raises(InvalidParameter, match=message):
            build_curve("clayton", PoissonPair(1.0, 1.0), STD_MARGINS, grid=grid, n_rep=50)

    def test_too_few_replicates_rejected_before_simulating(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a curve of 49 replicates was simulated")

        monkeypatch.setattr("tickcopula.calibration._run_cells", unreachable)
        with pytest.raises(InvalidParameter, match="n_rep must be at least 50, got 49"):
            build_curve("clayton", PoissonPair(1.0, 1.0), STD_MARGINS, grid=np.linspace(0.1, 0.5, 5), n_rep=49)

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


@pytest.mark.parametrize("margins, n, family, prefixes, expected", [
    (STD_MARGINS, 2, "clayton", range(12), {("InsufficientData", 0), ("NoOverlap", 0)}),
    # at prefixes 145 and 176 the first infinite price is an unpaired tick
    ((InfiniteTail(), stats.norm()), 30, "clayton", [*range(12), 145, 176],
     {("MalformedInput", 3), ("MalformedInput", 0), ("MalformedInput", 2)}),
    ((stats.norm(), HugeTails()), 30, "gumbel", range(12), {("InvalidParameter", 1)}),
], ids=["tiny", "infinite-price", "infinite-return"])
@pytest.mark.filterwarnings("error")
def test_block_taus_fail_as_a_loop_over_seeds(margins, n, family, prefixes, expected):
    """The block estimator returns, or raises, what the per-seed loop does, at the same replicate."""
    spec = SimSpec(model=param_of_tau(family, 0.4), margins=margins, lambda1=1.0, lambda2=3.0, n1=n, n2=n + 1)
    seen = set()
    for prefix in prefixes:
        seeds = [[prefix, r] for r in range(10)]
        taus = []
        try:
            for seed in seeds:
                taus.append(uncorrected_tau(simulate(replace(spec, seed=seed))))
        except TickCopulaError as exc:
            seen.add((type(exc).__name__, len(taus)))
            for first in (seeds, seeds[: len(taus) + 1]):
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    _uncorrected_taus(spec, first)
            seeds = seeds[: len(taus)]
        if seeds:
            assert _uncorrected_taus(spec, seeds).tolist() == taus
    assert expected <= seen


@pytest.mark.filterwarnings("error")
def test_block_tau_left_nan_is_counted_on_the_rows_own_pairs(monkeypatch):
    """A row the block accepts but cannot count is counted on the pairs it holds, not simulated and paired again."""
    spec = SimSpec(model=param_of_tau("gumbel", 0.4), margins=(stats.norm(), HugeTails()), lambda1=1.0,
                   lambda2=3.0, n1=30, n2=31)
    seeds = [[5, 0], [5, 1]]  # row 1 is accepted, and one of its returns is infinite
    replayed = []
    replay = calibration._replay

    def counted(spec, seed):
        replayed.append(seed)
        return replay(spec, seed)

    monkeypatch.setattr(calibration, "_replay", counted)
    assert _pair_rows(_simulate(spec, seeds))[2].all()
    with pytest.raises(InvalidParameter, match="finite"):
        _uncorrected_taus(spec, seeds)
    assert replayed == []


@pytest.mark.filterwarnings("error")
def test_block_taus_are_each_rows_own_kendall_tau():
    """NaN exactly on the rows rejected, holding an infinite return or with no untied pair; else each row's tau."""
    spec = SimSpec(model=param_of_tau("clayton", 0.4), margins=STD_MARGINS, lambda1=1.0, lambda2=1.0,
                   n1=350, n2=350)
    rows, (xy, n_pairs, ok) = _paired_rows(spec, [[40, r] for r in range(50)])
    rows = list(rows)  # views of the block's prices, which the changes below leave as they are
    assert ok.all()
    xy, ok = xy.copy(), ok.copy()
    ok[[3, 17, 41]] = False
    xy[0, 8, 5], xy[0, 8, 6] = 1.2e308, -1.2e308  # finite prices, an infinite return
    xy[1, 29, : n_pairs[29]] = 0.0  # every pair of row 29 is tied in y
    taus = _block_taus(xy, n_pairs, ok)
    assert np.flatnonzero(np.isnan(taus)).tolist() == [3, 8, 17, 29, 41]
    for r, paired in enumerate(rows):
        if not np.isnan(taus[r]):
            assert taus[r] == kendall_tau(paired).tau_hat


def test_gaussian_bias_map_matches_its_conditional_mean():
    """Copula redraws priced on one stream, paired once: their mean tau is the stream's exact conditional mean."""
    rho, n_redraws = 0.7, 400
    spec = SimSpec(model=CopulaModel("gaussian", rho), margins=STD_MARGINS, lambda1=1.0, lambda2=3.0,
                   n1=300, n2=900)
    times, to_b = _streams(spec, [np.random.default_rng(2026)])
    rngs = [np.random.default_rng([2026, r]) for r in range(n_redraws)]
    uv = _sample_block(spec.model, times.shape[1], rngs).transpose(2, 0, 1).copy()
    ev = _events(spec, np.repeat(times, n_redraws, axis=0), np.repeat(to_b, n_redraws, axis=0), uv)
    pairs, n_pairs, ok = _pair_rows(_Events(times, to_b, ev.log_x[:1], ev.log_y[:1]))
    assert ok.all()
    # every redraw reads its prices at the one-row stream's event positions
    _, _, e1, e2 = pairs
    xy = np.stack([ev.log_x[:, e1], ev.log_y[:, e2]])
    taus = _block_taus(xy, np.full(n_redraws, n_pairs[0]), np.ones(n_redraws, dtype=bool))
    t1, t2 = times[0, e1], times[0, e2]
    exact = gaussian_tau_oracle(rho, t1, t2)
    assert abs(taus.mean() - exact) < 3 * taus.std(ddof=1) / np.sqrt(n_redraws)
    assert exact < 0.8 * (2 / np.pi) * np.arcsin(rho)  # well below the true tau: asynchronicity biases it
