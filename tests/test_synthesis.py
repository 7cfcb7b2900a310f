from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from tickcopula import (
    CopulaModel,
    InvalidParameter,
    SimSpec,
    simulate,
)
from tickcopula.synthesis import _NormalMargin, _TMargin, _simulate


def gaussian_spec(rho=0.5, n=1000, seed=0, **kw):
    return SimSpec(
        model=CopulaModel("gaussian", rho),
        margins=(stats.norm(), stats.norm()),
        lambda1=kw.pop("lambda1", 1.0),
        lambda2=kw.pop("lambda2", 1.0),
        n1=kw.pop("n1", n),
        n2=kw.pop("n2", n),
        seed=seed,
        **kw,
    )


class TestSpecValidation:
    def test_requires_size(self):
        with pytest.raises(InvalidParameter):
            SimSpec(
                model=CopulaModel("gaussian", 0.1),
                margins=(stats.norm(), stats.norm()),
                lambda1=1.0,
                lambda2=1.0,
            )

    def test_horizon_and_counts_exclusive(self):
        with pytest.raises(InvalidParameter):
            SimSpec(
                model=CopulaModel("gaussian", 0.1),
                margins=(stats.norm(), stats.norm()),
                lambda1=1.0,
                lambda2=1.0,
                horizon=10.0,
                n1=5,
                n2=5,
            )

    @pytest.mark.parametrize("field", ["lambda1", "lambda2", "horizon"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    def test_rates_and_horizon_must_be_positive_and_finite(self, field, value):
        size = {"n1": None, "n2": None, "horizon": 100.0}
        with pytest.raises(InvalidParameter, match=field):
            gaussian_spec(**{**size, field: value})

    @pytest.mark.parametrize("size", [{"horizon": 1e300}, {"horizon": 1e9, "lambda1": 1e9},
                                      {"n1": 10**18, "n2": 5}, {"n1": np.int64(2**62), "n2": np.int64(2**62)}],
                             ids=["horizon", "rate", "counts", "int64-sum-overflows"])
    def test_event_count_beyond_any_array_rejected(self, size):
        with pytest.raises(InvalidParameter, match="events"):
            gaussian_spec(**{"n1": None, "n2": None, **size})

    @pytest.mark.parametrize("field", ["n1", "n2"])
    @pytest.mark.parametrize("value", [300.5, 300.0, "300", np.float64(300.0)], ids=repr)
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(InvalidParameter, match=f"{field} must be an integer"):
            gaussian_spec(**{field: value})

    @pytest.mark.parametrize("n1, n2", [(40, 65), (np.int64(40), np.int32(65))], ids=["int", "numpy"])
    def test_n_events(self, n1, n2):
        assert gaussian_spec(n1=n1, n2=n2).n_events == 105
        horizon = gaussian_spec(n1=None, n2=None, horizon=30.0, lambda1=0.7, lambda2=2.5)
        assert horizon.n_events == (0.7 + 2.5) * 30.0


_ORACLE_Q = np.r_[np.random.default_rng(0).random(100_000), 0.0, 1.0, 0.5, 1e-300]


@pytest.mark.parametrize("loc, scale", [(0.0, 1.0), (1.0, 2.0), (0, 4), (-0.5, 0.3)])
def test_normal_margin_equals_frozen_scipy_bit_for_bit(loc, scale):
    ref = stats.norm(loc, scale).ppf(_ORACLE_Q)
    assert _NormalMargin(loc, scale).ppf(_ORACLE_Q).tobytes() == ref.tobytes()
    assert _NormalMargin(loc, scale).ppf(0.3) == stats.norm(loc, scale).ppf(0.3)


@pytest.mark.parametrize("df", [3, 4, 5, 7, 2.5, 30])
def test_t_margin_equals_frozen_scipy_bit_for_bit(df):
    ref = stats.t(df).ppf(_ORACLE_Q)
    assert _TMargin(df).ppf(_ORACLE_Q).tobytes() == ref.tobytes()
    assert _TMargin(df).ppf(0.0) == -np.inf and _TMargin(df).ppf(1.0) == np.inf
    assert np.ndim(_TMargin(df).ppf(0.3)) == 0


class TestSimulate:
    def test_deterministic_under_seed(self):
        r1 = simulate(gaussian_spec(seed=42))
        r2 = simulate(gaussian_spec(seed=42))
        assert np.array_equal(r1.a.times, r2.a.times)
        assert np.array_equal(r1.a.log_prices, r2.a.log_prices)
        assert np.array_equal(r1.b.times, r2.b.times)

    def test_counts_exact_in_count_mode(self):
        r = simulate(gaussian_spec(n=1500, seed=1))
        assert len(r.a) == 1500
        assert len(r.b) == 1500

    def test_tick_sets_disjoint_and_partition_combined(self):
        r = simulate(gaussian_spec(n=800, seed=2))
        ta, tb = set(r.a.times), set(r.b.times)
        assert not ta & tb
        combined = np.sort(np.concatenate([r.a.times, r.b.times]))
        assert (np.diff(combined) > 0).all()
        assert combined.size == 1600

    def test_horizon_mode_counts_binomial(self):
        counts = []
        for s in range(40):
            r = simulate(gaussian_spec(seed=s, n1=None, n2=None, horizon=2000.0))
            total = len(r.a) + len(r.b)
            counts.append((len(r.a), total))
            assert abs(len(r.a) - len(r.b)) / total < 0.1
        # asset-1 share close to 1/2 at equal rates
        share = np.mean([c / t for c, t in counts])
        assert share == pytest.approx(0.5, abs=0.02)

    def test_normalized_returns_match_margin(self):
        # asset-1 log-returns over their interarrivals, scaled by 1/sqrt(dt),
        # are standard normal draws for normal margins
        r = simulate(gaussian_spec(n=10_000, seed=4))
        z = np.diff(r.a.log_prices) / np.sqrt(np.diff(r.a.times))
        assert stats.kstest(z, "norm").pvalue > 0.01

    def test_variance_scales_with_interval_length(self):
        # regression of squared increments on interval length: slope ~ sigma^2
        sigma = 1.7
        spec = SimSpec(
            model=CopulaModel("gaussian", 0.3),
            margins=(stats.norm(0, sigma), stats.norm(0, sigma)),
            lambda1=1.0,
            lambda2=1.0,
            n1=60_000,
            n2=60_000,
            seed=5,
        )
        r = simulate(spec)
        dt = np.diff(r.a.times)
        slope = float(np.sum(dt * np.diff(r.a.log_prices) ** 2) / np.sum(dt * dt))
        assert slope == pytest.approx(sigma**2, rel=0.05)

    def test_student_margin_heavy_tails(self):
        spec = SimSpec(
            model=CopulaModel("student_t", 0.4, df=8),
            margins=(stats.t(5), stats.t(5)),
            lambda1=1.0,
            lambda2=1.0,
            n1=20_000,
            n2=20_000,
            seed=6,
        )
        r = simulate(spec)
        z = np.diff(r.a.log_prices) / np.sqrt(np.diff(r.a.times))
        # kurtosis of t(5) is 9; normal is 3
        assert stats.kurtosis(z, fisher=False) > 4.0

    def test_unequal_rates_split_proportionally(self):
        spec = SimSpec(
            model=CopulaModel("gaussian", 0.2),
            margins=(stats.norm(), stats.norm()),
            lambda1=1.0,
            lambda2=3.0,
            horizon=3000.0,
            seed=7,
        )
        r = simulate(spec)
        share_b = len(r.b) / (len(r.a) + len(r.b))
        assert share_b == pytest.approx(0.75, abs=0.03)


_MODELS = [CopulaModel("gaussian", -0.4), CopulaModel("student_t", 0.6, df=4), CopulaModel("clayton", 2.0),
           CopulaModel("gumbel", 1.7)]


@pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.family)
@pytest.mark.parametrize("margins", [(stats.norm(), stats.norm(0, 2)), (stats.t(4), stats.t(7))],
                         ids=["normal", "t"])
def test_block_rows_equal_simulate_per_seed(model, margins):
    spec = SimSpec(model=model, margins=margins, lambda1=0.7, lambda2=2.5, n1=40, n2=65)
    seeds = [[3, r] for r in range(7)]
    ev = _simulate(spec, seeds)
    for r, seed in enumerate(seeds):
        _assert_row_is_sample(ev, r, simulate(replace(spec, seed=seed)))


@pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.family)
def test_horizon_rows_equal_simulate_per_seed(model):
    # a horizon stream has a random length, so each seed is its own one-row block
    spec = SimSpec(model=model, margins=(stats.norm(), stats.t(4)), lambda1=0.7, lambda2=2.5, horizon=30.0)
    lengths = set()
    for seed in [[3, r] for r in range(7)]:
        ev = _simulate(spec, [seed])
        _assert_row_is_sample(ev, 0, simulate(replace(spec, seed=seed)))
        lengths.add(ev.times.shape[1])
    assert len(lengths) > 1


def _assert_row_is_sample(ev, r, sim):
    a, b = ~ev.to_b[r], ev.to_b[r]
    assert np.array_equal(ev.times[r][a], sim.a.times) and np.array_equal(ev.times[r][b], sim.b.times)
    assert np.array_equal(ev.log_x[r][a], sim.a.log_prices)
    assert np.array_equal(ev.log_y[r][b], sim.b.log_prices)


class _IdentityMargin:
    """Uniform innovations from a ``ppf`` that hands back the very array it was given."""

    def ppf(self, q):
        return q


class _CopyingMargin:
    def ppf(self, q):
        return np.array(q)


@pytest.mark.parametrize("size", [{"n1": 40, "n2": 65}, {"horizon": 30.0}], ids=["count", "horizon"])
def test_margin_may_return_its_input(size):
    def sim(margin):
        return simulate(SimSpec(model=CopulaModel("clayton", 2.0), margins=(margin, margin), lambda1=0.7,
                                lambda2=2.5, seed=5, **size))

    ref, own = sim(_CopyingMargin()), sim(_IdentityMargin())
    assert np.array_equal(own.a.log_prices, ref.a.log_prices)
    assert np.array_equal(own.b.log_prices, ref.b.log_prices)
