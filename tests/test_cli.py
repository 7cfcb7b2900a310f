import csv
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import signal
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickcopula import (
    InvalidParameter,
    MalformedInput,
    PairedSeries,
    SimSpec,
    TickSeries,
    calibration,
    cli,
    configuration_labels,
    pair_ticks,
    param_of_tau,
    save_ticks,
    simulate,
    tables,
)
from tickcopula.cli import _write_json, main, parse_margin, read_paired_csv, write_paired_csv
from tickcopula.market_data import _CHUNK_ROWS, _read_columns, _tick_checks, load_ticks
from tickcopula.synthesis import _fork_workers

from conftest import poisson_ticks, rows_apart_in_se, seeded_day, traced_peak, uncorrected_tau


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def sim_prefix(tmp_path):
    prefix = tmp_path / "sim"
    rc = run(
        ["simulate", "--family", "gaussian", "--param", "0.6", "--n1", "400",
         "--n2", "400", "--seed", "9", "--out", prefix]
    )
    assert rc == 0
    return prefix


@pytest.fixture(scope="module")
def curve_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("curve") / "curve.json"
    rc = run(["calibrate", "--family", "clayton", "--k", "6", "--n-rep", "50", "--n-ticks", "150",
              "--grid-lo", "0.05", "--grid-hi", "0.6", "--seed", "4", "--out", path])
    assert rc == 0
    return path


class TestSimulateCommand:
    def test_writes_ticks_and_truth(self, sim_prefix):
        a = load_ticks(f"{sim_prefix}_a.csv")
        b = load_ticks(f"{sim_prefix}_b.csv")
        assert len(a) == 400 and len(b) == 400
        truth = json.loads((sim_prefix.parent / "sim_truth.json").read_text())
        assert truth["family"] == "gaussian"
        assert truth["param"] == 0.6
        assert truth["meta"]["seed"] == 9
        assert truth["meta"]["rng"] == "numpy-PCG64"

    def test_reproducible_across_runs(self, tmp_path):
        for name in ("r1", "r2"):
            rc = run(["simulate", "--family", "clayton", "--tau", "0.4", "--n1", "100",
                      "--n2", "100", "--seed", "3", "--out", tmp_path / name])
            assert rc == 0
        assert (tmp_path / "r1_a.csv").read_bytes() == (tmp_path / "r2_a.csv").read_bytes()
        assert (tmp_path / "r1_b.csv").read_bytes() == (tmp_path / "r2_b.csv").read_bytes()

    # SHA-256 of the _a.csv, _b.csv and _truth.json files, recorded before the truth
    # file was written from the command's model; tau and df are pinned only here
    @pytest.mark.parametrize("argv, digests", [
        (["--family", "clayton", "--tau", "0.4"],
         ("dec9f8b8f278907563e087fdae7d51ec9c7e04b85606eb5fda8fad7d153167a7",
          "cd40a3b37328e7332da8a03f0fa6714dc5c51fbf29a62c85858e112c477791c0",
          "de1d7fcda85ecc59e578dff362f8c687c18411669c1de2fecc0585a4b30c22e9")),
        (["--family", "gumbel", "--tau", "0.4"],
         ("490ae90a6ee88baab2f0216d68a88c8aee776c7b2cbbfdd7d8757c5cc96bde72",
          "9216ae59775de313805415fb5262163dfd88976dce605a8e10b096f29e8fb6bb",
          "041e3648436e720cd87058755138774263f6e191d54e6908a536792687cfe315")),
        (["--family", "gaussian", "--tau", "0.4"],
         ("97bd68f8028cd205a8ce66bd9563c22ade2193cfe0c1dba6b53132d7b09becfa",
          "fce27405b2027f6dc4aac3d03aaf6658ea39218838173e3e53a6703ab85f40f1",
          "a5cf0d0ef97eb9f25c65ab282c4ddf34b46e0724f4b805c3415f551d805b1774")),
        (["--family", "student_t", "--tau", "0.4", "--df", "5"],
         ("790230ae28f904fcefa940be46c974a3c3123358135ebba8f6ec0f4a5c32ff40",
          "a93fc01ce6321cc03dbb0f53aeae6c7764b341d4ed169a5afde714cea0ce37d8",
          "72b5389bf265ceccc08117b633b5f6e44736bb69b40f1f5fd9a192fb9b86db40")),
        (["--family", "clayton", "--tau", "0.4", "--horizon", "300", "--lambda2", "1.5"],
         ("ee831c8afb58186a927f3a7e168baa162fbd7824f3f1929c2ebb887c602ef46f",
          "7b322a94039706bd2723be5532dbbbb1dc1c10fbcc1e076a6c224d05bbe420ac",
          "42a151d98658d275c19d849e666bb6daace0b3cd2fef2d61fddb19ae72074bb0")),
    ], ids=["clayton", "gumbel", "gaussian", "student_t", "horizon"])
    def test_frozen_digests(self, tmp_path, argv, digests):
        size = [] if "--horizon" in argv else ["--n1", "300", "--n2", "300"]
        assert run(["simulate", *argv, *size, "--out", tmp_path / "sim"]) == 0
        files = [tmp_path / f"sim_{part}" for part in ("a.csv", "b.csv", "truth.json")]
        assert tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files) == digests

    def test_tau_param_exclusivity_error(self, tmp_path, capsys):
        rc = run(["simulate", "--family", "gaussian", "--n1", "50", "--n2", "50",
                  "--out", tmp_path / "x"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidParameter"


class TestPairCommand:
    def test_pair_and_estimate_pipeline(self, sim_prefix, tmp_path, capsys):
        paired_path = tmp_path / "paired.csv"
        rc = run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv",
                  "--scheme", "a0", "--out", paired_path])
        assert rc == 0
        rc = run(["estimate", "--paired", paired_path, "--method", "corrected-corr",
                  "--level", "0.95"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "corrected-corr"
        assert -1.0 <= report["point"] <= 1.0
        d = report["diagnostics"]
        assert d["w"] >= 1.0
        assert report["interval"]["lo"] <= report["point"] <= report["interval"]["hi"]
        assert 0 <= d["loss1"] < 1

    def test_paired_csv_round_trip(self, tmp_path, rng):
        a = poisson_ticks(rng, 1.0, 150)
        b = poisson_ticks(rng, 1.0, 150)
        p = pair_ticks(a, b)
        path = tmp_path / "p.csv"
        write_paired_csv(path, p, {"seed": 1})
        back = read_paired_csv(path)
        assert np.array_equal(back.t1, p.t1)
        assert np.array_equal(back.x, p.x)
        assert back.scheme == p.scheme
        assert back.n_raw1 == p.n_raw1 == 150

    def test_prev_tick_requires_delta(self, sim_prefix, tmp_path, capsys):
        rc = run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv",
                  "--scheme", "prev-tick", "--out", tmp_path / "p.csv"])
        assert rc == 1
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["1e-300", "1e-9"])
    def test_prev_tick_tiny_delta_memory_tracks_ticks(self, tmp_path, delta):
        # a grid over the session would need ~5e10 (1e-9) or ~5e301 points
        prefix = tmp_path / "small"
        assert run(["simulate", "--family", "gaussian", "--param", "0.6", "--n1", "50",
                    "--n2", "50", "--seed", "4", "--out", prefix]) == 0
        tracemalloc.start()
        try:
            rc = run(["pair", f"{prefix}_a.csv", f"{prefix}_b.csv", "--scheme", "prev-tick",
                      "--delta", delta, "--out", tmp_path / "p.csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 1e6
        # every tick gets a grid point of its own
        assert len(read_paired_csv(tmp_path / "p.csv")) > 90

    def test_refresh_scheme_stamps_collapse(self, sim_prefix, tmp_path):
        path = tmp_path / "r.csv"
        rc = run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv",
                  "--scheme", "refresh", "--out", path])
        assert rc == 0
        back = read_paired_csv(path)
        assert np.array_equal(back.t1, back.t2)


class TestTheoryCommand:
    def test_equal_rates_json(self, capsys):
        rc = run(["theory", "--lambda1", "1", "--lambda2", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma"] == pytest.approx(0.75, abs=1e-10)
        assert out["expected_overlap"] == pytest.approx(2.0, abs=1e-10)

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["theory", "--lambda1", "1"])
        assert exc.value.code == 2


class TestTheoryRates:
    """Rates at the ends of float64: finite strict JSON, or one JSON error; never a warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lambda1, lambda2", [("1", "1e-6"), ("1e308", "1e308"), ("1", "1e308")])
    def test_finite_strict_json(self, capsys, lambda1, lambda2):
        rc = run(["theory", "--lambda1", lambda1, "--lambda2", lambda2])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        out = json.loads(captured.out, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
        values = [out[k] for k in ("expected_overlap", "expected_dt1", "expected_dt2", "gamma")]
        assert all(0.0 < v < np.inf for v in values)
        assert "tol" not in out["meta"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lambda1, lambda2", [("1", "1e-320"), ("1e-320", "1e-320")])
    def test_rates_past_float64(self, capsys, lambda1, lambda2):
        rc = run(["theory", "--lambda1", lambda1, "--lambda2", lambda2])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "InvalidParameter" and "float64" in err["message"]

    def test_tol_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["theory", "--lambda1", "1", "--lambda2", "1", "--tol", "1e-12"])
        assert exc.value.code == 2


class TestKendallAndSelection:
    def test_kendall_estimate(self, sim_prefix, tmp_path, capsys):
        paired_path = tmp_path / "paired.csv"
        run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv", "--out", paired_path])
        rc = run(["estimate", "--paired", paired_path, "--method", "kendall"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["basis"] == "all-pairs"
        assert -1 <= rep["point"] <= 1

    def test_kendall_rejects_nan_return(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        rows = ["t1,x,t2,y"] + [f"{t},{x},{t},{y}" for t, x, y in
                                [(0, 0.0, 0.0), (1, 0.1, 0.2), (2, "nan", 0.3),
                                 (3, 0.3, 0.1), (4, 0.2, 0.4), (5, 0.5, 0.3)]]
        path.write_text("\n".join(rows) + "\n")
        rc = run(["estimate", "--paired", path, "--method", "kendall"])
        assert rc == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "InvalidParameter"
        assert "finite" in err["message"]
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_select_copula_table(self, sim_prefix, tmp_path, capsys):
        paired_path = tmp_path / "paired.csv"
        run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv", "--out", paired_path])
        rc = run(["select-copula", "--paired", paired_path, "--t-df", "8"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        reader = csv.DictReader(lines)
        rows = list(reader)
        assert {r["family"] for r in rows} == {"gaussian", "student_t", "clayton", "gumbel"}
        aics = [float(r["aic"]) for r in rows]
        assert aics == sorted(aics)

    def test_plugin_eval_grid(self, sim_prefix, tmp_path, capsys):
        paired_path = tmp_path / "paired.csv"
        run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv", "--out", paired_path])
        rc = run(["plugin-eval", "--paired", paired_path, "--family", "gaussian",
                  "--param", "0.6", "--r1=-0.5,0,0.5", "--r2=-0.5,0.5"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(lines))
        assert len(rows) == 6
        vals = np.array([float(r["value"]) for r in rows])
        assert ((0 <= vals) & (vals <= 1)).all()


class TestSharedParser:
    """``main`` reuses one parser, and no call leaves state in it for the next."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_families_default_after_explicit_families(self, sim_prefix, tmp_path, capsys):
        paired_path = tmp_path / "paired.csv"
        run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv", "--out", paired_path])

        def ranked(extra):
            assert run(["select-copula", "--paired", paired_path, *extra]) == 0
            lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
            return {r["family"] for r in csv.DictReader(lines)}

        assert ranked(["--families", "clayton", "gumbel"]) == {"clayton", "gumbel"}
        assert ranked(["--t-df", "8"]) == {"gaussian", "student_t", "clayton", "gumbel"}

    def test_same_config_flag_does_not_stick(self, sim_prefix, tmp_path, capsys):
        paired_path = tmp_path / "paired.csv"
        run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv", "--out", paired_path])

        def basis(extra):
            assert run(["estimate", "--paired", paired_path, "--method", "kendall", *extra]) == 0
            return json.loads(capsys.readouterr().out)["basis"]

        assert basis(["--same-config"]) == "same-config"
        assert basis([]) == "all-pairs"


class TestCalibrateIntervals:
    def test_calibrate_then_intervals(self, tmp_path, capsys):
        curve_path = tmp_path / "curve.json"
        rc = run(["calibrate", "--family", "clayton", "--k", "6", "--n-rep", "50",
                  "--n-ticks", "150", "--grid-lo", "0.05", "--grid-hi", "0.6",
                  "--seed", "4", "--out", curve_path])
        assert rc == 0
        capsys.readouterr()
        rc = run(["intervals", "--method", "quad", "--curve", curve_path,
                  "--tau-hat", "0.2", "--level", "0.95"])
        assert rc == 0
        iv = json.loads(capsys.readouterr().out)
        assert iv["lo"] <= iv["point"] <= iv["hi"]
        rc = run(["intervals", "--method", "quantile", "--curve", curve_path,
                  "--tau-hat", "0.2"])
        assert rc == 0
        iv2 = json.loads(capsys.readouterr().out)
        assert iv2["method"] == "quantile-inversion"

    def test_calibrate_at_the_callers_rates(self, tmp_path):
        # --lambda2 3 calibrates on samples of 350 and 1050 ticks, as simulate draws them
        curves = {}
        for lambda2 in ("1", "3"):
            path = tmp_path / f"curve_{lambda2}.json"
            assert run(["calibrate", "--family", "clayton", "--seed", "0", "--k", "5", "--n-rep", "50",
                        "--grid-lo", "0.1", "--grid-hi", "0.5", "--lambda2", lambda2, "--out", path]) == 0
            curves[lambda2] = json.loads(path.read_text())
        assert curves["3"]["meta"]["n_ticks2"] == 1050
        assert curves["3"]["estimates"] != curves["1"]["estimates"]
        spec = SimSpec(model=param_of_tau("clayton", 0.5), margins=(cli.parse_margin("normal"),) * 2,
                       lambda1=1.0, lambda2=3.0, n1=350, n2=1050)
        direct = [uncorrected_tau(simulate(dataclasses.replace(spec, seed=[72, r]))) for r in range(50)]
        assert rows_apart_in_se(curves["3"]["estimates"][-1], direct) < 4

    @pytest.mark.parametrize("method", ["quad", "quantile"])
    def test_fit_keys_are_refitted_from_the_replicates(self, curve_path, tmp_path, capsys, method):
        def intervals(path):
            assert run(["intervals", "--method", method, "--curve", path, "--tau-hat", "0.2"]) == 0
            return capsys.readouterr().out

        expected = intervals(curve_path)
        curve = json.loads(curve_path.read_text())
        for tampered in ({"inverse_resid_scale": 0}, {"quad_coeffs": [0, 0.5, 0], "inverse_coeffs": [0.5, 0, 0]},
                         {"inverse_coeffs": [np.nan] * 3}, {"inverse_resid_scale": -1.0}, {"resid_scale": None}):
            path = tmp_path / "tampered.json"
            path.write_text(json.dumps({**curve, **tampered}))
            assert intervals(path) == expected, tampered

    def test_elliptical_interval_needs_paired(self, capsys):
        rc = run(["intervals", "--method", "elliptical", "--level", "0.9"])
        assert rc == 1
        assert "paired" in capsys.readouterr().err

    def test_elliptical_interval(self, sim_prefix, tmp_path, capsys):
        paired_path = tmp_path / "paired.csv"
        run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv", "--out", paired_path])
        rc = run(["intervals", "--method", "elliptical", "--paired", paired_path])
        assert rc == 0
        iv = json.loads(capsys.readouterr().out)
        assert iv["method"] == "misspecified-elliptical"


class TestReproduceCommand:
    def test_structure_of_table1(self, tmp_path):
        out = tmp_path / "t1.csv"
        rc = run(["reproduce", "table1", "--n-rep", "3", "--seed", "0", "--out", out])
        assert rc == 0
        text = out.read_text().splitlines()
        meta = [l for l in text if l.startswith("#")]
        assert any("seed=0" in l for l in meta)
        assert any("rng=numpy-PCG64" in l for l in meta)
        rows = list(csv.DictReader([l for l in text if not l.startswith("#")]))
        assert len(rows) == 12  # 4 rho values x 3 sizes
        assert set(rows[0]) == {
            "rho", "n", "prev_tick_mean", "prev_tick_sd", "refresh_mean",
            "refresh_sd", "corrected_mean", "corrected_sd",
        }

    def test_unknown_table_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["reproduce", "table9"])
        assert exc.value.code == 2


class TestErrorContract:
    """Exit 1 and one JSON error on stderr, never a traceback."""

    def json_error(self, capsys, argv):
        rc = run(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.count("\n") == 1  # one JSON line
        return json.loads(captured.err)

    def test_missing_input_file(self, tmp_path, capsys):
        err = self.json_error(capsys, ["estimate", "--paired", tmp_path / "missing.csv"])
        assert err["error"] == "FileNotFoundError" and "missing.csv" in err["message"]

    @pytest.mark.parametrize("margin", ["normal:abc", "t:abc"])
    def test_non_numeric_margin(self, tmp_path, capsys, margin):
        err = self.json_error(capsys, ["simulate", "--family", "gaussian", "--param", "0.3", "--n1", "50",
                                       "--n2", "50", "--margin1", margin, "--out", tmp_path / "x"])
        assert err["error"] == "InvalidParameter" and margin in err["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("size, message", [
        (["--horizon", "1e-300"], "produced only 0 events"),
        (["--horizon", "10", "--lambda2", "0.001"], "random split left an asset with fewer than 2 ticks"),
    ], ids=["no-events", "one-sided-split"])
    def test_horizon_stream_too_short(self, tmp_path, capsys, size, message):
        err = self.json_error(capsys, ["simulate", "--family", "gaussian", "--param", "0.3", *size, "--seed", "0",
                                       "--out", tmp_path / "x"])
        assert err["error"] == "InsufficientData" and message in err["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("table, n_rep", [("table1", 1), ("table2", 0), ("table3", 1), ("coverage", 1)])
    def test_too_few_replicates(self, tmp_path, capsys, table, n_rep):
        err = self.json_error(capsys, ["reproduce", table, "--n-rep", n_rep, "--out", tmp_path / "t.csv"])
        assert err["error"] == "InvalidParameter" and "n_rep" in err["message"]

    @pytest.mark.parametrize("t_df", [0, 2, -5])
    def test_bad_student_t_df(self, sim_prefix, tmp_path, capsys, t_df):
        paired = tmp_path / "paired.csv"
        assert run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv", "--out", paired]) == 0
        capsys.readouterr()
        err = self.json_error(capsys, ["select-copula", "--paired", paired, "--t-df", t_df])
        assert err["error"] == "InvalidParameter" and "df" in err["message"]

    def test_repeated_family(self, sim_prefix, tmp_path, capsys):
        paired = tmp_path / "paired.csv"
        assert run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv", "--out", paired]) == 0
        capsys.readouterr()
        err = self.json_error(capsys, ["select-copula", "--paired", paired, "--families", "gaussian",
                                       "gaussian"])
        assert err["error"] == "InvalidParameter" and "repeat" in err["message"]

    @pytest.mark.parametrize("argv", [["select-copula"], ["estimate", "--method", "kendall"]],
                             ids=["select-copula", "kendall"])
    def test_constant_price_leg(self, tmp_path, capsys, argv):
        x = np.random.default_rng(5).standard_normal(41).cumsum()
        paired = tmp_path / "paired.csv"
        paired.write_text("t1,x,t2,y\n" + "".join(f"{t},{xt},{t},0.5\n" for t, xt in enumerate(x)))
        err = self.json_error(capsys, [*argv, "--paired", paired])
        assert err["error"] == "InsufficientData"

    @pytest.mark.parametrize("level", ["nan", "0", "1.5"])
    @pytest.mark.parametrize("method", ["corrected-corr", "kendall"])
    def test_level_outside_unit_interval(self, sim_prefix, tmp_path, capsys, method, level):
        # kendall reports no interval, yet an impossible level is refused for it too
        paired = tmp_path / "paired.csv"
        assert run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv", "--out", paired]) == 0
        capsys.readouterr()
        err = self.json_error(capsys, ["estimate", "--paired", paired, "--method", method, "--level", level])
        assert err == {"error": "InvalidParameter", "message": f"level must lie in (0, 1), got {float(level)}"}

    @pytest.mark.parametrize("argv, message", [
        (["pair", "A", "B", "--scheme", "a0", "--delta", "5"], "--scheme a0 ignores --delta"),
        (["pair", "A", "B", "--scheme", "refresh", "--delta", "5"], "--scheme refresh ignores --delta"),
        (["estimate", "--paired", "P", "--method", "corrected-corr", "--same-config"],
         "--method corrected-corr ignores --same-config"),
        (["intervals", "--method", "quad", "--curve", "C", "--tau-hat", "0.2", "--paired", "P"],
         "--method quad ignores --paired"),
        (["intervals", "--method", "quantile", "--curve", "C", "--tau-hat", "0.2", "--paired", "P"],
         "--method quantile ignores --paired"),
        (["intervals", "--method", "elliptical", "--paired", "P", "--curve", "C", "--tau-hat", "0.2"],
         "--method elliptical ignores --curve and --tau-hat"),
        (["select-copula", "--paired", "P", "--families", "gaussian", "clayton", "--t-df", "5"],
         "--families gaussian clayton ignores --t-df"),
        (["plugin-eval", "--paired", "P", "--family", "gaussian", "--param", "0.3", "--df", "5"],
         "--family gaussian ignores --df"),
    ], ids=["pair-a0-delta", "pair-refresh-delta", "estimate-corrected-corr-same-config",
            "intervals-quad-paired", "intervals-quantile-paired", "intervals-elliptical-curve-tau-hat",
            "select-copula-t-df", "plugin-eval-df"])
    def test_ignored_option_refused(self, sim_prefix, curve_path, tmp_path, capsys, argv, message):
        # the command runs without its last, ignored options; with them it is refused before any file is read
        paired = tmp_path / "paired.csv"
        assert run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv", "--out", paired]) == 0
        files = {"A": f"{sim_prefix}_a.csv", "B": f"{sim_prefix}_b.csv", "P": paired, "C": curve_path}
        full = [files.get(a, a) for a in argv]
        ignored = full.index(message.split(" ignores ")[1].split(" and ")[0])
        assert run([*full[:ignored], "--out", tmp_path / "out"]) == 0
        capsys.readouterr()
        expected = {"error": "InvalidParameter", "message": message}
        assert self.json_error(capsys, full) == expected
        missing = [tmp_path / "missing" if a in files else a for a in argv]
        assert self.json_error(capsys, missing) == expected

    @pytest.mark.parametrize("argv, simulates", [
        (["simulate", "--family", "gaussian", "--param", "0.5", "--n1", "50", "--n2", "50"], "simulate"),
        (["calibrate", "--family", "clayton", "--k", "5", "--n-rep", "50", "--n-ticks", "50"], "build_curve"),
    ], ids=["simulate", "calibrate"])
    def test_df_refused_outside_student_t(self, tmp_path, capsys, monkeypatch, argv, simulates):
        # these commands read no file: they run without --df, and with it are refused before simulating
        assert run([*argv, "--out", tmp_path / "out"]) == 0
        capsys.readouterr()

        def no_simulation(*args, **kwargs):
            raise AssertionError(f"{simulates} was called")

        monkeypatch.setattr(cli, simulates, no_simulation)
        err = self.json_error(capsys, [*argv, "--df", "5", "--out", tmp_path / "refused"])
        assert err == {"error": "InvalidParameter", "message": f"--family {argv[2]} ignores --df"}
        assert not list(tmp_path.glob("refused*"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n"], ids=["bare", "blank-lines", "crlf"])
    @pytest.mark.parametrize("command", ["pair", "estimate"])
    def test_header_only_input(self, tmp_path, capsys, command, body):
        # numpy's loadtxt warns on a stream with no rows; none may reach stderr
        path = tmp_path / "in.csv"
        if command == "pair":
            path.write_bytes(("time,price\n" + body).encode())
            argv, kind = ["pair", path, path, "--out", tmp_path / "p.csv"], "InsufficientData"
        else:
            path.write_bytes(("t1,x,t2,y\n" + body).encode())
            argv, kind = ["estimate", "--paired", path], "InvalidParameter"
        err = self.json_error(capsys, argv)
        assert err["error"] == kind

    @pytest.mark.parametrize("method", ["quad", "quantile"])
    @pytest.mark.parametrize("tau_hat", ["nan", "inf", "-inf"])
    def test_non_finite_tau_hat(self, curve_path, capsys, method, tau_hat):
        err = self.json_error(capsys, ["intervals", "--method", method, "--curve", curve_path,
                                       f"--tau-hat={tau_hat}"])
        assert err["error"] == "InvalidParameter" and "finite" in err["message"]

    def test_calibrate_too_few_ticks(self, tmp_path, capsys):
        err = self.json_error(capsys, ["calibrate", "--family", "clayton", "--n-ticks", "2", "--out",
                                       tmp_path / "curve.json"])
        assert err["error"] == "InsufficientData" and "comparable" in err["message"]
        assert not list(tmp_path.iterdir())

    def test_calibrate_rate_ratio_past_float64(self, tmp_path, capsys):
        err = self.json_error(capsys, ["calibrate", "--family", "clayton", "--lambda1", "1e-300",
                                       "--lambda2", "1e300", "--out", tmp_path / "curve.json"])
        assert err["error"] == "InvalidParameter" and "lambda2" in err["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.skipif(_fork_workers(25) == 1, reason="the blocks would run, and die, in this process")
    def test_killed_worker(self, tmp_path, monkeypatch, capsys):
        uncorrected_taus = calibration._uncorrected_taus

        def killed_in_a_worker(spec, seeds):
            if multiprocessing.parent_process() is not None:
                os.kill(os.getpid(), signal.SIGKILL)
            return uncorrected_taus(spec, seeds)

        monkeypatch.setattr(calibration, "_uncorrected_taus", killed_in_a_worker)
        err = self.json_error(capsys, ["calibrate", "--family", "clayton", "--k", "5", "--n-rep", "50",
                                       "--n-ticks", "50", "--out", tmp_path / "curve.json"])
        assert err["error"] == "CalibrationFailure" and "worker process died" in err["message"]
        assert multiprocessing.active_children() == []
        assert not list(tmp_path.iterdir())

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods(),
                        reason="without fork or an affinity mask every replicate runs in this process")
    def test_killed_worker_in_table1(self, tmp_path, monkeypatch, capsys):
        # Table 1's calling process runs one share of the replicates and waits for the worker's
        one_replicate = tables._one_replicate

        def killed_in_a_worker(sim):
            if multiprocessing.parent_process() is not None:
                os.kill(os.getpid(), signal.SIGKILL)
            return one_replicate(sim)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(tables, "_one_replicate", killed_in_a_worker)
        err = self.json_error(capsys, ["reproduce", "table1", "--n-rep", "2", "--out", tmp_path / "table1.csv"])
        assert err["error"] == "CalibrationFailure" and "worker process died" in err["message"]
        assert multiprocessing.active_children() == []
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("damage, words", [
        (lambda text: text.replace('"grid_taus"', '"grid"'), "grid_taus"),
        (lambda text: text[:-10], "not a curve JSON"),
        (lambda text: json.dumps({**json.loads(text), "estimates": [0.1] * 300}), "estimates"),
        (lambda text: b"\xff\xfe" + text.encode(), "not a curve JSON"),
        (lambda text: json.dumps({**json.loads(text), "grid_taus": [0.1, 0.2, 0.3, 0.4, 0.5, float("inf")]}),
         "finite"),
        (lambda text: json.dumps({**json.loads(text), "grid_taus": [2.5 * t for t in json.loads(text)["grid_taus"]]}),
         "(-1, 1)"),
        (lambda text: json.dumps({**json.loads(text), "family": "banana"}), "unknown family 'banana'"),
        (lambda text: json.dumps({**json.loads(text), "family": 5}), "unknown family 5"),
    ], ids=["missing-key", "invalid-json", "1d-estimates", "not-utf8", "infinite-grid", "grid-past-one",
            "unknown-family", "numeric-family"])
    def test_malformed_curve(self, curve_path, tmp_path, capsys, damage, words):
        bad = tmp_path / "bad.json"
        text = damage(curve_path.read_text())
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        err = self.json_error(capsys, ["intervals", "--method", "quad", "--curve", bad, "--tau-hat", "0.3"])
        assert err["error"] == "InvalidParameter" and words in err["message"]

    @pytest.mark.parametrize("method", ["quad", "quantile"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_replicate(self, curve_path, tmp_path, capsys, method, value):
        curve = json.loads(curve_path.read_text())
        curve["estimates"][2][3] = value  # written as NaN, Infinity or -Infinity
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(curve))
        err = self.json_error(capsys, ["intervals", "--method", method, "--curve", bad, "--tau-hat", "0.2"])
        assert err["error"] == "InvalidParameter" and "replicate 3 at grid index 2" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--family", "gaussian", "--param", "0.3", "--n1", "50", "--n2", "50", "--seed", "-1"],
        ["calibrate", "--family", "clayton", "--seed", "-3"],
        ["reproduce", "table3", "--seed", "-1"],
    ], ids=["simulate", "calibrate", "reproduce"])
    def test_negative_seed(self, tmp_path, capsys, argv):
        err = self.json_error(capsys, [*argv, "--out", tmp_path / "x"])
        assert err["error"] == "InvalidParameter" and "--seed" in err["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option, value", [
        ("--horizon", "inf"), ("--horizon", "nan"), ("--lambda1", "nan"), ("--lambda1", "inf"),
        ("--lambda2", "-inf"),
    ])
    def test_non_finite_simulation_spec(self, tmp_path, capsys, option, value):
        size = [] if option == "--horizon" else ["--n1", "50", "--n2", "50"]
        err = self.json_error(capsys, ["simulate", "--family", "gaussian", "--param", "0.3", *size,
                                       f"{option}={value}", "--out", tmp_path / "x"])
        assert err["error"] == "InvalidParameter" and option[2:] in err["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    def test_prices_past_float64(self, tmp_path, capsys):
        # log prices near 1e150 at these rates: exp overflowed, and save_ticks wrote inf and 0
        err = self.json_error(capsys, ["simulate", "--family", "clayton", "--tau", "0.5",
                                       "--lambda1", "1e-300", "--lambda2", "1e-300", "--n1", "50",
                                       "--n2", "50", "--out", tmp_path / "x"])
        assert err["error"] == "InvalidParameter" and "tick 1 " in err["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["calibrate", "--family", "gumbel", "--grid-hi", "0.99", "--k", "5", "--n-rep", "50",
         "--n-ticks", "50"],
        ["simulate", "--family", "gumbel", "--tau", "0.999999", "--n1", "300", "--n2", "300",
         "--seed", "1"],
    ], ids=["calibrate", "simulate"])
    def test_gumbel_frailty_overflow(self, tmp_path, capsys, argv):
        # the positive-stable frailty overflows at these thetas; the draws fail the tick checks
        err = self.json_error(capsys, [*argv, "--out", tmp_path / "x"])
        assert err["error"] == "MalformedInput" and "non-finite" in err["message"]
        assert not list(tmp_path.iterdir())

    def test_horizon_beyond_poisson_limit(self, tmp_path, capsys):
        # numpy's Poisson sampler raised "lam value too large" here
        err = self.json_error(capsys, ["simulate", "--family", "gaussian", "--param", "0.3",
                                       "--horizon", "1e300", "--out", tmp_path / "x"])
        assert err["error"] == "InvalidParameter" and "events" in err["message"]
        assert not list(tmp_path.iterdir())

    def test_counts_beyond_memory(self, tmp_path, capsys):
        # 8e17 bytes per event array: past any address space, so the allocation
        # fails at once on every host instead of being overcommitted
        err = self.json_error(capsys, ["simulate", "--family", "gaussian", "--param", "0.3",
                                       "--n1", 10**17, "--n2", "5", "--out", tmp_path / "x"])
        assert err["error"] == "MemoryError" and "allocate" in err["message"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option", ["--r1", "--r2"])
    @pytest.mark.parametrize("grid", ["abc", "1,,2", "nan", ""])
    def test_bad_plugin_eval_grid(self, sim_prefix, tmp_path, capsys, option, grid):
        paired = tmp_path / "paired.csv"
        assert run(["pair", f"{sim_prefix}_a.csv", f"{sim_prefix}_b.csv", "--out", paired]) == 0
        capsys.readouterr()
        err = self.json_error(capsys, ["plugin-eval", "--paired", paired, "--family", "gaussian",
                                       "--param", "0.6", f"{option}={grid}"])
        assert err["error"] == "InvalidParameter" and option in err["message"]


class TestParseMargin:
    def test_normal_default_and_parametrized(self):
        m = parse_margin("normal")
        assert m.ppf(0.5) == pytest.approx(0.0)
        m2 = parse_margin("normal:1,2")
        assert m2.ppf(0.5) == pytest.approx(1.0)

    def test_student_t(self):
        m = parse_margin("t:5")
        assert m.ppf(0.5) == pytest.approx(0.0)

    def test_rejects_bad_specs(self):
        for bad in ("t", "t:1.5", "normal:1", "cauchy", "t:5,6", "t:nan", "normal:0,inf"):
            with pytest.raises(InvalidParameter):
                parse_margin(bad)


# a synchronous paired CSV with 11 non-degenerate returns
GOOD_LINES = ["t1,x,t2,y"] + [
    f"{t},{x},{t},{y}" for t, x, y in
    [(0, 0.0, 0.0), (1, 0.1, 0.2), (2, 0.3, 0.3), (3, 0.3, 0.1), (4, 0.2, 0.4), (5, 0.5, 0.3),
     (6, 0.4, 0.6), (7, 0.8, 0.5), (8, 0.6, 0.9), (9, 1.0, 0.7), (10, 0.9, 1.1), (11, 1.3, 1.0)]
]


def with_line(row, line):
    lines = list(GOOD_LINES)
    lines[row] = line
    return lines


class TestPairedInputErrors:
    def run_estimate(self, tmp_path, capsys, lines, method="corrected-corr"):
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = run(["estimate", "--paired", path, "--method", method])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InvalidParameter"
        return err["message"]

    def test_non_numeric_field(self, tmp_path, capsys):
        message = self.run_estimate(tmp_path, capsys, with_line(3, "2,abc,2,0.3"))
        assert "row 3" in message and "non-numeric" in message

    def test_short_row(self, tmp_path, capsys):
        message = self.run_estimate(tmp_path, capsys, with_line(4, "3,0.3,3"), method="kendall")
        assert "row 4" in message and "expected 4 fields" in message

    def test_nan_rejected_for_corrected_correlation(self, tmp_path, capsys):
        message = self.run_estimate(tmp_path, capsys, with_line(3, "2,nan,2,0.3"))
        assert "row 3" in message and "non-finite" in message

    def test_constant_leg_is_a_domain_error(self, tmp_path, capsys):
        lines = [line.rsplit(",", 1)[0] + ",0.5" for line in GOOD_LINES[1:]]
        message = self.run_estimate(tmp_path, capsys, GOOD_LINES[:1] + lines)
        assert "zero variance" in message

    def test_bad_metadata_value(self, tmp_path, capsys):
        message = self.run_estimate(tmp_path, capsys, ["# n_raw1=many"] + GOOD_LINES)
        assert "bad metadata" in message

    @pytest.mark.parametrize("line, words", [
        ("# n_raw1=0", "n_raw1=0 is below the 12 distinct"),  # divided by zero in diagnostics
        ("# n_raw1=5", "n_raw1=5 is below"),  # a negative loss fraction
        ("# n_raw1=-3", "n_raw1=-3 is below"),
        ("# n_raw2=11", "n_raw2=11 is below"),
        ("# delta=nan", "delta must be finite and positive"),
        ("# delta=inf", "delta must be finite and positive"),
        ("# delta=0", "delta must be finite and positive"),
        ("# delta=-2.5", "delta must be finite and positive"),
        ("2,0.3,0.5,0.3", "paired timestamps must be nondecreasing"),  # replaces data row 3
    ])
    def test_inconsistent_metadata(self, tmp_path, capsys, line, words):
        lines = [line] + GOOD_LINES if line.startswith("#") else with_line(3, line)
        message = self.run_estimate(tmp_path, capsys, lines)
        assert words in message and "p.csv" in message

    def test_counts_equal_to_the_distinct_timestamps(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("\n".join(["# n_raw1=12", "# n_raw2=13", "# delta=0.5", *GOOD_LINES]) + "\n")
        assert run(["estimate", "--paired", path]) == 0
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diag["loss1"] == 0.0 and diag["loss2"] == 1 - 12 / 13

    def test_json_output_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "x.json", {"point": float("nan")})


def row_writer_oracle(paired, meta):
    """The paired CSV written one row at a time with csv.DictWriter."""
    buf = io.StringIO()
    meta = dict(meta, scheme=paired.scheme, n_raw1=paired.n_raw1, n_raw2=paired.n_raw2,
                delta="" if paired.delta is None else paired.delta)
    for k, v in meta.items():
        buf.write(f"# {k}={v}\n")
    writer = csv.DictWriter(buf, fieldnames=["t1", "x", "t2", "y", "overlap", "config"],
                            lineterminator="\n")
    writer.writeheader()
    overlaps = np.minimum(paired.t1[1:], paired.t2[1:]) - np.maximum(paired.t1[:-1], paired.t2[:-1])
    configs = configuration_labels(paired)
    for i in range(len(paired)):
        writer.writerow({
            "t1": f"{paired.t1[i]:.17g}", "x": f"{paired.x[i]:.17g}",
            "t2": f"{paired.t2[i]:.17g}", "y": f"{paired.y[i]:.17g}",
            "overlap": f"{overlaps[i - 1]:.17g}" if i else "",
            "config": int(configs[i - 1]) if i else "",
        })
    return buf.getvalue()


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def paired_series(draw):
    n = draw(st.integers(1, 30))
    times = st.lists(st.floats(-1e15, 1e15), min_size=n, max_size=n).map(sorted)
    t1, t2 = draw(times), draw(times)
    return PairedSeries(
        t1=t1, x=draw(st.lists(finite, min_size=n, max_size=n)),
        t2=t2, y=draw(st.lists(finite, min_size=n, max_size=n)),
        scheme=draw(st.sampled_from(["a0", "refresh", "prev-tick"])),
        # a source series has at least as many ticks as its pairs have distinct times
        n_raw1=draw(st.integers(len(set(t1)), 10**9)), n_raw2=draw(st.integers(len(set(t2)), 10**9)),
        delta=draw(st.none() | st.floats(1e-9, 1e9)),
    )


# SHA-256 of write_paired_csv output: the first n pairs of the seeded day's a0 pairing.
# One chunk is 4096 rows, so 4096-4098 pairs straddle it.
PAIRED_SHA256 = {
    1: "58ca6365810c022e576d511c11e67ee4dc24b1680bf73a2251a90ec24f610782",
    4096: "853e31865bf4dc0461bb1972b48ea2ed4ce3751856bb4469846c484472ef68bc",
    4097: "87fb9eb8b47187bbd83521d3951cb71c5ab8563d82a89b342c6958445d7a2496",
    4098: "5497759a3d05472b46a65f23541d82c43aa78f827338206c0771bc8e0a554bd0",
}


class TestPairedCsvFormat:
    @settings(max_examples=80, deadline=None)
    @given(paired_series())
    def test_round_trip_is_bit_exact(self, paired):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "p.csv"
            write_paired_csv(path, paired, {"seed": 3})
            back = read_paired_csv(path)
        for name in ("t1", "x", "t2", "y"):
            assert np.array_equal(getattr(back, name), getattr(paired, name))
        assert (back.scheme, back.n_raw1, back.n_raw2, back.delta) == \
            (paired.scheme, paired.n_raw1, paired.n_raw2, paired.delta)

    @settings(max_examples=40, deadline=None)
    @given(paired_series())
    def test_bytes_match_row_writer(self, paired):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "p.csv"
            write_paired_csv(path, paired, {"tool": "tickcopula", "seed": 3})
            assert path.read_bytes() == row_writer_oracle(paired, {"tool": "tickcopula", "seed": 3}).encode()

    @pytest.mark.parametrize("n", [1, _CHUNK_ROWS, _CHUNK_ROWS + 1, _CHUNK_ROWS + 2])
    def test_frozen_digest(self, tmp_path, capsys, n):
        # the first pair is written with the header, so n pairs make n - 1 chunked rows
        p = pair_ticks(*seeded_day())
        head = PairedSeries(t1=p.t1[:n], x=p.x[:n], t2=p.t2[:n], y=p.y[:n], scheme=p.scheme,
                            n_raw1=p.n_raw1, n_raw2=p.n_raw2)
        write_paired_csv(tmp_path / "p.csv", head, {"tool": "tickcopula", "seed": 3})
        write_paired_csv("-", head, {"tool": "tickcopula", "seed": 3})
        assert hashlib.sha256((tmp_path / "p.csv").read_bytes()).hexdigest() == PAIRED_SHA256[n]
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PAIRED_SHA256[n]

    def test_stdout_matches_file(self, tmp_path, rng, capsys):
        paired = pair_ticks(poisson_ticks(rng, 1.0, 60), poisson_ticks(rng, 1.0, 60))
        write_paired_csv("-", paired, {"seed": 1})
        write_paired_csv(tmp_path / "p.csv", paired, {"seed": 1})
        assert capsys.readouterr().out == (tmp_path / "p.csv").read_text()

    def test_bom_crlf_and_quoted_fields(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b'\xef\xbb\xbf# scheme=refresh\r\n# delta=\r\nt1,x,t2,y\r\n'
                         b'"0.5","1",0.5,"2"\r\n\r\n1.5,1.25,1.5,2.5\r\n')
        back = read_paired_csv(path)
        assert back.scheme == "refresh" and back.delta is None
        assert back.x.tolist() == [1.0, 1.25] and back.n_raw1 == 2


def synthetic_pairs(n):
    """n pairs whose every value prints with 17 digits, so rows are equally long."""
    t = np.arange(n) + 0.123456789
    return PairedSeries(t1=t, x=np.sin(t), t2=t + 0.5, y=np.cos(t), scheme="a0", n_raw1=n, n_raw2=n)


class TestBoundedMemory:
    def test_read_peak_follows_the_parsed_arrays(self, tmp_path):
        n = 20_000
        path = tmp_path / "p.csv"
        write_paired_csv(path, synthetic_pairs(n), {"seed": 1})
        assert traced_peak(read_paired_csv, path) < 1.5 * (4 * 8 * n)  # four float64 columns

    def test_tick_read_peak_follows_the_parsed_columns(self, tmp_path):
        # the parse peaks at about 1.26 times the two columns; a check that copies the
        # time column (a prepended difference did, to 2.07 times) fails the bound
        n = 20_000
        path = tmp_path / "t.csv"
        save_ticks(poisson_ticks(np.random.default_rng(1), 1.0, n), path)
        peak = traced_peak(_read_columns, path, ("time", "price"), MalformedInput, _tick_checks)
        assert peak < 1.5 * (2 * 8 * n)

    def test_writer_peaks_stop_growing_past_one_chunk(self, tmp_path):
        # Past one chunk, only the numeric columns the writers compute grow the
        # peak: overlap and config (8 bytes each a row) and exp(log price) (8
        # bytes a row). Holding the text would add ~100 bytes a row.
        small, large = 2 * _CHUNK_ROWS + 1, 8 * _CHUNK_ROWS + 1
        paired = [traced_peak(write_paired_csv, tmp_path / "p.csv", synthetic_pairs(n), {"seed": 1})
                  for n in (small, large)]
        assert paired[1] - paired[0] <= 16 * (large - small) + 4096
        series = [TickSeries(p.t1, p.x) for p in map(synthetic_pairs, (small, large))]
        ticks = [traced_peak(save_ticks, ts, tmp_path / "t.csv") for ts in series]
        assert ticks[1] - ticks[0] <= 8 * (large - small) + 4096
