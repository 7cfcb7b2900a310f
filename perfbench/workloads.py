"""The benchmark's workloads: input generation, one op each, output checks.

An op drives the public CLI in-process through ``tickcopula.cli.main``.
Each workload makes a different module do most of the work:

``day``
    One trading day of 2 x 20k ticks through the file path a user runs on
    real data: ``pair`` (a0), ``estimate`` corrected-corr, ``estimate``
    kendall, ``estimate`` kendall ``--same-config`` and ``select-copula``.
    CSV I/O and copula fitting dominate; the paired CSV is written once and
    read four times.
``calibrate``
    ``calibrate --family clayton`` at the CLI defaults (12 x 100 cells of
    350 ticks), then ``intervals`` queries at tau-hats inside the curve's
    fitted range. Kendall tau and the simulator dominate; no tick file I/O.
``estimators``
    ``reproduce table1 --n-rep 5``: 60 replicates of the three pairing
    schemes and the corrected correlation. Pairing dominates; Kendall tau
    and tick file I/O are never called.

The ``day`` tick files come from the benchmark's own generator, not the
program's simulator, so a change to the program cannot change its input;
the other two workloads pass only a seed. Every check raises :class:`CheckFailed`;
``check`` returns a digest of the op's outputs for the bit-for-bit
comparison against ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
from scipy import stats

import tickcopula.cli


class CheckFailed(Exception):
    """An op's output failed the benchmark's independent check."""


def run_cli(argv: list[str]) -> None:
    """One in-process CLI call; stdout is discarded, a non-zero exit fails."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = tickcopula.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    if code != 0:
        raise CheckFailed(f"exit code {code} from {argv[0]}")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _data_lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if line and not line.startswith("#")]


def _payload(path: Path) -> dict:
    payload = json.loads(path.read_text())
    payload.pop("meta", None)  # holds file paths and tool versions
    return payload


def _digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def _kendall_reference(rx: np.ndarray, ry: np.ndarray) -> tuple[int, int, int]:
    """(concordant - discordant, untied pairs, tied pairs), from scipy's tau-b.

    tickcopula drops tied pairs from numerator and denominator alike, so its
    tau is the first count over the second."""
    n = rx.size
    n0 = n * (n - 1) // 2

    def tie_pairs(values):
        _, c = np.unique(values, axis=0, return_counts=True)
        return int((c * (c - 1) // 2).sum())

    tx, ty = tie_pairs(rx), tie_pairs(ry)
    txy = tie_pairs(np.column_stack([rx, ry]))
    tau_b = stats.kendalltau(rx, ry).statistic
    con_minus_dis = round(tau_b * np.sqrt(float(n0 - tx) * float(n0 - ty)))
    untied = n0 - tx - ty + txy
    return con_minus_dis, untied, n0 - untied


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------


class Day:
    """One trading day through the file-based CLI chain."""

    name = "day"
    rho = 0.6

    def __init__(self, workdir: Path, n_ticks: int = 20_000):
        self.workdir = workdir
        self.n_ticks = n_ticks
        self.items = 2 * n_ticks  # input ticks

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def prepare(self, op_seed: int) -> None:
        """Write the day's two tick files: a Gaussian copula (rho) on a merged
        rate-2 Poisson stream split evenly between the assets (lambda1 = lambda2
        = 1), increments scaled by the square root of elapsed time."""
        rng = np.random.default_rng([0xDA7, op_seed])
        n = 2 * self.n_ticks
        times = np.cumsum(rng.exponential(0.5, n))
        to_b = np.zeros(n, dtype=bool)
        to_b[rng.permutation(n)[: self.n_ticks]] = True
        z = rng.standard_normal((n, 2))
        z[:, 1] = self.rho * z[:, 0] + np.sqrt(1.0 - self.rho**2) * z[:, 1]
        log_p = np.log(100.0) + np.cumsum(1e-3 * np.sqrt(np.diff(times, prepend=0.0))[:, None] * z, axis=0)
        for leg, mask, col in (("a", ~to_b, 0), ("b", to_b, 1)):
            np.savetxt(self._path(f"day_{leg}.csv"), np.column_stack([times[mask], np.exp(log_p[mask, col])]),
                       fmt="%.17g", delimiter=",", header="time,price", comments="")

    def run(self) -> None:
        pairs = self._path("pairs.csv")
        run_cli(["pair", self._path("day_a.csv"), self._path("day_b.csv"), "--scheme", "a0", "--out", pairs])
        run_cli(["estimate", "--paired", pairs, "--method", "corrected-corr", "--out", self._path("cc.json")])
        run_cli(["estimate", "--paired", pairs, "--method", "kendall", "--out", self._path("k.json")])
        run_cli(["estimate", "--paired", pairs, "--method", "kendall", "--same-config",
                 "--out", self._path("ks.json")])
        run_cli(["select-copula", "--paired", pairs, "--out", self._path("sel.csv")])

    def check(self) -> str:
        pair_lines = _data_lines(self.workdir / "pairs.csv")
        _require(pair_lines[0].split(",")[:4] == ["t1", "x", "t2", "y"], "paired CSV header")
        t1, x, t2, y = np.loadtxt(pair_lines[1:], delimiter=",", usecols=(0, 1, 2, 3), ndmin=2).T
        rx, ry = np.diff(x), np.diff(y)

        cc, k, ks = (_payload(self.workdir / f) for f in ("cc.json", "k.json", "ks.json"))
        overlaps = np.minimum(t1[1:], t2[1:]) - np.maximum(t1[:-1], t2[:-1])
        w = np.sqrt(np.diff(t1).mean() * np.diff(t2).mean()) / overlaps.mean()
        diag = cc["diagnostics"]
        _require(_close(diag["w"], w, 1e-9), f"w {diag['w']} != recomputed {w}")
        _require(diag["w"] >= 1.0, f"w {diag['w']} < 1")
        _require(0.0 <= diag["loss1"] <= 1.0 and 0.0 <= diag["loss2"] <= 1.0, "loss fraction outside [0, 1]")
        rho = np.corrcoef(rx, ry)[0, 1]
        _require(_close(diag["rho_uncorrected"], rho, 1e-9), "uncorrected correlation")
        _require(_close(cc["point"], float(np.clip(w * rho, -1, 1)), 1e-9), "corrected correlation")

        n = rx.size
        cmd, untied, tied = _kendall_reference(rx, ry)
        _require(k["n_used"] == n, "kendall n_used")
        _require(k["n_pairs_compared"] + k["n_tied"] == n * (n - 1) // 2, "kendall pair counts")
        _require((k["n_pairs_compared"], k["n_tied"]) == (untied, tied), "kendall tie counts")
        _require(_close(k["point"], cmd / untied), f"kendall point {k['point']} != scipy {cmd / untied}")

        # same-config: returns whose ordering configuration is 1 or 4
        start_1_later = t1[:-1] > t2[:-1]
        end_1_earlier = t1[1:] < t2[1:]
        groups = [~start_1_later & ~end_1_earlier, start_1_later & end_1_earlier]  # labels 1, 4
        groups = [g for g in groups if g.sum() >= 2]
        cmd, untied, tied = np.sum([_kendall_reference(rx[g], ry[g]) for g in groups], axis=0)
        _require(ks["n_used"] == sum(int(g.sum()) for g in groups), "same-config n_used")
        _require((ks["n_pairs_compared"], ks["n_tied"]) == (untied, tied), "same-config pair counts")
        _require(_close(ks["point"], cmd / untied), f"same-config point {ks['point']} != {cmd / untied}")

        sel_lines = _data_lines(self.workdir / "sel.csv")
        ranks = [line.split(",") for line in sel_lines[1:]]
        _require(sorted(r[1] for r in ranks) == ["clayton", "gaussian", "gumbel", "student_t"],
                 "select-copula families")
        aics = [float(r[6]) for r in ranks]
        _require([int(r[0]) for r in ranks] == list(range(1, len(ranks) + 1)) and aics == sorted(aics),
                 "select-copula ranking")
        return _digest(pair_lines, cc, k, ks, sel_lines)


class Calibrate:
    """Monte Carlo calibration of a Clayton tau curve, then interval queries."""

    name = "calibrate"
    level = 0.95

    def __init__(self, workdir: Path, k: int = 12, n_rep: int = 100, n_ticks: int = 350, n_tau: int = 10):
        self.workdir = workdir
        self.args = ["--k", str(k), "--n-rep", str(n_rep), "--n-ticks", str(n_ticks)]
        self.n_tau = n_tau  # each tau-hat is queried with quad and quantile
        self.items = k * n_rep  # replicate cells
        self.seed = None

    def prepare(self, op_seed: int) -> None:
        self.seed = op_seed

    def run(self) -> None:
        curve_path = str(self.workdir / "curve.json")
        run_cli(["calibrate", "--family", "clayton", *self.args, "--seed", str(self.seed), "--out", curve_path])
        # tau-hats outside the fitted range fail by design, so query inside it
        curve = json.loads(Path(curve_path).read_text())
        a, b, c = curve["quad_coeffs"]
        lo, hi = curve["grid_taus"][0], curve["grid_taus"][-1]
        f_lo, f_hi = a + b * lo + c * lo * lo, a + b * hi + c * hi * hi
        for i in range(self.n_tau):
            tau_hat = f_lo + (f_hi - f_lo) * (i + 0.5) / self.n_tau
            for method in ("quad", "quantile"):
                run_cli(["intervals", "--method", method, "--curve", curve_path, "--tau-hat", repr(tau_hat),
                         "--level", str(self.level), "--out", str(self.workdir / f"iv_{method}_{i}.json")])

    def check(self) -> str:
        curve = _payload(self.workdir / "curve.json")
        est = np.asarray(curve["estimates"], dtype=float)
        _require(est.size == self.items and np.isfinite(est).all(), "curve estimates")
        lo, hi = curve["grid_taus"][0], curve["grid_taus"][-1]
        intervals = []
        for i in range(self.n_tau):
            for method in ("quad", "quantile"):
                iv = _payload(self.workdir / f"iv_{method}_{i}.json")
                bounds = (iv["lo"], iv["point"], iv["hi"])
                _require(all(np.isfinite(bounds)) and lo <= iv["lo"] <= iv["point"] <= iv["hi"] <= hi,
                         f"{method} interval {bounds} outside grid span [{lo}, {hi}]")
                _require(iv["level"] == self.level, "interval level")
                intervals.append(iv)
        return _digest(curve, intervals)


class Estimators:
    """The Gaussian estimator study behind Table 1."""

    name = "estimators"

    def __init__(self, workdir: Path, n_rep: int = 5):
        self.workdir = workdir
        self.n_rep = n_rep
        self.items = 12 * n_rep  # replicates over the 12 default cells
        self.seed = None

    def prepare(self, op_seed: int) -> None:
        self.seed = op_seed

    def run(self) -> None:
        run_cli(["reproduce", "table1", "--n-rep", str(self.n_rep), "--seed", str(self.seed),
                 "--out", str(self.workdir / "table1.csv")])

    def check(self) -> str:
        lines = _data_lines(self.workdir / "table1.csv")
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        _require(len(rows) * self.n_rep == self.items, "table1 row count")
        _require(all(np.isfinite(list(r.values())).all() for r in rows), "non-finite table1 value")
        # At n = 800 the five-replicate means scatter too widely: the rho = -0.4
        # cell failed this comparison in 3 of 400 seeds although the corrected
        # estimator is unbiased there, so only n >= 2000 is held to it.
        for r in rows:
            if abs(r["rho"]) >= 0.4 and r["n"] >= 2000:
                _require(abs(r["corrected_mean"] - r["rho"]) < abs(r["refresh_mean"] - r["rho"]),
                         f"corrected mean not nearer rho={r['rho']} than refresh at n={r['n']:.0f}")
        return _digest(lines)


WORKLOADS = {w.name: w for w in (Day, Calibrate, Estimators)}
