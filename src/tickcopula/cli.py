"""Command-line surface: simulate, pair, estimate, calibrate, reproduce.

Every artifact is CSV (tick data, tables) or JSON (reports, curves). Numeric
artifacts are bit-reproducible for a fixed ``--seed``; each one records the
RNG algorithm and seed in its header so a run can be repeated exactly.
Domain errors and unreadable or unwritable files exit with status 1 and a
machine-readable JSON error on stderr; usage errors exit with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import sys

import numpy as np

from . import __version__
from .arrival_theory import PoissonPair, theory_report
from .calibration import (
    CorrectionCurve,
    build_curve,
    interval_misspecified,
    interval_quad,
    interval_quantile,
)
from .copulas import (
    FAMILIES,
    CopulaModel,
    fit_aic,
    param_of_tau,
    plugin_copula,
    pseudo_observations,
    tau_of,
)
from .errors import InvalidParameter, TickCopulaError
from .estimators import corrected_correlation, kendall_tau
from .market_data import _read_columns, _write_rows, load_ticks, save_ticks
from .pairing import (
    PairedSeries,
    _n_distinct,
    configuration_labels,
    overlap_intervals,
    pair_previous_tick,
    pair_refresh_time,
    pair_ticks,
)
from .synthesis import RNG_NAME, SimSpec, _NormalMargin, _TMargin, simulate
from .tables import coverage_study, gaussian_estimator_study, t_copula_margin_study


def _meta(args, **extra) -> dict:
    meta = {"tool": "tickcopula", "version": __version__, "rng": RNG_NAME}
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    meta.update(extra)
    return meta


def _output(path):
    """The text stream ``path`` names, as a context manager; ``None`` or ``-`` is stdout."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_text(path, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


def _write_json(path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _meta_lines(meta: dict) -> str:
    return "".join(f"# {k}={v}\n" for k, v in meta.items())


def _write_csv(path, fieldnames, rows, meta: dict) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write_text(path, _meta_lines(meta) + buf.getvalue())


def parse_margin(text: str):
    """Parse a margin spec: ``normal[:mu,sigma]`` or ``t:df``."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind in ("normal", "n", "gaussian"):
        if rest:
            parts = _parse_numbers(rest, f"margin {text!r}")
            if len(parts) != 2 or parts[1] <= 0:
                raise InvalidParameter(f"bad normal margin spec {text!r}")
            return _NormalMargin(parts[0], parts[1])
        return _NormalMargin(0.0, 1.0)
    if kind in ("t", "student_t", "student-t"):
        if not rest:
            raise InvalidParameter(f"t margin needs degrees of freedom: {text!r}")
        parts = _parse_numbers(rest, f"margin {text!r}")
        if len(parts) != 1:
            raise InvalidParameter(f"bad t margin spec {text!r}")
        if parts[0] <= 2:
            raise InvalidParameter("t margin needs df > 2 for a finite variance")
        return _TMargin(parts[0])
    raise InvalidParameter(f"unknown margin spec {text!r}")


def _parse_numbers(values: str, where: str) -> list[float]:
    """Comma-separated finite floats; ``where`` names the input in errors."""
    try:
        parts = [float(p) for p in values.split(",")]
    except ValueError:
        raise InvalidParameter(f"non-numeric value in {where}") from None
    if not np.isfinite(parts).all():
        raise InvalidParameter(f"non-finite value in {where}")
    return parts


def _model_from_args(args) -> CopulaModel:
    if args.tau is not None:
        return param_of_tau(args.family, args.tau, df=args.df)
    if args.param is None:
        raise InvalidParameter("one of --param or --tau is required")
    return CopulaModel(args.family, args.param, df=args.df)


def _refuse_ignored(args, chosen: str, *options: str) -> None:
    """Refuse the ``options`` given on the command line, which the ``chosen`` scheme, method or family ignores.

    Commands call this before they read a file, so a refusal comes first.
    """
    values = {o: getattr(args, o[2:].replace("-", "_")) for o in options}
    given = [o for o, v in values.items() if v is not None and v is not False]  # unset: None, or False for a flag
    if given:
        raise InvalidParameter(f"{chosen} ignores {' and '.join(given)}")


def write_paired_csv(path, paired: PairedSeries, meta: dict) -> None:
    """Columns t1,x,t2,y,overlap,config; the first row has no overlap yet."""
    overlaps = overlap_intervals(paired) if len(paired) >= 2 else np.array([])
    configs = configuration_labels(paired) if len(paired) >= 2 else np.array([])
    meta = dict(meta)
    meta.update(
        scheme=paired.scheme, n_raw1=paired.n_raw1, n_raw2=paired.n_raw2,
        delta=("" if paired.delta is None else paired.delta),
    )
    cols = (paired.t1, paired.x, paired.t2, paired.y)
    head = _meta_lines(meta) + "t1,x,t2,y,overlap,config\n"
    head += "%.17g,%.17g,%.17g,%.17g,,\n" % tuple(c[0].item() for c in cols)
    with _output(path) as fh:
        _write_rows(fh, head, "%.17g,%.17g,%.17g,%.17g,%.17g,%d\n",
                    (*(c[1:] for c in cols), overlaps, configs))


def read_paired_csv(path) -> PairedSeries:
    """Load a paired CSV written by :func:`write_paired_csv`.

    A malformed or non-finite value raises :class:`InvalidParameter` naming
    the first offending data row. A missing raw tick count defaults to the
    number of distinct timestamps in its column; :class:`PairedSeries`
    rejects the rest, and its message is prefixed with ``path``.
    """
    meta, (t1, x, t2, y) = _read_columns(path, ("t1", "x", "t2", "y"), InvalidParameter)
    if t1.size == 0:
        raise InvalidParameter(f"{path}: no data rows")
    scheme = meta.get("scheme", "a0")
    try:
        counts = {k: int(meta[k]) if k in meta else _n_distinct(t)
                  for k, t in (("n_raw1", t1), ("n_raw2", t2))}
        delta = float(meta["delta"]) if meta.get("delta") else None
    except ValueError as exc:
        raise InvalidParameter(f"{path}: bad metadata line: {exc}") from None
    try:
        return PairedSeries(t1=t1, x=x, t2=t2, y=y, scheme=scheme, delta=delta, **counts)
    except InvalidParameter as exc:
        raise InvalidParameter(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_simulate(args) -> int:
    if args.family != "student_t":
        _refuse_ignored(args, f"--family {args.family}", "--df")
    model = _model_from_args(args)
    margins = (parse_margin(args.margin1), parse_margin(args.margin2))
    spec = SimSpec(
        model=model, margins=margins, lambda1=args.lambda1, lambda2=args.lambda2,
        horizon=args.horizon, n1=args.n1, n2=args.n2, seed=args.seed,
    )
    sim = simulate(spec)
    save_ticks(sim.a, f"{args.out}_a.csv")
    save_ticks(sim.b, f"{args.out}_b.csv")
    truth = {"family": model.family, "param": model.param, "tau": tau_of(model)}
    if model.df is not None:
        truth["df"] = model.df
    truth["meta"] = _meta(args, lambda1=args.lambda1, lambda2=args.lambda2,
                          margin1=args.margin1, margin2=args.margin2)
    _write_json(f"{args.out}_truth.json", truth)
    print(f"wrote {args.out}_a.csv ({len(sim.a)} ticks), {args.out}_b.csv "
          f"({len(sim.b)} ticks), {args.out}_truth.json")
    return 0


def _cmd_pair(args) -> int:
    if args.scheme != "prev-tick":
        _refuse_ignored(args, f"--scheme {args.scheme}", "--delta")
    elif args.delta is None:
        raise InvalidParameter("--delta is required for the prev-tick scheme")
    a = load_ticks(args.ticks_a)
    b = load_ticks(args.ticks_b)
    if args.scheme == "a0":
        paired = pair_ticks(a, b)
    elif args.scheme == "refresh":
        paired = pair_refresh_time(a, b)
    else:
        paired = pair_previous_tick(a, b, args.delta)
    write_paired_csv(args.out, paired, _meta(args))
    return 0


def _cmd_theory(args) -> int:
    report = theory_report(PoissonPair(args.lambda1, args.lambda2))
    payload = dataclasses.asdict(report)
    payload["meta"] = _meta(args, lambda1=args.lambda1, lambda2=args.lambda2)
    _write_json(args.out, payload)
    return 0


def _cmd_estimate(args) -> int:
    if not 0.0 < args.level < 1.0:  # refused for kendall too, which has no interval
        raise InvalidParameter(f"level must lie in (0, 1), got {args.level}")
    if args.method != "kendall":
        _refuse_ignored(args, f"--method {args.method}", "--same-config")
    paired = read_paired_csv(args.paired)
    if args.method == "corrected-corr":
        cc = corrected_correlation(paired, level=args.level)
        payload = {
            "method": "corrected-corr",
            "point": cc.theta_hat,
            "interval": {"lo": cc.ci[0], "hi": cc.ci[1], "level": cc.ci[2]},
            "diagnostics": {
                "rho_uncorrected": cc.rho_hat,
                "w": cc.w,
                "m1": cc.diag.m1,
                "m2": cc.diag.m2,
                "m_overlap": cc.diag.m_overlap,
                "n": cc.n,
                "loss1": cc.diag.loss1,
                "loss2": cc.diag.loss2,
                "clamped": cc.clamped,
            },
        }
    else:
        basis = "same-config" if args.same_config else "all-pairs"
        est = kendall_tau(paired, basis=basis)
        payload = {
            "method": "kendall",
            "point": est.tau_hat,
            "basis": est.basis,
            "n_used": est.n_used,
            "n_pairs_compared": est.n_pairs_compared,
            "n_tied": est.n_tied,
        }
    payload["meta"] = _meta(args, paired=str(args.paired))
    _write_json(args.out, payload)
    return 0


def _cmd_select_copula(args) -> int:
    if "student_t" not in args.families:
        _refuse_ignored(args, f"--families {' '.join(args.families)}", "--t-df")
    paired = read_paired_csv(args.paired)
    rx, ry = paired.returns()
    uv = pseudo_observations(rx, ry)
    fits = fit_aic(uv, families=args.families, t_df=args.t_df)
    rows = []
    for rank, fit in enumerate(fits, start=1):
        rows.append(
            {
                "rank": rank,
                "family": fit.model.family,
                "param": f"{fit.model.param:.6g}",
                "df": fit.model.df if fit.model.df is not None else "",
                "tau": f"{tau_of(fit.model):.6g}",
                "loglik": f"{fit.loglik:.6g}",
                "aic": f"{fit.aic:.6g}",
                "n_params": fit.n_params,
                "boundary": int(fit.boundary),
            }
        )
    _write_csv(args.out, list(rows[0].keys()), rows, _meta(args, paired=str(args.paired)))
    return 0


def _cmd_plugin_eval(args) -> int:
    if args.family != "student_t":
        _refuse_ignored(args, f"--family {args.family}", "--df")
    paired = read_paired_csv(args.paired)
    plugin = plugin_copula(paired, args.param, args.family, df=args.df)
    rx, ry = paired.returns()
    if args.r1 is not None:
        grid1 = np.array(_parse_numbers(args.r1, f"--r1 {args.r1!r}"))
    else:
        grid1 = np.quantile(rx, np.linspace(0.1, 0.9, 9))
    if args.r2 is not None:
        grid2 = np.array(_parse_numbers(args.r2, f"--r2 {args.r2!r}"))
    else:
        grid2 = np.quantile(ry, np.linspace(0.1, 0.9, 9))
    rows = []
    for r1 in grid1:
        vals = plugin.evaluate(np.full_like(grid2, r1), grid2)
        for r2, val in zip(grid2, np.atleast_1d(vals)):
            rows.append({"r1": f"{r1:.10g}", "r2": f"{r2:.10g}", "value": f"{val:.10g}"})
    _write_csv(args.out, ["r1", "r2", "value"], rows,
               _meta(args, family=args.family, param=args.param))
    return 0


def _cmd_calibrate(args) -> int:
    if args.family != "student_t":
        _refuse_ignored(args, f"--family {args.family}", "--df")
    arrival = PoissonPair(args.lambda1, args.lambda2)
    margins = (parse_margin(args.margin1), parse_margin(args.margin2))
    grid = np.linspace(args.grid_lo, args.grid_hi, args.k)
    curve = build_curve(
        args.family, arrival, margins, grid=grid, n_rep=args.n_rep,
        n_ticks=args.n_ticks, seed=args.seed, df=args.df,
    )
    curve.to_json(args.out)
    a, b, c = curve.quad_coeffs
    print(f"wrote {args.out}: fit = {a:.4f} + {b:.4f} tau + {c:.4f} tau^2, "
          f"residual scale {curve.resid_scale:.4f}")
    return 0


def _cmd_intervals(args) -> int:
    if args.method == "elliptical":
        _refuse_ignored(args, "--method elliptical", "--curve", "--tau-hat")
        if args.paired is None:
            raise InvalidParameter("--paired is required for the elliptical method")
        iv = interval_misspecified(read_paired_csv(args.paired), level=args.level)
    else:
        _refuse_ignored(args, f"--method {args.method}", "--paired")
        if args.curve is None or args.tau_hat is None:
            raise InvalidParameter("--curve and --tau-hat are required for this method")
        curve = CorrectionCurve.from_json(args.curve)
        fn = interval_quad if args.method == "quad" else interval_quantile
        iv = fn(curve, args.tau_hat, level=args.level)
    payload = {
        "method": iv.method,
        "point": iv.point,
        "lo": iv.lo,
        "hi": iv.hi,
        "level": iv.level,
        "meta": _meta(args),
    }
    _write_json(args.out, payload)
    return 0


def _cmd_reproduce(args) -> int:
    if args.table in ("table1", "table2"):
        rows = gaussian_estimator_study(n_rep=args.n_rep, seed=args.seed)
        if args.table == "table1":
            fields = ["rho", "n", "prev_tick_mean", "prev_tick_sd", "refresh_mean",
                      "refresh_sd", "corrected_mean", "corrected_sd"]
        else:
            fields = ["rho", "n", "prev_tick_mse", "refresh_mse", "corrected_mse"]
        out_rows = [{k: row[k] for k in fields} for row in rows]
    elif args.table == "table3":
        rows = t_copula_margin_study(n_rep=args.n_rep, seed=args.seed)
        fields = list(rows[0].keys())
        out_rows = rows
    elif args.table == "coverage":
        rows = coverage_study(n_rep=args.n_rep, seed=args.seed)
        fields = list(rows[0].keys())
        out_rows = rows
    else:  # pragma: no cover - argparse blocks this
        raise InvalidParameter(f"unknown table {args.table!r}")
    _write_csv(args.out, fields, out_rows, _meta(args, table=args.table, n_rep=args.n_rep))
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``tickcopula`` parser, built on the first call and shared by every later one.

    :func:`main` reuses it, so in-process drivers pay for the argparse tree
    once. Callers must not mutate it, and every default is immutable, so
    no call can carry state into the next.
    """
    parser = argparse.ArgumentParser(
        prog="tickcopula",
        description="Dependence estimation for nonsynchronously observed tick data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a nonsynchronous two-asset sample")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--param", type=float, help="copula parameter (rho or theta)")
    p.add_argument("--tau", type=float, help="alternatively, Kendall's tau")
    p.add_argument("--df", type=int, help="degrees of freedom (student_t only)")
    p.add_argument("--lambda1", type=float, default=1.0)
    p.add_argument("--lambda2", type=float, default=1.0)
    p.add_argument("--n1", type=int, help="target tick count, asset 1")
    p.add_argument("--n2", type=int, help="target tick count, asset 2")
    p.add_argument("--horizon", type=float, help="session length in seconds")
    p.add_argument("--margin1", default="normal")
    p.add_argument("--margin2", default="normal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pair", help="synchronize two tick CSVs")
    p.add_argument("ticks_a")
    p.add_argument("ticks_b")
    p.add_argument("--scheme", choices=["a0", "prev-tick", "refresh"], default="a0")
    p.add_argument("--delta", type=float, help="grid width for prev-tick (seconds)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("theory", help="closed-form arrival quantities for Poisson rates")
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("estimate", help="estimate dependence from a paired CSV")
    p.add_argument("--paired", required=True)
    p.add_argument("--method", choices=["corrected-corr", "kendall"], default="corrected-corr")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--same-config", action="store_true",
                   help="kendall only: compare same-configuration returns")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("select-copula", help="rank copula families by AIC")
    p.add_argument("--paired", required=True)
    p.add_argument("--families", nargs="+", default=FAMILIES)
    p.add_argument("--t-df", type=int, help="fix the student_t degrees of freedom")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_select_copula)

    p = sub.add_parser("plugin-eval", help="evaluate the plug-in copula on a grid")
    p.add_argument("--paired", required=True)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--df", type=int)
    p.add_argument("--r1", help="comma-separated return grid, asset 1")
    p.add_argument("--r2", help="comma-separated return grid, asset 2")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_plugin_eval)

    p = sub.add_parser("calibrate", help="build a tau correction curve by simulation")
    p.add_argument("--family", choices=["clayton", "gumbel", "gaussian", "student_t"], required=True)
    p.add_argument("--df", type=int)
    p.add_argument("--k", type=int, default=12, help="grid size")
    p.add_argument("--grid-lo", type=float, default=0.02)
    p.add_argument("--grid-hi", type=float, default=0.75)
    p.add_argument("--n-rep", type=int, default=100)
    p.add_argument("--lambda1", type=float, default=1.0)
    p.add_argument("--lambda2", type=float, default=1.0)
    p.add_argument("--n-ticks", type=int, default=350)
    p.add_argument("--margin1", default="normal")
    p.add_argument("--margin2", default="normal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("intervals", help="interval estimate for the true tau")
    p.add_argument("--method", choices=["quad", "quantile", "elliptical"], required=True)
    p.add_argument("--curve", help="curve JSON (quad/quantile)")
    p.add_argument("--tau-hat", type=float, help="observed uncorrected tau (quad/quantile)")
    p.add_argument("--paired", help="paired CSV (elliptical)")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_intervals)

    p = sub.add_parser("reproduce", help="run a scripted Monte Carlo study")
    p.add_argument("table", choices=["table1", "table2", "table3", "coverage"])
    p.add_argument("--n-rep", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's seed coercion would raise a bare ValueError
            raise InvalidParameter(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (TickCopulaError, OSError, MemoryError) as exc:
        # numpy raises a private subclass of MemoryError; report the public name
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        error = {"error": kind, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
