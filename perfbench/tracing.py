"""In-memory span tracer that wraps tickcopula's public functions from outside.

The tracer replaces selected module functions with timing wrappers and
rebinds every name under which ``tickcopula`` modules hold them, including
names copied by ``from .x import y`` (``cli``, ``calibration`` and ``tables``
call ``simulate``, ``pair_ticks``, ``kendall_tau`` and others through such
copies, so wrapping only the defining module would miss those calls).
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` restores every
binding.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists and
written out once, when the run ends. A span's self time is its duration
minus the durations of its direct children; calls run on one thread, so
children never overlap.
"""

from __future__ import annotations

import csv
import functools
import statistics
import sys
import time
from collections import defaultdict


def _count(metric, amount):
    def hook(counts, args, kwargs, result):
        counts[metric] += amount(args, result)
    return hook


def _pairing_counts(counts, args, kwargs, result):
    counts["pairing.ticks_in"] += len(args[0]) + len(args[1])
    counts["pairing.pairs_out"] += len(result)


def _kendall_counts(counts, args, kwargs, result):
    counts["estimators.returns"] += len(args[0]) - 1
    counts["estimators.kendall_tied"] += result.n_tied
    counts["estimators.kendall_compared"] += result.n_pairs_compared


def _fit_counts(counts, args, kwargs, result):
    from tickcopula.copulas import FAMILIES

    families = kwargs.get("families", args[1] if len(args) > 1 else FAMILIES)
    counts["copulas.families_tried"] += len(families)
    counts["copulas.families_fitted"] += len(result)


# (module, attribute, span name, count hook). A hook runs after a call that
# returned; every span also counts ``<span>.calls`` and, if it raised,
# ``<span>.failed``. ``arrival_theory`` is on no benchmarked path.
TARGETS = (
    ("market_data", "load_ticks", "market_data.load_ticks",
     _count("market_data.ticks_read", lambda a, r: len(r))),
    ("cli", "main", "cli.main", None),
    ("cli", "write_paired_csv", "cli.write_paired_csv",
     _count("cli.paired_rows_written", lambda a, r: len(a[1]))),
    ("cli", "read_paired_csv", "cli.read_paired_csv", None),
    ("pairing", "pair_ticks", "pairing.pair_ticks", _pairing_counts),
    ("pairing", "pair_refresh_time", "pairing.pair_refresh_time", _pairing_counts),
    ("pairing", "pair_previous_tick", "pairing.pair_previous_tick", _pairing_counts),
    ("pairing", "diagnostics", "pairing.diagnostics", None),
    ("estimators", "kendall_tau", "estimators.kendall_tau", _kendall_counts),
    ("estimators", "corrected_correlation", "estimators.corrected_correlation", None),
    ("copulas", "fit_aic", "copulas.fit_aic", _fit_counts),
    ("copulas", "pseudo_observations", "copulas.pseudo_observations", None),
    ("copulas", "sample_uniform", "copulas.sample_uniform", None),
    ("synthesis", "simulate", "synthesis.simulate",
     _count("synthesis.ticks_out", lambda a, r: len(r.a) + len(r.b))),
    ("calibration", "build_curve", "calibration.build_curve",
     _count("calibration.curve_cells", lambda a, r: r.estimates.size)),
    ("calibration", "interval_quad", "calibration.interval_quad", None),
    ("calibration", "interval_quantile", "calibration.interval_quantile", None),
    ("tables", "gaussian_estimator_study", "tables.gaussian_estimator_study",
     _count("tables.replicates", lambda a, r: sum(row["n_rep"] for row in r))),
)

# Per-layer metrics emitted by a traced run, with their units.
PER_LAYER_UNITS = {
    "market_data.load_ticks.self_s": "s",
    "market_data.ticks_read": "count",
    "cli.main.self_s": "s",
    "cli.write_paired_csv.self_s": "s",
    "cli.read_paired_csv.self_s": "s",
    "cli.read_paired_csv.calls": "count",
    "cli.paired_rows_written": "count",
    "pairing.pair_ticks.self_s": "s",
    "pairing.pair_ticks.calls": "count",
    "pairing.pair_refresh_time.self_s": "s",
    "pairing.pair_previous_tick.self_s": "s",
    "pairing.diagnostics.self_s": "s",
    "pairing.ticks_in": "count",
    "pairing.pairs_out": "count",
    "pairing.ns_per_tick": "ns",
    "pairing.pair_yield": "frac",
    "estimators.kendall_tau.self_s": "s",
    "estimators.kendall_tau.calls": "count",
    "estimators.kendall_tau.ns_per_return": "ns",
    "estimators.kendall_tied_frac": "frac",
    "estimators.corrected_correlation.self_s": "s",
    "copulas.fit_aic.self_s": "s",
    "copulas.fit_ok_frac": "frac",
    "copulas.pseudo_observations.self_s": "s",
    "copulas.sample_uniform.self_s": "s",
    "synthesis.simulate.self_s": "s",
    "synthesis.simulate.calls": "count",
    "synthesis.ticks_out": "count",
    "calibration.build_curve.self_s": "s",
    "calibration.curve_cells": "count",
    "calibration.curve_json.self_s": "s",
    "calibration.interval_quad.self_s": "s",
    "calibration.interval_quantile.self_s": "s",
    "calibration.interval_fail_frac": "frac",
    "tables.gaussian_estimator_study.self_s": "s",
    "tables.replicates": "count",
    "trace.op_s_p50": "s",
    "trace.remainder_frac": "frac",
    "trace.overhead_frac": "frac",
}

# Counts and ratios depend on the op's inputs, so they are taken over the
# first ops of a run only; those always run, which makes them repeat exactly
# for a seed. Times are medians over every traced op.
COUNT_OPS = 3
_INPUT_DEPENDENT = {name for name, unit in PER_LAYER_UNITS.items()
                    if unit == "count" or (unit == "frac" and not name.startswith("trace."))}
_SELF_NAMES = {m[: -len(".self_s")] for m in PER_LAYER_UNITS if m.endswith(".self_s")}


class Tracer:
    """Wraps the :data:`TARGETS` and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_counts: list[defaultdict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = self.op_counts[-1]
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, len(self.op_counts) - 1]
            stack.append(len(spans))
            spans.append(span)
            counts[name + ".calls"] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".failed"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import tickcopula.calibration as calibration

        wrappers = {}
        for module, attr, name, hook in TARGETS:
            fn = getattr(sys.modules[f"tickcopula.{module}"], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, hook))
        for modname, module in list(sys.modules.items()):
            if modname != "tickcopula" and not modname.startswith("tickcopula."):
                continue
            for key, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._saved.append((module, key, value))
                    setattr(module, key, entry[1])
        curve = calibration.CorrectionCurve
        for key in ("to_json", "from_json"):
            raw = curve.__dict__[key]
            self._saved.append((curve, key, raw))
            if isinstance(raw, classmethod):
                setattr(curve, key, classmethod(self._wrap("calibration.curve_json", raw.__func__, None)))
            else:
                setattr(curve, key, self._wrap("calibration.curve_json", raw, None))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- ops -----------------------------------------------------------------

    def begin_op(self) -> None:
        self.op_counts.append(defaultdict(int))

    def self_times(self) -> list[dict[str, float]]:
        """Per op: the summed self time of each span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_op = [defaultdict(float) for _ in self.op_counts]
        for i, (name, start, end, _, op) in enumerate(self.spans):
            per_op[op][name] += end - start - child[i]
        return per_op

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["op", "name", "start", "end", "parent"])
            for name, start, end, parent, op in self.spans:
                writer.writerow([op, name, repr(start), repr(end), parent])


def _op_metrics(self_s: dict, counts: dict, op_s: float) -> dict:
    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in _SELF_NAMES}
    pair_s = sum(self_s.get(f"pairing.{f}", 0.0)
                 for f in ("pair_ticks", "pair_refresh_time", "pair_previous_tick"))
    interval_calls = counts["calibration.interval_quad.calls"] + counts["calibration.interval_quantile.calls"]
    interval_failed = counts["calibration.interval_quad.failed"] + counts["calibration.interval_quantile.failed"]
    out.update({
        "market_data.ticks_read": counts["market_data.ticks_read"],
        "cli.read_paired_csv.calls": counts["cli.read_paired_csv.calls"],
        "cli.paired_rows_written": counts["cli.paired_rows_written"],
        "pairing.pair_ticks.calls": counts["pairing.pair_ticks.calls"],
        "pairing.ticks_in": counts["pairing.ticks_in"],
        "pairing.pairs_out": counts["pairing.pairs_out"],
        "pairing.ns_per_tick": 1e9 * ratio(pair_s, counts["pairing.ticks_in"]),
        "pairing.pair_yield": ratio(counts["pairing.pairs_out"], counts["pairing.ticks_in"]),
        "estimators.kendall_tau.calls": counts["estimators.kendall_tau.calls"],
        "estimators.kendall_tau.ns_per_return":
            1e9 * ratio(self_s.get("estimators.kendall_tau", 0.0), counts["estimators.returns"]),
        "estimators.kendall_tied_frac": ratio(
            counts["estimators.kendall_tied"],
            counts["estimators.kendall_tied"] + counts["estimators.kendall_compared"]),
        "copulas.fit_ok_frac": ratio(counts["copulas.families_fitted"], counts["copulas.families_tried"]),
        "synthesis.simulate.calls": counts["synthesis.simulate.calls"],
        "synthesis.ticks_out": counts["synthesis.ticks_out"],
        "calibration.curve_cells": counts["calibration.curve_cells"],
        "calibration.interval_fail_frac": ratio(interval_failed, interval_calls),
        "tables.replicates": counts["tables.replicates"],
        "trace.op_s_p50": op_s,
        "trace.remainder_frac": ratio(op_s - sum(self_s.values()), op_s),
    })
    return out


def layer_metrics(tracer: Tracer, traced_op_s: list[float], scales: list[float],
                  untraced_op_s: list[float]) -> dict:
    """Per-layer metrics: per-op medians, plus the tracer's own overhead.

    ``traced_op_s`` are wall seconds; each op's times are multiplied by its
    entry in ``scales``, as ``untraced_op_s`` already were.
    """
    per_op = [_op_metrics({name: t * scale for name, t in s.items()}, c, op_s * scale)
              for s, c, op_s, scale in zip(tracer.self_times(), tracer.op_counts, traced_op_s, scales)]
    out = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_frac":
            continue
        ops = per_op[:COUNT_OPS] if name in _INPUT_DEPENDENT else per_op
        out[name] = statistics.median(op[name] for op in ops)
    out["trace.overhead_frac"] = out["trace.op_s_p50"] / statistics.median(untraced_op_s) - 1.0
    return out
