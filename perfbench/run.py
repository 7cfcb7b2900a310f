"""tickcopula benchmark: drives the public CLI in-process, one op after another.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload day --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``day``, ``calibrate``, ``estimators``.
All load comes from this one process, a closed loop of independent ops with
BLAS pinned to one thread. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of ``tracing.py``. The last line of
standard output is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the host and the code
measured. Spans and results are also written to ``.perfbench_out/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 1 and prints no result.
"""

import os

# before numpy loads: a later parallel change is measured against one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

MIN_OPS = 3  # per phase, whatever --seconds says, so every run has a median
SETUP_PROBES = 2  # fresh processes timed for setup_s, besides this one
CANARY_SEED = 1_000_000_007  # warm-up op seed, the same in every run
E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "items_per_s": "1/s", "mem_peak_mb": "MB", "ok_frac": "frac"}


def import_program() -> float:
    """Import ``tickcopula.cli`` from this checkout; returns the seconds taken."""
    package = SRC / "tickcopula"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"perfbench: no tickcopula sources in {package}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import tickcopula.cli
    seconds = time.perf_counter() - start
    if Path(tickcopula.cli.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported tickcopula from {tickcopula.cli.__file__}, not {package}")
    return seconds


def op_seed(seed: int, i: int) -> int:
    return 1000 * seed + i


def _proc_status_mb(key: str) -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(key)


def _cpuinfo(key: str) -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        return next((line.split(":", 1)[1].strip() for line in fh if line.startswith(key)), "unknown")


def host_key() -> dict:
    """What bit-identical floating-point outputs depend on besides the code."""
    import numpy
    import scipy

    flags = _cpuinfo("flags").split()
    return {"machine": platform.machine(), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "avx512f": "avx512f" in flags, "avx2": "avx2" in flags}


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "tickcopula").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpuinfo("model name"), **host_key(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "git_sha": _git_sha(),
            "src_sha256": src_hash.hexdigest()}


def load_reference() -> dict:
    """Reference output digests, or an empty map on a host they do not hold for."""
    reference = json.loads(REFERENCE.read_text())
    if reference["host"] != host_key():
        print("perfbench: host differs from reference.json; bit-for-bit checks skipped", file=sys.stderr)
        return {}
    return reference["digests"]


def run_op(workload, seed: int, digests: dict) -> tuple[float, bool]:
    """Prepare (untimed), run (timed) and check one op; returns (seconds, ok)."""
    from workloads import CheckFailed

    workload.prepare(seed)
    start = time.perf_counter()
    try:
        try:
            workload.run()
        finally:
            seconds = time.perf_counter() - start
        digest = workload.check()
        expected = digests.get(workload.name, {}).get(str(seed))
        if expected is not None and digest != expected:
            raise CheckFailed(f"outputs differ from the reference for op seed {seed}")
    except Exception as exc:  # a failed op is counted and the run goes on
        print(f"perfbench: {workload.name} op seed {seed} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return seconds, False
    return seconds, True


class HostSpeed:
    """Times a fixed kernel of the benchmark's own, between ops.

    The host is shared: for seconds at a time, other tenants slow every
    instruction here by up to 2x, with CPU time tracking wall time. Such a
    slowdown stretches this kernel and the ops alike, so an op's wall time
    scaled by ``NOMINAL_S`` over the kernel time around it varies less from
    run to run than the wall time itself: on the 2-core reference host, in
    four sets of ten 20 s runs per workload, the quartile spread of the run
    medians was 0.14-0.44 unscaled and 0.03-0.18 scaled (``baseline.json``).
    The kernel mixes integer and dict work in the interpreter with numpy
    calls on mid-size arrays, as the ops do, and allocates no arrays, so it
    leaves ``mem_peak_mb`` alone.
    """

    NOMINAL_S = 0.012  # kernel seconds on the unloaded reference host

    def __init__(self):
        import numpy as np

        self._np = np
        self._data = np.random.default_rng(0).random(100_000)
        self._buf = np.empty_like(self._data)
        self._last = None

    def sample(self) -> float:
        np, buf = self._np, self._buf
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        table = {}
        for i in range(20_000):
            table[i % 977] = (i, str(i))
        sorted(table.items())
        buf[:] = self._data
        buf.sort()
        np.cumsum(self._data, out=buf)
        np.exp(self._data, out=buf)
        return time.perf_counter() - start

    def scale(self) -> float:
        """Factor from wall seconds now to seconds on the reference host."""
        return self.NOMINAL_S / statistics.median(self.sample() for _ in range(3))

    def mark(self) -> None:
        """Sample the kernel before the first of a series of ops."""
        self._last = self.sample()

    def scale_since_mark(self) -> float:
        """Factor for the op since the last mark, from kernel samples at both ends; marks again."""
        last, self._last = self._last, self.sample()
        return 2.0 * self.NOMINAL_S / (last + self._last)


def probe_setup(name: str, seed: int) -> tuple[float | None, bool]:
    """Scaled setup seconds of a fresh process running this file with ``--setup-probe``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--setup-probe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: setup probe timed out", file=sys.stderr)
        return None, False
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None, False
    probe = json.loads(proc.stdout.splitlines()[-1])
    return probe["setup_s"], probe["ok"]


def measure(workload, seed: int, seconds: float, trace: bool, import_s: float, digests: dict,
            probes: int = SETUP_PROBES, min_ops: int = MIN_OPS, tracer_out: Path | None = None
            ) -> tuple[dict, dict]:
    """One run: setup, then ops for ``seconds``.

    Returns the result object and the unscaled wall-clock figures behind it.
    """
    speed = HostSpeed()
    rss_after_import = _proc_status_mb("VmRSS")
    warmup_s, ok = run_op(workload, CANARY_SEED, digests)
    oks = [ok]
    raw = {"setup_wall_s": import_s + warmup_s}
    if not trace:
        setup = [raw["setup_wall_s"] * speed.scale()]
        for _ in range(probes):
            probe_s, ok = probe_setup(workload.name, seed)
            oks.append(ok)
            if probe_s is not None:
                setup.append(probe_s)
        deadline = time.perf_counter() + seconds
        walls, scaled = [], []
        speed.mark()
        while len(walls) < min_ops or time.perf_counter() < deadline:
            op_s, ok = run_op(workload, op_seed(seed, len(walls)), digests)
            walls.append(op_s)
            scaled.append(op_s * speed.scale_since_mark())
            oks.append(ok)
            if len(walls) == min_ops:
                # resident memory creeps up by tens of kB per op, so a peak
                # taken after a fixed op count keeps faster code from
                # reading as hungrier
                mem_peak_mb = _proc_status_mb("VmHWM") - rss_after_import
        op_s_p50 = statistics.median(scaled)
        raw["op_wall_s_p50"] = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "op_s_p50": op_s_p50,
            "items_per_s": workload.items / op_s_p50,
            "mem_peak_mb": mem_peak_mb,
            "ok_frac": 1.0 - oks.count(False) / len(oks),
        }
        units = E2E_UNITS
    else:
        from tracing import PER_LAYER_UNITS, Tracer, layer_metrics

        tracer = Tracer()
        traced, untraced, scales = [], [], []
        deadline = time.perf_counter() + seconds
        speed.mark()
        # each op seed runs once traced and once not, alternating which goes first
        while len(traced) < min_ops or time.perf_counter() < deadline:
            i = len(traced)
            for on in ((True, False) if i % 2 == 0 else (False, True)):
                if on:
                    tracer.begin_op()
                    with tracer:
                        op_s, ok = run_op(workload, op_seed(seed, i), digests)
                    scales.append(speed.scale_since_mark())
                    traced.append(op_s)
                else:
                    op_s, ok = run_op(workload, op_seed(seed, i), digests)
                    untraced.append(op_s * speed.scale_since_mark())
                oks.append(ok)
        raw["traced_op_wall_s_p50"] = statistics.median(traced)
        metrics = layer_metrics(tracer, traced, scales, untraced)
        units = PER_LAYER_UNITS
        if tracer_out is not None:
            tracer.write(tracer_out)
    failed = oks.count(False)
    result = {"correct": failed == 0, "attempted": len(oks), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}
    return result, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["day", "calibrate", "estimators"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import, run the warm-up op, print its setup_s and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_s = import_program()
    from workloads import WORKLOADS

    digests = load_reference()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](workdir)
        if args.setup_probe:
            warmup_s, ok = run_op(workload, CANARY_SEED, digests)
            print(json.dumps({"setup_s": (import_s + warmup_s) * HostSpeed().scale(), "ok": ok}))
            return 0
        stem = f"{args.workload}-s{args.seed}-t{args.trace}"
        result, raw = measure(workload, args.seed, args.seconds, bool(args.trace), import_s, digests,
                              tracer_out=OUT / f"spans-{stem}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {"environment": environment(), "fail_frac": result["failed"] / result["attempted"], "raw": raw}
    (OUT / f"result-{stem}.json").write_text(json.dumps({**info, **result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
