"""Record the reference output digests that runs compare ops against.

Run from the root of a checkout, on the commit whose outputs are the
reference::

    python3 perfbench/record_reference.py

It runs the warm-up op and the first ops of seeds 0-10 of every workload
(about three minutes on a 2-core host) and rewrites ``reference.json``.
Bit-identical floating-point output is only expected on the same host kind
and library versions, so the file records those too.
"""

import json
import shutil

import run

SEEDS = range(11)


def main() -> None:
    run.import_program()
    from workloads import WORKLOADS

    workdir = run.OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(workdir)
            seeds = [run.CANARY_SEED] + [run.op_seed(s, i) for s in SEEDS for i in range(run.MIN_OPS)]
            digests[name] = {}
            for seed in seeds:
                workload.prepare(seed)
                workload.run()
                digests[name][str(seed)] = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps({"host": run.host_key(), "digests": digests}, indent=1) + "\n")


if __name__ == "__main__":
    main()
