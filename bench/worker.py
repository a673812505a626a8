"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N --trace 0|1 --spawned-ns T --out DIR

`run.py` starts this once per pass, so module-level state of the library
(the min-max tables, sympy's deferred import) starts cold in every pass.
Set-up ends when the inputs are built; its time counts from T, the
CLOCK_MONOTONIC reading the parent took just before starting this process.
The last stdout line is one JSON object with the pass's records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for scratch files and the span file")
    args = ap.parse_args()

    import treefactorials

    if os.path.dirname(os.path.dirname(os.path.abspath(treefactorials.__file__))) != SRC:
        print(f"treefactorials imported from {treefactorials.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import measure
    import tracing
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix="inputs-", dir=args.out)
    try:
        work = WORKLOADS[args.workload](args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawned_ns) / 1e9

        records = []
        with measure.deadlines():
            for op in work.ops:
                if tracer:
                    op = measure.Op(op.name, tracer.op(op.call, op.name), op.check, op.deadline_s)
                records.append(measure.run_op(op))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "ops": [[r.name, r.latency_ns, r.status, r.detail] for r in records],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stdout": {name: hashlib.sha256(out.encode()).hexdigest() for name, out in work.stdout.items()},
        "stdout_bytes": sum(len(out.encode()) for out in work.stdout.values()),
    }
    if tracer:
        spans_file = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(spans_file)
        result["spans_file"] = spans_file
        result["nesting_error"] = tracing.nesting_error(tracer.spans)
        result["layers"] = tracing.layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
