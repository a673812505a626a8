"""Benchmark entry point: run one workload for a while and report metrics.

    python3 bench/run.py --workload corpus-oracle|deep-lazy|cli-mix \\
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is imported from its
`src/`, nothing needs installing.  Load model: a closed loop with one client.
Passes run one after another, each in a fresh worker process (bench/worker.py)
that builds the seeded inputs, runs every op once and checks each output
outside the timed region.  A pass starts only if it should end within S
seconds of the start, going by the length of the last one.

With --trace 0 the last stdout line reports the end-to-end metrics, medians
over passes; the line before it gives quartiles, sample counts, the tail
percentile and any failures.  With --trace 1 passes alternate between
untraced and traced, the last line reports per-layer metrics from the traced
passes, and `trace.overhead_s` is the traced minus the untraced median pass
time.  Spans of the last traced pass are written to .bench_out/.

Exits 2 without a result when the checkout has no library to measure, and 1
when a worker dies or overruns the time limit.  BENCHMARK.json lists the
metrics; bench/layers.json maps each per-layer metric to the end-to-end
metric it should move and holds the first measured breakdown.  The
benchmark's own tests: python3 -m pytest bench/tests
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from measure import median_quartiles, tail

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("corpus-oracle", "deep-lazy", "cli-mix")
# Every pass must end by then, so a run exits well inside three minutes.
HARD_LIMIT_S = 160.0


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               # string-keyed tables then lay out the same in every pass
               PYTHONHASHSEED="0")
    spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--spawned-ns", str(spawned), "--out", OUT]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Medians over passes of the end-to-end metrics, and their details."""
    lat = [[op[1] for op in p["ops"]] for p in passes]
    walls = [sum(ls) / 1e9 for ls in lat]
    tails = [tail(ls) for ls in lat]
    ops = sum(len(ls) for ls in lat)
    failed = sum(op[2] != "ok" for p in passes for op in p["ops"])
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "op_p50_ms": (statistics.median(statistics.median(ls) for ls in lat) / 1e6, "ms"),
        "op_tail_ms": (statistics.median(t[0] for t in tails) / 1e6, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "ok_ops_frac": (1 - failed / ops, "ratio"),
    }
    details = {
        "wall_s": median_quartiles(walls),
        "setup_s": median_quartiles(p["setup_s"] for p in passes),
        "ops_per_pass": len(lat[0]),
        "op_tail_percentile": tails[0][1],
        "failed_ops_frac": failed / ops,
    }
    return metrics, details


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    metrics = {}
    for name in traced[0]["layers"]:
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (statistics.median(p["layers"][name] for p in traced), unit)
    metrics["cli.stdout_bytes"] = (statistics.median(p["stdout_bytes"] for p in traced), "bytes")
    wall = [statistics.median(sum(op[1] for op in p["ops"]) / 1e9 for p in ps) for ps in (traced, untraced)]
    metrics["trace.overhead_s"] = (wall[0] - wall[1], "s")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "treefactorials", "__init__.py")):
        print(f"no library to measure: {SRC}/treefactorials is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    start = time.monotonic()
    min_passes = 4 if args.trace else 3
    passes: list[tuple[bool, dict]] = []
    last_pass_s = 0.0
    while True:
        elapsed = time.monotonic() - start
        # A pass starts only if one as long as the last still ends in time.
        if (elapsed + last_pass_s > args.seconds and len(passes) >= min_passes) or elapsed >= HARD_LIMIT_S:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            passes.append((traced, run_pass(args.workload, args.seed, traced, HARD_LIMIT_S - elapsed)))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"pass {len(passes)} of {args.workload} failed: {exc}", file=sys.stderr)
            return 1
        last_pass_s = time.monotonic() - start - elapsed
    untraced = [p for t, p in passes if not t]
    traced = [p for t, p in passes if t]
    if args.trace and not traced:
        print("no traced pass finished in time", file=sys.stderr)
        return 1

    all_passes = untraced + traced
    statuses = [op[2] for p in all_passes for op in p["ops"]]
    failures = [f"{op[0]}: {op[2]} {op[3]}" for p in all_passes for op in p["ops"] if op[2] != "ok"]
    # Same inputs in every pass, so stdout must match byte for byte, traced
    # or not.
    same_stdout = all(p["stdout"] == all_passes[0]["stdout"] for p in all_passes)
    nesting = [p["nesting_error"] for p in traced if p["nesting_error"]]
    correct = not ({"wrong", "raised"} & set(statuses)) and same_stdout and not nesting

    metrics, details = end_to_end(untraced)
    if args.trace:
        metrics = per_layer(traced, untraced)
        details["spans_file"] = os.path.relpath(traced[-1]["spans_file"], ROOT)
    details.update(workload=args.workload, seed=args.seed, passes=len(passes), traced_passes=len(traced),
                   same_stdout=same_stdout, nesting_errors=nesting, failures=failures[:10])
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": len(statuses),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
