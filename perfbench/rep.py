"""One repetition of a benchmark workload, in a fresh interpreter.

Started by run.py; prints one JSON record on its last stdout line.  The
timed region is the stage chain of each job (``run_job``); checks and
size accounting run between jobs, outside it.  Run it directly only to
debug a workload:

    python3 perfbench/rep.py --workload compile-qcp-replay --seed 1 --trace 0 --t0 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import ReplayJob  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--plant-wrong", action="store_true")
    args = ap.parse_args()

    jobs = workloads.make_jobs(args.workload, args.seed, args.size)
    rec = spans.Recorder(bool(args.trace))
    if args.trace:
        spans.trace_nested(rec)
    setup_s = time.monotonic() - args.t0

    errors: list[str] = []
    attempted = decided = failed = replay_states = 0
    compile_s = solve_s = replay_s = 0.0
    sizes: dict[str, int] = {}
    counters = dict.fromkeys(("decisions", "conflicts", "restarts", "learned",
                              "propagations", "time_ms"), 0)
    propagate_conflicts = 0
    for i, job in enumerate(jobs):
        rec.instance = i
        replay = isinstance(job, ReplayJob)
        verdicts = len(job.states) if replay else 1
        attempted += verdicts
        before = dict(rec.totals)
        try:
            out = rec.call("bench.instance", "bench", workloads.run_job, rec, job)
        except Exception:
            errors.append(f"{job.label}: {traceback.format_exc(limit=3)}")
            failed += verdicts
            continue
        # per-job deltas, so that the normalize and complete calls a traced
        # EncodingPropagator makes are not counted twice
        compile_stages, solve_stages = workloads.stages_of(job)
        job_compile = sum(rec.totals[s] - before.get(s, 0.0) for s in compile_stages)
        job_solve = sum(rec.totals[s] - before.get(s, 0.0) for s in solve_stages)
        compile_s += job_compile
        solve_s += job_solve
        if replay:
            replay_states += verdicts
            replay_s += job_compile + job_solve
        if args.plant_wrong and i == 0:
            workloads.plant_wrong_verdict(job, out)
        decided += out.decided
        wrong = rec.call("bench.check", "bench", workloads.check_job, rec, job, out)
        errors += wrong
        failed += len(wrong)
        for key, n in workloads.job_sizes(job, out).items():
            sizes[key] = sizes.get(key, 0) + n
        if out.stats is not None:
            for key in counters:
                counters[key] += getattr(out.stats, key)
        propagate_conflicts += sum(1 for p in out.pruned if p is None)
        # free the finished job's store here, not inside the next timed job
        del out
        gc.collect()

    t = rec.totals
    record = {
        "setup_s": setup_s,
        "wall_s": t["bench.instance"],
        "compile_s": compile_s,
        "solve_s": solve_s,
        "replay_states": replay_states,
        "replay_s": replay_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "decided": decided,
        "failed": failed,
        "errors": errors,
        "sizes": sizes,
        "counters": counters,
        "propagate_conflicts": propagate_conflicts,
        "totals": dict(t),
        "calls": dict(rec.calls),
        "propagate_samples": rec.samples["encoder.propagate"],
        "traced": bool(args.trace),
    }
    if args.trace:
        record["layer_self_s"] = spans.self_times(rec.spans, "bench.instance")
        record["spans"] = rec.spans
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    # skip tearing down the last store's objects; nothing is left to flush
    os._exit(code)
