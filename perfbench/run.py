"""Stage benchmark for the parse -> encode -> normalize -> complete -> search
-> verify -> decode pipeline.

    python3 perfbench/run.py --workload compile-qcp-replay --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Each repetition runs in a fresh interpreter, one at a
time, because the process-global atom pool makes a second pass in one
process much cheaper than anything a command-line user sees.  Repetitions
start until the next one would end past ``--seconds``; every metric is the
median over repetitions.  Each verdict is checked against the instance's
known answer; the last stdout line is a JSON summary and the exit code is
1 when any check failed.

With ``--trace 1`` untraced and traced repetitions alternate: the traced
ones give per-layer metrics and write their spans to
``perfbench/out/spans-<workload>-seed<seed>.json``, and the untraced ones
give the base for ``trace.overhead_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile-qcp-replay", "search-php-ggp")
REP_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "compile_s": "s",
    "solve_s": "s",
    "entities": "count",
    "nogoods": "count",
    "peak_rss_mb": "MB",
    "decided_frac": "frac",
}

# stage totals reported per layer, by stage name in spans.Recorder
STAGE_SECONDS = {
    "csp.parse_s": "csp.parse",
    "csp.oracle_s": "csp.oracle",
    "csp.check_s": "csp.check",
    "encoder.encode_s": "encoder.encode",
    "encoder.decode_s": "encoder.decode",
    "encoder.propagator_init_s": "encoder.propagator_init",
    "encoder.propagate_s": "encoder.propagate",
    "program.emit_s": "program.emit",
    "program.parse_ground_s": "program.parse_ground",
    "program.normalize_s": "program.normalize",
    "program.complete_s": "program.complete",
    "propagation.unit_propagate_s": "propagation.unit_propagate",
    "solver.solve_s": "solver.solve",
    "solver.analyze_s": "solver.analyze",
}
SIZE_COUNTS = (
    "encoder.atoms", "encoder.rules", "encoder.rules_cardinality",
    "program.rules_normal_pre", "program.rules_choice_pre", "program.rules_integrity_pre",
    "program.rules_normal_post", "program.rules_choice_post", "program.rules_integrity_post",
    "program.cnt_atoms",
    "propagation.entities_atom", "propagation.entities_body",
    "propagation.nogoods_unit", "propagation.nogoods_binary", "propagation.nogoods_long",
)
SEARCH_COUNTS = ("decisions", "conflicts", "restarts", "learned", "propagations")

PER_LAYER = {
    **{name: "s" for name in STAGE_SECONDS},
    **{name: "count" for name in SIZE_COUNTS},
    **{f"solver.{name}": "count" for name in SEARCH_COUNTS},
    "solver.search_ms": "ms",
    "solver.outside_clock_s": "s",
    "solver.conflicts_per_s": "1/s",
    "propagation.unit_propagate_calls": "count",
    "encoder.propagate_calls": "count",
    "encoder.propagate_conflicts": "count",
    "states_per_s": "1/s",
    "propagate_ms.p50": "ms",
    "propagate_ms.p99": "ms",
    "propagate_ms.samples": "count",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
}


def run_rep(args, traced: bool, timeout: float) -> dict:
    """One repetition in a fresh interpreter; returns its JSON record."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--size", args.size]
    if args.plant_wrong:
        cmd.append("--plant-wrong")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"repetition exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(rep: dict) -> dict[str, float]:
    return {
        "setup_s": rep["setup_s"],
        "wall_s": rep["wall_s"],
        "compile_s": rep["compile_s"],
        "solve_s": rep["solve_s"],
        "entities": rep["sizes"].get("entities", 0),
        "nogoods": rep["sizes"].get("nogoods", 0),
        "peak_rss_mb": rep["peak_rss_mb"],
        "decided_frac": rep["decided"] / rep["attempted"],
    }


def per_layer(rep: dict) -> dict[str, float]:
    """Layer metrics of one traced repetition (latency ones are added later)."""
    totals, calls, counters = rep["totals"], rep["calls"], rep["counters"]
    out = {name: totals.get(stage, 0.0) for name, stage in STAGE_SECONDS.items()}
    out.update({name: rep["sizes"].get(name, 0) for name in SIZE_COUNTS})
    out.update({f"solver.{name}": counters[name] for name in SEARCH_COUNTS})
    search_s = counters["time_ms"] / 1000
    out["solver.search_ms"] = counters["time_ms"]
    out["solver.outside_clock_s"] = out["solver.solve_s"] - search_s
    out["solver.conflicts_per_s"] = counters["conflicts"] / search_s if search_s else 0.0
    out["propagation.unit_propagate_calls"] = calls.get("propagation.unit_propagate", 0)
    out["encoder.propagate_calls"] = calls.get("encoder.propagate", 0)
    out["encoder.propagate_conflicts"] = rep["propagate_conflicts"]
    out.update({f"layer.{layer}.self_s": rep["layer_self_s"][layer] for layer in LAYERS})
    out["trace.wall_s"] = rep["wall_s"]
    out["trace.spans"] = len(rep["spans"])
    return out


def latency(reps: list[dict]) -> dict[str, float]:
    """EncodingPropagator.propagate throughput and per-call latency."""
    samples = sorted(s * 1000 for rep in reps for s in rep["propagate_samples"])
    if not samples:
        return {"states_per_s": 0.0, "propagate_ms.p50": 0.0, "propagate_ms.p99": 0.0,
                "propagate_ms.samples": 0}
    rates = [rep["replay_states"] / rep["replay_s"] for rep in reps]
    p99 = statistics.quantiles(samples, n=100)[98] if len(samples) > 1 else samples[0]
    return {"states_per_s": statistics.median(rates),
            "propagate_ms.p50": statistics.median(samples),
            "propagate_ms.p99": p99,
            "propagate_ms.samples": len(samples)}


def medians(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def write_spans(args, traced: list[dict]) -> Path:
    out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    fields = ("name", "layer", "start", "end", "parent", "instance")
    doc = [{"rep": i, "spans": [dict(zip(fields, span)) for span in rep["spans"]]}
           for i, rep in enumerate(traced)]
    out.write_text(json.dumps(doc))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the self-test size")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="corrupt one verdict, to test the correctness gate")
    args = ap.parse_args()
    if not (ROOT / "src" / "cspasp" / "__init__.py").is_file():
        print(f"no cspasp sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    reps: list[dict] = []
    longest = 0.0
    min_reps = 2 if args.trace else 1
    while True:
        began = time.monotonic()
        traced = bool(args.trace) and len(reps) % 2 == 1
        timeout = max(10.0, REP_TIMEOUT_S - (began - start))
        try:
            reps.append(run_rep(args, traced, timeout))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{args.workload}: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": max(1, len(reps)),
                              "failed": 1, "metrics": {}}))
            return 1
        longest = max(longest, time.monotonic() - began)
        if len(reps) >= min_reps and time.monotonic() - start + longest > args.seconds:
            break

    plain = [rep for rep in reps if not rep["traced"]]
    traced_reps = [rep for rep in reps if rep["traced"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    for rep in reps:
        for err in rep["errors"][:5]:
            print(f"error: {err}", file=sys.stderr)

    e2e = medians([end_to_end(rep) for rep in plain])
    lat = latency(plain)
    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced and "
          f"{len(traced_reps)} traced repetitions")
    rows = [(name, e2e[name], unit) for name, unit in END_TO_END.items()]
    rows.append(("error_frac", failed / attempted, "frac"))
    if lat["propagate_ms.samples"] and not args.trace:
        rows += [(name, lat[name], PER_LAYER[name]) for name in lat]
    if args.trace:
        layer = medians([per_layer(rep) for rep in traced_reps])
        layer.update(lat)
        layer["trace.overhead_frac"] = layer["trace.wall_s"] / e2e["wall_s"] - 1
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
        rows += [(name, layer[name], unit) for name, unit in PER_LAYER.items()]
        print(f"spans: {write_spans(args, traced_reps).relative_to(ROOT)}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, value, unit in rows:
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
