"""Self-test of the benchmark at tiny size (php n=4, qcp order 5, 2x3 replay states).

    python3 perfbench/selftest.py

Checks, for every workload, that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit and a traced run every per-layer
one; that a planted wrong verdict raises error_frac and the exit code;
and that a directory without the library's sources gives a non-zero exit
and no result.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def bench(*extra, cwd=ROOT, workload="compile-qcp-replay", trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def expect(ok: bool, what: str, proc=None) -> None:
    if not ok:
        print(f"FAIL: {what}")
        if proc is not None:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
        sys.exit(1)
    print(f"ok: {what}")


def error_frac(stdout: str) -> float:
    for line in stdout.splitlines():
        fields = line.split()
        if fields[:1] == ["error_frac"]:
            return float(fields[1])
    raise ValueError("no error_frac line")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(workload=workload, trace=trace)
            expect(proc.returncode == 0, f"{workload} trace={trace} exits 0", proc)
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace} result is correct", proc)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace} prints every {key} metric with its unit",
                   proc)
            table = {line.split()[0] for line in proc.stdout.splitlines()[1:-1] if line.strip()}
            expect(set(want) | {"error_frac"} <= table,
                   f"{workload} trace={trace} lists the metrics by name", proc)

        proc = bench("--plant-wrong", workload=workload)
        result = json.loads(proc.stdout.splitlines()[-1])
        expect(proc.returncode == 1 and not result["correct"] and result["failed"] >= 1
               and error_frac(proc.stdout) > 0,
               f"{workload} planted wrong verdict raises error_frac", proc)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = bench(cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without src/ the benchmark exits non-zero and prints no result", proc)
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
