"""Tiny-size smoke run of the benchmark and its output checks.

    python3 perfbench/smoke.py

Runs every workload for one second at the ``tiny`` input size, untraced and
traced, and fails unless each run reports correct outputs, no failed
operation and exactly the metrics BENCHMARK.json lists. It also checks that
the benchmark refuses to run without the program's source. Takes about
half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny"]
            proc = run(args, ROOT)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(out)}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{label}: correct={out['correct']} attempted={out['attempted']} "
                                f"failed={out['failed']}\n{proc.stderr}")
            if set(out["metrics"]) != wanted[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(out['metrics']) ^ wanted[trace])}")
            print(f"{label}: ok, {out['attempted']} operations", flush=True)

    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", "season-build", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without the program's source the benchmark must fail and print nothing")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("smoke run:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
