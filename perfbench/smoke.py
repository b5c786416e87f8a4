"""Smoke test of the harness at tiny sizes; takes about a minute.

    python3 perfbench/smoke.py

Checks, for every workload and both trace modes, that run.py exits 0, that
the result is correct, and that it reports exactly the metrics BENCHMARK.json
names.  Then checks that run.py fails without printing a result when the
checkout holds only BENCHMARK.json and perfbench/.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                        "--trace", str(trace), "--scale", "0.05")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stderr)
            assert set(result["metrics"]) == names[trace], set(result["metrics"]) ^ names[trace]
            print(f"ok {workload} trace={trace}: {result['attempted']} attempted")
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok bare checkout fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
