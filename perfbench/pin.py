"""Regenerate perfbench/pins.json: per workload and seed, the sha256 of every
file the job writes and the simulated statistics read back from it.

    python3 perfbench/pin.py [--seeds 0-31] [--workloads ladder,races,churn]

Each job must first pass the generator's expected outcomes.  Pins for other
seeds are kept.  Re-pin only for a change that is meant to alter outputs, and
say so in CHANGES.md.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    pins = json.loads(run.PINS.read_text(encoding="utf-8")) if run.PINS.exists() else {}
    work = run.HERE / ".work" / "pin"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in args.workloads.split(","):
            for seed in (v for s in range(lo, hi + 1) for v in run.variant_seeds(workload, s)):
                path, expected = run.prepare(workload, seed, 1.0, work)
                res = run.run_child({"root": str(run.ROOT), "kind": run.kind_of(workload),
                                     "scenario": str(path), "out": str(work / "out"),
                                     "seed": seed, "mode": "job"})
                problems = ["job failed"] if res is None else run.check(workload, res, expected, None)
                if problems:
                    print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                pins.setdefault(workload, {})[str(seed)] = {"digests": res["digests"], "stats": res["stats"]}
                print(f"pinned {workload} seed {seed}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
