"""bridgemix benchmark: three seeded workloads, host-time metrics, output gate.

    python3 perfbench/run.py --workload ladder|races|churn --seed N \\
        --seconds S --trace 0|1 [--scale F]

Run from anywhere; the package is imported from the `src/` beside this
directory and nowhere else.  Every job runs in a fresh interpreter
(perfbench/job.py).  With --trace 0 the run makes a few set-up-only probes,
then repeats the workload's job until S seconds are used, checks every
repetition against the pinned outputs, and prints the end-to-end metrics as
medians.  With --trace 1 it makes one untimed job and traced jobs (at 1/4,
1/2 and 1x size for ladder and churn) and prints the per-layer metrics.  The
last line of output is one JSON object: correct, attempted, failed, metrics.
--scale shrinks every scenario, for smoke tests only.

See perfbench/NOTES.md for why each workload and metric exists.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import yaml

from workloads import GENERATORS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
SETUP_PROBES = 3
MIN_JOBS = 2
CHILD_TIMEOUT_S = 150
FIT_SCALES = (0.25, 0.5, 1.0)


def kind_of(workload: str) -> str:
    return "races" if workload == "races" else "run"


def prepare(workload: str, seed: int, scale: float, work: Path):
    """Write the generated scenario; returns (path, expected statistics)."""
    scenario, expected = GENERATORS[workload](seed, scale)
    path = work / f"{workload}-x{scale:g}.yaml"
    path.write_text(yaml.safe_dump(scenario, default_flow_style=None, sort_keys=False), encoding="utf-8")
    return path, expected


def run_child(spec: dict):
    """Run one job process to completion; returns its result or None."""
    cmd = [sys.executable, str(HERE / "job.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"job timed out after {CHILD_TIMEOUT_S}s: {spec['mode']}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"job failed ({proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, res: dict, expected: dict, reference: dict | None) -> list:
    """Problems with one job's outputs; empty when the job is correct."""
    stats = res["stats"]
    problems = []
    want_codes = [0] if kind_of(workload) == "run" else [0, 1]
    if res["codes"] != want_codes:
        problems.append(f"exit codes {res['codes']} != {want_codes}")
    if kind_of(workload) == "run":
        for key in ("withdrawals", "submit_to_finalize", "duplicates_detected"):
            if stats[key] != expected[key]:
                problems.append(f"{key}: {stats[key]} != expected {expected[key]}")
        for kind, n in expected["events_by_kind"].items():
            if stats["events_by_kind"].get(kind, 0) != n:
                problems.append(f"{kind} events: {stats['events_by_kind'].get(kind, 0)} != expected {n}")
        if stats["linkability"] != {"clean": True, "findings": 0}:
            problems.append(f"linkability audit: {stats['linkability']}")
    else:
        for name, want in expected.items():
            got = stats[name]
            if got["runs"] != want["runs"]:
                problems.append(f"{name}: {got['runs']} runs != {want['runs']}")
        if stats["eps1"]["double_payouts"] != 0:
            problems.append("eps=1 sweep double-paid")
        if stats["eps-1"]["double_payouts"] <= 0:
            problems.append("eps=-1 negative control did not double-pay")
    if reference is not None:
        if res["digests"] != reference["digests"]:
            changed = sorted(k for k in set(res["digests"]) | set(reference["digests"])
                             if res["digests"].get(k) != reference["digests"].get(k))
            problems.append(f"output digests differ: {changed}")
        if stats != reference["stats"]:
            problems.append("simulated statistics differ from the reference")
    return problems


def variant_seeds(workload: str, seed: int) -> list:
    """Seeds a run's jobs cycle through.  A races sweep re-mines nearly the
    same few dozen headers in every interleaving, so its mining work swings
    by a quarter from one seed to the next; a races run averages four seeds
    derived from --seed, passed as the CLI's --seed."""
    return [seed + 1000 * i for i in range(4)] if workload == "races" else [seed]


class Gate:
    """Counts attempted and failed jobs and checks each job's outputs.  Per
    seed, the reference is the pin, or else the first correct job."""

    def __init__(self, workload: str, expected: dict, pinned: bool):
        self.workload = workload
        self.expected = expected
        self.references = {}
        if pinned and PINS.exists():
            self.references = json.loads(PINS.read_text(encoding="utf-8")).get(workload, {})
        self.attempted = 0
        self.failed = 0

    def admit(self, res, seed=None, expected=None) -> bool:
        """`seed` None: check the expected outcomes only (scaled scenarios)."""
        self.attempted += 1
        if res is None:
            self.failed += 1
            return False
        if "codes" not in res:  # a set-up probe has no outputs to check
            return True
        reference = None if seed is None else self.references.get(str(seed))
        problems = check(self.workload, res, expected or self.expected, reference)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        if problems:
            self.failed += 1
            return False
        if seed is not None and reference is None:
            self.references[str(seed)] = {"digests": res["digests"], "stats": res["stats"]}
        return True


def _describe(name: str, values: list, unit: str) -> str:
    return (f"{name:>18} {statistics.median(values):12.6g} {unit:<6} median of {len(values)}"
            f" (min {min(values):.6g}, max {max(values):.6g})")


def timed_run(args, gate: Gate, spec: dict) -> dict:
    deadline = perf_counter() + args.seconds
    probes, jobs = [], []
    for _ in range(SETUP_PROBES):
        res = run_child({**spec, "mode": "setup"})
        if gate.admit(res):
            probes.append(res)
    # jobs whose outputs fail the gate still report their timings; the
    # result line then says correct: false
    seeds = variant_seeds(args.workload, args.seed)
    while True:
        seed = seeds[len(jobs) % len(seeds)]
        started = perf_counter()
        res = run_child({**spec, "mode": "job", "seed": seed})
        gate.admit(res, seed)
        if res is not None:
            jobs.append(res)
        last = perf_counter() - started
        if gate.attempted - SETUP_PROBES >= MIN_JOBS and perf_counter() + last > deadline:
            break
    if not jobs:
        return {}
    samples = {
        "setup_s": ([r["setup_s"] for r in [*probes, *jobs]], "s"),
        "job_s": ([r["job_s"] for r in jobs], "s"),
        "sim_ticks_per_s": ([r["ticks"] / r["sim_s"] for r in jobs], "1/s"),
        "report_s": ([r["report_s"] for r in jobs], "s"),
        "peak_rss_mb": ([r["rss_mb"] for r in jobs], "MB"),
    }
    for name, (values, unit) in samples.items():
        print(_describe(name, values, unit))
    raw = {
        "raw_setup_s": [r["raw_setup_s"] for r in [*probes, *jobs]],
        "raw_job_s": [r["raw_job_s"] for r in jobs],
        "raw_sim_ticks_per_s": [r["ticks"] / r["raw_sim_s"] for r in jobs],
        "raw_report_s": [r["raw_report_s"] for r in jobs],
    }
    for name, values in raw.items():
        print(_describe(name, values, "") + " (unscaled)")
    return {name: {"value": statistics.median(v), "unit": u} for name, (v, u) in samples.items()}


def _fit_exponent(sizes: list, values: list) -> float:
    """Least-squares slope of log(value) against log(size)."""
    if len(sizes) < 2 or min(values) <= 0:
        return 0.0
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


_EMPTY = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "counts": {}, "extra": {}}


def layer_metrics(traced: dict, untraced_job_s: float, fits: list) -> tuple:
    """Per-layer metrics of the 1x traced job, and whether every permute call
    is accounted for by a layer span or the unattributed bucket."""
    tr = traced["trace"]
    agg = tr["agg"]

    def a(name, job="job"):
        return agg.get(f"{job}|{name}", _EMPTY)

    def job_count(counter):
        return sum(v["counts"].get(counter, 0) for k, v in agg.items() if k.startswith("job|"))

    def per(num, den):
        return num / den if den else 0.0

    permute = "field_hash.permute"
    permutes = job_count(permute)
    unattributed = sum(v["counts"].get(permute, 0) for v in agg.values() if not v["layer"])
    attributed = sum(v["counts"].get(permute, 0) for v in agg.values() if v["layer"])
    total = tr["totals"].get(permute, 0)
    relay = a("lightclient.add_bridge_state")["extra"]
    tick = a("contract.process_tick")
    m = {
        "field_hash.permute.calls": (permutes, "count"),
        "field_hash.permute.self_s": (permutes * tr["permute_call_s"], "s"),
        "field_hash.permute.unattributed_calls": (unattributed, "count"),
        "field_hash.permute.unattributed_share": (per(unattributed, total), "ratio"),
        "field_hash.hash_bytes.calls": (job_count("field_hash.hash_bytes"), "count"),
        "field_hash.make_params.self_s": (a("field_hash.make_params", "setup")["self_s"], "s"),
        "cli.load_scenario.self_s": (a("cli.load_scenario", "setup")["self_s"], "s"),
        "lightclient.mine_header.self_s": (a("lightclient.mine_header")["self_s"], "s"),
        "lightclient.mine_header.tries_per_header": (
            per(a("lightclient.mine_header")["counts"].get("lightclient.header_digest", 0),
                a("lightclient.mine_header")["calls"]), "ratio"),
        "lightclient.header_digest.calls": (job_count("lightclient.header_digest"), "count"),
        "lightclient.add_header.self_s": (a("lightclient.add_header")["self_s"], "s"),
        "lightclient.add_header.accepted_ratio": (
            per(a("lightclient.add_header")["extra"].get("accepted", 0), a("lightclient.add_header")["calls"]), "ratio"),
        "lightclient.add_bridge_state.self_s": (a("lightclient.add_bridge_state")["self_s"], "s"),
        "lightclient.relay.entries_carried": (relay.get("carried", 0), "count"),
        "lightclient.relay.entries_installed": (relay.get("installed", 0), "count"),
        "lightclient.relay.useful_ratio": (per(relay.get("installed", 0), relay.get("carried", 0)), "ratio"),
        "merkle.mt_add.self_s": (a("merkle.mt_add")["self_s"], "s"),
        "merkle.mt_path.self_s": (a("merkle.mt_path")["self_s"], "s"),
        "merkle.mt_path.hash2_per_call": (
            per(a("merkle.mt_path")["counts"].get(permute, 0), a("merkle.mt_path")["calls"]), "ratio"),
        "merkle.mt_verify.calls": (job_count("merkle.mt_verify"), "count"),
        "zkrel.zk_prove.self_s": (a("zkrel.zk_prove")["self_s"], "s"),
        "zkrel.zk_verify.self_s": (a("zkrel.zk_verify")["self_s"], "s"),
        "zkrel.zk_verify.hash2_per_call": (
            per(a("zkrel.zk_verify")["counts"].get(permute, 0), a("zkrel.zk_verify")["calls"]), "ratio"),
        "contract.check_contract_invariants.self_s": (a("contract.check_contract_invariants")["self_s"], "s"),
        "contract.process_tick.self_s": (tick["self_s"], "s"),
        "contract.process_tick.useful_ratio": (
            per(tick["extra"].get("finalized", 0), tick["extra"].get("scanned", 0)), "ratio"),
        "contract.on_relayed_state.self_s": (a("contract.on_relayed_state")["self_s"], "s"),
        "contract.on_duplicate_nullifier.calls": (job_count("contract.on_duplicate_nullifier"), "count"),
        "contract.deposit.self_s": (a("contract.deposit")["self_s"], "s"),
        "contract.submit_withdrawal.self_s": (a("contract.submit_withdrawal")["self_s"], "s"),
        "simnet.run.self_s": (a("simnet.run")["self_s"], "s"),
        "simnet.explore_races.self_s": (a("simnet.explore_races")["self_s"], "s"),
        "simnet.payout_table.self_s": (a("simnet.payout_table")["self_s"], "s"),
        "metrics.anonymity_report.self_s": (a("metrics.anonymity_report")["self_s"], "s"),
        "metrics.anonymity_set.calls": (job_count("metrics.anonymity_set"), "count"),
        "metrics.linkability_audit.self_s": (a("metrics.linkability_audit")["self_s"], "s"),
        "metrics.storage_report.self_s": (a("metrics.storage_report")["self_s"], "s"),
        "incentives.vampire_metrics.self_s": (a("incentives.vampire_metrics")["self_s"], "s"),
        "incentives.claim_reward.self_s": (a("incentives.claim_reward")["self_s"], "s"),
        "trace.overhead_ratio": (per(traced["job_s"], untraced_job_s) - 1.0, "ratio"),
        "trace.missed_aliases": (len(tr["missed_aliases"]), "count"),
    }
    for phase in ("deliver", "user", "mine", "finalize", "invariants"):
        m[f"simnet.run.phase_{phase}_s"] = (tr["phases"].get(phase, 0.0), "s")
    sizes = [f["trace"]["events"] for f in fits]
    fitted = {  # metric: (span, "incl_s" for its scaled time or an observed count)
        "simnet.run.size_exponent": ("simnet.run", "incl_s"),
        "simnet.payout_table.size_exponent": ("simnet.payout_table", "incl_s"),
        "metrics.anonymity_report.size_exponent": ("metrics.anonymity_report", "incl_s"),
        "lightclient.relay.entries_carried.size_exponent": ("lightclient.add_bridge_state", "carried"),
    }
    for name, (span, field) in fitted.items():
        values = []
        for f in fits:
            g = f["trace"]["agg"].get(f"job|{span}", _EMPTY)
            values.append(g["incl_s"] * f["trace"]["speed_scale"] if field == "incl_s"
                          else g["extra"].get(field, 0))
        m[name] = (_fit_exponent(sizes, values), "exponent")
    covered = attributed + unattributed == total and not tr["missed_aliases"]
    if not covered:
        print(f"trace coverage: {attributed} attributed + {unattributed} unattributed permute calls"
              f" != {total} total; missed aliases {tr['missed_aliases']}", file=sys.stderr)
    # host seconds at nominal machine speed, as for the end-to-end metrics
    scale = tr["speed_scale"]
    return {name: {"value": v * scale if u == "s" else v, "unit": u}
            for name, (v, u) in sorted(m.items())}, covered


def traced_run(args, work: Path, gate: Gate, spec: dict):
    untraced = run_child({**spec, "mode": "job"})
    gate.admit(untraced, args.seed)
    if untraced is None:
        return {}, False
    scales = FIT_SCALES if args.workload != "races" else (1.0,)
    fits = []
    for scale in scales:
        path, expected = prepare(args.workload, args.seed, scale * args.scale, work)
        res = run_child({**spec, "mode": "trace", "scenario": str(path),
                         "spans": str(work.parent / f"spans-{args.workload}-x{scale:g}.jsonl")})
        gate.admit(res, args.seed if scale == 1.0 else None, expected)
        if res is None:
            return {}, False
        fits.append(res)
    metrics, covered = layer_metrics(fits[-1], untraced["job_s"], fits if len(fits) > 1 else [])
    for name, m in metrics.items():
        print(f"{name:>48} {m['value']:14.6g} {m['unit']}")
    return metrics, covered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink scenarios (smoke tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bridgemix" / "__init__.py").is_file():
        print(f"error: no bridgemix package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        path, expected = prepare(args.workload, args.seed, args.scale, work)
        gate = Gate(args.workload, expected, pinned=args.scale == 1.0)
        spec = {"root": str(ROOT), "kind": kind_of(args.workload), "scenario": str(path),
                "out": str(work / "out"), "seed": args.seed}
        if args.trace:
            metrics, covered = traced_run(args, work, gate, spec)
        else:
            metrics, covered = timed_run(args, gate, spec), True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{'error_rate':>18} {gate.failed / max(gate.attempted, 1):12.6g} {'':<6}"
          f" {gate.failed} failed of {gate.attempted} attempted")
    if not metrics:
        print("error: no job completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": gate.failed == 0 and covered,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
