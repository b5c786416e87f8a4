"""One benchmark job in a fresh interpreter, so set-up is cold and peak
memory belongs to this job alone.

    python3 perfbench/job.py '<json spec>'

Spec keys: root (checkout holding src/bridgemix), kind ("run" or "races"),
scenario (YAML path), out (scratch directory, removed afterwards), seed (races
only: passed as the CLI's --seed), mode ("setup", "job" or "trace"), spans
(trace mode: where to write the spans).

Set-up is the import, `cli.load_scenario` and `field_hash.make_params`.  The
job is `bridgemix run` with every report (plus the library's linkability
audit, which the CLI does not expose) or `bridgemix races` at eps=1 and at
eps=-1, driven through `bridgemix.cli.main`.  In "job" mode only the engine
and analysis entry points are timed; "trace" mode wraps every layer.  Times
come both as measured ("raw_*") and scaled to nominal machine speed by
SpeedProbe.  Prints one JSON object.
"""
from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import shutil
import signal
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracer import Tracer

_P = 2**64 - 2**32 + 1
PROBE_PERIOD_S = 0.1


class _Record:
    __slots__ = ("tick", "chain", "kind", "fields")

    def __init__(self, i):
        self.tick, self.chain, self.kind = i, "A", "deposit"
        self.fields = (("index", str(i)), ("commitment", f"{i * 7919:016x}"),
                       ("nullifier", f"{i * 104729:016x}"), ("new_root", f"{i * 31:016x}"))


class SpeedProbe:
    """Times two fixed reference snippets (this file's code, never the
    program's) every PROBE_PERIOD_S, on the same CPU and in the same moments
    as the job it interrupts.

    The benchmark host shares its CPUs with other tenants; its speed drifts
    by up to 2x over minutes, far more than a regression bound.  Each snippet
    mimics one kind of work: "engine" does field arithmetic like the hash
    permutation, then reads 2000 records of a 7000-record list in random
    order, like the engine's walks over a growing heap; "analyses" builds a
    dict from every record in order, like the transcript analyses.  Each
    record read builds a dict from the record's fields.
    `scale(intervals, snippet)` is that snippet's nominal time over its mean
    measured time in those intervals; measured seconds, less the probe's own
    time in them (`busy`), times that scale are seconds at nominal machine
    speed.  The probe takes about 6% of a job's host time and its list about
    5 MB of memory.
    """

    NOMINAL_S = {"engine": 3.3e-3, "analyses": 4.3e-3}

    def __init__(self):
        self._records = [_Record(i) for i in range(7000)]
        rng = random.Random(1)
        self._picks = [rng.randrange(len(self._records)) for _ in range(2000)]
        self.samples = []  # (time, engine seconds, analyses seconds)

    def _engine(self):
        x = 12345
        for i in range(100):
            x = (x + i + 7) % _P
            t2 = x * x % _P
            x = t2 * t2 % _P * x % _P
        return sum(1 for i in self._picks if dict(self._records[i].fields).get("nullifier") != x)

    def _analyses(self):
        return sum(1 for r in self._records if dict(r.fields).get("nullifier") != "")

    def _sample(self, signum, frame):
        # with the collector off, the snippets' cost does not depend on how
        # many objects the interrupted job holds; their dicts die by refcount
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = perf_counter()
            self._engine()
            u = perf_counter()
            self._analyses()
            self.samples.append((t, u - t, perf_counter() - u))
        finally:
            if enabled:
                gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _inside(self, intervals) -> list:
        return [s for s in self.samples if any(a <= s[0] <= b for a, b in intervals)]

    def busy(self, intervals) -> float:
        """Seconds the probe itself took inside `intervals`."""
        return sum(e + a for _, e, a in self._inside(intervals))

    def scale(self, intervals, snippet: str) -> float:
        """Nominal over mean measured time of `snippet` in `intervals` (over
        all samples when none fall inside)."""
        if not self.samples:  # a set-up shorter than one period
            self._sample(None, None)
        column = 1 if snippet == "engine" else 2
        inside = [s[column] for s in self._inside(intervals) or self.samples]
        return self.NOMINAL_S[snippet] * len(inside) / sum(inside)


ANALYSES = (
    "simnet.payout_table",
    "metrics.anonymity_report",
    "metrics.linkability_audit",
    "metrics.storage_report",
    "incentives.vampire_metrics",
)


def _relay_entries(args, kwargs, result):
    # every list the attestation carries, whatever its wire format
    att = args[1]
    carried = sum(len(v) for v in vars(att).values() if isinstance(v, (tuple, list)))
    installed = len(getattr(result, "installed_roots", ())) + len(getattr(result, "installed_nullifiers", ()))
    return {"carried": carried, "installed": installed}


def _header_accepted(args, kwargs, result):
    return {"accepted": int(bool(result.accepted))}


def _tick_scan(args, kwargs, result):
    # process_tick walks every withdrawal record the contract holds
    return {"scanned": len(getattr(args[0], "pending_withdrawals", ())), "finalized": len(result)}


def _spanned(keep_transcript):
    def run_observer(args, kwargs, result):
        keep_transcript(result)
        return {"ticks": args[0].horizon}

    coarse = {"simnet.run": run_observer, "simnet.explore_races": None}
    coarse.update({name: None for name in ANALYSES})
    layers = dict(coarse)
    layers.update({
        "cli.load_scenario": None,
        "field_hash.make_params": None,
        "merkle.mt_add": None,
        "merkle.mt_path": None,
        "zkrel.make_note": None,
        "zkrel.zk_prove": None,
        "zkrel.zk_verify": None,
        "lightclient.mine_header": None,
        "lightclient.add_header": _header_accepted,
        "lightclient.add_bridge_state": _relay_entries,
        "contract.deposit": None,
        "contract.submit_withdrawal": None,
        "contract.process_tick": _tick_scan,
        "contract.on_relayed_header": None,
        "contract.on_relayed_state": None,
        "contract.check_contract_invariants": None,
        "contract.conservation_holds": None,
        "incentives.claim_reward": None,
    })
    return coarse, layers


COUNTED = (
    "field_hash.permute",
    "field_hash.hash_bytes",
    "lightclient.header_digest",
    "merkle.mt_verify",
    "metrics.anonymity_set",
    "contract.on_duplicate_nullifier",
)

# engine phase of each span that simnet.run calls directly; the rest of the
# run's time (relay snapshots, scheduling, root scans) is the run's self time
PHASES = {
    "contract.on_relayed_header": "deliver",
    "contract.on_relayed_state": "deliver",
    "contract.deposit": "user",
    "contract.submit_withdrawal": "user",
    "incentives.claim_reward": "user",
    "zkrel.zk_prove": "user",
    "zkrel.make_note": "user",
    "merkle.mt_path": "user",
    "lightclient.mine_header": "mine",
    "contract.process_tick": "finalize",
    "contract.check_contract_invariants": "invariants",
    "contract.conservation_holds": "invariants",
}


def _argvs(spec) -> list:
    out = Path(spec["out"])
    if spec["kind"] == "run":
        return [["run", "--scenario", spec["scenario"], "--out", str(out / "run")]]
    common = ["races", "--scenario", spec["scenario"], "--seed", str(spec["seed"])]
    return [common + ["--out", str(out / "eps1")],
            common + ["--out", str(out / "eps-1"), "--epsilon-override", "-1"]]


def transcript_stats(text: str) -> dict:
    """Simulated statistics read back from a rendered transcript."""
    by_kind = Counter()
    outcomes = Counter()
    latency = Counter()
    submitted = {}
    for line in text.splitlines():
        f = dict(tok.split("=", 1) for tok in line.split(" "))
        kind = f["ev"]
        by_kind[kind] += 1
        if kind == "withdraw-submitted":
            submitted[f["wid"]] = int(f["t"])
            outcomes["submitted"] += 1
        elif kind == "withdraw-finalized":
            outcomes["finalized"] += 1
            latency[str(int(f["t"]) - submitted[f["wid"]])] += 1
        elif kind in ("withdraw-cancelled", "withdraw-rejected"):
            outcomes[f"{kind.split('-')[1]}:{f['reason']}"] += 1
    return {
        "events_by_kind": dict(sorted(by_kind.items())),
        "withdrawals": dict(sorted(outcomes.items())),
        "submit_to_finalize": dict(sorted(latency.items())),
        "duplicates_detected": by_kind["duplicate-detected"],
    }


def _races_stats(out: Path) -> dict:
    stats = {}
    for name in ("eps1", "eps-1"):
        lines = (out / name / "races.txt").read_text(encoding="utf-8").splitlines()
        stats[name] = json.loads(lines[-1])
    return stats


def _digests(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    probe = SpeedProbe()
    t0 = perf_counter()
    probe.start()
    sys.path.insert(0, str(root / "src"))
    import bridgemix
    from bridgemix import cli, field_hash, metrics

    if Path(bridgemix.__file__).resolve().parent != (root / "src" / "bridgemix").resolve():
        raise SystemExit(f"imported bridgemix from {bridgemix.__file__}, not from {root / 'src'}")
    mode = spec["mode"]
    kept = {}  # the last transcript simnet.run returned
    coarse, layers = _spanned(lambda transcript: kept.update(last=transcript))
    tracer = Tracer()
    config = cli.RunConfig(scenario_path=spec["scenario"], out_dir=spec["out"])
    result = {}
    if mode == "trace":
        tracer.install(layers, COUNTED)
        # make the set-up span pay for a cold parameter derivation
        tracer.originals["field_hash.make_params"].cache_clear()
        with tracer.root("setup"):
            scenario = cli.load_scenario(config)
            field_hash.make_params(scenario.hash_rounds)
    else:
        scenario = cli.load_scenario(config)
        field_hash.make_params(scenario.hash_rounds)
        setup = [(t0, perf_counter())]
        result["raw_setup_s"] = setup[0][1] - t0 - probe.busy(setup)
        result["setup_s"] = result["raw_setup_s"] * probe.scale(setup, "engine")
        if mode == "setup":
            probe.stop()
            return result
        tracer.install(coarse)
    out = Path(spec["out"])
    with tracer.root("job") as job:
        codes = [cli.main(argv) for argv in _argvs(spec)]
        if spec["kind"] == "run":
            audit = metrics.linkability_audit(kept["last"])
    probe.stop()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["codes"] = codes
    result["digests"] = _digests(out)
    if spec["kind"] == "run":
        result["stats"] = transcript_stats((out / "run" / "transcript.txt").read_text(encoding="utf-8"))
        result["stats"]["linkability"] = audit.summary()
    else:
        result["stats"] = _races_stats(out)
    shutil.rmtree(out)

    def intervals(*names):
        return [(s.start, s.end) for s in tracer.spans if s.job == "job" and s.name in names]

    # measured seconds without the probe's own samples, then at nominal speed
    whole = [(job.start, job.end)]
    runs = intervals("simnet.run")
    agg = tracer.aggregate()
    run = agg.get("job|simnet.run", {"incl_s": 0.0, "extra": {"ticks": 0}})
    result["ticks"] = run["extra"]["ticks"]
    result["raw_job_s"] = job.duration - probe.busy(whole)
    result["raw_sim_s"] = run["incl_s"] - probe.busy(runs)
    result["sim_s"] = result["raw_sim_s"] * probe.scale(runs, "engine")
    if spec["kind"] == "run":
        analyses = intervals(*ANALYSES)
        result["raw_report_s"] = sum(agg[f"job|{name}"]["incl_s"] for name in ANALYSES) - probe.busy(analyses)
        report_scale = probe.scale(analyses, "analyses")
    else:
        # per-transcript tallies inside the sweep: too short to hold probe
        # samples of their own, so they are scaled by the whole job's
        sweep = agg["job|simnet.explore_races"]["incl_s"] - probe.busy(intervals("simnet.explore_races"))
        result["raw_report_s"] = sweep - result["raw_sim_s"]
        report_scale = probe.scale(whole, "analyses")
    result["report_s"] = result["raw_report_s"] * report_scale
    rest = result["raw_job_s"] - result["raw_sim_s"] - result["raw_report_s"]
    result["job_s"] = result["sim_s"] + result["report_s"] + rest * probe.scale(whole, "engine")
    if mode == "trace":
        result["trace"] = _trace_summary(tracer, agg, scenario)
        result["trace"]["speed_scale"] = probe.scale([(t0, job.end)], "engine")
        tracer.dump(spec["spans"])
    return result


def _trace_summary(tracer, agg, scenario) -> dict:
    # permute is counted, not spanned: its self time is its call count times
    # the per-call cost measured here at the job's round count
    permute = tracer.originals["field_hash.permute"]
    params = tracer.originals["field_hash.make_params"](scenario.hash_rounds)
    n = 2000
    t = perf_counter()
    for i in range(n):
        permute(i, i + 1, params)
    permute_s = (perf_counter() - t) / n
    return {
        "agg": {k: {**v, "counts": dict(v["counts"]), "extra": dict(v["extra"])} for k, v in agg.items()},
        "phases": tracer.phase_seconds("simnet.run", PHASES),
        "permute_call_s": permute_s,
        "totals": dict(tracer.totals),
        "missed_aliases": tracer.missed_aliases(),
        "events": len(scenario.events),
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
