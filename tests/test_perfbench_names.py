"""perfbench/job.py instruments bridgemix by name, from outside.  A renamed
function would fail the tracer's install, but a renamed attribute that an
observer reads through a `getattr` default would silently read 0, and a
function the CLI holds other than as a module attribute would never be
traced.  These tests import job.py without running it and check all three,
and check the metric names bench_snapshot.py marks."""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from bridgemix import cli
from bridgemix.lightclient import StateAttestation, StateResult
from bridgemix.simnet import RelayerSpec, Scenario, SimEvent, run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DEMO_SCENARIOS = PERFBENCH.parent / "demos" / "scenarios"


@pytest.fixture(scope="module")
def job():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # job.py imports its sibling tracer.py
        mp.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
        spec = importlib.util.spec_from_file_location("perfbench_job", PERFBENCH / "job.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable(job):
    _, layers = job._spanned(lambda transcript: None)
    names = set(layers) | set(job.COUNTED) | set(job.PHASES)
    assert names
    for name in sorted(names):
        module_name, attr = name.rsplit(".", 1)
        module = importlib.import_module(f"bridgemix.{module_name}")
        assert callable(getattr(module, attr, None)), name


def test_observers_read_live_attributes(job):
    sc = Scenario(
        seed=1, horizon=6, hash_rounds=8, relayers=(RelayerSpec("r0", 2),),
        events=(
            SimEvent(0, "A", "deposit", note="n1"),
            SimEvent(3, "B", "submit_withdrawal", note="n1", recipient="al"),
        ),
    )
    b = run(sc).contracts["B"]
    assert job._tick_scan((b, 5), {}, ["finalized"]) == {"scanned": 1, "finalized": 1}
    att = StateAttestation(1, 1, (7, 8), 0, (9,))
    result = StateResult(True, "ok", (8,), (9,))
    assert job._relay_entries((b, att), {}, result) == {"carried": 3, "installed": 2}


def test_cli_calls_each_coarse_span_through_its_module_attribute(job, tmp_path, monkeypatch):
    # the tracer rebinds module attributes; a function the CLI captured at
    # import time, in a table or a default, would never open its span, and
    # job.py would fail on the missing aggregate
    coarse, _ = job._spanned(lambda transcript: None)
    originals = set()
    for name in coarse:
        module_name, attr = name.rsplit(".", 1)
        originals.add(id(getattr(importlib.import_module(f"bridgemix.{module_name}"), attr)))
    for module_name, module in list(sys.modules.items()):
        if module_name == "bridgemix" or module_name.startswith("bridgemix."):
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    monkeypatch.setattr(module, attr, value)  # undone after the test
    tracer = job.Tracer()
    tracer.install(coarse)
    for command, scenario in (("run", "happy_path"), ("races", "races")):
        argv = [command, "--scenario", str(DEMO_SCENARIOS / f"{scenario}.yaml"), "--out", str(tmp_path / command)]
        assert cli.main(argv) == cli.EXIT_OK
    called = {span.name for span in tracer.spans}
    # job.py calls the linkability audit itself; the CLI has no report for it
    assert set(coarse) - {"metrics.linkability_audit"} <= called


def test_every_metric_the_snapshot_marks_is_a_benchmark_metric():
    root = PERFBENCH.parent
    spec = importlib.util.spec_from_file_location("bench_snapshot", root / "bench_snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(snapshot)
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in (*bench["end_to_end"], *bench["per_layer"])}
    assert snapshot.MISREPORTING and set(snapshot.MISREPORTING) <= names
