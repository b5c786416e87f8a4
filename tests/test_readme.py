"""The README's examples hold: every ```python block runs as written, in order,
in one namespace (later blocks use names the earlier ones define), and the
scenario-file block parses through the CLI's reader and names every key a
scenario file can hold.
Every such key is also one that a demo scenario or a benchmark workload sets:
a value that nothing varies is a constant, not a scenario field."""
import dataclasses
import importlib.util
import re
import sys
from pathlib import Path

import yaml

from bridgemix import cli, simnet
from bridgemix.incentives import RewardSpec

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
FILE_CLASSES = (simnet.Scenario, simnet.RelayerSpec, simnet.AdversarySpec, simnet.SimEvent, RewardSpec)
BLOCK_RE = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
YAML_RE = re.compile(r"^## Scenario files\n\n```yaml\n(.*?)^```", re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = BLOCK_RE.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert "ev=withdraw-finalized" in capsys.readouterr().out


def _keys(node):
    if isinstance(node, dict):
        for key, child in node.items():
            yield key
            yield from _keys(child)
    elif isinstance(node, list):
        for child in node:
            yield from _keys(child)


def test_readme_scenario_block_parses_and_names_every_file_key():
    (block,) = YAML_RE.findall(README.read_text(encoding="utf-8"))
    data = cli._read_yaml(block)
    simnet.scenario_from_dict(data)
    documented = set(_keys(data))
    for cls in FILE_CLASSES:
        for f in dataclasses.fields(cls):
            assert f.name in documented, f"{cls.__name__}.{f.name}"


def load_workloads(monkeypatch):
    """perfbench/workloads.py, imported without writing bytecode under perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_file_key_is_set_by_a_demo_or_a_workload(monkeypatch):
    workloads = load_workloads(monkeypatch)
    used = set()
    for path in sorted((ROOT / "demos" / "scenarios").glob("*.yaml")):
        used.update(_keys(yaml.safe_load(path.read_text(encoding="utf-8"))))
    for generate in workloads.GENERATORS.values():
        used.update(_keys(generate(0, 0.05)[0]))
    unused = [f.name for cls in FILE_CLASSES for f in dataclasses.fields(cls) if f.name not in used]
    assert not unused, f"fields that no demo or workload sets: {unused}"
