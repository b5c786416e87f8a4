"""The README's examples hold: every ```python block runs as written, in order,
in one namespace (later blocks use names the earlier ones define), and the
scenario-file block parses and names every key a scenario file can hold."""
import dataclasses
import re
from pathlib import Path

import yaml

from bridgemix import simnet
from bridgemix.incentives import RewardSpec

README = Path(__file__).resolve().parent.parent / "README.md"
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
    data = yaml.safe_load(block)
    simnet.scenario_from_dict(data)
    documented = set(_keys(data))
    for cls in (simnet.Scenario, simnet.RelayerSpec, simnet.AdversarySpec, simnet.SimEvent, RewardSpec):
        for f in dataclasses.fields(cls):
            assert f.name in documented, f"{cls.__name__}.{f.name}"
