"""Each CLI command writes exactly its recorded files and exit code.

`bridgemix run` on every demo scenario writes all five reports;
`bridgemix races` on races.yaml is checked at the scenario's own epsilon
(no double payout, exit 0) and at epsilon -1 (double payouts, exit 1).

To re-record after an intended output change, from the repository root:

    for s in happy_path races storage vampire; do
        rm -rf "tests/golden/cli/run/$s"
        PYTHONPATH=src python3 -m bridgemix.cli run \\
            --scenario "demos/scenarios/$s.yaml" --out "tests/golden/cli/run/$s"
    done
    rm -rf tests/golden/cli/races
    PYTHONPATH=src python3 -m bridgemix.cli races \\
        --scenario demos/scenarios/races.yaml --out tests/golden/cli/races/own
    PYTHONPATH=src python3 -m bridgemix.cli races --epsilon-override -1 \\
        --scenario demos/scenarios/races.yaml --out tests/golden/cli/races/eps-1
"""
from pathlib import Path

import pytest

from bridgemix import cli

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "demos" / "scenarios"
GOLDEN = ROOT / "tests" / "golden" / "cli"


def assert_same_files(out: Path, golden: Path):
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(p.name for p in golden.iterdir())
    for name in written:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.yaml")))
def test_run_outputs_match_golden(name, tmp_path):
    code = cli.main(["run", "--scenario", str(SCENARIOS / f"{name}.yaml"), "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert_same_files(tmp_path, GOLDEN / "run" / name)


@pytest.mark.parametrize(
    "label, extra, exit_code",
    [("own", [], cli.EXIT_OK), ("eps-1", ["--epsilon-override", "-1"], cli.EXIT_DOUBLE_PAYOUT)],
)
def test_races_output_and_exit_code_match_golden(label, extra, exit_code, tmp_path):
    argv = ["races", "--scenario", str(SCENARIOS / "races.yaml"), "--out", str(tmp_path)]
    assert cli.main(argv + extra) == exit_code
    assert_same_files(tmp_path, GOLDEN / "races" / label)
