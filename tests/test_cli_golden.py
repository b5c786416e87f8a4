"""Each CLI command writes exactly its recorded files and exit code.

`bridgemix run` on every demo scenario writes all five reports;
`bridgemix races` on races.yaml is checked at the scenario's own epsilon
(no double payout, exit 0) and at epsilon -1 (double payouts, exit 1).
The same files come out when an opaque proof backend replaces zkrel's.

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
import itertools
import sys
from pathlib import Path

import pytest

from bridgemix import cli, zkrel

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "demos" / "scenarios"
GOLDEN = ROOT / "tests" / "golden" / "cli"
RUN_NAMES = sorted(p.stem for p in SCENARIOS.glob("*.yaml"))
RACE_CASES = [("own", [], cli.EXIT_OK), ("eps-1", ["--epsilon-override", "-1"], cli.EXIT_DOUBLE_PAYOUT)]


def assert_same_files(out: Path, golden: Path):
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(p.name for p in golden.iterdir())
    for name in written:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("name", RUN_NAMES)
def test_run_outputs_match_golden(name, tmp_path):
    code = cli.main(["run", "--scenario", str(SCENARIOS / f"{name}.yaml"), "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert_same_files(tmp_path, GOLDEN / "run" / name)


@pytest.mark.parametrize("label, extra, exit_code", RACE_CASES)
def test_races_output_and_exit_code_match_golden(label, extra, exit_code, tmp_path):
    argv = ["races", "--scenario", str(SCENARIOS / "races.yaml"), "--out", str(tmp_path)]
    assert cli.main(argv + extra) == exit_code
    assert_same_files(tmp_path, GOLDEN / "races" / label)


class OpaqueBackend:
    """A proof backend that shows the verifier nothing: a proof is an id, and
    zk_prove registers (params, statement) under it only when the relation
    holds.  The parameters carry the circuit's height and hash parameters,
    which the contracts read, and nothing of the reference circuit."""

    def __init__(self):
        self.ids = itertools.count()
        self.proven = {}
        self.verified = 0

    def setup(self, height, hash_params):
        return zkrel.ProofParams(f"opaque-h{height}", height, hash_params, digest=0, tag_state=0)

    def prove(self, pp, stmt, wit):
        proof = next(self.ids)
        if zkrel.relation_holds(pp, stmt, wit):
            self.proven[proof] = (pp, stmt)
        return proof

    def verify(self, pp, stmt, proof):
        self.verified += 1
        return self.proven.get(proof) == (pp, stmt)


def test_outputs_match_golden_under_an_opaque_proof_backend(tmp_path, monkeypatch):
    # the reference backend is a drop-in placeholder: no output may depend on
    # what its proofs or parameters hold
    backend = OpaqueBackend()
    swaps = {
        id(zkrel.zk_setup): backend.setup,
        id(zkrel.zk_prove): backend.prove,
        id(zkrel.zk_verify): backend.verify,
    }
    rebound = set()
    for module_name, module in list(sys.modules.items()):
        if module_name == "bridgemix" or module_name.startswith("bridgemix."):
            for attr, value in list(vars(module).items()):
                if id(value) in swaps:
                    monkeypatch.setattr(module, attr, swaps[id(value)])
                    rebound.add(f"{module_name}.{attr}")
    assert {
        "bridgemix.simnet.zk_setup", "bridgemix.simnet.zk_prove",
        "bridgemix.incentives.zk_verify", "bridgemix.zkrel.zk_verify",
    } <= rebound
    for name in RUN_NAMES:
        out = tmp_path / "run" / name
        assert cli.main(["run", "--scenario", str(SCENARIOS / f"{name}.yaml"), "--out", str(out)]) == cli.EXIT_OK
        assert_same_files(out, GOLDEN / "run" / name)
    for label, extra, exit_code in RACE_CASES:
        out = tmp_path / "races" / label
        argv = ["races", "--scenario", str(SCENARIOS / "races.yaml"), "--out", str(out)]
        assert cli.main(argv + extra) == exit_code
        assert_same_files(out, GOLDEN / "races" / label)
    assert backend.proven and backend.verified
