"""Deterministic two-chain simulator of a trust-less private bridge.

Two proof-of-work chains each run a fixed-denomination mixer contract backed
by an append-only merkle accumulator.  Withdrawals prove membership under
either the local root or a relayed remote root (the OR makes the bridge double
as a free local mixer), reveal a nullifier shared across both chains, and pay
out only after a relay-delay-plus-epsilon wait so a double spend on the other
chain is detected and cancelled first.

Modules:
    field_hash   Goldilocks-field arithmetic and the MiMC-style hash
    merkle       fixed-height append-only accumulator with root history
    zkrel        the OR-of-two-roots withdrawal relation behind a pluggable
                 (setup, prove, verify) interface; transparent reference backend
    lightclient  PoW header chain verification and state attestations
    contract     the per-chain bridge/mixer state machine
    simnet       deterministic tick engine, scenarios, race exploration
    incentives   naive lock-time rewards and liquidity-drain metrics
    metrics      anonymity sets, linkability audit, storage growth
    cli          batch scenario runner (`bridgemix run` / `bridgemix races`)
"""

from .field_hash import (
    P,
    HashParams,
    fe_hex,
    hash2,
    hash_bytes,
    make_params,
)
from .merkle import MerklePath, MerkleTree, mt_add, mt_path, mt_setup, mt_verify
from .simnet import (
    AdversarySpec,
    RelayerSpec,
    Scenario,
    SimEvent,
    Transcript,
    explore_races,
    run,
    scenario_from_dict,
)
from .zkrel import Statement, Witness, make_note, zk_prove, zk_setup, zk_verify

__version__ = "0.1.0"

__all__ = [
    "AdversarySpec",
    "HashParams",
    "MerklePath",
    "MerkleTree",
    "P",
    "RelayerSpec",
    "Scenario",
    "SimEvent",
    "Statement",
    "Transcript",
    "Witness",
    "explore_races",
    "fe_hex",
    "hash2",
    "hash_bytes",
    "make_note",
    "make_params",
    "mt_add",
    "mt_path",
    "mt_setup",
    "mt_verify",
    "run",
    "scenario_from_dict",
    "zk_prove",
    "zk_setup",
    "zk_verify",
    "__version__",
]
