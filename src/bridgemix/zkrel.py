"""The OR-of-two-roots withdrawal relation behind a pluggable proof interface.

A statement is (root_a, root_b, nullifier); a witness is (r, s, path,
tree_selector).  The relation holds when nullifier = H(enc(r)) and the
commitment H(enc(r) || enc(s)) sits under the selected root via the path.

The reference backend is *transparent*: the proof payload serializes the
witness plus a tag binding it to (params, statement), and the verifier checks
the relation directly.  It is complete, sound, statement-bound, and
deterministic — everything the protocol logic relies on — but not hiding.  A
hiding backend is a drop-in replacement behind the same three functions.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .field_hash import (
    DEFAULT_PARAMS,
    ENCODED_SIZE,
    FieldElement,
    HashParams,
    decode_fe,
    encode_fe,
    hash_bytes,
    params_digest,
)
from .merkle import MAX_HEIGHT, MerklePath, mt_verify


class ZkError(Exception):
    pass


class UnknownCircuitError(ZkError):
    pass


class UnsatisfiedWitnessError(ZkError):
    """Raised when the prover is asked to prove a false statement."""


TRANSPARENT_BACKEND_TAG = 1

_CIRCUIT_RE = re.compile(r"^or-membership-h(\d+)$")
_SECURITY_BYTES = 4  # width of the security level in the zk_setup digest blob
MAX_SECURITY = 2 ** (8 * _SECURITY_BYTES) - 1


@dataclass(frozen=True)
class DepositNote:
    r: FieldElement
    s: FieldElement
    commitment: FieldElement
    nullifier: FieldElement


def make_note(r: FieldElement, s: FieldElement, params: HashParams | None = None) -> DepositNote:
    """Derive commitment H(r||s) and nullifier H(r) from the secret pair."""
    commitment = hash_bytes(encode_fe(r) + encode_fe(s), params)
    nullifier = hash_bytes(encode_fe(r), params)
    return DepositNote(r, s, commitment, nullifier)


@dataclass(frozen=True)
class Statement:
    root_a: FieldElement  # a root of the verifying contract's own tree
    root_b: FieldElement  # a relayed root of the other chain's tree
    nullifier: FieldElement


def statement_bytes(stmt: Statement) -> bytes:
    return encode_fe(stmt.root_a) + encode_fe(stmt.root_b) + encode_fe(stmt.nullifier)


@dataclass(frozen=True)
class Witness:
    r: FieldElement
    s: FieldElement
    path: MerklePath
    tree_selector: int  # 0 = path targets root_a, 1 = root_b


@dataclass(frozen=True)
class Proof:
    backend_tag: int
    payload: bytes


@dataclass(frozen=True)
class ProofParams:
    circuit_id: str
    height: int
    security: int
    hash_params: HashParams
    digest: FieldElement


def zk_setup(
    security: int, circuit_id: str, hash_params: HashParams | None = None
) -> ProofParams:
    """Shared prover/verifier parameters for one OR-membership circuit."""
    if hash_params is None:
        hash_params = DEFAULT_PARAMS
    match = _CIRCUIT_RE.match(circuit_id)
    if not match:
        raise UnknownCircuitError(f"unknown circuit: {circuit_id!r}")
    height = int(match.group(1))
    if not 1 <= height <= MAX_HEIGHT:
        raise UnknownCircuitError(f"circuit height out of range: {height}")
    blob = (
        circuit_id.encode()
        + height.to_bytes(4, "little")
        + security.to_bytes(_SECURITY_BYTES, "little")
        + encode_fe(params_digest(hash_params))
    )
    return ProofParams(
        circuit_id=circuit_id,
        height=height,
        security=security,
        hash_params=hash_params,
        digest=hash_bytes(blob, hash_params),
    )


def relation_holds(pp: ProofParams, stmt: Statement, wit: Witness) -> bool:
    """Direct evaluation of the OR-membership relation."""
    if wit.tree_selector not in (0, 1):
        return False
    if len(wit.path.siblings) != pp.height:
        return False
    if stmt.nullifier != hash_bytes(encode_fe(wit.r), pp.hash_params):
        return False
    commitment = hash_bytes(encode_fe(wit.r) + encode_fe(wit.s), pp.hash_params)
    root = stmt.root_b if wit.tree_selector else stmt.root_a
    return mt_verify(commitment, wit.path, root, pp.hash_params)


def _binding_tag(pp: ProofParams, stmt: Statement) -> bytes:
    # Bind the proof to the exact (params, statement) pair; without this the
    # unselected root would be free to vary.
    return encode_fe(hash_bytes(encode_fe(pp.digest) + statement_bytes(stmt), pp.hash_params))


def _pack_witness(wit: Witness, height: int) -> bytes:
    dir_mask = 0
    for i, bit in enumerate(wit.path.directions):
        dir_mask |= bit << i
    return (
        encode_fe(wit.r)
        + encode_fe(wit.s)
        + wit.path.leaf_index.to_bytes(4, "little")
        + bytes([wit.tree_selector])
        + b"".join(encode_fe(sib) for sib in wit.path.siblings)
        + dir_mask.to_bytes((height + 7) // 8, "little")
    )


def _unpack_witness(payload: bytes, height: int) -> Witness:
    off = 0
    r = decode_fe(payload[off : off + ENCODED_SIZE]); off += ENCODED_SIZE
    s = decode_fe(payload[off : off + ENCODED_SIZE]); off += ENCODED_SIZE
    leaf_index = int.from_bytes(payload[off : off + 4], "little"); off += 4
    selector = payload[off]; off += 1
    siblings = []
    for _ in range(height):
        siblings.append(decode_fe(payload[off : off + ENCODED_SIZE]))
        off += ENCODED_SIZE
    mask_len = (height + 7) // 8
    dir_mask = int.from_bytes(payload[off : off + mask_len], "little"); off += mask_len
    if off != len(payload):
        raise ValueError("trailing bytes in witness payload")
    directions = tuple((dir_mask >> i) & 1 for i in range(height))
    return Witness(r, s, MerklePath(leaf_index, tuple(siblings), directions), selector)


def zk_prove(pp: ProofParams, stmt: Statement, wit: Witness) -> Proof:
    """Produce a proof, refusing (distinguishably) on an unsatisfying witness."""
    if not relation_holds(pp, stmt, wit):
        raise UnsatisfiedWitnessError("witness does not satisfy the statement")
    payload = _pack_witness(wit, pp.height) + _binding_tag(pp, stmt)
    return Proof(TRANSPARENT_BACKEND_TAG, payload)


def zk_verify(pp: ProofParams, stmt: Statement, proof: Proof) -> bool:
    """1 iff the proof attests a witness for stmt under pp; never raises."""
    if proof.backend_tag != TRANSPARENT_BACKEND_TAG:
        return False
    tag = _binding_tag(pp, stmt)
    if len(proof.payload) < len(tag) or proof.payload[-len(tag):] != tag:
        return False
    try:
        wit = _unpack_witness(proof.payload[: -len(tag)], pp.height)
    except (ValueError, IndexError):
        return False
    return relation_holds(pp, stmt, wit)
