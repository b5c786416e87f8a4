"""The OR-of-two-roots withdrawal relation behind a pluggable proof interface.

A statement is (root_a, root_b, nullifier); a witness is (r, s, path,
tree_selector).  The relation holds when nullifier = H(enc(r)) and the
commitment H(enc(r) || enc(s)) sits under the selected root via the path.
There is one circuit per tree height: zk_setup(height) names it
`or-membership-h<height>` and hashes that name, the height and the hash
parameters into the digest every proof is bound to.

The reference backend is *transparent*: a proof is the witness itself plus a
tag binding it to (params, statement), and the verifier checks the relation
directly.  The prover does not evaluate the relation: a proof made from an
unsatisfying witness is still a proof, and zk_verify rejects it.  The backend
is complete, sound, statement-bound, and deterministic — everything the
protocol logic relies on — but not hiding.  A hiding backend is a drop-in
replacement behind the same three functions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .field_hash import FieldElement, HashParams, P, encode_fe, hash_bytes, params_digest
from .merkle import MAX_HEIGHT, MerklePath, mt_verify


class ZkError(Exception):
    pass


class UnknownCircuitError(ZkError):
    pass


# a fixed 4-byte level field in the zk_setup digest blob; it keeps each
# circuit's digest, and so every proof's binding tag, at its pinned value
_LEVEL_WORD = (128).to_bytes(4, "little")


@dataclass(frozen=True)
class DepositNote:
    r: FieldElement
    s: FieldElement
    commitment: FieldElement
    nullifier: FieldElement


def make_note(r: FieldElement, s: FieldElement, params: HashParams) -> DepositNote:
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
    witness: Witness
    tag: FieldElement  # _binding_tag of the (params, statement) pair it was made for


@dataclass(frozen=True)
class ProofParams:
    circuit_id: str
    height: int
    hash_params: HashParams
    digest: FieldElement


@lru_cache(maxsize=None)
def zk_setup(height: int, hash_params: HashParams) -> ProofParams:
    """Shared prover/verifier parameters for the OR-membership circuit over
    trees of `height` levels; both chains' contracts use the same ones.
    ProofParams is frozen and derived from the arguments alone, so results
    are cached: a race sweep's interleavings share one derivation."""
    if not 1 <= height <= MAX_HEIGHT:
        raise UnknownCircuitError(f"circuit height out of range: {height}")
    circuit_id = f"or-membership-h{height}"
    blob = (
        circuit_id.encode()
        + height.to_bytes(4, "little")
        + _LEVEL_WORD
        + encode_fe(params_digest(hash_params))
    )
    return ProofParams(
        circuit_id=circuit_id,
        height=height,
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


def _binding_tag(pp: ProofParams, stmt: Statement) -> FieldElement:
    # Bind the proof to the exact (params, statement) pair; without this the
    # unselected root would be free to vary.
    return hash_bytes(encode_fe(pp.digest) + statement_bytes(stmt), pp.hash_params)


def zk_prove(pp: ProofParams, stmt: Statement, wit: Witness) -> Proof:
    """Bind the witness to (pp, stmt).  The relation is not evaluated here:
    zk_verify evaluates it, so a proof from an unsatisfying witness fails
    there."""
    return Proof(wit, _binding_tag(pp, stmt))


def zk_verify(pp: ProofParams, stmt: Statement, proof: Proof) -> bool:
    """1 iff the proof attests a witness for stmt under pp; never raises."""
    wit = proof.witness
    # encode_fe raises on an unreduced statement field or secret, and an
    # unreduced sibling would hash like its reduced value, so range-check
    # before the binding tag and the relation run
    fields = (stmt.root_a, stmt.root_b, stmt.nullifier, wit.r, wit.s, *wit.path.siblings)
    if not all(0 <= x < P for x in fields):
        return False
    if proof.tag != _binding_tag(pp, stmt):
        return False
    return relation_holds(pp, stmt, wit)
