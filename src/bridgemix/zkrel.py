"""The OR-of-two-roots withdrawal relation behind a pluggable proof interface.

A statement is (root_a, root_b, nullifier); a witness is (r, s, path,
tree_selector).  The relation holds when nullifier = H(enc(r)) and the
commitment H(enc(r) || enc(s)) sits under the selected root via the path.
There is one circuit per tree height: zk_setup(height) names it
`or-membership-h<height>` and hashes that name, the height and the hash
parameters into the digest every proof carries.

The reference backend is *transparent*: a proof is the witness itself plus
the circuit digest and the statement it was made for, and the verifier checks
both by equality before it evaluates the relation directly, as a verifier
checks a public input.  The prover does not evaluate the relation: a proof
made from an unsatisfying witness is still a proof, and zk_verify rejects it.
The backend is complete, sound, statement-bound, and deterministic —
everything the protocol logic relies on — but not hiding.  A hiding backend
is a drop-in replacement behind the same three functions.

A note's commitment and nullifier both start with the first 7-byte chunk of
enc(r), so note_hashes absorbs it once: 4 permutes for the pair, not 5, each
value the one the plain byte absorber computes.

make_note and zk_setup are cached: pure functions with frozen results, so a
race sweep derives each note and each circuit once per process.  zk_prove
is not: a proof costs no permutes, so a cache would save nothing.  Nor is
the verifier's side (relation_holds, note_hashes as zk_verify calls it,
zk_verify): a verifier never reads a value that the prover computed.  Every
execution verifies what it meets, at 4 + height permutes per zk_verify; a
race sweep's interleavings share the execution of their common prefix, so
they share its verifications too, and no verifier value is cached.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .field_hash import CHUNK_SIZE, FieldElement, HashParams, P, absorb, encode_fe, hash_bytes, params_digest
from .merkle import MAX_HEIGHT, MerklePath, mt_verify


class ZkError(Exception):
    pass


class UnknownCircuitError(ZkError):
    pass


# a fixed 4-byte level field in the zk_setup digest blob; it keeps each
# circuit's digest at its pinned value
_LEVEL_WORD = (128).to_bytes(4, "little")


@dataclass(frozen=True)
class DepositNote:
    r: FieldElement
    s: FieldElement
    commitment: FieldElement
    nullifier: FieldElement


def note_hashes(r: FieldElement, s: FieldElement, params: HashParams) -> tuple:
    """(commitment H(enc(r) || enc(s)), nullifier H(enc(r))): the first chunk
    of enc(r), which both absorb, is absorbed once, so the pair costs 4
    permutes.  Not cached: relation_holds recomputes both for every proof
    it checks."""
    r_bytes = encode_fe(r)
    head = absorb(0, r_bytes[:CHUNK_SIZE], params)
    rest = r_bytes[CHUNK_SIZE:]
    return absorb(head, rest + encode_fe(s), params), absorb(head, rest, params)


@lru_cache(maxsize=None)
def make_note(r: FieldElement, s: FieldElement, params: HashParams) -> DepositNote:
    """Derive commitment H(r||s) and nullifier H(r) from the secret pair.
    DepositNote is frozen, so results are cached."""
    return DepositNote(r, s, *note_hashes(r, s, params))


@dataclass(frozen=True)
class Statement:
    root_a: FieldElement  # a root of the verifying contract's own tree
    root_b: FieldElement  # a relayed root of the other chain's tree
    nullifier: FieldElement


@dataclass(frozen=True)
class Witness:
    r: FieldElement
    s: FieldElement
    path: MerklePath
    tree_selector: int  # 0 = path targets root_a, 1 = root_b


@dataclass(frozen=True)
class Proof:
    witness: Witness
    params_digest: FieldElement  # ProofParams.digest of the circuit it was made for
    statement: Statement  # the statement it was made for


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
    return ProofParams(circuit_id, height, hash_params, hash_bytes(blob, hash_params))


def relation_holds(pp: ProofParams, stmt: Statement, wit: Witness) -> bool:
    """Direct evaluation of the OR-membership relation."""
    if wit.tree_selector not in (0, 1):
        return False
    if len(wit.path.siblings) != pp.height:
        return False
    commitment, nullifier = note_hashes(wit.r, wit.s, pp.hash_params)
    if stmt.nullifier != nullifier:
        return False
    root = stmt.root_b if wit.tree_selector else stmt.root_a
    return mt_verify(commitment, wit.path, root, pp.hash_params)


def zk_prove(pp: ProofParams, stmt: Statement, wit: Witness) -> Proof:
    """Bind the witness to (pp, stmt) by carrying both; nothing is hashed.
    The relation is not evaluated here: zk_verify evaluates it, so a proof
    from an unsatisfying witness fails there."""
    return Proof(wit, pp.digest, stmt)


def zk_verify(pp: ProofParams, stmt: Statement, proof: Proof) -> bool:
    """1 iff the proof attests a witness for stmt under pp; never raises."""
    wit = proof.witness
    # encode_fe raises on an unreduced secret, the relation never reads the
    # unselected root, and an unreduced sibling would hash like its reduced
    # value, so range-check every field before the binding and the relation
    fields = (stmt.root_a, stmt.root_b, stmt.nullifier, wit.r, wit.s, *wit.path.siblings)
    if not all(0 <= x < P for x in fields):
        return False
    # the relation ignores the unselected root, so the binding must not
    if proof.params_digest != pp.digest or proof.statement != stmt:
        return False
    return relation_holds(pp, stmt, wit)
