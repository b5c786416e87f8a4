"""Minimal proof-of-work light client and bridge-state attestations.

A header commits to the source contract's public bridge state (its root list
and the list of nullifiers it has exposed) via a flat hash commitment over
the two running list digests.  Relayed headers are accepted only if they
extend the tracked chain with valid PoW; relayed state is accepted only if
its suffixes, folded onto the receiver's digest history, open the referenced
header's commitment and agree with what the receiver already knows.  Forks
are rejected outright.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .field_hash import FieldElement, HashParams, encode_fe, hash2, hash_bytes


MINING_TRIES = 1 << 20
# at target p >> k a try succeeds with probability about 2**-k, so mining fails
# with probability about exp(-MINING_TRIES / 2**k): e**-64 at k = MAX_POW_SHIFT
MAX_POW_SHIFT = MINING_TRIES.bit_length() - 1 - 6


class MiningError(Exception):
    pass


@dataclass(frozen=True)
class BlockHeader:
    height: int
    prev_hash: FieldElement
    state_commitment: FieldElement
    nonce: int
    work_target: FieldElement

    @staticmethod
    def encoded_size() -> int:
        return 5 * 8  # five 8-byte words on the wire


def _header_blob(
    height: int, prev_hash: FieldElement, state_commitment: FieldElement, nonce: int
) -> bytes:
    return (
        height.to_bytes(8, "little")
        + encode_fe(prev_hash)
        + encode_fe(state_commitment)
        + nonce.to_bytes(8, "little")
    )


# the blob's first three 7-byte chunks end before the nonce's first byte
_NONCE_FREE = 21


@lru_cache(maxsize=None)
def header_digest(header: BlockHeader, params: HashParams | None = None) -> FieldElement:
    """hash_bytes over the canonical (height, prev_hash, state_commitment, nonce).

    BlockHeader is frozen, so results are cached: a receiver hashes each
    distinct header once per process, and a race sweep's interleavings
    share that hash.  In the library only the receiver's checks call it
    (contract_setup and add_header); mine_header computes its digests
    through the midstate and never fills this cache."""
    blob = _header_blob(header.height, header.prev_hash, header.state_commitment, header.nonce)
    return hash_bytes(blob, params)


@lru_cache(maxsize=None)
def mine_header(
    height: int,
    prev_hash: FieldElement,
    state_commitment: FieldElement,
    work_target: FieldElement,
    params: HashParams | None = None,
) -> tuple[BlockHeader, FieldElement]:
    """Deterministic nonce search from 0; returns (header, header_digest(header))
    and raises if the target is too hard.  The search is a pure function of
    its arguments and BlockHeader is frozen, so results are cached: a header
    that several runs mine (a race sweep's interleavings) is searched for once.

    The nonce-free chunks are absorbed once, so each try absorbs only the
    last two chunks of the blob: the commitment's last 3 bytes with the
    nonce's low 4, then the nonce's high 4."""
    blob = _header_blob(height, prev_hash, state_commitment, 0)
    midstate = hash_bytes(blob[:_NONCE_FREE], params)
    for nonce in range(MINING_TRIES):
        tail = blob[_NONCE_FREE:-8] + nonce.to_bytes(8, "little")
        state = hash2(midstate, int.from_bytes(tail[:7], "little"), params)
        digest = hash2(state, int.from_bytes(tail[7:], "little"), params)
        if digest < work_target:
            return BlockHeader(height, prev_hash, state_commitment, nonce, work_target), digest
    raise MiningError(f"no nonce below target after {MINING_TRIES} tries")


def state_commitment_value(
    roots_digest: FieldElement, nullifiers_digest: FieldElement, params: HashParams | None = None
) -> FieldElement:
    return hash_bytes(encode_fe(roots_digest) + encode_fe(nullifiers_digest), params)


@dataclass(frozen=True)
class StateAttestation:
    """Claim that, as of the header at `header_index` on the receiver's tracked
    chain, the source contract's root list is the receiver's first
    `roots_from` roots followed by `roots`, and likewise its exposed-nullifier
    list is the first `nullifiers_from` entries followed by `nullifiers`."""

    header_index: int
    roots_from: int
    roots: tuple
    nullifiers_from: int
    nullifiers: tuple


@dataclass(frozen=True)
class HeaderResult:
    accepted: bool
    reason: str  # ok | duplicate | fork | bad-height | broken-link | bad-target | bad-pow


@dataclass(frozen=True)
class StateResult:
    accepted: bool
    reason: str  # ok | unknown-header | bad-opening
    installed_roots: tuple = ()
    installed_nullifiers: tuple = ()


def add_header(state, header: BlockHeader) -> HeaderResult:
    """Append a relayed header iff PoW holds, it links, and height increments.

    `state` is a contract state exposing remote_headers (genesis first, from
    set-up), remote_header_digests (the digest of each, computed here, never
    taken from a relayer) and hash_params.
    """
    headers = state.remote_headers
    if header.height < len(headers):
        if header == headers[header.height]:
            return HeaderResult(False, "duplicate")
        return HeaderResult(False, "fork")
    if header.height != len(headers):
        return HeaderResult(False, "bad-height")
    if header.prev_hash != state.remote_header_digests[-1]:
        return HeaderResult(False, "broken-link")
    if header.work_target != headers[0].work_target:
        return HeaderResult(False, "bad-target")
    digest = header_digest(header, state.hash_params)
    if digest >= header.work_target:
        return HeaderResult(False, "bad-pow")
    headers.append(header)
    state.remote_header_digests.append(digest)
    return HeaderResult(True, "ok")


def _verify_opening(known: list, digests: list, start: int, suffix: tuple, params) -> list | None:
    """Running digests of the claimed list `known[:start] + suffix`: at the end
    of its overlap with `known`, then after each new entry.  None when `start`
    leaves a gap or `suffix` contradicts the overlap.

    Each relayer's attestations arrive in send order and each starts where
    its previous one ended, so an honest `start` never exceeds the receiver's
    view; a gap is rejected, not repaired."""
    if not 0 <= start <= len(known):
        return None
    end = min(len(known), start + len(suffix))
    if list(suffix[: end - start]) != known[start:end]:
        return None
    fresh = [digests[end]]
    for v in suffix[end - start:]:
        fresh.append(hash2(fresh[-1], v, params))
    return fresh


def add_bridge_state(state, att: StateAttestation, now: int) -> StateResult:
    """Verify an attestation against the referenced header and install the
    source-list entries the receiver has not seen yet.

    Installs roots into remote_roots and extends the remote_exposed mirror;
    merging the returned nullifiers into the receiver's nullifier set (with
    the duplicate check and cancellation) is the contract module's job.
    """
    params = state.hash_params
    if not 0 <= att.header_index < len(state.remote_headers):
        return StateResult(False, "unknown-header")
    header = state.remote_headers[att.header_index]

    roots_fresh = _verify_opening(
        state.remote_roots, state.remote_root_digests, att.roots_from, att.roots, params
    )
    nulls_fresh = _verify_opening(
        state.remote_exposed, state.remote_exposed_digests, att.nullifiers_from, att.nullifiers, params
    )
    if roots_fresh is None or nulls_fresh is None:
        return StateResult(False, "bad-opening")
    if state_commitment_value(roots_fresh[-1], nulls_fresh[-1], params) != header.state_commitment:
        return StateResult(False, "bad-opening")

    installed_roots = tuple(att.roots[len(state.remote_roots) - att.roots_from:])
    for root in installed_roots:
        state.remote_roots.append(root)
        state.remote_root_set.add(root)
        state.root_timestamps.setdefault(root, now)
    state.remote_root_digests.extend(roots_fresh[1:])
    installed_nulls = tuple(att.nullifiers[len(state.remote_exposed) - att.nullifiers_from:])
    state.remote_exposed.extend(installed_nulls)
    state.remote_exposed_digests.extend(nulls_fresh[1:])
    return StateResult(True, "ok", installed_roots, installed_nulls)
