"""Minimal proof-of-work light client and bridge-state attestations.

A header commits to the source contract's public bridge state (its root list
and the list of nullifiers it has exposed) via hash2 of the two running list
digests.  A header's digest is hash2 of its body, hash2(prev_hash,
state_commitment), and one packed word, height * 2**32 + nonce: 2 permutes,
and nothing here is hashed as bytes.  A field outside its range (the nonce
in [0, 2**32), the height in [0, p // 2**32), the two hashes in [0, p)) is
rejected before it is hashed, so the packing stays injective.  Relayed
headers are accepted only if they extend the tracked chain with valid PoW;
relayed state is accepted only if it agrees with the receiver's view and its
new entries, folded onto the view's running list digests, open the referenced
header's commitment; one that brings nothing new is dropped unhashed as
stale.  Forks are rejected outright.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .field_hash import P, FieldElement, HashParams, hash2


NONCE_SPAN = 1 << 32  # a nonce is the low 32 bits of the packed (height, nonce) word
HEIGHT_LIMIT = P // NONCE_SPAN  # heights in [0, HEIGHT_LIMIT) keep the packed word below p
MINING_TRIES = 1 << 20  # at most NONCE_SPAN; far beyond what target p >> 2 needs


class MiningError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class BlockHeader:
    height: int
    prev_hash: FieldElement
    state_commitment: FieldElement
    nonce: int
    work_target: FieldElement


def fields_in_range(header: BlockHeader) -> bool:
    """Whether every hashed field lies in its range: prev_hash and
    state_commitment in [0, p), height in [0, HEIGHT_LIMIT), nonce in
    [0, NONCE_SPAN).  hash2 reduces its inputs and the packed word adds
    height and nonce, so outside these ranges a header would hash like
    another one ((h, n + 2**32) like (h + 1, n)): receivers reject it before
    hashing it."""
    return (
        0 <= header.prev_hash < P
        and 0 <= header.state_commitment < P
        and 0 <= header.height < HEIGHT_LIMIT
        and 0 <= header.nonce < NONCE_SPAN
    )


def _body(prev_hash: FieldElement, state_commitment: FieldElement, params: HashParams) -> FieldElement:
    """The part of the digest a nonce search absorbs once: 1 permute."""
    return hash2(prev_hash, state_commitment, params)


@lru_cache(maxsize=None)
def header_digest(header: BlockHeader, params: HashParams) -> FieldElement:
    """hash2(hash2(prev_hash, state_commitment), height * 2**32 + nonce):
    2 permutes.  The packed word is injective on in-range fields (see
    fields_in_range), so every field stays bound.

    BlockHeader is frozen, so results are cached: a receiver hashes each
    distinct header once per process, and a race sweep's interleavings
    share that hash.  In the library only the receiver's checks call it
    (contract_setup and add_header); mine_header computes its digests
    through the shared body and never fills this cache."""
    body = _body(header.prev_hash, header.state_commitment, params)
    return hash2(body, header.height * NONCE_SPAN + header.nonce, params)


@lru_cache(maxsize=None)
def mine_header(
    height: int,
    prev_hash: FieldElement,
    state_commitment: FieldElement,
    work_target: FieldElement,
    params: HashParams,
) -> tuple[BlockHeader, FieldElement]:
    """Deterministic nonce search from 0; returns (header, header_digest(header))
    and raises MiningError if the target is too hard, or ValueError for a
    height outside [0, HEIGHT_LIMIT), before hashing anything: such a header
    would alias another and every receiver would reject it.  The search is a
    pure function of its arguments and BlockHeader is frozen, so results are
    cached: a header that several runs mine (a race sweep's interleavings) is
    searched for once.

    The body is absorbed once, so a search costs 1 + tries permutes: each try
    hashes the body with its packed (height, nonce) word."""
    if not 0 <= height < HEIGHT_LIMIT:
        raise ValueError(f"header height out of range: {height}")
    body = _body(prev_hash, state_commitment, params)
    packed = height * NONCE_SPAN
    for nonce in range(MINING_TRIES):
        digest = hash2(body, packed + nonce, params)
        if digest < work_target:
            return BlockHeader(height, prev_hash, state_commitment, nonce, work_target), digest
    raise MiningError(f"no nonce below target after {MINING_TRIES} tries")


def state_commitment_value(
    roots_digest: FieldElement, nullifiers_digest: FieldElement, params: HashParams
) -> FieldElement:
    return hash2(roots_digest, nullifiers_digest, params)


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
    reason: str  # ok | bad-encoding | duplicate | fork | bad-height | broken-link | bad-target | bad-pow


@dataclass(frozen=True)
class StateResult:
    accepted: bool
    reason: str  # ok | unknown-header | bad-encoding | bad-opening | stale
    installed_roots: tuple = ()
    installed_nullifiers: tuple = ()


def add_header(state, header: BlockHeader) -> HeaderResult:
    """Append a relayed header iff its fields are in range, PoW holds, it
    links, and height increments.

    `state` is a contract state exposing remote_headers (genesis first, from
    set-up) and hash_params.  The tip's digest is read from header_digest's
    cache: the receiver hashed the tip when it accepted it (contract_setup
    for genesis), so the link check costs no hashing and no digest is ever
    taken from a relayer.
    """
    if not fields_in_range(header):
        return HeaderResult(False, "bad-encoding")
    headers = state.remote_headers
    if header.height < len(headers):
        if header == headers[header.height]:
            return HeaderResult(False, "duplicate")
        return HeaderResult(False, "fork")
    if header.height != len(headers):
        return HeaderResult(False, "bad-height")
    if header.prev_hash != header_digest(headers[-1], state.hash_params):
        return HeaderResult(False, "broken-link")
    if header.work_target != headers[0].work_target:
        return HeaderResult(False, "bad-target")
    digest = header_digest(header, state.hash_params)
    if digest >= header.work_target:
        return HeaderResult(False, "bad-pow")
    headers.append(header)
    return HeaderResult(True, "ok")


def _past_view(known: list, start: int, suffix: tuple) -> int | None:
    """How far the claimed list `known[:start] + suffix` runs past `known`
    (negative if it ends inside), or None when `start` leaves a gap or
    `suffix` contradicts `known` where they overlap.  An honest `start` is
    the view's length when the attestation was sent, and a view only grows,
    so no arrival order leaves a gap; a gap is rejected, not repaired."""
    if not 0 <= start <= len(known):
        return None
    end = min(len(known), start + len(suffix))
    if list(suffix[: end - start]) != known[start:end]:
        return None
    return start + len(suffix) - len(known)


def add_bridge_state(state, att: StateAttestation, now: int) -> StateResult:
    """Verify an attestation against the referenced header and install the
    source-list entries the receiver has not seen yet: roots into
    remote_roots, with the tick each became known in remote_root_ticks, and
    nullifiers into the remote_exposed mirror.  Merging the returned
    nullifiers into the receiver's nullifier set (with the duplicate check
    and cancellation) is the contract module's job.

    Each install takes both lists to one header's state, so the view is one
    snapshot of the source and one running digest per list opens it.  An
    attestation with nothing past the view is stale and hashes nothing; one
    that ends a list inside the view and extends the other matches no
    snapshot.  Only the new entries are folded to check the commitment.
    """
    params = state.hash_params
    if not 0 <= att.header_index < len(state.remote_headers):
        return StateResult(False, "unknown-header")
    header = state.remote_headers[att.header_index]
    # the fold reduces entries, so an unreduced one would open the
    # commitment as its residue and be installed as itself
    if not all(0 <= v < P for v in (*att.roots, *att.nullifiers)):
        return StateResult(False, "bad-encoding")
    roots_past = _past_view(state.remote_roots, att.roots_from, att.roots)
    nulls_past = _past_view(state.remote_exposed, att.nullifiers_from, att.nullifiers)
    if roots_past is None or nulls_past is None:
        return StateResult(False, "bad-opening")
    if max(roots_past, nulls_past) <= 0:
        return StateResult(False, "stale")
    if min(roots_past, nulls_past) < 0:
        return StateResult(False, "bad-opening")
    new_roots = tuple(att.roots[len(state.remote_roots) - att.roots_from:])
    new_nulls = tuple(att.nullifiers[len(state.remote_exposed) - att.nullifiers_from:])
    roots_digest, nulls_digest = state.remote_root_digest, state.remote_exposed_digest
    for root in new_roots:
        roots_digest = hash2(roots_digest, root, params)
    for sn in new_nulls:
        nulls_digest = hash2(nulls_digest, sn, params)
    if state_commitment_value(roots_digest, nulls_digest, params) != header.state_commitment:
        return StateResult(False, "bad-opening")
    state.remote_roots.extend(new_roots)
    for root in new_roots:
        state.remote_root_ticks.setdefault(root, now)
    state.remote_exposed.extend(new_nulls)
    state.remote_root_digest, state.remote_exposed_digest = roots_digest, nulls_digest
    return StateResult(True, "ok", new_roots, new_nulls)
