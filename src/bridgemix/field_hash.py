"""Prime-field arithmetic and a permutation-based hash family.

Everything above this layer — merkle nodes, note commitments, nullifiers,
block headers, state commitments — reduces to `hash2` / `hash_bytes` over a
fixed 64-bit prime field.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

# p = 2^64 - 2^32 + 1.  Fits in a machine word, and p-1 = 2^32 * (2^32 - 1)
# is coprime to 7, so x^7 is a permutation of the field (x^3 is not: 3 | p-1).
P = 2**64 - 2**32 + 1

# Field elements are plain ints reduced into [0, P).
FieldElement = int

ENCODED_SIZE = 8  # canonical encoding: 8-byte little-endian
_CHUNK_SIZE = 7   # any 7-byte chunk is < P, so absorption needs no rejection

EXPONENT = 7  # permute raises to this power; params_digest records it
DEFAULT_ROUNDS = 64
_CONSTANT_SEED = b"bridge-mimc"


def encode_fe(x: FieldElement) -> bytes:
    """Canonical 8-byte little-endian encoding of a reduced field element."""
    if not 0 <= x < P:
        raise ValueError(f"field element out of range: {x}")
    return x.to_bytes(ENCODED_SIZE, "little")


def decode_fe(data: bytes) -> FieldElement:
    """Inverse of encode_fe; rejects wrong lengths and non-canonical values."""
    if len(data) != ENCODED_SIZE:
        raise ValueError(f"expected {ENCODED_SIZE} bytes, got {len(data)}")
    x = int.from_bytes(data, "little")
    if x >= P:
        raise ValueError(f"non-canonical encoding: {x} >= p")
    return x


def fe_hex(x: FieldElement) -> str:
    """Hex form of the canonical encoding, as used in text transcripts."""
    return encode_fe(x).hex()


@dataclass(frozen=True)
class HashParams:
    """Parameters of the round permutation.

    The protocol's correctness is independent of `rounds`; tests that grind
    through millions of hashes use reduced-round instances.
    """

    rounds: int = DEFAULT_ROUNDS
    round_constants: tuple = ()

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if len(self.round_constants) != self.rounds:
            raise ValueError(
                f"need {self.rounds} round constants, got {len(self.round_constants)}"
            )
        if any(not 0 <= c < P for c in self.round_constants):
            raise ValueError("round constant out of field range")
        if self.round_constants[0] != 0:
            raise ValueError("round_constants[0] must be 0")


def zero_constant_params(rounds: int = DEFAULT_ROUNDS) -> HashParams:
    """All-zero round constants; used for bootstrapping and algebraic tests."""
    return HashParams(rounds=rounds, round_constants=(0,) * rounds)


def permute(x: FieldElement, k: FieldElement, params: HashParams) -> FieldElement:
    """`rounds` iterations of x <- (x + k + c_i)^7 mod p, then a final +k.

    A round reduces twice: t^3 mod p, then t^3 * t^3 * t mod p.  The sum
    t = x + k + c_i is left unreduced; x, k and c_i are each below p, so
    t < 3p, and t is congruent to the reduced sum, so every power of it is
    too.  Python ints do not overflow, so the larger t costs only a few
    more digits in the two products it enters."""
    x %= P
    k %= P
    for c in params.round_constants:
        t = x + k + c
        t3 = t * t * t % P
        x = t3 * t3 * t % P
    return (x + k) % P


def hash2(a: FieldElement, b: FieldElement, params: HashParams) -> FieldElement:
    """Two-to-one compression: permute(a, b) + a + b mod p (feed-forward)."""
    return (permute(a, b, params) + a + b) % P


def hash_bytes(data: bytes, params: HashParams) -> FieldElement:
    """Absorb 7-byte little-endian chunks via state <- hash2(state, chunk)."""
    state = 0
    for i in range(0, len(data), _CHUNK_SIZE):
        chunk = int.from_bytes(data[i : i + _CHUNK_SIZE], "little")
        state = hash2(state, chunk, params)
    return state


@functools.lru_cache(maxsize=None)
def make_params(rounds: int = DEFAULT_ROUNDS) -> HashParams:
    """Derive round constants: c_0 = 0, c_i = H("bridge-mimc" || i) computed
    with an all-zero-constant bootstrap instance of the same round count."""
    bootstrap = zero_constant_params(rounds)
    constants = [0]
    for i in range(1, rounds):
        constants.append(hash_bytes(_CONSTANT_SEED + i.to_bytes(4, "little"), bootstrap))
    return HashParams(rounds=rounds, round_constants=tuple(constants))


@functools.lru_cache(maxsize=None)
def params_digest(params: HashParams) -> FieldElement:
    """Field-element fingerprint of a parameter set, used for proof binding."""
    blob = params.rounds.to_bytes(4, "little") + EXPONENT.to_bytes(1, "little")
    blob += b"".join(encode_fe(c) for c in params.round_constants)
    return hash_bytes(blob, params)


DEFAULT_PARAMS = make_params(DEFAULT_ROUNDS)
