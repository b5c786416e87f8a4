import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from bridgemix.field_hash import (
    ENCODED_SIZE,
    EXPONENT,
    P,
    HashParams,
    encode_fe,
    fe_hex,
    hash2,
    hash_bytes,
    make_params,
    params_digest,
    permute,
    zero_constant_params,
)


def decode_fe(data: bytes) -> int:
    """Round-trip oracle for encode_fe: rejects wrong lengths and
    non-canonical values, so a round trip also shows the encoding canonical."""
    if len(data) != ENCODED_SIZE:
        raise ValueError(f"expected {ENCODED_SIZE} bytes, got {len(data)}")
    x = int.from_bytes(data, "little")
    if x >= P:
        raise ValueError(f"non-canonical encoding: {x} >= p")
    return x


def absorb_oracle(data: bytes, params) -> int:
    # Independent reimplementation of the absorb loop using pow().
    state = 0
    for i in range(0, len(data), 7):
        chunk = int.from_bytes(data[i : i + 7], "little")
        x, k = state, chunk
        for c in params.round_constants:
            x = pow((x + k + c) % P, 7, P)
        state = ((x + k) % P + state + chunk) % P
    return state


def naive_permute(x, k, params):
    # the round as first written: reduce the sum, then each of four products
    x %= P
    k %= P
    for c in params.round_constants:
        t = (x + k + c) % P
        t2 = t * t % P
        t4 = t2 * t2 % P
        x = t4 * t2 % P * t % P
    return (x + k) % P


# every constant after c_0 = 0 at p - 1: with x = k = p - 1 too, each round
# sums to 3p - 3, the largest value permute leaves unreduced
TOP_PARAMS = HashParams(rounds=8, round_constants=(0,) + (P - 1,) * 7)
field = st.integers(0, P - 1)


class TestPermuteKernel:
    @pytest.mark.parametrize("params", [make_params(8), make_params(64), TOP_PARAMS],
                             ids=["rounds8", "rounds64", "top-constants"])
    @seed(7707)
    @settings(max_examples=200, deadline=None, database=None)
    @given(x=field, k=field)
    @example(x=P - 1, k=P - 1)
    @example(x=P - 1, k=0)
    @example(x=0, k=P - 1)
    def test_matches_naive_rounds(self, params, x, k):
        assert permute(x, k, params) == naive_permute(x, k, params)


class TestPermute:
    def test_zero_fixed_point_one_round(self, zero1):
        assert permute(0, 0, zero1) == 0

    def test_one_round_is_seventh_power(self, zero1):
        # oracle: direct big-integer exponentiation, 2^7 mod p
        assert permute(2, 0, zero1) == 128
        assert permute(2, 0, zero1) == pow(2, 7, P)

    def test_two_rounds(self):
        assert permute(2, 0, zero_constant_params(2)) == pow(128, 7, P)
        assert permute(2, 0, zero_constant_params(2)) == 562949953421312

    def test_matches_pow_oracle_random(self):
        rng = random.Random(0xF1E1D)
        for _ in range(25):
            x, k = rng.randrange(P), rng.randrange(P)
            expect = x
            for c in make_params().round_constants:
                expect = pow((expect + k + c) % P, 7, P)
            expect = (expect + k) % P
            assert permute(x, k, make_params()) == expect

    def test_bijection_on_byte_subdomain(self):
        # No collisions among 2^8 inputs under a fixed key.
        outs = {permute(x, 3, make_params()) for x in range(256)}
        assert len(outs) == 256

    def test_exponent_invertible_mod_group_order(self):
        inv = pow(EXPONENT, -1, P - 1)
        assert EXPONENT * inv % (P - 1) == 1


class TestHash2:
    def test_all_zero(self, zero1):
        assert hash2(0, 0, zero1) == 0

    def test_asymmetric(self):
        a = hash2(1, 2, make_params())
        b = hash2(2, 1, make_params())
        assert a != b
        # oracle cross-check of both sides
        assert a == (permute(1, 2, make_params()) + 3) % P
        assert b == (permute(2, 1, make_params()) + 3) % P

    def test_deterministic(self):
        assert hash2(11, 22, make_params()) == hash2(11, 22, make_params())


class TestHashBytes:
    def test_empty_is_zero(self):
        assert hash_bytes(b"", make_params()) == 0

    def test_single_encoded_element_matches_oracle(self):
        data = encode_fe(5)
        assert hash_bytes(data, make_params()) == absorb_oracle(data, make_params())

    def test_concatenation_differs_from_prefix(self):
        rng = random.Random(99)
        for _ in range(20):
            r, s = rng.randrange(1, P), rng.randrange(1, P)
            joint = hash_bytes(encode_fe(r) + encode_fe(s), make_params())
            assert joint == absorb_oracle(encode_fe(r) + encode_fe(s), make_params())
            assert joint != hash_bytes(encode_fe(r), make_params())

    def test_collision_sanity_100k(self, fast_params):
        rng = random.Random(0xC0111)
        seen_inputs = set()
        while len(seen_inputs) < 10**5:
            seen_inputs.add(rng.randbytes(16))
        outs = {hash_bytes(data, fast_params) for data in seen_inputs}
        assert len(outs) == len(seen_inputs)


class TestEncoding:
    def test_round_trip_10k(self):
        rng = random.Random(7)
        for _ in range(10**4):
            x = rng.randrange(P)
            assert decode_fe(encode_fe(x)) == x

    def test_hex_round_trip(self):
        for x in (0, 1, P - 1, 2**32):
            assert decode_fe(bytes.fromhex(fe_hex(x))) == x

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            encode_fe(P)
        with pytest.raises(ValueError):
            encode_fe(-1)


class TestParams:
    def test_defaults(self):
        params = make_params()
        assert params.rounds == 64
        assert params.round_constants[0] == 0
        assert len(set(params.round_constants)) == 64

    def test_derivation_is_deterministic(self):
        assert make_params(8) == make_params(8)
        assert make_params(8) != make_params(16)

    @pytest.mark.parametrize("rounds", [1, 2, 8, 64, 256])
    def test_constants_hash_the_seed_and_index_from_state_zero(self, rounds):
        # make_params absorbs the inputs' shared first chunk once; each
        # constant is still the whole input hashed from state 0
        bootstrap = zero_constant_params(rounds)
        want = [0] + [hash_bytes(b"bridge-mimc" + i.to_bytes(4, "little"), bootstrap) for i in range(1, rounds)]
        assert list(make_params(rounds).round_constants) == want

    def test_equal_params_hash_equal(self):
        # cache lookups keyed by params use the hash computed at construction
        built = make_params(8)
        rebuilt = HashParams(rounds=8, round_constants=tuple(built.round_constants))
        assert rebuilt is not built and rebuilt == built
        assert hash(rebuilt) == hash(built) == hash((built.rounds, built.round_constants))
        assert hash(TOP_PARAMS) == hash((8, TOP_PARAMS.round_constants))
        assert hash(make_params(16)) == hash((16, make_params(16).round_constants))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rounds=0, round_constants=()),
            dict(rounds=2, round_constants=(0,)),
            dict(rounds=2, round_constants=(1, 0)),
            dict(rounds=2, round_constants=(0, P)),
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            HashParams(**kwargs)

    def test_digest_distinguishes_params(self):
        assert params_digest(make_params(8)) != params_digest(make_params(16))
        assert params_digest(make_params()) == params_digest(make_params(64))
