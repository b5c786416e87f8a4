import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from bridgemix.field_hash import (
    DEFAULT_PARAMS,
    EXPONENT,
    P,
    HashParams,
    decode_fe,
    encode_fe,
    fe_hex,
    hash2,
    hash_bytes,
    make_params,
    params_digest,
    permute,
    zero_constant_params,
)


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
            for c in DEFAULT_PARAMS.round_constants:
                expect = pow((expect + k + c) % P, 7, P)
            expect = (expect + k) % P
            assert permute(x, k, DEFAULT_PARAMS) == expect

    def test_bijection_on_byte_subdomain(self):
        # No collisions among 2^8 inputs under a fixed key.
        outs = {permute(x, 3, DEFAULT_PARAMS) for x in range(256)}
        assert len(outs) == 256

    def test_exponent_invertible_mod_group_order(self):
        inv = pow(EXPONENT, -1, P - 1)
        assert EXPONENT * inv % (P - 1) == 1


class TestHash2:
    def test_all_zero(self, zero1):
        assert hash2(0, 0, zero1) == 0

    def test_asymmetric(self):
        a = hash2(1, 2, DEFAULT_PARAMS)
        b = hash2(2, 1, DEFAULT_PARAMS)
        assert a != b
        # oracle cross-check of both sides
        assert a == (permute(1, 2, DEFAULT_PARAMS) + 3) % P
        assert b == (permute(2, 1, DEFAULT_PARAMS) + 3) % P

    def test_deterministic(self):
        assert hash2(11, 22, DEFAULT_PARAMS) == hash2(11, 22, DEFAULT_PARAMS)


class TestHashBytes:
    def test_empty_is_zero(self):
        assert hash_bytes(b"", DEFAULT_PARAMS) == 0

    def test_single_encoded_element_matches_oracle(self):
        data = encode_fe(5)
        assert hash_bytes(data, DEFAULT_PARAMS) == absorb_oracle(data, DEFAULT_PARAMS)

    def test_concatenation_differs_from_prefix(self):
        rng = random.Random(99)
        for _ in range(20):
            r, s = rng.randrange(1, P), rng.randrange(1, P)
            joint = hash_bytes(encode_fe(r) + encode_fe(s), DEFAULT_PARAMS)
            assert joint == absorb_oracle(encode_fe(r) + encode_fe(s), DEFAULT_PARAMS)
            assert joint != hash_bytes(encode_fe(r), DEFAULT_PARAMS)

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

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            decode_fe(P.to_bytes(8, "little"))
        with pytest.raises(ValueError):
            decode_fe(b"\x00" * 7)


class TestParams:
    def test_defaults(self):
        assert DEFAULT_PARAMS.rounds == 64
        assert DEFAULT_PARAMS.round_constants[0] == 0
        assert len(set(DEFAULT_PARAMS.round_constants)) == 64

    def test_derivation_is_deterministic(self):
        assert make_params(8) == make_params(8)
        assert make_params(8) != make_params(16)

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
        assert params_digest(DEFAULT_PARAMS) == params_digest(make_params(64))
