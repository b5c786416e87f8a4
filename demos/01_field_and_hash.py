"""
Field arithmetic and the algebraic hash
=======================================

Everything in this package hashes with one primitive: a MiMC-style keyed
permutation over the 64-bit prime field p = 2^64 - 2^32 + 1, folded into a
two-to-one compression and a byte absorber.
"""

from bridgemix.field_hash import (
    DEFAULT_PARAMS,
    P,
    encode_fe,
    fe_hex,
    hash2,
    hash_bytes,
    make_params,
    params_digest,
    permute,
)

# the modulus leaves x^7 a permutation (gcd(7, p-1) = 1), which is what the
# round function exponentiates by
print("p =", P)
print("p bit length:", P.bit_length())

# every hash call names its parameter set; DEFAULT_PARAMS is the 64-round one
# the permutation is keyed: same input, different key, unrelated output
x = 123456789
print("permute(x, k=0) =", fe_hex(permute(x, 0, DEFAULT_PARAMS)))
print("permute(x, k=1) =", fe_hex(permute(x, 1, DEFAULT_PARAMS)))

# hash2 compresses two field elements into one; it backs every merkle node,
# commitment, and nullifier in the system
a, b = 7, 11
print("hash2(7, 11)  =", fe_hex(hash2(a, b, DEFAULT_PARAMS)))
print("hash2(11, 7)  =", fe_hex(hash2(b, a, DEFAULT_PARAMS)), "(order matters)")

# hash_bytes absorbs arbitrary bytes 7 bytes at a time, so every chunk is a
# canonical field element
print("hash_bytes(b'bridge') =", fe_hex(hash_bytes(b"bridge", DEFAULT_PARAMS)))

# encodings are fixed-width little-endian; transcripts show the hex form
y = hash2(a, b, DEFAULT_PARAMS)
print("encoded:", encode_fe(y).hex(), "| hex form:", fe_hex(y))

# round constants are derived from a seed by the hash itself, so a parameter
# set is identified entirely by (rounds, exponent, constants); the digest
# pins that identity
print("default rounds:", DEFAULT_PARAMS.rounds)
print("digest(64 rounds):", fe_hex(params_digest(DEFAULT_PARAMS)))
print("digest(8 rounds): ", fe_hex(params_digest(make_params(8))))

# reduced-round parameters keep demos and stress tests fast; the protocol
# logic never depends on the round count
fast = make_params(8)
print("hash2(7, 11) at 8 rounds =", fe_hex(hash2(a, b, fast)))
