"""
Proof-of-work light client and state relay
==========================================

Each contract embeds a light client of the other chain: a header chain with
verified proof-of-work, plus state attestations that open a header's state
commitment to the remote root and nullifier lists.  An attestation carries
only the list entries the receiver's view lacks; the receiver folds them onto
the running digest of each list it already verified.  A relayed fact is trusted
because forging it would mean forging work, not because any relayer is.
"""

from bridgemix.field_hash import P, fe_hex, hash2, make_params
from bridgemix.lightclient import (
    StateAttestation,
    header_digest,
    mine_header,
    state_commitment_value,
)
from bridgemix.merkle import zero_subtree_roots

params = make_params(8)
target = P >> 2  # deliberately easy: one in four digests qualifies


def chain_digest(values):
    # a header commits to each list through its running digest: fold hash2 from 0
    digest = 0
    for v in values:
        digest = hash2(digest, v, params)
    return digest


# the remote chain starts from a genesis committing its empty contract state;
# the commitment is hash2 of the two list digests
empty_root = zero_subtree_roots(4, params)[-1]
roots = [empty_root]
nullifiers = []
commitment = state_commitment_value(chain_digest(roots), chain_digest(nullifiers), params)
# a header's digest is hash2 of its body, hash2(prev_hash, commitment), and
# one word packing height * 2**32 + nonce: two permutations per check.  Mining
# absorbs the body once, so each nonce it tries costs one permutation
genesis, genesis_digest = mine_header(0, 0, commitment, target, params)
print("genesis digest:", fe_hex(genesis_digest))
print("pow ok:", header_digest(genesis, params) < target)

# the remote chain advances: a deposit adds a root, a withdrawal a nullifier
headers = [genesis]
roots.append(hash2(empty_root, 12345, params))      # stand-in for a new root
nullifiers.append(67890)
commitment = state_commitment_value(chain_digest(roots), chain_digest(nullifiers), params)
headers.append(mine_header(1, genesis_digest, commitment, target, params)[0])
# the whole chain checks out: every header meets the target and links to its parent
valid = all(header_digest(h, params) < target for h in headers) and all(
    h.height == prev.height + 1 and h.prev_hash == header_digest(prev, params)
    for prev, h in zip(headers, headers[1:])
)
print("chain of", len(headers), "headers valid:", valid)

# a light client embedded in a contract accepts headers one by one; feed it
# through a minimal stand-in for the contract state
class Client:
    def __init__(self):
        self.hash_params = params
        self.remote_headers = []
        self.remote_roots = [empty_root]
        self.remote_root_digest = hash2(0, empty_root, params)
        self.remote_root_ticks = {empty_root: 0}  # each root, with the tick it arrived
        self.remote_exposed = []
        self.remote_exposed_digest = 0

from bridgemix.lightclient import add_bridge_state, add_header

client = Client()
# contract setup installs the trusted genesis; everything after arrives via relay
client.remote_headers.append(genesis)
for h in headers[1:]:
    print(f"add_header(height={h.height}):", add_header(client, h))

# replays and forks are refused, as is a header with a field outside its
# range (a hash outside [0, p), a nonce outside [0, 2**32), a height that
# would carry the packed word past p), which would hash like another header
# (reason bad-encoding)
print("duplicate:", add_header(client, headers[1]).reason)
bogus, _ = mine_header(1, genesis_digest, 999, target, params)
print("fork at height 1:", add_header(client, bogus).reason)

# the attestation opens header 1's commitment: the client already knows the
# empty root, so the relayer sends each list from where the client's view ends;
# the client installs the new entries and remembers when each root arrived
att = StateAttestation(
    header_index=1,
    roots_from=1,
    roots=(roots[1],),
    nullifiers_from=0,
    nullifiers=(67890,),
)
result = add_bridge_state(client, att, now=7)
print("attestation accepted:", result.accepted, "| installed roots:", [fe_hex(r) for r in result.installed_roots])
print("root timestamps:", {fe_hex(k): v for k, v in client.remote_root_ticks.items()})

# an opening that does not match the committed state is rejected outright
lying = StateAttestation(1, 1, (4242,), 0, tuple(nullifiers))
print("forged opening:", add_bridge_state(client, lying, now=8).reason)
