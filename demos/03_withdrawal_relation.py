"""
The OR-of-two-roots withdrawal relation
=======================================

A withdrawal proves: "I know a note whose commitment sits under root_a OR
under root_b, and its nullifier is the stated one" — without revealing which
root, which leaf, or the note secrets.  root_a is a root of the local chain's
tree; root_b is a relayed root of the remote chain's tree.  The same relation
therefore serves same-chain mixing and cross-chain bridging.
"""

import random

from bridgemix.field_hash import P, fe_hex, make_params
from bridgemix.merkle import mt_add, mt_path, mt_setup
from bridgemix.zkrel import (
    Statement,
    UnsatisfiedWitnessError,
    Witness,
    make_note,
    zk_prove,
    zk_setup,
    zk_verify,
)

params = make_params(8)
pp = zk_setup(3, params)
print("circuit:", pp.circuit_id, "| height:", pp.height)

# a note is two secrets; commitment = H(r || s) goes on chain at deposit,
# nullifier = H(r) is revealed only at withdrawal
rng = random.Random(42)
note = make_note(rng.randrange(P), rng.randrange(P), params)
print("commitment:", fe_hex(note.commitment))
print("nullifier: ", fe_hex(note.nullifier))

# two trees stand in for the two chains; the note is deposited on the second
local = mt_setup(3, params)
remote = mt_setup(3, params)
mt_add(local, 111), mt_add(local, 222)     # other people's deposits
mt_add(remote, 333)
mt_add(remote, note.commitment)            # ours, at leaf 1

stmt = Statement(root_a=local.root, root_b=remote.root, nullifier=note.nullifier)
wit = Witness(note.r, note.s, mt_path(remote, 1), tree_selector=1)
proof = zk_prove(pp, stmt, wit)
print("proof payload bytes:", len(proof.payload))
print("verifies:", zk_verify(pp, stmt, proof))

# the proof binds the whole statement: touching any field kills it
for name, changed in [
    ("root_a", Statement(stmt.root_a ^ 1, stmt.root_b, stmt.nullifier)),
    ("root_b", Statement(stmt.root_a, stmt.root_b ^ 1, stmt.nullifier)),
    ("nullifier", Statement(stmt.root_a, stmt.root_b, stmt.nullifier ^ 1)),
]:
    print(f"verify with mutated {name}:", zk_verify(pp, changed, proof))

# note the root_b mutation: the merkle path only touches the selected tree,
# so binding the *unselected* root is the proof layer's job, and it does it

# the prover refuses statements the witness does not satisfy, so an honest
# caller cannot accidentally emit an invalid proof
try:
    zk_prove(pp, Statement(local.root, remote.root, note.nullifier ^ 1), wit)
except UnsatisfiedWitnessError as err:
    print("prover refused:", err)

# this backend is transparent (no hiding): it exists to pin the interface and
# the relation semantics; a real deployment plugs a zkSNARK behind the same
# three functions
