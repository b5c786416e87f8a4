"""
The append-only merkle accumulator
==================================

Each mixer contract stores deposits as leaves of a fixed-height merkle tree
and remembers every historical root.  Proofs against an old root stay valid
forever, which is what lets a withdrawal reference the root that existed when
its deposit was made.
"""

from bridgemix.field_hash import fe_hex, make_params
from bridgemix.merkle import mt_add, mt_path, mt_setup, mt_verify

params = make_params(8)  # reduced rounds: demo speed only

# a height-3 tree holds 8 leaves; empty slots are implicit zeros
tree = mt_setup(3, params)
print("capacity:", tree.capacity)
print("empty root:", fe_hex(tree.root))

# adding leaves shifts the root; the accumulator keeps the whole history
for leaf in (101, 202, 303):
    mt_add(tree, leaf)
    print(f"after adding {leaf}: root = {fe_hex(tree.root)}")

print("history length (incl. empty):", len(tree.root_history))

# a path is the sibling list from leaf to root
path = mt_path(tree, 1)
print("path for leaf 1: siblings =", [fe_hex(s) for s in path.siblings])
print("verifies against current root:", mt_verify(202, path, tree.root, params))

# the historical root that existed right after leaf 1 was added still works,
# provided the path is computed for that tree snapshot
old_root = tree.root_history[2]  # entry k is the root after k leaves
old_path = mt_path(tree, 1, leaf_count=2)
print("old root (2 leaves):", fe_hex(old_root))
print("old path vs old root:", mt_verify(202, old_path, old_root, params))
print("old path vs new root:", mt_verify(202, old_path, tree.root, params))

# a single flipped direction bit breaks verification
from bridgemix.merkle import MerklePath

flipped = MerklePath(path.leaf_index, path.siblings, (1 - path.directions[0],) + path.directions[1:])
print("tampered path verifies:", mt_verify(202, flipped, tree.root, params))

# the tree refuses leaves beyond capacity but never errors: the add reports it
while mt_add(tree, 999):
    pass
print("leaves at capacity:", len(tree.leaves))
