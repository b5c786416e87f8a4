"""Fixed-height append-only merkle accumulator with root history.

Leaves are field elements; empty slots are zero-padded, so the root of an
empty subtree at level i is the precomputed Z_i (Z_0 = 0, Z_{i+1} =
hash2(Z_i, Z_i)).  The add of leaf k costs exactly h hashes and keeps the
node it made at each level: the leaf, levels 1..h-1 in one flat store, and
the root as history entry k+1.  The node over any range at any history point
is the one made by the add of its last present leaf, so a path for any
(leaf, history point) pair is one lookup per level and hashes nothing.
"""
from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass, field

from .field_hash import FieldElement, HashParams, P, hash2

MAX_HEIGHT = 32


class MerkleError(ValueError):
    pass


@functools.lru_cache(maxsize=None)
def zero_subtree_roots(height: int, params: HashParams) -> tuple:
    """Z_0..Z_height where Z_0 = 0 and Z_{i+1} = hash2(Z_i, Z_i)."""
    roots = [0]
    for _ in range(height):
        roots.append(hash2(roots[-1], roots[-1], params))
    return tuple(roots)


@dataclass(frozen=True)
class MerklePath:
    """Authentication path: the leaf's index and its sibling per level.  Bit i
    of leaf_index is the side at level i (0 = the current node is a left
    child), so the sides cannot disagree with the leaf they lead from."""

    leaf_index: int
    siblings: tuple


@dataclass
class MerkleTree:
    height: int
    params: HashParams
    zero_roots: tuple = ()
    leaves: list = field(default_factory=list)
    # nodes[k*(h-1) + level-1], level 1..h-1: the node on leaf k's path that its
    # add made, over the present leaves of [j*2^level, (j+1)*2^level), j = k >> level;
    # level 0 is leaves[k] and level h is root_history[k+1]
    nodes: array = field(default_factory=lambda: array("Q"))
    root_history: list = field(default_factory=list)  # entry k: the root after k leaves

    @property
    def capacity(self) -> int:
        return 1 << self.height

    @property
    def root(self) -> FieldElement:
        return self.root_history[-1]


def mt_setup(h: int, params: HashParams) -> MerkleTree:
    """Empty tree of height h; root history starts at Z_h."""
    if not 1 <= h <= MAX_HEIGHT:
        raise MerkleError(f"height must be in [1, {MAX_HEIGHT}], got {h}")
    zeros = zero_subtree_roots(h, params)
    return MerkleTree(height=h, params=params, zero_roots=zeros, root_history=[zeros[h]])


def mt_add(tree: MerkleTree, y: FieldElement) -> bool:
    """Append a leaf; returns a success bit (False when the tree is full)."""
    if not 0 <= y < P:
        raise MerkleError(f"leaf out of field range: {y}")
    index = len(tree.leaves)
    if index >= tree.capacity:
        return False
    h, nodes = tree.height, tree.nodes
    tree.leaves.append(y)
    node = y
    for level in range(h):
        if index >> level & 1:
            # the left sibling is complete; the add of the leaf just before this node made it
            last = (index >> level << level) - 1
            left = tree.leaves[last] if level == 0 else nodes[last * (h - 1) + level - 1]
            node = hash2(left, node, tree.params)
        else:  # the right sibling is empty
            node = hash2(node, tree.zero_roots[level], tree.params)
        if level < h - 1:
            nodes.append(node)
    tree.root_history.append(node)
    return True


def mt_path(tree: MerkleTree, leaf_index: int, leaf_count: int | None = None) -> MerklePath:
    """Path for a leaf against the root after `leaf_count` adds (default: now).
    Each sibling is empty or was made by the add of its last present leaf, so
    a path is one lookup per level and hashes nothing."""
    if leaf_count is None:
        leaf_count = len(tree.leaves)
    if not 0 < leaf_count <= len(tree.leaves):
        raise MerkleError(f"leaf_count out of range: {leaf_count}")
    if not 0 <= leaf_index < leaf_count:
        raise MerkleError(f"leaf index {leaf_index} out of bounds (< {leaf_count})")
    h = tree.height
    siblings = []
    for level in range(h):
        start = ((leaf_index >> level) ^ 1) << level
        if start >= leaf_count:
            siblings.append(tree.zero_roots[level])
        elif level == 0:
            siblings.append(tree.leaves[start])
        else:
            last = min(start + (1 << level), leaf_count) - 1
            siblings.append(tree.nodes[last * (h - 1) + level - 1])
    return MerklePath(leaf_index, tuple(siblings))


def mt_verify(y: FieldElement, path: MerklePath, root: FieldElement, params: HashParams) -> bool:
    """Fold y up through the path; True iff the recomputed root matches."""
    node = y
    idx = path.leaf_index
    for sibling in path.siblings:
        if idx & 1:
            node = hash2(sibling, node, params)
        else:
            node = hash2(node, sibling, params)
        idx >>= 1
    return node == root
