"""Fixed-height append-only merkle accumulator with root history.

Leaves are field elements; empty slots are zero-padded, so the root of an
empty subtree at level i is the precomputed Z_i (Z_0 = 0, Z_{i+1} =
hash2(Z_i, Z_i)).  The tree keeps each complete node once, stored by the
add that completes it; an add costs exactly h hashes.  A path for any (leaf,
history point) pair reads complete siblings from that store and hashes only
the partial ones, at most one per level.
"""
from __future__ import annotations

import functools
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
    # nodes[level][i]: the node over leaves [i*2^level, (i+1)*2^level), kept
    # once all of them are present; nodes[0] are the leaves
    nodes: list = field(default_factory=list)
    root_history: list = field(default_factory=list)  # entry k: the root after k leaves

    @property
    def leaves(self) -> list:
        return self.nodes[0]

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
    return MerkleTree(
        height=h,
        params=params,
        zero_roots=zeros,
        nodes=[[] for _ in range(h + 1)],
        root_history=[zeros[h]],
    )


def mt_add(tree: MerkleTree, y: FieldElement) -> bool:
    """Append a leaf; returns a success bit (False when the tree is full)."""
    if not 0 <= y < P:
        raise MerkleError(f"leaf out of field range: {y}")
    index = len(tree.leaves)
    if index >= tree.capacity:
        return False
    tree.leaves.append(y)
    node = y
    idx = index
    complete = True  # the path node is full while every step so far was a right child
    for level in range(tree.height):
        if idx % 2 == 0:
            node = hash2(node, tree.zero_roots[level], tree.params)
            complete = False
        else:
            node = hash2(tree.nodes[level][idx - 1], node, tree.params)
        idx //= 2
        if complete:
            tree.nodes[level + 1].append(node)
    tree.root_history.append(node)
    return True


def _node(tree: MerkleTree, level: int, index: int, leaf_count: int) -> FieldElement:
    """Value of the node covering leaves [index*2^level, (index+1)*2^level)
    when only the first leaf_count leaves are present."""
    start = index << level
    if start >= leaf_count:
        return tree.zero_roots[level]
    if start + (1 << level) <= leaf_count:
        return tree.nodes[level][index]
    # the one partial node of this level
    return hash2(
        _node(tree, level - 1, 2 * index, leaf_count),
        _node(tree, level - 1, 2 * index + 1, leaf_count),
        tree.params,
    )


def mt_path(tree: MerkleTree, leaf_index: int, leaf_count: int | None = None) -> MerklePath:
    """Path for a leaf against the root after `leaf_count` adds (default: now)."""
    if leaf_count is None:
        leaf_count = len(tree.leaves)
    if not 0 < leaf_count <= len(tree.leaves):
        raise MerkleError(f"leaf_count out of range: {leaf_count}")
    if not 0 <= leaf_index < leaf_count:
        raise MerkleError(f"leaf index {leaf_index} out of bounds (< {leaf_count})")
    siblings = tuple(
        _node(tree, level, (leaf_index >> level) ^ 1, leaf_count) for level in range(tree.height)
    )
    return MerklePath(leaf_index, siblings)


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
