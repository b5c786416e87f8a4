import dataclasses
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bridgemix import merkle
from bridgemix.field_hash import DEFAULT_PARAMS, P, hash2, make_params, zero_constant_params
from bridgemix.merkle import (
    MerkleError,
    mt_add,
    mt_path,
    mt_setup,
    mt_verify,
    zero_subtree_roots,
)


def naive_root(leaves, height, params):
    # Independent oracle: pad to 2^h with zeros, fold the full array.
    level = list(leaves) + [0] * ((1 << height) - len(leaves))
    for _ in range(height):
        level = [hash2(level[i], level[i + 1], params) for i in range(0, len(level), 2)]
    return level[0]


class TestSetup:
    def test_zero_constants_empty_root_is_zero(self, zero1):
        tree = mt_setup(2, zero1)
        assert tree.root == 0

    def test_h20_capacity(self):
        tree = mt_setup(20, DEFAULT_PARAMS)
        assert tree.capacity == 2**20
        assert tree.leaves == []
        assert tree.root_history == [tree.zero_roots[20]]

    @pytest.mark.parametrize("h", [0, -1, 33])
    def test_height_out_of_range(self, h):
        with pytest.raises(MerkleError):
            mt_setup(h, DEFAULT_PARAMS)

    def test_empty_root_matches_zero_chain(self, fast_params):
        zeros = zero_subtree_roots(3, fast_params)
        assert zeros[0] == 0
        assert zeros[2] == hash2(zeros[1], zeros[1], fast_params)
        assert mt_setup(3, fast_params).root == zeros[3]


class TestAdd:
    def test_first_add_matches_padded_fold(self, fast_params):
        tree = mt_setup(2, fast_params)
        y = 123456789
        assert mt_add(tree, y) is True
        z = tree.zero_roots
        assert tree.root == hash2(hash2(y, z[0], fast_params), z[1], fast_params)
        assert tree.root == naive_root([y], 2, fast_params)

    def test_capacity_failure_bit(self, fast_params):
        tree = mt_setup(2, fast_params)
        for i in range(4):
            assert mt_add(tree, i + 10) is True
        assert mt_add(tree, 99) is False
        assert len(tree.leaves) == 4

    def test_duplicate_leaves_allowed(self, fast_params):
        tree = mt_setup(2, fast_params)
        assert mt_add(tree, 7) is True
        assert mt_add(tree, 7) is True
        assert tree.leaves == [7, 7]

    def test_rejects_unreduced_leaf(self, fast_params):
        tree = mt_setup(2, fast_params)
        with pytest.raises(MerkleError):
            mt_add(tree, P)


class TestPath:
    def test_fresh_tree_single_leaf(self, fast_params):
        tree = mt_setup(2, fast_params)
        mt_add(tree, 42)
        path = mt_path(tree, 0)
        assert path.siblings == (tree.zero_roots[0], tree.zero_roots[1])
        assert path.leaf_index == 0  # both sides left

    def test_three_leaf_index_two(self, fast_params):
        tree = mt_setup(2, fast_params)
        leaves = [5, 6, 7]
        for y in leaves:
            mt_add(tree, y)
        path = mt_path(tree, 2)
        assert path.siblings == (tree.zero_roots[0], hash2(5, 6, fast_params))
        assert path.leaf_index == 2  # bits 0b10: left at level 0, right at level 1
        assert tree.root == naive_root(leaves, 2, fast_params)

    def test_index_at_leaf_count_errors(self, fast_params):
        tree = mt_setup(2, fast_params)
        mt_add(tree, 1)
        with pytest.raises(MerkleError):
            mt_path(tree, 1)
        with pytest.raises(MerkleError):
            mt_path(tree, -1)


class TestVerify:
    def test_round_trip_all_occupied(self, fast_params):
        tree = mt_setup(3, fast_params)
        rng = random.Random(31)
        for _ in range(6):
            mt_add(tree, rng.randrange(P))
        for i in range(6):
            assert mt_verify(tree.leaves[i], mt_path(tree, i), tree.root, fast_params)

    def test_old_path_old_root_vs_new_root(self, fast_params):
        tree = mt_setup(2, fast_params)
        mt_add(tree, 11)
        old_root = tree.root
        old_path = mt_path(tree, 0)
        mt_add(tree, 22)
        assert mt_verify(11, old_path, old_root, fast_params) is True
        assert mt_verify(11, old_path, tree.root, fast_params) is False

    def test_flipped_direction_bit_fails(self, fast_params):
        tree = mt_setup(3, fast_params)
        for y in (3, 4, 5):
            mt_add(tree, y)
        path = mt_path(tree, 1)
        flipped = dataclasses.replace(path, leaf_index=path.leaf_index ^ 1)
        assert mt_verify(4, path, tree.root, fast_params) is True
        assert mt_verify(4, flipped, tree.root, fast_params) is False

    def test_wrong_leaf_fails(self, fast_params):
        tree = mt_setup(2, fast_params)
        mt_add(tree, 8)
        assert mt_verify(9, mt_path(tree, 0), tree.root, fast_params) is False


class TestInvariants:
    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_incremental_equals_naive_rebuild(self, h, fast_params):
        rng = random.Random(1000 + h)
        tree = mt_setup(h, fast_params)
        n = min(64, tree.capacity)
        for k in range(n):
            mt_add(tree, rng.randrange(P))
            assert tree.root == naive_root(tree.leaves, h, fast_params)
        # history: n+1 entries, entry k matches a rebuild of the first k leaves
        assert len(tree.root_history) == n + 1
        for k, root in enumerate(tree.root_history):
            assert root == naive_root(tree.leaves[:k], h, fast_params)

    def test_path_against_history_entry(self, fast_params):
        tree = mt_setup(3, fast_params)
        rng = random.Random(77)
        for _ in range(8):
            mt_add(tree, rng.randrange(P))
        for k in range(8):
            root_k = tree.root_history[k + 1]
            for i in range(8):
                if i <= k:
                    path = mt_path(tree, i, leaf_count=k + 1)
                    assert mt_verify(tree.leaves[i], path, root_k, fast_params)
                else:
                    with pytest.raises(MerkleError):
                        mt_path(tree, i, leaf_count=k + 1)

    def test_current_path_fails_against_older_roots(self, fast_params):
        tree = mt_setup(2, fast_params)
        for y in (1, 2, 3):
            mt_add(tree, y)
        current = mt_path(tree, 0)
        old_root = tree.root_history[1]
        assert mt_verify(1, current, old_root, fast_params) is False

    @seed(6101)
    @settings(max_examples=60, deadline=None, database=None)
    @given(h=st.integers(1, 4), data=st.data())
    def test_stored_nodes_are_folds_of_their_leaves(self, h, data):
        params = make_params(4)
        leaves = data.draw(st.lists(st.integers(0, P - 1), max_size=1 << h))
        tree = mt_setup(h, params)
        for y in leaves:
            mt_add(tree, y)
        assert len(tree.nodes) == h + 1
        for level, stored in enumerate(tree.nodes):
            width = 1 << level
            assert len(stored) == len(leaves) >> level  # every complete node, no other
            for i, node in enumerate(stored):
                assert node == naive_root(leaves[i * width : (i + 1) * width], level, params)

    def test_paths_against_power_of_two_snapshots_hash_nothing(self, fast_params, monkeypatch):
        tree = mt_setup(4, fast_params)
        for y in range(8):
            mt_add(tree, y + 100)
        calls = []

        def counting_hash2(a, b, params=None):
            calls.append((a, b))
            return hash2(a, b, params)

        monkeypatch.setattr(merkle, "hash2", counting_hash2)
        snapshots = [(i, count) for count in (1, 2, 4, 8) for i in range(count)]
        paths = [mt_path(tree, i, leaf_count=count) for i, count in snapshots]
        assert calls == []  # every sibling is complete or empty, so each is a lookup
        mt_path(tree, 0, leaf_count=3)
        assert len(calls) == 1  # the partial node over leaves 2 and 3
        monkeypatch.undo()
        for (i, count), path in zip(snapshots, paths):
            assert mt_verify(tree.leaves[i], path, tree.root_history[count], fast_params)
