import dataclasses
import random

import pytest

from bridgemix import field_hash
from bridgemix.field_hash import P, encode_fe, fe_hex, hash_bytes, make_params
from bridgemix.merkle import MAX_HEIGHT, MerklePath, mt_add, mt_path, mt_setup
from bridgemix.zkrel import (
    Statement,
    UnknownCircuitError,
    Witness,
    make_note,
    note_hashes,
    relation_holds,
    zk_prove,
    zk_setup,
    zk_verify,
)


def two_trees_with_note(rng, h, params, selector):
    """Note deposited in tree A (selector 0) or tree B (selector 1), plus
    unrelated fill leaves in both trees."""
    tree_a, tree_b = mt_setup(h, params), mt_setup(h, params)
    note = make_note(rng.randrange(P), rng.randrange(P), params)
    home = tree_b if selector else tree_a
    other = tree_a if selector else tree_b
    for _ in range(rng.randrange(0, 3)):
        mt_add(home, rng.randrange(P))
    index = len(home.leaves)
    mt_add(home, note.commitment)
    for _ in range(rng.randrange(0, 2)):
        mt_add(other, rng.randrange(P))
    return tree_a, tree_b, note, index


class TestSetup:
    def test_embeds_height(self, fast_params):
        pp = zk_setup(2, fast_params)
        assert pp.height == 2

    def test_unknown_circuit(self, fast_params):
        for height in (0, MAX_HEIGHT + 1):
            with pytest.raises(UnknownCircuitError, match=f"out of range: {height}"):
                zk_setup(height, fast_params)

    @pytest.mark.parametrize("height,rounds,digest", [(3, 8, "7e918efaa13783db"), (4, 64, "8368ec4568bf351e")])
    def test_setup_digest_is_pinned(self, height, rounds, digest):
        # no transcript shows proof bytes, so pin the digest every proof binds
        pp = zk_setup(height, make_params(rounds))
        assert pp.circuit_id == f"or-membership-h{height}"
        assert fe_hex(pp.digest) == digest

    def test_mismatched_params_fail_verification(self, fast_params):
        pp_prover = zk_setup(2, fast_params)
        pp_verifier = zk_setup(2, make_params(16))
        rng = random.Random(1)
        tree_a, tree_b, note, index = two_trees_with_note(rng, 2, fast_params, 0)
        stmt = Statement(tree_a.root, tree_b.root, note.nullifier)
        wit = Witness(note.r, note.s, mt_path(tree_a, index), 0)
        proof = zk_prove(pp_prover, stmt, wit)
        assert zk_verify(pp_prover, stmt, proof) is True
        assert zk_verify(pp_verifier, stmt, proof) is False


class TestProve:
    def test_honest_proof_verifies_both_selectors(self, fast_params):
        rng = random.Random(2)
        for selector in (0, 1):
            pp = zk_setup(3, fast_params)
            tree_a, tree_b, note, index = two_trees_with_note(rng, 3, fast_params, selector)
            home = tree_b if selector else tree_a
            stmt = Statement(tree_a.root, tree_b.root, note.nullifier)
            wit = Witness(note.r, note.s, mt_path(home, index), selector)
            assert relation_holds(pp, stmt, wit)
            proof = zk_prove(pp, stmt, wit)
            assert zk_verify(pp, stmt, proof) is True

    # the prover does not check the relation; a proof from an unsatisfying
    # witness carries the right digest and statement, and the verifier refuses it
    def test_refuses_wrong_selector(self, fast_params):
        rng = random.Random(3)
        pp = zk_setup(2, fast_params)
        tree_a, tree_b, note, index = two_trees_with_note(rng, 2, fast_params, 0)
        stmt = Statement(tree_a.root, tree_b.root, note.nullifier)
        wit = Witness(note.r, note.s, mt_path(tree_a, index), 1)
        assert not relation_holds(pp, stmt, wit)
        assert zk_verify(pp, stmt, zk_prove(pp, stmt, wit)) is False

    def test_refuses_nullifier_mismatch(self, fast_params):
        rng = random.Random(4)
        pp = zk_setup(2, fast_params)
        tree_a, tree_b, note, index = two_trees_with_note(rng, 2, fast_params, 0)
        stmt = Statement(tree_a.root, tree_b.root, (note.nullifier + 1) % P)
        wit = Witness(note.r, note.s, mt_path(tree_a, index), 0)
        assert not relation_holds(pp, stmt, wit)
        assert zk_verify(pp, stmt, zk_prove(pp, stmt, wit)) is False


class TestVerify:
    def _instance(self, rng, params, h=2):
        pp = zk_setup(h, params)
        tree_a, tree_b, note, index = two_trees_with_note(rng, h, params, 0)
        stmt = Statement(tree_a.root, tree_b.root, note.nullifier)
        wit = Witness(note.r, note.s, mt_path(tree_a, index), 0)
        return pp, tree_a, tree_b, note, stmt, wit

    def test_nullifier_replay_rejected(self, fast_params):
        rng = random.Random(5)
        pp, tree_a, tree_b, note, stmt, wit = self._instance(rng, fast_params)
        proof = zk_prove(pp, stmt, wit)
        other = dataclasses.replace(stmt, nullifier=(stmt.nullifier + 1) % P)
        assert zk_verify(pp, stmt, proof) is True
        assert zk_verify(pp, other, proof) is False

    def test_root_advance_replay_rejected(self, fast_params):
        rng = random.Random(6)
        pp, tree_a, tree_b, note, stmt, wit = self._instance(rng, fast_params)
        proof = zk_prove(pp, stmt, wit)
        mt_add(tree_a, 123)
        advanced = dataclasses.replace(stmt, root_a=tree_a.root)
        assert zk_verify(pp, advanced, proof) is False

    def test_unselected_root_is_still_bound(self, fast_params):
        # The relation ignores root_b for selector 0; the binding must not.
        rng = random.Random(7)
        pp, tree_a, tree_b, note, stmt, wit = self._instance(rng, fast_params)
        proof = zk_prove(pp, stmt, wit)
        mutated = dataclasses.replace(stmt, root_b=(stmt.root_b + 1) % P)
        assert zk_verify(pp, mutated, proof) is False

    def test_malformed_witnesses_return_false(self, fast_params):
        pp, tree_a, tree_b, note, stmt, wit = self._instance(random.Random(8), fast_params)
        proof = zk_prove(pp, stmt, wit)
        path = wit.path
        short = MerklePath(path.leaf_index, path.siblings[:-1])
        # an unreduced sibling hashes like its reduced value, so only the
        # range check tells it apart from the honest path
        unreduced = dataclasses.replace(path, siblings=(path.siblings[0] + P,) + path.siblings[1:])
        *_, other_stmt, _ = self._instance(random.Random(9), fast_params)
        other_circuit = zk_setup(3, fast_params)
        for bad in (
            dataclasses.replace(proof, witness=dataclasses.replace(wit, tree_selector=2)),
            dataclasses.replace(proof, witness=dataclasses.replace(wit, path=short)),
            dataclasses.replace(proof, witness=dataclasses.replace(wit, r=wit.r + P)),
            dataclasses.replace(proof, witness=dataclasses.replace(wit, s=P)),
            dataclasses.replace(proof, witness=dataclasses.replace(wit, path=unreduced)),
            dataclasses.replace(proof, statement=other_stmt),
            dataclasses.replace(proof, params_digest=other_circuit.digest),
        ):
            assert zk_verify(pp, stmt, bad) is False
        assert zk_verify(pp, stmt, proof) is True

    @pytest.mark.parametrize("name", ["root_a", "root_b", "nullifier"])
    def test_unreduced_statement_fields_return_false(self, fast_params, name):
        # each field equals its reduced value mod P; a proof made for the
        # unreduced statement itself must fail too, and for the unselected
        # root_b only the range check stops it, as the relation never reads it
        pp, tree_a, tree_b, note, stmt, wit = self._instance(random.Random(10), fast_params)
        proof = zk_prove(pp, stmt, wit)
        unreduced = dataclasses.replace(stmt, **{name: getattr(stmt, name) + P})
        assert zk_verify(pp, unreduced, proof) is False
        assert zk_verify(pp, unreduced, zk_prove(pp, unreduced, wit)) is False
        assert zk_verify(pp, stmt, proof) is True

    def test_proof_is_deterministic(self, fast_params):
        rng = random.Random(9)
        pp, tree_a, tree_b, note, stmt, wit = self._instance(rng, fast_params)
        assert zk_prove(pp, stmt, wit) == zk_prove(pp, stmt, wit)


class TestProperties:
    def test_completeness_and_binding_randomized(self, fast_params):
        rng = random.Random(0xABCDE)
        for trial in range(60):
            h = rng.choice([2, 3, 4])
            selector = rng.randrange(2)
            pp = zk_setup(h, fast_params)
            tree_a, tree_b, note, index = two_trees_with_note(rng, h, fast_params, selector)
            home = tree_b if selector else tree_a
            stmt = Statement(tree_a.root, tree_b.root, note.nullifier)
            wit = Witness(note.r, note.s, mt_path(home, index), selector)
            proof = zk_prove(pp, stmt, wit)
            assert zk_verify(pp, stmt, proof) is True
            # mutating any single statement field flips verification to 0
            for mutated in (
                dataclasses.replace(stmt, root_a=(stmt.root_a + 1) % P),
                dataclasses.replace(stmt, root_b=(stmt.root_b + 1) % P),
                dataclasses.replace(stmt, nullifier=(stmt.nullifier + 1) % P),
            ):
                assert zk_verify(pp, mutated, proof) is False

    def test_or_soundness_small_sweep(self, tiny_params):
        # Unit-scale version of the exhaustive sweep in the acceptance suite:
        # no witness whose commitment is absent from both trees may verify.
        pp = zk_setup(1, tiny_params)
        leaves_a, leaves_b = (3, 5), (9, 12)
        tree_a, tree_b = mt_setup(1, tiny_params), mt_setup(1, tiny_params)
        for y in leaves_a:
            mt_add(tree_a, y)
        for y in leaves_b:
            mt_add(tree_b, y)
        commitments = {
            hash_bytes(encode_fe(r) + encode_fe(s), tiny_params)
            for r in range(32)
            for s in range(4)
        }
        assert commitments.isdisjoint(set(leaves_a) | set(leaves_b))
        accepts = 0
        for r in range(32):
            sn = hash_bytes(encode_fe(r), tiny_params)
            stmt = Statement(tree_a.root, tree_b.root, sn)
            for s in range(4):
                for selector in (0, 1):
                    for leaf_index in (0, 1):
                        for sibling in range(32):
                            wit = Witness(r, s, MerklePath(leaf_index, (sibling,)), selector)
                            if relation_holds(pp, stmt, wit):
                                accepts += 1
        assert accepts == 0

    def test_statement_and_proof_expose_no_secrets_in_fields(self, fast_params):
        # Interface obligation: the statement the verifier decides on holds
        # only the three public fields.
        assert {f.name for f in dataclasses.fields(Statement)} == {
            "root_a",
            "root_b",
            "nullifier",
        }


class TestNote:
    def test_note_recomputable(self, fast_params):
        note = make_note(5, 6, fast_params)
        assert note.commitment == hash_bytes(encode_fe(5) + encode_fe(6), fast_params)
        assert note.nullifier == hash_bytes(encode_fe(5), fast_params)

    def test_shared_prefixes_hash_like_the_plain_absorber(self, fast_params):
        # note_hashes absorbs the shared first chunk of enc(r) once; the
        # values are the plain ones
        rng = random.Random(16)
        edges = [(0, 0), (P - 1, P - 1), (2**56 - 1, 2**56)]
        for r, s in edges + [(rng.randrange(P), rng.randrange(P)) for _ in range(40)]:
            assert note_hashes(r, s, fast_params) == (
                hash_bytes(encode_fe(r) + encode_fe(s), fast_params),
                hash_bytes(encode_fe(r), fast_params),
            )


@pytest.fixture
def permutes(monkeypatch):
    calls = []
    permute = field_hash.permute
    monkeypatch.setattr(field_hash, "permute", lambda *args: calls.append(1) or permute(*args))
    return calls


class TestHashCosts:
    def test_note_costs_four_permutes(self, fast_params, permutes):
        make_note.cache_clear()  # a cached note would cost no permutes
        make_note(5, 6, fast_params)
        assert len(permutes) == 4

    @pytest.mark.parametrize("height", [1, 3, 8])
    def test_verify_costs_four_plus_height(self, fast_params, height, permutes):
        # note hashes 4, merkle path `height`, in every call; the binding is
        # two equality checks and costs nothing
        pp = zk_setup(height, fast_params)
        tree_a, tree_b, note, index = two_trees_with_note(random.Random(height), height, fast_params, 0)
        stmt = Statement(tree_a.root, tree_b.root, note.nullifier)
        proof = zk_prove(pp, stmt, Witness(note.r, note.s, mt_path(tree_a, index), 0))
        permutes.clear()
        for _ in range(2):
            assert zk_verify(pp, stmt, proof) is True
        assert len(permutes) == 2 * (4 + height)

    def test_prove_costs_no_permutes(self, fast_params, permutes):
        pp = zk_setup(3, fast_params)
        tree_a, tree_b, note, index = two_trees_with_note(random.Random(3), 3, fast_params, 0)
        stmt = Statement(tree_a.root, tree_b.root, note.nullifier)
        wit = Witness(note.r, note.s, mt_path(tree_a, index), 0)
        permutes.clear()
        proof = zk_prove(pp, stmt, wit)
        assert not permutes
        assert (proof.params_digest, proof.statement) == (pp.digest, stmt)
