import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bridgemix import field_hash
from bridgemix.contract import (
    CANCELLED,
    FINALIZED,
    PENDING,
    ContractError,
    PendingWithdrawal,
    check_contract_invariants,
    conservation_holds,
    contract_setup,
    deposit,
    on_duplicate_nullifier,
    on_relayed_header,
    on_relayed_state,
    process_tick,
    submit_withdrawal,
)
from bridgemix.field_hash import P, hash2
from bridgemix.lightclient import (
    StateAttestation,
    header_digest,
    mine_header,
    state_commitment_value,
)
from bridgemix.merkle import mt_path, mt_setup
from bridgemix.zkrel import Statement, Witness, make_note, zk_prove, zk_setup
from invariant_oracle import full_rescan, outcome

EASY_TARGET = P >> 2
DENOM = 10


def make_genesis(h, params):
    empty_root = mt_setup(h, params).root
    commitment = state_commitment_value(hash2(0, empty_root, params), 0, params)
    genesis, _ = mine_header(0, 0, commitment, EASY_TARGET, params)
    return genesis


def setup_one(chain, genesis, params, h=3, epsilon=1, delay=2, native=True):
    return contract_setup(
        chain, genesis, zk_setup(h, params),
        epsilon=epsilon, relay_delay=delay, native=native, events=[],
    )


def make_pair(params, h=3, epsilon=1, delay=2, native_side="A"):
    genesis = make_genesis(h, params)
    a = setup_one("A", genesis, params, h, epsilon=epsilon, delay=delay, native=(native_side == "A"))
    b = setup_one("B", genesis, params, h, epsilon=epsilon, delay=delay, native=(native_side == "B"))
    return a, b


def deliver_header(src, dst, now):
    """Hand-rolled relayer, first half: mine a header committing src's
    current state, deliver it, and return the attestation of src's list
    entries past dst's view."""
    params = src.hash_params
    prev = header_digest(dst.remote_headers[-1], params)
    commitment = state_commitment_value(src.local_root_digest, src.exposed_digest, params)
    header, _ = mine_header(len(dst.remote_headers), prev, commitment, EASY_TARGET, params)
    assert on_relayed_header(dst, header, now).accepted
    roots_from, nulls_from = len(dst.remote_roots), len(dst.remote_exposed)
    return StateAttestation(
        header_index=header.height,
        roots_from=roots_from,
        roots=tuple(src.tree.root_history[roots_from:]),
        nullifiers_from=nulls_from,
        nullifiers=tuple(pw.statement.nullifier for pw in src.pending_withdrawals[nulls_from:]),
    )


def relay_all(src, dst, now):
    """Hand-rolled relayer: deliver a header, then the attestation."""
    return on_relayed_state(dst, deliver_header(src, dst, now), now)


def withdrawal_for(note, index, deposit_contract, submit_contract):
    """Statement and proof for withdrawing `note` on submit_contract."""
    params = submit_contract.hash_params
    if deposit_contract is submit_contract:
        selector = 0
        root_a = submit_contract.tree.root
        root_b = submit_contract.remote_roots[-1]
        path = mt_path(deposit_contract.tree, index)
    else:
        selector = 1
        root_a = submit_contract.tree.root
        root_b = deposit_contract.tree.root
        path = mt_path(deposit_contract.tree, index)
    stmt = Statement(root_a, root_b, note.nullifier)
    proof = zk_prove(submit_contract.params, stmt, Witness(note.r, note.s, path, selector))
    return stmt, proof


class TestSetup:
    def test_fresh_setup(self, fast_params):
        a, b = make_pair(fast_params, h=2)
        assert a.tree.leaves == []
        assert len(a.remote_headers) == 1
        assert a.balance == 0
        assert a.tree.root_history == a.remote_roots == [a.tree.root]
        assert a.local_roots == a.remote_root_ticks == {a.tree.root: 0}

    @pytest.mark.parametrize("epsilon,delay", [(1, 0), (-3, 2)])
    def test_bad_delay_rejected(self, fast_params, epsilon, delay):
        with pytest.raises(ContractError) as err:
            setup_one("A", make_genesis(2, fast_params), fast_params, 2, epsilon=epsilon, delay=delay)
        assert err.value.reason == "bad-delay"

    def test_bad_genesis_rejected(self, fast_params):
        genesis = make_genesis(2, fast_params)
        with pytest.raises(ContractError) as err:
            setup_one("A", dataclasses.replace(genesis, height=1), fast_params, 2)
        assert err.value.reason == "bad-genesis"
        bad_nonce = dataclasses.replace(genesis, nonce=genesis.nonce + 1)
        if header_digest(bad_nonce, fast_params) < bad_nonce.work_target:
            bad_nonce = dataclasses.replace(genesis, work_target=1)
        with pytest.raises(ContractError) as err:
            setup_one("A", bad_nonce, fast_params, 2)
        assert err.value.reason == "bad-genesis"

    @pytest.mark.parametrize("field", ["prev_hash", "state_commitment", "nonce"])
    @pytest.mark.parametrize("offset", [P, -P])
    def test_unreduced_genesis_rejected(self, fast_params, field, offset):
        genesis = make_genesis(2, fast_params)
        alias = dataclasses.replace(genesis, **{field: getattr(genesis, field) + offset})
        with pytest.raises(ContractError) as err:
            setup_one("A", alias, fast_params, 2)
        assert err.value.reason == "bad-genesis"

    def test_genesis_nonce_outside_span_rejected(self, fast_params):
        # a nonce of 2**32 packs like height 1, nonce 0
        genesis = make_genesis(2, fast_params)
        with pytest.raises(ContractError) as err:
            setup_one("A", dataclasses.replace(genesis, nonce=2**32), fast_params, 2)
        assert err.value.reason == "bad-genesis"

    def test_unreduced_relayed_header_rejected(self, fast_params):
        # hash2 reduces its inputs, so c + p is refused, not hashed as c
        a, b = make_pair(fast_params, h=2)
        commitment = state_commitment_value(b.local_root_digest, b.exposed_digest, fast_params)
        header, _ = mine_header(
            1, header_digest(a.remote_headers[0], fast_params), commitment + P,
            EASY_TARGET, fast_params,
        )
        result = on_relayed_header(a, header, now=1)
        assert not result.accepted and result.reason == "bad-encoding"
        assert a.events[-1].get("reason") == "bad-encoding"
        assert a.remote_headers == [a.remote_headers[0]]


class TestDeposit:
    def test_first_deposit(self, fast_params):
        a, _ = make_pair(fast_params)
        note = make_note(1, 2, fast_params)
        assert deposit(a, note.commitment, now=0) == 0
        assert a.balance == DENOM
        assert a.local_roots[a.tree.root] == 0
        assert len(a.tree.root_history) == 2

    def test_duplicate_commitment_rejected(self, fast_params):
        a, _ = make_pair(fast_params)
        note = make_note(1, 2, fast_params)
        deposit(a, note.commitment, now=0)
        with pytest.raises(ContractError) as err:
            deposit(a, note.commitment, now=1)
        assert err.value.reason == "duplicate-commitment"

    def test_tree_full(self, fast_params):
        a, _ = make_pair(fast_params, h=1)
        deposit(a, make_note(1, 1, fast_params).commitment, 0)
        deposit(a, make_note(2, 2, fast_params).commitment, 0)
        with pytest.raises(ContractError) as err:
            deposit(a, make_note(3, 3, fast_params).commitment, 0)
        assert err.value.reason == "tree-full"

    # 0 is the empty leaf: depositing it would leave the root unchanged
    @pytest.mark.parametrize("commitment", [P, P + 5, -1, 0])
    def test_unreduced_commitment_rejected_before_any_change(self, fast_params, commitment):
        a, _ = make_pair(fast_params)
        deposit(a, make_note(1, 2, fast_params).commitment, now=0)

        def snapshot():
            return (list(a.tree.leaves), a.balance, list(a.tree.root_history), dict(a.local_roots),
                    a.local_root_digest, a.exposed_digest, list(a.events), set(a.commitments))

        before = snapshot()
        with pytest.raises(ContractError) as err:
            deposit(a, commitment, now=1)
        assert err.value.reason == "bad-commitment"
        assert snapshot() == before

    def test_rejected_empty_leaf_keeps_the_other_chains_invariants(self, fast_params):
        # had A taken commitment 0, its root history would repeat the empty
        # root, and B's relayed roots would no longer be distinct
        a, b = make_pair(fast_params)
        with pytest.raises(ContractError) as err:
            deposit(a, 0, now=0)
        assert err.value.reason == "bad-commitment"
        deposit(a, make_note(1, 2, fast_params).commitment, now=1)
        relay_all(a, b, now=2)
        assert b.remote_roots == a.tree.root_history
        check_contract_invariants(b)


class TestSubmitWithdrawal:
    def test_cross_chain_flow(self, fast_params):
        a, b = make_pair(fast_params, epsilon=1, delay=2)
        note = make_note(10, 11, fast_params)
        index = deposit(a, note.commitment, now=0)
        relay_all(a, b, now=2)
        stmt, proof = withdrawal_for(note, index, a, b)
        wid = submit_withdrawal(b, stmt, proof, "alice", now=3)
        pw = b.pending_withdrawals[0]
        assert pw.pending_id == wid
        assert pw.finalize_at == 3 + 2 + 1
        assert stmt.nullifier in b.nullifiers
        assert [p.statement.nullifier for p in b.pending_withdrawals] == [stmt.nullifier]

    def test_unrelayed_root_rejected(self, fast_params):
        a, b = make_pair(fast_params)
        note = make_note(10, 11, fast_params)
        index = deposit(a, note.commitment, now=0)
        stmt, proof = withdrawal_for(note, index, a, b)  # no relay happened
        with pytest.raises(ContractError) as err:
            submit_withdrawal(b, stmt, proof, "alice", now=1)
        assert err.value.reason == "unknown-remote-root"

    def test_unknown_local_root_rejected(self, fast_params):
        a, b = make_pair(fast_params)
        note = make_note(10, 11, fast_params)
        index = deposit(a, note.commitment, now=0)
        relay_all(a, b, now=2)
        stmt, proof = withdrawal_for(note, index, a, b)
        forged = dataclasses.replace(stmt, root_a=(stmt.root_a + 1) % P)
        with pytest.raises(ContractError) as err:
            submit_withdrawal(b, forged, proof, "alice", now=3)
        assert err.value.reason == "unknown-local-root"

    def test_repeat_nullifier_rejected(self, fast_params):
        a, b = make_pair(fast_params)
        note = make_note(10, 11, fast_params)
        index = deposit(a, note.commitment, now=0)
        relay_all(a, b, now=2)
        stmt, proof = withdrawal_for(note, index, a, b)
        submit_withdrawal(b, stmt, proof, "alice", now=3)
        with pytest.raises(ContractError) as err:
            submit_withdrawal(b, stmt, proof, "mallory", now=3)
        assert err.value.reason == "nullifier-known"

    def test_invalid_proof_rejected(self, fast_params):
        a, b = make_pair(fast_params)
        n1 = make_note(10, 11, fast_params)
        n2 = make_note(12, 13, fast_params)
        i1 = deposit(a, n1.commitment, now=0)
        deposit(a, n2.commitment, now=0)
        relay_all(a, b, now=2)
        stmt, proof = withdrawal_for(n1, i1, a, b)
        # valid roots, fresh nullifier, but proof belongs to a different
        # statement; an unreduced nullifier is fresh too, and the verifier
        # must reject it rather than raise while encoding it
        for nullifier in (n2.nullifier, stmt.nullifier + P):
            other = dataclasses.replace(stmt, nullifier=nullifier)
            with pytest.raises(ContractError) as err:
                submit_withdrawal(b, other, proof, "alice", now=3)
            assert err.value.reason == "invalid-proof"


class TestProcessTick:
    def test_finalizes_at_deadline(self, fast_params):
        a, b = make_pair(fast_params, epsilon=1, delay=2, native_side="B")
        note = make_note(21, 22, fast_params)
        index = deposit(b, note.commitment, now=0)
        stmt, proof = withdrawal_for(note, index, b, b)
        submit_withdrawal(b, stmt, proof, "alice", now=1)
        assert process_tick(b, 3) == []  # before finalize_at: no state change
        assert b.pending_withdrawals[0].status == PENDING
        events = process_tick(b, 4)
        assert len(events) == 1
        assert b.pending_withdrawals[0].status == FINALIZED
        assert b.credits == {"alice": DENOM}
        assert b.balance == 0  # native side pays from balance
        assert conservation_holds([a, b])

    def test_wrapped_mint_on_non_native_side(self, fast_params):
        a, b = make_pair(fast_params, native_side="A")
        note = make_note(31, 32, fast_params)
        index = deposit(a, note.commitment, now=0)
        relay_all(a, b, now=2)
        stmt, proof = withdrawal_for(note, index, a, b)
        submit_withdrawal(b, stmt, proof, "carol", now=2)
        process_tick(b, 5)
        assert b.wrapped_minted == DENOM
        assert b.credits == {"carol": DENOM}
        assert a.balance == DENOM  # locked value stays on the native side
        assert conservation_holds([a, b])

    def test_insolvent_payout_leaves_the_withdrawal_pending(self, fast_params):
        # a note deposited on wrapped B and withdrawn on native A, which holds
        # nothing: the payout raises before it marks or skips the withdrawal
        a, b = make_pair(fast_params, native_side="A")
        note = make_note(51, 52, fast_params)
        index = deposit(b, note.commitment, now=0)
        relay_all(b, a, now=1)
        stmt, proof = withdrawal_for(note, index, b, a)
        submit_withdrawal(a, stmt, proof, "gina", now=2)
        with pytest.raises(ContractError) as err:
            process_tick(a, 5)
        assert err.value.reason == "insolvent"
        assert a.pending_withdrawals[0].status == PENDING
        assert a.finalize_cursor == 0
        assert a.credits == {} and a.events[-1].kind == "withdraw-submitted"
        # once A can cover it, a later tick pays it
        deposit(a, make_note(53, 54, fast_params).commitment, now=6)
        (paid,) = process_tick(a, 6)
        assert paid.get("wid") == "A0" and a.pending_withdrawals[0].status == FINALIZED
        assert a.finalize_cursor == 1 and a.credits == {"gina": DENOM}
        assert conservation_holds([a, b])

    def test_idempotent_after_finalize(self, fast_params):
        a, b = make_pair(fast_params)
        note = make_note(41, 42, fast_params)
        index = deposit(a, note.commitment, now=0)
        relay_all(a, b, now=2)
        stmt, proof = withdrawal_for(note, index, a, b)
        submit_withdrawal(b, stmt, proof, "dave", now=2)
        process_tick(b, 5)
        assert process_tick(b, 6) == []


class TestDuplicateCancellation:
    def _double_submit(self, fast_params):
        a, b = make_pair(fast_params, epsilon=1, delay=2)
        note = make_note(51, 52, fast_params)
        index = deposit(a, note.commitment, now=0)
        relay_all(a, b, now=2)
        stmt_a, proof_a = withdrawal_for(note, index, a, a)
        stmt_b, proof_b = withdrawal_for(note, index, a, b)
        submit_withdrawal(a, stmt_a, proof_a, "self", now=3)
        submit_withdrawal(b, stmt_b, proof_b, "self", now=3)
        return a, b, note

    def test_both_cancelled_when_duplicates_cross(self, fast_params):
        a, b, note = self._double_submit(fast_params)
        relay_all(a, b, now=5)  # B learns A exposed the same nullifier
        relay_all(b, a, now=5)
        assert a.pending_withdrawals[0].status == CANCELLED
        assert b.pending_withdrawals[0].status == CANCELLED
        # each nullifier stays known, mapped to its cancelled withdrawal
        assert a.nullifiers[note.nullifier] is a.pending_withdrawals[0]
        assert b.nullifiers[note.nullifier] is b.pending_withdrawals[0]
        assert process_tick(a, 10) == [] and process_tick(b, 10) == []
        assert a.credits == {} and b.credits == {}
        assert conservation_holds([a, b])

    def test_unreduced_relayed_nullifier_cannot_block_cancellation(self, fast_params):
        # one lying relayer sends sn + p first; were it installed, the honest
        # sn would contradict A's view forever and never cancel A's payout
        a, b, note = self._double_submit(fast_params)
        att = deliver_header(b, a, now=5)
        lying = dataclasses.replace(att, nullifiers=tuple(sn + P for sn in att.nullifiers))
        assert on_relayed_state(a, lying, now=5).reason == "bad-encoding"
        assert a.events[-1].kind == "state-rejected"
        assert on_relayed_state(a, att, now=5).accepted
        assert a.pending_withdrawals[0].status == CANCELLED

    def test_burned_nullifier_unusable(self, fast_params):
        a, b, note = self._double_submit(fast_params)
        relay_all(a, b, now=5)
        relay_all(b, a, now=5)
        stmt, proof = withdrawal_for(note, 0, a, a)
        with pytest.raises(ContractError) as err:
            submit_withdrawal(a, stmt, proof, "again", now=6)
        assert err.value.reason == "nullifier-known"

    def test_duplicate_after_finalize_is_burn_only(self, fast_params):
        a, b, note = self._double_submit(fast_params)
        process_tick(a, 6)  # A's payout deadline passes before any relay
        assert a.pending_withdrawals[0].status == FINALIZED
        relay_all(b, a, now=7)
        assert a.pending_withdrawals[0].status == FINALIZED  # no retroactive cancel
        assert a.nullifiers[note.nullifier] is a.pending_withdrawals[0]
        kinds = [e.kind for e in a.events]
        assert "duplicate-detected" in kinds
        assert kinds.count("withdraw-cancelled") == 0

    def test_remote_copy_does_not_false_cancel(self, fast_params):
        # A nullifier that reached a chain only via relay is not "duplicate"
        # when it shows up again in a later attestation.
        a, b = make_pair(fast_params)
        note = make_note(61, 62, fast_params)
        index = deposit(a, note.commitment, now=0)
        relay_all(a, b, now=2)
        stmt, proof = withdrawal_for(note, index, a, b)
        submit_withdrawal(b, stmt, proof, "erin", now=2)
        relay_all(b, a, now=4)  # A installs the nullifier by relay
        relay_all(b, a, now=5)  # redelivery must not cancel anything on A
        assert all(e.kind != "duplicate-detected" for e in a.events)
        assert a.nullifiers[note.nullifier] is None

    def test_stale_attestation_costs_no_permute_and_logs_nothing(self, fast_params, monkeypatch):
        a, b = make_pair(fast_params)
        deposit(a, make_note(63, 64, fast_params).commitment, now=0)
        old = deliver_header(a, b, now=1)
        assert on_relayed_state(b, old, now=1).accepted
        deposit(a, make_note(65, 66, fast_params).commitment, now=2)
        assert relay_all(a, b, now=3).accepted
        resend = deliver_header(a, b, now=4)
        calls, events = [], list(b.events)
        permute = field_hash.permute
        monkeypatch.setattr(field_hash, "permute", lambda *args: calls.append(1) or permute(*args))
        # a re-send of what landed, and a copy of an older state landing late
        assert on_relayed_state(b, resend, now=4).reason == "stale"
        assert on_relayed_state(b, old, now=4).reason == "stale"
        assert calls == [] and b.events == events

    def test_duplicate_signal_for_unseen_nullifier_rejected(self, fast_params):
        a, _ = make_pair(fast_params)
        with pytest.raises(ContractError):
            on_duplicate_nullifier(a, 12345, now=1)

    def test_repeated_relayed_nullifier_is_a_no_op(self, fast_params):
        # an honest source never exposes a nullifier twice, but a header with
        # valid PoW can commit to a list that does; the repeat is neither
        # installed twice nor taken for a duplicate of a local withdrawal
        a, _ = make_pair(fast_params)
        params, sn = fast_params, 4242
        exposed = hash2(hash2(0, sn, params), sn, params)
        commitment = state_commitment_value(a.remote_root_digest, exposed, params)
        header, _ = mine_header(
            1, header_digest(a.remote_headers[0], params), commitment, EASY_TARGET, params
        )
        assert on_relayed_header(a, header, now=1).accepted
        att = StateAttestation(1, len(a.remote_roots), (), 0, (sn, sn))
        assert on_relayed_state(a, att, now=1).accepted
        assert a.nullifiers == {sn: None}
        assert all(e.kind != "duplicate-detected" for e in a.events)


class TestInvariantHelpers:
    def test_invariants_hold_through_flow(self, fast_params):
        a, b = make_pair(fast_params)
        note = make_note(71, 72, fast_params)
        index = deposit(a, note.commitment, now=0)
        relay_all(a, b, now=2)
        stmt, proof = withdrawal_for(note, index, a, b)
        submit_withdrawal(b, stmt, proof, "frank", now=2)
        process_tick(b, 5)
        check_contract_invariants(a)
        check_contract_invariants(b)
        assert conservation_holds([a, b])

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda c: setattr(c, "balance", -5), "balance >= 0, but balance = -5"),
            (
                lambda c: c.remote_roots.append(c.remote_roots[0]),
                "remote roots distinct, but 2 hold 1 values",
            ),
            (
                lambda c: c.pending_withdrawals.append(
                    PendingWithdrawal("A0", Statement(0, 0, 1), "x", finalize_at=9)
                ),
                "exposed nullifiers known, but 1 unknown, first 0100000000000000",
            ),
        ],
        ids=["balance", "remote-roots", "exposed-nullifier"],
    )
    def test_broken_invariant_raises_naming_it(self, fast_params, tamper, message):
        a, _ = make_pair(fast_params)
        check_contract_invariants(a)
        tamper(a)
        with pytest.raises(ContractError) as err:
            check_contract_invariants(a)
        assert err.value.reason == "invariant"
        assert str(err.value) == f"A invariant broken: {message}"
        # the full rescan says the same, and the news stays unchecked, so a
        # second call raises again
        assert outcome(full_rescan, a) == outcome(check_contract_invariants, a) == str(err.value)

    def test_second_payout_of_a_nullifier_raises(self, fast_params):
        a, b = make_pair(fast_params)
        note = make_note(91, 92, fast_params)
        index = deposit(a, note.commitment, now=0)
        relay_all(a, b, now=2)
        stmt, proof = withdrawal_for(note, index, a, b)
        submit_withdrawal(b, stmt, proof, "gina", now=2)
        process_tick(b, 5)
        check_contract_invariants(b)
        # a second queue entry for the nullifier, which submit_withdrawal
        # refuses as nullifier-known, and process_tick pays it a tick later:
        # the check remembers the first payout across calls
        b.pending_withdrawals.append(dataclasses.replace(b.pending_withdrawals[0], status=PENDING))
        (second,) = process_tick(b, 6)
        assert second.get("nullifier") == stmt.nullifier
        with pytest.raises(ContractError, match="one payout per nullifier, but 2 payouts for 1 nullifiers"):
            check_contract_invariants(b)
        assert outcome(full_rescan, b) == outcome(check_contract_invariants, b)

    def test_invariants_are_checked_under_python_O(self):
        # `assert` statements vanish under -O; the checks must not
        script = (
            "from bridgemix.contract import ContractError, check_contract_invariants, contract_setup\n"
            "from bridgemix.field_hash import P, make_params\n"
            "from bridgemix.lightclient import mine_header\n"
            "from bridgemix.zkrel import zk_setup\n"
            "params = make_params(4)\n"
            "genesis, _ = mine_header(0, 0, 0, P >> 2, params)\n"
            "c = contract_setup('A', genesis, zk_setup(2, params), epsilon=1, relay_delay=1,\n"
            "                   native=True, events=[])\n"
            "c.balance = -5\n"
            "try:\n"
            "    check_contract_invariants(c)\n"
            "except ContractError as err:\n"
            "    print(err.reason, err)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "invariant A invariant broken: balance >= 0, but balance = -5\n"

    def test_event_lines_render(self, fast_params):
        a, _ = make_pair(fast_params)
        note = make_note(81, 82, fast_params)
        deposit(a, note.commitment, now=4)
        line = a.events[-1].to_line()
        assert line.startswith("t=4 chain=A ev=deposit index=0 commitment=")
