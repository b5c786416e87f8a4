"""Full-rescan oracle for contract.check_contract_invariants.

The library checks each tick's news only; this walks every withdrawal ever
queued, so tests can compare the two on any state.  It raises the same
ContractError, word for word, when an invariant is broken.
"""
from bridgemix.contract import FINALIZED, ContractError
from bridgemix.field_hash import fe_hex


def full_rescan(state):
    roots = len(state.remote_roots)
    known = state.nullifiers
    unknown, paid = [], []
    for pw in state.pending_withdrawals:
        sn = pw.statement.nullifier
        if sn not in known:
            unknown.append(sn)
        if pw.status == FINALIZED:
            paid.append(sn)
    if state.balance < 0:
        broken = f"balance >= 0, but balance = {state.balance}"
    elif roots != len(state.remote_root_ticks):
        broken = f"remote roots distinct, but {roots} hold {len(state.remote_root_ticks)} values"
    elif unknown:
        broken = f"exposed nullifiers known, but {len(unknown)} unknown, first {fe_hex(unknown[0])}"
    elif len(set(paid)) != len(paid):
        broken = f"one payout per nullifier, but {len(paid)} payouts for {len(set(paid))} nullifiers"
    else:
        return
    raise ContractError("invariant", f"{state.chain_id} invariant broken: {broken}")


def outcome(check, state):
    """None if `check` passes on `state`, else its ContractError's message."""
    try:
        check(state)
    except ContractError as err:
        return str(err)
    return None


def paid_by_rescan(state) -> set:
    return {pw.statement.nullifier for pw in state.pending_withdrawals if pw.status == FINALIZED}
