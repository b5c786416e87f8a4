"""The bridge contract state machine: deposits into the local accumulator,
delayed withdrawals against the OR-of-two-roots relation, immediate nullifier
exposure, and duplicate-driven cancellation.

One instance per chain.  The timing discipline is the heart of the protocol:
a withdrawal's nullifier becomes public at *submission*, the payout waits
relay_delay + epsilon ticks, and a relayed duplicate of a locally exposed
nullifier cancels the pending payout and burns the nullifier for good.

The per-tick invariants cost O(news), not O(history): besides its O(1)
checks, check_contract_invariants reads only the withdrawals queued or
finalized since its last call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import lightclient, zkrel
from .field_hash import FieldElement, HashParams, P, fe_hex, hash2
from .lightclient import BlockHeader, StateAttestation, StateResult, header_digest
from .merkle import MerkleTree, mt_add, mt_setup
from .zkrel import Proof, ProofParams, Statement

DENOMINATION = 10  # every deposit and every payout moves exactly this much

PENDING = "pending"
FINALIZED = "finalized"
CANCELLED = "cancelled"


class ContractError(Exception):
    def __init__(self, reason: str, message: str = ""):
        super().__init__(message or reason)
        self.reason = reason


# event keys whose values are field elements: value_text prints them as fe_hex
FE_KEYS = frozenset({"empty_root", "commitment", "new_root", "root_a", "root_b", "nullifier"})


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One line of the public transcript.  `fields` holds (key, value) pairs with
    typed values: ints for field elements and counts, strs for ids and reasons.
    Slotted: a run holds one per event, thousands on a long history."""

    tick: int
    chain: str
    kind: str
    fields: tuple

    def get(self, key: str):
        for k, v in self.fields:
            if k == key:
                return v
        return None

    @staticmethod
    def value_text(key: str, value) -> str:
        return fe_hex(value) if key in FE_KEYS else str(value)

    def to_line(self) -> str:
        parts = [f"t={self.tick}", f"chain={self.chain}", f"ev={self.kind}"]
        parts.extend(f"{k}={self.value_text(k, v)}" for k, v in self.fields)
        return " ".join(parts)


@dataclass
class PendingWithdrawal:
    pending_id: str
    statement: Statement
    recipient: str
    finalize_at: int  # always the submit tick + relay_delay + epsilon
    status: str = PENDING


@dataclass
class ContractState:
    """One chain's contract.  Each fact is stored once; the digests of
    remote_headers are not stored at all but read from header_digest's
    cache, which the receiver filled when it accepted each header, and the
    miner derives its headers' state commitment from the committed digests."""

    chain_id: str
    epsilon: int
    relay_delay: int
    native: bool  # pays from balance; otherwise mints wrapped units
    tree: MerkleTree
    params: ProofParams
    events: list  # the transcript this contract appends to
    balance: int = 0
    total_deposited: int = 0
    wrapped_minted: int = 0
    # each root of tree.root_history, in order, mapped to the tick it became
    # known: tick 0, set-up, for the empty root, else its deposit's tick
    local_roots: dict = field(default_factory=dict)
    # running digest of tree.root_history (committed)
    local_root_digest: FieldElement = 0
    # running digest of the nullifiers this contract exposed itself, in
    # exposure order, which is the order of pending_withdrawals (committed)
    exposed_digest: FieldElement = 0
    # relayed view of the other chain, one snapshot of its committed lists,
    # each with its running digest; remote_root_ticks maps each root of
    # remote_roots to the tick it was installed
    remote_roots: list = field(default_factory=list)
    remote_root_ticks: dict = field(default_factory=dict)
    remote_root_digest: FieldElement = 0
    remote_exposed: list = field(default_factory=list)
    remote_exposed_digest: FieldElement = 0
    remote_headers: list = field(default_factory=list)
    # every nullifier seen: one exposed here maps to the local withdrawal that
    # exposed it, a relayed one to None; none is ever removed
    nullifiers: dict = field(default_factory=dict)
    # every withdrawal ever queued, in finalize order (finalize_at is the submit
    # tick plus a constant), which is also the order their nullifiers were
    # exposed in; finalize_cursor is past every one already due
    pending_withdrawals: list = field(default_factory=list)
    finalize_cursor: int = 0
    # check_contract_invariants' progress through pending_withdrawals: every
    # entry before checked_exposures has a known nullifier, and each entry
    # before checked_payouts that was finalized has its nullifier, once, in
    # paid_nullifiers
    checked_exposures: int = 0
    checked_payouts: int = 0
    paid_nullifiers: set = field(default_factory=set)
    commitments: set = field(default_factory=set)
    credits: dict = field(default_factory=dict)
    # lock-time incentive bookkeeping (governance tokens, separate supply)
    gov_minted: dict = field(default_factory=dict)
    gov_total: int = 0
    reward_ages: dict = field(default_factory=dict)

    @property
    def hash_params(self) -> HashParams:
        return self.params.hash_params

    def emit(self, now: int, kind: str, **fields) -> EventRecord:
        record = EventRecord(now, self.chain_id, kind, tuple(fields.items()))
        self.events.append(record)
        return record


@lru_cache(maxsize=None)
def empty_state_digests(empty_root: FieldElement, params: HashParams) -> tuple:
    """(local_root_digest, state commitment) of a contract whose root list is
    the empty root alone and which exposed no nullifier: each contract starts
    from the digest, and the genesis header both share carries the commitment.
    Cached, so a run, and a race sweep, hashes them once per process."""
    roots_digest = hash2(0, empty_root, params)
    return roots_digest, lightclient.state_commitment_value(roots_digest, 0, params)


def contract_setup(
    chain_id: str,
    genesis: BlockHeader,
    params: ProofParams,
    *,
    epsilon: int,
    relay_delay: int,
    native: bool,
    events: list,
) -> ContractState:
    """A chain's contract, fully set up at tick 0: a tree of the circuit's
    height (`params.height`), the other chain's genesis header installed,
    both root lists seeded with the shared empty root, and both root digests
    that of the empty state (`empty_state_digests`).  Appends its `setup`
    event to `events`, the transcript the contract keeps writing to."""
    if relay_delay < 1:
        raise ContractError("bad-delay", "relay_delay must be >= 1")
    if relay_delay + epsilon < 0:
        raise ContractError("bad-delay", "relay_delay + epsilon must be >= 0")
    if genesis.height != 0:
        raise ContractError("bad-genesis", "genesis must have height 0")
    if not lightclient.fields_in_range(genesis):
        raise ContractError("bad-genesis", "genesis field out of range")
    # hashing genesis here is what lets add_header read the tip's digest
    # from header_digest's cache
    if header_digest(genesis, params.hash_params) >= genesis.work_target:
        raise ContractError("bad-genesis", "genesis fails its own work target")
    tree = mt_setup(params.height, params.hash_params)
    state = ContractState(chain_id, epsilon, relay_delay, native, tree, params, events)
    empty_root = tree.root
    state.local_roots[empty_root] = 0
    state.local_root_digest = empty_state_digests(empty_root, params.hash_params)[0]
    # the remote side runs the same tree shape, so its empty root is known
    state.remote_roots.append(empty_root)
    state.remote_root_ticks[empty_root] = 0
    state.remote_root_digest = state.local_root_digest
    state.remote_headers.append(genesis)
    state.emit(
        0,
        "setup",
        height=params.height,
        denomination=DENOMINATION,
        epsilon=epsilon,
        relay_delay=relay_delay,
        empty_root=empty_root,
    )
    return state


def deposit(state: ContractState, commitment: FieldElement, now: int) -> int:
    """Deposit DENOMINATION behind a note commitment; returns the leaf index.
    0 is the empty leaf: a deposit of it would leave the root unchanged."""
    if not 0 < commitment < P:
        raise ContractError("bad-commitment", "commitment is 0 or out of field range")
    if commitment in state.commitments:
        raise ContractError("duplicate-commitment", "commitment already deposited")
    index = len(state.tree.leaves)
    if not mt_add(state.tree, commitment):
        raise ContractError("tree-full", "accumulator at capacity")
    state.commitments.add(commitment)
    new_root = state.tree.root
    state.local_roots.setdefault(new_root, now)
    state.local_root_digest = hash2(state.local_root_digest, new_root, state.hash_params)
    state.balance += DENOMINATION
    state.total_deposited += DENOMINATION
    state.emit(now, "deposit", index=index, commitment=commitment, new_root=new_root)
    return index


def check_roots_known(state: ContractState, stmt: Statement) -> None:
    """root_a is one of this contract's roots, root_b one relayed to it."""
    if stmt.root_a not in state.local_roots:
        raise ContractError("unknown-local-root", "root_a not in this contract's history")
    if stmt.root_b not in state.remote_root_ticks:
        raise ContractError("unknown-remote-root", "root_b not relayed to this contract")


def submit_withdrawal(
    state: ContractState, stmt: Statement, proof: Proof, recipient: str, now: int
) -> str:
    """Validate roots, nullifier freshness, and the proof; expose the
    nullifier immediately and queue payout for now + relay_delay + epsilon."""
    check_roots_known(state, stmt)
    if stmt.nullifier in state.nullifiers:
        raise ContractError("nullifier-known", "nullifier already seen")
    if not zkrel.zk_verify(state.params, stmt, proof):
        raise ContractError("invalid-proof", "proof rejected")
    pending_id = f"{state.chain_id}{len(state.pending_withdrawals)}"
    finalize_at = now + state.relay_delay + state.epsilon
    pw = PendingWithdrawal(pending_id, stmt, recipient, finalize_at)
    state.pending_withdrawals.append(pw)
    state.nullifiers[stmt.nullifier] = pw
    state.exposed_digest = hash2(state.exposed_digest, stmt.nullifier, state.hash_params)
    state.emit(
        now,
        "withdraw-submitted",
        wid=pending_id,
        root_a=stmt.root_a,
        root_b=stmt.root_b,
        nullifier=stmt.nullifier,
        recipient=recipient,
        finalize_at=finalize_at,
    )
    return pending_id


def process_tick(state: ContractState, now: int) -> list:
    """Finalize every still-pending withdrawal whose delay has elapsed."""
    events = []
    for pw in state.pending_withdrawals[state.finalize_cursor :]:
        if pw.finalize_at > now:
            break
        # checked before anything moves, so an unpaid withdrawal stays pending
        if pw.status == PENDING and state.native and state.balance < DENOMINATION:
            raise ContractError(
                "insolvent", f"{state.chain_id} cannot cover withdrawal {pw.pending_id}"
            )
        state.finalize_cursor += 1
        if pw.status != PENDING:
            continue  # cancelled
        pw.status = FINALIZED
        if state.native:
            state.balance -= DENOMINATION
            mode = "native"
        else:
            state.wrapped_minted += DENOMINATION
            mode = "wrapped"
        state.credits[pw.recipient] = state.credits.get(pw.recipient, 0) + DENOMINATION
        events.append(
            state.emit(
                now,
                "withdraw-finalized",
                wid=pw.pending_id,
                nullifier=pw.statement.nullifier,
                recipient=pw.recipient,
                amount=DENOMINATION,
                mode=mode,
            )
        )
    return events


def on_duplicate_nullifier(state: ContractState, sn: FieldElement, now: int) -> list:
    """A relayed copy of a locally exposed nullifier arrived: cancel the
    withdrawal that exposed it if still pending.  The nullifier stays known,
    so it is burned for good: nullifier-known allows no other withdrawal."""
    if sn not in state.nullifiers:
        raise ContractError("unknown-nullifier", "duplicate signal for unseen nullifier")
    events = []
    pw = state.nullifiers[sn]
    cancelled = pw is not None and pw.status == PENDING
    if cancelled:
        pw.status = CANCELLED
        events.append(
            state.emit(
                now, "withdraw-cancelled", wid=pw.pending_id, nullifier=sn, reason="duplicate-nullifier"
            )
        )
    events.append(state.emit(now, "duplicate-detected", nullifier=sn, cancelled=int(cancelled)))
    return events


def on_relayed_header(state: ContractState, header: BlockHeader, now: int):
    """add_header plus transcript logging; silent on idempotent duplicates."""
    result = lightclient.add_header(state, header)
    if result.accepted:
        state.emit(now, "header-accepted", height=header.height)
    elif result.reason != "duplicate":
        state.emit(now, "header-rejected", height=header.height, reason=result.reason)
    return result


def on_relayed_state(state: ContractState, att: StateAttestation, now: int) -> StateResult:
    """add_bridge_state plus the Modification-#2 duplicate check: newly relayed
    nullifiers that match a locally exposed one trigger cancellation."""
    result = lightclient.add_bridge_state(state, att, now)
    if not result.accepted:
        if result.reason != "stale":  # silent, like a duplicate header
            state.emit(now, "state-rejected", reason=result.reason)
        return result
    duplicates = []
    for sn in result.installed_nullifiers:
        if sn not in state.nullifiers:
            state.nullifiers[sn] = None  # relayed
        elif state.nullifiers[sn] is not None:
            duplicates.append(sn)  # exposed here first
    state.emit(
        now,
        "state-accepted",
        roots_installed=len(result.installed_roots),
        nullifiers_installed=len(result.installed_nullifiers),
    )
    for sn in duplicates:
        on_duplicate_nullifier(state, sn, now)
    return result


def conservation_holds(states) -> bool:
    """One ledger per chain and asset, at every tick.  The native chain pays
    credits out of its balance and mints nothing; the wrapped chain keeps every
    deposit locked and mints each credit; governance tokens are minted only to
    claimants.  Burned notes stay locked forever."""
    for s in states:
        credits = sum(s.credits.values())
        if s.native:
            value_ok = s.balance + credits == s.total_deposited and s.wrapped_minted == 0
        else:
            value_ok = s.balance == s.total_deposited and credits == s.wrapped_minted
        if not value_ok or s.gov_total != sum(s.gov_minted.values()):
            return False
    return True


def check_contract_invariants(state: ContractState):
    """Checks the simulator runs after every tick.  A broken one raises
    ContractError("invariant") naming the invariant and the values compared.

    The balance and relayed-root checks are O(1).  "Exposed nullifiers
    known" reads only the entries queued since the last call: no nullifier
    is ever removed, so one found known stays known.  "One payout per
    nullifier" reads only the entries process_tick moved finalize_cursor
    past since the last call, against paid_nullifiers: only process_tick
    finalizes, and never behind its cursor, so every earlier payout is in
    that set.  Over a run each entry is read twice.  The counts in a message
    are those of the whole queue, since every earlier call passed; the
    cursors move only when every check passes, so a broken state keeps
    raising."""
    roots = len(state.remote_roots)
    queue = state.pending_withdrawals
    known = state.nullifiers
    unknown = [
        pw.statement.nullifier
        for pw in queue[state.checked_exposures :]
        if pw.statement.nullifier not in known
    ]
    paid = state.paid_nullifiers
    new_paid = [
        pw.statement.nullifier
        for pw in queue[state.checked_payouts : state.finalize_cursor]
        if pw.status == FINALIZED
    ]
    fresh = set(new_paid) - paid
    if state.balance < 0:
        broken = f"balance >= 0, but balance = {state.balance}"
    elif roots != len(state.remote_root_ticks):
        broken = f"remote roots distinct, but {roots} hold {len(state.remote_root_ticks)} values"
    elif unknown:
        broken = f"exposed nullifiers known, but {len(unknown)} unknown, first {fe_hex(unknown[0])}"
    elif len(fresh) != len(new_paid):
        payouts, nullifiers = len(paid) + len(new_paid), len(paid) + len(fresh)
        broken = f"one payout per nullifier, but {payouts} payouts for {nullifiers} nullifiers"
    else:
        state.checked_exposures = len(queue)
        state.checked_payouts = state.finalize_cursor
        paid.update(fresh)
        return
    raise ContractError("invariant", f"{state.chain_id} invariant broken: {broken}")
