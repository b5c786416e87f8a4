"""The bridge contract state machine: deposits into the local accumulator,
delayed withdrawals against the OR-of-two-roots relation, immediate nullifier
exposure, and duplicate-driven cancellation.

One instance per chain.  The timing discipline is the heart of the protocol:
a withdrawal's nullifier becomes public at *submission*, the payout waits
relay_delay + epsilon ticks, and a relayed duplicate of a locally exposed
nullifier cancels the pending payout and burns the nullifier for good.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import lightclient, zkrel
from .field_hash import FieldElement, HashParams, fe_hex, hash2
from .lightclient import BlockHeader, StateAttestation, StateResult, header_digest
from .merkle import MerkleTree, mt_add, mt_setup
from .zkrel import Proof, ProofParams, Statement

PENDING = "pending"
FINALIZED = "finalized"
CANCELLED = "cancelled"


class ContractError(Exception):
    def __init__(self, reason: str, message: str = ""):
        super().__init__(message or reason)
        self.reason = reason


# event keys whose values are field elements: value_text prints them as fe_hex
FE_KEYS = frozenset({"empty_root", "commitment", "new_root", "root_a", "root_b", "nullifier"})


@dataclass(frozen=True)
class EventRecord:
    """One line of the public transcript.  `fields` holds (key, value) pairs with
    typed values: ints for field elements and counts, strs for ids and reasons."""

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
class NullifierRecord:
    burned: bool = False
    withdrawal: PendingWithdrawal | None = None  # the local one that exposed it; None if relayed


@dataclass
class ContractState:
    chain_id: str
    denomination: int
    epsilon: int
    relay_delay: int
    native: bool  # pays from balance; otherwise mints wrapped units
    tree: MerkleTree
    params: ProofParams
    events: list  # the transcript this contract appends to
    balance: int = 0
    total_deposited: int = 0
    wrapped_minted: int = 0
    # membership index of tree.root_history
    local_root_set: set = field(default_factory=set)
    # running digest of tree.root_history (committed)
    local_root_digest: FieldElement = 0
    # nullifiers this contract exposed itself, in exposure order
    exposed_nullifiers: list = field(default_factory=list)
    # running digest of exposed_nullifiers (committed)
    exposed_digest: FieldElement = 0
    # state_commitment_value of the two committed digests, refreshed by
    # _recommit wherever either digest changes
    state_commitment: FieldElement = 0
    # relayed view of the other chain; the digest lists are indexed by the
    # `*_from` cursors of incoming attestations
    remote_roots: list = field(default_factory=list)
    remote_root_set: set = field(default_factory=set)
    remote_root_digests: list = field(default_factory=lambda: [0])
    remote_exposed: list = field(default_factory=list)
    remote_exposed_digests: list = field(default_factory=lambda: [0])
    remote_headers: list = field(default_factory=list)
    remote_header_digests: list = field(default_factory=list)  # header_digest of each
    # full nullifier knowledge: local (exposed here) and relayed
    nullifiers: dict = field(default_factory=dict)
    # every withdrawal ever queued, in finalize order (finalize_at is the submit
    # tick plus a constant); finalize_cursor is past every one already due
    pending_withdrawals: list = field(default_factory=list)
    finalize_cursor: int = 0
    commitments: set = field(default_factory=set)
    root_timestamps: dict = field(default_factory=dict)
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


def _recommit(state: ContractState):
    state.state_commitment = lightclient.state_commitment_value(
        state.local_root_digest, state.exposed_digest, state.hash_params
    )


def contract_setup(
    chain_id: str,
    genesis: BlockHeader,
    params: ProofParams,
    denomination: int,
    *,
    epsilon: int,
    relay_delay: int,
    native: bool,
    events: list,
    now: int,
) -> ContractState:
    """A chain's contract, fully set up: a tree of the circuit's height
    (`params.height`), the other chain's genesis header installed, and both
    root lists seeded with the shared empty root.  Appends its `setup` event to
    `events`, the transcript the contract keeps writing to."""
    if relay_delay < 1:
        raise ContractError("bad-delay", "relay_delay must be >= 1")
    if relay_delay + epsilon < 0:
        raise ContractError("bad-delay", "relay_delay + epsilon must be >= 0")
    if denomination <= 0:
        raise ContractError("bad-denomination", "denomination must be positive")
    if genesis.height != 0:
        raise ContractError("bad-genesis", "genesis must have height 0")
    genesis_digest = header_digest(genesis, params.hash_params)
    if genesis_digest >= genesis.work_target:
        raise ContractError("bad-genesis", "genesis fails its own work target")
    tree = mt_setup(params.height, params.hash_params)
    state = ContractState(chain_id, denomination, epsilon, relay_delay, native, tree, params, events)
    empty_root = tree.root
    state.local_root_set.add(empty_root)
    state.local_root_digest = hash2(0, empty_root, params.hash_params)
    _recommit(state)
    # the remote side runs the same tree shape, so its empty root is known
    state.remote_roots.append(empty_root)
    state.remote_root_set.add(empty_root)
    state.remote_root_digests.append(state.local_root_digest)
    state.root_timestamps[empty_root] = now
    state.remote_headers.append(genesis)
    state.remote_header_digests.append(genesis_digest)
    state.emit(
        now,
        "setup",
        height=params.height,
        denomination=denomination,
        epsilon=epsilon,
        relay_delay=relay_delay,
        empty_root=empty_root,
    )
    return state


def deposit(state: ContractState, amount: int, commitment: FieldElement, now: int) -> int:
    """Fixed-denomination deposit of a note commitment; returns the leaf index."""
    if amount != state.denomination:
        raise ContractError(
            "wrong-amount", f"deposit {amount} != denomination {state.denomination}"
        )
    if commitment in state.commitments:
        raise ContractError("duplicate-commitment", "commitment already deposited")
    index = len(state.tree.leaves)
    if not mt_add(state.tree, commitment):
        raise ContractError("tree-full", "accumulator at capacity")
    state.commitments.add(commitment)
    new_root = state.tree.root
    state.local_root_set.add(new_root)
    state.local_root_digest = hash2(state.local_root_digest, new_root, state.hash_params)
    _recommit(state)
    state.root_timestamps.setdefault(new_root, now)
    state.balance += amount
    state.total_deposited += amount
    state.emit(now, "deposit", index=index, commitment=commitment, new_root=new_root)
    return index


def submit_withdrawal(
    state: ContractState, stmt: Statement, proof: Proof, recipient: str, now: int
) -> str:
    """Validate roots, nullifier freshness, and the proof; expose the
    nullifier immediately and queue payout for now + relay_delay + epsilon."""
    if stmt.root_a not in state.local_root_set:
        raise ContractError("unknown-local-root", "root_a not in this contract's history")
    if stmt.root_b not in state.remote_root_set:
        raise ContractError("unknown-remote-root", "root_b not relayed to this contract")
    if stmt.nullifier in state.nullifiers:
        raise ContractError("nullifier-known", "nullifier already seen")
    if not zkrel.zk_verify(state.params, stmt, proof):
        raise ContractError("invalid-proof", "proof rejected")
    pending_id = f"{state.chain_id}{len(state.pending_withdrawals)}"
    finalize_at = now + state.relay_delay + state.epsilon
    pw = PendingWithdrawal(pending_id, stmt, recipient, finalize_at)
    state.pending_withdrawals.append(pw)
    state.nullifiers[stmt.nullifier] = NullifierRecord(withdrawal=pw)
    state.exposed_nullifiers.append(stmt.nullifier)
    state.exposed_digest = hash2(state.exposed_digest, stmt.nullifier, state.hash_params)
    _recommit(state)
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
        state.finalize_cursor += 1
        if pw.status != PENDING:
            continue  # cancelled
        pw.status = FINALIZED
        if state.native:
            if state.balance < state.denomination:
                raise ContractError(
                    "insolvent", f"{state.chain_id} cannot cover withdrawal {pw.pending_id}"
                )
            state.balance -= state.denomination
            mode = "native"
        else:
            state.wrapped_minted += state.denomination
            mode = "wrapped"
        state.credits[pw.recipient] = state.credits.get(pw.recipient, 0) + state.denomination
        events.append(
            state.emit(
                now,
                "withdraw-finalized",
                wid=pw.pending_id,
                nullifier=pw.statement.nullifier,
                recipient=pw.recipient,
                amount=state.denomination,
                mode=mode,
            )
        )
    return events


def on_duplicate_nullifier(state: ContractState, sn: FieldElement, now: int) -> list:
    """A relayed copy of a locally exposed nullifier arrived: burn it for good, and
    cancel the withdrawal that exposed it if still pending; nullifier-known allows no other."""
    record = state.nullifiers.get(sn)
    if record is None:
        raise ContractError("unknown-nullifier", "duplicate signal for unseen nullifier")
    record.burned = True
    events = []
    pw = record.withdrawal
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
        state.emit(now, "state-rejected", reason=result.reason)
        return result
    duplicates = []
    for sn in result.installed_nullifiers:
        known = state.nullifiers.get(sn)
        if known is None:
            state.nullifiers[sn] = NullifierRecord()
        elif known.withdrawal is not None and not known.burned:
            duplicates.append(sn)
        # relayed or already-burned copies are idempotent no-ops
    if result.installed_roots or result.installed_nullifiers:
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
    ContractError("invariant") naming the invariant and the values compared."""
    roots, digests = len(state.remote_roots), len(state.remote_root_digests)
    paid = [p.statement.nullifier for p in state.pending_withdrawals if p.status == FINALIZED]
    if state.balance < 0:
        broken = f"balance >= 0, but balance = {state.balance}"
    elif roots != len(state.remote_root_set):
        broken = f"remote roots distinct, but {roots} hold {len(state.remote_root_set)} values"
    elif digests != roots + 1:
        broken = f"one digest per remote root prefix, but {digests} for {roots} roots"
    elif not all(map(state.nullifiers.__contains__, state.exposed_nullifiers)):
        unknown = [sn for sn in state.exposed_nullifiers if sn not in state.nullifiers]
        broken = f"exposed nullifiers known, but {len(unknown)} unknown, first {fe_hex(unknown[0])}"
    elif len(set(paid)) != len(paid):
        broken = f"one payout per nullifier, but {len(paid)} payouts for {len(set(paid))} nullifiers"
    else:
        return
    raise ContractError("invariant", f"{state.chain_id} invariant broken: {broken}")
