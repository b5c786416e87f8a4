"""Deterministic discrete-event simulation of two bridged chains.

Integer ticks; within each tick the phases run in a fixed order:

    DELIVER   relayed headers/state scheduled for this tick arrive
    USER      scripted deposits, withdrawals, and reward claims execute
    MINE      each chain mines one header committing its contract's digests
    RELAY     relayers send what the receiver's view lacks, delivered at +delay
    FINALIZE  pending withdrawals whose delay elapsed pay out

Detection therefore precedes finalization within a tick, which is exactly the
boundary the delayed-withdrawal safety argument needs.  The whole run is a
pure function of (scenario, seed).
"""
from __future__ import annotations

import copy
import dataclasses
import random
import re
from dataclasses import dataclass

from . import contract as contract_mod
from . import incentives as incentives_mod
from .contract import ContractError, ContractState
from .field_hash import FieldElement, P, fe_hex, make_params
from .incentives import RewardSpec
from .lightclient import StateAttestation, mine_header, state_commitment_value
from .merkle import mt_path, zero_subtree_roots
from .zkrel import (
    DepositNote,
    Statement,
    Witness,
    make_note,
    zk_prove,
    zk_setup,
)

CHAINS = ("A", "B")  # A holds the native asset, B mints its wrapped twin

WORK_TARGET = P >> 2  # every header's proof-of-work target: a try succeeds with odds about 1/4

USER_ACTIONS = ("deposit", "submit_withdrawal", "incentive_claim")

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

INT64 = range(-(2**63), 2**63)  # every integer a scenario field may hold

# make_params derives rounds - 1 constants, each hashed at `rounds` rounds, so
# set-up time grows with the square of hash_rounds
MAX_HASH_ROUNDS = 256

# a run takes time in proportion to its horizon, and a race sweep makes
# 2(2(D + epsilon) + 1) runs, each of which executes on its own the ticks from
# its second submission until its outcome is settled, up to a cap of 2D +
# |epsilon| + 4 ticks that a late event stretches, so a sweep's time grows
# with the square of D + epsilon; MAX_SWEEP_TICKS bounds the sum of the caps
MAX_HORIZON = 2**16
MAX_DELAY = 64  # the most relay_delay, epsilon or a relayer's delay may be
# the most ticks one race sweep may execute: two trunks of MAX_HORIZON ticks
# and as many fork ticks again.  Within the bounds above, a sweep needs at
# most about 2.3 * 10^5 unless a late event stretches its runs.  On a 2-CPU
# Xeon host, a sweep of 2.5 * 10^5 ticks that mine new headers takes 37 s at
# 64 hash rounds and 115 s at 256
MAX_SWEEP_TICKS = 2**18


class ScenarioError(ValueError):
    def __init__(self, field_name: str, message: str):
        super().__init__(f"scenario field '{field_name}': {message}")
        self.field_name = field_name


class SimInvariantError(Exception):
    """A run stopped mid-way; carries the partial transcript and the reason:
    `insolvent` (a payout the contract cannot cover) or `invariant`."""

    def __init__(self, message: str, transcript: "Transcript", reason: str):
        super().__init__(message)
        self.transcript = transcript
        self.reason = reason


@dataclass(frozen=True)
class SimEvent:
    at: int
    chain: str
    action: str
    note: str
    recipient: str = ""  # submit_withdrawal only
    claimant: str = ""  # incentive_claim only
    age: int | None = None  # incentive_claim's asserted lock age; None claims the true age


@dataclass(frozen=True)
class RelayerSpec:
    id: str
    delay: int
    honest: bool = True  # dishonest relayers forward headers but withhold state


@dataclass(frozen=True)
class AdversarySpec:
    """Double-withdraw attacker: one note, two submissions gap ticks apart."""

    note: str
    deposit_chain: str
    deposit_at: int
    first_chain: str
    first_at: int
    gap: int = 0


@dataclass(frozen=True)
class Scenario:
    seed: int
    horizon: int
    tree_height: int = 4
    epsilon: int = 1
    relay_delay: int = 2  # the protocol bound D
    hash_rounds: int = 64
    name: str = "scenario"  # a free-form label; no output reads it
    relayers: tuple = ()
    events: tuple = ()
    adversary: AdversarySpec | None = None
    rewards: dict = dataclasses.field(default_factory=dict)  # chain -> RewardSpec


def other_chain(chain: str) -> str:
    return "B" if chain == "A" else "A"


def validate_scenario(sc: Scenario):
    """Range checks; epsilon may go down to -relay_delay, the negative control."""
    if not 1 <= sc.horizon <= MAX_HORIZON:
        raise ScenarioError("horizon", f"must be in [1, {MAX_HORIZON}]")
    if not 1 <= sc.tree_height <= 32:
        raise ScenarioError("tree_height", "must be in [1, 32]")
    if not 1 <= sc.relay_delay <= MAX_DELAY:
        raise ScenarioError("relay_delay", f"must be in [1, {MAX_DELAY}]")
    if sc.relay_delay + sc.epsilon < 0:
        raise ScenarioError("epsilon", "relay_delay + epsilon must be >= 0")
    if sc.epsilon > MAX_DELAY:
        raise ScenarioError("epsilon", f"must be <= {MAX_DELAY}")
    if not 1 <= sc.hash_rounds <= MAX_HASH_ROUNDS:
        raise ScenarioError("hash_rounds", f"must be in [1, {MAX_HASH_ROUNDS}]")
    for i, spec in enumerate(sc.relayers):
        if not 1 <= spec.delay <= MAX_DELAY:  # one read: a test relayer draws anew on each
            raise ScenarioError(f"relayers[{i}].delay", f"must be in [1, {MAX_DELAY}]")
        if not _NAME_RE.match(spec.id):
            raise ScenarioError(f"relayers[{i}].id", "invalid identifier")
    for i, ev in enumerate(sc.events):
        where = f"events[{i}]"
        if not 0 <= ev.at < sc.horizon:
            raise ScenarioError(f"{where}.at", f"tick {ev.at} outside [0, {sc.horizon})")
        if ev.chain not in CHAINS:
            raise ScenarioError(f"{where}.chain", "must be 'A' or 'B'")
        if ev.action not in USER_ACTIONS:
            raise ScenarioError(f"{where}.action", f"unknown action {ev.action!r}")
        if not ev.note:
            raise ScenarioError(f"{where}.note", "note id required")
        if ev.age is not None and ev.age < 0:
            raise ScenarioError(f"{where}.age", "must be >= 0")
        if ev.action == "submit_withdrawal" and not _NAME_RE.match(ev.recipient):
            raise ScenarioError(f"{where}.recipient", "recipient required")
        if ev.action == "incentive_claim":
            if not _NAME_RE.match(ev.claimant):
                raise ScenarioError(f"{where}.claimant", "claimant required")
            if ev.chain not in sc.rewards:
                raise ScenarioError(f"{where}", f"no reward scheme configured on {ev.chain}")
    adv = sc.adversary
    if adv is not None:
        if not adv.note:
            raise ScenarioError("adversary.note", "note id required")
        # a note the script also names makes the adversary's deposit a
        # duplicate, so its submissions would race that note's spends
        if any(ev.note == adv.note for ev in sc.events):
            raise ScenarioError("adversary.note", f"{adv.note!r} is also a scripted event's note")
        if adv.deposit_chain not in CHAINS:
            raise ScenarioError("adversary.deposit_chain", "must be 'A' or 'B'")
        if adv.first_chain not in CHAINS:
            raise ScenarioError("adversary.first_chain", "must be 'A' or 'B'")
        if adv.deposit_at < 0:
            raise ScenarioError("adversary.deposit_at", "must be >= 0")
        if adv.first_at < adv.deposit_at + sc.relay_delay:
            raise ScenarioError(
                "adversary.first_at",
                "must be >= deposit_at + relay_delay so either chain can verify",
            )
        if adv.gap < 0:
            raise ScenarioError("adversary.gap", "must be >= 0")
        last = adv.first_at + adv.gap
        if last >= sc.horizon:
            raise ScenarioError("horizon", f"too short for adversary submissions (need > {last})")
    for chain, spec in sc.rewards.items():
        if chain not in CHAINS:
            raise ScenarioError(f"rewards.{chain}", "chain must be A or B")
        if spec.rate < 0:
            raise ScenarioError(f"rewards.{chain}.rate", "must be >= 0")
        if spec.min_lock < 0:
            raise ScenarioError(f"rewards.{chain}.min_lock", "must be >= 0")


@dataclass(frozen=True)
class DepositInfo:
    chain: str
    index: int


@dataclass
class Transcript:
    """Ordered public event log of one run, plus final-state handles for the
    analyses that need them."""

    scenario: Scenario
    events: list
    contracts: dict
    notes: dict

    def render(self) -> str:
        return "\n".join(e.to_line() for e in self.events) + "\n"


@dataclass
class _ChainNode:
    contract: ContractState
    headers: list  # the chain's own full header chain, genesis first
    tip_digest: FieldElement  # header_digest(headers[-1]), from the mining search
    committed: tuple  # the contract's (local_root_digest, exposed_digest) headers[-1] commits to


class _Engine:
    def __init__(self, scenario: Scenario):
        self._set_scenario(scenario)
        self.params = make_params(scenario.hash_rounds)
        self.events: list = []  # shared, globally ordered transcript
        # both chains share tree shape, so both genesis headers commit the
        # same empty state; mine one header and install it on both sides
        empty_root = zero_subtree_roots(scenario.tree_height, self.params)[-1]
        _, initial_commitment = contract_mod.empty_state_digests(empty_root, self.params)
        genesis, genesis_digest = mine_header(0, 0, initial_commitment, WORK_TARGET, self.params)
        # one circuit for the shared tree height: every proof and both contracts use it
        self.proof_params = zk_setup(scenario.tree_height, self.params)
        self.nodes: dict = {}
        for chain in CHAINS:
            c = contract_mod.contract_setup(
                chain,
                genesis,
                self.proof_params,
                epsilon=scenario.epsilon,
                relay_delay=scenario.relay_delay,
                native=(chain == "A"),
                events=self.events,
            )
            self.nodes[chain] = _ChainNode(c, [genesis], genesis_digest, (c.local_root_digest, c.exposed_digest))
        self.contracts = [self.nodes[chain].contract for chain in CHAINS]
        self.notes: dict = {}
        self.deposits: dict = {}  # nullifier -> DepositInfo, for every note deposited on either chain
        self.deliveries: dict = {}  # tick -> ordered list of (kind, chain, header or attestation)
        self.tick = 0  # the next tick to run

    def fork(self, scenario: Scenario) -> "_Engine":
        """A copy of this engine at its current tick that runs `scenario`'s
        schedule from here on.  It shares only immutable values (event
        records, headers, notes, attestations, parameters) and copies every
        container a tick mutates, each pending withdrawal included, since its
        status changes.  Running `scenario` from tick 0 must reach this
        engine's state at this tick; `_Trunk.branch` checks that it does."""
        twin = copy.copy(self)
        twin._set_scenario(scenario)
        twin.events = list(self.events)
        twin.nodes = {
            chain: _ChainNode(_fork_contract(node.contract, twin.events), list(node.headers),
                              node.tip_digest, node.committed)
            for chain, node in self.nodes.items()
        }
        twin.contracts = [twin.nodes[chain].contract for chain in CHAINS]
        twin.notes = dict(self.notes)
        twin.deposits = dict(self.deposits)
        twin.deliveries = {tick: list(bucket) for tick, bucket in self.deliveries.items()}
        return twin

    def _set_scenario(self, scenario: Scenario):
        """Validate `scenario` and run its schedule from here on."""
        validate_scenario(scenario)
        self.scenario = scenario
        self.user_events = _schedule(scenario)
        self.last_event = max(self.user_events, default=-1)  # the tick of the last user event

    # -- note/derivation helpers ------------------------------------------
    def note(self, note_id: str) -> DepositNote:
        existing = self.notes.get(note_id)
        if existing is not None:
            return existing
        rng = random.Random(f"{self.scenario.seed}:{note_id}")
        note = make_note(rng.randrange(P), rng.randrange(P), self.params)
        self.notes[note_id] = note
        return note

    def _deposit(self, note_id: str) -> DepositInfo:
        dep = self.deposits.get(self.note(note_id).nullifier)
        if dep is None:
            raise ContractError("no-deposit", "note was never deposited")
        return dep

    def _prove(self, note_id: str, root_a, root_b, path, selector: int):
        """Statement and proof that `note_id`'s commitment sits under root_a
        (selector 0) or root_b (selector 1).  Callers read `path` from the
        tree that made the selected root, so the witness satisfies the
        relation; the contract's zk_verify checks it all the same."""
        note = self.note(note_id)
        stmt = Statement(root_a, root_b, note.nullifier)
        return stmt, zk_prove(self.proof_params, stmt, Witness(note.r, note.s, path, selector))

    def build_withdrawal(self, note_id: str, on_chain: str):
        dep = self._deposit(note_id)
        target = self.nodes[on_chain].contract
        if dep.chain == on_chain:
            path = mt_path(target.tree, dep.index)
            return self._prove(note_id, target.tree.root, target.remote_roots[-1], path, 0)
        source = self.nodes[dep.chain].contract
        # remote_roots is a prefix of the source's root history, so its newest
        # root covers len - 1 leaves; if that misses the deposit, target the
        # source's live root and let the contract reject it as unknown
        count = len(target.remote_roots) - 1
        if count <= dep.index:
            count = len(source.tree.leaves)
        path = mt_path(source.tree, dep.index, leaf_count=count)
        return self._prove(note_id, target.tree.root, source.tree.root_history[count], path, 1)

    def build_reward_claim(self, note_id: str, on_chain: str, age, now: int):
        dep = self._deposit(note_id)
        if dep.chain != on_chain:
            raise ContractError("wrong-chain", "claims are made where the note is locked")
        c = self.nodes[on_chain].contract
        path = mt_path(c.tree, dep.index, leaf_count=dep.index + 1)
        root = c.tree.root_history[dep.index + 1]  # the root the deposit made
        stmt, proof = self._prove(note_id, root, c.remote_roots[-1], path, 0)
        if age is None:
            age = now - c.local_roots[root]  # honest agents claim the true lock duration
        return stmt, proof, int(age)

    # -- tick phases --------------------------------------------------------
    def _deliver(self, now: int):
        for kind, chain, item in self.deliveries.pop(now, []):
            c = self.nodes[chain].contract
            if kind == "header":
                contract_mod.on_relayed_header(c, item, now)
            else:
                contract_mod.on_relayed_state(c, item, now)

    def _user(self, now: int):
        for ev in self.user_events.get(now, []):
            c = self.nodes[ev.chain].contract
            note_id = ev.note
            if ev.action == "deposit":
                note = self.note(note_id)
                try:
                    index = contract_mod.deposit(c, note.commitment, now)
                except ContractError as err:
                    c.emit(now, "deposit-rejected", commitment=note.commitment, reason=err.reason)
                    continue
                self.deposits[note.nullifier] = DepositInfo(ev.chain, index)
            elif ev.action == "submit_withdrawal":
                try:
                    stmt, proof = self.build_withdrawal(note_id, ev.chain)
                    contract_mod.submit_withdrawal(c, stmt, proof, ev.recipient, now)
                except ContractError as err:
                    c.emit(
                        now,
                        "withdraw-rejected",
                        nullifier=self.note(note_id).nullifier,
                        recipient=ev.recipient,
                        reason=err.reason,
                    )
            elif ev.action == "incentive_claim":
                try:
                    stmt, proof, age = self.build_reward_claim(note_id, ev.chain, ev.age, now)
                    incentives_mod.claim_reward(
                        c, self.scenario.rewards[ev.chain], stmt, proof, age, ev.claimant, now
                    )
                except ContractError as err:
                    c.emit(
                        now,
                        "reward-rejected",
                        nullifier=self.note(note_id).nullifier,
                        claimant=ev.claimant,
                        reason=err.reason,
                    )

    def _mine(self, now: int):
        for chain in CHAINS:
            node = self.nodes[chain]
            c = node.contract
            digests = (c.local_root_digest, c.exposed_digest)
            commitment = node.headers[-1].state_commitment
            if digests != node.committed:  # hashed only when the state changed since the last header
                commitment, node.committed = state_commitment_value(*digests, self.params), digests
            header, node.tip_digest = mine_header(
                len(node.headers), node.tip_digest, commitment, WORK_TARGET, self.params
            )
            node.headers.append(header)
            c.emit(now, "header-mined", height=header.height)

    def _relay(self, now: int):
        """Each relayer sends what the receiver's view lacks, so an entry in
        flight is sent again each tick until it lands: a send that overtakes
        an earlier one leaves no gap, and a copy that lands after its
        entries did is stale and dropped unhashed."""
        for spec in self.scenario.relayers:
            bucket = self.deliveries.setdefault(now + spec.delay, [])
            for src in CHAINS:
                node, dst = self.nodes[src], other_chain(src)
                view = self.nodes[dst].contract
                for header in node.headers[len(view.remote_headers):]:
                    bucket.append(("header", dst, header))
                if not spec.honest:
                    continue  # withholds bridge state
                c = node.contract
                roots_from, nulls_from = len(view.remote_roots), len(view.remote_exposed)
                roots = tuple(c.tree.root_history[roots_from:])
                nulls = tuple(pw.statement.nullifier for pw in c.pending_withdrawals[nulls_from:])
                if roots or nulls:
                    att = StateAttestation(node.headers[-1].height, roots_from, roots, nulls_from, nulls)
                    bucket.append(("state", dst, att))

    def _finalize(self, now: int):
        """Pay out what fell due; each payout must spend a note the engine
        deposited, which a light client fed forged state can break."""
        for chain in CHAINS:
            for e in contract_mod.process_tick(self.nodes[chain].contract, now):
                sn = e.get("nullifier")
                if sn not in self.deposits:
                    raise ContractError(
                        "invariant",
                        f"{chain} invariant broken: every payout spends a deposited note,"
                        f" but {e.get('wid')} paid nullifier {fe_hex(sn)}, which no deposit made",
                    )

    def _transcript(self) -> Transcript:
        return Transcript(
            scenario=self.scenario,
            events=self.events,
            contracts={chain: self.nodes[chain].contract for chain in CHAINS},
            notes=dict(self.notes),
        )

    def step(self, now: int):
        """Run tick `now`'s five phases, then the per-tick checks; a failed
        check raises SimInvariantError with the transcript so far."""
        self._deliver(now)
        self._user(now)
        self._mine(now)
        self._relay(now)
        contracts = self.contracts
        try:
            self._finalize(now)  # an uncovered or unbacked payout raises
            for c in contracts:
                contract_mod.check_contract_invariants(c)
            if not contract_mod.conservation_holds(contracts):
                terms = "; ".join(
                    f"{c.chain_id} balance {c.balance}, credits {sum(c.credits.values())},"
                    f" deposited {c.total_deposited}, wrapped {c.wrapped_minted},"
                    f" gov {c.gov_total}, gov minted {sum(c.gov_minted.values())}"
                    for c in contracts
                )
                raise ContractError("invariant", f"value conservation broken: {terms}")
        except ContractError as err:
            raise SimInvariantError(f"tick {now}: {err}", self._transcript(), err.reason)

    def advance(self, until: int, until_settled: bool = False):
        """Run the ticks from self.tick up to, not including, `until`, or
        with `until_settled` until `settled()` if that comes first."""
        while self.tick < until and not (until_settled and self.settled()):
            self.step(self.tick)
            self.tick += 1

    def settled(self) -> bool:
        """No user event is left and no withdrawal is pending on either
        chain, so no later tick can pay, cancel or reject a withdrawal: only
        FINALIZE pays and only a relayed nullifier cancels, each a pending
        one, and every submission is a user event."""
        return self.tick > self.last_event and not any(
            pw.status == contract_mod.PENDING
            for c in self.contracts
            for pw in c.pending_withdrawals[c.finalize_cursor:]
        )

    def run(self, until_settled: bool = False) -> Transcript:
        self.advance(self.scenario.horizon, until_settled)
        return self._transcript()


def _fork_contract(c: ContractState, events: list) -> ContractState:
    """A copy of `c` appending to `events` that shares no mutable container
    with it; the nullifier map points at the copied pending withdrawals."""
    twin = copy.copy(c)
    for f in dataclasses.fields(c):
        value = getattr(c, f.name)
        if isinstance(value, (list, dict, set)):
            setattr(twin, f.name, value.copy())
    twin.events = events
    tree = c.tree
    twin.tree = dataclasses.replace(
        tree, leaves=list(tree.leaves), nodes=tree.nodes[:], root_history=list(tree.root_history)
    )
    twin.pending_withdrawals = [copy.copy(pw) for pw in c.pending_withdrawals]
    twin_of = {id(pw): twin_pw for pw, twin_pw in zip(c.pending_withdrawals, twin.pending_withdrawals)}
    twin.nullifiers = {sn: None if pw is None else twin_of[id(pw)] for sn, pw in c.nullifiers.items()}
    return twin


def _schedule(scenario: Scenario) -> dict:
    """Tick -> the user events a run of `scenario` executes at it, in order."""
    schedule: dict = {}
    for ev in (*scenario.events, *_adversary_events(scenario.adversary)):
        schedule.setdefault(ev.at, []).append(ev)
    return schedule


def _adversary_events(adv: AdversarySpec | None) -> list:
    if adv is None:
        return []
    second_chain = other_chain(adv.first_chain)
    return [
        SimEvent(adv.deposit_at, adv.deposit_chain, "deposit", adv.note),
        SimEvent(adv.first_at, adv.first_chain, "submit_withdrawal", adv.note, "adv-first"),
        SimEvent(adv.first_at + adv.gap, second_chain, "submit_withdrawal", adv.note, "adv-second"),
    ]


class _Trunk:
    """One interleaving that others branch from.  Its engine is built by the
    first branch and only moves forward: each branch advances it to the
    first tick at which the branch's schedule differs from the trunk's and
    forks it there, so the ticks before run once for every branch.  The
    trunk's own scenario finishes the engine itself.  Advancing never stops
    early; only `run` stops a branch, or the trunk, once it is settled."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.engine: _Engine | None = None

    def branch(self, scenario: Scenario) -> _Engine:
        """An engine at the tick where `scenario` leaves the trunk.  Raises
        ValueError if `scenario` differs from the trunk's in more than its
        schedule (events and adversary) and horizon, or leaves the trunk at
        a tick the trunk has passed."""
        own = self.scenario
        if dataclasses.replace(scenario, events=own.events, adversary=own.adversary, horizon=own.horizon) != own:
            raise ValueError("a branch may differ from its trunk only in its schedule and horizon")
        if self.engine is None:
            self.engine = _Engine(own)
        trunk = self.engine
        if scenario == own:
            return trunk
        schedule = _schedule(scenario)
        differ = (t for t in schedule.keys() | trunk.user_events.keys() if schedule.get(t) != trunk.user_events.get(t))
        at = min(scenario.horizon, own.horizon, *differ)
        if at < trunk.tick:
            raise ValueError(f"the branch leaves its trunk at tick {at}, which the trunk has passed ({trunk.tick})")
        try:
            trunk.advance(at)
        except SimInvariantError as err:
            self.engine = None  # stopped mid-tick: a later branch starts a fresh trunk
            err.transcript.scenario = scenario  # the branch would have stopped here too
            raise
        return trunk.fork(scenario)


def run(scenario: Scenario, trunk: _Trunk | None = None) -> Transcript:
    """Execute a scenario; the transcript is a pure function of (scenario, seed).
    Without `trunk` the run lasts the whole horizon.  With `trunk`, the
    ticks `scenario` shares with the trunk's interleaving are executed once
    for both (`_Trunk.branch`), and the run stops once it is settled
    (`_Engine.settled`), so its transcript is a whole-horizon run's cut
    before that tick, and reports the same payouts and cancellations."""
    if trunk is None:
        return _Engine(scenario).run()
    return trunk.branch(scenario).run(until_settled=True)


# -- race exploration ---------------------------------------------------------

@dataclass(frozen=True)
class RaceRow:
    t_prime: int
    order: str  # "A->B" or "B->A"
    payouts: int
    cancellations: int
    second_rejected: bool
    honest_payouts: int


@dataclass
class RaceReport:
    relay_delay: int
    epsilon: int
    rows: list

    @property
    def double_payout_rows(self) -> list:
        return [row for row in self.rows if row.payouts > 1]

    def max_payouts(self) -> int:
        return max((row.payouts for row in self.rows), default=0)

    def render_lines(self) -> list:
        lines = [
            f"# race sweep: D={self.relay_delay} epsilon={self.epsilon}",
            f"{'t_prime':>8} {'order':>6} {'payouts':>8} {'cancels':>8} {'second_rejected':>16} {'honest_payouts':>15}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.t_prime:>8} {row.order:>6} {row.payouts:>8} {row.cancellations:>8}"
                f" {str(row.second_rejected).lower():>16} {row.honest_payouts:>15}"
            )
        return lines

    def summary(self) -> dict:
        return {
            "relay_delay": self.relay_delay,
            "epsilon": self.epsilon,
            "runs": len(self.rows),
            "max_payouts": self.max_payouts(),
            "double_payouts": len(self.double_payout_rows),
        }


_TALLY_KINDS = frozenset({"withdraw-finalized", "withdraw-cancelled", "withdraw-rejected"})
_NO_EVENTS = (0, 0, False)


def _note_tallies(transcript: Transcript) -> tuple:
    """From one walk of the events: nullifier -> (payouts, cancels,
    rejected), where a nullifier with no such event reads _NO_EVENTS and
    `rejected` means rejected as nullifier-known; and nullifier -> its first
    withdrawal rejected for any other reason."""
    tallies: dict = {}
    refused: dict = {}
    for e in transcript.events:
        if e.kind not in _TALLY_KINDS:
            continue
        sn = e.get("nullifier")
        payouts, cancels, rejected = tallies.get(sn, _NO_EVENTS)
        if e.kind == "withdraw-finalized":
            payouts += 1
        elif e.kind == "withdraw-cancelled":
            cancels += 1
        elif e.get("reason") == "nullifier-known":
            rejected = True
        else:
            refused.setdefault(sn, e)
        tallies[sn] = (payouts, cancels, rejected)
    return tallies, refused


def check_race_sweep(base: Scenario) -> tuple:
    """The checks a race sweep makes before its first run: `base` has an
    adversary, its window of gaps is not empty, its widest interleaving fits
    in MAX_HORIZON, and the ticks the sweep may execute fit in
    MAX_SWEEP_TICKS.  Raises ScenarioError; returns the horizon of the
    interleaving at each gap t' in [0, 2(D + epsilon)].

    Each horizon is a cap: a run stops sooner once it is settled
    (`_Engine.settled`).  The interleaving at gap t' settles the
    adversary's note by slack + t'.  Every other submission pays, is
    cancelled or is rejected by its own tick + D + epsilon, and none
    follows the last event, so the cap is one tick past that, or the file's
    horizon if that comes first.  The count bounds what the sweep executes:
    per order, the widest interleaving's ticks up to its cap, and each
    narrower one's from its second submission, first_at + t', up to its
    cap (`_Trunk`)."""
    adv = base.adversary
    if adv is None:
        raise ScenarioError("adversary", "race exploration requires an adversary spec")
    # each run checks its own adversary, whose gap the sweep sets; this check
    # keeps relay_delay + epsilon >= 0, so the window is never empty
    validate_scenario(dataclasses.replace(base, adversary=None))
    wait = base.relay_delay + base.epsilon
    widest = 2 * wait
    slack = adv.first_at + 2 * base.relay_delay + abs(base.epsilon) + 4
    if slack + widest > MAX_HORIZON:
        raise ScenarioError("adversary.first_at", f"the sweep needs horizon {slack + widest}, over {MAX_HORIZON}")
    settled = min(base.horizon, max((ev.at + wait + 1 for ev in base.events), default=0))
    horizons = tuple(max(slack + t_prime, settled) for t_prime in range(widest + 1))
    forks = sum(horizon - adv.first_at - t_prime for t_prime, horizon in enumerate(horizons[:-1]))
    ticks = 2 * (horizons[-1] + forks)
    if ticks > MAX_SWEEP_TICKS:
        raise ScenarioError(
            "events",
            f"the sweep would execute {ticks} ticks, over {MAX_SWEEP_TICKS}: its runs last until tick {settled}",
        )
    return horizons


def explore_races(base: Scenario) -> RaceReport:
    """One run per (t', submission order), for every submission gap t' in
    [0, 2(D + epsilon)]: twice the wait of D + epsilon during which both
    submissions can be pending at once.  Reports payouts and cancellations
    for the adversary's note in each interleaving.  Each run stops at the
    tick it is settled, with no user event left and no withdrawal pending
    (`run` with a trunk), or at its cap (`check_race_sweep`) if that comes
    first, and reports what a run to the file's horizon does.  A sweep in
    which an adversary submission is rejected for any reason other than
    nullifier-known never raced: it raises ScenarioError naming t', the
    order and the reason.

    Every execution verifies what it meets: each relayed header, and the
    relation of each proof.  Interleavings share the execution of their
    common prefix: per submission order, the widest interleaving is a trunk
    (`_Trunk`), and each narrower one forks from it at its second
    submission, so the deposits, relays and first submission run once per
    order.  The prover's side is shared through caches: a header that
    several interleavings mine is searched for once (`mine_header`), and
    each note is derived once (`make_note`).  No verifier value is cached."""
    horizons = check_race_sweep(base)
    widest = len(horizons) - 1
    orders = (base.adversary.first_chain, other_chain(base.adversary.first_chain))

    def interleaving(t_prime: int, first_chain: str) -> Scenario:
        adv = dataclasses.replace(base.adversary, first_chain=first_chain, gap=t_prime)
        return dataclasses.replace(base, adversary=adv, horizon=horizons[t_prime])

    trunks = {first_chain: _Trunk(interleaving(widest, first_chain)) for first_chain in orders}
    note = base.adversary.note
    rows = []
    for t_prime in range(widest + 1):
        for first_chain in orders:
            order = f"{first_chain}->{other_chain(first_chain)}"
            transcript = run(interleaving(t_prime, first_chain), trunks[first_chain])
            tallies, refused = _note_tallies(transcript)
            sn = transcript.notes[note].nullifier
            if sn in refused:
                e = refused[sn]
                raise ScenarioError(
                    "adversary",
                    f"the race at t'={t_prime} order={order} never happened:"
                    f" {e.get('recipient')} was rejected at t={e.tick} as {e.get('reason')}",
                )
            payouts, cancels, rejected = tallies.get(sn, _NO_EVENTS)
            honest = sum(
                tallies.get(other.nullifier, _NO_EVENTS)[0]
                for note_id, other in transcript.notes.items()
                if note_id != note
            )
            rows.append(
                RaceRow(
                    t_prime=t_prime,
                    order=order,
                    payouts=payouts,
                    cancellations=cancels,
                    second_rejected=rejected,
                    honest_payouts=honest,
                )
            )
    return RaceReport(base.relay_delay, base.epsilon, rows)


def payout_table(transcript: Transcript) -> list:
    """Per-nullifier payout/cancellation tallies for a single run, one row
    (nullifier, payouts, cancels, rejected) per note."""
    tallies, _ = _note_tallies(transcript)
    return [
        (note.nullifier, *tallies.get(note.nullifier, _NO_EVENTS))
        for note in transcript.notes.values()
    ]


# -- scenario parsing ---------------------------------------------------------

# annotations are strings here (postponed); an optional int given null takes
# None, as if omitted, and any other value must be an int
_SCALARS = {"int": int, "str": str, "bool": bool, "int | None": int}


def _at(where, key):
    return f"{where}.{key}" if where else str(key)


def _typed(value, annotation, where, key):
    kind = _SCALARS.get(annotation)
    if value is None and annotation.endswith("| None"):
        return None
    if type(value) is int and value not in INT64:  # too long to print, or to seed a note
        raise ScenarioError(_at(where, key), "integer outside the signed 64-bit range")
    if kind and (isinstance(value, bool) != (kind is bool) or not isinstance(value, kind)):
        # a list or mapping is named by its type, not shown: one value can be
        # as large as the whole file
        got = type(value).__name__ if isinstance(value, (list, dict)) else repr(value)
        raise ScenarioError(_at(where, key), f"expected {kind.__name__}, got {got}")
    return value


def _entries(raw, where):
    if not isinstance(raw, list):
        raise ScenarioError(where, "expected a list")
    return [(i, f"{where}[{i}]", entry) for i, entry in enumerate(raw)]


def _build(cls, raw, where, **defaults):
    """Type-checked keyword arguments for dataclass `cls` from mapping `raw`,
    whose keys are the field names.  A missing field takes defaults[name],
    then its dataclass default, else it is required."""
    if not isinstance(raw, dict):
        raise ScenarioError(where or "<root>", "expected a mapping")
    fields = dataclasses.fields(cls)
    allowed = {f.name for f in fields}
    for key in raw:
        if key not in allowed:
            raise ScenarioError(_at(where, key), "unknown field")
    kwargs = {}
    for f in fields:
        if f.name in raw:
            kwargs[f.name] = _typed(raw[f.name], f.type, where, f.name)
        elif f.name in defaults:
            kwargs[f.name] = defaults[f.name]
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ScenarioError(_at(where, f.name), "required")
    return kwargs


def _rewards(raw) -> dict:
    """Each key names a chain, which validate_scenario checks, and holds that
    chain's spec."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ScenarioError("rewards", "expected a mapping")
    return {
        chain: RewardSpec(**_build(RewardSpec, entry, f"rewards.{chain}")) for chain, entry in raw.items()
    }


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from parsed structured text, with field-precise errors:
    names, scalar types and defaults come from the dataclasses, and
    validate_scenario checks the ranges.  Only here must epsilon be >= 0."""
    kwargs = _build(Scenario, data, "")
    delay = kwargs.get("relay_delay", Scenario.relay_delay)
    kwargs["relayers"] = tuple(
        RelayerSpec(**_build(RelayerSpec, entry, where, id=f"relayer{i}", delay=delay))
        for i, where, entry in _entries(kwargs.get("relayers", [{}]), "relayers")
    )
    kwargs["events"] = tuple(
        SimEvent(**_build(SimEvent, entry, where))
        for _, where, entry in _entries(kwargs.get("events", []), "events")
    )
    adversary = kwargs.get("adversary")
    if adversary is not None:
        kwargs["adversary"] = AdversarySpec(**_build(AdversarySpec, adversary, "adversary"))
    kwargs["rewards"] = _rewards(kwargs.get("rewards"))
    scenario = Scenario(**kwargs)
    if scenario.epsilon < 0:
        raise ScenarioError("epsilon", "must be >= 0 (negative only via override)")
    validate_scenario(scenario)
    return scenario
