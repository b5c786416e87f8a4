"""Deterministic discrete-event simulation of two bridged chains.

Integer ticks; within each tick the phases run in a fixed order:

    DELIVER   relayed headers/state scheduled for this tick arrive
    USER      scripted deposits, withdrawals, and reward claims execute
    MINE      each chain mines one header committing its current state
    RELAY     relayers send what the receiver's view lacks, delivered at +delay
    FINALIZE  pending withdrawals whose delay elapsed pay out

Detection therefore precedes finalization within a tick, which is exactly the
boundary the delayed-withdrawal safety argument needs.  The whole run is a
pure function of (scenario, seed).
"""
from __future__ import annotations

import dataclasses
import random
import re
from dataclasses import dataclass

from . import contract as contract_mod
from . import incentives as incentives_mod
from .contract import DENOMINATION, ContractError, ContractState
from .field_hash import FieldElement, P, fe_hex, make_params
from .incentives import RewardSpec
from .lightclient import StateAttestation, mine_header
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

# make_params derives rounds - 1 constants, each hashed at `rounds` rounds, so
# set-up time grows with the square of hash_rounds
MAX_HASH_ROUNDS = 256


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
    if sc.horizon < 1:
        raise ScenarioError("horizon", "must be >= 1")
    if not 1 <= sc.tree_height <= 32:
        raise ScenarioError("tree_height", "must be in [1, 32]")
    if sc.relay_delay < 1:
        raise ScenarioError("relay_delay", "must be >= 1")
    if sc.relay_delay + sc.epsilon < 0:
        raise ScenarioError("epsilon", "relay_delay + epsilon must be >= 0")
    if not 1 <= sc.hash_rounds <= MAX_HASH_ROUNDS:
        raise ScenarioError("hash_rounds", f"must be in [1, {MAX_HASH_ROUNDS}]")
    for i, spec in enumerate(sc.relayers):
        if spec.delay < 1:
            raise ScenarioError(f"relayers[{i}].delay", "must be >= 1")
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
            raise ScenarioError("rewards", f"unknown chain {chain!r}")
        if spec.rate < 0:
            raise ScenarioError(f"rewards.{chain}.rate", "must be >= 0")
        if spec.min_lock < 0:
            raise ScenarioError(f"rewards.{chain}.min_lock", "must be >= 0")


@dataclass(frozen=True)
class DepositInfo:
    chain: str
    index: int
    tick: int


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


class _Engine:
    def __init__(self, scenario: Scenario):
        validate_scenario(scenario)
        self.scenario = scenario
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
            self.nodes[chain] = _ChainNode(c, [genesis], genesis_digest)
        self.notes: dict = {}
        self.deposits: dict = {}
        self.deposited_nullifiers: set = set()  # of every note deposited on either chain
        self.deliveries: dict = {}  # tick -> ordered list of (kind, chain, header or attestation)
        self.user_events: dict = {}
        for ev in scenario.events:
            self.user_events.setdefault(ev.at, []).append(ev)
        for ev in _adversary_events(scenario.adversary):
            self.user_events.setdefault(ev.at, []).append(ev)

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
        dep = self.deposits.get(note_id)
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
            age = now - dep.tick  # honest agents claim the true lock duration
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
                    index = contract_mod.deposit(c, DENOMINATION, note.commitment, now)
                except ContractError as err:
                    c.emit(now, "deposit-rejected", commitment=note.commitment, reason=err.reason)
                    continue
                self.deposits[note_id] = DepositInfo(ev.chain, index, now)
                self.deposited_nullifiers.add(note.nullifier)
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
            header, node.tip_digest = mine_header(
                len(node.headers),
                node.tip_digest,
                node.contract.state_commitment,
                WORK_TARGET,
                self.params,
            )
            node.headers.append(header)
            node.contract.emit(now, "header-mined", height=header.height)

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
                if sn not in self.deposited_nullifiers:
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

    def run(self) -> Transcript:
        contracts = [self.nodes[chain].contract for chain in CHAINS]
        for now in range(self.scenario.horizon):
            self._deliver(now)
            self._user(now)
            self._mine(now)
            self._relay(now)
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
        return self._transcript()


def _adversary_events(adv: AdversarySpec | None) -> list:
    if adv is None:
        return []
    second_chain = other_chain(adv.first_chain)
    return [
        SimEvent(adv.deposit_at, adv.deposit_chain, "deposit", adv.note),
        SimEvent(adv.first_at, adv.first_chain, "submit_withdrawal", adv.note, "adv-first"),
        SimEvent(adv.first_at + adv.gap, second_chain, "submit_withdrawal", adv.note, "adv-second"),
    ]


def run(scenario: Scenario) -> Transcript:
    """Execute a scenario; the transcript is a pure function of (scenario, seed)."""
    return _Engine(scenario).run()


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


def _note_tallies(transcript: Transcript) -> dict:
    """Nullifier -> (payouts, cancels, rejected) from one walk of the events;
    a nullifier with no such event reads _NO_EVENTS."""
    tallies: dict = {}
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
        tallies[sn] = (payouts, cancels, rejected)
    return tallies


def explore_races(base: Scenario, t_prime_range) -> RaceReport:
    """One run per (t', submission order); reports payouts and cancellations
    for the adversary's note in each interleaving.  The prover's side is
    shared through caches: a header that several interleavings mine is
    searched for once (`mine_header`), and each note is derived once
    (`make_note`).  A proof costs no hashing, so each run builds its own.
    The verifiers are not shared: every run checks each relayed header and
    evaluates the relation for each proof."""
    if base.adversary is None:
        raise ScenarioError("adversary", "race exploration requires an adversary spec")
    t_primes = list(t_prime_range)
    if not t_primes:
        raise ScenarioError("t_prime_range", "empty range")
    rows = []
    for t_prime in t_primes:
        for first_chain in (base.adversary.first_chain, other_chain(base.adversary.first_chain)):
            adv = dataclasses.replace(base.adversary, first_chain=first_chain, gap=t_prime)
            needed = adv.first_at + t_prime + 2 * base.relay_delay + abs(base.epsilon) + 4
            scenario = dataclasses.replace(base, adversary=adv, horizon=max(base.horizon, needed))
            transcript = run(scenario)
            tallies = _note_tallies(transcript)
            payouts, cancels, rejected = tallies.get(transcript.notes[adv.note].nullifier, _NO_EVENTS)
            honest = sum(
                tallies.get(note.nullifier, _NO_EVENTS)[0]
                for note_id, note in transcript.notes.items()
                if note_id != adv.note
            )
            rows.append(
                RaceRow(
                    t_prime=t_prime,
                    order=f"{first_chain}->{other_chain(first_chain)}",
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
    tallies = _note_tallies(transcript)
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
    """Each key names a chain, exactly A or B, and holds that chain's spec."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ScenarioError("rewards", "expected a mapping")
    rewards = {}
    for chain, entry in raw.items():
        where = f"rewards.{chain}"
        if chain not in CHAINS:
            raise ScenarioError(where, "chain must be A or B")
        rewards[chain] = RewardSpec(**_build(RewardSpec, entry, where))
    return rewards


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
