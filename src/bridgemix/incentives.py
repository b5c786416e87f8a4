"""Naive lock-time reward scheme, plus the liquidity metrics that expose how
easily such a scheme is drained by a higher-paying competitor.

A claim proves (with the same OR-of-two-roots relation used for withdrawal)
that some note is a member of a referenced root pair, and asserts a lock age.
The contract pays ``rate`` governance tokens per tick of *newly* claimed age,
gated so the age cannot exceed the age of the older referenced root and so no
claim pays out before ``min_lock``.  Governance tokens are a separate ledger;
they never touch deposited value.

The scheme is deliberately naive: it binds the age bound to root timestamps,
not to the note itself, which is exactly the slack a vampire deployment on the
other chain exploits by out-paying it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .contract import ContractError
from .field_hash import fe_hex
from .zkrel import Proof, Statement, zk_verify


@dataclass(frozen=True)
class RewardSpec:
    rate: int = 0      # governance tokens per tick of claimed lock age
    min_lock: int = 0  # minimum total claimed age before anything pays


@dataclass(frozen=True)
class RewardClaim:
    statement: Statement
    proof: Proof
    claimed_age: int
    claimant: str


def claim_reward(state, cfg: RewardSpec, claim: RewardClaim, now: int) -> int:
    """Validate a lock-age claim against ``state`` and mint governance tokens.

    Returns the amount minted.  Raises ContractError with reasons
    unknown-local-root / unknown-remote-root / invalid-proof /
    already-withdrawn / age-overstated / below-min-lock / not-incremental.
    """
    stmt = claim.statement
    if stmt.root_a not in state.local_roots:
        raise ContractError("unknown-local-root", f"root_a {fe_hex(stmt.root_a)} not local")
    if stmt.root_b not in state.remote_root_ticks:
        raise ContractError("unknown-remote-root", f"root_b {fe_hex(stmt.root_b)} not relayed")
    if not zk_verify(state.params, stmt, claim.proof):
        raise ContractError("invalid-proof", "membership proof rejected")
    if stmt.nullifier in state.nullifiers:
        raise ContractError("already-withdrawn", "note already spent or burned")
    if claim.claimed_age < 0:
        raise ContractError("age-overstated", "negative age")
    # age can only be bounded by what the chain can see: the older of the two
    # referenced roots must itself be at least claimed_age ticks old
    older_ts = min(state.local_roots[stmt.root_a], state.remote_root_ticks[stmt.root_b])
    if claim.claimed_age > now - older_ts:
        raise ContractError(
            "age-overstated",
            f"claimed {claim.claimed_age} > verifiable {now - older_ts}",
        )
    if claim.claimed_age < cfg.min_lock:
        raise ContractError("below-min-lock", f"claimed {claim.claimed_age} < {cfg.min_lock}")
    prev = state.reward_ages.get(stmt.nullifier, 0)
    if claim.claimed_age <= prev:
        raise ContractError("not-incremental", f"already paid through age {prev}")
    amount = cfg.rate * (claim.claimed_age - prev)
    state.reward_ages[stmt.nullifier] = claim.claimed_age
    state.gov_minted[claim.claimant] = state.gov_minted.get(claim.claimant, 0) + amount
    state.gov_total += amount
    state.emit(
        now,
        "reward-claimed",
        nullifier=stmt.nullifier,
        claimant=claim.claimant,
        age=claim.claimed_age,
        amount=amount,
    )
    return amount


# -- liquidity metrics ----------------------------------------------------------

LIQUIDITY_COLUMNS = (
    "tick",
    "locked_a",
    "locked_b",
    "wrapped_a",
    "wrapped_b",
    "rewards_a",
    "rewards_b",
)


@dataclass
class LiquiditySeries:
    columns: tuple
    rows: list  # one tuple per tick, cumulative values after that tick

    def final(self) -> dict:
        if not self.rows:
            return {c: 0 for c in self.columns}
        return dict(zip(self.columns, self.rows[-1]))

    def render_lines(self) -> list:
        lines = [" ".join(f"{c:>10}" for c in self.columns)]
        for row in self.rows:
            lines.append(" ".join(f"{v:>10}" for v in row))
        return lines

    def summary(self) -> dict:
        final = self.final()
        return {
            "ticks": len(self.rows),
            "final": final,
            "peak_locked_a": max((r[1] for r in self.rows), default=0),
            "peak_locked_b": max((r[2] for r in self.rows), default=0),
        }


def vampire_metrics(transcript) -> LiquiditySeries:
    """Per-tick locked value, wrapped supply, and cumulative rewards per chain,
    reconstructed purely from the public event transcript."""
    scenario = transcript.scenario
    denom = scenario.denomination
    native = scenario.native_chain
    locked = {"A": 0, "B": 0}
    wrapped = {"A": 0, "B": 0}
    rewards = {"A": 0, "B": 0}
    by_tick: dict = {}
    for e in transcript.events:
        by_tick.setdefault(e.tick, []).append(e)
    rows = []
    for tick in range(scenario.horizon):
        for e in by_tick.get(tick, ()):
            if e.kind == "deposit":
                locked[e.chain] += denom
            elif e.kind == "withdraw-finalized":
                if e.chain == native:
                    locked[e.chain] -= denom
                else:
                    wrapped[e.chain] += denom
            elif e.kind == "reward-claimed":
                rewards[e.chain] += e.get("amount")
        rows.append(
            (
                tick,
                locked["A"],
                locked["B"],
                wrapped["A"],
                wrapped["B"],
                rewards["A"],
                rewards["B"],
            )
        )
    return LiquiditySeries(LIQUIDITY_COLUMNS, rows)


def build_vampire_scenario(
    *,
    seed: int = 7,
    agents: int = 6,
    horizon: int = 60,
    rate_a: int = 1,
    rate_b: int = 3,
    min_lock: int = 5,
    switch_at: int = 20,
    relay_delay: int = 2,
    epsilon: int = 1,
    hash_rounds: int = 8,
) -> "simnet.Scenario":
    """Scenario where reward-seeking depositors on chain A face a competing
    mixer on chain B paying ``rate_b``.

    Each agent deposits on A early, harvests A rewards just before
    ``switch_at``, then applies one deterministic rule: move to B when the
    extra B rewards beat the age forfeited while relocking, stay otherwise.
    With rate_b == rate_a nobody moves (the relock downtime always loses);
    with rate_b sufficiently above rate_a everyone does.
    """
    from .simnet import RelayerSpec, Scenario, SimEvent  # late: simnet imports this module

    if agents < 1 or agents > 12:
        raise ValueError("agents must be in [1, 12]")
    claim_a_at = switch_at - 1
    arrival_b = switch_at + relay_delay + epsilon + 1  # A-side payout lands, relock on B
    claim_last_at = horizon - 2
    if claim_a_at - (agents - 1) < min_lock or claim_last_at - arrival_b < min_lock:
        raise ValueError("horizon too short for the claim schedule")
    events = [SimEvent(i, "A", "deposit", f"agent{i}") for i in range(agents)]
    for i in range(agents):
        agent = f"agent{i}"
        events.append(SimEvent(claim_a_at, "A", "incentive_claim", agent, claimant=agent))
    for i in range(agents):
        agent = f"agent{i}"
        dep_at = i
        gain_stay = rate_a * (claim_last_at - dep_at)
        gain_move = rate_a * (claim_a_at - dep_at) + rate_b * (claim_last_at - arrival_b)
        if gain_move > gain_stay:
            events.append(SimEvent(switch_at, "A", "submit_withdrawal", agent, recipient=agent))
            events.append(SimEvent(arrival_b, "B", "deposit", f"{agent}-b"))
            events.append(
                SimEvent(claim_last_at, "B", "incentive_claim", f"{agent}-b", claimant=agent)
            )
        else:
            events.append(SimEvent(claim_last_at, "A", "incentive_claim", agent, claimant=agent))
    events.sort(key=lambda e: e.at)
    return Scenario(
        seed=seed,
        horizon=horizon,
        relay_delay=relay_delay,
        epsilon=epsilon,
        hash_rounds=hash_rounds,
        name=f"vampire-ra{rate_a}-rb{rate_b}",
        relayers=(RelayerSpec("relayer0", relay_delay),),
        events=tuple(events),
        rewards=(("A", RewardSpec(rate_a, min_lock)), ("B", RewardSpec(rate_b, min_lock))),
    )
