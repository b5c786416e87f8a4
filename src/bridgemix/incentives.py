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

from .contract import ContractError, check_roots_known
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
    check_roots_known(state, stmt)
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
    reconstructed purely from the public event transcript in one pass.  The
    engine appends events in tick order, so an event at tick t completes every
    tick before t."""
    scenario = transcript.scenario
    denom = scenario.denomination
    native = scenario.native_chain
    horizon = scenario.horizon
    locked = {"A": 0, "B": 0}
    wrapped = {"A": 0, "B": 0}
    rewards = {"A": 0, "B": 0}
    rows = []

    def close(tick):
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

    tick = 0  # every tick before this one has its row
    for e in transcript.events:
        while tick < e.tick and tick < horizon:
            close(tick)
            tick += 1
        if e.kind == "deposit":
            locked[e.chain] += denom
        elif e.kind == "withdraw-finalized":
            if e.chain == native:
                locked[e.chain] -= denom
            else:
                wrapped[e.chain] += denom
        elif e.kind == "reward-claimed":
            rewards[e.chain] += e.get("amount")
    while tick < horizon:
        close(tick)
        tick += 1
    return LiquiditySeries(LIQUIDITY_COLUMNS, rows)
