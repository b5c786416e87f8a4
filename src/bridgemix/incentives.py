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

from .contract import DENOMINATION, ContractError, check_roots_known
from .zkrel import Proof, Statement, zk_verify


@dataclass(frozen=True)
class RewardSpec:
    rate: int = 0      # governance tokens per tick of claimed lock age
    min_lock: int = 0  # minimum total claimed age before anything pays


def claim_reward(state, cfg: RewardSpec, stmt: Statement, proof: Proof, age: int, claimant: str, now: int) -> int:
    """Validate a claim that the note behind ``stmt`` has been locked for
    ``age`` ticks, and mint governance tokens to ``claimant``.

    Returns the amount minted.  Raises ContractError with reasons
    unknown-local-root / unknown-remote-root / invalid-proof /
    already-withdrawn / age-overstated / below-min-lock / not-incremental.
    """
    check_roots_known(state, stmt)
    if not zk_verify(state.params, stmt, proof):
        raise ContractError("invalid-proof", "membership proof rejected")
    if stmt.nullifier in state.nullifiers:
        raise ContractError("already-withdrawn", "note already spent or burned")
    if age < 0:
        raise ContractError("age-overstated", "negative age")
    # age can only be bounded by what the chain can see: the older of the two
    # referenced roots must itself be at least age ticks old
    older_ts = min(state.local_roots[stmt.root_a], state.remote_root_ticks[stmt.root_b])
    if age > now - older_ts:
        raise ContractError("age-overstated", f"claimed {age} > verifiable {now - older_ts}")
    if age < cfg.min_lock:
        raise ContractError("below-min-lock", f"claimed {age} < {cfg.min_lock}")
    prev = state.reward_ages.get(stmt.nullifier, 0)
    if age <= prev:
        raise ContractError("not-incremental", f"already paid through age {prev}")
    amount = cfg.rate * (age - prev)
    state.reward_ages[stmt.nullifier] = age
    state.gov_minted[claimant] = state.gov_minted.get(claimant, 0) + amount
    state.gov_total += amount
    state.emit(now, "reward-claimed", nullifier=stmt.nullifier, claimant=claimant, age=age, amount=amount)
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
    rows: list  # one tuple per tick, cumulative values after that tick, in LIQUIDITY_COLUMNS order

    def final(self) -> dict:
        if not self.rows:
            return {c: 0 for c in LIQUIDITY_COLUMNS}
        return dict(zip(LIQUIDITY_COLUMNS, self.rows[-1]))

    def render_lines(self) -> list:
        lines = [" ".join(f"{c:>10}" for c in LIQUIDITY_COLUMNS)]
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
    reconstructed from the public event transcript in one pass; each
    contract says whether it pays natively.  The engine appends events in
    tick order, so an event at tick t completes every tick before t."""
    native = {chain: c.native for chain, c in transcript.contracts.items()}
    horizon = transcript.scenario.horizon
    # the transcript lists its contracts in chain order, the columns' order
    locked = dict.fromkeys(native, 0)
    wrapped = dict.fromkeys(native, 0)
    rewards = dict.fromkeys(native, 0)
    rows = []

    def close(tick):
        rows.append((tick, *locked.values(), *wrapped.values(), *rewards.values()))

    tick = 0  # every tick before this one has its row
    for e in transcript.events:
        while tick < e.tick and tick < horizon:
            close(tick)
            tick += 1
        if e.kind == "deposit":
            locked[e.chain] += DENOMINATION
        elif e.kind == "withdraw-finalized":
            if native[e.chain]:
                locked[e.chain] -= DENOMINATION
            else:
                wrapped[e.chain] += DENOMINATION
        elif e.kind == "reward-claimed":
            rewards[e.chain] += e.get("amount")
    while tick < horizon:
        close(tick)
        tick += 1
    return LiquiditySeries(rows)
