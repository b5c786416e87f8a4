"""Tick-bucketed oracle for incentives.vampire_metrics.

The library makes one pass over the events and relies on the engine
appending them in tick order; this groups the events by tick first and then
walks the ticks, so it needs no order at all.  Tests compare the two on
engine transcripts.
"""
from bridgemix.contract import DENOMINATION
from bridgemix.incentives import LiquiditySeries


def liquidity_by_tick(transcript) -> LiquiditySeries:
    scenario = transcript.scenario
    locked = {"A": 0, "B": 0}
    wrapped = {"A": 0, "B": 0}
    rewards = {"A": 0, "B": 0}
    by_tick = {}
    for e in transcript.events:
        by_tick.setdefault(e.tick, []).append(e)
    rows = []
    for tick in range(scenario.horizon):
        for e in by_tick.get(tick, ()):
            if e.kind == "deposit":
                locked[e.chain] += DENOMINATION
            elif e.kind == "withdraw-finalized":
                if transcript.contracts[e.chain].native:
                    locked[e.chain] -= DENOMINATION
                else:
                    wrapped[e.chain] += DENOMINATION
            elif e.kind == "reward-claimed":
                rewards[e.chain] += e.get("amount")
        rows.append(
            (tick, locked["A"], locked["B"], wrapped["A"], wrapped["B"], rewards["A"], rewards["B"])
        )
    return LiquiditySeries(rows)
