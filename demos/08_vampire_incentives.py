"""
Lock-time rewards and the vampire attack
========================================

The naive incentive: pay depositors `rate` governance tokens per tick their
note stays locked (claims prove membership and assert an age; the age can't
exceed what the referenced roots can vouch for).  The problem: liquidity is
mercenary.  A competing deployment that pays more drains the pool.

Both runs below use identical agents with one deterministic rule: move to
the other chain's mixer when the extra rewards beat the lock-age forfeited
by relocking.
"""

from bridgemix.incentives import RewardSpec, vampire_metrics
from bridgemix.simnet import RelayerSpec, Scenario, SimEvent, run

AGENTS, HORIZON, MIN_LOCK = 6, 60, 5
D, EPSILON = 2, 1
SWITCH_AT = 20  # agents harvest their A rewards a tick before, then decide
SHOW = (0, 19, 24, 40, 58, 59)  # the ticks where something interesting happens


def vampire_scenario(rate_a, rate_b, agents=AGENTS):
    """Agent i deposits on A at t=i and claims its A rewards at t=19.  It
    moves to B when the extra B rewards beat the age forfeited while
    relocking, and stays otherwise; either way it claims again at t=58.
    tests/test_incentives.py runs this builder too."""
    claim_a_at = SWITCH_AT - 1
    arrival_b = SWITCH_AT + D + EPSILON + 1  # the A payout has landed: relock on B
    claim_last_at = HORIZON - 2
    names = [f"agent{i}" for i in range(agents)]
    events = [SimEvent(i, "A", "deposit", agent) for i, agent in enumerate(names)]
    events += [SimEvent(claim_a_at, "A", "incentive_claim", agent, claimant=agent) for agent in names]
    for dep_at, agent in enumerate(names):
        gain_stay = rate_a * (claim_last_at - dep_at)
        gain_move = rate_a * (claim_a_at - dep_at) + rate_b * (claim_last_at - arrival_b)
        if gain_move > gain_stay:
            events += [
                SimEvent(SWITCH_AT, "A", "submit_withdrawal", agent, recipient=agent),
                SimEvent(arrival_b, "B", "deposit", f"{agent}-b"),
                SimEvent(claim_last_at, "B", "incentive_claim", f"{agent}-b", claimant=agent),
            ]
        else:
            events.append(SimEvent(claim_last_at, "A", "incentive_claim", agent, claimant=agent))
    events.sort(key=lambda e: e.at)
    return Scenario(
        seed=7,
        horizon=HORIZON,
        relay_delay=D,
        epsilon=EPSILON,
        hash_rounds=8,
        relayers=(RelayerSpec("relayer0", D),),
        events=tuple(events),
        rewards={"A": RewardSpec(rate_a, MIN_LOCK), "B": RewardSpec(rate_b, MIN_LOCK)},
    )


def show(title, rate_a, rate_b):
    scenario = vampire_scenario(rate_a, rate_b)
    series = vampire_metrics(run(scenario))
    print(title)
    lines = series.render_lines()
    print(lines[0])
    for tick in SHOW:
        print(lines[tick + 1])
    print("final:", series.final())
    print()


if __name__ == "__main__":
    # symmetric rates: relocking costs ~5 ticks of age and buys nothing, so
    # every agent stays; chain A keeps all 60 units locked
    show("equal rates (A=2, B=2): nobody moves", 2, 2)

    # a 3x rate on B flips the rule for everyone: agents harvest their A
    # rewards at t=19, withdraw at t=20, and relock on B at t=24; A's pool
    # empties
    show("vampire rates (A=1, B=3): everyone moves", 1, 3)

# what the columns say:
#  * locked_a collapses from 60 to 0 between t=19 and t=24 in the second run:
#    payouts on the native chain come straight out of the locked pool
#  * locked_b absorbs exactly what A lost
#  * rewards_b dwarfs rewards_a by the end: the attacker prints governance
#    tokens, but captures the deposits, which is the point of the attack
#  * nothing here is dishonest at the protocol level: every claim verifies;
#    the scheme's economics, not its cryptography, are what break
