"""
Double-spend races and why D + epsilon is enough
================================================

The attack: deposit once, then submit the same note's withdrawal on both
chains t' ticks apart, hoping both finalize before either side hears about
the other.  The defence: every withdrawal waits D + epsilon ticks, and a
relayed duplicate nullifier cancels anything still pending.

explore_races re-runs the scenario for every gap t' and both submission
orders, and tallies what the adversary extracted.
"""

from bridgemix.simnet import AdversarySpec, RelayerSpec, Scenario, SimEvent, explore_races

D, EPSILON = 2, 1

base = Scenario(
    seed=99,
    horizon=20,
    relay_delay=D,
    epsilon=EPSILON,
    hash_rounds=8,
    relayers=(RelayerSpec("relayer0", delay=D),),
    events=(
        # an honest bystander: their withdrawal must never become collateral
        SimEvent(0, "A", "deposit", note="honest"),
        SimEvent(4, "B", "submit_withdrawal", note="honest", recipient="bystander"),
    ),
    adversary=AdversarySpec(
        note="double-spender",
        deposit_chain="A",
        deposit_at=0,
        first_chain="A",
        first_at=3,   # earliest tick the cross-chain side could also verify
        gap=0,        # overwritten by the sweep
    ),
)

report = explore_races(base, range(0, 2 * (D + EPSILON) + 1))
print("\n".join(report.render_lines()))
print()
print("max payouts anywhere:", report.max_payouts(), "(1 = attack never profits)")

# reading the table:
#  * t' <= epsilon: both submissions are still pending when each chain learns
#    of the other's — both cancel, the attacker loses the deposit entirely
#  * t' >= D: the first nullifier arrives before the second submission, which
#    is rejected outright; exactly the one legitimate payout remains
#  * honest_payouts stays 1 in every interleaving

# negative control: shrink the wait below D (epsilon = -1 gives D - 1) and
# the protection collapses for back-to-back submissions
broken = explore_races(
    Scenario(**{**base.__dict__, "epsilon": -1}), range(0, 3)
)
print()
print("\n".join(broken.render_lines()))
print()
print("double payouts with delay D-1:", len(broken.double_payout_rows))
