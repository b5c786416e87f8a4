"""
A full bridge transfer, tick by tick
====================================

Two chains, each running the mixer contract and a light client of the other.
A relayer copies headers and state both ways with a fixed delay.  One user
deposits on chain A and withdraws the same note on chain B, where it
materialises as wrapped value after the safety delay D + epsilon.
"""

from collections import Counter

from bridgemix.simnet import RelayerSpec, Scenario, SimEvent, run

D = 2        # relay delay bound the contracts assume
EPSILON = 1  # extra safety margin before a withdrawal pays out

scenario = Scenario(
    seed=2024,
    horizon=12,
    relay_delay=D,
    epsilon=EPSILON,
    hash_rounds=8,  # reduced-round hashing: demo speed only
    relayers=(RelayerSpec("relayer0", delay=D),),
    events=(
        # tick 0: deposit 10 units on A under a fresh note commitment
        SimEvent(0, "A", "deposit", note="travel-money"),
        # tick 4: withdraw on B; by now A's root has been relayed (0 + D <= 4)
        SimEvent(4, "B", "submit_withdrawal", note="travel-money", recipient="alice"),
    ),
)

transcript = run(scenario)

# the transcript is the complete public record: every deposit, header, relay
# delivery, and payout, in global order
print(transcript.render(), end="")

print()
print("summary:", dict(sorted(Counter(e.kind for e in transcript.events).items())))

a, b = transcript.contracts["A"], transcript.contracts["B"]
print()
print("chain A balance (locked deposits):", a.balance)
print("chain B wrapped supply minted:   ", b.wrapped_minted)
print("chain B credits:                 ", b.credits)

# what to notice in the log above:
#  * the withdrawal references root_a (B's local tree) and root_b (the relayed
#    A root) but never the deposit commitment: withdrawals don't name deposits
#  * submission at t=4 finalizes at t=4+D+epsilon=7, after B has had D ticks
#    to hear about any conflicting spend of the same nullifier
#  * the nullifier travels back to A (state-accepted at t=6), so spending the
#    note again on A is impossible from that point on
