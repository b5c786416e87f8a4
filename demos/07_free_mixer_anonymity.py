"""
The free mixer and what the chain actually learns
=================================================

Because the withdrawal relation accepts membership under either root, a note
deposited on A can exit on A (a classic mixer hop) or on B (a bridge
transfer) — but only once, ever: the nullifier is shared across both chains.

The anonymity metrics quantify the flip side: a withdrawal could have spent
any deposit under either referenced root, so its anonymity set is the sum of
both deposit populations.
"""

from bridgemix.metrics import anonymity_report, anonymity_set, linkability_audit
from bridgemix.simnet import RelayerSpec, Scenario, SimEvent, run


scenario = Scenario(
    seed=7,
    horizon=16,
    relay_delay=2,
    hash_rounds=8,
    relayers=(RelayerSpec("relayer0", delay=2),),
    events=(
        # three deposits on A, two on B
        SimEvent(0, "A", "deposit", note="a0"),
        SimEvent(1, "A", "deposit", note="a1"),
        SimEvent(2, "A", "deposit", note="a2"),
        SimEvent(0, "B", "deposit", note="b0"),
        SimEvent(1, "B", "deposit", note="b1"),
        # a0 exits on B referencing the latest roots of both chains
        SimEvent(6, "B", "submit_withdrawal", note="a0", recipient="whoever"),
        # a1 exits on A itself: the same machinery is a free local mixer
        SimEvent(7, "A", "submit_withdrawal", note="a1", recipient="someone"),
        # spending a1 again, now cross-chain, must fail: nullifier known
        SimEvent(12, "B", "submit_withdrawal", note="a1", recipient="again"),
    ),
)

t = run(scenario)

for e in t.events:
    if e.kind.startswith("withdraw") or e.kind == "duplicate-detected":
        print(e.to_line())

print()
# the cross-chain exit hides among 2 local + 3 remote deposits
print("anonymity set of B0 (cross-chain):", anonymity_set(t, "B0"))
# the local exit hides among A's 3 deposits plus B's 2 relayed ones
print("anonymity set of A0 (same-chain): ", anonymity_set(t, "A0"))

report = anonymity_report(t)
print()
print("\n".join(report.render_lines()))
print("aggregate:", report.summary())

# the audit scans every withdrawal-side event for anything that would tie it
# to a deposit: commitments, leaf indexes, or values equal to either
audit = linkability_audit(t)
print()
print("linkability audit clean:", audit.clean)
