import dataclasses

import pytest

from bridgemix.contract import EventRecord
from bridgemix.field_hash import fe_hex
from bridgemix.metrics import (
    FE_BYTES,
    HEADER_BYTES,
    MetricsError,
    anonymity_report,
    anonymity_set,
    linkability_audit,
    storage_report,
)
from bridgemix.simnet import RelayerSpec, Scenario, SimEvent, run


def run_events(events, horizon=12, **over):
    d = dict(seed=6, horizon=horizon, hash_rounds=8, relayers=(RelayerSpec("r0", 2),))
    d.update(over)
    return run(Scenario(events=tuple(events), **d))


def wid_of(transcript, index=0):
    subs = [e for e in transcript.events if e.kind == "withdraw-submitted"]
    return dict(subs[index].fields)["wid"]


def test_anonymity_set_sums_both_root_populations():
    # 3 deposits under the remote root + 2 under the local root -> 5
    t = run_events(
        [
            SimEvent(0, "A", "deposit", note="a0"),
            SimEvent(1, "A", "deposit", note="a1"),
            SimEvent(2, "A", "deposit", note="a2"),
            SimEvent(0, "B", "deposit", note="b0"),
            SimEvent(1, "B", "deposit", note="b1"),
            SimEvent(6, "B", "submit_withdrawal", note="a0", recipient="w"),
        ]
    )
    assert anonymity_set(t, wid_of(t)) == 5


def test_anonymity_set_reflects_the_roots_actually_referenced():
    # withdrawing before the third root is relayed pins root_b at 2 deposits,
    # and B's own tree is still empty, so the set is 2 + 0
    t = run_events(
        [
            SimEvent(0, "A", "deposit", note="a0"),
            SimEvent(1, "A", "deposit", note="a1"),
            SimEvent(2, "A", "deposit", note="a2"),
            SimEvent(3, "B", "submit_withdrawal", note="a0", recipient="w"),
        ]
    )
    assert anonymity_set(t, wid_of(t)) == 2


def test_same_chain_withdrawal_counts_local_population():
    t = run_events(
        [
            SimEvent(0, "A", "deposit", note="a0"),
            SimEvent(1, "A", "deposit", note="a1"),
            SimEvent(3, "A", "submit_withdrawal", note="a0", recipient="w"),
        ]
    )
    assert anonymity_set(t, wid_of(t)) == 2


def test_unknown_withdrawal_id_raises():
    t = run_events([SimEvent(0, "A", "deposit", note="a0")])
    with pytest.raises(MetricsError, match="^no withdraw-submitted event with wid 'Z9'$"):
        anonymity_set(t, "Z9")


def with_unknown_root_a(transcript, wid):
    """A copy whose withdraw-submitted event for `wid` names a root no
    deposit ever produced."""
    def tamper(e):
        if e.kind != "withdraw-submitted" or dict(e.fields)["wid"] != wid:
            return e
        fields = tuple((k, "f" * 16 if k == "root_a" else v) for k, v in e.fields)
        return dataclasses.replace(e, fields=fields)

    out = dataclasses.replace(transcript)
    out.events = [tamper(e) for e in transcript.events]
    return out


def test_unknown_root_a_raises_only_for_withdrawals_looked_up():
    # B0 finalizes at 4 + 2 + 1; A0, submitted at 10, is still pending at the end
    t = run_events(
        [
            SimEvent(0, "A", "deposit", note="a0"),
            SimEvent(1, "A", "deposit", note="a1"),
            SimEvent(4, "B", "submit_withdrawal", note="a0", recipient="w0"),
            SimEvent(10, "A", "submit_withdrawal", note="a1", recipient="w1"),
        ]
    )
    message = "^root_a of B0 is not a known B root$"
    finalized = with_unknown_root_a(t, "B0")
    with pytest.raises(MetricsError, match=message):
        anonymity_report(finalized)
    with pytest.raises(MetricsError, match=message):
        anonymity_set(finalized, "B0")
    pending = with_unknown_root_a(t, "A0")
    assert anonymity_report(pending).rows == anonymity_report(t).rows == [("B0", "B", 2)]
    with pytest.raises(MetricsError, match="^root_a of A0 is not a known A root$"):
        anonymity_set(pending, "A0")


def test_anonymity_report_covers_finalized_withdrawals():
    t = run_events(
        [
            SimEvent(0, "A", "deposit", note="a0"),
            SimEvent(1, "A", "deposit", note="a1"),
            SimEvent(0, "B", "deposit", note="b0"),
            SimEvent(4, "B", "submit_withdrawal", note="a0", recipient="w0"),
            SimEvent(5, "A", "submit_withdrawal", note="a1", recipient="w1"),
        ],
        horizon=14,
    )
    report = anonymity_report(t)
    assert [(wid, chain) for wid, chain, _ in report.rows] == [("B0", "B"), ("A0", "A")]
    sizes = {wid: size for wid, _, size in report.rows}
    assert sizes["B0"] == 1 + 2  # B tree had 1 deposit, relayed A root had 2
    assert sizes["A0"] == 2 + 1
    assert report.minimum() == 3 and report.mean() == 3.0
    assert report.summary() == {"withdrawals": 2, "min": 3, "mean": 3.0}
    assert len(report.render_lines()) == 3


def test_linkability_clean_on_honest_run():
    t = run_events(
        [
            SimEvent(0, "A", "deposit", note="a0"),
            SimEvent(4, "B", "submit_withdrawal", note="a0", recipient="w"),
        ]
    )
    report = linkability_audit(t)
    assert report.clean and report.summary() == {"clean": True, "findings": 0}


def test_linkability_flags_planted_leaks():
    t = run_events(
        [
            SimEvent(0, "A", "deposit", note="a0"),
            SimEvent(4, "B", "submit_withdrawal", note="a0", recipient="w"),
        ]
    )
    commitment = next(e for e in t.events if e.kind == "deposit").get("commitment")
    leaky = dataclasses.replace(t)
    leaky.events = list(t.events) + [
        # positive controls: a value that equals the deposit commitment, as
        # its printed text or as the field element, and a field that names
        # the leaf position outright
        EventRecord(9, "B", "withdraw-finalized", (("wid", "B9"), ("memo", fe_hex(commitment)))),
        EventRecord(9, "B", "withdraw-finalized", (("wid", "B7"), ("root_b", commitment))),
        EventRecord(9, "B", "withdraw-submitted", (("wid", "B8"), ("leaf_index", "0"))),
    ]
    report = linkability_audit(leaky)
    assert not report.clean and len(report.findings) == 3
    reasons = {f.reason for f in report.findings}
    assert reasons == {"value equals a deposit commitment", "deposit-identifying field"}
    assert all("wid" != f.key for f in report.findings)
    assert [f.value for f in report.findings[:2]] == [fe_hex(commitment)] * 2


def test_storage_report_counts_growth_since_setup():
    # 3 deposits and 2 same-chain withdrawals on B; horizon 12, relay delay 2
    t = run_events(
        [
            SimEvent(0, "B", "deposit", note="b0"),
            SimEvent(1, "B", "deposit", note="b1"),
            SimEvent(2, "B", "deposit", note="b2"),
            SimEvent(5, "B", "submit_withdrawal", note="b0", recipient="w0"),
            SimEvent(6, "B", "submit_withdrawal", note="b1", recipient="w1"),
        ]
    )
    report = storage_report(t)
    a, b = report.rows
    # headers mined at t reach the peer at t+2, so heights 1..10 landed
    assert (a.local_roots, a.remote_roots, a.nullifiers, a.remote_headers) == (0, 3, 2, 10)
    assert (b.local_roots, b.remote_roots, b.nullifiers, b.remote_headers) == (3, 0, 2, 10)
    assert a.bytes_by_kind()["remote_headers"] == 10 * HEADER_BYTES
    assert a.total_bytes() == (0 + 3 + 2) * FE_BYTES + 10 * HEADER_BYTES
    assert a.dominant() == "remote_headers"
    assert set(report.summary().keys()) == {"A", "B"}
    assert len(report.render_lines()) == 3
