"""The payout and anonymity tallies against a naive reference.

The reference below reads the published transcript text, not the typed event
values the analyses read, and rescans it once per note and once per
withdrawal, the obvious reading of what the reports mean.  The analyses must
give the same rows while walking the transcript a fixed number of times,
whatever its length."""
import dataclasses
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bridgemix import simnet
from bridgemix.field_hash import fe_hex
from bridgemix.metrics import MetricsError, anonymity_report, anonymity_set
from bridgemix.simnet import (
    AdversarySpec,
    RaceRow,
    RelayerSpec,
    Scenario,
    SimEvent,
    explore_races,
    other_chain,
    payout_table,
    run,
    scenario_from_dict,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


# -- naive reference ------------------------------------------------------------

def published(transcript):
    """Each rendered transcript line as a dict of its key=value texts."""
    return [dict(tok.split("=", 1) for tok in line.split(" ")) for line in transcript.render_lines()]


def naive_note_events(transcript, nullifier_hex):
    payouts = cancels = 0
    rejected = False
    for fields in published(transcript):
        if fields.get("nullifier") != nullifier_hex:
            continue
        if fields["ev"] == "withdraw-finalized":
            payouts += 1
        elif fields["ev"] == "withdraw-cancelled":
            cancels += 1
        elif fields["ev"] == "withdraw-rejected" and fields.get("reason") == "nullifier-known":
            rejected = True
    return payouts, cancels, rejected


def naive_payout_table(transcript):
    rows = []
    for note in transcript.notes.values():
        sn = fe_hex(note.nullifier)
        rows.append((sn, *naive_note_events(transcript, sn)))
    return rows


def naive_anonymity_set(transcript, wid):
    counts = {"A": {}, "B": {}}
    for fields in published(transcript):
        if fields["ev"] == "setup":
            counts[fields["chain"]][fields["empty_root"]] = 0
        elif fields["ev"] == "deposit":
            counts[fields["chain"]][fields["new_root"]] = int(fields["index"]) + 1
    for fields in published(transcript):
        if fields["ev"] != "withdraw-submitted" or fields["wid"] != wid:
            continue
        chain = fields["chain"]
        local = counts[chain].get(fields["root_a"])
        if local is None:
            raise MetricsError(f"root_a of {wid} is not a known {chain} root")
        return local + (counts[other_chain(chain)].get(fields["root_b"]) or 0)
    raise MetricsError(f"no withdraw-submitted event with wid {wid!r}")


def naive_anonymity_rows(transcript):
    return [
        (fields["wid"], fields["chain"], naive_anonymity_set(transcript, fields["wid"]))
        for fields in published(transcript)
        if fields["ev"] == "withdraw-finalized"
    ]


def naive_race_row(transcript):
    adv = transcript.scenario.adversary
    payouts, cancels, rejected = naive_note_events(
        transcript, fe_hex(transcript.notes[adv.note].nullifier)
    )
    honest = sum(
        naive_note_events(transcript, fe_hex(note.nullifier))[0]
        for note_id, note in transcript.notes.items()
        if note_id != adv.note
    )
    return RaceRow(
        t_prime=adv.gap,
        order=f"{adv.first_chain}->{other_chain(adv.first_chain)}",
        payouts=payouts,
        cancellations=cancels,
        second_rejected=rejected,
        honest_payouts=honest,
    )


def assert_matches_reference(scenario, t_primes):
    t = run(scenario, allow_negative_epsilon=True)
    assert payout_table(t) == naive_payout_table(t)
    assert anonymity_report(t).rows == naive_anonymity_rows(t)
    if scenario.adversary is None:
        return
    transcripts = []

    def recording_run(sc, allow_negative_epsilon=False):
        transcripts.append(run(sc, allow_negative_epsilon))
        return transcripts[-1]

    with mock.patch.object(simnet, "run", recording_run):
        report = explore_races(scenario, t_primes)
    assert len(transcripts) == 2 * len(t_primes)
    assert report.rows == [naive_race_row(tr) for tr in transcripts]


# -- equivalence ------------------------------------------------------------------

def demo_scenario(name):
    path = SCENARIO_DIR / f"{name}.yaml"
    sc = scenario_from_dict(yaml.safe_load(path.read_text(encoding="utf-8")))
    if sc.adversary is None:
        # give the race sweep a double spender on the demo's own history
        sc = dataclasses.replace(sc, adversary=AdversarySpec(
            note="adv", deposit_chain="A", deposit_at=0,
            first_chain="B", first_at=sc.relay_delay + 1,
        ))
    return sc


@pytest.mark.parametrize("name", ["happy_path", "races", "storage", "vampire"])
def test_demo_scenarios_match_naive_reference(name):
    assert_matches_reference(demo_scenario(name), range(0, 3))


def test_race_negative_control_matches_naive_reference():
    sc = dataclasses.replace(demo_scenario("races"), epsilon=-1)
    assert_matches_reference(sc, range(0, 3))


@st.composite
def small_scenarios(draw):
    """A few notes, each left alone, withdrawn once, spent on both chains
    (duplicate cancellation) or spent twice on one chain (nullifier-known),
    plus an optional double-withdraw adversary."""
    delay = draw(st.integers(1, 3))
    # backing deposits on the native side keep the A payouts solvent
    events = [SimEvent(0, "A", "deposit", note=f"buf{i}") for i in range(6)]
    for i in range(draw(st.integers(1, 4))):
        note = f"n{i}"
        at = draw(st.integers(0, 3))
        events.append(SimEvent(at, draw(st.sampled_from("AB")), "deposit", note=note))
        plan = draw(st.sampled_from(("idle", "once", "double", "repeat")))
        first = draw(st.sampled_from("AB"))
        chains = {"idle": "", "once": first, "double": first + other_chain(first),
                  "repeat": first + first}[plan]
        for chain in chains:
            when = at + draw(st.integers(1, delay + 4))
            events.append(SimEvent(when, chain, "submit_withdrawal",
                                   note=note, recipient=f"u{i}"))
    adversary = None
    if draw(st.booleans()):
        adversary = AdversarySpec(
            note="adv", deposit_chain=draw(st.sampled_from("AB")), deposit_at=0,
            first_chain=draw(st.sampled_from("AB")), first_at=delay + 1,
        )
    return Scenario(
        seed=draw(st.integers(0, 999)),
        horizon=18,
        hash_rounds=8,
        relay_delay=delay,
        epsilon=draw(st.integers(0, 2)),
        relayers=(RelayerSpec("r0", delay),),
        events=tuple(sorted(events, key=lambda e: e.at)),
        adversary=adversary,
    )


@seed(3301)
@settings(max_examples=30, deadline=None, database=None)
@given(scenario=small_scenarios())
def test_random_scenarios_match_naive_reference(scenario):
    assert_matches_reference(scenario, range(0, 2))


# -- walk counts --------------------------------------------------------------------

class CountingList(list):
    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def ladder(notes):
    events = [SimEvent(i, "A", "deposit", note=f"n{i}") for i in range(notes)]
    events += [
        SimEvent(notes + 3 + i, "B", "submit_withdrawal", note=f"n{i}", recipient="w")
        for i in range(notes // 2)
    ]
    return run(Scenario(
        seed=5, horizon=notes + notes // 2 + 8, hash_rounds=8, tree_height=6,
        relayers=(RelayerSpec("r0", 2),), events=tuple(events),
    ))


def walks(transcript, analysis):
    transcript.events = CountingList(transcript.events)
    analysis(transcript)
    return transcript.events.walks


def test_analyses_walk_the_transcript_a_fixed_number_of_times():
    small, large = ladder(10), ladder(40)
    assert len(anonymity_report(large).rows) == 20
    for analysis in (
        payout_table,
        anonymity_report,
        lambda t: anonymity_set(t, "B0"),
    ):
        count = walks(small, analysis)
        assert count == walks(large, analysis) and 1 <= count <= 3
