import importlib.util
import random
import sys
from pathlib import Path

import pytest

from bridgemix.contract import ContractError, conservation_holds
from bridgemix.incentives import (
    LIQUIDITY_COLUMNS,
    RewardSpec,
    claim_reward,
    vampire_metrics,
)
from bridgemix.merkle import mt_path
from bridgemix.simnet import RelayerSpec, Scenario, SimEvent, SimInvariantError, run
from bridgemix.zkrel import Statement, Witness, zk_prove
from liquidity_oracle import liquidity_by_tick
from test_simnet import DEMO_SCENARIOS, demo_scenario, random_scenarios

DEMO_08 = Path(__file__).resolve().parent.parent / "demos" / "08_vampire_incentives.py"


@pytest.fixture(scope="module")
def build_vampire_scenario():
    """The demo's scenario builder, the one source of the vampire scenario."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)  # leave demos/ as it is
        spec = importlib.util.spec_from_file_location("vampire_demo", DEMO_08)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module.vampire_scenario


def scenario_state(events, horizon=10, rate=3, min_lock=5):
    sc = Scenario(
        seed=4,
        horizon=horizon,
        hash_rounds=8,
        relayers=(RelayerSpec("r0", 2),),
        rewards={"A": RewardSpec(rate, min_lock), "B": RewardSpec(rate, min_lock)},
        events=tuple(events),
    )
    t = run(sc)
    return t, t.contracts["A"], RewardSpec(rate, min_lock)


def deposit_event(t, note_id):
    """The `deposit` event of `note_id`, found by its commitment."""
    commitment = t.notes[note_id].commitment
    return next(e for e in t.events if e.kind == "deposit" and e.get("commitment") == commitment)


def claim_for(t, state, note_id, age, root_a=None, root_b=None, claimant="alice"):
    """claim_reward's (stmt, proof, age, claimant) arguments."""
    deposit = deposit_event(t, note_id)
    note = t.notes[note_id]
    index = deposit.get("index")
    path = mt_path(state.tree, index, leaf_count=index + 1)
    deposit_root = deposit.get("new_root")
    if root_a is None:  # membership under the local slot
        selector = 0
        root_a = deposit_root
        root_b = state.remote_roots[-1] if root_b is None else root_b
    else:  # arbitrary root_a: prove under the other slot so the proof is honest
        selector = 1
        root_b = deposit_root if root_b is None else root_b
    stmt = Statement(root_a, root_b, note.nullifier)
    proof = zk_prove(state.params, stmt, Witness(note.r, note.s, path, selector))
    return stmt, proof, age, claimant


def test_claim_pays_rate_times_age():
    t, a, cfg = scenario_state([SimEvent(0, "A", "deposit", note="n1")])
    amount = claim_reward(a, cfg, *claim_for(t, a, "n1", age=8), now=8)
    assert amount == 3 * 8
    assert a.gov_minted == {"alice": 24} and a.gov_total == 24
    assert a.reward_ages == {t.notes["n1"].nullifier: 8}
    assert a.events[-1].kind == "reward-claimed"
    assert conservation_holds([a])


def test_incremental_claims_pay_only_the_difference():
    t, a, cfg = scenario_state([SimEvent(0, "A", "deposit", note="n1")])
    assert claim_reward(a, cfg, *claim_for(t, a, "n1", age=6), now=6) == 18
    assert claim_reward(a, cfg, *claim_for(t, a, "n1", age=9), now=9) == 9  # 3 * (9 - 6)
    for age, now in [(9, 12), (5, 12)]:
        with pytest.raises(ContractError) as err:
            claim_reward(a, cfg, *claim_for(t, a, "n1", age=age), now=now)
        assert err.value.reason == "not-incremental"
    assert a.gov_total == 27


def test_below_min_lock_rejected_and_pays_nothing():
    t, a, cfg = scenario_state([SimEvent(0, "A", "deposit", note="n1")])
    with pytest.raises(ContractError) as err:
        claim_reward(a, cfg, *claim_for(t, a, "n1", age=4), now=4)
    assert err.value.reason == "below-min-lock"
    assert a.gov_total == 0 and not a.gov_minted


def test_fresh_root_pair_cannot_carry_age():
    # n2's root and the relayed root are both brand new: verifiable age is ~0,
    # so any claim at or above min_lock overstates
    t, a, cfg = scenario_state(
        [
            SimEvent(0, "A", "deposit", note="n1"),
            SimEvent(4, "B", "deposit", note="nb"),  # relayed root lands on A at 6
            SimEvent(6, "A", "deposit", note="n2"),
        ],
        horizon=8,
    )
    with pytest.raises(ContractError) as err:
        claim_reward(a, cfg, *claim_for(t, a, "n2", age=5), now=7)
    assert err.value.reason == "age-overstated"
    assert a.gov_total == 0


def test_old_empty_root_inflates_the_age_cap():
    # known slack of the naive scheme: referencing the ancient empty remote
    # root lets a late depositor claim age back to that root's timestamp
    t, a, cfg = scenario_state([SimEvent(6, "A", "deposit", note="n1")], horizon=8)
    empty_remote = a.remote_roots[0]
    assert a.remote_root_ticks[empty_remote] == 0
    amount = claim_reward(
        a, cfg, *claim_for(t, a, "n1", age=7, root_b=empty_remote), now=7
    )
    assert amount == 21  # paid for 7 ticks though the note locked for 1


def test_unknown_roots_rejected():
    t, a, cfg = scenario_state([SimEvent(0, "A", "deposit", note="n1")])
    with pytest.raises(ContractError) as err:
        claim_reward(a, cfg, *claim_for(t, a, "n1", age=6, root_a=12345), now=6)
    assert err.value.reason == "unknown-local-root"
    with pytest.raises(ContractError) as err:
        claim_reward(a, cfg, *claim_for(t, a, "n1", age=6, root_b=12345), now=6)
    assert err.value.reason == "unknown-remote-root"


def test_tampered_proof_rejected():
    t, a, cfg = scenario_state([SimEvent(0, "A", "deposit", note="n1")])
    stmt, proof, age, claimant = claim_for(t, a, "n1", age=6)
    bad = Statement(stmt.root_a, stmt.root_b, stmt.nullifier ^ 1)
    with pytest.raises(ContractError) as err:
        claim_reward(a, cfg, bad, proof, age, claimant, now=6)
    assert err.value.reason == "invalid-proof"


def test_claim_then_withdraw_still_works():
    events = [
        SimEvent(0, "A", "deposit", note="n1"),
        SimEvent(6, "A", "incentive_claim", note="n1", claimant="alice"),
        SimEvent(7, "A", "submit_withdrawal", note="n1", recipient="alice"),
    ]
    t, a, cfg = scenario_state(events, horizon=12)
    assert any(e.kind == "reward-claimed" for e in t.events)
    assert any(e.kind == "withdraw-finalized" for e in t.events)
    assert a.credits == {"alice": 10} and a.gov_total == 18


def test_withdraw_then_claim_rejected():
    # submission already exposes the nullifier, so post-spend claims fail
    events = [
        SimEvent(0, "A", "deposit", note="n1"),
        SimEvent(6, "A", "submit_withdrawal", note="n1", recipient="alice"),
    ]
    t, a, cfg = scenario_state(events, horizon=12)
    with pytest.raises(ContractError) as err:
        claim_reward(a, cfg, *claim_for(t, a, "n1", age=11), now=11)
    assert err.value.reason == "already-withdrawn"


def test_reward_conservation_over_random_claims(fast_params):
    notes = [f"n{i}" for i in range(6)]
    t, a, cfg = scenario_state([SimEvent(i, "A", "deposit", note=n) for i, n in enumerate(notes)])
    rng = random.Random(2033)
    paid = 0
    for _ in range(40):
        note = rng.choice(notes)
        age = rng.randrange(1, 40)
        now = max(age + 6, a.local_roots[deposit_event(t, note).get("new_root")] + age)
        try:
            paid += claim_reward(a, cfg, *claim_for(t, a, note, age=age), now=now)
        except ContractError:
            continue
    assert paid == a.gov_total == sum(a.gov_minted.values())
    assert a.gov_total == cfg.rate * sum(a.reward_ages.values())
    assert all(age >= cfg.min_lock for age in a.reward_ages.values())


def test_vampire_symmetric_rates_nobody_moves(build_vampire_scenario):
    sc = build_vampire_scenario(rate_a=2, rate_b=2)
    series = vampire_metrics(run(sc))
    final = series.final()
    assert final["locked_a"] == 60 and final["locked_b"] == 0
    assert final["rewards_b"] == 0 and final["rewards_a"] > 0
    # relocking always forfeits age, so equal rates never justify the move
    assert final["locked_a"] == series.summary()["peak_locked_a"]


def test_vampire_higher_foreign_rate_drains_the_pool(build_vampire_scenario):
    sc = build_vampire_scenario(rate_a=1, rate_b=3)
    t = run(sc)
    series = vampire_metrics(t)
    final = series.final()
    assert series.summary()["peak_locked_a"] == 60
    assert final["locked_a"] == 0  # every agent withdrew and relocked on B
    assert final["locked_b"] == 60
    assert final["rewards_b"] > final["rewards_a"] > 0
    # the drain is visible as native payouts, not wrapped supply
    assert final["wrapped_a"] == 0 and final["wrapped_b"] == 0
    assert t.contracts["A"].balance == 0


def test_vampire_metrics_track_transcript_not_secrets(build_vampire_scenario):
    sc = build_vampire_scenario(rate_a=1, rate_b=3, agents=3)
    t1, t2 = run(sc), run(sc)
    assert vampire_metrics(t1).rows == vampire_metrics(t2).rows
    lines = vampire_metrics(t1).render_lines()
    assert len(lines) == sc.horizon + 1 and lines[0].split() == list(LIQUIDITY_COLUMNS)


@pytest.fixture(scope="module")
def engine_transcripts(build_vampire_scenario):
    """Random scenarios, every demo scenario file, the vampire builder at
    three rate pairs, and the partial transcript of a run that stops with
    exit 3 (an A payout that A's balance cannot cover, at tick 7)."""
    scenarios = [
        *random_scenarios(2031, 6),
        *map(demo_scenario, sorted(DEMO_SCENARIOS.glob("*.yaml"))),
        *(build_vampire_scenario(rate_a=a, rate_b=b) for a, b in ((1, 3), (2, 2), (3, 1))),
    ]
    transcripts = [run(sc) for sc in scenarios]
    insolvent = Scenario(
        seed=5,
        horizon=12,
        hash_rounds=8,
        relayers=(RelayerSpec("r0", 2),),
        events=(
            SimEvent(0, "B", "deposit", note="n1"),
            SimEvent(4, "A", "submit_withdrawal", note="n1", recipient="alice"),
        ),
    )
    with pytest.raises(SimInvariantError, match="^tick 7: ") as err:
        run(insolvent)
    return transcripts + [err.value.transcript]


def test_engine_appends_events_in_tick_order(engine_transcripts):
    # vampire_metrics' one pass relies on it
    for t in engine_transcripts:
        ticks = [e.tick for e in t.events]
        assert ticks == sorted(ticks) and 0 <= ticks[0] and ticks[-1] < t.scenario.horizon


def test_liquidity_series_matches_tick_bucketed_oracle(engine_transcripts):
    for t in engine_transcripts:
        series, oracle = vampire_metrics(t), liquidity_by_tick(t)
        assert series.rows == oracle.rows and len(series.rows) == t.scenario.horizon
        assert series.summary() == oracle.summary()
    assert any(vampire_metrics(t).final()["rewards_b"] for t in engine_transcripts)
