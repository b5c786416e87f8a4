import contextlib
import copy
import dataclasses
import itertools
import random
from array import array
from pathlib import Path

import pytest
import yaml
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bridgemix import cli, field_hash, lightclient, simnet, zkrel
from bridgemix import contract as contract_mod
from bridgemix.field_hash import P, fe_hex, hash2, make_params
from bridgemix.lightclient import StateAttestation, header_digest, mine_header, state_commitment_value
from bridgemix.merkle import mt_add, mt_path, mt_setup
from bridgemix.simnet import (
    CHAINS,
    AdversarySpec,
    RaceRow,
    RelayerSpec,
    RewardSpec,
    Scenario,
    ScenarioError,
    SimEvent,
    SimInvariantError,
    WORK_TARGET,
    explore_races,
    other_chain,
    payout_table,
    run,
    scenario_from_dict,
)
from bridgemix.zkrel import Statement, Witness, make_note, relation_holds, zk_prove, zk_setup
from invariant_oracle import full_rescan, outcome, paid_by_rescan
from test_caches import cached_functions


def base_scenario(**over):
    d = dict(seed=1, horizon=12, hash_rounds=8, relayers=(RelayerSpec("r0", 2),))
    d.update(over)
    return Scenario(**d)


def kinds(transcript, kind):
    return [e for e in transcript.events if e.kind == kind]


def test_cross_chain_happy_path():
    sc = base_scenario(
        events=(
            SimEvent(0, "A", "deposit", note="n1"),
            SimEvent(4, "B", "submit_withdrawal", note="n1", recipient="alice"),
        )
    )
    t = run(sc)
    (fin,) = kinds(t, "withdraw-finalized")
    assert fin.chain == "B" and fin.tick == 4 + 2 + 1  # submit + D + epsilon
    assert dict(fin.fields)["mode"] == "wrapped"
    b = t.contracts["B"]
    assert b.credits == {"alice": 10}
    assert b.wrapped_minted == 10
    assert contract_mod.conservation_holds([t.contracts["A"], b])


def leak_at_tick_5(monkeypatch, leak):
    """Let `leak(state)` tamper with each contract right after its tick-5 finalize."""
    real_tick = contract_mod.process_tick

    def leaky_tick(state, now):
        events = real_tick(state, now)
        if now == 5:
            leak(state)
        return events

    monkeypatch.setattr(contract_mod, "process_tick", leaky_tick)


def test_broken_value_conservation_stops_the_run(monkeypatch):
    sc = base_scenario(
        events=(
            SimEvent(0, "A", "deposit", note="n1"),
            SimEvent(4, "B", "submit_withdrawal", note="n1", recipient="alice"),
        )
    )

    def leak(state):
        if state.chain_id == "A":
            state.credits["mallory"] = 3  # value from nowhere

    leak_at_tick_5(monkeypatch, leak)
    with pytest.raises(SimInvariantError) as err:
        run(sc)
    assert str(err.value) == (
        "tick 5: value conservation broken: A balance 10, credits 3, deposited 10, wrapped 0,"
        " gov 0, gov minted 0; B balance 0, credits 0, deposited 0, wrapped 0, gov 0, gov minted 0"
    )


def test_value_moved_across_chains_stops_the_run(monkeypatch):
    # the sum over both chains still balances; only the per-chain ledgers do not
    sc = base_scenario(
        events=(SimEvent(0, "A", "deposit", note="n1"), SimEvent(0, "B", "deposit", note="n2"))
    )

    def leak(state):
        if state.chain_id == "A":
            state.credits["mallory"] = 3
        else:
            state.balance -= 3

    leak_at_tick_5(monkeypatch, leak)
    with pytest.raises(SimInvariantError) as err:
        run(sc)
    assert str(err.value) == (
        "tick 5: value conservation broken: A balance 10, credits 3, deposited 10, wrapped 0,"
        " gov 0, gov minted 0; B balance 7, credits 0, deposited 10, wrapped 0, gov 0, gov minted 0"
    )


def test_governance_tokens_minted_off_the_books_stop_the_run(monkeypatch):
    sc = base_scenario(events=(SimEvent(0, "A", "deposit", note="n1"),))

    def leak(state):
        if state.chain_id == "A":
            state.gov_minted["mallory"] = 5  # gov_total left unchanged

    leak_at_tick_5(monkeypatch, leak)
    with pytest.raises(SimInvariantError) as err:
        run(sc)
    assert str(err.value).startswith("tick 5: value conservation broken: A balance 10, credits 0,")
    assert "gov 0, gov minted 5" in str(err.value)


def test_payout_of_a_forged_note_stops_the_run(monkeypatch):
    # A relayer that lies: at tick 1 it mines a header on B's view of A that
    # commits to B's root digest folded with one fake root, attests that root,
    # and withdraws on B a note that sits only in the fake tree.  The light
    # client accepts all three, so only the backing check catches the payout.
    real_user = simnet._Engine._user

    def forging_user(self, now):
        real_user(self, now)
        if now != 1:
            return
        b, params = self.nodes["B"].contract, self.params
        fake = make_note(5, 6, params)
        fake_tree = mt_setup(self.scenario.tree_height, params)
        mt_add(fake_tree, fake.commitment)
        roots_digest = hash2(b.remote_root_digest, fake_tree.root, params)
        commitment = state_commitment_value(roots_digest, b.remote_exposed_digest, params)
        header, _ = mine_header(
            len(b.remote_headers), header_digest(b.remote_headers[-1], params), commitment,
            WORK_TARGET, params,
        )
        assert contract_mod.on_relayed_header(b, header, now).accepted
        att = StateAttestation(header.height, len(b.remote_roots), (fake_tree.root,), 0, ())
        assert contract_mod.on_relayed_state(b, att, now).accepted
        stmt = Statement(b.tree.root, fake_tree.root, fake.nullifier)
        proof = zk_prove(self.proof_params, stmt, Witness(fake.r, fake.s, mt_path(fake_tree, 0), 1))
        contract_mod.submit_withdrawal(b, stmt, proof, "mallory", now)

    monkeypatch.setattr(simnet._Engine, "_user", forging_user)
    with pytest.raises(SimInvariantError) as err:
        run(base_scenario(events=(SimEvent(0, "A", "deposit", note="n1"),)))
    sn = fe_hex(make_note(5, 6, make_params(8)).nullifier)
    assert str(err.value) == (
        "tick 4: B invariant broken: every payout spends a deposited note,"
        f" but B0 paid nullifier {sn}, which no deposit made"
    )
    assert err.value.transcript.render().splitlines()[-1].startswith("t=4 chain=B ev=withdraw-finalized wid=B0")


def test_a_stopped_run_names_its_reason(monkeypatch):
    # a payout the paying chain cannot cover is `insolvent`; a broken
    # protocol invariant is `invariant`
    insolvent = base_scenario(
        events=(
            SimEvent(0, "B", "deposit", note="n1"),
            SimEvent(4, "A", "submit_withdrawal", note="n1", recipient="alice"),
        )
    )
    with pytest.raises(SimInvariantError, match="^tick 7: A cannot cover withdrawal A0$") as err:
        run(insolvent)
    assert err.value.reason == "insolvent"
    leak_at_tick_5(monkeypatch, lambda state: state.credits.update(mallory=3))
    with pytest.raises(SimInvariantError, match="^tick 5: value conservation broken: ") as err:
        run(base_scenario(events=(SimEvent(0, "A", "deposit", note="n1"),)))
    assert err.value.reason == "invariant"


def test_same_chain_withdrawal_pays_from_balance():
    sc = base_scenario(
        events=(
            SimEvent(0, "A", "deposit", note="n1"),
            SimEvent(2, "A", "submit_withdrawal", note="n1", recipient="alice"),
        )
    )
    t = run(sc)
    (fin,) = kinds(t, "withdraw-finalized")
    assert fin.chain == "A" and fin.tick == 5
    a = t.contracts["A"]
    assert a.balance == 0 and a.credits == {"alice": 10} and a.wrapped_minted == 0


def test_censored_relayer_blocks_cross_chain_withdrawal():
    # liveness needs at least one honest relayer; with none, the remote root
    # never lands and the withdrawal is rejected as unknown
    sc = base_scenario(
        relayers=(),
        events=(
            SimEvent(0, "A", "deposit", note="n1"),
            SimEvent(5, "B", "submit_withdrawal", note="n1", recipient="alice"),
        ),
    )
    t = run(sc)
    (rej,) = kinds(t, "withdraw-rejected")
    assert dict(rej.fields)["reason"] == "unknown-remote-root"
    assert not kinds(t, "withdraw-finalized")
    assert not kinds(t, "header-accepted")


def test_dishonest_relayer_forwards_headers_but_withholds_state():
    sc = base_scenario(
        relayers=(RelayerSpec("lazy", 2, honest=False),),
        events=(
            SimEvent(0, "A", "deposit", note="n1"),
            SimEvent(5, "B", "submit_withdrawal", note="n1", recipient="alice"),
        ),
    )
    t = run(sc)
    assert kinds(t, "header-accepted")  # headers flow
    assert not kinds(t, "state-accepted")  # state withheld
    (rej,) = kinds(t, "withdraw-rejected")
    assert dict(rej.fields)["reason"] == "unknown-remote-root"


def test_two_relayers_redundant_delivery_is_idempotent():
    sc = base_scenario(
        relayers=(RelayerSpec("fast", 2), RelayerSpec("slow", 3)),
        events=(
            SimEvent(0, "A", "deposit", note="n1"),
            SimEvent(4, "B", "submit_withdrawal", note="n1", recipient="alice"),
        ),
    )
    t = run(sc)  # per-tick invariants hold throughout or run() raises
    assert len(kinds(t, "withdraw-finalized")) == 1
    [deposit] = kinds(t, "deposit")
    deposit_root = deposit.get("new_root")
    assert t.contracts["B"].remote_roots.count(deposit_root) == 1


def test_two_relayers_under_one_id_both_relay():
    # relayers keep no state, so an id keys nothing: two relayers under one
    # id both relay, and the faster one's state lands first
    deposit = (SimEvent(0, "A", "deposit", note="n1"),)
    for ids in (("r0", "r1"), ("r0", "r0")):
        relayers = (RelayerSpec(ids[0], 5), RelayerSpec(ids[1], 1))
        t = run(base_scenario(relayers=relayers, events=deposit))
        assert [e.tick for e in kinds(t, "state-accepted") if e.chain == "B"][0] == 1


def test_both_contracts_share_one_proof_setup(monkeypatch):
    calls = []
    real_setup = simnet.zk_setup
    monkeypatch.setattr(simnet, "zk_setup", lambda *args: calls.append(args) or real_setup(*args))
    t = run(base_scenario(tree_height=3))
    assert t.contracts["A"].params is t.contracts["B"].params
    assert t.contracts["A"].params.circuit_id == "or-membership-h3"
    assert len(calls) == 1


def test_withdraw_before_deposit_rejected():
    sc = base_scenario(events=(SimEvent(1, "B", "submit_withdrawal", note="ghost", recipient="x"),))
    t = run(sc)
    (rej,) = kinds(t, "withdraw-rejected")
    assert dict(rej.fields)["reason"] == "no-deposit"


def test_duplicate_note_deposit_rejected():
    sc = base_scenario(
        events=(SimEvent(0, "A", "deposit", note="n1"), SimEvent(1, "A", "deposit", note="n1"))
    )
    t = run(sc)
    (rej,) = kinds(t, "deposit-rejected")
    assert dict(rej.fields)["reason"] == "duplicate-commitment"


def test_double_run_is_byte_identical():
    sc = base_scenario(
        events=(
            SimEvent(0, "A", "deposit", note="n1"),
            SimEvent(1, "B", "deposit", note="n2"),
            SimEvent(4, "B", "submit_withdrawal", note="n1", recipient="alice"),
            SimEvent(5, "A", "submit_withdrawal", note="n2", recipient="bob"),
        )
    )
    t1, t2 = run(sc), run(sc)
    assert t1.render() == t2.render()


def test_seed_changes_commitments():
    mk = lambda seed: base_scenario(seed=seed, events=(SimEvent(0, "A", "deposit", note="n1"),))
    c1 = dict(kinds(run(mk(1)), "deposit")[0].fields)["commitment"]
    c2 = dict(kinds(run(mk(2)), "deposit")[0].fields)["commitment"]
    assert c1 != c2


def test_liveness_with_one_honest_relayer():
    # one honest relayer alone carries the deposit over, so the exit pays on time
    sc = base_scenario(
        relayers=(RelayerSpec("ok", 2),),
        events=(
            SimEvent(0, "A", "deposit", note="n1"),
            SimEvent(3, "B", "submit_withdrawal", note="n1", recipient="alice"),  # D + eps after deposit
        ),
    )
    t = run(sc)
    (fin,) = kinds(t, "withdraw-finalized")
    assert fin.tick == 3 + 2 + 1


def expected_race(delay, eps, t_prime):
    # closed form for the two-submission race (see safety analysis): at
    # t' >= D the second submission is rejected outright; below that, a side
    # pays only if the rival's nullifier arrives after its own finalization
    if t_prime >= delay:
        return 1, 0, True
    first_pays = 1 if t_prime > eps else 0
    second_pays = 1 if t_prime + eps < 0 else 0
    payouts = first_pays + second_pays
    return payouts, 2 - payouts, False


def race_base(delay, eps, **over):
    d = dict(
        seed=9,
        horizon=20,
        hash_rounds=8,
        relay_delay=delay,
        epsilon=eps,
        relayers=(RelayerSpec("r0", delay),),
        events=(
            SimEvent(0, "A", "deposit", note="honest"),
            SimEvent(
                max(delay + eps, delay) + 1, "B", "submit_withdrawal", note="honest", recipient="hh"
            ),
        ),
        adversary=AdversarySpec(
            note="adv", deposit_chain="A", deposit_at=0,
            first_chain="A", first_at=delay + 1, gap=0,
        ),
    )
    d.update(over)
    return Scenario(**d)


@pytest.mark.parametrize("delay", [1, 2, 3])
def test_race_sweep_matches_closed_form(delay):
    eps = 1
    report = explore_races(race_base(delay, eps))
    assert len(report.rows) == 2 * (2 * (delay + eps) + 1)
    for row in report.rows:
        want = expected_race(delay, eps, row.t_prime)
        got = (row.payouts, row.cancellations, row.second_rejected)
        assert got == want, (delay, row)
        assert row.honest_payouts == 1  # the honest arm is never collateral damage
    assert report.max_payouts() == 1 and not report.double_payout_rows


def test_negative_control_underdelayed_finalization_double_pays():
    # processing delay D-1 (epsilon = -1): back-to-back submissions both pay
    report = explore_races(race_base(2, -1))
    by_tp = {}
    for row in report.rows:
        by_tp.setdefault(row.t_prime, []).append(row)
        want = expected_race(2, -1, row.t_prime)
        assert (row.payouts, row.cancellations, row.second_rejected) == want
    assert all(row.payouts == 2 for row in by_tp[0])
    assert report.max_payouts() == 2 and len(report.double_payout_rows) == 2


@pytest.mark.parametrize("delay", [2, 3])
def test_race_safety_over_the_assumption_space(delay):
    # the paper's safety argument assumes an honest relayer delivers within
    # D = relay_delay and withdrawals wait D + epsilon.  Sweep the relayer's
    # actual delay r over 1..D, the deposit chain, and the first submission
    # over one relay period.  A relayed nullifier arrives r ticks after its
    # submission and a withdrawal pays D + epsilon ticks after its own, so
    # each row is the closed form with latency r and slack D + epsilon - r:
    # never a double payout at epsilon >= 0, and at epsilon = -1 a double
    # payout exactly when the relayer takes the full D
    space = itertools.product(range(1, delay + 1), "AB", range(delay, 2 * delay), (0, 1, -1))
    for where in space:
        r, deposit_chain, first_at, eps = where
        base = race_base(delay, eps, relayers=(RelayerSpec("r0", r),))
        adv = dataclasses.replace(base.adversary, deposit_chain=deposit_chain, first_at=first_at)
        report = explore_races(dataclasses.replace(base, adversary=adv))
        for row in report.rows:
            got = (row.payouts, row.cancellations, row.second_rejected)
            assert got == expected_race(r, delay + eps - r, row.t_prime), (where, row)
            assert row.honest_payouts == 1, (where, row)
        assert report.max_payouts() == (2 if eps < 0 and r == delay else 1), where


def relayer_rule_cells(delay):
    """(epsilon, relayers) for epsilon in -D..3: one honest relayer at each
    delay in 1..D + epsilon + 2, alone, and beside a second one, honest or
    header-only, at a delay just inside or just outside D + epsilon."""
    for eps in range(-delay, 4):
        wait = delay + eps
        for d in range(1, wait + 3):
            first = RelayerSpec("r0", d)
            yield eps, (first,)
            for d2, honest in itertools.product(range(max(wait, 1), wait + 2), (True, False)):
                yield eps, (first, RelayerSpec("r1", d2, honest))


@pytest.mark.parametrize("delay", [1, 2, 3, 4])
def test_a_sweep_double_pays_exactly_when_the_fastest_honest_relayer_is_slower_than_the_wait(delay):
    # the relayer rule: a nullifier exposed at tick s lands on the other
    # chain at s + d through the fastest honest relayer, and DELIVER precedes
    # FINALIZE at s + D + epsilon, so the other submission is cancelled or
    # rejected in time iff d <= D + epsilon.  A header-only relayer delivers
    # no nullifier, so its delay never counts.  The first submission waits
    # until the deposit's root has landed on both chains, so every sweep
    # races (a sweep that never raced raises)
    for eps, relayers in relayer_rule_cells(delay):
        fastest = min(r.delay for r in relayers if r.honest)
        first_at = max(fastest + 1, delay)
        base = Scenario(
            seed=2, horizon=first_at + 1, tree_height=2, hash_rounds=1, relay_delay=delay, epsilon=eps,
            relayers=relayers, adversary=AdversarySpec("adv", "A", 0, "A", first_at),
        )
        report = explore_races(base)
        assert bool(report.double_payout_rows) == (fastest > delay + eps), (eps, relayers)


def full_run_rows(base):
    """The sweep's rows from fresh runs: each interleaving from tick 0, with
    no trunk, to the file's horizon or the one its adversary needs,
    whichever is longer, however long before that its outcome settles.
    Raises what the sweep raises when an adversary submission is rejected
    for any reason but nullifier-known."""
    adv = base.adversary
    slack = adv.first_at + 2 * base.relay_delay + abs(base.epsilon) + 4
    rows = []
    for t_prime in range(2 * (base.relay_delay + base.epsilon) + 1):
        for first_chain in (adv.first_chain, other_chain(adv.first_chain)):
            sc = dataclasses.replace(
                base,
                adversary=dataclasses.replace(adv, first_chain=first_chain, gap=t_prime),
                horizon=max(base.horizon, slack + t_prime),
            )
            t = run(sc)
            sn = t.notes[adv.note].nullifier
            order = f"{first_chain}->{other_chain(first_chain)}"
            for e in kinds(t, "withdraw-rejected"):
                if e.get("nullifier") == sn and e.get("reason") != "nullifier-known":
                    raise ScenarioError(
                        "adversary",
                        f"the race at t'={t_prime} order={order} never happened:"
                        f" {e.get('recipient')} was rejected at t={e.tick} as {e.get('reason')}",
                    )
            tallies = {sn: tally for sn, *tally in payout_table(t)}
            payouts, cancels, rejected = tallies[sn]
            honest = sum(tallies[note.nullifier][0] for note_id, note in t.notes.items() if note_id != adv.note)
            rows.append(RaceRow(t_prime, order, payouts, cancels, rejected, honest))
    return rows


@pytest.mark.parametrize("delay", [1, 2, 3])
def test_a_sweep_that_stops_each_run_once_settled_reports_what_full_runs_do(delay):
    # an honest exit just before the file's horizon settles after it: the
    # run still stops at the horizon, and pays no more than a full run does
    for eps, relayer_delay in itertools.product(range(-1, 3), range(1, 6)):
        first_at = max(relayer_delay + 1, delay)  # the deposit's root has landed on both chains
        slack = first_at + 2 * delay + abs(eps) + 4
        for horizon in (first_at + 1, slack + 2 * (delay + eps) + 4):
            for exit_at in (relayer_delay + 1, horizon - 2):
                base = Scenario(
                    seed=4, horizon=horizon, tree_height=2, hash_rounds=1, relay_delay=delay, epsilon=eps,
                    relayers=(RelayerSpec("r0", relayer_delay),),
                    events=(
                        SimEvent(0, "A", "deposit", note="honest"),
                        SimEvent(exit_at, "B", "submit_withdrawal", note="honest", recipient="hh"),
                    ),
                    adversary=AdversarySpec("adv", "A", 0, "A", first_at),
                )
                assert explore_races(base).rows == full_run_rows(base), (eps, relayer_delay, horizon, exit_at)


def sweep_outcome(sweep):
    """The rows `sweep()` returns, or what identifies the error it raises:
    a stopped run's reason, message and partial transcript, or a scenario
    error's field and message."""
    try:
        return sweep()
    except SimInvariantError as err:
        return err.reason, str(err), err.transcript.render()
    except ScenarioError as err:
        return err.field_name, str(err)


@st.composite
def race_scenarios(draw):
    """`engine_scenarios`' events at 1 hash round, with D in 1..4, epsilon
    in -D..3, one to three relayers (the first honest, the others may
    withhold state) that may relay slower than D + epsilon, and an
    adversary whose first submission comes D to D + 4 after its deposit."""
    sc = draw(engine_scenarios(jitter=False))
    delay = draw(st.integers(1, 4))
    eps = draw(st.integers(-delay, 3))
    relayers = [
        RelayerSpec(f"r{i}", draw(st.integers(1, delay + eps + 2)), i == 0 or draw(st.booleans()))
        for i in range(draw(st.integers(1, 3)))
    ]
    deposit_at = draw(st.integers(0, 2))
    adversary = AdversarySpec(
        "adv", draw(st.sampled_from(CHAINS)), deposit_at,
        draw(st.sampled_from(CHAINS)), deposit_at + draw(st.integers(delay, delay + 4)),
    )
    return dataclasses.replace(
        sc, relay_delay=delay, epsilon=eps, hash_rounds=1, adversary=adversary, relayers=tuple(relayers)
    )


@seed(3303)
@settings(max_examples=150, deadline=None, database=None)
@given(base=race_scenarios())
def test_a_sweep_reports_what_whole_horizon_runs_do(base):
    # each interleaving stops once settled; fresh runs to the whole horizon
    # give the same rows, or stop with the same error at the same tick
    assert sweep_outcome(lambda: explore_races(base).rows) == sweep_outcome(lambda: full_run_rows(base))


class JitteredRelayer:
    """An honest relayer whose delay is drawn from [1, bound] by a seeded rng
    each time the engine schedules a send: every delivery lands within the
    bound, in any order, and a later send may overtake an earlier one."""

    honest = True

    def __init__(self, bound, seed):
        self.id = f"jitter{seed}"
        self.bound = bound
        self.seed = seed
        self.rng = random.Random(seed)

    def __repr__(self):
        return f"JitteredRelayer({self.bound}, {self.seed})"

    @property
    def delay(self):
        return self.rng.randint(1, self.bound)


def restarted(sc):
    """`sc` with each jittered relayer back at its first draw, so a rerun
    sees the delays the first run saw."""
    relayers = tuple(
        JitteredRelayer(r.bound, r.seed) if isinstance(r, JitteredRelayer) else r for r in sc.relayers
    )
    return dataclasses.replace(sc, relayers=relayers)


def test_race_safety_when_deliveries_reorder_within_d():
    # the safety argument assumes delivery within D, not in order: a send
    # that overtakes an earlier one must not leave a gap that nothing fills.
    # An order's interleavings fork from one trunk and share its relayer, so
    # each order and seed draws one delay schedule, which every fork follows
    # up to the tick it leaves the trunk
    delay, eps = 3, 1
    rows = []
    for jitter_seed in range(20):
        base = race_base(delay, eps, relayers=(JitteredRelayer(delay, jitter_seed),))
        rows.extend((jitter_seed, row) for row in explore_races(base).rows)
    assert all(row.honest_payouts == 1 for _, row in rows)
    double_paid = [(jitter_seed, row) for jitter_seed, row in rows if row.payouts > 1]
    assert not double_paid, f"{len(double_paid)} of {len(rows)} interleavings double-paid"


@pytest.mark.parametrize("jitter_seed", range(10))
def test_liveness_when_deliveries_reorder_within_d(jitter_seed):
    # a deposit at each tick, each exited on the other chain D + epsilon
    # later: every exit finalizes D + epsilon after its submission
    delay, eps, deposits = 3, 1, 8
    events = []
    for i in range(deposits):
        events.append(SimEvent(i, "A", "deposit", note=f"n{i}"))
        events.append(SimEvent(i + delay + eps, "B", "submit_withdrawal", note=f"n{i}", recipient="alice"))
    sc = base_scenario(
        horizon=deposits + 2 * (delay + eps),
        relay_delay=delay,
        epsilon=eps,
        relayers=(JitteredRelayer(delay, jitter_seed),),
        events=tuple(sorted(events, key=lambda e: e.at)),
    )
    t = run(sc)
    assert not kinds(t, "withdraw-rejected")
    finalized = kinds(t, "withdraw-finalized")
    assert [(e.chain, e.tick) for e in finalized] == [("B", i + 2 * (delay + eps)) for i in range(deposits)]


# -- one mining search per distinct header ----------------------------------------

DEMO_SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def demo_scenario(path):
    return scenario_from_dict(yaml.safe_load(path.read_text(encoding="utf-8")))


def races_demo(eps):
    return dataclasses.replace(demo_scenario(DEMO_SCENARIOS / "races.yaml"), epsilon=eps)


def settled_run(sc):
    """A whole-horizon run of `sc` rendered up to the tick a trunked run of
    it stops at, and that tick: one past the run's last user event or its
    last payout or cancellation, whichever is later, or its horizon if that
    comes first.  Every tick mines a header, so a rendering that matches
    the cut also stopped at that tick."""
    fresh = run(sc)
    adv = sc.adversary
    ticks = [ev.at for ev in sc.events] + [adv.deposit_at, adv.first_at + adv.gap]
    ticks += [e.tick for e in fresh.events if e.kind in ("withdraw-finalized", "withdraw-cancelled")]
    stop = min(sc.horizon, 1 + max(ticks))
    return "".join(e.to_line() + "\n" for e in fresh.events if e.tick < stop), stop


@pytest.mark.parametrize("eps", [1, -1])
def test_sweep_with_shared_memo_renders_each_interleaving_like_a_fresh_run(eps, monkeypatch):
    base = races_demo(eps)
    swept = []
    real_run = simnet.run

    def recording_run(sc, trunk=None):
        transcript = real_run(sc, trunk)
        swept.append((sc, transcript.render()))
        return transcript

    monkeypatch.setattr(simnet, "run", recording_run)
    t_max = 2 * (base.relay_delay + eps)
    explore_races(base)
    assert len(swept) == 2 * (t_max + 1)
    for sc, text in swept:
        # the reference run mines, hashes, derives and proves everything itself
        for cached in cached_functions().values():
            cached.cache_clear()
        want, stop = settled_run(sc)
        assert text == want and stop < sc.horizon, sc.adversary  # each settles before its cap


def test_sweep_mines_each_distinct_header_once(monkeypatch):
    calls = []
    monkeypatch.setattr(simnet, "mine_header", lambda *args: calls.append(args) or mine_header(*args))
    mine_header.cache_clear()
    explore_races(races_demo(1))
    first = set(calls)
    assert mine_header.cache_info().misses == len(first) < len(calls)
    # a second sweep, here the negative control, searches only for the
    # headers the first one did not mine
    calls.clear()
    explore_races(races_demo(-1))
    second = set(calls)
    assert second & first
    assert mine_header.cache_info().misses == len(first) + len(second - first)


def test_sweep_hashes_each_distinct_header_once(monkeypatch):
    calls = []

    def recording_digest(*args):
        calls.append(args)
        return header_digest(*args)

    # contract_setup hashes the genesis header, add_header every relayed one
    monkeypatch.setattr(contract_mod, "header_digest", recording_digest)
    monkeypatch.setattr(lightclient, "header_digest", recording_digest)
    header_digest.cache_clear()
    explore_races(races_demo(1))
    first = set(calls)
    assert header_digest.cache_info().misses == len(first) < len(calls)
    calls.clear()
    explore_races(races_demo(-1))
    second = set(calls)
    assert second & first
    assert header_digest.cache_info().misses == len(first) + len(second - first)
    # mining computes its digests through the shared body: it never fills the
    # verifiers' cache, so every digest in it was hashed by a receiver
    header_digest.cache_clear()
    mine_header.cache_clear()
    mine_header(0, 0, 1, P >> 2, make_params(8))
    assert header_digest.cache_info().currsize == 0


def test_hash_budget_of_a_small_sweep(monkeypatch):
    """The exact permute count of a small sweep, every cache emptied first.
    A change that adds or removes hashing moves it, and must update it on
    purpose."""
    for cached in cached_functions().values():
        cached.cache_clear()
    calls = []
    permute = field_hash.permute
    monkeypatch.setattr(field_hash, "permute", lambda *args: calls.append(1) or permute(*args))
    explore_races(races_demo(1))
    assert len(calls) == 541


def test_sweep_derives_each_note_once_and_verifies_every_proof(monkeypatch):
    """make_note's cache derives each note once per process; the verifier
    evaluates the relation once for each submission executed that reaches
    it, and interleavings share the execution of their common prefix, so it
    does so fewer times than such submissions appear across the transcripts."""
    notes, proved, verified, swept = [], [], [], []
    real_note, real_prove, real_run = simnet.make_note, simnet.zk_prove, simnet.run
    real_relation = zkrel.relation_holds

    def recording_run(sc, trunk=None):
        transcript = real_run(sc, trunk)
        swept.append(transcript)
        return transcript

    monkeypatch.setattr(simnet, "make_note", lambda *args: notes.append(args) or real_note(*args))
    monkeypatch.setattr(simnet, "zk_prove", lambda *args: proved.append(args) or real_prove(*args))
    monkeypatch.setattr(zkrel, "relation_holds", lambda *args: verified.append(args) or real_relation(*args))
    monkeypatch.setattr(simnet, "run", recording_run)
    make_note.cache_clear()
    explore_races(races_demo(1))
    assert make_note.cache_info().misses == len(set(notes)) < len(notes)
    reached = [
        e
        for transcript in swept
        for e in transcript.events
        if e.kind == "withdraw-submitted"
        or (e.kind == "withdraw-rejected" and e.get("reason") == "invalid-proof")
    ]
    # a fork shares its trunk's event records, so each record is one execution
    assert len(swept) == 14 and len(verified) == len({id(e) for e in reached}) < len(reached)
    assert len(verified) <= len(proved)  # a proof of a known nullifier is rejected unverified


def test_every_proof_the_engine_builds_satisfies_the_relation(monkeypatch):
    # zk_prove does not check its witness, so this is the check that the
    # engine only ever proves true statements
    proofs = []
    rendered = []
    real_prove, real_run = simnet.zk_prove, simnet.run

    def recording_prove(pp, stmt, wit):
        proofs.append((pp, stmt, wit))
        return real_prove(pp, stmt, wit)

    def recording_run(sc, trunk=None):
        transcript = real_run(sc, trunk)
        rendered.append(transcript.render())
        return transcript

    monkeypatch.setattr(simnet, "zk_prove", recording_prove)
    monkeypatch.setattr(simnet, "run", recording_run)
    for sc in (*random_scenarios(2031, 6), *map(demo_scenario, sorted(DEMO_SCENARIOS.glob("*.yaml")))):
        simnet.run(sc)
    for eps in (1, -1):
        base = race_base(2, eps)
        explore_races(base)
    assert proofs and len(rendered) > 10
    assert all(relation_holds(pp, stmt, wit) for pp, stmt, wit in proofs)
    assert not any("reason=invalid-proof" in text for text in rendered)


def test_payout_table_tallies_by_nullifier():
    sc = race_base(2, 1)
    t = run(sc)
    rows = {sn: (p, c, r) for sn, p, c, r in payout_table(t)}
    assert len(rows) == 2
    # gap 0 <= eps: both adversary submissions cancel; honest note paid once
    assert rows[t.notes["adv"].nullifier] == (0, 2, False)
    assert rows[t.notes["honest"].nullifier] == (1, 0, False)


def test_explore_races_requires_adversary():
    with pytest.raises(ScenarioError, match="adversary"):
        explore_races(base_scenario())


def test_explore_races_rejects_a_window_below_zero():
    # epsilon below -relay_delay would make the t' window empty: no run, no report
    with pytest.raises(ScenarioError) as err:
        explore_races(race_base(2, -3))
    assert err.value.field_name == "epsilon"


def test_reward_claims_through_engine():
    sc = base_scenario(
        horizon=14,
        rewards={"A": RewardSpec(rate=2, min_lock=3)},
        events=(
            SimEvent(0, "A", "deposit", note="n1"),
            SimEvent(2, "A", "incentive_claim", note="n1", claimant="alice"),   # age 2 < min_lock
            SimEvent(5, "A", "incentive_claim", note="n1", claimant="alice"),   # pays 2*5
            SimEvent(9, "A", "incentive_claim", note="n1", claimant="alice"),   # pays 2*(9-5)
        ),
    )
    t = run(sc)
    (rej,) = kinds(t, "reward-rejected")
    assert rej.tick == 2 and dict(rej.fields)["reason"] == "below-min-lock"
    paid = [int(dict(e.fields)["amount"]) for e in kinds(t, "reward-claimed")]
    assert paid == [10, 8]
    a = t.contracts["A"]
    assert a.gov_minted == {"alice": 18} and a.gov_total == 18
    assert a.balance == 10  # governance tokens never touch deposited value


def test_claim_on_wrong_chain_rejected():
    sc = base_scenario(
        horizon=14,
        rewards={"A": RewardSpec(2, 3), "B": RewardSpec(2, 3)},
        events=(
            SimEvent(0, "A", "deposit", note="n1"),
            SimEvent(6, "B", "incentive_claim", note="n1", claimant="alice"),
        ),
    )
    (rej,) = kinds(run(sc), "reward-rejected")
    assert dict(rej.fields)["reason"] == "wrong-chain"


@pytest.mark.parametrize(
    "over,field",
    [
        (dict(horizon=0), "horizon"),
        (dict(tree_height=0), "tree_height"),
        (dict(tree_height=33), "tree_height"),
        (dict(hash_rounds=0), "hash_rounds"),
        (dict(relay_delay=0), "relay_delay"),
        (dict(epsilon=-3), "epsilon"),  # below -relay_delay at D = 2
        (dict(events=(SimEvent(1, "A", "submit_withdrawal", note="x"),)), "events[0].recipient"),
        (
            dict(rewards=dict.fromkeys("AB", RewardSpec(-1, 0))),
            "rewards.A.rate",
        ),  # one spec object on both chains is still named per chain
        (dict(relayers=(RelayerSpec("r 0", 2),)), "relayers[0].id"),
        (dict(relayers=(RelayerSpec("r0", 0),)), "relayers[0].delay"),
        (dict(events=(SimEvent(99, "A", "deposit", note="x"),)), "events[0].at"),
        (dict(events=(SimEvent(1, "C", "deposit", note="x"),)), "events[0].chain"),
        (dict(events=(SimEvent(1, "A", "mint", note="x"),)), "events[0].action"),
        (dict(events=(SimEvent(1, "A", "deposit", ""),)), "events[0].note"),
        (
            dict(events=(SimEvent(1, "A", "incentive_claim", note="x", claimant="y"),)),
            "events[0]",
        ),  # no reward scheme configured
        (
            dict(adversary=AdversarySpec("a", "A", 0, "A", 1, 0)),
            "adversary.first_at",
        ),  # must wait relay_delay after deposit
        (
            dict(adversary=AdversarySpec("a", "A", 0, "A", 11, 5)),
            "horizon",
        ),  # second submission would land past the end
        (dict(adversary=AdversarySpec("", "A", 0, "A", 3)), "adversary.note"),
        (
            dict(events=(SimEvent(0, "A", "deposit", note="a"),), adversary=AdversarySpec("a", "A", 0, "A", 3)),
            "adversary.note",
        ),  # the adversary must race a note of its own
        (dict(rewards={"C": RewardSpec()}), "rewards.C"),  # a chain no engine runs
        (dict(horizon=simnet.MAX_HORIZON + 1), "horizon"),
        (dict(relay_delay=simnet.MAX_DELAY + 1), "relay_delay"),
        (dict(epsilon=simnet.MAX_DELAY + 1), "epsilon"),
        (dict(relayers=(RelayerSpec("r0", simnet.MAX_DELAY + 1),)), "relayers[0].delay"),
    ],
)
def test_scenario_validation_names_the_field(over, field):
    with pytest.raises(ScenarioError) as err:
        run(base_scenario(**over))
    assert err.value.field_name == field


@pytest.mark.parametrize("extra, swept", [(0, True), (1, False)])
def test_a_sweep_checks_its_widest_interleaving_before_its_first_run(monkeypatch, extra, swept):
    # the run for gap t' needs first_at + t' + 2D + |epsilon| + 4 ticks, so
    # the widest, t' = 2(D + epsilon), fits only if this first_at does
    class Swept(Exception):
        pass

    def no_run(scenario, trunk=None):
        raise Swept

    monkeypatch.setattr(simnet, "run", no_run)
    delay, eps = 2, 1
    first_at = simnet.MAX_HORIZON - 2 * (delay + eps) - (2 * delay + eps + 4) + extra
    base = race_base(delay, eps, horizon=first_at + 1, adversary=AdversarySpec("adv", "A", 0, "A", first_at))
    with pytest.raises(Swept if swept else ScenarioError) as err:
        explore_races(base)
    if not swept:
        assert err.value.field_name == "adversary.first_at"
        assert f"needs horizon {simnet.MAX_HORIZON + 1}," in str(err.value)


@pytest.mark.parametrize("note", ["", "honest"])
def test_a_sweep_whose_adversary_has_no_note_of_its_own_raises_before_its_first_tick(monkeypatch, note):
    # with the bystander's note the adversary's deposit is a duplicate, and
    # three submissions would race one nullifier
    def no_step(engine, now):
        raise AssertionError("a tick ran")

    monkeypatch.setattr(simnet._Engine, "step", no_step)
    base = race_base(2, 1, adversary=AdversarySpec(note, "A", 0, "A", 3))
    with pytest.raises(ScenarioError) as err:
        explore_races(base)
    assert err.value.field_name == "adversary.note"


def sweep_ticks(base):
    """The ticks a sweep of `base` executes, counted from its run lengths:
    per order, the trunk's whole horizon and each fork's from its second
    submission on."""
    horizons = simnet.check_race_sweep(base)
    first_at = base.adversary.first_at
    return 2 * (horizons[-1] + sum(h - first_at - t_prime for t_prime, h in enumerate(horizons[:-1])))


def settled_sweep_ticks(base):
    """The ticks a sweep of `base` executes, counted from where each
    interleaving settles (`settled_run`): per order, the trunk's ticks up to
    its stop and each fork's from its second submission to its stop."""
    horizons = simnet.check_race_sweep(base)
    adv = base.adversary
    ticks = 0
    for first_chain, (t_prime, horizon) in itertools.product(CHAINS, enumerate(horizons)):
        branch = dataclasses.replace(adv, first_chain=first_chain, gap=t_prime)
        stop = settled_run(dataclasses.replace(base, adversary=branch, horizon=horizon))[1]
        ticks += stop if t_prime == len(horizons) - 1 else stop - adv.first_at - t_prime
    return ticks


@pytest.mark.parametrize("exit_at", [4, 30])
def test_the_sweep_bound_counts_the_ticks_a_sweep_executes(monkeypatch, exit_at):
    # the bound counts each run to its horizon and a run that settles
    # sooner stops there: an early honest exit leaves 52 of the 144 counted
    # ticks, and one at tick 30 keeps every run going to its horizon
    steps = []
    real_step = simnet._Engine.step
    monkeypatch.setattr(simnet._Engine, "step", lambda engine, now: steps.append(now) or real_step(engine, now))
    base = races_demo(1)
    honest_exit = dataclasses.replace(base.events[1], at=exit_at)
    base = dataclasses.replace(base, horizon=40, events=(base.events[0], honest_exit))
    explore_races(base)
    swept = len(steps)
    assert swept == settled_sweep_ticks(base) == {4: 52, 30: 410}[exit_at]
    assert swept <= sweep_ticks(base) == {4: 144, 30: 410}[exit_at]


def test_the_sweep_bound_admits_the_widest_window():
    # races.yaml's shape at D = epsilon = 64: 257 gaps in each order
    base = dataclasses.replace(
        races_demo(64), relay_delay=64, adversary=dataclasses.replace(races_demo(64).adversary, first_at=64)
    )
    assert 10**5 < sweep_ticks(base) <= simnet.MAX_SWEEP_TICKS


ROUND_TRIP = {
    "seed": 5,
    "horizon": 16,
    "relay_delay": 3,
    "hash_rounds": 8,
    "relayers": [{"id": "r0", "delay": 3}, {"id": "lazy", "honest": False}],
    "events": [
        {"at": 0, "chain": "A", "action": "deposit", "note": "n1"},
        {"at": 6, "chain": "B", "action": "submit_withdrawal", "note": "n1", "recipient": "al"},
    ],
    "adversary": {
        "note": "adv", "deposit_chain": "B", "deposit_at": 0,
        "first_chain": "B", "first_at": 4, "gap": 1,
    },
    "rewards": {"A": {"rate": 2, "min_lock": 4}},
}


def test_scenario_from_dict_round_trip():
    sc = scenario_from_dict(ROUND_TRIP)
    assert sc.relay_delay == 3 and sc.name == "scenario"  # the default; nothing derives it
    assert not sc.relayers[1].honest and sc.relayers[1].delay == 3  # defaults to relay_delay
    assert sc.events[1].recipient == "al"
    assert sc.adversary.gap == 1
    assert sc.rewards == {"A": RewardSpec(2, 4)}
    run(sc)  # and it executes


def test_an_explicit_empty_relayer_list_means_nobody_relays():
    assert scenario_from_dict({"seed": 1, "horizon": 4}).relayers == (RelayerSpec("relayer0", 2),)
    sc = scenario_from_dict({"seed": 1, "horizon": 4, "relayers": []})
    assert sc.relayers == ()
    assert not kinds(run(sc), "header-accepted")


def test_hash_rounds_above_the_bound_rejected_before_set_up(monkeypatch):
    # set-up time grows with the square of hash_rounds, so the bound is
    # checked while parsing, before any parameter derivation
    derived = []
    monkeypatch.setattr(simnet, "make_params", derived.append)
    bound = simnet.MAX_HASH_ROUNDS
    assert bound >= 64
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"seed": 1, "horizon": 4, "hash_rounds": bound + 1})
    assert err.value.field_name == "hash_rounds"
    assert f"[1, {bound}]" in str(err.value)
    with pytest.raises(ScenarioError):
        run(Scenario(seed=1, horizon=4, hash_rounds=bound + 1, relayers=(RelayerSpec("r0", 2),)))
    assert derived == []
    assert scenario_from_dict({"seed": 1, "horizon": 4, "hash_rounds": bound}).hash_rounds == bound


def test_scenario_from_dict_null_rewards_means_no_rewards():
    assert scenario_from_dict({"seed": 1, "horizon": 4, "rewards": None}).rewards == {}


def test_scenario_from_dict_null_age_means_the_true_age():
    claim = {"at": 2, "chain": "A", "action": "incentive_claim", "note": "n", "claimant": "c", "age": None}
    data = {"seed": 1, "horizon": 4, "rewards": {"A": {"rate": 1}}, "events": [claim]}
    assert scenario_from_dict(data).events[0].age is None


@pytest.mark.parametrize(
    "data,field",
    [
        ({"horizon": 4}, "seed"),
        ({"seed": 1}, "horizon"),
        ({"seed": 1, "horizon": 4, "bogus": 1}, "bogus"),
        ({"seed": "x", "horizon": 4}, "seed"),
        ({"seed": 1, "horizon": 4, "events": {}}, "events"),
        ({"seed": 1, "horizon": 4, "events": [{"at": 0, "chain": "A"}]}, "events[0].action"),
        ({"seed": 1, "horizon": 4, "events": [{"at": 0, "chain": "A", "action": "deposit", "x": 1}]},
         "events[0].x"),
        ({"seed": 1, "horizon": 4, "relayers": [{"id": "r", "delay": "soon"}]}, "relayers[0].delay"),
        ({"seed": 1, "horizon": 4, "adversary": {"note": "a"}}, "adversary.deposit_chain"),
        ({"seed": 1, "horizon": 4, "rewards": {"C": {"rate": 1}}}, "rewards.C"),
        ({"seed": 1, "horizon": 4, "security": 0}, "security"),
        ({"seed": 1, "horizon": 4, "events": [
            {"at": 0, "chain": "A", "action": "deposit", "note": "n", "age": -1}]}, "events[0].age"),
        ({"seed": 1, "horizon": 4, "rewards": {"rate": -1}}, "rewards.rate"),
        ({"seed": 1, "horizon": 4, "relayers": [{"id": "r", "honest": "yes"}]}, "relayers[0].honest"),
        ({"seed": 1, "horizon": 9, "adversary": {
            "note": "a", "deposit_chain": "A", "deposit_at": 0, "first_chain": "A", "first_at": 3,
            "gap": -1}}, "adversary.gap"),
        ({"seed": 1, "horizon": 4, "tree_height": 33}, "tree_height"),
        (["seed", "horizon"], "<root>"),
        ({"seed": 1, "horizon": 4, "security": 2**32}, "security"),
        ({"seed": 1, "horizon": 4, "relayers": [{"id": "r0"}, {"id": "r 1"}]}, "relayers[1].id"),
        ({"seed": 1, "horizon": 4, "events": [
            {"at": 0, "chain": "A", "action": "deposit", "note": "n", "age": "5"}]}, "events[0].age"),
        ({"seed": 1, "horizon": 4, "rewards": {"a": {"rate": 1}, "A": {"rate": 5}}}, "rewards.a"),
        ({"seed": 1, "horizon": 4, "epsilon": -1}, "epsilon"),
        # integers outside the signed 64-bit range: a note's secrets are seeded
        # from the seed's text, and Python prints no int past 4,300 digits
        ({"seed": 2**63, "horizon": 4}, "seed"),
        ({"seed": 1, "horizon": 4, "relay_delay": -(2**63) - 1}, "relay_delay"),
        ({"seed": 1, "horizon": 4, "name": 16**4000}, "name"),
    ],
)
def test_scenario_from_dict_names_offending_field(data, field):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.field_name == field


# valid scenarios covering every section and payload key
FUZZ_BASES = (
    ROUND_TRIP,
    {
        "seed": 2, "horizon": 12, "hash_rounds": 8,
        "events": [
            {"at": 0, "chain": "A", "action": "deposit", "note": "n1"},
            {"at": 5, "chain": "A", "action": "incentive_claim", "note": "n1", "claimant": "c", "age": 4},
        ],
        "rewards": {"A": {"rate": 2, "min_lock": 1}},
    },
)
OTHER_TYPES = (None, "x", 1.5, True, 7, [], {}, [{}])


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _node(root, path):
    for key in path:
        root = root[key]
    return root


@st.composite
def mutated_scenarios(draw):
    """A valid scenario with one fault at any depth: a dropped key, a value of
    another type, a negated integer or an unknown key.  Some also hold one
    sub-mapping in two places, which yaml.safe_dump writes as an anchor and
    an alias, and a scenario file may not hold."""
    holder = {"doc": copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))}
    path = draw(st.sampled_from(list(_paths(holder))[1:]))
    parent = _node(holder, path[:-1])
    key, node = path[-1], parent[path[-1]]
    kind = draw(st.sampled_from(("drop", "retype", "negate", "unknown")))
    if kind == "drop" and key != "doc":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(node)]))
    elif kind == "negate" and type(node) is int:
        parent[key] = -node
    elif kind == "unknown" and isinstance(node, dict):
        node[draw(st.sampled_from(("bogus", 3, "target", "payload")))] = 1
    mappings = [p for p in _paths(holder) if len(p) > 1 and isinstance(_node(holder, p), dict)]
    # neither inside the other, so the reuse makes no cycle and removes no copy
    pairs = [(a, b) for a in mappings for b in mappings if a[: len(b)] != b and b[: len(a)] != a]
    if pairs and draw(st.booleans()):
        source, target = draw(st.sampled_from(pairs))
        _node(holder, target[:-1])[target[-1]] = _node(holder, source)
    return holder["doc"]


def _outcome(parse):
    try:
        return parse()
    except ScenarioError as err:
        return err.field_name


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.yaml"


class AliasFreeDumper(yaml.SafeDumper):
    """Writes a value held in two places twice: no anchors, no aliases."""

    def ignore_aliases(self, data):
        return True


@seed(2102)
@settings(max_examples=300, deadline=None, database=None)
@given(data=mutated_scenarios())
def test_parser_returns_scenario_or_scenario_error(fuzz_file, data):
    # any other exception escapes _outcome and fails the test
    def load(text):
        fuzz_file.write_text(text, encoding="utf-8")
        return _outcome(lambda: cli.load_scenario(cli.RunConfig(str(fuzz_file), str(fuzz_file.parent))))

    parsed = _outcome(lambda: scenario_from_dict(data))
    assert isinstance(parsed, (Scenario, str))
    plain = yaml.dump(data, Dumper=AliasFreeDumper, sort_keys=False)
    assert load(plain) == parsed  # the YAML route parses to the same result
    aliased = yaml.safe_dump(data, sort_keys=False)
    if aliased != plain:  # a shared sub-mapping, written as an anchor and an alias
        assert load(aliased) == "<syntax>"


def random_scenarios(rng_seed, trials):
    """Small random scenarios: deposits on either chain, most of them withdrawn
    on either chain a few ticks later."""
    rng = random.Random(rng_seed)
    for trial in range(trials):
        delay = rng.randrange(1, 4)
        # backing deposits on the native side so random A-withdrawals stay solvent
        events = [SimEvent(0, "A", "deposit", note=f"buf{i}") for i in range(4)]
        notes = []
        for i in range(rng.randrange(1, 5)):
            chain = rng.choice("AB")
            at = rng.randrange(0, 4)
            notes.append((f"n{i}", chain, at))
            events.append(SimEvent(at, chain, "deposit", note=f"n{i}"))
        for note, chain, at in notes:
            if rng.random() < 0.7:
                target = rng.choice("AB")
                events.append(
                    SimEvent(at + delay + 2 + rng.randrange(0, 3), target, "submit_withdrawal",
                             note=note, recipient=f"u-{note}")
                )
        yield base_scenario(
            seed=100 + trial,
            horizon=14,
            relay_delay=delay,
            relayers=(RelayerSpec("r0", delay),),
            events=tuple(sorted(events, key=lambda e: e.at)),
        )


def test_randomized_scenarios_conserve_and_replay(fast_params):
    # random small scenarios: every run holds per-tick invariants (enforced
    # inside run) and replays byte-identically
    for sc in random_scenarios(2031, 6):
        t1, t2 = run(sc), run(sc)
        assert t1.render() == t2.render()


def per_tick_scenarios():
    """Random scenarios, a race at both epsilon signs, and a reward claim."""
    claims = (
        SimEvent(0, "A", "deposit", note="n1"),
        SimEvent(4, "A", "incentive_claim", note="n1", claimant="alice"),
        SimEvent(5, "B", "submit_withdrawal", note="n1", recipient="bob"),
    )
    return [
        *random_scenarios(2031, 6),
        race_base(2, 1),
        race_base(2, -1),
        base_scenario(rewards={"A": RewardSpec(2, 3)}, events=claims),
    ]


def test_stored_digests_equal_fresh_hashes_after_every_tick(monkeypatch):
    # the engine keeps each mined header's digest from the search, and
    # reuses the last header's state commitment while its contract's digests
    # are unchanged; checked here against a rehash, not in the per-tick
    # invariants, which would spend again the hashing that keeping them saves
    real_mine = simnet._Engine._mine
    mined = []

    def mine_fresh(engine, now):
        real_mine(engine, now)
        for chain, node in engine.nodes.items():
            c = node.contract
            fresh = state_commitment_value(c.local_root_digest, c.exposed_digest, c.hash_params)
            assert node.headers[-1].state_commitment == fresh, (chain, now)
            mined.append(chain)

    monkeypatch.setattr(simnet._Engine, "_mine", mine_fresh)
    for sc in per_tick_scenarios():
        mined.clear()
        t = run(sc)
        assert len(mined) == 2 * sc.horizon
        # a relayed header links only if the miner's kept tip digest was right
        assert len(kinds(t, "header-accepted")) == 2 * (sc.horizon - max(r.delay for r in sc.relayers))
        assert not kinds(t, "header-rejected")


def test_root_tick_maps_follow_the_root_lists_after_every_tick(monkeypatch):
    # each side keeps one root -> tick map: its keys are the root list, in
    # order, and no root is dated after the tick that checks it
    real_tick, real_check = contract_mod.process_tick, contract_mod.check_contract_invariants
    clock, checks = {}, []

    def recording_tick(state, now):
        clock["now"] = now
        return real_tick(state, now)

    def check_maps(state):
        real_check(state)
        now = clock["now"]
        assert list(state.local_roots) == state.tree.root_history
        assert list(state.remote_root_ticks) == state.remote_roots
        assert all(tick <= now for tick in state.local_roots.values())
        assert all(tick <= now for tick in state.remote_root_ticks.values())
        checks.append(now)

    monkeypatch.setattr(contract_mod, "process_tick", recording_tick)
    monkeypatch.setattr(contract_mod, "check_contract_invariants", check_maps)
    for sc in per_tick_scenarios():
        checks.clear()
        t = run(sc)
        assert checks == [now for now in range(sc.horizon) for _ in "AB"]
        if sc.rewards:
            assert kinds(t, "reward-claimed")  # the claim read both maps


@contextlib.contextmanager
def rescan_after_every_tick():
    """Within the block, each per-tick invariant check also runs the full
    rescan: both must pass and agree on the paid set.  Yields the list of
    checked chain ids, one per check."""
    real_check = contract_mod.check_contract_invariants
    checks = []

    def check_both(state):
        assert outcome(full_rescan, state) is None
        real_check(state)
        assert state.paid_nullifiers == paid_by_rescan(state)
        checks.append(state.chain_id)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contract_mod, "check_contract_invariants", check_both)
        yield checks


def test_incremental_invariants_agree_with_the_full_rescan_after_every_tick():
    # the per-tick check reads only the news; the oracle walks the whole
    # queue, and after every tick both pass and agree on the paid set (the
    # tamper tests in test_contract.py compare their messages)
    demos = [demo_scenario(path) for path in sorted(DEMO_SCENARIOS.glob("*.yaml"))]
    paid = 0
    with rescan_after_every_tick() as checks:
        for sc in (*per_tick_scenarios(), *demos):
            checks.clear()
            t = run(sc)
            assert len(checks) == 2 * sc.horizon
            paid += len(kinds(t, "withdraw-finalized"))
    assert paid > 0


@st.composite
def engine_scenarios(draw, jitter=True):
    """A valid scenario on a short horizon at 1 or 2 hash rounds: honest,
    withholding and (if `jitter`) jittered relayers that all deliver within
    D, rewards on either chain, and deposits, withdrawals (some spent again
    on the other chain within D) and reward claims at any tick."""
    horizon = draw(st.integers(4, 18))
    delay = draw(st.integers(1, 3))
    fixed = st.builds(RelayerSpec, st.sampled_from(("r0", "r1")), st.integers(1, delay), st.booleans())
    jittered = st.builds(JitteredRelayer, st.just(delay), st.integers(0, 99))
    relayers = draw(st.lists(st.one_of(fixed, jittered) if jitter else fixed, max_size=3))
    chains = st.sampled_from(CHAINS)
    reward_chains = sorted(draw(st.sets(chains)))
    rewards = {c: RewardSpec(draw(st.integers(0, 3)), draw(st.integers(0, 4))) for c in reward_chains}
    deposited = {f"n{i}": draw(st.integers(0, horizon // 2)) for i in range(draw(st.integers(1, 4)))}
    events = [SimEvent(at, draw(chains), "deposit", note) for note, at in deposited.items()]

    def later(note):  # mostly after the note's deposit, sometimes before it
        return min(horizon - 1, max(0, deposited[note] + draw(st.integers(-1, horizon))))

    for note in draw(st.lists(st.sampled_from(sorted(deposited)), max_size=5)):
        at, chain = later(note), draw(chains)
        events.append(SimEvent(at, chain, "submit_withdrawal", note, recipient="u"))
        if draw(st.booleans()):  # a double spend on the other chain within D
            second = min(horizon - 1, at + draw(st.integers(0, delay)))
            events.append(SimEvent(second, simnet.other_chain(chain), "submit_withdrawal", note, recipient="v"))
    if reward_chains:
        for note in draw(st.lists(st.sampled_from(sorted(deposited)), max_size=3)):
            age = draw(st.none() | st.integers(0, horizon))
            chain = draw(st.sampled_from(reward_chains))
            events.append(SimEvent(later(note), chain, "incentive_claim", note, claimant="c", age=age))
    return Scenario(
        seed=draw(st.integers(0, 3)),  # few seeds, so later examples meet cached notes
        horizon=horizon,
        tree_height=draw(st.integers(2, 4)),
        epsilon=draw(st.integers(0, 2)),
        relay_delay=delay,
        hash_rounds=draw(st.integers(1, 2)),
        relayers=tuple(relayers),
        events=tuple(sorted(events, key=lambda e: e.at)),
        rewards=rewards,
    )


def rendered_end(finish) -> str:
    """The rendered transcript that `finish()` returns, or the partial one
    of an insolvent payout that stops it; any other outcome fails."""
    try:
        return finish().render()
    except SimInvariantError as err:
        assert err.reason == "insolvent", err
        return f"{err.transcript.render()}{err}\n"


def run_to_an_end(sc) -> str:
    return rendered_end(lambda: run(sc))


@seed(2203)
@settings(max_examples=40, deadline=None, database=None)
@given(sc=engine_scenarios())
def test_valid_scenarios_run_to_an_end_and_replay_from_cold_caches(sc):
    # the per-tick invariants agree with the full rescan, and a rerun that
    # derives every note, proof, header and digest afresh renders the same
    with rescan_after_every_tick():
        rendered = run_to_an_end(sc)
    assert "reason=invalid-proof" not in rendered  # the engine proves only true statements
    for cached in cached_functions().values():
        cached.cache_clear()
    assert run_to_an_end(restarted(sc)) == rendered


def mutable_parts(engine) -> list:
    """Everything the engine holds that a tick may mutate: each list, dict,
    set and array of it, its chain nodes, contracts and trees, each delivery
    bucket, and each pending withdrawal, as queued and as the nullifier map
    holds it."""
    owners = [engine, *engine.nodes.values()]
    for c in engine.contracts:
        owners += [c, c.tree]
    parts = [v for owner in owners for v in vars(owner).values() if isinstance(v, (list, dict, set, array))]
    for c in engine.contracts:
        parts += [*c.pending_withdrawals, *filter(None, c.nullifiers.values())]
    return parts + list(engine.deliveries.values())


def assert_fork_runs_like_fresh(sc, at):
    """An engine advanced to tick `at` and forked there: it and its fork
    each render like a fresh run of `sc`, the partial transcript and reason
    of an insolvent payout included.  The trunk runs to its end first, so a
    container the fork still shared would show in the fork."""
    fresh = run_to_an_end(sc)
    trunk, forks = simnet._Engine(sc), []

    def fork_then_finish():
        trunk.advance(at)  # an insolvent payout may stop it before the fork
        forks.append(trunk.fork(sc))
        assert not {id(v) for v in mutable_parts(trunk)} & {id(v) for v in mutable_parts(forks[0])}
        return trunk.run()

    assert rendered_end(fork_then_finish) == fresh
    if forks:
        assert forks[0].tick == at
        assert rendered_end(forks[0].run) == fresh
    return fresh


@seed(2311)
@settings(max_examples=40, deadline=None, database=None)
@given(sc=engine_scenarios(jitter=False), data=st.data())
def test_an_engine_and_its_fork_each_run_like_a_fresh_run(sc, data):
    # fixed-delay relayers only: a jittered one's draws are not part of the
    # engine, so a fork would not replay them
    assert_fork_runs_like_fresh(sc, data.draw(st.integers(0, sc.horizon), label="fork tick"))


@pytest.mark.parametrize("at", [0, 5, 7, 8, 12])
def test_a_fork_stops_where_its_trunk_does(at):
    # A cannot cover the payout due at tick 7, before or after the fork
    sc = base_scenario(
        events=(SimEvent(0, "B", "deposit", note="n1"), SimEvent(4, "A", "submit_withdrawal", "n1", "al"))
    )
    assert "tick 7: A cannot cover" in assert_fork_runs_like_fresh(sc, at)


def test_a_misused_branch_raises():
    base = race_base(2, 1)
    widest = dataclasses.replace(base, adversary=dataclasses.replace(base.adversary, gap=6))
    narrow = dataclasses.replace(base, adversary=dataclasses.replace(base.adversary, gap=1))
    trunk = simnet._Trunk(widest)
    for other in (dataclasses.replace(narrow, seed=base.seed + 1), dataclasses.replace(narrow, epsilon=0)):
        with pytest.raises(ValueError, match="only in its schedule and horizon"):
            run(other, trunk)
    assert trunk.engine is None  # a rejected branch runs nothing
    assert run(narrow, trunk).render() == settled_run(narrow)[0]
    assert trunk.engine.tick == base.adversary.first_at + 1  # where the second submissions part
    with pytest.raises(ValueError, match="which the trunk has passed"):
        run(base, trunk)  # gap 0 leaves the trunk a tick earlier
    assert run(widest, trunk).render() == settled_run(widest)[0]
    with pytest.raises(ValueError, match="which the trunk has passed"):
        run(narrow, trunk)


def test_a_trunk_stopped_before_the_branch_leaves_it_stops_the_branch():
    # B's deposit backs A's payout at tick 7, which A cannot cover; the
    # interleavings part at tick 11, so the trunk stops before any fork
    sc = base_scenario(
        horizon=20,
        events=(SimEvent(0, "B", "deposit", note="n1"), SimEvent(4, "A", "submit_withdrawal", "n1", "al")),
        adversary=AdversarySpec("adv", "B", 0, "B", 10, 3),
    )
    branch = dataclasses.replace(sc, adversary=dataclasses.replace(sc.adversary, gap=1))
    with pytest.raises(SimInvariantError) as fresh:
        run(branch)
    trunk = simnet._Trunk(sc)
    for _ in range(2):  # the stopped trunk is dropped, and the next branch builds its own
        with pytest.raises(SimInvariantError) as err:
            run(branch, trunk)
        assert err.value.reason == fresh.value.reason == "insolvent" and str(err.value) == str(fresh.value)
        assert err.value.transcript.scenario == branch
        assert err.value.transcript.render() == fresh.value.transcript.render()
        assert trunk.engine is None


class CountingQueue(list):
    """A withdrawal queue that counts the entries read while `counting`."""

    def __init__(self):
        super().__init__()
        self.counting = False
        self.visits = 0

    def __getitem__(self, index):
        got = super().__getitem__(index)
        if self.counting:
            self.visits += len(got) if isinstance(index, slice) else 1
        return got

    def __iter__(self):
        if self.counting:
            self.visits += len(self)
        return super().__iter__()


def test_relay_traffic_is_at_most_delay_sends_per_entry(monkeypatch):
    # a relayer sends what the receiver's view lacks, so it re-sends an entry
    # each tick until the fastest relayer's copy lands: at most `delay` times.
    # A relayer that sent from the start of each list would carry O(history)
    # every tick
    headers, entries = [], []
    real_header, real_state = contract_mod.on_relayed_header, contract_mod.on_relayed_state

    def count_header(state, header, now):
        headers.append(header)
        return real_header(state, header, now)

    def count_state(state, att, now):
        entries.append(len(att.roots) + len(att.nullifiers))
        return real_state(state, att, now)

    monkeypatch.setattr(contract_mod, "on_relayed_header", count_header)
    monkeypatch.setattr(contract_mod, "on_relayed_state", count_state)
    demos = [demo_scenario(path) for path in sorted(DEMO_SCENARIOS.glob("*.yaml"))]
    for sc in [*per_tick_scenarios(), *demos]:
        headers.clear()
        entries.clear()
        t = run(sc)
        mined = len(kinds(t, "header-mined"))
        produced = sum(len(c.tree.root_history) - 1 + len(c.pending_withdrawals) for c in t.contracts.values())
        assert len(headers) <= sum(r.delay for r in sc.relayers) * mined
        assert sum(entries) <= sum(r.delay for r in sc.relayers if r.honest) * produced
        assert headers and entries  # each scenario relays both


def queue_visits(monkeypatch, check, scenarios):
    """(entries `check` read, 2 x withdrawals queued) summed over a run of
    each scenario, with `check` as the per-tick invariant check."""
    queues = []
    real_setup = contract_mod.contract_setup

    def counting_setup(*args, **kwargs):
        state = real_setup(*args, **kwargs)
        state.pending_withdrawals = CountingQueue()
        queues.append(state.pending_withdrawals)
        return state

    def counting_check(state):
        state.pending_withdrawals.counting = True
        try:
            check(state)
        finally:
            state.pending_withdrawals.counting = False

    monkeypatch.setattr(contract_mod, "contract_setup", counting_setup)
    monkeypatch.setattr(contract_mod, "check_contract_invariants", counting_check)
    for sc in scenarios:
        run(sc)
    return sum(q.visits for q in queues), 2 * sum(len(q) for q in queues)


def test_invariant_check_reads_each_queue_entry_at_most_twice(monkeypatch):
    # once when it is queued ("exposed nullifiers known") and once when
    # process_tick moves past it ("one payout per nullifier"), however many
    # ticks the run has; the full rescan reads the whole queue every tick
    scenarios = [*per_tick_scenarios(), *map(demo_scenario, sorted(DEMO_SCENARIOS.glob("*.yaml")))]
    visits, bound = queue_visits(monkeypatch, contract_mod.check_contract_invariants, scenarios)
    assert 0 < visits <= bound
    rescan_visits, _ = queue_visits(monkeypatch, full_rescan, scenarios)
    assert rescan_visits > 5 * bound


def test_the_empty_state_is_hashed_once_per_process():
    # the engine's genesis and both contracts commit to the same empty state
    contract_mod.empty_state_digests.cache_clear()
    explore_races(races_demo(1))
    info = contract_mod.empty_state_digests.cache_info()
    # one engine per submission order, 3 reads each: the 14 interleavings fork from 2 trunks
    assert (info.misses, info.hits) == (1, 2 * 3 - 1)
