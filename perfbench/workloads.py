"""Seeded scenario generators for the benchmark workloads.

Each generator is a pure function of (seed, scale).  It returns the scenario
as a plain mapping, which the harness writes to a YAML file for the program to
load, together with the outcome statistics the run must produce.  The program
never sees the seed except through the generated scenario (or, for `races`,
through the CLI's own `--seed` flag).

Workloads
---------
ladder  800 deposits on A, then 400 cross-chain exits on B; one honest
        relayer, 8 hash rounds, tree height 12.  A long, one-directional
        history, so the costs that grow with history (full-list state
        attestations, per-tick invariant rescans, the quadratic transcript
        analyses) dominate.
races   the double-withdraw sweep of demos/scenarios/races.yaml at 64 hash
        rounds (production strength).  Short histories; hashing-bound.
churn   about 500 notes over two busy chains, D=3, three relayers (honest at
        delays 2 and 3, header-only at delay 1), rewards on both chains.
        Mixed traffic that takes the rejection, cancellation, stale-relay and
        historical-path branches instead of the happy path.

Churn liquidity rule: chain A is native, so an exit that finalizes on A pays
out of A's deposited balance, and the engine aborts the whole run with
`ContractError("insolvent")` when that balance is short (ROADMAP open item 2,
which is where that failure gets a typed rejection and a test).  The churn
generator therefore only places a paying exit on A while A's free balance
(A deposits so far minus A exits already placed) covers it, and otherwise
moves that exit to B.  Until item 2 lands, the benchmark cannot exercise the
insolvency path at all.
"""
from __future__ import annotations

import random
from collections import Counter

WORKLOADS = ("ladder", "races", "churn")


def _event(at, chain, action, note, **extra):
    ev = {"at": at, "chain": chain, "action": action, "note": note}
    ev.update(extra)
    return ev


# Events at the same tick run in list order; deposits go first so a same-tick
# exit can see its note, then reward claims, then withdrawals.
_ACTION_ORDER = {"deposit": 0, "incentive_claim": 1, "submit_withdrawal": 2}


def _sorted_events(events):
    return sorted(events, key=lambda ev: (ev["at"], _ACTION_ORDER[ev["action"]]))


def _expected(outcomes: Counter, lag: int, deposits: int, claims: int) -> dict:
    finalized = outcomes["finalized"]
    return {
        "withdrawals": dict(sorted(outcomes.items())),
        "submit_to_finalize": {str(lag): finalized} if finalized else {},
        "duplicates_detected": outcomes["cancelled:duplicate-nullifier"],
        "events_by_kind": {
            "deposit": deposits,
            "deposit-rejected": 0,
            "reward-claimed": claims,
            "reward-rejected": 0,
        },
    }


def ladder(seed: int, scale: float = 1.0):
    """Deposits on A one per tick, then exits on B one per tick of distinct,
    seed-chosen notes to seed-chosen recipients."""
    rng = random.Random(f"ladder:{seed}")
    relay_delay, epsilon = 2, 1
    deposits = max(2, round(800 * scale))
    exits = deposits // 2
    events = [_event(i, "A", "deposit", f"n{i}") for i in range(deposits)]
    for k, i in enumerate(rng.sample(range(deposits), exits)):
        events.append(
            _event(deposits + k, "B", "submit_withdrawal", f"n{i}", recipient=f"r{rng.randrange(64)}")
        )
    scenario = {
        "seed": seed,
        "horizon": deposits + exits + relay_delay + epsilon + 2,
        "tree_height": 12,
        "relay_delay": relay_delay,
        "epsilon": epsilon,
        "hash_rounds": 8,
        "name": f"ladder-{deposits}",
        "relayers": [{"id": "relayer0", "delay": relay_delay}],
        "events": events,
    }
    outcomes = Counter(submitted=exits, finalized=exits)
    return scenario, _expected(outcomes, relay_delay + epsilon, deposits, 0)


def races(seed: int, scale: float = 1.0):
    """demos/scenarios/races.yaml at 64 rounds; the seed goes in via the CLI's
    --seed override, so the scenario file itself is the same for every seed.
    The sweep has no size to scale."""
    scenario = {
        "seed": 99,
        "horizon": 20,
        "relay_delay": 2,
        "epsilon": 1,
        "hash_rounds": 64,
        "name": "races",
        "relayers": [{"id": "relayer0", "delay": 2}],
        "events": [
            _event(0, "A", "deposit", "honest"),
            _event(4, "B", "submit_withdrawal", "honest", recipient="bystander"),
        ],
        "adversary": {
            "note": "double-spender",
            "deposit_chain": "A",
            "deposit_at": 0,
            "first_chain": "A",
            "first_at": 3,
            "gap": 0,
        },
    }
    # t' in [0, 2(D+eps)] and both orders: 14 runs at eps=1, 6 at eps=-1
    expected = {"eps1": {"runs": 14}, "eps-1": {"runs": 6}}
    return scenario, expected


# churn timing: payouts wait D + eps; the fastest honest relayer delivers state
# RELAY ticks after it was produced; deposits fall in the first BUSY ticks of
# each EPOCH so both chains see quiet ticks before the epoch's reward claims.
_D, _EPS, _RELAY = 3, 1, 2
_LAG = _D + _EPS
_EPOCH, _BUSY, _CLAIM_AT = 12, 8, 11
_MIN_LOCK = 2
_EPOCH_MIX = (
    "local", "local", "cross", "cross", "double",
    "repeat", "early", "holder", "holder", "idle",
)


def _other(chain):
    return "B" if chain == "A" else "A"


def churn(seed: int, scale: float = 1.0):
    """Ten notes per 12-tick epoch, one of each kind in _EPOCH_MIX:

    local   exit on the deposit chain (a mixer hop)
    cross   exit on the other chain, after the root is relayed
    double  spent on both chains 0-1 ticks apart: both cancelled
    repeat  one good exit, then a second spend: rejected nullifier-known
    early   exit on the other chain before the root is relayed (rejected
            unknown-remote-root), then a good exit
    holder  reward claim against the deposit-time root, then a good exit
    idle    deposit only; stays in the anonymity pool
    """
    rng = random.Random(f"churn:{seed}")
    epochs = max(1, round(50 * scale))
    deposits = []  # (tick, chain, note)
    claims = []    # (tick, chain, note)
    spends = []    # [tick, chain, note, pays]; pays=False for designed rejections/cancels
    outcomes = Counter()
    for e in range(epochs):
        base = e * _EPOCH
        kinds = list(_EPOCH_MIX)
        rng.shuffle(kinds)
        holder_chains = ["A", "B"]
        for j, kind in enumerate(kinds):
            note = f"c{e}-{j}"
            chain = holder_chains.pop() if kind == "holder" else rng.choice("AB")
            dep = base + rng.randrange(_BUSY)
            deposits.append((dep, chain, note))
            if kind == "local":
                spends.append([dep + rng.randint(1, 16), chain, note, True])
            elif kind == "cross":
                spends.append([dep + rng.randint(_RELAY, 16), _other(chain), note, True])
            elif kind == "double":
                first = dep + rng.randint(_RELAY, 16)
                order = rng.sample("AB", 2)
                spends.append([first, order[0], note, False])
                spends.append([first + rng.randint(0, 1), order[1], note, False])
                outcomes["submitted"] += 2
                outcomes["cancelled:duplicate-nullifier"] += 2
            elif kind == "repeat":
                first = dep + rng.randint(_RELAY, 16)
                spends.append([first, rng.choice("AB"), note, True])
                spends.append([first + rng.randint(_LAG + 1, _LAG + 6), rng.choice("AB"), note, False])
                outcomes["rejected:nullifier-known"] += 1
            elif kind == "early":
                spends.append([dep + rng.randint(0, 1), _other(chain), note, False])
                spends.append([dep + rng.randint(_RELAY + 1, 16), _other(chain), note, True])
                outcomes["rejected:unknown-remote-root"] += 1
            elif kind == "holder":
                claims.append((base + _CLAIM_AT, chain, note))
                spends.append([base + _CLAIM_AT + rng.randint(1, 12), rng.choice("AB"), note, True])
    # liquidity rule (module docstring): walk paying exits in submission order
    a_deposit_ticks = sorted(t for t, c, _ in deposits if c == "A")
    reserved = 0
    for spend in sorted((s for s in spends if s[3]), key=lambda s: s[0]):
        outcomes["submitted"] += 1
        outcomes["finalized"] += 1
        if spend[1] != "A":
            continue
        covered = sum(1 for t in a_deposit_ticks if t <= spend[0]) - reserved
        if covered >= 1:
            reserved += 1
        else:
            spend[1] = "B"
    events = [_event(t, c, "deposit", n) for t, c, n in deposits]
    # a claim's age may not exceed the age of the newest remote root, which
    # landed RELAY ticks after the other chain's last deposit
    for tick, chain, note in claims:
        dep_tick = next(t for t, _, n in deposits if n == note)
        remote_ts = max(
            (t + _RELAY for t, c, _ in deposits if c != chain and t + _RELAY <= tick),
            default=0,
        )
        age = min(tick - dep_tick, tick - remote_ts)
        events.append(_event(tick, chain, "incentive_claim", note, claimant=f"h{note}", age=age))
    for tick, chain, note, _ in spends:
        events.append(_event(tick, chain, "submit_withdrawal", note, recipient=f"r{rng.randrange(64)}"))
    events = _sorted_events(events)
    scenario = {
        "seed": seed,
        # the same for every seed (the last spend is at most 33 ticks into the
        # last epoch), so header and relay work does not vary with the seed
        "horizon": (epochs - 1) * _EPOCH + 33 + _LAG + _D + 2,
        "tree_height": 12,
        "relay_delay": _D,
        "epsilon": _EPS,
        "hash_rounds": 8,
        "name": f"churn-{len(deposits)}",
        "relayers": [
            {"id": "honest-fast", "delay": _RELAY},
            {"id": "honest-slow", "delay": _D},
            {"id": "headers-only", "delay": 1, "honest": False},
        ],
        "rewards": {"A": {"rate": 1, "min_lock": _MIN_LOCK}, "B": {"rate": 2, "min_lock": _MIN_LOCK}},
        "events": events,
    }
    return scenario, _expected(outcomes, _LAG, len(deposits), len(claims))


GENERATORS = {"ladder": ladder, "races": races, "churn": churn}
