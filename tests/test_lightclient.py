import dataclasses
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from bridgemix import field_hash, lightclient
from bridgemix.contract import contract_setup, deposit
from bridgemix.field_hash import P, hash2, make_params
from bridgemix.lightclient import (
    BlockHeader,
    MiningError,
    StateAttestation,
    add_bridge_state,
    add_header,
    header_digest,
    mine_header,
    state_commitment_value,
)
from bridgemix.zkrel import zk_setup

EASY_TARGET = P >> 2
TINY_PARAMS = make_params(4)  # the tiny_params fixture, for Hypothesis tests


class FakeContract:
    """Just the attributes the light-client entry points touch."""

    def __init__(self, params, genesis):
        self.hash_params = params
        self.remote_headers = [genesis]
        self.remote_roots = []
        self.remote_root_digest = 0
        self.remote_root_ticks = {}
        self.remote_exposed = []
        self.remote_exposed_digest = 0


def chain_digest(values, params):
    """Reference running digest of a whole list: fold hash2 from 0."""
    digest = 0
    for v in values:
        digest = hash2(digest, v, params)
    return digest


def validate_chain(headers, params):
    """Reference whole-chain check: every header meets its target and links."""
    for i, header in enumerate(headers):
        if header_digest(header, params) >= header.work_target:
            return False
        if i > 0:
            prev = headers[i - 1]
            if header.height != prev.height + 1:
                return False
            if header.prev_hash != header_digest(prev, params):
                return False
    return True


def commit(roots, nulls, params):
    return state_commitment_value(chain_digest(roots, params), chain_digest(nulls, params), params)


def naive_mine(height, prev_hash, commitment, target, params):
    """Reference search: hash each candidate header whole, nonce from 0."""
    for nonce in range(lightclient.MINING_TRIES):
        header = BlockHeader(height, prev_hash, commitment, nonce, target)
        if header_digest(header, params) < target:
            return header
    return None


def make_chain(params, commits, target=EASY_TARGET):
    headers = [mine_header(0, 0, commits[0], target, params)[0]]
    for commitment in commits[1:]:
        headers.append(
            mine_header(len(headers), header_digest(headers[-1], params), commitment, target, params)[0]
        )
    return headers


class TestHeaderDigest:
    def test_golden_fixed_header(self):
        # pinned once from the oracle hash2(hash2(prev_hash, state_commitment),
        # height * 2**32 + nonce)
        header = BlockHeader(0, 0, 0, 0, P >> 2)
        params = field_hash.DEFAULT_PARAMS
        assert header_digest(header, params) == 13919005314840334143
        top = lightclient.HEIGHT_LIMIT - 1
        for height, prev, commitment, nonce in ((0, 0, 0, 0), (3, 11, P - 1, 7), (top, P - 1, 5, 2**32 - 1)):
            header = BlockHeader(height, prev, commitment, nonce, P >> 2)
            oracle = hash2(hash2(prev, commitment, params), height * 2**32 + nonce, params)
            assert header_digest(header, params) == oracle

    def test_packed_word_stays_below_p(self):
        assert lightclient.NONCE_SPAN == 2**32
        assert lightclient.MINING_TRIES <= lightclient.NONCE_SPAN
        # the highest height takes every nonce; the next would wrap past p
        assert (lightclient.HEIGHT_LIMIT - 1) * 2**32 + 2**32 - 1 < P
        assert lightclient.HEIGHT_LIMIT * 2**32 + 2**32 - 1 >= P

    def test_nonce_changes_digest(self, fast_params):
        a = BlockHeader(3, 1, 2, 0, EASY_TARGET)
        b = dataclasses.replace(a, nonce=1)
        assert header_digest(a, fast_params) != header_digest(b, fast_params)

    def test_deterministic(self, fast_params):
        h = BlockHeader(5, 11, 22, 7, EASY_TARGET)
        assert header_digest(h, fast_params) == header_digest(h, fast_params)


class TestMining:
    def test_mined_header_meets_target(self, fast_params):
        h, digest = mine_header(0, 0, 123, EASY_TARGET, fast_params)
        assert digest == header_digest(h, fast_params) < EASY_TARGET

    def test_try_costs_one_permute(self, fast_params, monkeypatch):
        # the body (prev_hash, state_commitment) is absorbed once per search
        mine_header.cache_clear()  # a cached header would cost no permutes
        calls = []
        permute = field_hash.permute
        monkeypatch.setattr(field_hash, "permute", lambda *args: calls.append(1) or permute(*args))
        nonces = []
        for height in range(12):
            calls.clear()
            header, _ = mine_header(height, 17, 29, P >> 3, fast_params)
            assert len(calls) == 1 + (header.nonce + 1)
            nonces.append(header.nonce)
        assert max(nonces) > 1

    def test_header_check_and_commitment_costs(self, fast_params, monkeypatch):
        header_digest.cache_clear()  # a cached header would cost no permutes
        calls = []
        permute = field_hash.permute
        monkeypatch.setattr(field_hash, "permute", lambda *args: calls.append(1) or permute(*args))
        header_digest(BlockHeader(5, 11, 22, 7, EASY_TARGET), fast_params)
        assert len(calls) == 2
        calls.clear()
        state_commitment_value(5, 6, fast_params)
        assert len(calls) == 1

    @pytest.mark.parametrize("height", [-1, lightclient.HEIGHT_LIMIT, P])
    def test_height_out_of_range_raises_before_hashing(self, fast_params, height, monkeypatch):
        calls = []
        permute = field_hash.permute
        monkeypatch.setattr(field_hash, "permute", lambda *args: calls.append(1) or permute(*args))
        with pytest.raises(ValueError):
            mine_header(height, 0, 123, EASY_TARGET, fast_params)
        assert calls == []

    def test_impossible_target_raises(self, fast_params, monkeypatch):
        monkeypatch.setattr(lightclient, "MINING_TRIES", 64)
        with pytest.raises(MiningError):
            mine_header(0, 0, 123, 1, fast_params)


@seed(7207)
@settings(max_examples=80, deadline=None, database=None)
@given(
    height=st.integers(0, lightclient.HEIGHT_LIMIT - 1),
    prev_hash=st.integers(0, P - 1),
    commitment=st.integers(0, P - 1),
    target=st.integers(P >> 6, P),
)
def test_midstate_search_matches_the_naive_loop(height, prev_hash, commitment, target):
    header, digest = mine_header(height, prev_hash, commitment, target, TINY_PARAMS)
    assert header == naive_mine(height, prev_hash, commitment, target, TINY_PARAMS)
    assert digest == header_digest(header, TINY_PARAMS)


class TestAddHeader:
    def test_mined_child_accepted(self, fast_params):
        headers = make_chain(fast_params, [commit([], [], fast_params)] * 3)
        contract = FakeContract(fast_params, headers[0])
        assert add_header(contract, headers[1]).reason == "ok"
        assert add_header(contract, headers[2]).reason == "ok"
        assert validate_chain(contract.remote_headers, fast_params)

    def test_broken_link_rejected(self, fast_params):
        c0 = commit([], [], fast_params)
        headers = make_chain(fast_params, [c0, c0, c0])
        contract = FakeContract(fast_params, headers[0])
        add_header(contract, headers[1])
        # children whose prev_hash is not the tip's digest: the grandparent's,
        # a never-accepted rival of the tip's, or nothing at all
        rival, rival_digest = mine_header(
            1, header_digest(headers[0], fast_params), c0 + 1, EASY_TARGET, fast_params
        )
        assert add_header(contract, rival).reason == "fork"
        for prev in (header_digest(headers[0], fast_params), rival_digest, 0):
            bad, _ = mine_header(2, prev, c0, EASY_TARGET, fast_params)
            assert add_header(contract, bad).reason == "broken-link"
        assert contract.remote_headers == headers[:2]

    def test_bad_pow_rejected(self, fast_params):
        c0 = commit([], [], fast_params)
        headers = make_chain(fast_params, [c0])
        contract = FakeContract(fast_params, headers[0])
        child, _ = mine_header(1, header_digest(headers[0], fast_params), c0, EASY_TARGET, fast_params)
        worse = dataclasses.replace(child, nonce=child.nonce)
        # find a nonce whose digest misses the target
        nonce = 0
        while True:
            cand = dataclasses.replace(child, nonce=nonce)
            if header_digest(cand, fast_params) >= EASY_TARGET:
                break
            nonce += 1
        assert add_header(contract, cand).reason == "bad-pow"

    def test_height_gap_rejected(self, fast_params):
        c0 = commit([], [], fast_params)
        headers = make_chain(fast_params, [c0, c0, c0])
        contract = FakeContract(fast_params, headers[0])
        assert add_header(contract, headers[2]).reason == "bad-height"

    def test_duplicate_and_fork(self, fast_params):
        c0 = commit([], [], fast_params)
        c1 = commit([5], [], fast_params)
        headers = make_chain(fast_params, [c0, c0])
        contract = FakeContract(fast_params, headers[0])
        assert add_header(contract, headers[1]).reason == "ok"
        assert add_header(contract, headers[1]).reason == "duplicate"
        rival, _ = mine_header(
            1, header_digest(headers[0], fast_params), c1, EASY_TARGET, fast_params
        )
        assert add_header(contract, rival).reason == "fork"
        assert len(contract.remote_headers) == 2

    @pytest.mark.parametrize("field", ["height", "prev_hash", "state_commitment", "nonce"])
    @pytest.mark.parametrize("offset", [P, -P])
    def test_unreduced_field_rejected_before_hashing(self, fast_params, field, offset, monkeypatch):
        # the alias hashes like the mined child, so only the range check stops it
        c0 = commit([], [], fast_params)
        headers = make_chain(fast_params, [c0, c0])
        contract = FakeContract(fast_params, headers[0])
        alias = dataclasses.replace(headers[1], **{field: getattr(headers[1], field) + offset})
        hashed = []
        monkeypatch.setattr(
            lightclient, "header_digest", lambda h, params: hashed.append(h) or header_digest(h, params)
        )
        assert add_header(contract, alias).reason == "bad-encoding"
        assert alias not in hashed
        assert contract.remote_headers == headers[:1]
        assert add_header(contract, headers[1]).reason == "ok"

    @pytest.mark.parametrize(
        "field, value", [("nonce", 2**32), ("height", lightclient.HEIGHT_LIMIT), ("nonce", -1)]
    )
    def test_out_of_range_packed_field_rejected_before_hashing(self, fast_params, field, value, monkeypatch):
        c0 = commit([], [], fast_params)
        headers = make_chain(fast_params, [c0, c0])
        contract = FakeContract(fast_params, headers[0])
        hashed = []
        monkeypatch.setattr(
            lightclient, "header_digest", lambda h, params: hashed.append(h) or header_digest(h, params)
        )
        bad = dataclasses.replace(headers[1], **{field: value})
        assert add_header(contract, bad).reason == "bad-encoding"
        assert hashed == []
        assert contract.remote_headers == headers[:1]

    def test_nonce_carry_alias_rejected(self, fast_params, monkeypatch):
        # (h, n + 2**32) packs to the word of (h + 1, n): the nonce range is
        # what keeps the two apart
        c0 = commit([], [], fast_params)
        headers = make_chain(fast_params, [c0])
        contract = FakeContract(fast_params, headers[0])
        child, _ = mine_header(1, header_digest(headers[0], fast_params), c0, EASY_TARGET, fast_params)
        alias = dataclasses.replace(child, height=0, nonce=child.nonce + 2**32)
        assert header_digest(alias, fast_params) == header_digest(child, fast_params)
        assert add_header(contract, alias).reason == "bad-encoding"
        assert add_header(contract, child).reason == "ok"

    def test_target_change_rejected(self, fast_params):
        c0 = commit([], [], fast_params)
        headers = make_chain(fast_params, [c0])
        contract = FakeContract(fast_params, headers[0])
        child, _ = mine_header(
            1, header_digest(headers[0], fast_params), c0, EASY_TARGET // 2, fast_params
        )
        assert add_header(contract, child).reason == "bad-target"


def claimed_list(known, start, suffix):
    """The source list an attestation claims, or None for a gap."""
    if not 0 <= start <= len(known):
        return None
    return list(known[:start]) + list(suffix)


def forge_start(rng, start, view):
    """Keep `start`, shift it, or move it past the receiver's view."""
    pick = rng.randrange(3)
    if pick == 1:
        return start + rng.choice((-2, -1, 1, 2))
    if pick == 2:
        return view + rng.randrange(1, 4)
    return start


class TestAddBridgeState:
    def _setup(self, params, roots, nulls):
        genesis, _ = mine_header(0, 0, commit(roots, nulls, params), EASY_TARGET, params)
        contract = FakeContract(params, genesis)
        att = StateAttestation(
            header_index=0,
            roots_from=0,
            roots=tuple(roots),
            nullifiers_from=0,
            nullifiers=tuple(nulls),
        )
        return contract, att

    def _extend(self, contract, roots, nulls, params):
        """Append a header committing (roots, nulls) to the receiver's chain."""
        child, _ = mine_header(
            len(contract.remote_headers),
            header_digest(contract.remote_headers[-1], params),
            commit(roots, nulls, params),
            EASY_TARGET,
            params,
        )
        assert add_header(contract, child).accepted
        return child.height

    def test_honest_attestation_installs(self, fast_params):
        contract, att = self._setup(fast_params, [10, 11], [77])
        result = add_bridge_state(contract, att, now=4)
        assert result.accepted and result.reason == "ok"
        assert contract.remote_roots == [10, 11]
        assert contract.remote_exposed == [77]
        assert result.installed_nullifiers == (77,)
        assert contract.remote_root_ticks == {10: 4, 11: 4}
        assert contract.remote_root_digest == chain_digest([10, 11], fast_params)
        assert contract.remote_exposed_digest == chain_digest([77], fast_params)

    @pytest.mark.parametrize("lie", ["root", "nullifier"])
    def test_unreduced_entry_rejected_then_honest_installs(self, fast_params, lie):
        # r + p would open the commitment like r, be installed as itself, and
        # make the receiver's view contradict the honest r forever
        contract, att = self._setup(fast_params, [10, 11], [77])
        if lie == "root":
            lying = dataclasses.replace(att, roots=(10, 11 + P))
        else:
            lying = dataclasses.replace(att, nullifiers=(77 + P,))
        assert add_bridge_state(contract, lying, now=3).reason == "bad-encoding"
        assert contract.remote_roots == [] and contract.remote_exposed == []
        assert contract.remote_root_ticks == {}
        result = add_bridge_state(contract, att, now=4)
        assert result.accepted
        assert contract.remote_roots == [10, 11] and contract.remote_exposed == [77]

    def test_wrong_header_rejected(self, fast_params):
        contract, att = self._setup(fast_params, [10], [])
        unknown = dataclasses.replace(att, header_index=3)
        assert add_bridge_state(contract, unknown, now=0).reason == "unknown-header"

    def test_opening_not_matching_commitment_rejected(self, fast_params):
        contract, att = self._setup(fast_params, [10, 11], [])
        forged = dataclasses.replace(att, roots=(10, 12))
        assert add_bridge_state(contract, forged, now=0).reason == "bad-opening"

    def test_gap_after_view_rejected(self, fast_params):
        contract, att = self._setup(fast_params, [10, 11], [77])
        assert add_bridge_state(contract, att, now=0).accepted
        # a negative cursor would index the view from its end
        negative = StateAttestation(0, -2, (10,), 1, ())
        assert add_bridge_state(contract, negative, now=0).reason == "bad-opening"
        height = self._extend(contract, [10, 11, 12, 13], [77, 78], fast_params)
        for start in (3, 4, -1):
            gap = StateAttestation(height, start, (13,), 1, (78,))
            assert add_bridge_state(contract, gap, now=0).reason == "bad-opening"
            gap = StateAttestation(height, 2, (12, 13), start, (78,))
            assert add_bridge_state(contract, gap, now=0).reason == "bad-opening"
        assert contract.remote_roots == [10, 11] and contract.remote_exposed == [77]
        # the same news from where the receiver's view ends is accepted
        result = add_bridge_state(contract, StateAttestation(height, 2, (12, 13), 1, (78,)), now=0)
        assert result.installed_roots == (12, 13) and result.installed_nullifiers == (78,)

    def test_overlap_contradicting_view_rejected(self, fast_params):
        contract, att = self._setup(fast_params, [10, 11], [77])
        assert add_bridge_state(contract, att, now=0).accepted
        height = self._extend(contract, [10, 11, 12], [77, 78], fast_params)
        # the new entries are the committed ones, but the head of a suffix
        # contradicts an entry the receiver already installed
        bad = StateAttestation(height, 1, (99, 12), 1, (78,))
        assert add_bridge_state(contract, bad, now=0).reason == "bad-opening"
        bad = StateAttestation(height, 2, (12,), 0, (76, 78))
        assert add_bridge_state(contract, bad, now=0).reason == "bad-opening"
        # a header committing to a rewrite of entry 1
        height = self._extend(contract, [10, 99, 12], [77], fast_params)
        bad = StateAttestation(height, 1, (99, 12), 1, ())
        assert add_bridge_state(contract, bad, now=0).reason == "bad-opening"
        assert contract.remote_roots == [10, 11] and contract.remote_exposed == [77]

    def test_overlapping_and_stale_attestations_install_only_news(self, fast_params):
        contract, att = self._setup(fast_params, [10, 11], [77])
        assert add_bridge_state(contract, att, now=0).accepted
        height = self._extend(contract, [10, 11, 12, 13], [77, 78], fast_params)
        # a second relayer whose cursor lags the receiver's view
        result = add_bridge_state(contract, StateAttestation(height, 1, (11, 12, 13), 0, (77, 78)), now=0)
        assert result.accepted
        assert result.installed_roots == (12, 13) and result.installed_nullifiers == (78,)
        # a stale attestation of an older, shorter state installs nothing
        stale = add_bridge_state(contract, StateAttestation(0, 1, (11,), 0, (77,)), now=0)
        assert stale.reason == "stale"
        assert stale.installed_roots == () and stale.installed_nullifiers == ()
        assert contract.remote_roots == [10, 11, 12, 13]
        assert contract.remote_exposed == [77, 78]

    def test_attestation_ending_one_list_inside_the_view_rejected(self, fast_params):
        # fewer roots but more nullifiers than the view: no snapshot of one
        # source looks like that, and installing it would mix two states
        contract, att = self._setup(fast_params, [10, 11], [77])
        assert add_bridge_state(contract, att, now=0).accepted
        height = self._extend(contract, [10], [77, 78], fast_params)
        mixed = StateAttestation(height, 1, (), 1, (78,))
        assert add_bridge_state(contract, mixed, now=0).reason == "bad-opening"
        assert contract.remote_roots == [10, 11] and contract.remote_exposed == [77]
        assert contract.remote_exposed_digest == chain_digest([77], fast_params)

    def test_idempotent_redelivery(self, fast_params):
        contract, att = self._setup(fast_params, [10, 11], [77])
        assert add_bridge_state(contract, att, now=0).accepted
        again = add_bridge_state(contract, att, now=0)
        assert again.reason == "stale"
        assert again.installed_roots == () and again.installed_nullifiers == ()
        assert contract.remote_roots == [10, 11]

    def test_contradicting_prefix_rejected(self, fast_params):
        contract, att = self._setup(fast_params, [10, 11], [])
        assert add_bridge_state(contract, att, now=0).accepted
        # a second header commits to a history that rewrites entry 0
        rewrite = [12, 11, 13]
        height = self._extend(contract, rewrite, [], fast_params)
        att2 = StateAttestation(height, 0, tuple(rewrite), 0, ())
        assert add_bridge_state(contract, att2, now=0).reason == "bad-opening"

    def test_forged_openings_never_accepted_fuzz(self, tiny_params):
        rng = random.Random(0xF0E2)
        roots, nulls = [21, 22, 23], [31, 32]
        contract, att = self._setup(tiny_params, roots, nulls)
        add_bridge_state(contract, att, now=0)
        accepted = forgeries = 0
        for _ in range(10**4):
            fr = list(roots) + [rng.randrange(P) for _ in range(rng.randrange(0, 3))]
            fn = list(nulls) + [rng.randrange(P) for _ in range(rng.randrange(0, 3))]
            if rng.random() < 0.5 and fr:
                fr[rng.randrange(len(fr))] = rng.randrange(P)
            elif fn:
                fn[rng.randrange(len(fn))] = rng.randrange(P)
            # the forged lists whole, then cut at random points behind
            # cursors that are kept, shifted or moved past the receiver's view
            r_cut, n_cut = rng.randrange(len(fr) + 1), rng.randrange(len(fn) + 1)
            r_from = forge_start(rng, r_cut, len(roots))
            n_from = forge_start(rng, n_cut, len(nulls))
            for forged in (
                StateAttestation(0, 0, tuple(fr), 0, tuple(fn)),
                StateAttestation(0, r_from, tuple(fr[r_cut:]), n_from, tuple(fn[n_cut:])),
            ):
                if (
                    claimed_list(roots, forged.roots_from, forged.roots) == roots
                    and claimed_list(nulls, forged.nullifiers_from, forged.nullifiers) == nulls
                ):
                    continue  # not a forgery
                forgeries += 1
                if add_bridge_state(contract, forged, now=0).accepted:
                    accepted += 1
        assert accepted == 0
        assert forgeries > 19000
        assert contract.remote_roots == roots and contract.remote_exposed == nulls


@st.composite
def relay_runs(draw):
    """A source history (entries appended per tick) and relayers as
    (delay per tick, carries_state) pairs; one relayer always carries state."""
    ticks = draw(st.integers(1, 10))
    appends = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=ticks, max_size=ticks
        )
    )
    delays = st.lists(st.integers(1, 4), min_size=ticks, max_size=ticks)
    relayers = draw(st.lists(st.tuples(delays, st.booleans()), min_size=1, max_size=3))
    relayers[0] = (relayers[0][0], True)
    return appends, relayers


@seed(4401)
@settings(max_examples=60, deadline=None, database=None)
@given(run=relay_runs())
def test_relayed_views_stay_prefixes_of_the_source(run):
    """Relayers that send what the receiver's view lacks, as in the
    simulator, with a delay drawn per send so deliveries reorder, over a
    random source history: no honest attestation is rejected, and the
    receiver's lists are always a prefix of the source's."""
    params = TINY_PARAMS
    appends, relayers = run
    roots, nulls = [], []
    genesis, tip = mine_header(0, 0, commit(roots, nulls, params), EASY_TARGET, params)
    headers = [genesis]
    receiver = FakeContract(params, genesis)
    deliveries = {}
    value = iter(range(1000, 10**6))
    horizon = len(appends) + max(max(delays) for delays, _ in relayers) + 1
    for now in range(horizon):
        for kind, payload in deliveries.pop(now, []):
            if kind == "header":
                assert add_header(receiver, payload).reason in ("ok", "duplicate")
            else:
                assert add_bridge_state(receiver, payload, now).reason in ("ok", "stale")
            assert receiver.remote_roots == roots[: len(receiver.remote_roots)]
            assert receiver.remote_exposed == nulls[: len(receiver.remote_exposed)]
            assert validate_chain(receiver.remote_headers, params)
        if now >= len(appends):
            continue
        new_roots, new_nulls = appends[now]
        roots.extend(next(value) for _ in range(new_roots))
        nulls.extend(next(value) for _ in range(new_nulls))
        header, tip = mine_header(len(headers), tip, commit(roots, nulls, params), EASY_TARGET, params)
        headers.append(header)
        roots_from, nulls_from = len(receiver.remote_roots), len(receiver.remote_exposed)
        for delays, carries_state in relayers:
            bucket = deliveries.setdefault(now + delays[now], [])
            bucket.extend(("header", h) for h in headers[len(receiver.remote_headers):])
            if carries_state and (roots[roots_from:] or nulls[nulls_from:]):
                att = StateAttestation(
                    len(headers) - 1, roots_from, tuple(roots[roots_from:]),
                    nulls_from, tuple(nulls[nulls_from:]),
                )
                bucket.append(("state", att))
    assert not deliveries
    assert receiver.remote_roots == roots and receiver.remote_exposed == nulls
    assert receiver.remote_root_digest == chain_digest(roots, params)
    assert receiver.remote_exposed_digest == chain_digest(nulls, params)


class TestDigests:
    def test_chain_digest_is_fold(self, fast_params):
        values = [4, 5, 6]
        expect = 0
        for v in values:
            expect = hash2(expect, v, fast_params)
        assert chain_digest(values, fast_params) == expect
        assert chain_digest([], fast_params) == 0
        # the contract keeps the same fold of its root history, one root at a time
        genesis, _ = mine_header(0, 0, 0, EASY_TARGET, fast_params)
        c = contract_setup(
            "A", genesis, zk_setup(2, fast_params),
            epsilon=1, relay_delay=1, native=True, events=[],
        )
        for commitment in values:
            deposit(c, 10, commitment, now=0)
        assert c.local_root_digest == chain_digest(c.tree.root_history, fast_params)
