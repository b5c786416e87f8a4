import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import given, seed, settings

from bridgemix import cli, field_hash, simnet
from bridgemix.simnet import RelayerSpec, Scenario, SimEvent, SimInvariantError
from test_readme import README, YAML_RE, load_workloads
from test_simnet import AliasFreeDumper, mutated_scenarios

HAPPY = """\
seed: 11
horizon: 14
hash_rounds: 8
relay_delay: 2
events:
  - {at: 0, chain: A, action: deposit, note: n1}
  - {at: 0, chain: A, action: deposit, note: n3}
  - {at: 1, chain: B, action: deposit, note: n2}
  - {at: 5, chain: B, action: submit_withdrawal, note: n1, recipient: alice}
  - {at: 6, chain: A, action: incentive_claim, note: n3, claimant: carol}
rewards:
  A: {rate: 2, min_lock: 3}
"""

RACES = """\
seed: 3
horizon: 20
hash_rounds: 8
relay_delay: 2
epsilon: 1
events:
  - {at: 0, chain: A, action: deposit, note: honest}
  - {at: 4, chain: B, action: submit_withdrawal, note: honest, recipient: hh}
adversary: {note: adv, deposit_chain: A, deposit_at: 0, first_chain: A, first_at: 3, gap: 0}
"""

# a note deposited on B and withdrawn on native A, which holds no deposits
INSOLVENT = """\
seed: 5
horizon: 12
hash_rounds: 8
relay_delay: 2
epsilon: 1
events:
  - {at: 0, chain: B, action: deposit, note: n1}
  - {at: 4, chain: A, action: submit_withdrawal, note: n1, recipient: alice}
"""


def write_scenario(tmp_path, text, name="scn.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_reports(out_dir):
    return {p.name: p.read_text() for p in sorted(out_dir.iterdir())}


def test_run_writes_all_five_reports(tmp_path):
    scn = write_scenario(tmp_path, HAPPY)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", scn, "--out", str(out)]) == 0
    files = read_reports(out)
    assert sorted(files) == [
        "anonymity.txt", "liquidity.txt", "races.txt", "storage.txt", "transcript.txt",
    ]
    assert "ev=withdraw-finalized" in files["transcript.txt"]
    for name in ("anonymity.txt", "liquidity.txt", "races.txt", "storage.txt"):
        summary = json.loads(files[name].splitlines()[-1])  # machine tail
        assert isinstance(summary, dict)
    assert json.loads(files["races.txt"].splitlines()[-1])["double_payouts"] == 0
    assert json.loads(files["anonymity.txt"].splitlines()[-1])["withdrawals"] == 1


def test_run_report_subset(tmp_path):
    scn = write_scenario(tmp_path, HAPPY)
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", scn, "--out", str(out), "--reports", "storage,anonymity"])
    assert rc == 0
    assert sorted(read_reports(out)) == ["anonymity.txt", "storage.txt"]


def test_run_rejects_unknown_report(tmp_path, capsys):
    scn = write_scenario(tmp_path, HAPPY)
    rc = cli.main(["run", "--scenario", scn, "--out", str(tmp_path / "o"), "--reports", "bogus"])
    assert rc == cli.EXIT_BAD_INPUT
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("reports", ["", ",", " , "])
def test_run_rejects_an_empty_report_list_before_loading(tmp_path, capsys, monkeypatch, reports):
    def no_load(config):
        raise AssertionError("scenario loaded")

    monkeypatch.setattr(cli, "load_scenario", no_load)
    out = tmp_path / "o"
    scn = write_scenario(tmp_path, HAPPY)
    assert cli.main(["run", "--scenario", scn, "--out", str(out), "--reports", reports]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --reports selects no report; choose from ")
    assert all(name in err for name in cli.REPORT_NAMES)
    assert not out.exists()


def test_malformed_scenario_names_the_field(tmp_path, capsys):
    scn = write_scenario(tmp_path, "seed: 1\nhorizon: 4\nwidgets: 9\n")
    rc = cli.main(["run", "--scenario", scn, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_BAD_INPUT
    assert "widgets" in capsys.readouterr().err


def test_oversized_security_exits_2_without_traceback(tmp_path, capsys):
    # scenarios have no security level: the key is bad input, whatever its value
    scn = write_scenario(tmp_path, "seed: 1\nhorizon: 4\nhash_rounds: 8\nsecurity: 5000000000\n")
    rc = cli.main(["run", "--scenario", scn, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "error: scenario field 'security': unknown field" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "races"])
def test_hash_rounds_above_the_bound_exits_2_before_set_up(tmp_path, capsys, monkeypatch, command):
    bound = simnet.MAX_HASH_ROUNDS

    def no_oversized_params(rounds):
        raise AssertionError(f"make_params({rounds}) called")

    monkeypatch.setattr(simnet, "make_params", no_oversized_params)
    monkeypatch.setattr(field_hash, "make_params", no_oversized_params)
    scn = write_scenario(tmp_path, RACES.replace("hash_rounds: 8", f"hash_rounds: {bound + 1}"))
    assert cli.main([command, "--scenario", scn, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error: scenario field 'hash_rounds': must be in [1, {bound}]" in err


def test_yaml_syntax_error_names_the_line(tmp_path, capsys):
    scn = write_scenario(tmp_path, "seed: 1\nhorizon: [unclosed\n")
    rc = cli.main(["run", "--scenario", scn, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_BAD_INPUT
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, key, line",
    [
        ("seed: 1\nhorizon: 14\nhorizon: 3\n", "horizon", 3),
        ("seed: 1\nhorizon: 4\nevents:\n  - {at: 0, chain: A, action: deposit, note: n, at: 1}\n", "at", 4),
        ("seed: 1\nhorizon: 4\nrewards:\n  A: {rate: 1}\n  B: {rate: 2}\n  A: {rate: 3}\n", "A", 6),
    ],
    ids=["top-level", "event", "rewards"],
)
def test_repeated_key_exits_2_naming_key_and_line(tmp_path, capsys, text, key, line):
    # PyYAML alone keeps the last value: the first file would run with horizon 3
    rc = cli.main(["run", "--scenario", write_scenario(tmp_path, text), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario field '<syntax>': unparseable scenario at line {line}:")
    assert f"found repeated key {key!r}" in err


SCENARIO_FILES = sorted((Path(__file__).resolve().parent.parent / "demos" / "scenarios").glob("*.yaml"))

# documents the scenario reader must read as PyYAML's safe loader does
CRAFTED = {
    "scalar-tags": "a: !!str 5\nb: !!int '7'\nc: !!float 1\nd: !!bool 'yes'\ne: !!null ''\nf: !!str\n",
    "collection-tags-of-their-own-kind": "!!map {a: !!seq [1], b: ! [2]}\n",
    "yaml-1.1-scalars": "[yes, No, on, OFF, 0x1f, 1_000, 0o17, 017, 0b101, 1:30, 1.5e3, -.Inf, ~, null, '', 2001-12-14]\n",
    "empty": "",
    "null-document": "~\n",
    "document-markers": "--- {seed: 1}\n...\n",
    "explicit-key": "? seed\n: 1\n",
    "nesting-at-the-bound": "[" * cli.MAX_NESTING + "]" * cli.MAX_NESTING,
    # one text, read again under another tag or quoting, must not take the first reading's value
    "repeated-texts-that-resolve-apart": (
        "[1, '1', !!str 1, 1, '1', !!str 1, !!float 1, yes, \"yes\", yes, \"yes\", ! yes,"
        " ~, null, \"null\", ~, null, \"null\", '~']\n"
    ),
    "repeated-timestamp-and-binary": (
        "a: 2001-12-14t21:59:43.10-05:00\nb: 2001-12-14t21:59:43.10-05:00\nc: '2001-12-14'\n"
        "d: 2001-12-14\ne: !!binary aGk=\nf: !!binary aGk=\ng: aGk=\n"
    ),
    "quoted-merge-key": "m: {x: 1, '<<': 4}\nn: {\"<<\": [5]}\n",
}


@pytest.fixture(params=["libyaml", "pure-python"])
def parser(request, monkeypatch):
    """Read on libyaml's parser, then on PyYAML's own: one code path serves both."""
    if request.param == "pure-python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return request.param


def assert_read_as_the_safe_loader_reads(text):
    read = cli._read_yaml(text)
    expected = yaml.load(text, Loader=yaml.SafeLoader)
    assert read == expected
    assert repr(read) == repr(expected)  # the same types and key order


@pytest.mark.parametrize(
    "text",
    [path.read_text(encoding="utf-8") for path in SCENARIO_FILES]
    + YAML_RE.findall(README.read_text(encoding="utf-8"))
    + list(CRAFTED.values()),
    ids=[path.name for path in SCENARIO_FILES] + ["README.md"] + list(CRAFTED),
)
def test_scenario_reader_reads_what_the_safe_loader_reads(parser, text):
    assert_read_as_the_safe_loader_reads(text)


def test_generated_workloads_read_what_the_safe_loader_reads(parser, monkeypatch):
    # each benchmark workload, written as perfbench/run.py's prepare writes it
    workloads = load_workloads(monkeypatch)
    for generate in workloads.GENERATORS.values():
        scenario = generate(3, 0.05)[0]
        assert_read_as_the_safe_loader_reads(yaml.safe_dump(scenario, default_flow_style=None, sort_keys=False))


def test_each_distinct_scalar_is_built_once(parser, monkeypatch):
    # a scenario and every crafted document: one construction per distinct
    # (tag, text, implicit), and equal scenario fields are one object
    built = []

    def counted(construct):
        def wrapper(loader, node):
            built.append(node.tag)
            return construct(loader, node)
        return wrapper

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    monkeypatch.setattr(loader, "yaml_constructors",
                        {tag: counted(construct) for tag, construct in loader.yaml_constructors.items()})
    storage = next(path for path in SCENARIO_FILES if path.name == "storage.yaml")
    for text in [storage.read_text(encoding="utf-8")] + list(CRAFTED.values()):
        built.clear()
        cli._read_yaml(text)
        keys = {(e.tag, e.value, e.implicit) for e in yaml.parse(text) if isinstance(e, yaml.ScalarEvent)}
        assert len(built) == len(keys), text[:60]
    scenario = cli.load_scenario(cli.RunConfig(str(storage), "unused"))
    deposits = [ev for ev in scenario.events if ev.action == "deposit"]
    assert len(deposits) > 1 and all(ev.action is deposits[0].action for ev in deposits)


_NO_MERGE = "could not determine a constructor for the tag 'tag:yaml.org,2002:merge'"


@pytest.mark.parametrize(
    "text, line, problem",
    [
        ("seed: 1\nhorizon: 4\n[1]: 2\n", 3, "found a key that is not a scalar"),
        ("seed: 1\nhorizon: 4\n{a: 1}: 2\n", 3, "found a key that is not a scalar"),
        ("seed: 1\nhorizon: *h\n", 2, "found *h: scenario files take no anchors or aliases"),
        ("seed: &s 1\nhorizon: &s 4\n", 1, "found &s: scenario files take no anchors or aliases"),
        ("seed: 1\nhorizon: 4\nrewards: &r {A: *r}\n", 3, "found &r"),
        ("seed: 1\nhorizon: 4\nrewards:\n  <<: 3\n", 4, _NO_MERGE),
        ("seed: 1\nhorizon: 4\nrewards:\n  <<: [{A: {}}, 3]\n", 4, _NO_MERGE),
        ("seed: 1\nhorizon: <<\n", 2, _NO_MERGE),
        ("seed: 1\nhorizon: 4\n---\nseed: 2\n", 3, "found a second document"),
        ("seed: 1\nhorizon: 4\nrewards: !!set {A}\n", 3, "found a collection tagged tag:yaml.org,2002:set"),
        ("seed: 1\nhorizon: 4\nevents: !!omap [{a: 1}]\n", 3, "found a collection tagged tag:yaml.org,2002:omap"),
        ("seed: 1\nhorizon: !!seq 4\n", 2, "found a scalar tagged tag:yaml.org,2002:seq"),
        ("seed: 1\nhorizon: !bogus 4\n", 2, "could not determine a constructor for the tag '!bogus'"),
        # 1,000 deep: printing the value in a field error would exceed the recursion limit
        ("seed: 1\nhorizon: " + "[" * 1000 + "]" * 1000 + "\n", 2, "found nesting deeper than 16"),
        # each alone within the bound, an alias would put one inside the other
        ("seed: 1\nd: &d " + "[" * 8 + "]" * 8 + "\nhorizon: " + "[" * 8 + "*d" + "]" * 8 + "\n", 2,
         "found &d"),
        # documents the safe loader reads, which a scenario file may not hold
        ("a: &n {x: 1}\nb: *n\n", 1, "found &n"),
        ("l: &l [1, [2, 3]]\nm: *l\nn: [*l, *l]\n", 1, "found &l"),
        ("k: &k name\n*k : 3\n", 1, "found &k"),
        ("base: &b {x: 1, y: 2}\nm:\n  y: 3\n  <<: *b\n  z: 4\n", 1, "found &b"),
        ("a: &a {x: 1}\nb: &b {x: 2, z: 9}\nm:\n  <<: [*a, *b]\n  w: 0\n", 1, "found &a"),
        ("a: &a {x: 1}\nb: &b {x: 2, z: 9}\nm: {<<: *a, <<: *b, z: 3}\n", 1, "found &a"),
        ("a: &a {x: 1, y: 1}\nb: &b {<<: *a, y: 2}\nm: {<<: *b}\n", 1, "found &a"),
        ("a: &a {x: 1, y: 2}\nm: {<<: *a, y: 3}\nn: {<<: *a, '<<': 4}\n", 1, "found &a"),
        ("a: &s deposit\nb: *s\nc: deposit\nd: [deposit, *s, 'deposit']\n", 1, "found &s"),
        ("m: {x: 1, <<: {y: 2}}\n", 1, _NO_MERGE),
    ],
    ids=[
        "sequence-key", "mapping-key", "undefined-alias", "duplicate-anchor", "alias-inside-its-anchor",
        "merge-of-a-scalar", "merge-of-a-list-with-a-scalar", "merge-key-as-a-value", "second-document",
        "set", "omap", "scalar-with-a-collection-tag", "unknown-tag", "nested-1000-deep",
        "nested-too-deep-through-an-alias",
        "anchor-and-alias", "alias-of-a-sequence", "alias-as-key", "merge-one-mapping", "merge-a-list",
        "merge-twice", "merge-of-a-merge", "merge-in-two-mappings", "anchored-scalar-used-again",
        "merge-without-an-alias",
    ],
)
def test_malformed_scenario_file_exits_2_naming_the_line(tmp_path, capsys, parser, text, line, problem):
    rc = cli.main(["run", "--scenario", write_scenario(tmp_path, text), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario field '<syntax>': unparseable scenario at line {line}:")
    assert problem in err
    assert not (tmp_path / "o").exists()


def test_aliases_that_multiply_a_value_exit_2_with_a_short_message(tmp_path, capsys):
    # each list holds the one before it ten times: 7 levels in about 400
    # bytes would stand for 10**7 ones, which would take 35 MB to print
    items = ["&l0 [" + ", ".join(["1"] * 10) + "]"]
    items += [f"&l{i} [" + ", ".join([f"*l{i - 1}"] * 10) + "]" for i in range(1, 7)]
    scn = write_scenario(tmp_path, "seed: 1\nhorizon: [" + ", ".join(items) + "]\n")
    assert cli.main(["run", "--scenario", scn, "--out", str(tmp_path / "o")]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: scenario field '<syntax>': unparseable scenario at line 2:")
    assert "found &l0: scenario files take no anchors or aliases" in err and len(err) < 500


def test_nesting_100000_deep_exits_2_in_its_own_process(tmp_path):
    # deep enough to overflow the C stack of a recursive composer: a signal,
    # not an exit code, so the run gets a process of its own
    scn = write_scenario(tmp_path, "seed: 1\nhorizon: " + "[" * 100_000 + "]" * 100_000 + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "bridgemix.cli", "run", "--scenario", scn, "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == cli.EXIT_BAD_INPUT, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: scenario field '<syntax>': unparseable scenario at line 2:")
    assert f"found nesting deeper than {cli.MAX_NESTING}" in proc.stderr


def test_scenario_is_read_without_holding_a_node_graph(tmp_path):
    # 1,200 events, about 80 KB of YAML: a node graph of this file alone
    # peaks at about 5.7 MB
    n = 600
    events = [{"at": i, "chain": "A", "action": "deposit", "note": f"n{i}"} for i in range(n)]
    events += [
        {"at": n + 3 + i, "chain": "B", "action": "submit_withdrawal", "note": f"n{i}", "recipient": f"w{i}"}
        for i in range(n)
    ]
    text = yaml.safe_dump(
        {"seed": 1, "horizon": 2 * n + 8, "hash_rounds": 8, "tree_height": 10, "events": events},
        sort_keys=False,
    )
    config = cli.RunConfig(write_scenario(tmp_path, text), str(tmp_path / "out"))
    tracemalloc.start()
    try:
        scenario = cli.load_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scenario.events) == 2 * n
    assert peak < 2_000_000


@pytest.mark.parametrize("command", ["run", "races"])
def test_non_utf8_scenario_exits_2(tmp_path, capsys, command):
    scn = tmp_path / "bad.yaml"
    scn.write_bytes(b"\xff\xfe")
    rc = cli.main([command, "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: scenario field '<syntax>': not UTF-8 text:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "races"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command):
    scn = write_scenario(tmp_path, RACES)
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    rc = cli.main([command, "--scenario", scn, "--out", str(out)])
    assert rc == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert out.read_text() == "keep me\n"


def test_missing_scenario_file(tmp_path, capsys):
    rc = cli.main(["run", "--scenario", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_BAD_INPUT
    assert "nope.yaml" in capsys.readouterr().err


def test_missing_required_flag_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--out", str(tmp_path)]) == cli.EXIT_BAD_INPUT
    capsys.readouterr()  # swallow argparse usage noise


def test_seed_override_changes_only_random_material(tmp_path):
    scn = write_scenario(tmp_path, HAPPY)
    outs = [tmp_path / f"o{i}" for i in range(3)]
    assert cli.main(["run", "--scenario", scn, "--out", str(outs[0])]) == 0
    assert cli.main(["run", "--scenario", scn, "--out", str(outs[1]), "--seed", "99"]) == 0
    assert cli.main(["run", "--scenario", scn, "--out", str(outs[2]), "--seed", "11"]) == 0
    base, reseeded, same_seed = (read_reports(o) for o in outs)
    assert base["transcript.txt"] != reseeded["transcript.txt"]  # commitments move
    assert base == same_seed  # explicit seed equal to the file's is a no-op
    # structure (event kinds per tick) is seed-independent
    strip = lambda text: [line.split(" ev=")[1].split()[0] for line in text.splitlines()]
    assert strip(base["transcript.txt"]) == strip(reseeded["transcript.txt"])


def test_run_outputs_are_byte_reproducible(tmp_path):
    scn = write_scenario(tmp_path, HAPPY)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", "--scenario", scn, "--out", str(out1)]) == 0
    assert cli.main(["run", "--scenario", scn, "--out", str(out2)]) == 0
    assert read_reports(out1) == read_reports(out2)


def test_races_safe_epsilon_exits_zero(tmp_path):
    scn = write_scenario(tmp_path, RACES)
    out = tmp_path / "out"
    assert cli.main(["races", "--scenario", scn, "--out", str(out)]) == 0
    body = (out / "races.txt").read_text()
    summary = json.loads(body.splitlines()[-1])
    assert summary["double_payouts"] == 0 and summary["max_payouts"] == 1
    assert summary["runs"] == 2 * (2 * 3 + 1)  # t' in 0..2(D+eps), both orders


def test_races_negative_control_exits_one_and_names_interleaving(tmp_path, capsys):
    scn = write_scenario(tmp_path, RACES)
    out = tmp_path / "out"
    rc = cli.main(["races", "--scenario", scn, "--out", str(out), "--epsilon-override", "-1"])
    assert rc == cli.EXIT_DOUBLE_PAYOUT
    err = capsys.readouterr().err
    assert "double payout" in err and "t'=0" in err
    summary = json.loads((out / "races.txt").read_text().splitlines()[-1])
    assert summary["double_payouts"] >= 1


def test_run_that_double_pays_exits_one_after_writing_its_reports(tmp_path, capsys):
    scn = str(Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "races.yaml")
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", scn, "--out", str(out), "--epsilon-override", "-1"])
    assert rc == cli.EXIT_DOUBLE_PAYOUT
    assert capsys.readouterr().err == (
        "error: double payout of nullifier 50477695b2f13284: chain=A wid=A0 t=4, chain=B wid=B0 t=4\n"
    )
    reports = read_reports(out)
    assert sorted(reports) == sorted(f"{name}.txt" for name in cli.REPORT_NAMES)
    assert json.loads(reports["races.txt"].splitlines()[-1])["double_payouts"] == 1
    for payout in ("chain=A ev=withdraw-finalized wid=A0", "chain=B ev=withdraw-finalized wid=B0"):
        assert f"t=4 {payout} nullifier=50477695b2f13284" in reports["transcript.txt"]


@pytest.mark.parametrize(
    "epsilon, flags, message",
    [
        ("-1", [], "must be >= 0 (negative only via override)"),  # a file's epsilon
        ("1", ["--epsilon-override", "-3"], "relay_delay + epsilon must be >= 0"),  # D = 2
    ],
)
def test_epsilon_out_of_range_exits_2(tmp_path, capsys, epsilon, flags, message):
    scn = write_scenario(tmp_path, RACES.replace("epsilon: 1", f"epsilon: {epsilon}"))
    rc = cli.main(["races", "--scenario", scn, "--out", str(tmp_path / "o"), *flags])
    assert rc == cli.EXIT_BAD_INPUT
    assert f"error: scenario field 'epsilon': {message}" in capsys.readouterr().err


def test_races_requires_adversary(tmp_path, capsys):
    scn = write_scenario(tmp_path, HAPPY)
    rc = cli.main(["races", "--scenario", scn, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_BAD_INPUT
    assert "adversary" in capsys.readouterr().err


def test_invariant_violation_dumps_partial_transcript(tmp_path, capsys, monkeypatch):
    scn = write_scenario(tmp_path, HAPPY)
    out = tmp_path / "out"

    real_run = cli.simnet.run

    def broken_run(scenario):
        transcript = real_run(scenario)
        raise SimInvariantError("tick 3: value conservation broken", transcript, "invariant")

    monkeypatch.setattr(cli.simnet, "run", broken_run)
    rc = cli.main(["run", "--scenario", scn, "--out", str(out)])
    assert rc == cli.EXIT_INVARIANT
    assert "conservation" in capsys.readouterr().err
    assert (out / "transcript-failure.txt").read_text().startswith("t=0 ")


def test_insolvent_payout_exits_3_and_dumps_transcript(tmp_path, capsys):
    scn = write_scenario(tmp_path, INSOLVENT)
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", scn, "--out", str(out)])
    assert rc == cli.EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "tick 7: A cannot cover withdrawal A0" in err and "Traceback" not in err
    dump = (out / "transcript-failure.txt").read_text()
    assert "chain=A ev=withdraw-submitted wid=A0" in dump
    assert "ev=withdraw-finalized" not in dump


def recording_run(monkeypatch) -> list:
    """Patch the CLI's engine to keep the transcript of each run, the partial
    one of a run that raises SimInvariantError included."""
    seen = []
    real_run = cli.simnet.run

    def run(scenario):
        try:
            seen.append(real_run(scenario))
        except SimInvariantError as err:
            seen.append(err.transcript)
            raise
        return seen[-1]

    monkeypatch.setattr(cli.simnet, "run", run)
    return seen


@pytest.mark.parametrize(
    "text, name, code",
    [(HAPPY, "transcript.txt", cli.EXIT_OK), (INSOLVENT, "transcript-failure.txt", cli.EXIT_INVARIANT)],
)
def test_transcript_files_are_the_rendered_transcript(tmp_path, monkeypatch, text, name, code):
    seen = recording_run(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", write_scenario(tmp_path, text), "--out", str(out)]) == code
    [transcript] = seen
    assert (out / name).read_bytes() == transcript.render().encode("utf-8")


def test_transcript_is_written_without_holding_its_text(tmp_path, monkeypatch):
    # 300 deposits on A, half of them withdrawn on B: about 170 KB of text
    n = 300
    events = [SimEvent(i, "A", "deposit", note=f"n{i}") for i in range(n)]
    events += [
        SimEvent(n + 3 + i, "B", "submit_withdrawal", note=f"n{i}", recipient="w")
        for i in range(n // 2)
    ]
    transcript = simnet.run(Scenario(
        seed=5, horizon=n + n // 2 + 8, hash_rounds=8, tree_height=9,
        relayers=(RelayerSpec("r0", 2),), events=tuple(events),
    ))
    rendered = transcript.render()

    def traced_run(scenario):
        tracemalloc.start()  # traces everything the CLI does after the run
        return transcript

    monkeypatch.setattr(cli.simnet, "run", traced_run)
    out = tmp_path / "out"
    try:
        code = cli.main(["run", "--scenario", write_scenario(tmp_path, HAPPY), "--out", str(out),
                         "--reports", "transcript"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert (out / "transcript.txt").read_text(encoding="utf-8") == rendered
    assert peak < len(rendered) / 4


def test_races_insolvent_payout_exits_3(tmp_path, capsys):
    adversary = "adversary: {note: adv, deposit_chain: B, deposit_at: 0, first_chain: B, first_at: 3}\n"
    scn = write_scenario(tmp_path, INSOLVENT + adversary)
    rc = cli.main(["races", "--scenario", scn, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_INVARIANT
    assert "A cannot cover withdrawal A" in capsys.readouterr().err


@pytest.mark.parametrize("command, report", [("run", "transcript.txt"), ("races", "races.txt")])
def test_report_that_cannot_be_written_exits_2(tmp_path, capsys, command, report):
    out = tmp_path / "out"
    (out / report).mkdir(parents=True)  # the report's path is taken by a directory
    rc = cli.main([command, "--scenario", write_scenario(tmp_path, RACES), "--out", str(out)])
    assert rc == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / report) in err and "Traceback" not in err


def test_unwritable_failure_dump_still_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "transcript-failure.txt").mkdir(parents=True)
    rc = cli.main(["run", "--scenario", write_scenario(tmp_path, INSOLVENT), "--out", str(out)])
    assert rc == cli.EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "tick 7: A cannot cover withdrawal A0" in err
    assert "partial transcript not written" in err and str(out / "transcript-failure.txt") in err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def fuzz_main(fuzz_dir, command, data) -> int:
    """cli.main on `data` written as a scenario file, into an emptied --out."""
    out = fuzz_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    scn = fuzz_dir / "scn.yaml"
    scn.write_text(yaml.dump(data, Dumper=AliasFreeDumper, sort_keys=False), encoding="utf-8")
    return cli.main([command, "--scenario", str(scn), "--out", str(out)])


@seed(2103)
@settings(max_examples=200, deadline=None, database=None)
@given(data=mutated_scenarios())
def test_fuzzed_scenario_runs_end_in_a_documented_code(fuzz_dir, data):
    # any exception escaping cli.main fails the test
    assert fuzz_main(fuzz_dir, "run", data) in (cli.EXIT_OK, cli.EXIT_BAD_INPUT, cli.EXIT_INVARIANT)


@seed(2104)
@settings(max_examples=12, deadline=None, database=None)
@given(data=mutated_scenarios().filter(lambda d: isinstance(d, dict) and "adversary" in d))
def test_fuzzed_race_sweeps_exit_1_only_on_a_double_payout(fuzz_dir, data):
    code = fuzz_main(fuzz_dir, "races", data)
    assert code in (cli.EXIT_OK, cli.EXIT_DOUBLE_PAYOUT, cli.EXIT_BAD_INPUT, cli.EXIT_INVARIANT)
    if code in (cli.EXIT_OK, cli.EXIT_DOUBLE_PAYOUT):
        summary = json.loads((fuzz_dir / "out" / "races.txt").read_text().splitlines()[-1])
        assert (code == cli.EXIT_DOUBLE_PAYOUT) == (summary["double_payouts"] > 0)
