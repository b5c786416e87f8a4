"""Batch command line: run scenarios and emit analysis reports as files.

    bridgemix run   --scenario s.yaml --out dir [--seed N] [--epsilon-override E]
    bridgemix races --scenario s.yaml --out dir [--seed N] [--epsilon-override E]

Every report is UTF-8 text: a human-readable table followed by one
machine-readable JSON summary as the last line.  Outputs are byte-reproducible
given (scenario, seed).

Both commands load the scenario and do their work, and only then create
--out and write every report, so a command that exits 2 on its input creates
no --out (a sweep that never raced included); `main` alone maps how they end
to an exit code:
0 success; 1 a double payout, and nothing else: a race interleaving paid a
note twice (races mode), or the run did (run mode, after its reports are
written; stderr names each payout's chain, wid and tick);
2 unusable input or output (an unreadable or non-UTF-8 scenario file, parse
error, an anchor, alias, tag or `<<` merge key, repeated or non-scalar key, a
scalar that cannot be built, an integer outside the signed 64-bit range,
--seed included, a second document, nesting deeper than MAX_NESTING, bad
field, a horizon above simnet.MAX_HORIZON or a relay_delay, epsilon or relayer
delay above simnet.MAX_DELAY, overrides included, a race sweep whose widest
interleaving would run past simnet.MAX_HORIZON or that would execute more
than simnet.MAX_SWEEP_TICKS ticks, a race sweep that never raced: an
adversary submission rejected for any reason but nullifier-known, named with
its t', order and reason, an --out that cannot be made a directory, a report
that cannot be written); 3 a protocol invariant broke mid-run, including a
payout the paying contract cannot cover (run mode makes --out and dumps the
partial transcript there, and still exits 3 if that dump cannot be written).

The scenario file is plain YAML, read in one pass over the YAML parser's
events, on libyaml when PyYAML has it, and no node graph is built.  Each
distinct scalar is built once, and equal scalars share that one value.
Scalars keep the safe loader's meaning.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import incentives, metrics, simnet
from .field_hash import fe_hex

EXIT_OK = 0
EXIT_DOUBLE_PAYOUT = 1
EXIT_BAD_INPUT = 2
EXIT_INVARIANT = 3


@dataclass(frozen=True)
class RunConfig:
    scenario_path: str
    out_dir: str
    seed_override: int | None = None
    epsilon_override: int | None = None


MAX_NESTING = 16
"""Deepest nesting of sequences and mappings in a scenario file: the depth of
the reader's stack of open collections.  A scenario needs 3: the root, its
events list, one event."""


def _error(problem: str, mark) -> yaml.YAMLError:
    return yaml.constructor.ConstructorError(None, None, problem, mark)


def _scalar(loader, event):
    """A scalar as the safe loader reads it: the tag its text resolves to,
    built by SafeConstructor's own constructor.  A plain `<<` resolves to the
    merge tag, which has no constructor, so it raises.  So does text the
    constructor cannot build, such as an integer past Python's digit limit,
    and an integer that no scenario field can hold."""
    tag = loader.resolve(yaml.ScalarNode, event.value, event.implicit)
    construct = loader.yaml_constructors.get(tag, loader.yaml_constructors[None])
    try:
        value = construct(loader, yaml.ScalarNode(tag, event.value, event.start_mark, event.end_mark))
    except ValueError as err:
        raise _error(f"found a scalar that cannot be built: {err}", event.start_mark)
    if type(value) is int and value not in simnet.INT64:
        raise _error("found an integer outside the signed 64-bit range", event.start_mark)
    return value


def _read_yaml(text: str):
    """The one document in `text`, as yaml.load(text, Loader=yaml.SafeLoader)
    reads it, built in one pass over the parser's events, so no node graph is
    ever held.  Each distinct scalar is built once: every scalar the safe
    loader constructs is immutable, so equal ones share one value.  Beyond
    the safe loader it rejects an anchor, an alias, a tag, a `<<` merge key,
    a repeated or non-scalar key, an integer outside the signed 64-bit range
    and nesting deeper than MAX_NESTING."""
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)(text)
    try:
        loader.get_event()  # StreamStartEvent
        if loader.check_event(yaml.StreamEndEvent):
            return None  # an empty file
        loader.get_event()  # DocumentStartEvent
        document = []
        stack = [(document, None)]  # each open list or dict, and its key in the dict that holds it
        key, keyed = None, False  # the innermost open dict's key awaiting its value, if keyed
        scalars = {}  # (text, implicit) -> its value; a scalar that raises is never stored
        while not document:
            event = loader.get_event()
            mark = event.start_mark
            if isinstance(event, yaml.CollectionEndEvent):
                value, key = stack.pop()
                keyed = True
            elif event.anchor is not None:  # an alias's anchor is the name it refers to
                sign = "*" if isinstance(event, yaml.AliasEvent) else "&"
                raise _error(f"found {sign}{event.anchor}: scenario files take no anchors or aliases", mark)
            elif event.tag is not None:  # after the anchor check: an alias has no tag
                raise _error(f"found the tag {event.tag}: scenario files take no tags", mark)
            elif isinstance(event, yaml.ScalarEvent):
                cached = (event.value, event.implicit)
                try:
                    value = scalars[cached]
                except KeyError:
                    value = scalars[cached] = _scalar(loader, event)
            else:
                if len(stack) > MAX_NESTING:
                    raise _error(f"found nesting deeper than {MAX_NESTING}", mark)
                if isinstance(stack[-1][0], dict) and not keyed:
                    raise _error("found a key that is not a scalar", mark)
                stack.append(([] if isinstance(event, yaml.SequenceStartEvent) else {}, key))
                keyed = False
                continue
            items = stack[-1][0]
            if isinstance(items, list):
                items.append(value)
            elif keyed:
                items[key] = value
                keyed = False
            elif value in items:
                raise _error(f"found repeated key {value!r}", mark)
            else:
                key, keyed = value, True
        loader.get_event()  # DocumentEndEvent
        if not loader.check_event(yaml.StreamEndEvent):
            raise _error("found a second document", loader.get_event().start_mark)
        return document[0]
    finally:
        loader.dispose()


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def load_scenario(config: RunConfig) -> simnet.Scenario:
    """Parse the scenario file and apply overrides; raises ScenarioError or
    OSError with a message naming the problem."""
    path = Path(config.scenario_path)
    try:
        raw = _read_yaml(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise simnet.ScenarioError("<syntax>", f"not UTF-8 text: {err}")
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise simnet.ScenarioError("<syntax>", f"unparseable scenario{where}: {err}")
    scenario = simnet.scenario_from_dict(raw)
    if config.seed_override is not None:
        if config.seed_override not in simnet.INT64:
            raise simnet.ScenarioError("seed", "integer outside the signed 64-bit range")
        scenario = dataclasses.replace(scenario, seed=config.seed_override)
    if config.epsilon_override is not None:
        scenario = dataclasses.replace(scenario, epsilon=config.epsilon_override)
        simnet.validate_scenario(scenario)  # may go below 0, not below -relay_delay
    return scenario


def _write_report(out_dir: Path, name: str, lines, summary: dict) -> None:
    path = out_dir / f"{name}.txt"
    body = "\n".join(lines)
    path.write_text(body + "\n" + json.dumps(summary, sort_keys=True) + "\n", encoding="utf-8")


def _write_transcript(path: Path, transcript) -> None:
    """Write Transcript.render()'s text line by line: a long history is never
    held as one string."""
    with path.open("w", encoding="utf-8") as out:
        for e in transcript.events:
            out.write(e.to_line() + "\n")


def _payout_lines(rows) -> tuple:
    lines = [f"{'nullifier':>16} {'payouts':>8} {'cancels':>8} {'rejected':>9}"]
    for sn, payouts, cancels, rejected in rows:
        lines.append(f"{fe_hex(sn):>16} {payouts:>8} {cancels:>8} {str(rejected).lower():>9}")
    summary = {
        "nullifiers": len(rows),
        "max_payouts": max((r[1] for r in rows), default=0),
        "double_payouts": sum(1 for r in rows if r[1] > 1),
    }
    return lines, summary


def _dump_partial(out_dir: Path, transcript) -> str:
    """Write the transcript up to a failing tick; say where, or why not."""
    dump = out_dir / "transcript-failure.txt"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_transcript(dump, transcript)
    except OSError as err:
        return f"partial transcript not written: {err}"
    return f"partial transcript in {dump}"


def cmd_run(scenario: simnet.Scenario, out_dir: Path) -> int:
    transcript = simnet.run(scenario)
    out_dir.mkdir(parents=True, exist_ok=True)  # OSError if --out is a file
    _write_transcript(out_dir / "transcript.txt", transcript)
    rows = simnet.payout_table(transcript)  # after the transcript: their peaks do not stack
    _write_report(out_dir, "races", *_payout_lines(rows))
    report = metrics.anonymity_report(transcript)
    _write_report(out_dir, "anonymity", report.render_lines(), report.summary())
    series = incentives.vampire_metrics(transcript)
    _write_report(out_dir, "liquidity", series.render_lines(), series.summary())
    report = metrics.storage_report(transcript)
    _write_report(out_dir, "storage", report.render_lines(), report.summary())
    paid = {sn: [] for sn, payouts, _, _ in rows if payouts > 1}  # nullifier -> its payouts
    if not paid:
        return EXIT_OK
    for e in transcript.events:
        if e.kind == "withdraw-finalized" and e.get("nullifier") in paid:
            paid[e.get("nullifier")].append(f"chain={e.chain} wid={e.get('wid')} t={e.tick}")
    for sn, payouts in paid.items():
        _fail(f"double payout of nullifier {fe_hex(sn)}: {', '.join(payouts)}")
    return EXIT_DOUBLE_PAYOUT


def cmd_races(scenario: simnet.Scenario, out_dir: Path) -> int:
    report = simnet.explore_races(scenario)
    out_dir.mkdir(parents=True, exist_ok=True)  # OSError if --out is a file
    _write_report(out_dir, "races", report.render_lines(), report.summary())
    for row in report.double_payout_rows:
        _fail(f"double payout at t'={row.t_prime} order={row.order} (payouts={row.payouts})")
    return EXIT_DOUBLE_PAYOUT if report.double_payout_rows else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgemix",
        description="deterministic two-chain bridge/mixer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute a scenario and write its five reports"),
        ("races", "sweep double-withdrawal interleavings; fail on double payout"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario file (YAML)")
        p.add_argument("--out", required=True, help="output directory for reports")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument(
            "--epsilon-override",
            type=int,
            default=None,
            help="override epsilon (negative values allowed: negative-control runs)",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:  # argparse exits on bad flags; surface as a code
        return EXIT_BAD_INPUT if err.code else EXIT_OK
    config = RunConfig(
        scenario_path=args.scenario,
        out_dir=args.out,
        seed_override=args.seed,
        epsilon_override=args.epsilon_override,
    )
    out_dir = Path(config.out_dir)
    try:
        scenario = load_scenario(config)
        if args.command == "run":
            return cmd_run(scenario, out_dir)
        return cmd_races(scenario, out_dir)
    except (OSError, simnet.ScenarioError) as err:  # an --out or report that cannot be written too
        _fail(str(err))
        return EXIT_BAD_INPUT
    except simnet.SimInvariantError as err:
        if args.command == "races":
            _fail(f"invariant violation during sweep: {err}")
        else:
            _fail(f"invariant violation: {err} ({_dump_partial(out_dir, err.transcript)})")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
