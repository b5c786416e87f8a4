"""Privacy and storage analyses computed from a run's public record.

Everything here deliberately uses only what an on-chain observer sees: the
event log and the final contract state, whose root histories, withdrawal
queues and deposit trees are public records.  Note secrets held by the
simulator are never consulted, so the anonymity numbers mean what they claim.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .contract import EventRecord
from .field_hash import ENCODED_SIZE
from .lightclient import BlockHeader
from .simnet import other_chain


class MetricsError(ValueError):
    pass


FE_BYTES = ENCODED_SIZE
HEADER_BYTES = len(fields(BlockHeader)) * FE_BYTES  # one word per header field on the wire

_WITHDRAW_KINDS = frozenset({
    "withdraw-submitted",
    "withdraw-finalized",
    "withdraw-cancelled",
    "withdraw-rejected",
})


def _set_sizes(transcript) -> dict:
    """wid -> anonymity set of each withdrawal the contracts queued, read from
    their records: entry n of a tree's root_history is its root after n
    deposits, so a root's index there is the number of deposits under it."""
    deposits = {chain: {root: n for n, root in enumerate(c.tree.root_history)}
                for chain, c in transcript.contracts.items()}
    # a remote root that never appeared on the other chain (e.g. the
    # shared empty root before any deposit) contributes nothing
    return {
        pw.pending_id: deposits[chain][pw.statement.root_a] + deposits[other_chain(chain)].get(pw.statement.root_b, 0)
        for chain, c in transcript.contracts.items()
        for pw in c.pending_withdrawals
    }


def anonymity_set(transcript, withdrawal_id: str) -> int:
    """Size of the set of deposits a withdrawal could plausibly spend: the
    deposits under its local root plus those under its relayed remote root."""
    size = _set_sizes(transcript).get(withdrawal_id)
    if size is None:
        raise MetricsError(f"no withdraw-submitted event with wid {withdrawal_id!r}")
    return size


@dataclass
class AnonymityReport:
    rows: list  # (wid, chain, anonymity_set) for each finalized withdrawal

    def minimum(self) -> int:
        return min((r[2] for r in self.rows), default=0)

    def mean(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r[2] for r in self.rows) / len(self.rows)

    def render_lines(self) -> list:
        lines = [f"{'wid':>6} {'chain':>5} {'anonymity_set':>14}"]
        for wid, chain, size in self.rows:
            lines.append(f"{wid:>6} {chain:>5} {size:>14}")
        return lines

    def summary(self) -> dict:
        return {
            "withdrawals": len(self.rows),
            "min": self.minimum(),
            "mean": round(self.mean(), 4),
        }


def anonymity_report(transcript) -> AnonymityReport:
    """The anonymity set of each finalized withdrawal, in the log's order of
    payouts: the one thing read from the log."""
    sizes = _set_sizes(transcript)
    return AnonymityReport([
        (wid := e.get("wid"), e.chain, sizes[wid]) for e in transcript.events if e.kind == "withdraw-finalized"
    ])


@dataclass
class LinkabilityFinding:
    event_index: int
    kind: str
    key: str
    value: str
    reason: str

    def to_line(self) -> str:
        return (
            f"event={self.event_index} kind={self.kind} field={self.key}"
            f" value={self.value} problem={self.reason}"
        )


@dataclass
class LinkabilityReport:
    findings: list

    @property
    def clean(self) -> bool:
        return not self.findings

    def render_lines(self) -> list:
        if self.clean:
            return ["no deposit-linking fields found in withdrawal events"]
        return [f.to_line() for f in self.findings]

    def summary(self) -> dict:
        return {"clean": self.clean, "findings": len(self.findings)}


_FORBIDDEN_KEYS = frozenset({"commitment", "leaf_index", "index"})


def linkability_audit(transcript) -> LinkabilityReport:
    """Flag any withdrawal-side event field that would let an observer tie the
    withdrawal back to a specific deposit: a forbidden key, or a value equal
    to some deposit commitment (a string value equal to a commitment's
    printed form counts)."""
    commitments = set().union(*(c.tree.leaves for c in transcript.contracts.values()))
    # an int never equals a str, so one set holds both forms of each commitment
    commitments |= {EventRecord.value_text("commitment", c) for c in commitments}
    findings = []
    for i, e in enumerate(transcript.events):
        if e.kind not in _WITHDRAW_KINDS:
            continue
        for key, value in e.fields:
            if key in _FORBIDDEN_KEYS:
                reason = "deposit-identifying field"
            elif value in commitments:
                reason = "value equals a deposit commitment"
            else:
                continue
            findings.append(LinkabilityFinding(i, e.kind, key, EventRecord.value_text(key, value), reason))
    return LinkabilityReport(findings)


# each store a contract grows, in report order, with the bytes of one entry
STORAGE_KINDS = dict(local_roots=FE_BYTES, remote_roots=FE_BYTES, nullifiers=FE_BYTES, remote_headers=HEADER_BYTES)
STORAGE_COLUMNS = ("chain", *STORAGE_KINDS)


@dataclass
class StorageRow:
    chain: str
    local_roots: int
    remote_roots: int
    nullifiers: int
    remote_headers: int

    def counts(self) -> dict:
        return {kind: getattr(self, kind) for kind in STORAGE_KINDS}

    def bytes_by_kind(self) -> dict:
        return {kind: n * STORAGE_KINDS[kind] for kind, n in self.counts().items()}

    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind().values())

    def dominant(self) -> str:
        by_kind = self.bytes_by_kind()
        return max(by_kind, key=lambda k: (by_kind[k], k))


@dataclass
class StorageReport:
    rows: list  # one StorageRow per chain, in chain order

    def render_lines(self) -> list:
        lines = [" ".join(f"{c:>14}" for c in STORAGE_COLUMNS) + f" {'total_bytes':>12} {'dominant':>15}"]
        for r in self.rows:
            cells = " ".join(f"{v:>14}" for v in (r.chain, *r.counts().values()))
            lines.append(f"{cells} {r.total_bytes():>12} {r.dominant():>15}")
        return lines

    def summary(self) -> dict:
        return {
            r.chain: {
                "counts": r.counts(),
                "bytes": r.bytes_by_kind(),
                "total_bytes": r.total_bytes(),
                "dominant": r.dominant(),
            }
            for r in self.rows
        }


def storage_report(transcript) -> StorageReport:
    """Growth of each contract's persistent stores since setup.

    Setup itself installs the empty root (both sides) and the genesis header,
    so those are subtracted: the counts measure what bridging *added*.
    """
    return StorageReport([
        StorageRow(chain, local_roots=len(c.tree.root_history) - 1, remote_roots=len(c.remote_roots) - 1,
                   nullifiers=len(c.nullifiers), remote_headers=len(c.remote_headers) - 1)
        for chain, c in transcript.contracts.items()
    ])
