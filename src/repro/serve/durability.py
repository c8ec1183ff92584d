"""Durable write-ahead verdict journal for the decode service.

PR 7's serving layer guarantees *in-process* honesty: every admitted
frame gets exactly one terminal verdict as long as the process lives.
This module extends the guarantee across process death.  A
:class:`VerdictJournal` is an append-only, schema-versioned
(:data:`JOURNAL_SCHEMA`) JSONL file that records the three events that
matter for crash recovery:

* ``admit`` -- a frame entered a queue (including its payload, so the
  frame can be *re-decoded* after a crash);
* ``dispatch`` -- a cycle picked frames for decoding (audit trail: a
  crash between ``dispatch`` and ``verdict`` means work was lost
  mid-decode, not merely queued);
* ``verdict`` -- the frame's terminal answer (compact form: status,
  reason, cycle, latency accounting and the ``recovered`` honesty
  flag).

``reject`` and ``checkpoint`` records ride along so a recovering
service can rebuild its full per-tenant accounting without replaying
traffic, and :mod:`repro.serve.replay` can re-render any tenant's
verdict timeline from the journal alone.

The journal is also read back here, in one place: :func:`fold_journal`
turns a record sequence into a :class:`JournalFold` (a
:class:`TenantAccount` per tenant, admitted records, decided seqs, the
verdict timeline, counters).  Crash recovery
(:meth:`~repro.serve.service.DecodeService.recover`) and the offline
audit (:func:`~repro.serve.replay.replay_report`) both consume that
fold, and :func:`pending_record` / :func:`pending_from_record` are the
one conversion between a queued
:class:`~repro.serve.queueing.PendingFrame` and its ``admit`` record
(the shape a checkpoint's ``pending`` entries share).

Durability mechanics, in the spirit of every write-ahead log:

* records are **CRC-guarded**: each line carries a ``crc`` over its
  canonical JSON encoding, so a torn write (power loss mid-line) or a
  flipped bit is detected rather than parsed into garbage;
* opening a journal for writing **truncates the torn tail**: the scan
  stops at the first unparsable/CRC-failing record and the file is cut
  back to the last durable byte (the classic WAL repair);
* appends are **fsync-batched**: records buffer in memory and hit disk
  (``flush`` + ``os.fsync``) every ``sync_every`` records and at every
  explicit :meth:`VerdictJournal.flush` -- the service flushes once per
  dispatch cycle, so a crash loses at most the current cycle's
  unflushed records, and at-least-once recovery re-decodes those
  frames (see ``docs/SERVING.md``, "Durability & recovery").

Version mismatches are rejected up front: a journal whose ``open``
header carries a different schema tag raises
:class:`JournalVersionError` instead of being half-understood.
"""

from __future__ import annotations

import base64
import copy
import json
import os
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .. import instrument
from .queueing import PendingFrame

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalError",
    "JournalFold",
    "JournalScan",
    "JournalVersionError",
    "RECORD_TYPES",
    "TenantAccount",
    "VerdictJournal",
    "encode_record",
    "fold_journal",
    "pack_frame",
    "pending_from_record",
    "pending_record",
    "read_journal",
    "scan_journal",
    "unpack_frame",
]

#: Schema tag of the journal format; bump on incompatible changes.
JOURNAL_SCHEMA = "repro.journal/v1"

#: The closed set of record types a v1 journal may contain.
RECORD_TYPES = ("open", "admit", "reject", "dispatch", "verdict", "checkpoint")


class JournalError(RuntimeError):
    """A journal is structurally unusable (bad header, unknown record)."""


class JournalVersionError(JournalError):
    """The journal's schema tag does not match :data:`JOURNAL_SCHEMA`."""


def _canonical(record: dict) -> str:
    """Canonical JSON used for CRC computation (sorted, compact)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def pack_frame(frame: np.ndarray) -> dict:
    """Pack an ndarray frame payload into a compact JSON-safe dict.

    Raw bytes + base64 instead of a nested JSON float list: roughly
    10x faster to encode and ~40% smaller on the wire, which is what
    keeps per-admit journalling within the bench overhead budget.
    """
    arr = np.ascontiguousarray(frame)
    return {
        "b64": base64.b64encode(arr.tobytes()).decode("ascii"),
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
    }


def unpack_frame(packed) -> np.ndarray:
    """Invert :func:`pack_frame`; also accepts legacy nested lists."""
    if isinstance(packed, dict):
        data = base64.b64decode(packed["b64"])
        arr = np.frombuffer(data, dtype=np.dtype(packed["dtype"]))
        return arr.reshape(packed["shape"]).copy()
    return np.asarray(packed, dtype=float)


def encode_record(kind: str, payload: dict) -> str:
    """Encode one journal record as its CRC-stamped JSONL line.

    ``kind`` must be one of :data:`RECORD_TYPES`; ``payload`` must be
    JSON-safe (the service passes everything through
    :func:`repro.instrument.json_safe` first).  The CRC covers the
    canonical encoding of the record *without* the ``crc`` field, so
    any torn or corrupted line fails verification on read.  The ``crc``
    key is spliced onto the already-canonical string rather than
    re-serialising the whole record -- readers re-canonicalise after
    popping ``crc``, so the emitted line only has to be valid JSON.
    """
    if kind not in RECORD_TYPES:
        raise JournalError(
            f"unknown journal record type {kind!r}; expected one of "
            f"{RECORD_TYPES}"
        )
    body = _canonical({"type": kind, **payload})
    crc = zlib.crc32(body.encode("utf-8"))
    return f'{body[:-1]},"crc":{crc}}}'


def _decode_line(line: str) -> dict | None:
    """Parse and CRC-verify one journal line; ``None`` when invalid."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) or "crc" not in record:
        return None
    crc = record.pop("crc")
    if zlib.crc32(_canonical(record).encode("utf-8")) != crc:
        return None
    if record.get("type") not in RECORD_TYPES:
        return None
    return record


@dataclass(frozen=True)
class JournalScan:
    """Result of scanning a journal file.

    Attributes
    ----------
    records:
        The valid records, in file order (the ``open`` header included).
    good_bytes:
        File offset just past the last valid record -- where a writer
        must truncate to repair a torn tail.
    torn:
        Number of trailing lines discarded as torn/corrupt.
    """

    records: tuple
    good_bytes: int
    torn: int


def scan_journal(path: str | Path) -> JournalScan:
    """Scan a journal file, stopping at the first invalid record.

    Implements the WAL repair rule: everything up to the first
    unparsable or CRC-failing line is durable truth; that line and
    everything after it are a torn tail from an interrupted write and
    are discarded (the writer truncates them; readers ignore them).
    Raises :class:`JournalVersionError` when the ``open`` header
    carries a foreign schema tag, and :class:`JournalError` when a
    non-empty journal does not start with an ``open`` header.
    """
    path = Path(path)
    records: list[dict] = []
    good_bytes = 0
    torn = 0
    if not path.exists():
        return JournalScan(records=(), good_bytes=0, torn=0)
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0
    for raw_line in data.splitlines(keepends=True):
        line = raw_line.decode("utf-8", errors="replace").strip()
        record = _decode_line(line) if line else None
        if record is None or not raw_line.endswith(b"\n"):
            # Torn tail: a partial final line, or a corrupt record --
            # nothing after it can be trusted either.
            torn = max(1, len(data[offset:].splitlines()))
            break
        records.append(record)
        offset += len(raw_line)
        good_bytes = offset
    if records:
        header = records[0]
        if header.get("type") != "open":
            raise JournalError(
                f"{path}: journal does not start with an 'open' header "
                f"(found {header.get('type')!r})"
            )
        schema = header.get("schema")
        if schema != JOURNAL_SCHEMA:
            raise JournalVersionError(
                f"{path}: journal schema {schema!r} does not match this "
                f"reader ({JOURNAL_SCHEMA!r}); refusing to recover from a "
                "foreign format"
            )
    elif good_bytes == 0 and torn:
        raise JournalError(
            f"{path}: no valid records before the torn tail; the journal "
            "header itself is corrupt"
        )
    return JournalScan(records=tuple(records), good_bytes=good_bytes, torn=torn)


def read_journal(path: str | Path) -> list[dict]:
    """Read a journal's valid records (read-only; torn tail ignored).

    The replay/audit CLI (:mod:`repro.serve.replay`) consumes this; the
    file is not modified, so a journal can be audited while its service
    is live.
    """
    return list(scan_journal(path).records)


@dataclass
class TenantAccount:
    """One tenant's accounting, as reports and checkpoints carry it.

    ``submitted`` counts every submission and ``admitted`` the queued
    ones; ``rejected`` counts rejections by reason, ``verdicts``
    terminal verdicts by status, and ``recovered`` the verdicts flagged
    ``recovered=True``.  The field names are the JSON keys.
    """

    submitted: int = 0
    admitted: int = 0
    rejected: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    recovered: int = 0

    def record_rejection(self, reason: str) -> None:
        """Count one rejection for ``reason``."""
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def record_verdict(self, status: str, recovered: bool = False) -> None:
        """Count one terminal verdict and its ``recovered`` flag."""
        self.verdicts[status] = self.verdicts.get(status, 0) + 1
        if recovered:
            self.recovered += 1

    def to_dict(self) -> dict:
        """JSON form, with the by-reason and by-status counts sorted."""
        return {
            name: dict(sorted(value.items()))
            if isinstance(value, dict)
            else value
            for name, value in asdict(self).items()
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantAccount":
        """Rebuild an account from its :meth:`to_dict` form (copied)."""
        return cls(
            **{
                f.name: copy.copy(data[f.name])
                for f in fields(cls)
                if f.name in data
            }
        )


def pending_record(pending: PendingFrame) -> dict:
    """The ``admit`` record of a queued frame, payload packed.

    A checkpoint's ``pending`` entries have the same shape, so
    :func:`pending_from_record` reads both.
    """
    return {
        "seq": pending.seq,
        "stream": pending.stream,
        "tenant": pending.tenant,
        "priority": pending.priority,
        "submitted_at": pending.submitted_at,
        "deadline": pending.deadline,
        "frame": pack_frame(pending.frame),
    }


def pending_from_record(record: dict, priority: int) -> PendingFrame:
    """Rebuild a queued frame from its :func:`pending_record` form.

    The frame comes back flagged ``recovered=True``: one read back from
    the journal is being replayed.  ``priority`` stands in when the
    record carries none.
    """
    deadline = record.get("deadline")
    return PendingFrame(
        seq=int(record["seq"]),
        stream=record["stream"],
        tenant=record["tenant"],
        priority=int(record.get("priority", priority)),
        frame=unpack_frame(record["frame"]),
        submitted_at=float(record.get("submitted_at", 0.0)),
        deadline=None if deadline is None else float(deadline),
        recovered=True,
    )


@dataclass(frozen=True)
class JournalFold:
    """What a journal's records add up to (see :func:`fold_journal`).

    Attributes
    ----------
    accounts:
        A :class:`TenantAccount` per tenant.
    admits:
        The admit record of every admitted seq, a checkpoint's
        ``pending`` entries included.
    decided:
        The seqs that have a terminal verdict.
    timeline:
        One entry per verdict, in seq order: seq, stream, tenant,
        status, reason, cycle and the ``recovered`` and
        ``deadline_missed`` flags.
    tenants:
        Every tenant the folded records name, in order of first
        mention, including any a later checkpoint dropped.
    max_seq, max_cycle:
        The highest seq and cycle recorded.
    dispatches, checkpoints:
        How many ``dispatch`` and ``checkpoint`` records there are.
    """

    accounts: dict
    admits: dict
    decided: set
    timeline: list
    tenants: tuple
    max_seq: int
    max_cycle: int
    dispatches: int
    checkpoints: int

    @property
    def outstanding(self) -> list[int]:
        """Admitted seqs without a verdict, ascending."""
        return sorted(seq for seq in self.admits if seq not in self.decided)


def fold_journal(records: Iterable[dict]) -> JournalFold:
    """Fold journal records, in file order, into a :class:`JournalFold`.

    The one reading of a journal's meaning, shared by crash recovery
    and the replay audit.  It is idempotent by seq: a repeated
    ``admit``, ``reject`` or ``verdict`` record (a journal replayed
    into itself, or an at-least-once recovery that re-journals) counts
    once.  A ``checkpoint`` carries the whole recoverable state, so it
    replaces the accounts and the admitted records and forgets the
    rejections, decided seqs and timeline folded before it (compaction
    drops that prefix entirely).
    """
    accounts: dict[str, TenantAccount] = {}
    tenants: dict[str, None] = {}
    admits: dict[int, dict] = {}
    rejected: set[int] = set()
    decided: set[int] = set()
    timeline: list[dict] = []
    max_seq = max_cycle = dispatches = checkpoints = 0
    for record in records:
        kind = record["type"]
        if kind in ("admit", "reject", "verdict"):
            seq = int(record["seq"])
            seen = {"admit": admits, "reject": rejected, "verdict": decided}
            if seq in seen[kind]:
                continue
            max_seq = max(max_seq, seq)
            tenant = record["tenant"]
            tenants.setdefault(tenant)
            account = accounts.setdefault(tenant, TenantAccount())
            if kind == "admit":
                admits[seq] = record
                account.submitted += 1
                account.admitted += 1
            elif kind == "reject":
                rejected.add(seq)
                account.submitted += 1
                account.record_rejection(record["reason"])
            else:
                decided.add(seq)
                entry = {
                    "seq": seq,
                    "stream": record["stream"],
                    "tenant": tenant,
                    "status": record["status"],
                    "reason": record.get("reason"),
                    "cycle": record.get("cycle"),
                    "recovered": bool(record.get("recovered", False)),
                    "deadline_missed": bool(
                        record.get("deadline_missed", False)
                    ),
                }
                account.record_verdict(
                    entry["status"], recovered=entry["recovered"]
                )
                timeline.append(entry)
        elif kind == "dispatch":
            dispatches += 1
        elif kind == "checkpoint":
            checkpoints += 1
            accounts = {
                name: TenantAccount.from_dict(account)
                for name, account in record.get("accounts", {}).items()
            }
            tenants.update(dict.fromkeys(accounts))
            admits = {
                int(entry["seq"]): entry for entry in record.get("pending", [])
            }
            rejected, decided, timeline = set(), set(), []
            max_seq = max(max_seq, int(record.get("seq") or 0))
        if kind in ("verdict", "dispatch", "checkpoint"):
            max_cycle = max(max_cycle, int(record.get("cycle") or 0))
    return JournalFold(
        accounts=accounts,
        admits=admits,
        decided=decided,
        timeline=sorted(timeline, key=lambda entry: entry["seq"]),
        tenants=tuple(tenants),
        max_seq=max_seq,
        max_cycle=max_cycle,
        dispatches=dispatches,
        checkpoints=checkpoints,
    )


class VerdictJournal:
    """Append-only, CRC-guarded, fsync-batched JSONL verdict journal.

    Parameters
    ----------
    path:
        Journal file location.  A missing or empty file is initialised
        with the ``open`` schema header; an existing file is scanned,
        its torn tail truncated, and appending resumes after the last
        durable record.
    sync_every:
        Records buffered between automatic ``flush``/``fsync`` batches
        (1 = synchronous append; larger values trade a bounded
        at-least-once replay window for write throughput).
    fsync:
        Whether flushes call ``os.fsync`` (tests on tmpfs may disable
        it; production must not).
    """

    def __init__(
        self,
        path: str | Path,
        sync_every: int = 16,
        fsync: bool = True,
    ):
        if sync_every < 1:
            raise ValueError(f"sync_every must be >= 1, got {sync_every}")
        self.path = Path(path)
        self.sync_every = int(sync_every)
        self.fsync = bool(fsync)
        self._buffer: list[str] = []
        self._records = 0
        self._closed = False
        scan = scan_journal(self.path)
        self._recovered = scan.records
        if scan.torn:
            instrument.incr("journal.torn_records", scan.torn)
            with open(self.path, "ab") as fh:
                fh.truncate(scan.good_bytes)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "ab")
        if not scan.records:
            self.append("open", {"schema": JOURNAL_SCHEMA})
            self.flush()

    @property
    def recovered_records(self) -> tuple:
        """The durable records found when this journal was opened."""
        return self._recovered

    @property
    def pending(self) -> int:
        """Appended records not yet flushed to disk."""
        return len(self._buffer)

    def append(self, kind: str, payload: dict) -> None:
        """Buffer one record; auto-flushes every ``sync_every`` records."""
        if self._closed:
            raise JournalError(f"{self.path}: journal is closed")
        self._buffer.append(encode_record(kind, instrument.json_safe(payload)))
        self._records += 1
        instrument.incr("journal.records")
        if len(self._buffer) >= self.sync_every:
            self.flush()

    def flush(self) -> None:
        """Write buffered records and (by default) fsync them durable."""
        if not self._buffer or self._closed:
            return
        block = "".join(line + "\n" for line in self._buffer)
        self._buffer.clear()
        self._fh.write(block.encode("utf-8"))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        instrument.incr("journal.flushes")

    def compact(self, checkpoint_payload: dict) -> None:
        """Atomically rewrite the journal as header + one checkpoint.

        The checkpoint must carry the full recoverable state (the
        service's :meth:`~repro.serve.service.DecodeService.checkpoint`
        builds it); everything before it becomes redundant, so the file
        is rewritten as ``open`` + ``checkpoint`` via a temp file and
        ``os.replace`` -- a crash mid-compaction leaves the old journal
        intact.
        """
        self.flush()
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        with open(tmp, "wb") as fh:
            fh.write(
                (encode_record("open", {"schema": JOURNAL_SCHEMA}) + "\n")
                .encode("utf-8")
            )
            fh.write(
                (
                    encode_record(
                        "checkpoint", instrument.json_safe(checkpoint_payload)
                    )
                    + "\n"
                ).encode("utf-8")
            )
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        self._fh = open(self.path, "ab")
        instrument.incr("journal.compactions")

    def close(self) -> None:
        """Flush and close the journal file (idempotent)."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._fh.close()

    def __enter__(self) -> "VerdictJournal":
        """Context-manager entry: the journal itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: flush + close."""
        self.close()
