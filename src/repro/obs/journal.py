"""JSONL run journal: a line-per-event stream of what a run did.

Every event is one JSON object on its own line::

    {"seq": 3, "t": 0.014201, "type": "span.open",
     "data": {"path": "pipeline.generation/atpg", "depth": 1}}

Fixed keys:

``seq``
    Monotonically increasing event index (0-based, gap-free).
``t``
    Seconds since the journal was opened (``time.perf_counter`` delta —
    monotonic, sub-microsecond).
``type``
    Dotted event kind.  Core kinds: ``journal.open`` / ``journal.close``
    (lifecycle, carry the schema tag and wall-clock time),
    ``span.open`` / ``span.close`` (phase boundaries; close carries the
    duration), ``metrics.snapshot`` (full registry dump), ``coverage``
    (per-phase fault-coverage deltas).  Instrumented code may emit
    additional kinds; consumers must ignore kinds they do not know.
``data``
    Kind-specific payload object.

The writer flushes after every line so a crashed or killed run leaves a
readable journal up to its last event — and so live tailers (the
``repro-atpg watch`` TUI, :func:`repro.obs.live.follow_journal`) see
events promptly, not whenever a block buffer happens to fill.

Multi-process runs
------------------
:class:`RunJournal` assumes a **single writer**: one process, one file,
one gap-free ``seq``.  (Multiple *threads* of that process may emit —
writes are serialized by an internal lock — but never multiple
processes.)  Parallel runs therefore never share a journal.  Instead,
each worker process writes its own journal at the path given by
:func:`worker_journal_path` — the convention is ``<base>.w<pid>``,
where ``<base>`` is the parent run's journal path — and the parent
combines them afterwards with :func:`merge_journals`.

Any number of concurrent *readers* is fine: tailers open the files
read-only and must tolerate a truncated final line (the writer may be
mid-``write`` when they poll), which both :func:`read_journal` and the
incremental follower in :mod:`repro.obs.live` do.  Tailers must never
write to a journal they follow — the single-writer rule has no
exceptions.

Merged streams tag every event with a ``src`` key naming its source
journal.  :func:`read_journal` accepts such multi-source streams: the
``seq`` gap-free / ``t`` monotonic invariants are then enforced *per
source* rather than globally (each source was a well-formed single
writer; interleaving is the merge layer's doing).
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..envvars import env_number

SCHEMA = "repro.obs.journal/1"

#: ``src`` label of the synthetic open/close wrapper merge_journals adds.
MERGE_SRC = "merge"

#: Environment variable capping a journal file's size in megabytes.
#: When a journal outgrows the cap it *rotates*: the full segment is
#: renamed to ``<base>.1`` (one level — a second rotation overwrites
#: it) and writing continues in a fresh file at the original path, so a
#: daemon-style run holds at most ~2x the cap on disk.  Unset or 0 =
#: unbounded (the historical behavior).
MAX_MB_ENV = "REPRO_JOURNAL_MAX_MB"

#: Rotated-segment filename: ``<base>.1``.
ROTATED_SUFFIX = ".1"


def rotated_journal_path(base: Union[str, Path]) -> Path:
    """Where a journal's previous segment lives after a rotation."""
    base = Path(base)
    return base.with_name(base.name + ROTATED_SUFFIX)


def resolve_journal_max_bytes(max_mb: Optional[float] = None
                              ) -> Optional[int]:
    """The rotation cap in bytes: the explicit argument, else
    ``$REPRO_JOURNAL_MAX_MB``, else ``None`` (no rotation)."""
    if max_mb is None:
        max_mb = env_number(MAX_MB_ENV)
    if max_mb is None or max_mb <= 0:
        return None
    return int(max_mb * 1024 * 1024)


def worker_journal_path(base: Union[str, Path], worker: int) -> Path:
    """The per-process journal path convention: ``<base>.w<worker>``,
    ``worker`` conventionally the worker's PID (collision-free and
    meaningful in crash forensics)."""
    base = Path(base)
    return base.with_name(f"{base.name}.w{worker}")


class RunJournal:
    """Streaming JSONL event writer (see module docstring for schema).

    ``trace_id``, when given, is recorded in the ``journal.open`` event
    so every journal of a multi-process run names the trace it belongs
    to.  Thread-safe: a heartbeat thread and the main thread may emit
    concurrently; each event is written and flushed atomically under an
    internal lock.

    ``max_mb`` (default: ``$REPRO_JOURNAL_MAX_MB``) caps the file size:
    a journal crossing the cap emits a final ``journal.rotated`` event,
    renames itself to ``<base>.1`` and continues in a fresh segment at
    the original path — each segment is a self-contained valid journal
    (its own gap-free ``seq``, its own ``t`` zero, a fresh
    ``journal.open`` carrying the segment number), and
    :func:`read_journal` stitches the pair back into one stream.
    """

    def __init__(self, path: Union[str, Path],
                 trace_id: Optional[str] = None,
                 max_mb: Optional[float] = None):
        self.path = Path(path)
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._fh = self.path.open("w", encoding="utf-8")
        self._seq = 0
        self._t0 = time.perf_counter()
        self._bytes = 0
        self._max_bytes = resolve_journal_max_bytes(max_mb)
        self.segment = 0
        self.closed = False
        self.emit("journal.open", **self._head())

    def _head(self) -> Dict:
        head: Dict = {"schema": SCHEMA, "wall_time": time.time()}
        if self.trace_id:
            head["trace_id"] = self.trace_id
        if self.segment:
            head["segment"] = self.segment
            head["rotated_from"] = rotated_journal_path(self.path).name
        return head

    def _write(self, event_type: str, data: Dict) -> None:
        record = {
            "seq": self._seq,
            "t": round(time.perf_counter() - self._t0, 6),
            "type": event_type,
            "data": data,
        }
        self._seq += 1
        line = json.dumps(record, separators=(",", ":"),
                          sort_keys=True) + "\n"
        self._fh.write(line)
        self._fh.flush()
        self._bytes += len(line.encode("utf-8"))

    def _rotate(self) -> None:
        """Seal the current segment as ``<base>.1`` and start a fresh
        one at the original path (called under the lock)."""
        self._write("journal.rotated", {
            "segment": self.segment, "next_segment": self.segment + 1,
            "wall_time": time.time(),
        })
        self._fh.close()
        try:
            os.replace(self.path, rotated_journal_path(self.path))
        except OSError:
            # Can't rename (exotic filesystem): keep appending to the
            # original file rather than losing events.
            self._fh = self.path.open("a", encoding="utf-8")
            self._max_bytes = None
            return
        self._fh = self.path.open("w", encoding="utf-8")
        self._seq = 0
        self._t0 = time.perf_counter()
        self._bytes = 0
        self.segment += 1
        self._write("journal.open", self._head())

    def emit(self, event_type: str, **data) -> None:
        """Write one event; no-op after :meth:`close`."""
        with self._lock:
            if self.closed:
                return
            self._write(event_type, data)
            if self._max_bytes is not None and \
                    self._bytes >= self._max_bytes:
                self._rotate()

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self._write("journal.close", {"wall_time": time.time()})
            self.closed = True
            self._fh.close()


def read_journal(path: Union[str, Path]) -> List[Dict]:
    """Parse a journal back into event dicts, validating the invariants
    (schema tag on the first event, gap-free ``seq``, monotonic ``t``).

    Crash-safe: a truncated *trailing* line — the writer flushes per
    line, so a killed run can leave at most one partial record at the
    end — is silently dropped.  A malformed line anywhere else, a
    missing/foreign schema tag, or a schema *version* this reader does
    not know all raise ``ValueError`` with a message naming the problem.

    Multi-source streams (produced by :func:`merge_journals`) tag events
    with ``src``; the ``seq``/``t`` invariants are then enforced per
    source, because each source was an independent single writer and
    the merge interleaves them.

    Rotated journals (see :class:`RunJournal`) are stitched back
    transparently: when the file's ``journal.open`` names a segment > 0
    and the ``<path>.1`` sibling exists, the previous segment's events
    come first, the current segment's are re-timed onto its clock via
    the two opens' wall-clock times, and ``seq`` is renumbered into one
    gap-free sequence — callers see a single continuous journal.
    """
    events = _read_segment(path)
    if not events:
        return events
    head = events[0].get("data", {})
    if not head.get("segment"):
        return events
    rotated = rotated_journal_path(path)
    if not rotated.exists():
        return events  # prior segment already pruned; still valid alone
    previous = _read_segment(rotated)
    if not previous:
        return events
    prev_wall = previous[0].get("data", {}).get("wall_time", 0.0)
    cur_wall = head.get("wall_time", prev_wall)
    delta = max(0.0, float(cur_wall) - float(prev_wall))
    last_t = previous[-1]["t"]
    delta = max(delta, last_t)  # clock skew must not break monotonic t
    stitched = list(previous)
    seq = previous[-1]["seq"]
    for event in events[1:]:  # drop the segment's own journal.open
        seq += 1
        joined = dict(event)
        joined["seq"] = seq
        joined["t"] = round(event["t"] + delta, 6)
        stitched.append(joined)
    return stitched


def _read_segment(path: Union[str, Path]) -> List[Dict]:
    """One journal file as validated events (no rotation stitching)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    events: List[Dict] = []
    for number, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if number == len(lines) - 1:
                break  # truncated trailing line from a crashed writer
            raise ValueError(
                f"{path}: corrupt journal line {number + 1}: {exc}")
    if not events:
        return events
    first = events[0]
    schema = first.get("data", {}).get("schema") \
        if isinstance(first.get("data"), dict) else None
    prefix = SCHEMA.rsplit("/", 1)[0] + "/"
    if first.get("type") != "journal.open" or schema is None or \
            not str(schema).startswith(prefix):
        raise ValueError(f"{path}: not a {SCHEMA} journal")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: unsupported journal schema version {schema!r} "
            f"(this reader understands {SCHEMA!r})")
    previous_seq: Dict[Optional[str], int] = {}
    previous_t: Dict[Optional[str], float] = {}
    for index, event in enumerate(events):
        src = event.get("src")
        expected = previous_seq.get(src, -1) + 1
        if event.get("seq") != expected:
            where = f"source {src!r}" if src is not None else "journal"
            raise ValueError(f"{path}: seq gap in {where} at event {index}")
        previous_seq[src] = expected
        t = event.get("t")
        if t is None or t < previous_t.get(src, 0.0):
            raise ValueError(f"{path}: time went backwards at event {index}")
        previous_t[src] = t
    return events


def merge_journals(
    paths: Sequence[Union[str, Path]],
    out: Optional[Union[str, Path]] = None,
    sources: Optional[Sequence[str]] = None,
    anchor: str = "min",
) -> List[Dict]:
    """Combine several single-writer journals into one ordered stream.

    Each input is read (and validated) with :func:`read_journal`, its
    events tagged with a ``src`` label — ``sources[i]`` when given, else
    the path's distinguishing suffix (``run.jsonl.w123`` -> ``w123``) —
    and re-timed onto a shared clock: every source's ``journal.open``
    carries the wall-clock time it opened at, so ``wall_open + t`` is
    comparable across processes and the merged ``t`` is seconds since
    the anchor open.  Events are ordered by that global time, ties
    broken by ``(src, seq)`` — fully deterministic.

    ``anchor`` picks the zero of the merged clock: ``"min"`` (default)
    anchors on the earliest open, ``"first"`` on the first path's open
    — the right choice when that path is the *primary* run journal and
    the rest are its workers, so a worker whose clock is skewed cannot
    drag the whole timeline off the parent's.  Re-timed deltas that
    come out negative (a source's wall clock claims it ran before the
    anchor — clock skew, since ``t`` itself is monotonic per source)
    are clamped to zero rather than breaking the merged stream's
    monotonic-``t`` invariant; each clamped event counts toward a
    ``journal.merge.skew`` metric and a ``skew_clamped`` tally in the
    synthetic open, so skew is visible instead of silently reordered.

    The merged stream is wrapped in a synthetic ``journal.open`` /
    ``journal.close`` pair (``src`` = :data:`MERGE_SRC`) so the result
    is itself a valid journal; ``out`` optionally writes it as JSONL
    (readable back with :func:`read_journal`).  Per-source ``seq``
    values are preserved, which is what the multi-source validation in
    :func:`read_journal` checks against.  The primary source's
    ``trace_id`` (when present) is propagated into the synthetic open.
    """
    if not paths:
        raise ValueError("merge_journals needs at least one path")
    if sources is not None and len(sources) != len(paths):
        raise ValueError("sources must align with paths")
    if anchor not in ("min", "first"):
        raise ValueError(f"unknown merge anchor {anchor!r}")
    annotated: List[Dict] = []
    opens: List[float] = []
    labels: List[str] = []
    trace_id: Optional[str] = None
    for index, path in enumerate(paths):
        events = read_journal(path)
        if not events:
            raise ValueError(f"{path}: empty journal cannot be merged")
        if sources is not None:
            label = sources[index]
        else:
            name = Path(path).name
            label = name.rsplit(".", 1)[-1] if "." in name else name
        if label in labels or label == MERGE_SRC:
            label = f"{label}#{index}"
        labels.append(label)
        wall_open = events[0].get("data", {}).get("wall_time")
        if wall_open is None or not isinstance(wall_open, (int, float)) \
                or not math.isfinite(wall_open):
            raise ValueError(f"{path}: journal.open lacks a finite wall_time")
        if trace_id is None:
            trace_id = events[0].get("data", {}).get("trace_id")
        opens.append(wall_open)
        for event in events:
            tagged = dict(event)
            tagged["src"] = label
            tagged["_abs"] = wall_open + event["t"]
            annotated.append(tagged)
    t0 = opens[0] if anchor == "first" else min(opens)
    annotated.sort(key=lambda e: (e["_abs"], e["src"], e["seq"]))
    skew_clamped = 0
    last_t = 0.0
    retimed: List[Dict] = []
    for event in annotated:
        delta = event.pop("_abs") - t0
        if delta < 0.0:
            skew_clamped += 1
            delta = 0.0
        event["t"] = round(delta, 6)
        last_t = max(last_t, event["t"])
        retimed.append(event)
    if skew_clamped:
        from .context import incr as _incr
        _incr("journal.merge.skew", skew_clamped)
    head: Dict = {"schema": SCHEMA, "wall_time": t0,
                  "sources": labels, "merged": len(paths)}
    if trace_id:
        head["trace_id"] = trace_id
    if skew_clamped:
        head["skew_clamped"] = skew_clamped
    merged: List[Dict] = [{
        "seq": 0, "t": 0.0, "type": "journal.open", "src": MERGE_SRC,
        "data": head,
    }]
    merged.extend(retimed)
    merged.append({
        "seq": 1, "t": last_t, "type": "journal.close", "src": MERGE_SRC,
        "data": {"wall_time": t0 + last_t},
    })
    if out is not None:
        with Path(out).open("w", encoding="utf-8") as fh:
            for event in merged:
                fh.write(json.dumps(event, separators=(",", ":"),
                                    sort_keys=True) + "\n")
    return merged
