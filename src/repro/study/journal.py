"""Crash-safe JSONL journals: the write-ahead log behind :class:`repro.study.Study`.

A journal is a plain JSONL file.  The first line is a header record
(``kind="journal_header"``) carrying the format version and, when the study
was built from registered names, the recipe needed to reconstruct its
scheduler.  Every line after that is one typed study interaction (``ask``,
``tell``, ``fail``, ``requeue``, ``abandon``) in the exact order it
happened.

Durability model:

* :meth:`Journal.append` encodes canonically (sorted keys, fixed
  separators, numpy scalars unwrapped) and flushes after every line, so a
  crash loses at most the interaction that was mid-write.
* :meth:`Journal.finalize` additionally ``fsync``\\ s, making a *completed*
  run's log durable against power loss.
* Re-opening with ``mode="a"`` self-heals the torn tail a crash can leave:
  the file is truncated back to its last fully-parseable record (and the
  trailing newline restored if the final flush lost it), after which
  appends continue in place.

Corruption anywhere *before* the tail is not recoverable and raises
:class:`JournalError` — a mid-file scribble means the log can no longer
vouch for the run.
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import IO, Any

from ..canonical import encode_canonical
from ..telemetry import runtime

__all__ = [
    "JOURNAL_VERSION",
    "Journal",
    "JournalError",
    "JournalWriter",
    "encode_record",
    "read_journal",
]

#: Format version written into every journal header.
JOURNAL_VERSION = 1


class JournalError(RuntimeError):
    """The journal file is malformed beyond the recoverable torn tail."""


def encode_record(record: dict[str, Any]) -> str:
    """Canonical one-line encoding: sorted keys, no spaces, numpy unwrapped.

    The canonical form is what makes journals byte-comparable: a seeded run
    and its resumed twin must produce identical bytes, and replay
    verification compares records by their encodings (which also makes NaN
    losses compare equal — json round-trips them as literals).  The bytes
    are :func:`repro.canonical.encode_canonical`'s: the historical
    ``json.dumps`` call, from one encoder built at import.
    """
    return encode_canonical(record)


#: The C scanner behind ``json.loads``, called without its Python wrappers.
_scan_once = json.JSONDecoder().scan_once


def _scan_body(body: bytes, lines: list[str] | None) -> list[dict[str, Any]] | None:
    """Decode a journal's newline-terminated part in one scanner loop.

    Vouches only for ASCII (byte offsets are character offsets, and it is
    all :func:`encode_record` emits) in which every line is exactly one
    JSON object, from the line's first character to its newline.  Anything
    else — padding, CRLF, a value spanning lines or sharing one, a
    non-object, a scanner error — returns ``None`` and the per-line reader
    decides instead.
    """
    if not body.isascii():
        return None
    text = body.decode("ascii")
    records: list[dict[str, Any]] = []
    pos = 0
    try:
        while pos < len(text):
            newline = text.index("\n", pos)
            record, end = _scan_once(text, pos)
            if end != newline or type(record) is not dict:
                return None
            records.append(record)
            pos = newline + 1
    except (StopIteration, ValueError):
        return None
    if lines is not None:
        lines.extend(text.split("\n"))
        lines.pop()  # the empty piece after the final newline
    return records


def _decode_line(line: bytes, lines: list[str] | None) -> dict[str, Any]:
    text = line.decode("utf-8")
    record = json.loads(text)
    if type(record) is not dict:
        raise ValueError("a journal record is a JSON object")
    if lines is not None:
        lines.append(text)
    return record


def _read_journal(
    path: str | os.PathLike[str], lines: list[str] | None = None
) -> tuple[list[dict[str, Any]], int, bool]:
    """:func:`read_journal`; ``lines``, when given, receives each record's text."""
    with open(path, "rb") as fh:
        raw = fh.read()
    valid = raw.rfind(b"\n") + 1
    body, tail = raw[:valid], raw[valid:]
    records = _scan_body(body, lines)
    if records is None:
        records = []
        for number, line in enumerate(body.split(b"\n")[:-1], start=1):
            try:
                records.append(_decode_line(line, lines))
            except (UnicodeDecodeError, ValueError) as exc:
                raise JournalError(
                    f"{os.fspath(path)}: unparseable record on line {number} "
                    "(only the final line of a journal may be torn)"
                ) from exc
    # Bytes after the final newline: empty when the file is cleanly
    # terminated, otherwise a tail whose trailing newline (or more) never
    # reached the disk.
    if tail:
        try:
            records.append(_decode_line(tail, lines))
        except (UnicodeDecodeError, ValueError):
            pass  # torn tail — the interrupted final append
        else:
            return records, len(raw), False
    return records, valid, True


def read_journal(path: str | os.PathLike[str]) -> tuple[list[dict[str, Any]], int, bool]:
    """Parse a journal, tolerating a torn tail.

    Returns ``(records, valid_bytes, terminated)``: the parsed records, how
    many leading bytes of the file they occupy (where crash recovery should
    truncate to), and whether the last accepted record ended with a
    newline.  A record is a JSON object on a line of its own.  A *final*
    line that does not parse as one is dropped — it is the append a crash
    interrupted.  Such a line anywhere before the tail raises
    :class:`JournalError`.
    """
    return _read_journal(path)


class Journal:
    """An append-only JSONL record stream with crash recovery.

    Parameters
    ----------
    path:
        Journal file; parent directories are created.
    mode:
        ``"w"`` truncates and writes a fresh header.  ``"a"`` reopens an
        existing journal for continued appends, healing any torn tail in
        place first (a missing file, or one holding no complete record,
        falls back to ``"w"`` behaviour).
    spec:
        Optional JSON-serialisable scheduler recipe recorded in the header
        of a fresh journal (see :func:`repro.study.spec.build_spec`), used
        by :meth:`repro.study.Study.resume` to rebuild the scheduler.
    writer:
        Optional :class:`JournalWriter` switching the journal into
        group-commit mode: appends accumulate in a per-journal buffer and
        reach the file only at :meth:`commit` (driven by the writer), with
        no file descriptor held between commits.  The on-disk bytes are
        identical to immediate mode; only the durability cadence changes —
        see :class:`JournalWriter`.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        mode: str = "w",
        *,
        spec: dict[str, Any] | None = None,
        writer: "JournalWriter | None" = None,
        _scanned: tuple[int, bool] | None = None,
    ):
        # ``_scanned``: the ``(valid_bytes, terminated)`` of a read_journal
        # pass the caller (Study.resume) has just made, so reopening does
        # not read and decode the file a second time.
        if mode not in ("w", "a"):
            raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
        self.path = os.fspath(path)
        self._closed = False
        # None unless a runtime registry is installed (repro.telemetry.runtime).
        self._probes = runtime.probes("journal", target="journal")
        # Set by a JournalWriter carrying a write-ahead log: every committed
        # byte is already fsynced in the WAL, so this file is a replayable
        # cache and finalize can skip its own (expensive) per-file fsync.
        self._wal_durable = False
        # In group-commit mode lines buffer here and ``_file`` stays None:
        # holding one fd per journal caps concurrent studies at the
        # process's fd limit (1024 soft on CI runners), so commits
        # open-append-close instead.
        self._pending: list[str] | None = [] if writer is not None else None
        self._file: IO[str] | None = None
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        valid, terminated = 0, True
        if mode == "a" and os.path.exists(self.path):
            valid, terminated = _scanned if _scanned is not None else read_journal(self.path)[1:]
        if valid:
            with open(self.path, "r+b") as fh:
                fh.truncate(valid)
                if not terminated:
                    fh.seek(0, os.SEEK_END)
                    fh.write(b"\n")
            if writer is None:
                self._file = open(self.path, "a", encoding="utf-8")
        else:
            # Nothing valid on disk — no file, or one that died before its
            # header landed (every group-commit journal, until its writer's
            # first commit): start it afresh.
            if writer is None:
                self._file = open(self.path, "w", encoding="utf-8")
            else:
                open(self.path, "wb").close()  # truncate; header buffers below
            self.append({"kind": "journal_header", "version": JOURNAL_VERSION, "spec": spec})
        if writer is not None:
            writer._register(self)

    def append(self, record: dict[str, Any]) -> None:
        """Write one record and flush — the study's write-ahead guarantee.

        In group-commit mode the line buffers in memory instead; it becomes
        OS-visible at the writer's next :meth:`commit`.
        """
        self._write(encode_record(record) + "\n")

    def append_batch(self, records: list[dict[str, Any]]) -> None:
        """Write a block of records with a single flush.

        The on-disk bytes are exactly those of per-record :meth:`append`
        calls.  A crash mid-block tears at most the final line, which
        reopening heals like any torn tail.
        """
        if records:
            self._write("".join(encode_record(record) + "\n" for record in records))

    def _write(self, text: str) -> None:
        if self._closed:
            raise ValueError("Journal is closed")
        if self._probes is not None:
            self._probes.bytes.inc(len(text))
        if self._pending is not None:
            self._pending.append(text)
            return
        assert self._file is not None
        self._file.write(text)
        self._file.flush()

    def commit(self) -> None:
        """Flush buffered lines to the file (group-commit mode).

        One ``open("ab") / write / close`` per call, and only when there is
        something pending — an idle journal costs nothing.  In immediate
        mode this is a no-op (every append already flushed).
        """
        if self._pending:
            with open(self.path, "ab") as fh:
                fh.write(self._take_pending())

    def _take_pending(self) -> bytes:
        """Drain the pending buffer as bytes (WAL-backed group commit)."""
        if not self._pending:
            return b""
        data = "".join(self._pending).encode("utf-8")
        self._pending.clear()
        return data

    def finalize(self) -> None:
        """End-of-run durability: flush and fsync the journal to disk.

        When the journal rides a WAL-backed :class:`JournalWriter`, every
        committed byte is already fsynced in the shared log, so the per-file
        fsync — the expensive part at thousands of journals — is skipped.
        """
        if self._closed:
            return
        if self._pending is not None:
            if self._wal_durable:
                # Leave the tail in the buffer: the writer's finalize_all
                # groups every journal's tail into one WAL commit (one
                # fsync total) instead of draining here per file.
                return
            with open(self.path, "ab") as fh:
                fh.write(self._take_pending())
                fh.flush()
                self._fsync(fh)
            return
        assert self._file is not None
        self._file.flush()
        self._fsync(self._file)

    def _fsync(self, fh: IO[Any]) -> None:
        started = 0.0 if self._probes is None else perf_counter()
        os.fsync(fh.fileno())  # raises through: a failed sync is not counted
        if self._probes is not None:
            self._probes.fsyncs.inc()
            self._probes.fsync_seconds.observe(perf_counter() - started)

    def close(self) -> None:
        if self._closed:
            return
        self.commit()
        self._closed = True
        if self._file is not None:
            self._file.flush()
            self._file.close()


#: Frame header magic for the group-commit write-ahead log.
_WAL_MAGIC = b"=wal "


def read_wal(path: str | os.PathLike[str]) -> dict[str, bytes]:
    """Replay a :class:`JournalWriter` write-ahead log.

    Returns ``{journal_path: bytes}`` — for each journal, the concatenation
    of every durably committed block, i.e. exactly the bytes its file held
    at the last WAL fsync.  Crash recovery truncates each journal file to
    (or rebuilds it from) its entry here, then heals any remaining torn
    tail via :func:`read_journal` as usual.  A torn final frame (the commit
    a crash interrupted) is dropped; corruption anywhere earlier raises
    :class:`JournalError`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    out: dict[str, bytearray] = {}
    pos = 0
    frame = 0
    while pos < len(raw):
        end = raw.find(b"\n", pos, pos + 64)
        if end < 0:
            break  # torn frame header
        header = raw[pos:end]
        if not header.startswith(_WAL_MAGIC):
            raise JournalError(
                f"{os.fspath(path)}: bad WAL frame header at byte {pos} (frame {frame}): "
                f"expected magic {_WAL_MAGIC!r}, found {header[: len(_WAL_MAGIC)]!r}"
            )
        try:
            name_len, data_len = map(int, header[len(_WAL_MAGIC) :].split())
        except ValueError as exc:
            raise JournalError(
                f"{os.fspath(path)}: unparseable WAL frame header at byte {pos} "
                f"(frame {frame}): {header[len(_WAL_MAGIC):]!r} is not '<name_len> <data_len>'"
            ) from exc
        start = end + 1
        if start + name_len + data_len > len(raw):
            break  # torn frame body — the commit a crash interrupted
        name = raw[start : start + name_len].decode("utf-8")
        out.setdefault(name, bytearray()).extend(
            raw[start + name_len : start + name_len + data_len]
        )
        pos = start + name_len + data_len
        frame += 1
    return {name: bytes(data) for name, data in out.items()}


class JournalWriter:
    """Group-commit coordinator for many journals sharing one driver loop.

    Each registered journal buffers its appends privately (so its file
    stays byte-identical to a solo run — same lines, same order) and the
    writer flushes every dirty buffer in one :meth:`commit` sweep, which
    the multiplexer calls once per loop tick instead of once per append
    per study.  Between commits no file descriptors are held, so one
    process can host far more journals than its fd limit.

    Durability contract: group-commit trades the per-append write-ahead
    flush for a bounded window — a crash loses at most the interactions
    buffered since the last commit, and reopening heals any torn tail
    exactly as in immediate mode.  That is safe here because the journal's
    consumers (:meth:`repro.study.Study.resume`) replay deterministically:
    a journal truncated at any record boundary is a valid shorter run.
    :meth:`finalize_all` gives the usual end-of-run flush + fsync to every
    journal.

    With ``wal_path`` set, commits additionally write every dirty block to
    one shared write-ahead log and fsync *that single file* — the classic
    database group commit.  Each commit window then costs one fsync total
    instead of one per dirty journal, and the per-journal files become
    replayable caches (:func:`read_wal` rebuilds them), so
    :meth:`finalize_all` skips their per-file fsyncs entirely.  This is
    what makes crash-durable journaling affordable at thousands of
    concurrent studies.
    """

    def __init__(self, wal_path: str | os.PathLike[str] | None = None) -> None:
        self._journals: list[Journal] = []
        #: Commit sweeps performed (observability for tests and benchmarks).
        self.commits = 0
        self._probes = runtime.probes("wal", target="wal")
        self.wal_path = os.fspath(wal_path) if wal_path is not None else None
        self._wal: IO[bytes] | None = None
        if self.wal_path is not None:
            directory = os.path.dirname(self.wal_path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._wal = open(self.wal_path, "wb")

    def _register(self, journal: Journal) -> None:
        self._journals.append(journal)
        if self._wal is not None:
            journal._wal_durable = True

    def __len__(self) -> int:
        return len(self._journals)

    def commit(self) -> None:
        """Flush every journal's pending buffer (dirty journals only).

        In WAL mode the dirty blocks hit the shared log first — one write,
        one fsync — and only then their journal files; a crash between the
        two leaves stale files that :func:`read_wal` rebuilds.
        """
        probes = self._probes
        if probes is None:
            # The writer outlives registry installs that happen after its
            # construction (the multiplexer builds it in __init__); commits
            # are cold, so the late re-resolve costs nothing measurable.
            probes = self._probes = runtime.probes("wal", target="wal")
        if self._wal is None:
            for journal in self._journals:
                journal.commit()
            self.commits += 1
            if probes is not None:
                probes.commits.inc()
            return
        dirty: list[tuple[Journal, bytes]] = []
        frames: list[bytes] = []
        for journal in self._journals:
            data = journal._take_pending()
            if data:
                name = journal.path.encode("utf-8")
                frames.append(b"%s%d %d\n%s%s" % (_WAL_MAGIC, len(name), len(data), name, data))
                dirty.append((journal, data))
        if dirty:
            blob = b"".join(frames)
            self._wal.write(blob)
            self._wal.flush()
            started = 0.0 if probes is None else perf_counter()
            # The WAL is a real file this writer opened: a failed fsync (EIO,
            # ENOSPC) means the window is not durable, so it propagates — the
            # journal files are not touched and no fsync is counted.
            os.fsync(self._wal.fileno())
            if probes is not None:
                probes.fsyncs.inc()
                probes.fsync_seconds.observe(perf_counter() - started)
                probes.commit_bytes.observe(float(len(blob)))
                probes.commit_journals.observe(float(len(dirty)))
            for journal, data in dirty:
                with open(journal.path, "ab") as fh:
                    fh.write(data)
        self.commits += 1
        if probes is not None:
            probes.commits.inc()

    def finalize_all(self) -> None:
        """Commit and fsync every registered journal (end-of-run durability).

        In WAL mode the final commit's single fsync already covers every
        journal, so the per-file finalize sweep is write-only.
        """
        self.commit()
        for journal in self._journals:
            journal.finalize()
        if self._wal is not None:
            self._wal.close()
            self._wal = None
