"""The per-line journal reader as it stood before the one-pass scanner (PR 14).

Copied verbatim from ``repro.study.journal.read_journal`` at commit e915541
and never edited: ``test_reader_differential.py`` drives it and the shipped
reader over the same mutated journals and requires identical results.  The
two deliberate differences (a record must be a JSON object; a file with
nothing valid on it reopens as a fresh journal) are spelled out there, not
patched in here.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.study import JournalError


def read_journal(path: str | os.PathLike[str]) -> tuple[list[dict[str, Any]], int, bool]:
    """Parse a journal, tolerating a torn tail.

    Returns ``(records, valid_bytes, terminated)``: the parsed records, how
    many leading bytes of the file they occupy (where crash recovery should
    truncate to), and whether the last accepted record ended with a
    newline.  A *final* line that does not parse is dropped — it is the
    append a crash interrupted.  An unparseable line anywhere before the
    tail raises :class:`JournalError`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    records: list[dict[str, Any]] = []
    valid = 0
    terminated = True
    lines = raw.split(b"\n")
    last = len(lines) - 1
    offset = 0
    for i, line in enumerate(lines):
        if i == last:
            # Bytes after the final newline: empty when the file is cleanly
            # terminated, otherwise a tail whose trailing newline (or more)
            # never reached the disk.
            if not line:
                break
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                break  # torn tail — the interrupted final append
            records.append(record)
            valid = offset + len(line)
            terminated = False
            break
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise JournalError(
                f"{os.fspath(path)}: unparseable record on line {i + 1} "
                "(only the final line of a journal may be torn)"
            ) from exc
        records.append(record)
        offset += len(line) + 1
        valid = offset
    return records, valid, terminated
