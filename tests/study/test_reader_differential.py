"""The one-pass journal reader against the per-line reader it replaced.

``reference_reader.read_journal`` is the reader as it stood before PR 14,
kept verbatim as the oracle.  Every input below — a real journal, mutated —
must give the same ``(records, valid_bytes, terminated)`` or the same
exception (type and message), and reopening it in append mode must leave
the same bytes on disk.  The two places the contract changed on purpose
have their expectations spelled out in :func:`expected_read` and
:func:`expected_heal`, and their own tests at the bottom.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.study import JOURNAL_VERSION, Journal, JournalError, JournalWriter, read_journal
from repro.study.journal import _read_journal

from .reference_reader import read_journal as reference_read_journal

GOLDEN = (Path(__file__).parent / "golden" / "asha_manual.journal.jsonl").read_bytes()
LINES = GOLDEN.splitlines(keepends=True)
FRESH_HEADER = b'{"kind":"journal_header","spec":null,"version":%d}\n' % JOURNAL_VERSION


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    """One file reused by every example (hypothesis rejects per-test fixtures)."""
    return tmp_path_factory.mktemp("differential") / "mutated.journal.jsonl"


def outcome(reader, path):
    """A reader's result in comparable form: NaN-safe, int/float- and order-strict."""
    try:
        records, valid, terminated = reader(path)
    except Exception as exc:  # noqa: BLE001 — the exception *is* the result
        return "raised", type(exc), str(exc)
    return "read", [repr(record) for record in records], valid, terminated


def first_non_object(raw: bytes) -> tuple[int, bool] | None:
    """``(line number, is the unterminated tail)`` of the first line that
    parses as JSON but not as an object, if the reference reader gets that far."""
    pieces = raw.split(b"\n")
    for number, piece in enumerate(pieces, start=1):
        if number == len(pieces) and not piece:
            break
        try:
            value = json.loads(piece.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            break
        if not isinstance(value, dict):
            return number, number == len(pieces)
    return None


def expected_read(path: Path, raw: bytes):
    """The oracle's outcome, adjusted for the one deliberate change.

    A line that is valid JSON but not an object is no record: the oracle
    accepts it, the shipped reader treats it like any unparseable line —
    ``JournalError`` naming it mid-file, a torn tail at the very end.
    """
    found = first_non_object(raw)
    if found is None:
        return outcome(reference_read_journal, path)
    number, is_tail = found
    if is_tail:
        # Dropped, as if the file ended at the newline before it.
        path.write_bytes(raw[: raw.rfind(b"\n") + 1])
        result = outcome(reference_read_journal, path)
        path.write_bytes(raw)
        return result
    return (
        "raised",
        JournalError,
        f"{path}: unparseable record on line {number} "
        "(only the final line of a journal may be torn)",
    )


def expected_heal(raw: bytes, valid: int, terminated: bool) -> bytes:
    """What ``Journal(path, mode="a")`` leaves on disk, from the reader's verdict.

    Truncate to ``valid`` and restore the newline, as ever; with nothing
    valid the journal starts afresh with a header (the second deliberate
    change — it used to be left empty and headerless).
    """
    if not valid:
        return FRESH_HEADER
    return raw[:valid] + (b"" if terminated else b"\n")


def check(path: Path, raw: bytes) -> None:
    path.write_bytes(raw)
    expected = expected_read(path, raw)
    assert outcome(read_journal, path) == expected
    if expected[0] == "raised":
        with pytest.raises(expected[1]) as caught:
            Journal(path, mode="a")
        assert str(caught.value) == expected[2]
        assert path.read_bytes() == raw
        return
    # The replay cursor's raw lines: one per record, decoding to that record.
    lines: list[str] = []
    records, valid, terminated = _read_journal(path, lines)
    assert [repr(json.loads(line)) for line in lines] == [repr(record) for record in records]
    healed = expected_heal(raw, valid, terminated)
    Journal(path, mode="a").close()
    assert path.read_bytes() == healed
    path.write_bytes(raw)
    writer = JournalWriter()
    Journal(path, mode="a", writer=writer).close()
    assert path.read_bytes() == healed


# ------------------------------------------------------------ the mutations


def _with_line(index: int, line: bytes) -> bytes:
    return b"".join(LINES[:index]) + line + b"".join(LINES[index + 1 :])


def test_unmutated_journal(scratch):
    check(scratch, GOLDEN)
    check(scratch, b"")
    check(scratch, b"\n")
    check(scratch, LINES[0])
    check(scratch, LINES[0].rstrip(b"\n"))


def test_truncation_at_every_byte_of_the_last_three_records(scratch):
    for cut in range(len(GOLDEN) - sum(map(len, LINES[-3:])), len(GOLDEN) + 1):
        check(scratch, GOLDEN[:cut])


def test_truncation_at_every_byte_of_the_header(scratch):
    for cut in range(len(LINES[0]) + 2):
        check(scratch, GOLDEN[:cut])


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda raw: raw.replace(b"\n", b"\r\n"),
        lambda raw: raw.replace(b"\n", b"\r\n", 3),
        lambda raw: raw.replace(b"\n", b" \n"),
        lambda raw: raw.replace(b"\n", b"\n "),
        lambda raw: raw.replace(b"\n", b"\t\n", 1),
        lambda raw: b" " + raw,
        lambda raw: raw + b" ",
        lambda raw: raw + b"\n",
        lambda raw: b"\n" + raw,
        lambda raw: raw.replace(b",", b", ").replace(b":", b": "),
        lambda raw: raw.replace(b",", b" ,\t").replace(b"{", b"{ ").replace(b"}", b" }"),
        lambda raw: raw.replace(b":", b":\r"),
        lambda raw: b"\xef\xbb\xbf" + raw,  # UTF-8 byte-order mark
    ],
    ids=[
        "crlf", "crlf-first-three", "trailing-space", "leading-space", "trailing-tab-once",
        "file-leading-space", "file-trailing-space", "blank-last-line", "blank-first-line",
        "inter-token-spaces", "inter-token-mixed", "carriage-return-inside-values", "bom",
    ],
)  # fmt: skip
def test_whitespace_and_line_ending_variants(scratch, rewrite):
    check(scratch, rewrite(GOLDEN))
    check(scratch, rewrite(GOLDEN)[:-40])  # and with a torn tail on top


@pytest.mark.parametrize(
    "old, new",
    [
        (b'"kind":"ask"', '"kind":"äsk"'.encode()),
        (b'"kind":"ask"', b'"kind":"a\xff\xfesk"'),
        (b'"kind":"ask"', b'"kind":"a\\u00e4sk"'),
        (b'"kind":"ask"', b'"kind":"a\nsk"'),
        (b'"kind":"ask"', b'"kind":"a\x00sk"'),
        (b'"loss":0.9376431999070005', b'"loss":NaN'),
        (b'"loss":0.9376431999070005', b'"loss":Infinity'),
        (b'"loss":0.9376431999070005', b'"loss":-Infinity'),
        (b'"loss":0.9376431999070005', b'"loss":1e999'),
        (b'"loss":0.9376431999070005', b'"loss":' + b"9" * 400),
        (b'"kind":"ask"', b'"kind":"ask","kind":"tell"'),
        (b'"kind":"ask"', b'"kind":"ask","pad":"' + b"x" * 10_000 + b'"'),
        (b'"inherit_from":null', b'"inherit_from":[' * 50 + b"]" * 50),
    ],
    ids=[
        "non-ascii", "invalid-utf8", "escaped-non-ascii", "raw-newline-in-string",
        "raw-nul-in-string", "nan", "infinity", "neg-infinity", "overflowing-float", "huge-int",
        "duplicate-key", "10kB-line", "deep-nesting",
    ],
)  # fmt: skip
@pytest.mark.parametrize("count", [1, -1], ids=["first-hit", "every-hit"])
def test_value_variants(scratch, old, new, count):
    assert old in GOLDEN
    mutated = GOLDEN.replace(old, new, count)
    check(scratch, mutated)
    check(scratch, mutated.rstrip(b"\n"))


def test_two_values_on_one_line_and_one_value_on_two(scratch):
    """Newline count and value count both unchanged — only their pairing is off.

    A decoder that joins lines into one array, or that checks the counts
    instead of where each value ends, accepts these; the per-line reader
    does not.
    """
    joined = LINES[3].rstrip(b"\n") + b"," + LINES[4]  # {..},{..}
    split = LINES[5].replace(b'"job_id":', b'"job_id":\n', 1)  # {.."job_id":\n2..}
    for first, second in [(joined, split), (split, joined)]:
        mutated = b"".join(LINES[:3]) + first + second + b"".join(LINES[6:])
        assert mutated.count(b"\n") == GOLDEN.count(b"\n")
        check(scratch, mutated)
    check(scratch, b"".join(LINES[:3]) + LINES[3].rstrip(b"\n") + LINES[4])  # {..}{..}
    check(scratch, b"".join(LINES[:5]) + split + b"".join(LINES[6:]))
    check(scratch, b"".join(LINES[:5]) + split.rstrip(b"\n"))


_positions = st.integers(min_value=0, max_value=len(GOLDEN))
_mutations = st.one_of(
    st.tuples(st.just("flip"), _positions, st.integers(0, 255)),
    st.tuples(st.just("insert"), _positions, st.sampled_from(b"\n\r \t,{}[]\"\\\xff0")),
    st.tuples(st.just("delete"), _positions, st.integers(1, 3)),
    st.tuples(st.just("drop-newline"), st.integers(0, len(LINES) - 1), st.just(0)),
    st.tuples(st.just("truncate"), _positions, st.just(0)),
    st.tuples(st.just("non-object"), st.integers(0, len(LINES) - 1), st.integers(0, 5)),
)
_NON_OBJECTS = [b"[1]", b'"x"', b"3", b"null", b"true", b"-0.5e3"]


def mutate(raw: bytes, mutation: tuple[str, int, int]) -> bytes:
    kind, where, what = mutation
    where = min(where, len(raw))
    if kind == "flip":
        return raw[:where] + bytes([what]) + raw[where + 1 :]
    if kind == "insert":
        return raw[:where] + bytes([what]) + raw[where:]
    if kind == "delete":
        return raw[:where] + raw[where + what :]
    if kind == "truncate":
        return raw[:where]
    lines = raw.splitlines(keepends=True)
    if where >= len(lines):
        return raw
    if kind == "drop-newline":
        lines[where] = lines[where].rstrip(b"\n")
    else:
        lines[where] = _NON_OBJECTS[what] + (b"\n" if lines[where].endswith(b"\n") else b"")
    return b"".join(lines)


@settings(max_examples=400, deadline=None, database=None)  # no .hypothesis/ writes in the repo
@given(st.lists(_mutations, min_size=1, max_size=4))
def test_random_mutations_read_and_heal_like_the_reference(scratch, mutations):
    raw = GOLDEN
    for mutation in mutations:
        raw = mutate(raw, mutation)
    check(scratch, raw)


# ------------------------------------- the deliberate changes, on their own


@pytest.mark.parametrize("value", _NON_OBJECTS)
def test_non_object_line_mid_file_raises_naming_the_line(scratch, value):
    scratch.write_bytes(_with_line(4, value + b"\n"))
    assert reference_read_journal(scratch)[0][4] == json.loads(value)  # what used to happen
    with pytest.raises(JournalError, match="line 5"):
        read_journal(scratch)
    # ... on the per-line fallback too (the CRLF keeps the fast pass out).
    scratch.write_bytes(_with_line(4, value + b"\n").replace(b"\n", b"\r\n"))
    with pytest.raises(JournalError, match="line 5"):
        read_journal(scratch)


@pytest.mark.parametrize("value", _NON_OBJECTS)
@pytest.mark.parametrize("crlf", [False, True], ids=["fast-pass", "fallback"])
def test_non_object_last_line_is_a_torn_tail(scratch, value, crlf):
    body = b"".join(LINES[:-1])
    if crlf:
        body = body.replace(b"\n", b"\r\n")
    scratch.write_bytes(body + value)
    records, valid, terminated = read_journal(scratch)
    assert len(records) == len(LINES) - 1 and valid == len(body) and terminated
    Journal(scratch, mode="a").close()
    assert scratch.read_bytes() == body
