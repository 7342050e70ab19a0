"""Persistent store of evaluated invariants, kept in a versioned text format.

Each record is one line::

    gw1|C|N=<int>|d=<int>|c=<c1,c2,...>|v=<decimal>
    gw1|R|n=<int>|d=<int>|c=<c1,c2,...>|v=<decimal>

preceded by the header line ``#gw-cache v1``.  In memory there is one dict
per kind, keyed exactly like the engine memos by (dimension, degree, packed
code of the codimensions), so warming is a ``dict.update`` and ``absorb``
counts the records the engines added; both take the complex and the real
context.  Files are sorted by (kind, dimension, degree, codimensions), decoded
from the codes, so a load/save round trip is byte-identical, and a save
replaces the file atomically.  The store only ever replays values into engine
memos; it never changes what an engine would compute.

``stored_value`` answers one query from the file text alone.  Like warming, it
trusts the stored value; it checks that the whole text is canonical, and that
the key's line occurs once and belongs to a key the engine memoizes
(``is_memo_key``, which asks the engine's own rule function).  Anything else is
a miss, answered from one read, one parse and at most one render.  The
canonical check is one flat match, which reads a codimension list as one run of
digits and commas, and one search for the empty entries and leading zeros that
the run lets through.  ``parse`` makes it too, or else matches the record
grammar ``_RECORDS``, which also accepts leading zeros in every number and a
``-`` on the dimension, degree and value, and stops before the first malformed
line.  Any other spelling (a ``+``, a space, an underscore, another line break)
is malformed, as are codimensions no vector holds.  The full parse checks sort
order and conflicts, in file order, and accepts unmemoized keys; ``gw cache
verify`` rejects them.  A store parsed from canonical text keeps each record's
line for a render to reuse while the record holds the value it was read with.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable

from .complex_engine import ComplexEvalContext, MemoKey, complex_rules
from .keys import (B, MASK, MAX_CODIM, MAX_HELD_INSERTIONS, CodimVector, ComplexKey, RealKey,
                   expand_code)
from .real_engine import RealEvalContext, real_rules

__all__ = [
    "CacheError",
    "CacheFormatError",
    "CacheIntegrityError",
    "CacheStore",
    "HEADER",
    "is_memo_key",
    "read_text",
    "stored_value",
]

HEADER = "#gw-cache v1"
DIMTAGS = {"C": "N", "R": "n"}
# Kind -> key type (its first field is the dimension) and engine rule function.
_ENGINES = {"C": (ComplexKey, complex_rules), "R": (RealKey, real_rules)}
_INT = "(?:[1-9][0-9]*|0)"  # no leading zeros; the common case is tried first
# With ``_canonical``'s search, a file of canonically spelled records; sort order aside.
_CANONICAL_FILE = re.compile(
    rf"{re.escape(HEADER)}\n(?:gw1\|(?:C\|N|R\|n)={_INT}\|d={_INT}"
    r"\|c=(?!0[0-9]|,)[0-9,]*(?<!,)\|v=(?:-?[1-9][0-9]*|0)\n)*")
# The header and the longest run of records after it that the full parse
# reads, each a whole line; ``match`` ends before the first malformed line.
# The signs let ``gw cache verify`` see and name records outside the key domain.
_RECORDS = re.compile(
    rf"{re.escape(HEADER)}(?:\ngw1\|(?:C\|N|R\|n)=-?[0-9]+\|d=-?[0-9]+"
    r"\|c=(?:[0-9]+(?:,[0-9]+)*)?\|v=-?[0-9]+(?=\n|\Z))*")


class CacheError(Exception):
    pass


class CacheFormatError(CacheError):
    """Malformed file: bad header, version, or record line."""


class CacheIntegrityError(CacheError):
    """Two values for one key: in a loaded file, or between a store and an engine memo."""


def record_line(kind: str, dim: int, d: int, entries: tuple[int, ...], value: int | str) -> str:
    """One record in file form."""
    return f"gw1|{kind}|{DIMTAGS[kind]}={dim}|d={d}|c={','.join(map(str, entries))}|v={value}"


def is_memo_key(kind: str, dim: int, d: int, cv: CodimVector) -> bool:
    """True exactly when the engine of ``kind`` memoizes the key itself.

    That is when it has no divisor entry and the engine's rules send it to a
    step.  Any other key is answered by a structural rule or stored under a
    smaller core, so a stored value for it is never read.  Records outside
    the key domain (n = 1, say, or d < 0) are no key at all.
    """
    key_type, rules = _ENGINES[kind]
    try:
        key_type(dim, d, cv)
    except ValueError:
        return False
    return not cv.multiplicity(1) and rules(dim, d, cv) is None


def read_text(path: str | os.PathLike[str]) -> str:
    """The exact text of a cache file; non-ASCII bytes raise ``CacheFormatError``."""
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CacheFormatError(f"non-ASCII byte at offset {exc.start}") from None


def _canonical(text: str) -> bool:
    """True for canonical text; commas occur only in its codimension lists."""
    return _CANONICAL_FILE.fullmatch(text) is not None and not re.search(r",(?:,|0[0-9])", text)


def stored_value(text: str, key: ComplexKey | RealKey) -> int | None:
    """The value of the key's one canonical line in ``text``, or None.

    None means only a full parse can answer: the key is not memoized, the
    text is not a file of canonical records, or the key's line is absent or
    repeated.
    """
    kind = "R" if isinstance(key, RealKey) else "C"  # phi is metadata: one record for both
    dim, d, cv = key[0], key.d, key.insertions
    if not is_memo_key(kind, dim, d, cv):
        return None
    prefix = "\n" + record_line(kind, dim, d, cv.expand(), "")
    at = text.find(prefix)
    if at < 0 or text.find(prefix, at + 1) >= 0 or not _canonical(text):
        return None
    at += len(prefix)
    return int(text[at:text.index("\n", at)])


class CacheStore:
    """In-memory record set with deterministic text serialization."""

    def __init__(self) -> None:
        self.records: dict[str, dict[MemoKey, int]] = {"C": {}, "R": {}}
        # Memo key -> file-order row of each record read from canonical text.
        self._rows: dict[str, dict[MemoKey, tuple]] = {"C": {}, "R": {}}

    def __len__(self) -> int:
        return len(self.records["C"]) + len(self.records["R"])

    def _merge(self, kind: str, items: Iterable[tuple[MemoKey, int]]) -> int:
        """Add ``items`` to the records of ``kind``; returns how many were new."""
        records = self.records[kind]
        before = len(records)
        for memo_key, value in items:
            existing = records.setdefault(memo_key, value)
            if existing != value:
                dim, d, code = memo_key
                raise CacheIntegrityError(
                    f"conflicting values for {kind} dim={dim} d={d} "
                    f"c={','.join(map(str, expand_code(code)))}: had {existing}, got {value}"
                )
        return len(records) - before

    def stats(self) -> dict[str, int]:
        return {
            "records": len(self),
            "complex": len(self.records["C"]),
            "real": len(self.records["R"]),
        }

    # -- engine memo interchange ------------------------------------------

    def warm(self, cctx: ComplexEvalContext, rctx: RealEvalContext) -> None:
        """Replay stored records into engine memos (idempotent)."""
        cctx.memo.update(self.records["C"])
        rctx.memo.update(self.records["R"])

    def absorb(self, cctx: ComplexEvalContext, rctx: RealEvalContext) -> int:
        """Merge engine memos into the store; returns the number of new records."""
        return self._merge("C", cctx.memo.items()) + self._merge("R", rctx.memo.items())

    # -- serialization -----------------------------------------------------

    def _file_order(self) -> list[tuple[str, int, int, tuple[int, ...], str, int]]:
        """Rows (kind, dim, d, key, line, value) in file order; the key holds the class
        bit ``1 << B*c`` of each entry c.  A record still holding the value it was read
        with reuses its canonical line."""
        rows = []
        for kind, records in self.records.items():
            kept = self._rows[kind]
            for memo_key, value in records.items():
                row = kept.get(memo_key)
                if row is None or row[5] != value:
                    dim, d, code = memo_key
                    key, body = (), ""
                    while code:
                        c = ((code & -code).bit_length() - 1) // B
                        m = code >> B * c & MASK
                        code ^= m << B * c
                        key += (1 << B * c,) * m
                        body += f"{c}," * m
                    line = f"gw1|{kind}|{DIMTAGS[kind]}={dim}|d={d}|c={body[:-1]}|v={value}"
                    row = kind, dim, d, key, line, value
                rows.append(row)
        return sorted(rows)  # (kind, dim, d, key) is unique, so no line is compared

    def sorted_records(self) -> list[tuple[str, int, int, tuple[int, ...], int]]:
        """(kind, dim, d, codims, value) of every record, in file order."""
        return [(kind, dim, d, tuple((bit.bit_length() - 1) // B for bit in key), value)
                for kind, dim, d, key, _, value in self._file_order()]

    def render(self) -> str:
        return "\n".join([HEADER, *[row[4] for row in self._file_order()], ""])

    def save(self, path: str | os.PathLike[str]) -> None:
        """Write the store to ``path`` through a temp file in the same directory."""
        text = self.render()
        path = os.path.realpath(path)  # replace a symlink's target, not the link
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # the write or the rename failed
                os.remove(tmp)

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "CacheStore":
        return cls.parse(read_text(path))

    @classmethod
    def parse(cls, text: str) -> "CacheStore":
        """The store written as ``text``; checks every line and every conflict."""
        lines = text.removesuffix("\n").split("\n") if text else []  # only "\n" ends a line
        if not lines or lines[0] != HEADER:
            raise CacheFormatError(
                f"unsupported cache header: {lines[0]!r}" if lines else "empty cache file"
            )
        store = cls()
        canonical = _canonical(text)
        # lines[:good] are the header and the records the grammar reads.
        good = len(lines) if canonical else text.count("\n", 0, _RECORDS.match(text).end()) + 1
        class_bit = _ClassBits().__getitem__
        for lineno, line in enumerate(lines[1:good], start=2):
            _, kind, dim, d, body, value = line.split("|")
            body = body[2:]
            try:
                entries = [*map(class_bit, body.split(","))] if body else []
                code = sum(entries)  # no digit carries, so a capped class shows
                if (entries != sorted(entries) or len(entries) > MAX_HELD_INSERTIONS
                        or code >> B * (MAX_CODIM + 1)):
                    raise ValueError(f"codimensions must be sorted, at most {MAX_HELD_INSERTIONS} "
                                     f"of them, each at most {MAX_CODIM}: {body!r}")
                dim, d, value = int(dim[2:]), int(d[2:]), int(value[2:])
            except ValueError as exc:  # also an int too long to convert
                raise CacheFormatError(f"line {lineno}: {exc}") from None
            memo_key = dim, d, code
            if store.records[kind].setdefault(memo_key, value) != value:
                store._merge(kind, ((memo_key, value),))  # raises, naming the conflict
            if canonical:
                store._rows[kind][memo_key] = kind, dim, d, tuple(entries), line, value
        if good < len(lines):
            raise CacheFormatError(f"line {good + 1}: malformed record {lines[good]!r}")
        return store


class _ClassBits(dict):
    """Codimension spelling -> class bit ``1 << B*c``, c capped at MAX_CODIM + 1."""

    def __missing__(self, spelling: str) -> int:
        return self.setdefault(spelling, 1 << B * min(int(spelling), MAX_CODIM + 1))
