"""Persistent store of evaluated invariants, kept in a versioned text format.

Each record is one line::

    gw1|C|N=<int>|d=<int>|c=<c1,c2,...>|v=<decimal>
    gw1|R|n=<int>|d=<int>|c=<c1,c2,...>|v=<decimal>

preceded by the header line ``#gw-cache v1``.  In memory records are keyed
exactly like the engine memos by (dimension, degree, packed code of the
codimensions); ``warm`` and ``absorb`` take the complex and the real context.
Files are sorted by (kind, dimension, degree, codimensions), so a load/save
round trip is byte-identical, and a save replaces the file atomically.  The
store only replays values into engine memos; it never changes what an engine
computes.  A store is trusted input: only ``gw cache verify`` checks a value.

``stored_value`` answers one query from the file text alone: the whole text
must be canonical, and the key's line must occur once and belong to a key the
engine memoizes (``is_memo_key``, which asks the engine's own rule function).
Anything else is a miss, answered from one read, one parse and at most one
render.  The canonical check is one flat match, which reads a codimension list
as one run of digits and commas, and one search for the empty entries and
leading zeros that the run lets through.

``parse`` checks every line.  A canonical text of short lines whose sorted
lists hold single digits, in strictly increasing file order, is kept as its
lines (``_index``): a warmed memo converts a value when its engine reads it,
and a render bisects them for each new line's place.  Any other text is decoded
record by record by the grammar ``_RECORDS``, which also accepts leading zeros
in every number and a ``-`` on the dimension, degree and value and stops before
the first malformed line; a canonical one is then kept as lines too.  Any other
spelling (a ``+``, a space, an underscore, another line break) is malformed, as
are codimensions no vector holds.  The full parse checks sort order and
conflicts in file order and accepts unmemoized keys; ``gw cache verify``
rejects them.
"""

from __future__ import annotations

import os
import re
import sys
from bisect import bisect
from collections.abc import Iterable
from operator import lt

from .complex_engine import ComplexEvalContext, MemoKey, complex_rules
from .keys import (B, MAX_CODIM, MAX_HELD_INSERTIONS, CodimVector, ComplexKey, RealKey, _classes,
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
# The empty entries and leading zeros that _CANONICAL_FILE's codimension run lets through.
_NOT_CANONICAL = re.compile(r",(?:,|0[0-9])")
# The patterns of ``_index``, which ``re`` compiles on first use, so that a hit skips them:
# a canonical record line of at most MAX_HELD_INSERTIONS single-digit codimensions, its
# groups its text before "|v=", kind, dimension, degree, codimensions and value, and one
# search per first entry a of a descending pair "a,b" of single digits.
_SMALL_RECORD = (rf"\n(gw1\|(C\|N|R\|n)=({_INT})\|d=({_INT})\|c=((?:[0-9](?:,[0-9])"
                 rf"{{0,{MAX_HELD_INSERTIONS - 1}}})?))\|v=(-?[1-9][0-9]*|0)(?=\n)")
_DESCENTS = [f"{a},[0-{a - 1}]" for a in range(1, 10)]
# Every digit as 0: a sorted list whose last entry has several digits ends in "00|v=".
_ZEROS = str.maketrans("123456789", "0" * 9)
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
    return _CANONICAL_FILE.fullmatch(text) is not None and not _NOT_CANONICAL.search(text)


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
    prefix = f"\n{_spelled(kind, (dim, d, cv[0]))[1]}|v="
    at = text.find(prefix)
    if at < 0 or text.find(prefix, at + 1) >= 0 or not _canonical(text):
        return None
    at += len(prefix)
    return int(text[at:text.index("\n", at)])


class CacheStore:
    """In-memory record set with deterministic text serialization."""

    def __init__(self) -> None:
        self._records: dict[str, dict[MemoKey, int]] = {"C": {}, "R": {}}
        # Kept lines of a canonical text, undecoded: line before "|v=" -> value text, in
        # file order; ``_records`` then holds only the records added since.
        self._kept: dict[str, str] = {}

    @property
    def records(self) -> dict[str, dict[MemoKey, int]]:
        """Every record by kind, keyed like the engine memos; decodes kept lines once."""
        if self._kept:
            lines, self._kept = [*map("|v=".join, self._kept.items())], {}
            self._decode(lines)
        return self._records

    def __len__(self) -> int:
        return len(self._kept) + len(self._records["C"]) + len(self._records["R"])

    def _merge(self, kind: str, items: Iterable[tuple[MemoKey, int]]) -> int:
        """Add ``items`` to the records of ``kind``; returns how many were new."""
        records = self._records[kind]
        before = len(records)
        for memo_key, value in items:
            if self._kept and (text := self._kept.get(_spelled(kind, memo_key)[1])) is not None:
                existing = int(text)
            else:
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
        """Replay stored records into engine memos (idempotent); kept lines are read
        through a ``_Lookup`` memo."""
        for kind, ctx in (("C", cctx), ("R", rctx)):
            if self._kept:
                ctx.memo = _Lookup(ctx.memo)
                ctx.memo.kind, ctx.memo.kept = kind, self._kept
            ctx.memo.update(self._records[kind])

    def absorb(self, cctx: ComplexEvalContext, rctx: RealEvalContext) -> int:
        """Merge the values the engines computed (``solved``) into the store; returns the
        number of new records."""
        return self._merge("C", cctx.solved.items()) + self._merge("R", rctx.solved.items())

    # -- serialization -----------------------------------------------------

    def sorted_records(self) -> list[tuple[str, int, int, tuple[int, ...], int]]:
        """(kind, dim, d, codims, value) of every record in file order, codims ascending."""
        return [(kind, dim, d, codims, value)
                for kind, dim, d, codims, _, value in _file_order(self.records)]

    def render(self) -> str:
        """The kept lines with the line of each record added since merged in, each placed by
        bisection, which decodes about log2(len(kept)) kept lines."""
        kept = [*map("|v=".join, self._kept.items())]
        rows, lines, at = _file_order(self._records), [HEADER], 0
        for row in rows:
            end = bisect(kept, row[:4], at, key=_line_order)
            lines += [*kept[at:end], f"{row[4]}|v={row[5]}"]
            at = end
        return "\n".join([*lines, *kept[at:], ""])

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
        store, short = cls(), _short(lines)
        store._kept = short and _index(text, len(lines) - 1) or {}
        if store._kept:
            return store
        canonical = _canonical(text)
        # lines[:good] are the header and the records the grammar reads.
        good = len(lines) if canonical else text.count("\n", 0, _RECORDS.match(text).end()) + 1
        rows = store._decode(lines[1:good])
        if good < len(lines):
            raise CacheFormatError(f"line {good + 1}: malformed record {lines[good]!r}")
        if canonical and short:  # its lines are those a render writes: keep them
            store._kept = dict(row[4].split("|v=") for row in sorted(rows))  # one per key
            store._records = {"C": {}, "R": {}}
        return store

    def _decode(self, lines: list[str]) -> list[tuple[str, int, int, tuple[int, ...], str]]:
        """Add the records of ``lines``, file lines 2, 3, ..., checking each one; returns the
        rows (kind, dim, d, class bits, line), which sort as their codimensions would."""
        class_bit, rows = _ClassBits().__getitem__, []
        for lineno, line in enumerate(lines, start=2):
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
            if self._records[kind].setdefault(memo_key, value) != value:
                self._merge(kind, ((memo_key, value),))  # raises, naming the conflict
            rows.append((kind, dim, d, tuple(entries), line))
        return rows


def _index(text: str, records: int) -> dict[str, str] | None:
    """Line before "|v=" -> value text of each of the ``records`` record lines of
    ``text``, if each is canonical with a sorted list of at most MAX_HELD_INSERTIONS
    single-digit codimensions, and file order strictly increases; else None."""
    if "00|v=" in text.translate(_ZEROS):  # the stores of P^N, N >= 10, fail fast
        return None
    rows = re.findall(_SMALL_RECORD, text)
    if not rows or len(rows) != records:
        return None
    heads, kinds, dims, degrees, bodies, values = zip(*rows)
    # File order: a number sorts by its length first, a list of single digits as a string.
    keys = [*zip(kinds, map(len, dims), dims, map(len, degrees), degrees, bodies)]
    bodies = "|".join(bodies)
    if not all(map(lt, keys, keys[1:])) or any(re.search(pair, bodies) for pair in _DESCENTS):
        return None
    return dict(zip(heads, values))


def _short(lines: list[str]) -> bool:
    """True when no line is longer than the default or the current int/str digit limit, so
    that a kept value converts when read, also after a caller restores the default."""
    longest = max(map(len, lines))
    limits = (getattr(sys.int_info, "default_max_str_digits", 0),  # 0: no limit, as
              getattr(sys, "get_int_max_str_digits", int)())  # before 3.10.7
    return all(not limit or longest <= limit for limit in limits)


def _file_order(records: dict[str, dict[MemoKey, int]]
                ) -> list[tuple[str, int, int, tuple[int, ...], str, int]]:
    """Rows (kind, dim, d, codims, prefix, value) of ``records`` in file order, which sorts
    by the codimension tuple within each (kind, dim, d); the prefix is the line before "|v="."""
    # (kind, dim, d, codims) is unique, so no prefix is compared.
    return sorted((kind, *key[:2], *_spelled(kind, key), value)
                  for kind, by_key in records.items() for key, value in by_key.items())


def _spelled(kind: str, memo_key: MemoKey) -> tuple[tuple[int, ...], str]:
    """The codimensions of a memo key's record, ascending, and its line before "|v="; both
    are built a class at a time (``keys._classes``), as joining entries takes far longer."""
    dim, d, code = memo_key
    codims, body = (), ""
    for c, m in _classes(code):
        codims += (c,) * m
        body += f"{c}," * m
    return codims, f"gw1|{kind}|{DIMTAGS[kind]}={dim}|d={d}|c={body[:-1]}"


def _line_order(line: str) -> tuple[str, int, int, tuple[int, ...]]:
    """What ``_file_order`` sorts a record line by: its codimensions as a tuple of ints."""
    _, kind, dim, d, body, _ = line.split("|")
    codims = body[2:].split(",") if body != "c=" else ()
    return kind, int(dim[2:]), int(d[2:]), (*map(int, codims),)


class _Lookup(dict):
    """An engine memo that reads a key it lacks from a store's kept lines, converting
    a value only when the engine asks for it."""

    __slots__ = ("kind", "kept")

    def get(self, memo_key: MemoKey, default: int | None = None) -> int | None:
        value = dict.get(self, memo_key)
        if value is None and (text := self.kept.get(_spelled(self.kind, memo_key)[1])) is not None:
            value = self[memo_key] = int(text)
        return default if value is None else value


class _ClassBits(dict):
    """Codimension spelling -> class bit ``1 << B*c``, c capped at MAX_CODIM + 1."""

    def __missing__(self, spelling: str) -> int:
        return self.setdefault(spelling, 1 << B * min(int(spelling), MAX_CODIM + 1))

