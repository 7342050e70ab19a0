"""Shared exact-arithmetic core for the curve-counting engines.

Provides the canonical multiset of insertion codimensions (``CodimVector``,
one integer code beside its insertion count and total codimension, whose
classes every decoder here and in ``cache`` walks through ``_classes``), the two
invariant key types and the weighted splittings of an insertion multiset,
``enumerate_splits``, each a row (code, k, total_codim, a, b) of its left part
alone, grouped by the choices below the highest class, from cached per-class
rows.  The one split-sum loop, ``complex_engine.product_sum``, turns a left
part and its complement into factors by adding and subtracting integers.  All
is pure and exact: values are Python ints, keys are immutable and hashable.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import repeat
from operator import itemgetter

__all__ = [
    "CodimVector",
    "ComplexKey",
    "RealKey",
    "enumerate_splits",
    "expand_code",
]

B = 16  # bits per class of a packed code
MASK = (1 << B) - 1  # the multiplicity of class c is (code >> B*c) & MASK
MAX_INSERTIONS = MASK - 2  # 2^B - 3, so that no step carries a digit (CodimVector)
MAX_HELD_INSERTIONS = MASK  # the most insertions any vector, memo key or cache record holds
MAX_CODIM = 1024
MAX_CACHED_COPIES = 128  # the most copies of a class whose split rows stay cached (_class_rows)
INVOLUTIONS = ("tau", "eta")
_new = tuple.__new__  # _new(CodimVector, (code, k, total_codim)) skips the sums


def _classes(code: int) -> Iterator[tuple[int, int]]:
    """(c, m) for each class c present m times in a packed code, ascending, by jumps."""
    while code:
        c = ((code & -code).bit_length() - 1) // B
        m = code >> B * c & MASK
        code ^= m << B * c
        yield c, m


def expand_code(code: int) -> tuple[int, ...]:
    """The entries of a packed code in ascending order, with repetition."""
    out: tuple[int, ...] = ()
    for c, m in _classes(code):
        out += (c,) * m
    return out


class CodimVector(tuple):
    """Multiset of insertion codimensions in canonical form.

    Stored as (code, k, total_codim) with code = sum of m_c * 2^(B*c), one
    B-bit digit per codimension c, so permuted insertion lists compare and
    hash equal, and ``add``, ``add_all``, ``remove`` and the factors of
    ``complex_engine.product_sum`` are integer additions.  No digit may carry: vectors
    are built from at most MAX_INSERTIONS = 2^B - 3 entries, each <= MAX_CODIM;
    a step adds one and the divisor suite one more, up to MAX_HELD_INSERTIONS.
    """

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[int, int]] = ()) -> "CodimVector":
        return CodimVector.from_entries(c for c, m in pairs for _ in range(m))

    k = property(itemgetter(1), doc="Total number of insertions.")
    total_codim = property(itemgetter(2), doc="Sum of the codimensions.")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted (codim, multiplicity) pairs with positive multiplicities."""
        return tuple(_classes(self[0]))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CodimVector) and self[0] == other[0]

    __ne__ = object.__ne__  # tuple's own would compare k and total_codim too
    __contains__ = None  # tuple's own would find k or total_codim; use multiplicity

    def __hash__(self) -> int:
        return hash(self[0])

    def __getnewargs__(self) -> tuple:
        return (self.pairs,)

    def __repr__(self) -> str:
        return f"CodimVector(pairs={self.pairs!r})"

    @staticmethod
    def from_entries(entries: Iterable[int]) -> "CodimVector":
        code = k = total = 0
        for k, c in enumerate(entries, 1):
            if type(c) is not int or not 0 <= c <= MAX_CODIM:
                raise ValueError(f"codimension entries must be ints in 0..{MAX_CODIM}, got {c!r}")
            if k > MAX_INSERTIONS:
                raise ValueError(f"a vector holds at most {MAX_INSERTIONS} insertions")
            code += 1 << B * c
            total += c
        return _new(CodimVector, (code, k, total))

    @staticmethod
    def of(*entries: int) -> "CodimVector":
        return CodimVector.from_entries(entries)

    @property
    def min_codim(self) -> int:
        if not self[0]:
            raise ValueError("empty codimension vector has no minimum")
        return ((self[0] & -self[0]).bit_length() - 1) // B

    @property
    def max_codim(self) -> int:
        if not self[0]:
            raise ValueError("empty codimension vector has no maximum")
        return (self[0].bit_length() - 1) // B

    def multiplicity(self, c: int) -> int:
        return (self[0] >> B * c) & MASK if c >= 0 else 0

    def expand(self) -> tuple[int, ...]:
        """All entries in ascending order, with repetition."""
        return expand_code(self[0])

    def add(self, c: int, times: int = 1) -> "CodimVector":
        code, k, total = self
        if not 0 < times <= MAX_HELD_INSERTIONS - k:  # more could carry a digit over
            raise ValueError(f"times must be in 1..{MAX_HELD_INSERTIONS - k}, got {times}")
        return _new(CodimVector, (code + (times << B * c), k + times, total + c * times))

    def add_all(self, entries: tuple[int, ...]) -> "CodimVector":
        """This vector plus one copy of each of ``entries`` (repeats allowed);
        unchecked, as the engines keep every multiplicity at most MASK."""
        code, k, total = self
        for c in entries:
            code += 1 << B * c
        return _new(CodimVector, (code, k + len(entries), total + sum(entries)))

    def remove(self, c: int, times: int = 1) -> "CodimVector":
        code, k, total = self
        present = self.multiplicity(c)
        if not 0 < times <= present:
            raise ValueError(f"cannot remove {times} copies of {c}, only {present} present")
        return _new(CodimVector, (code - (times << B * c), k - times, total - c * times))

    def __bool__(self) -> bool:
        return bool(self[0])

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.expand())


def frozen_record(typename: str, field_names: str) -> type:
    """Base of an immutable record: a namedtuple equal only to instances of
    its own class with equal fields, never to a plain tuple.

    Subclasses declare ``__slots__ = ()`` to stay immutable.  ``_make`` and
    ``_replace`` go through the subclass's constructor and its validation.
    """
    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    return type(typename, (namedtuple(typename, field_names),),
                {"__slots__": (), "__eq__": __eq__, "__ne__": object.__ne__,
                 "__hash__": tuple.__hash__, "_make": classmethod(lambda cls, it: cls(*it))})


class ComplexKey(frozen_record("ComplexKey", "N d insertions")):
    """A genus-0 invariant of P^N: degree d, insertions H^{c_1}..H^{c_k}.

    Entries may exceed N (such keys are legal and evaluate to 0), and entries
    equal to 0 (fundamental class) or 1 (divisor) are legal; N < MAX_CODIM.
    """

    __slots__ = ()

    def __new__(cls, N: int, d: int, insertions: CodimVector) -> "ComplexKey":
        if type(N) is not int or type(d) is not int:  # a float or bool would poison the memo
            raise ValueError(f"N and d must be ints, got N={N!r}, d={d!r}")
        if N < 1:
            raise ValueError(f"complex target needs N >= 1, got N={N}")
        if N >= MAX_CODIM:
            raise ValueError(f"complex target needs N < {MAX_CODIM}, got N={N}")
        if d < 0:
            raise ValueError(f"degree must be >= 0, got d={d}")
        if not isinstance(insertions, CodimVector):
            raise ValueError("insertions must be a CodimVector")
        return super().__new__(cls, N, d, insertions)


class RealKey(frozen_record("RealKey", "n d insertions phi")):
    """A real genus-0 invariant of P^{2n-1}: odd-dimensional target only.

    The involution tag ``phi`` ("tau" or "eta") is carried as metadata: the
    normalized value is a pure function of (n, d, insertions) and does not
    depend on it.  All insertion codimensions must be >= 1; 2n-1 < MAX_CODIM.
    """

    __slots__ = ()

    def __new__(cls, n: int, d: int, insertions: CodimVector, phi: str = "tau") -> "RealKey":
        if type(n) is not int or type(d) is not int:
            raise ValueError(f"n and d must be ints, got n={n!r}, d={d!r}")
        if n < 2:
            raise ValueError(f"real target needs n >= 2, got n={n}")
        if 2 * n - 1 >= MAX_CODIM:
            raise ValueError(f"real target needs 2n-1 < {MAX_CODIM}, got n={n}")
        if d < 1:
            raise ValueError(f"degree must be >= 1, got d={d}")
        if phi not in INVOLUTIONS:
            raise ValueError(f"phi must be one of {INVOLUTIONS}, got {phi!r}")
        if not isinstance(insertions, CodimVector):
            raise ValueError("insertions must be a CodimVector")
        if insertions.multiplicity(0):
            raise ValueError("real insertions must have codimension >= 1")
        return super().__new__(cls, n, d, insertions, phi)


@lru_cache(maxsize=128)  # what a sweep of small keys reuses
def _class_rows(c: int, m: int, w: int, moved: bool) -> tuple[tuple[int, ...], ...]:
    """(i << B*c, i, c*i, a, b) for i = 0..m copies of class c in K: b = C(m, i) * w^i,
    and a = b, or b * i / (w * m) = C(m-1, i-1) * w^(i-1) for the moved class.
    ``enumerate_splits`` retains a table only if m <= MAX_CACHED_COPIES."""
    rows, b = [], 1
    for i in range(m + 1):
        rows.append((i << B * c, i, c * i, b * i // (w * m) if moved else b, b))
        b = b * (m - i) * w // (i + 1)
    return tuple(rows)


def enumerate_splits(cv: CodimVector, weight: int, d: int, moved: int) -> Iterator[tuple]:
    """The splits (K, cv - K) of a multiset as rows (K's code, k, total_codim,
    a, b), weighed for a split sum that moves one copy of class ``moved`` out
    of K; cv - K is never built: subtract K's fields from cv's.

    Choosing i of the m copies of class c gives C(m, i) ways and each entry in
    K carries w = ``weight``, so b = prod of C(m_c, i_c) * w^{i_c} (all b sum
    to (1 + w)^k), and a = d * u, u = b * i / (w * M) for i of the M copies of
    ``moved``: K less one ``moved`` weighed as a split of cv less one.  The
    rows come in groups (prefix, table): a row of the choices of every class
    but the highest, one pass multiplying cached per-class rows onto (0, 0, 0,
    d, 1), and the highest class's rows, one table for all.  A row is a prefix
    plus a table row, a and b multiplied; read flat, last class fastest.
    """
    cv.k, cv.total_codim  # unused, but bench/tracing.py counts these property calls
    if not cv.multiplicity(moved):
        raise ValueError(f"the moved class {moved} is not in the multiset")
    *head, table = [(_class_rows if m <= MAX_CACHED_COPIES else _class_rows.__wrapped__)(
        c, m, weight, c == moved) for c, m in cv.pairs]
    prefixes = [(0, 0, 0, d, 1)]
    for choices in head:
        prefixes = [(code + ccode, k + i, total + ci, a * ai, b * bi)
                    for code, k, total, a, b in prefixes for ccode, i, ci, ai, bi in choices]
    return zip(prefixes, repeat(table))
