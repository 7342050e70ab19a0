"""Shared exact-arithmetic core for the curve-counting engines.

Provides the canonical multiset of insertion codimensions (``CodimVector``,
which stores its insertion count and total codimension), the two invariant
key types, dimension bookkeeping, safe binomials, the weighted splittings of
an insertion multiset and the one solved degeneration sum over them,
``degeneration_terms(N, d, splits, weight, terms)``, whose factors are each
built by one multi-entry insertion (``CodimVector.add_all``).
Everything here is pure and exact: values are Python ints, keys are
immutable and hashable.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import product
from operator import itemgetter

__all__ = [
    "CodimVector",
    "ComplexKey",
    "RealKey",
    "binomial",
    "complex_dimension_gap",
    "degeneration_terms",
    "enumerate_splits",
    "expand_pairs",
    "real_dimension_gap",
]

INVOLUTIONS = ("tau", "eta")
_new = tuple.__new__  # _new(CodimVector, (pairs, k, total_codim)) skips the sums


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 whenever k < 0 or k > n.

    Degeneration sums index binomials slightly out of range at their
    boundary terms, so out-of-range indices must vanish instead of raising.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def expand_pairs(pairs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """The entries of sorted (codim, multiplicity) pairs, each repeated."""
    out: list[int] = []
    for c, m in pairs:
        out.extend([c] * m)
    return tuple(out)


class CodimVector(tuple):
    """Multiset of insertion codimensions in canonical form.

    Stored as a sorted tuple of (codim, multiplicity) pairs with positive
    multiplicities, so any two insertion lists that agree up to permutation
    compare and hash equal.  The insertion count ``k`` and ``total_codim``
    are stored beside the pairs.  Instances are immutable; ``add``,
    ``add_all`` and ``remove`` return new vectors and derive both from the
    parent's without re-summing.
    """

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...] = ()) -> "CodimVector":
        return _new(cls, (pairs, sum(m for _, m in pairs), sum(c * m for c, m in pairs)))

    pairs = property(itemgetter(0))
    k = property(itemgetter(1), doc="Total number of insertions.")
    total_codim = property(itemgetter(2), doc="Sum of the codimensions.")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CodimVector) and self[0] == other[0]

    __ne__ = object.__ne__  # tuple's own would compare k and total_codim too

    def __hash__(self) -> int:
        return hash(self[0])

    def __getnewargs__(self) -> tuple:
        return (self[0],)

    def __repr__(self) -> str:
        return f"CodimVector(pairs={self[0]!r})"

    @staticmethod
    def from_entries(entries: Iterable[int]) -> "CodimVector":
        counts: dict[int, int] = {}
        for c in entries:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"codimension entries must be ints, got {c!r}")
            if c < 0:
                raise ValueError(f"codimension entries must be >= 0, got {c}")
            counts[c] = counts.get(c, 0) + 1
        return CodimVector(tuple(sorted(counts.items())))

    @staticmethod
    def of(*entries: int) -> "CodimVector":
        return CodimVector.from_entries(entries)

    @property
    def min_codim(self) -> int:
        if not self.pairs:
            raise ValueError("empty codimension vector has no minimum")
        return self.pairs[0][0]

    @property
    def max_codim(self) -> int:
        if not self.pairs:
            raise ValueError("empty codimension vector has no maximum")
        return self.pairs[-1][0]

    def multiplicity(self, c: int) -> int:
        for cc, m in self.pairs:
            if cc == c:
                return m
        return 0

    def expand(self) -> tuple[int, ...]:
        """All entries in ascending order, with repetition."""
        return expand_pairs(self[0])

    def add(self, c: int, times: int = 1) -> "CodimVector":
        if times <= 0:
            raise ValueError("times must be positive")
        return self.add_all((c,) * times)

    def add_all(self, entries: tuple[int, ...]) -> "CodimVector":
        """This vector plus one copy of each of ``entries`` (repeats allowed)."""
        pairs, k, total = self
        out = list(pairs)
        for c in entries:
            i = bisect_left(out, (c,))
            if i < len(out) and out[i][0] == c:
                out[i] = (c, out[i][1] + 1)
            else:
                out.insert(i, (c, 1))
        return _new(CodimVector, (tuple(out), k + len(entries), total + sum(entries)))

    def remove(self, c: int, times: int = 1) -> "CodimVector":
        if times <= 0:
            raise ValueError("times must be positive")
        pairs, k, total = self
        out = list(pairs)
        i = bisect_left(out, (c,))
        if i == len(out) or out[i][0] != c:
            raise ValueError(f"codimension {c} not present")
        kept = out.pop(i)[1] - times
        if kept < 0:
            raise ValueError(f"cannot remove {times} copies of {c}, only {kept + times} present")
        if kept:
            out.insert(i, (c, kept))
        return _new(CodimVector, (tuple(out), k - times, total - c * times))

    def __contains__(self, c: int) -> bool:
        return self.multiplicity(c) > 0

    def __bool__(self) -> bool:
        return bool(self.pairs)

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
    equal to 0 (fundamental class) or 1 (divisor) are legal as well.
    """

    __slots__ = ()

    def __new__(cls, N: int, d: int, insertions: CodimVector) -> "ComplexKey":
        if N < 1:
            raise ValueError(f"complex target needs N >= 1, got N={N}")
        if d < 0:
            raise ValueError(f"degree must be >= 0, got d={d}")
        if not isinstance(insertions, CodimVector):
            raise ValueError("insertions must be a CodimVector")
        return super().__new__(cls, N, d, insertions)


class RealKey(frozen_record("RealKey", "n d insertions phi")):
    """A real genus-0 invariant of P^{2n-1}: odd-dimensional target only.

    The involution tag ``phi`` ("tau" or "eta") is carried as metadata: the
    normalized value is a pure function of (n, d, insertions) and does not
    depend on it.  All insertion codimensions must be >= 1.
    """

    __slots__ = ()

    def __new__(cls, n: int, d: int, insertions: CodimVector, phi: str = "tau") -> "RealKey":
        if n < 2:
            raise ValueError(f"real target needs n >= 2, got n={n}")
        if d < 1:
            raise ValueError(f"degree must be >= 1, got d={d}")
        if phi not in INVOLUTIONS:
            raise ValueError(f"phi must be one of {INVOLUTIONS}, got {phi!r}")
        if not isinstance(insertions, CodimVector):
            raise ValueError("insertions must be a CodimVector")
        if insertions and insertions.min_codim < 1:
            raise ValueError("real insertions must have codimension >= 1")
        return super().__new__(cls, n, d, insertions, phi)


def complex_dimension_gap(key: ComplexKey) -> int:
    """(N+1)d + N - 3 + k - sum(c_i): zero exactly on dimension-balanced keys."""
    ins = key.insertions
    return (key.N + 1) * key.d + key.N - 3 + ins.k - ins.total_codim


def degeneration_terms(
    N: int,
    d: int,
    splits: Iterable[tuple[CodimVector, CodimVector, int]],
    weight: int,
    terms: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...],
) -> Iterator[tuple[int, int, int, CodimVector, CodimVector]]:
    """The terms of a degeneration sum on P^N whose left factor can be nonzero.

    The sum runs over splits (I, J, w), ``terms`` (sign, left_extra,
    right_extra), degrees weight*d1 + d2 = d with d1, d2 >= 1 and diagonal
    classes H^x x H^(N-x) with 0 < x < N a multiple of ``weight`` (1 for a
    complex sum, 2 for a real one).  With L = I + left_extra, the left factor
    <L, H^x>_{d1} is balanced only at (-d1, x) = divmod(N - 2 + k(L) - sum(L),
    N + 1), so each split and term yields at most once:
    (sign * w, d1, d2, I + left_extra + H^x, J + right_extra + H^(N-x)).
    """
    solved = [(sign, N - 2 + len(left) - sum(left), left, right) for sign, left, right in terms]
    for I, J, w in splits:
        gap = I[1] - I[2]
        for sign, shift, left_extra, right_extra in solved:
            q, x = divmod(shift + gap, N + 1)
            if 0 < -weight * q < d and 0 < x < N and x % weight == 0:
                yield (sign * w, -q, d + weight * q,
                       I.add_all(left_extra + (x,)), J.add_all(right_extra + (N - x,)))


def real_dimension_gap(key: RealKey) -> int:
    """n(d+1) - 2 + k - sum(c_i): zero exactly on dimension-balanced real keys."""
    ins = key.insertions
    return key.n * (key.d + 1) - 2 + ins.k - ins.total_codim


def enumerate_splits(
    cv: CodimVector, per_element_weight: int = 1
) -> Iterator[tuple[CodimVector, CodimVector, int]]:
    """All splittings of a multiset into an ordered pair (I, J) of sub-multisets.

    Splittings of labeled insertions collapse class-by-class: choosing i of
    the m copies of codimension c contributes a factor C(m, i), and each
    element routed into I additionally carries ``per_element_weight``.  The
    yielded weight is the product over classes of C(m_c, i_c) * w^{i_c}, so
    the weights of all splits sum to (1 + w)^k.
    """
    k, total = cv.k, cv.total_codim
    # One choice per count i of a class (c, m): (I pair, J pair, i, c*i, weight).
    choices = [[((c, i) if i else None, (c, m - i) if i < m else None, i, c * i,
                 binomial(m, i) * per_element_weight**i) for i in range(m + 1)]
               for c, m in cv.pairs]
    for combo in product(*choices):
        weight, ik, itotal = 1, 0, 0
        ipairs: list[tuple[int, int]] = []
        jpairs: list[tuple[int, int]] = []
        for ipair, jpair, i, ci, wi in combo:
            weight *= wi
            if ipair:
                ipairs.append(ipair)
                ik += i
                itotal += ci
            if jpair:
                jpairs.append(jpair)
        yield (_new(CodimVector, (tuple(ipairs), ik, itotal)),
               _new(CodimVector, (tuple(jpairs), k - ik, total - itotal)), weight)
