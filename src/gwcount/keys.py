"""Shared exact-arithmetic core for the curve-counting engines.

Provides the canonical multiset of insertion codimensions (``CodimVector``),
the two invariant key types, dimension bookkeeping, safe binomials, and the
weighted splittings of an insertion multiset that drive every degeneration
sum.  Everything here is pure and exact: values are Python ints, keys are
immutable and hashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator

__all__ = [
    "CodimVector",
    "ComplexKey",
    "RealKey",
    "binomial",
    "complex_dimension_gap",
    "degeneration_terms",
    "enumerate_splits",
    "real_dimension_gap",
    "solve_left_factor",
]

INVOLUTIONS = ("tau", "eta")


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 whenever k < 0 or k > n.

    Degeneration sums index binomials slightly out of range at their
    boundary terms, so out-of-range indices must vanish instead of raising.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class CodimVector:
    """Multiset of insertion codimensions in canonical form.

    Stored as a sorted tuple of (codim, multiplicity) pairs with positive
    multiplicities, so any two insertion lists that agree up to permutation
    compare and hash equal.  Instances are immutable; ``add`` and ``remove``
    return new vectors.
    """

    pairs: tuple[tuple[int, int], ...] = ()

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
    def k(self) -> int:
        """Total number of insertions."""
        return sum(m for _, m in self.pairs)

    @property
    def total_codim(self) -> int:
        return sum(c * m for c, m in self.pairs)

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
        out: list[int] = []
        for c, m in self.pairs:
            out.extend([c] * m)
        return tuple(out)

    def add(self, c: int, times: int = 1) -> "CodimVector":
        if times <= 0:
            raise ValueError("times must be positive")
        out: list[tuple[int, int]] = []
        placed = False
        for cc, m in self.pairs:
            if cc == c:
                out.append((cc, m + times))
                placed = True
            elif cc > c and not placed:
                out.append((c, times))
                out.append((cc, m))
                placed = True
            else:
                out.append((cc, m))
        if not placed:
            out.append((c, times))
        return CodimVector(tuple(out))

    def remove(self, c: int, times: int = 1) -> "CodimVector":
        if times <= 0:
            raise ValueError("times must be positive")
        out: list[tuple[int, int]] = []
        found = False
        for cc, m in self.pairs:
            if cc == c:
                found = True
                if m < times:
                    raise ValueError(f"cannot remove {times} copies of {c}, only {m} present")
                if m > times:
                    out.append((cc, m - times))
            else:
                out.append((cc, m))
        if not found:
            raise ValueError(f"codimension {c} not present")
        return CodimVector(tuple(out))

    def __contains__(self, c: int) -> bool:
        return self.multiplicity(c) > 0

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.expand())


@dataclass(frozen=True)
class ComplexKey:
    """A genus-0 invariant of P^N: degree d, insertions H^{c_1}..H^{c_k}.

    Entries may exceed N (such keys are legal and evaluate to 0), and entries
    equal to 0 (fundamental class) or 1 (divisor) are legal as well.
    """

    N: int
    d: int
    insertions: CodimVector

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"complex target needs N >= 1, got N={self.N}")
        if self.d < 0:
            raise ValueError(f"degree must be >= 0, got d={self.d}")
        if not isinstance(self.insertions, CodimVector):
            raise ValueError("insertions must be a CodimVector")


@dataclass(frozen=True)
class RealKey:
    """A real genus-0 invariant of P^{2n-1}: odd-dimensional target only.

    The involution tag ``phi`` ("tau" or "eta") is carried as metadata: the
    normalized value is a pure function of (n, d, insertions) and does not
    depend on it.  All insertion codimensions must be >= 1.
    """

    n: int
    d: int
    insertions: CodimVector
    phi: str = "tau"

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"real target needs n >= 2, got n={self.n}")
        if self.d < 1:
            raise ValueError(f"degree must be >= 1, got d={self.d}")
        if self.phi not in INVOLUTIONS:
            raise ValueError(f"phi must be one of {INVOLUTIONS}, got {self.phi!r}")
        if not isinstance(self.insertions, CodimVector):
            raise ValueError("insertions must be a CodimVector")
        if self.insertions and self.insertions.min_codim < 1:
            raise ValueError("real insertions must have codimension >= 1")


def complex_dimension_gap(key: ComplexKey) -> int:
    """(N+1)d + N - 3 + k - sum(c_i): zero exactly on dimension-balanced keys."""
    ins = key.insertions
    return (key.N + 1) * key.d + key.N - 3 + ins.k - ins.total_codim


def solve_left_factor(N: int, k: int, total_codim: int) -> tuple[int, int]:
    """The one (d1, x), 0 <= x <= N, at which <L, H^x>_{d1} on P^N is balanced.

    L has k insertions of total codimension ``total_codim``; d1 may be < 1.
    """
    q, x = divmod(N - 2 + k - total_codim, N + 1)
    return -q, x


def degeneration_terms(
    N: int,
    splits: Iterable[tuple[CodimVector, CodimVector, int]],
    terms: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...],
    admissible: Callable[[int, int], bool],
) -> Iterator[tuple[int, int, int, CodimVector, CodimVector]]:
    """The terms of a degeneration sum on P^N whose left factor can be nonzero.

    The sum runs over splits (I, J, w), ``terms`` (sign, left_extra,
    right_extra), degrees d1 and diagonal classes H^x x H^(N-x).  The left
    factor <I + left_extra, H^x>_{d1} is balanced only at the solved (d1, x),
    so each split and term yields at most once, when ``admissible(d1, x)``:
    (sign, w, d1, I + left_extra + H^x, J + right_extra + H^(N-x)).
    """
    for I, J, w in splits:
        k, total = I.k, I.total_codim
        for sign, left_extra, right_extra in terms:
            d1, x = solve_left_factor(N, k + len(left_extra), total + sum(left_extra))
            if admissible(d1, x):
                left, right = I.add(x), J.add(N - x)
                for c in left_extra:
                    left = left.add(c)
                for c in right_extra:
                    right = right.add(c)
                yield sign, w, d1, left, right


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
    classes = cv.pairs
    tables = []
    for c, m in classes:
        tables.append(
            [(i, binomial(m, i) * per_element_weight**i) for i in range(m + 1)]
        )
    for combo in product(*tables):
        weight = 1
        ipairs: list[tuple[int, int]] = []
        jpairs: list[tuple[int, int]] = []
        for (c, m), (i, wi) in zip(classes, combo):
            weight *= wi
            if i:
                ipairs.append((c, i))
            if i < m:
                jpairs.append((c, m - i))
        yield CodimVector(tuple(ipairs)), CodimVector(tuple(jpairs)), weight
