"""Closed-form recursions for P^3 and the structural checks built on them.

Two families of complex counts in P^3 drive everything: N_d, rational curves
of degree d through 2d generic points, and Ntilde_d, those through 2 generic
lines and 2d - 1 generic points.  They satisfy the coupled recursions (sums
over d1 + d2 = d with d1, d2 >= 1; C(n, k) = 0 out of range):

  N_d      = sum [ d2^2 * C(2d-3, 2*d1-2) - d1*d2 * C(2d-3, 2*d1-1) ]
                 * Ntilde_{d1} * N_{d2}
  Ntilde_d = d * N_d
           + sum [ d1*d2^2 * C(2d-2, 2*d1-1) - d2^3 * C(2d-2, 2*d1-2) ]
                 * Ntilde_{d1} * N_{d2}

seeded by N_1 = 1 and the d = 1 instance of the second line, Ntilde_1 = 1.
The signed real count of degree-d curves through d point-pairs in P^3 then
follows from the degree-halving recursion (sum over 2*d1 + d2 = d):

  N^R_d = sum (-4)^(d1 - 1) * d2 * C(d-2, d2-1) * Ntilde_{d1} * N^R_{d2}

seeded by N^R_1 = 1.  These closed forms are the independent oracle against
which the general recursion engines are checked, and they extend cheaply to
d = 31 and beyond.

The module also hosts the one enumerator of dimension-balanced keys of both
engines (``real_codim_vectors``, ``complex_codim_vectors``).
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import add

from .keys import CodimVector

__all__ = [
    "complex_codim_vectors",
    "complex_series_p3",
    "real_codim_vectors",
    "real_series_p3",
]


def _pascal_rows() -> Iterator[list[int]]:
    """Rows 0, 1, 2, ... of Pascal's triangle: row r holds C(r, 0) .. C(r, r)."""
    row = [1]
    while True:
        yield row
        row = [1, *map(add, row, row[1:]), 1]


def complex_series_p3(dmax: int) -> tuple[list[int], list[int]]:
    """(N_d, Ntilde_d) for d = 1..dmax as 0-padded lists indexed by degree."""
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    n = [0] * (dmax + 1)
    nt = [0] * (dmax + 1)
    n[1] = 1
    nt[1] = 1
    rows = _pascal_rows()
    next(rows)  # row 0
    for d in range(2, dmax + 1):
        odd, even = next(rows), next(rows)  # rows 2d-3 and 2d-2
        acc = acc_t = 0
        for d1 in range(1, d):  # both sums run over the same pairs nt[d1] * n[d2]
            d2 = d - d1
            term = nt[d1] * n[d2]
            acc += d2 * (d2 * odd[2 * d1 - 2] - d1 * odd[2 * d1 - 1]) * term
            acc_t += d2 * d2 * (d1 * even[2 * d1 - 1] - d2 * even[2 * d1 - 2]) * term
        n[d] = acc
        nt[d] = d * acc + acc_t
    return n, nt


def real_series_p3(dmax: int) -> list[int]:
    """N^R_d for d = 1..dmax (0 at even d) as a 0-padded list indexed by degree."""
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    _, nt = complex_series_p3(max(1, dmax // 2))
    nr = [0] * (dmax + 1)
    nr[1] = 1
    rows = _pascal_rows()
    for d in range(3, dmax + 1, 2):
        next(rows)  # row d-3
        row = next(rows)  # row d-2
        acc = 0
        for d1 in range(1, (d - 1) // 2 + 1):
            d2 = d - 2 * d1
            acc += (-4) ** (d1 - 1) * d2 * row[d2 - 1] * nt[d1] * nr[d2]
        nr[d] = acc
    return nr


def _base_vectors(top: int, step: int, target: int) -> Iterator[list[int]]:
    """Multisets of entries top, top - step, ... >= 2 with sum of (entry - 1) = target."""

    def rec(value: int, remaining: int, acc: list[int]) -> Iterator[list[int]]:
        if remaining == 0:
            yield list(acc)
            return
        if value < 2:
            return
        weight = value - 1
        for count in range(remaining // weight, -1, -1):
            acc.extend([value] * count)
            yield from rec(value - step, remaining - count * weight, acc)
            del acc[len(acc) - count:]

    yield from rec(top, target, [])


def complex_codim_vectors(N: int, d: int) -> Iterator[CodimVector]:
    """All dimension-balanced codimension vectors for (N, d) with entries in [2, N]."""
    for base in _base_vectors(N, 1, (N + 1) * d + N - 3):
        yield CodimVector.from_entries(base)


def real_codim_vectors(n: int, d: int) -> Iterator[CodimVector]:
    """All dimension-balanced odd codimension vectors for (n, d), entries in {3, 5, ..., 2n-1}."""
    for base in _base_vectors(2 * n - 1, 2, n * (d + 1) - 2):
        yield CodimVector.from_entries(base)
