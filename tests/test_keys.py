from __future__ import annotations

import random
from math import comb

import pytest

from gwcount import (
    CodimVector,
    ComplexEvalContext,
    ComplexKey,
    RealKey,
    enumerate_splits,
    eval_complex,
)
from gwcount.complex_engine import complex_rules
from gwcount.keys import (
    B,
    MASK,
    MAX_CACHED_COPIES,
    MAX_CODIM,
    MAX_HELD_INSERTIONS,
    MAX_INSERTIONS,
    _class_rows,
    _new,
)
from gwcount.real_engine import real_rules


def flat_rows(groups) -> list:
    """The rows (code, k, total_codim, a, b) of grouped splits, read flat: each
    group's prefix plus each of its table rows, fieldwise, a and b multiplied."""
    return [(pcode + ccode, pk + i, ptotal + ci, pa * ai, pb * bi)
            for (pcode, pk, ptotal, pa, pb), table in groups
            for ccode, i, ci, ai, bi in table]


def test_normalize_is_permutation_insensitive():
    rng = random.Random(7)
    entries = [3, 3, 5, 2, 7, 3, 5]
    base = CodimVector.from_entries(entries)
    for _ in range(10):
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert CodimVector.from_entries(shuffled) == base
        assert hash(CodimVector.from_entries(shuffled)) == hash(base)
    assert base.pairs == ((2, 1), (3, 3), (5, 2), (7, 1))


def test_codim_vector_accessors():
    cv = CodimVector.of(3, 3, 5, 2)
    assert cv.k == 4
    assert cv.total_codim == 13
    assert cv.min_codim == 2
    assert cv.max_codim == 5
    with pytest.raises(ValueError, match="no minimum"):
        CodimVector().min_codim
    with pytest.raises(ValueError, match="no maximum"):
        CodimVector().max_codim
    assert cv.multiplicity(3) == 2
    assert cv.multiplicity(9) == 0
    assert cv.multiplicity(5) == 1 and cv.multiplicity(4) == 0
    with pytest.raises(TypeError):
        13 in cv  # the tuple's own test would find total_codim
    assert cv.expand() == (2, 3, 3, 5)
    assert str(cv) == "2,3,3,5"
    assert str(CodimVector()) == ""
    assert not CodimVector()
    assert cv


def test_codim_vector_add_remove():
    cv = CodimVector.of(3, 5)
    assert cv.add(3).pairs == ((3, 2), (5, 1))
    assert cv.add(1).pairs == ((1, 1), (3, 1), (5, 1))
    assert cv.add(7).pairs == ((3, 1), (5, 1), (7, 1))
    assert cv.add(4, times=2).pairs == ((3, 1), (4, 2), (5, 1))
    assert cv.remove(3).pairs == ((5, 1),)
    assert CodimVector.of(3, 3).remove(3).pairs == ((3, 1),)
    with pytest.raises(ValueError):
        cv.remove(4)
    with pytest.raises(ValueError):
        cv.remove(3, times=2)
    # original is unchanged
    assert cv.pairs == ((3, 1), (5, 1))


def test_codim_vector_validation():
    with pytest.raises(ValueError):
        CodimVector.of(-1)
    with pytest.raises(ValueError):
        CodimVector.from_entries([3, "5"])  # type: ignore[list-item]
    with pytest.raises(ValueError):
        CodimVector.from_entries([True])
    # Entries stay at most MAX_CODIM, so a packed code stays small.
    assert CodimVector.of(MAX_CODIM).max_codim == MAX_CODIM
    with pytest.raises(ValueError, match="ints in 0..1024, got 1025"):
        CodimVector.of(3, MAX_CODIM + 1)
    with pytest.raises(ValueError, match="got 1000000000"):
        CodimVector(((3, 1), (10**9, 1)))


def test_insertion_count_bound():
    # A step raises a multiplicity to at most k + 1 and the divisor suite
    # adds one more, so k = 2^B - 3 is the most a B-bit digit can hold.
    assert MAX_INSERTIONS == 2**B - 3 == 65_533
    at_bound = CodimVector.from_entries([3, 3] + [1] * (MAX_INSERTIONS - 2))
    assert (at_bound.k, at_bound.multiplicity(1), at_bound.multiplicity(3)) == (65_533, 65_531, 2)
    assert eval_complex(ComplexKey(N=3, d=1, insertions=at_bound), ComplexEvalContext()) == 1
    with pytest.raises(ValueError, match="at most 65533 insertions"):
        CodimVector.from_entries([3, 3] + [1] * (MAX_INSERTIONS - 1))
    with pytest.raises(ValueError, match="at most 65533 insertions"):
        CodimVector(((1, MAX_INSERTIONS - 1), (3, 2)))
    # add never carries a digit into the next class
    assert at_bound.add(1, times=2).k == MAX_HELD_INSERTIONS == 2**B - 1
    with pytest.raises(ValueError, match="times must be in 1..2, got 3"):
        at_bound.add(1, times=3)


def test_dimension_gaps():
    # Each engine's rules give 0 on a core off its dimension balance; on a
    # balanced core they give its value, or None if it needs a step.
    cv = CodimVector.of(2, 2, 3, 3, 3, 3, 3)
    assert complex_rules(3, 3, cv) is None
    assert complex_rules(3, 1, CodimVector.of(3, 3, 3)) == 0
    assert complex_rules(3, 1, CodimVector.of(3, 3)) == 1
    assert complex_rules(5, 0, CodimVector.of(1, 2, 2)) == 1
    cv = CodimVector.of(3, 3, 3)
    assert real_rules(2, 3, cv) is None
    assert real_rules(2, 1, CodimVector.of(3, 3)) == 0
    assert real_rules(2, 1, CodimVector.of(3)) == 1
    cv = CodimVector.of(7, 7, 7, 5)
    assert real_rules(4, 5, cv) is None
    assert real_rules(4, 5, cv.add(5)) == real_rules(4, 3, cv) == 0


def test_key_validation():
    ins = CodimVector.of(3)
    with pytest.raises(ValueError):
        ComplexKey(N=0, d=1, insertions=ins)
    with pytest.raises(ValueError):
        ComplexKey(N=3, d=-1, insertions=ins)
    with pytest.raises(ValueError):
        RealKey(n=1, d=1, insertions=ins)
    with pytest.raises(ValueError):
        RealKey(n=2, d=0, insertions=ins)
    with pytest.raises(ValueError):
        RealKey(n=2, d=1, insertions=CodimVector.of(0, 3))
    with pytest.raises(ValueError):
        RealKey(n=2, d=1, insertions=ins, phi="sigma")
    # the largest targets below MAX_CODIM (tests/test_records.py rejects the next)
    ComplexKey(N=MAX_CODIM - 1, d=1, insertions=ins)
    RealKey(n=MAX_CODIM // 2, d=1, insertions=ins)
    # complex keys allow overflow, zero, and divisor entries
    ComplexKey(N=3, d=1, insertions=CodimVector.of(0, 1, 9))
    RealKey(n=2, d=1, insertions=ins, phi="eta")


@pytest.mark.parametrize("dim, d", [(2.0, 1), (2, 1.0), (True, 1), (2, True)])
def test_keys_reject_a_dimension_or_degree_that_is_not_an_int(dim, d):
    # (2, 3.0, code) would equal the memo key (2, 3, code) and render as d=3.0.
    with pytest.raises(ValueError, match="must be ints"):
        ComplexKey(N=dim, d=d, insertions=CodimVector.of(3))
    with pytest.raises(ValueError, match="must be ints"):
        RealKey(n=dim, d=d, insertions=CodimVector.of(3))


def test_enumerate_splits_weight_sums():
    # The weights b sum to (1 + w)^k, and the moved class's u = a / d to
    # (1 + w)^(k - 1), the weights of the splits of the multiset less one copy.
    for entries in ([3], [3, 3], [3, 3, 5], [2, 3, 3, 5, 5]):
        cv = CodimVector.from_entries(entries)
        count = 1
        for _, m in cv.pairs:
            count *= m + 1
        for w in (1, 2, 3):
            for moved, _ in cv.pairs:
                splits = flat_rows(enumerate_splits(cv, w, 7, moved))
                assert len(splits) == count
                assert sum(b for *_, b in splits) == (1 + w) ** cv.k
                assert sum(a for *_, a, _ in splits) == 7 * (1 + w) ** (cv.k - 1)


def test_enumerate_splits_needs_the_moved_class():
    for cv, moved in ((CodimVector.of(3, 5), 4), (CodimVector.of(), 0)):
        with pytest.raises(ValueError, match="moved class"):
            enumerate_splits(cv, 1, 2, moved)


def test_enumerate_splits_parts_recombine():
    # Each left part K fits inside the multiset digit by digit, so that its
    # complement S - K, which the split sum forms by subtracting fields, is one too.
    cv = CodimVector.of(2, 3, 3, 5)
    for icode, ik, itotal, a, b in flat_rows(enumerate_splits(cv, 2, 5, 3)):
        assert b > 0 and (a > 0) == (icode >> B * 3 & MASK > 0)  # u > 0 iff K holds a 3
        pairs = _new(CodimVector, (icode, ik, itotal)).pairs
        assert all(0 < m <= cv.multiplicity(c) for c, m in pairs)
        assert (ik, itotal) == (sum(m for _, m in pairs), sum(c * m for c, m in pairs))


def test_the_row_cache_is_bounded():
    # The per-class rows live in a cache of a fixed size, and rows built with a
    # huge degree are as exact as any: a = d * u and b = w, here on 3 * 3 splits.
    assert _class_rows.cache_info().maxsize == 128
    d = 10**4999 + 7
    rows = flat_rows(enumerate_splits(CodimVector.of(3, 3, 5, 5), 2, d, 5))
    assert [(a, b) for *_, a, b in rows] == [
        (0, 1), (d, 4), (2 * d, 4), (0, 4), (4 * d, 16), (8 * d, 16),
        (0, 4), (4 * d, 16), (8 * d, 16)]
    assert _class_rows.cache_info().currsize <= 128


def test_a_table_past_the_cap_is_not_retained():
    # A table of m copies holds m + 1 rows of big ints, so one of more than
    # MAX_CACHED_COPIES copies is built afresh by each call and never kept.
    m = MAX_CACHED_COPIES + 1
    cv = CodimVector.of(3, *[5] * m)
    _class_rows.cache_clear()
    first, second = (list(enumerate_splits(cv, 2, 9, 5)) for _ in range(2))
    info = _class_rows.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)  # the one H^3's table alone
    assert first == second and first[0][1] is not second[0][1]
    assert flat_rows(first) == [(j << B * 3 | i << B * 5, i + j, 3 * j + 5 * i,
                                 9 * 2**j * comb(m - 1, i - 1) * 2 ** (i - 1) if i else 0,
                                 2**j * comb(m, i) * 2**i)
                                for j in (0, 1) for i in range(m + 1)]
    list(enumerate_splits(CodimVector.of(3, *[5] * (m - 1)), 2, 9, 5))
    assert _class_rows.cache_info().currsize == 2  # a table at the cap is kept


def test_enumerate_splits_involution_symmetry():
    cv = CodimVector.of(3, 3, 5, 5, 5)
    code, k, total = cv
    seen = {(icode, ik, itotal): b
            for icode, ik, itotal, _, b in flat_rows(enumerate_splits(cv, 1, 2, 5))}
    assert len(seen) == 12
    for (icode, ik, itotal), w in seen.items():
        assert seen[(code - icode, k - ik, total - itotal)] == w  # the complement J = S - I
