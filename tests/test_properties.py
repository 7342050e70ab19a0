"""Property tests on random keys and random insertion sequences.

The degeneration sums are evaluated only at the (d1, f) or (d1, i) solved
from the left factor's dimension gap, and that solution depends on which
slots the pivot or designation picked.  Random keys under random choices
reach solved values that the hand-picked samples do not.  The divisor axiom
is checked through one explicit step, because evaluation itself peels
divisors by that axiom.  ``CodimVector`` keeps its stored insertion count and
total codimension in step with its pairs under every operation.  The one
split-sum loop looks up a step's explicit terms first and then exactly the
balanced factors that a plain loop over every degree and diagonal class
finds, each right factor only after a nonzero left one, and returns the same
sum.  Each caller's folded sum, one product per split of S + c, gives the
value of the two products per split of S that its relation states, and
looks up the same memo keys; the splits come in the order
``itertools.product`` gives them, and their rows, built in one pass from
cached per-class rows, equal those of a two-pass build.  The canonical pivot
and designation, read from the packed code, are the slots their definitions
name in the sorted entries.
"""

from __future__ import annotations

import copy
import pickle
import random
from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwcount import (
    CodimVector,
    ComplexEvalContext,
    ComplexKey,
    RealEvalContext,
    RealKey,
    canonical_designation,
    canonical_pivot,
    eval_complex,
    eval_real,
)
from gwcount.complex_engine import product_sum, wdvv_step
from gwcount.keys import MASK, MAX_CODIM, B, _class_rows, _new, enumerate_splits
from gwcount.real_engine import recursion_step, theorem12_residual

from test_complex_engine import Recorder, _random_pivot_rule
from test_keys import flat_rows
from test_real_engine import _random_designation_rule

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, database=None)


@st.composite
def balanced_complex_keys(draw) -> ComplexKey:
    """A dimension-balanced key of P^3, P^4 or P^5, divisors included."""
    N = draw(st.integers(3, 5))
    d = draw(st.integers(1, 3))
    need = (N + 1) * d + N - 3  # sum of (c_i - 1) over the insertions
    entries = []
    while need > 0:
        c = draw(st.integers(2, min(N, need + 1)))
        entries.append(c)
        need -= c - 1
    entries += [1] * draw(st.integers(0, 2))
    return ComplexKey(N=N, d=d, insertions=CodimVector.from_entries(entries))


@st.composite
def balanced_real_keys(draw) -> RealKey:
    """A dimension-balanced real key of P^3 or P^5 with odd entries and degree."""
    n = draw(st.integers(2, 3))
    d = draw(st.sampled_from((1, 3, 5, 7)))
    need = n * (d + 1) - 2  # sum of (c_i - 1), always even here
    entries = []
    while need > 0:
        c = draw(st.sampled_from([c for c in range(3, 2 * n, 2) if c - 1 <= need]))
        entries.append(c)
        need -= c - 1
    entries += [1] * draw(st.integers(0, 2))
    return RealKey(n=n, d=d, insertions=CodimVector.from_entries(entries))


@PROPERTY_SETTINGS
@given(key=balanced_complex_keys(), rng=st.randoms(use_true_random=False))
def test_random_pivots_match_canonical(key, rng):
    expected = eval_complex(key, ComplexEvalContext())
    assert eval_complex(key, ComplexEvalContext(pivot_rule=_random_pivot_rule(rng))) == expected


@PROPERTY_SETTINGS
@given(key=balanced_real_keys(), rng=st.randoms(use_true_random=False))
def test_random_designations_match_canonical(key, rng):
    expected = eval_real(key, RealEvalContext())
    ctx = RealEvalContext(
        ComplexEvalContext(pivot_rule=_random_pivot_rule(rng)),
        designation_rule=_random_designation_rule(rng),
    )
    assert eval_real(key, ctx) == expected


def _without_divisors(cv: CodimVector) -> CodimVector:
    return cv.remove(1, cv.multiplicity(1)) if cv.multiplicity(1) else cv


@PROPERTY_SETTINGS
@given(key=balanced_complex_keys())
def test_divisor_axiom_through_one_wdvv_step(key):
    # <S, H^1>_d = d <S>_d, with the divisor as the exchange partner of a step.
    S = _without_divisors(key.insertions)
    donor = S.min_codim
    pivot = (donor, 1, S.remove(donor).max_codim)
    ctx = ComplexEvalContext()
    expected = key.d * eval_complex(ComplexKey(N=key.N, d=key.d, insertions=S), ctx)
    assert ctx.run(wdvv_step(key.N, key.d, S.add(1), pivot, ctx)) == expected


@PROPERTY_SETTINGS
@given(key=balanced_real_keys())
def test_divisor_axiom_through_one_recursion_step(key):
    # <S, 1>_d = d <S>_d, with the divisor designated second.
    S = _without_divisors(key.insertions)
    ctx = RealEvalContext()
    expected = key.d * eval_real(RealKey(n=key.n, d=key.d, insertions=S), ctx)
    assert ctx.run(recursion_step(key.n, key.d, S.add(1), (S.max_codim, 1), ctx)) == expected


codims = st.integers(0, 6)
vector_ops = st.one_of(
    st.tuples(st.just("add"), codims, st.integers(1, 3)),
    st.tuples(st.just("remove"), codims, st.integers(1, 3)),
    st.tuples(st.just("add_all"), st.lists(codims, max_size=4).map(tuple)),
)


def _check_vector(cv: CodimVector, entries: list[int]) -> None:
    assert cv.expand() == tuple(sorted(entries))
    assert cv.pairs == tuple(sorted(Counter(entries).items()))
    reference = CodimVector.from_entries(cv.expand())
    assert reference == CodimVector.from_entries(entries)
    assert cv.pairs == reference.pairs
    assert (cv.k, cv.total_codim) == (len(entries), sum(entries))
    assert (reference.k, reference.total_codim) == (len(entries), sum(entries))
    assert cv == reference and not cv != reference and hash(cv) == hash(reference)
    assert cv[0] == sum(1 << B * c for c in entries)  # the packed code
    assert cv != tuple(cv)
    assert repr(cv) == f"CodimVector(pairs={cv.pairs!r})"
    for twin in (copy.copy(cv), pickle.loads(pickle.dumps(cv))):
        assert tuple(twin) == tuple(cv) and twin.pairs == cv.pairs


@settings(max_examples=100, deadline=None, database=None)
@given(start=st.lists(codims, max_size=5), ops=st.lists(vector_ops, max_size=12))
@example(start=[3, 5], ops=[("add_all", (4, 4, 3)), ("remove", 4, 2), ("add", 5, 2),
                            ("remove", 7, 1), ("remove", 3, 2), ("add_all", ())])
@example(start=[MAX_CODIM, 0, 2], ops=[("add", 0, 2), ("add_all", (MAX_CODIM, 1)),
                                      ("remove", MAX_CODIM, 2), ("add", MAX_CODIM, 3)])
def test_codim_vector_keeps_k_and_total_in_step(start, ops):
    entries = list(start)
    cv = CodimVector.from_entries(entries)
    _check_vector(cv, entries)
    for op in ops:
        if op[0] == "add":
            _, c, times = op
            cv = cv.add(c, times)
            entries += [c] * times
        elif op[0] == "remove":
            _, c, times = op
            if entries.count(c) < times:
                with pytest.raises(ValueError):
                    cv.remove(c, times)
                continue
            cv = cv.remove(c, times)
            for _ in range(times):
                entries.remove(c)
        else:
            cv = cv.add_all(op[1])
            entries += op[1]
        _check_vector(cv, entries)
    for name in ("pairs", "k", "total_codim", "other"):
        with pytest.raises(AttributeError):
            setattr(cv, name, 0)


vectors = st.one_of(st.lists(codims, max_size=8).map(CodimVector.from_entries),
                    balanced_complex_keys().map(lambda key: key.insertions),
                    balanced_real_keys().map(lambda key: key.insertions))


@settings(max_examples=200, deadline=None, database=None)
@given(cv=vectors)
@example(cv=CodimVector.of(2, 5, 5))  # a top class twice
@example(cv=CodimVector.of(5, 5, 5, 3))  # a top class three times
@example(cv=CodimVector.of(4, 4, 4, 4))  # a single class
@example(cv=CodimVector.of(1023, 512, 512))  # a code of P^1023, past 16,000 bits
@example(cv=CodimVector.of(MAX_CODIM, MAX_CODIM, 0))
def test_canonical_slots_match_their_definition(cv):
    # The slots are read from the packed code; the definition reads the sorted entries.
    e = cv.expand()
    if len(e) >= 3:
        assert canonical_pivot(cv) == (e[0], e[-2], e[-1])
    else:
        with pytest.raises(ValueError, match="a pivot needs 3 insertions"):
            canonical_pivot(cv)
    if len(e) >= 2:
        assert canonical_designation(cv) == (e[-1], e[-2])
    else:
        with pytest.raises(ValueError, match="a designated pair needs 2 insertions"):
            canonical_designation(cv)


def _plain_sum(N, rdim, d, weight, parts, explicit, value):
    """(lookups, sum) of a split sum by a plain loop over every degree and
    diagonal class.  ``parts`` are (I, J, coefficient, left_extra,
    right_extra): the product coefficient(d1) * <I, left_extra, H^x>_{d1} *
    <J, right_extra, H^(N-x)>_{d2}, weight*d1 + d2 = d, looked up in that order."""
    lookups, total = [], 0
    for coefficient, cv in explicit:  # first, and even when no degree split exists
        lookups.append((rdim, d, tuple(cv)))
        total += coefficient * value(rdim, d, cv)
    for I, J, coefficient, left_extra, right_extra in parts:
        for d1 in range(1, d):
            for x in range(1, N):
                if weight * d1 >= d or x % weight:
                    continue
                left = _new(CodimVector, tuple(I)).add_all(left_extra + (x,))
                if (N + 1) * d1 + N - 3 + left.k - left.total_codim == 0:  # balanced
                    lookups.append((N, d1, tuple(left)))
                    t = value(N, d1, left)
                    if t:  # the right factor is looked up only after a nonzero left one
                        d2 = d - weight * d1
                        right = _new(CodimVector, tuple(J)).add_all(right_extra + (N - x,))
                        lookups.append((rdim, d2, tuple(right)))
                        total += coefficient(d1) * t * value(rdim, d2, right)
    return lookups, total


@st.composite
def degeneration_sums(draw):
    """(N, d, T, R, weight, seed, h, explicit) of a complex (weight 1) or real
    (weight 2) split sum over the splits of T, a part of R; ``seed`` draws
    each split's coefficient pair."""
    N = draw(st.integers(2, 7))
    weight = draw(st.sampled_from((1, 2) if N % 2 else (1,)))
    d = draw(st.integers(1, 9))
    T = CodimVector.from_entries(draw(st.lists(st.integers(1, N), max_size=5)))
    extras = st.lists(st.integers(0, N), max_size=2).map(tuple)
    R = T.add_all(draw(extras))
    explicit = tuple((coefficient, T.add_all(extra)) for coefficient, extra in draw(
        st.lists(st.tuples(st.integers(-d, d), extras), max_size=3)))
    return N, d, T, R, weight, draw(st.integers(0, 99)), draw(st.integers(0, N)), explicit


@settings(max_examples=200, deadline=None, database=None)
@given(case=degeneration_sums())
@example(case=(3, 5, CodimVector.of(3, 3, 1), CodimVector.of(3, 3, 3, 1), 1, 0, 2,
               ((5, CodimVector.of(3, 3, 1)), (-5, CodimVector.of(3, 1, 1)))))
@example(case=(5, 7, CodimVector.of(5, 5, 3, 3), CodimVector.of(5, 5, 3, 3), 2, 1, 4, ()))
@example(case=(5, 1, CodimVector.of(5, 3), CodimVector.of(5, 3), 2, 2, 4,
               ((1, CodimVector.of(5, 3, 3)),)))
def test_product_sum_matches_a_plain_loop(case):
    N, d, T, R, weight, seed, h, explicit = case
    rdim = N + 1  # no left factor is looked up on it, so the log tells the sides apart
    rng = random.Random(seed)
    # Groups as enumerate_splits makes them: a prefix of the classes below the
    # highest, and one table of that class's rows that every group shares.
    *head, (c, m) = T.pairs or [(0, 0)]
    table = tuple((i << B * c, i, c * i, rng.randint(-5, 5), rng.randint(-5, 5))
                  for i in range(m + 1))
    groups = [((*I, rng.randint(-5, 5), rng.randint(-5, 5)), table)
              for I, _, _ in _splits_by_product(CodimVector(head), weight)]
    parts = [((icode, ik, itotal), (R[0] - icode, R[1] - ik, R[2] - itotal),
              lambda d1, a=a, b=b: a - b * d1, (h,), ())
             for icode, ik, itotal, a, b in flat_rows(groups)]
    expected, expected_sum = _plain_sum(N, rdim, d, weight, parts, explicit, Recorder.value)
    ctx = Recorder()
    got = ctx.run(product_sum(ctx, ctx, rdim, N, d, R, groups, weight, h, explicit))
    # Tuples of the vectors, so that the stored k and total codimension match too.
    assert [(dim, degree, tuple(cv)) for dim, degree, cv in ctx.log] == expected
    assert got == expected_sum


class DivisorRecorder(Recorder):
    """A Recorder whose answers obey the divisor axiom, as the driver's do: d^m
    times ``Recorder.value`` of the core left without the m H^1 entries (none
    at d = 0).  It is its own complex context, so it also drives a real step."""

    @property
    def complex_ctx(self):
        return self

    @staticmethod
    def value(dim, d, cv):
        code, k, total = cv
        m = code >> B & MASK if d else 0
        return d**m * Recorder.value(dim, d, (code - (m << B), k - m, total - m))


def _cores(lookups):
    """The memo keys (dim, d, core code) of lookups, their H^1 entries peeled."""
    return {(dim, d, code - ((code >> B & MASK) << B if d else 0))
            for dim, d, (code, *_) in lookups}


@st.composite
def relations(draw):
    """(kind, half-dimension or N, d, entries, slots) of a complex step, a
    real step or a transfer identity, whose moved class is absent from the
    rest, present in it, or equal to the step's left or right extra class."""
    kind = draw(st.sampled_from(("complex", "real", "transfer")))
    dim = draw(st.integers(2, 6) if kind == "complex" else st.integers(2, 3))
    N = dim if kind == "complex" else 2 * dim - 1
    d = draw(st.integers(1, 7))
    rest = draw(st.lists(st.integers(1, N), max_size=3))
    low, high = sorted(draw(st.lists(st.integers(1, N), min_size=2, max_size=2)))
    moved = draw(st.sampled_from((low - 1, high, high, draw(st.integers(1, N)))))
    rest += [moved] * draw(st.integers(0, 2)) if moved else []
    if kind == "complex":  # pivot (a + 1, c, e) = (low, moved, high)
        return kind, dim, d, rest + [low, moved, high], (low, moved, high)
    if kind == "real":  # designation (c_1, c_2) = (high, moved)
        return kind, dim, d, rest + [high, max(moved, 1)], (high, max(moved, 1))
    c2 = draw(st.sampled_from((high, low)))  # c_1 = c_2 or not
    return kind, dim, d, [high, c2] + rest, draw(st.integers(1, 2))


@settings(max_examples=300, deadline=None, database=None)
@given(case=relations())
@example(case=("complex", 3, 3, [2, 2, 2, 2, 3], (2, 2, 3)))  # c twice in S
@example(case=("complex", 3, 4, [2, 2, 2, 3, 3], (2, 3, 3)))  # c absent from S, c = e
@example(case=("complex", 4, 3, [3, 3, 3, 2, 4], (3, 2, 4)))  # c = a
@example(case=("real", 3, 5, [3, 3, 5, 3], (5, 3)))
@example(case=("real", 3, 5, [3, 3, 5, 5], (5, 5)))
@example(case=("transfer", 2, 5, [3, 1, 3, 3], 1))  # c_1 != c_2
@example(case=("transfer", 2, 5, [3, 3, 3, 1], 1))  # c_1 = c_2
def test_the_folded_sum_matches_the_two_product_sum(case):
    # The plain loop of the two products per split of S, as in the relation
    # each caller states, is the oracle: the one product per weighed split of
    # S + c must give the same value and look up the same memo keys.  Its
    # lookups answer by the divisor axiom, on which the folding rests.
    kind, dim, d, entries, slots = case
    cv, ctx = CodimVector.from_entries(entries), DivisorRecorder()
    if kind == "complex":
        (a1, c, e), N, rdim, weight = slots, dim, dim, 1
        S, a = cv.remove(a1).remove(c).remove(e), a1 - 1
        explicit = ((d, S.add_all((a + c, e))), (1, S.add_all((a, c, e + 1))),
                    (-d, S.add_all((a, c + e))))
        terms = ((1, (a, c), (e, 1)), (-1, (a, 1), (c, e)))
        got = ctx.run(wdvv_step(N, d, cv, slots, ctx))
    elif kind == "real":
        (c1, c2), N, rdim, weight = slots, 2 * dim - 1, dim, 2
        S = cv.remove(c1).remove(c2)
        explicit = ((d, S.add(c1 + c2 - 1)),)
        terms = ((1, (c1 - 1, c2), (1,)), (-1, (c1 - 1, 1), (c2,)))
        got = ctx.run(recursion_step(dim, d, cv, slots, ctx))
    else:
        (c1, c2), c, N, rdim, weight = entries[:2], slots, 2 * dim - 1, dim, 2
        S = cv.remove(c1).remove(c2)
        explicit = ((1, S.add_all((c1, c2 + 2 * c))), (-1, S.add_all((c1 + 2 * c, c2))))
        terms = ((-1, (2 * c, c1), (c2,)), (1, (2 * c, c2), (c1,)))
        got = theorem12_residual(dim, d, c, entries, ctx)
    parts = [(I, J, lambda d1, coefficient=sign * w: coefficient, left_extra, right_extra)
             for I, J, w in _splits_by_product(S, weight)
             for sign, left_extra, right_extra in terms]
    expected, expected_sum = _plain_sum(N, rdim, d, weight, parts, explicit, DivisorRecorder.value)
    assert got == expected_sum
    assert _cores(ctx.log) == _cores(expected)


def _splits_by_product(cv: CodimVector, per_element_weight: int):
    """The splits of ``cv`` built on ``itertools.product``, last class fastest."""
    choices = [[(i, c, comb(m, i) * per_element_weight**i) for i in range(m + 1)]
               for c, m in cv.pairs]
    for combo in product(*choices):
        weight, I, J = 1, [], []
        for i, c, wi in combo:
            weight *= wi
            I += [c] * i
            J += [c] * (cv.multiplicity(c) - i)
        yield CodimVector.from_entries(I), CodimVector.from_entries(J), weight


@settings(max_examples=100, deadline=None, database=None)
@given(classes=st.dictionaries(st.integers(0, 12), st.integers(1, 3), min_size=1, max_size=4),
       weight=st.sampled_from((1, 2)), pick=st.integers(0, 3))
@example(classes={2: 1, 5: 2}, weight=1, pick=1)
def test_enumerate_splits_follows_product_order(classes, weight, pick):
    # Memo order and max_depth follow the order of the splits, not just their set.
    cv = CodimVector(sorted(classes.items()))
    moved = sorted(classes)[pick % len(classes)]
    code, k, total = cv
    got = [((icode, ik, itotal), (code - icode, k - ik, total - itotal), b)
           for icode, ik, itotal, _, b in flat_rows(enumerate_splits(cv, weight, 3, moved))]
    assert got == [(tuple(I), tuple(J), w) for I, J, w in _splits_by_product(cv, weight)]


def _two_pass_rows(cv: CodimVector, weight: int, d: int, moved: int) -> list:
    """Rows built in two passes, the oracle of the fused build: every split
    (code, k, total_codim, w) of ``cv``, last class fastest, then each weighed
    with (d * u, w), u = w * i / (weight * M) for i of the M copies of ``moved``."""
    splits = [(0, 0, 0, 1)]
    for c, m in cv.pairs:
        choices = [(i << B * c, i, c * i, comb(m, i) * weight**i) for i in range(m + 1)]
        splits = [(icode + ccode, ik + i, itotal + ci, w * wi)
                  for icode, ik, itotal, w in splits for ccode, i, ci, wi in choices]
    bc, wM = B * moved, weight * cv.multiplicity(moved)
    return [(code, k, total, d * (w * (code >> bc & MASK) // wM), w)
            for code, k, total, w in splits]


@settings(max_examples=200, deadline=None, database=None)
@given(others=st.dictionaries(st.integers(1, 12), st.integers(1, 3), max_size=3),
       moved=st.integers(1, 12), M=st.integers(1, 5), weight=st.sampled_from((1, 2)),
       d=st.one_of(st.integers(0, 3), st.integers(0, 10**80)), cold=st.booleans())
@example(others={}, moved=3, M=1, weight=1, d=0, cold=True)  # the moved class alone
@example(others={2: 2, 7: 1}, moved=5, M=4, weight=2, d=1, cold=False)
@example(others={5: 3}, moved=5, M=2, weight=2, d=10**60, cold=True)  # others fold into moved
def test_fused_rows_match_the_two_pass_build(others, moved, M, weight, d, cold):
    # d runs from just above the weight to far beyond it; a cold cache builds
    # every class's rows afresh, and the second build reads them all warm.
    classes = {**others, moved: others.get(moved, 0) + M}
    cv, d = CodimVector(sorted(classes.items())), weight + 1 + d
    if cold:
        _class_rows.cache_clear()
    want = _two_pass_rows(cv, weight, d, moved)
    assert flat_rows(enumerate_splits(cv, weight, d, moved)) == want
    assert flat_rows(enumerate_splits(cv, weight, d, moved)) == want
