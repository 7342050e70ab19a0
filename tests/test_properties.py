"""Property tests on random keys and random insertion sequences.

The degeneration sums are evaluated only at the (d1, f) or (d1, i) solved
from the left factor's dimension gap, and that solution depends on which
slots the pivot or designation picked.  Random keys under random choices
reach solved values that the hand-picked samples do not.  The divisor axiom
is checked through one explicit step, because evaluation itself peels
divisors by that axiom.  ``CodimVector`` keeps its stored insertion count and
total codimension in step with its pairs under every operation.  The one
split-sum loop looks up exactly the balanced factors that a plain loop over
every degree and diagonal class finds, each right factor only after a
nonzero left one, and returns the same sum; the splits come in the order
``itertools.product`` gives them.  The canonical pivot and designation,
read from the packed code, are the slots their definitions name in the
sorted entries.
"""

from __future__ import annotations

import copy
import pickle
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
from gwcount.keys import MAX_CODIM, B, _new, enumerate_splits
from gwcount.real_engine import recursion_step

from test_complex_engine import Recorder, _random_pivot_rule
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
    assert wdvv_step(key.N, key.d, S.add(1), pivot, ctx) == expected


@PROPERTY_SETTINGS
@given(key=balanced_real_keys())
def test_divisor_axiom_through_one_recursion_step(key):
    # <S, 1>_d = d <S>_d, with the divisor designated second.
    S = _without_divisors(key.insertions)
    ctx = RealEvalContext()
    expected = key.d * eval_real(RealKey(n=key.n, d=key.d, insertions=S), ctx)
    assert recursion_step(key.n, key.d, S.add(1), (S.max_codim, 1), ctx) == expected


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


@st.composite
def degeneration_sums(draw):
    """(N, d, S, weight, terms) of a complex (weight 1) or real (weight 2) sum."""
    N = draw(st.integers(2, 7))
    weight = draw(st.sampled_from((1, 2) if N % 2 else (1,)))
    d = draw(st.integers(1, 9))
    S = CodimVector.from_entries(draw(st.lists(st.integers(1, N), max_size=5)))
    extras = st.lists(st.integers(0, N), max_size=2).map(tuple)
    terms = ((1, draw(extras), draw(extras)), (-1, draw(extras), draw(extras)))
    return N, d, S, weight, terms


@settings(max_examples=200, deadline=None, database=None)
@given(case=degeneration_sums())
@example(case=(3, 5, CodimVector.of(3, 1), 1, ((1, (2, 3), (3,)), (-1, (2,), (3, 3)))))
@example(case=(5, 7, CodimVector.of(5, 3, 3), 2, ((1, (4, 5), ()), (-1, (4,), (5,)))))
def test_product_sum_matches_a_plain_loop(case):
    N, d, S, weight, terms = case
    rdim = N + 1  # no left factor is looked up on it, so the log tells the sides apart
    expected, expected_sum = [], 0
    for icode, ik, itotal, w in enumerate_splits(S, weight):
        I, J = (icode, ik, itotal), (S[0] - icode, S[1] - ik, S[2] - itotal)
        for sign, left_extra, right_extra in terms:
            for d1 in range(1, d):
                for x in range(1, N):
                    if weight * d1 >= d or x % weight:
                        continue
                    left = _new(CodimVector, I).add_all(left_extra + (x,))
                    if (N + 1) * d1 + N - 3 + left.k - left.total_codim == 0:  # balanced
                        expected.append((N, d1, tuple(left)))
                        t = Recorder.value(N, d1, left)
                        if t:  # the right factor is looked up only after a nonzero left one
                            d2 = d - weight * d1
                            right = _new(CodimVector, J).add_all(right_extra + (N - x,))
                            expected.append((rdim, d2, tuple(right)))
                            expected_sum += sign * w * t * Recorder.value(rdim, d2, right)
    ctx = Recorder()
    got = product_sum(ctx, ctx, rdim, N, d, S, enumerate_splits(S, weight), weight, terms)
    # Tuples of the vectors, so that the stored k and total codimension match too.
    assert [(dim, degree, tuple(cv)) for dim, degree, cv in ctx.log] == expected
    assert got == expected_sum


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
@given(classes=st.dictionaries(st.integers(0, 12), st.integers(1, 3), max_size=4),
       weight=st.sampled_from((1, 2)))
@example(classes={2: 1, 5: 2}, weight=1)
def test_enumerate_splits_follows_product_order(classes, weight):
    # Memo order and max_depth follow the order of the splits, not just their set.
    cv = CodimVector(sorted(classes.items()))
    code, k, total = cv
    got = [((icode, ik, itotal), (code - icode, k - ik, total - itotal), w)
           for icode, ik, itotal, w in enumerate_splits(cv, weight)]
    assert got == [(tuple(I), tuple(J), w) for I, J, w in _splits_by_product(cv, weight)]
