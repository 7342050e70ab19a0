"""Property tests: any admissible pivot or designation gives the canonical value.

The degeneration sums are evaluated only at the (d1, f) or (d1, i) solved
from the left factor's dimension gap, and that solution depends on which
slots the pivot or designation picked.  Random keys under random choices
reach solved values that the hand-picked samples do not.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from gwcount import (
    CodimVector,
    ComplexEvalContext,
    ComplexKey,
    RealEvalContext,
    RealKey,
    eval_complex,
    eval_real,
)

from test_complex_engine import _random_pivot_rule
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
