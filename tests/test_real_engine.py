from __future__ import annotations

import random

import pytest

from gwcount import (
    CodimVector,
    ComplexEvalContext,
    RealEvalContext,
    RealKey,
    canonical_designation,
    eval_real,
    real_series_p3,
    theorem12_residual,
)
from gwcount.checks import theorem12_samples
from gwcount.p3 import real_codim_vectors
from gwcount.real_engine import recursion_step
from gwcount.tables import table1_rows, table2_rows

from golden import TABLE1, TABLE2_P5, TABLE2_P7


def R(ctx, n, d, *cs, phi="tau"):
    return eval_real(RealKey(n=n, d=d, insertions=CodimVector.of(*cs), phi=phi), ctx)


def test_rule_conjugation_vanishing():
    ctx = RealEvalContext()
    assert R(ctx, 2, 2, 3, 3, 3) == 0  # even degree
    assert R(ctx, 2, 2, 3, 1) == 0
    assert R(ctx, 3, 3, 4, 4, 3, 3) == 0  # even insertion
    assert R(ctx, 2, 3, 2, 3, 3, 3) == 0


def test_rule_overflow():
    ctx = RealEvalContext()
    assert R(ctx, 2, 3, 5, 3, 1) == 0  # balanced but 5 > 2n-1 = 3


def test_rule_dimension_gap():
    ctx = RealEvalContext()
    assert R(ctx, 2, 1, 3, 3) == 0
    assert R(ctx, 2, 3, 3, 3) == 0
    assert R(ctx, 3, 1, 3) == 0


def test_rule_divisor():
    ctx = RealEvalContext()
    assert R(ctx, 2, 1, 3, 1) == 1
    assert R(ctx, 2, 1, 3, 1, 1) == 1
    assert R(ctx, 2, 3, 3, 3, 3, 1) == -3
    assert R(ctx, 2, 3, 3, 3, 3, 1, 1) == -9


def test_rule_single_point():
    ctx = RealEvalContext()
    assert R(ctx, 2, 1, 3) == 1
    assert R(ctx, 3, 1, 5) == 1
    assert R(ctx, 4, 1, 7) == 1
    assert R(ctx, 2, 3, 3) == 0  # wrong degree is off-dimension


def test_first_nontrivial_values():
    ctx = RealEvalContext()
    assert R(ctx, 2, 3, 3, 3, 3) == -1
    assert R(ctx, 2, 5, 3, 3, 3, 3, 3) == 5
    assert R(ctx, 3, 3, 5, 5, 3) == -1
    assert R(ctx, 3, 3, 5, 3, 3, 3) == -3


def test_phi_tag_does_not_change_values():
    ctx = RealEvalContext()
    for n, d, cs in ((2, 3, (3, 3, 3)), (3, 3, (5, 5, 3)), (2, 5, (3,) * 5)):
        assert R(ctx, n, d, *cs, phi="tau") == R(ctx, n, d, *cs, phi="eta")


def test_permutation_independence():
    ctx = RealEvalContext()
    rng = random.Random(3)
    entries = [5, 3, 3, 3]
    base = R(ctx, 3, 3, *entries)
    for _ in range(8):
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert R(ctx, 3, 3, *shuffled) == base
    assert base == -3


def test_sign_bridge_to_table1():
    ctx = RealEvalContext()
    series = real_series_p3(11)
    for d in (1, 3, 5, 7, 9, 11):
        raw = R(ctx, 2, d, *([3] * d))
        assert (-1) ** ((d - 1) // 2) * raw == series[d] == TABLE1[d]


def test_table2_spot_values():
    ctx = RealEvalContext()
    assert R(ctx, 3, 5, *([5] * 2 + [3] * 4)) == TABLE2_P5[(5, (2, 4))] == -7
    assert R(ctx, 3, 7, *([5] * 4 + [3] * 3)) == TABLE2_P5[(7, (4, 3))] == -213
    assert R(ctx, 4, 3, *([3] * 7)) == TABLE2_P7[(3, (0, 0, 7))] == 1155
    assert R(ctx, 4, 5, *([7] * 2 + [5] * 1 + [3] * 3)) == TABLE2_P7[(5, (2, 1, 3))] == -27


def _random_designation_rule(rng: random.Random):
    def rule(cv: CodimVector):
        entries = cv.expand()
        i, j = rng.sample(range(len(entries)), 2)
        return entries[i], entries[j]

    return rule


DESIGNATION_SAMPLE_KEYS = [
    (2, 3, (3, 3, 3)),
    (2, 5, (3, 3, 3, 3, 3)),
    (2, 7, (3,) * 7),
    (3, 3, (5, 5, 3)),
    (3, 3, (5, 3, 3, 3)),
    (3, 3, (3, 3, 3, 3, 3)),
    (3, 5, (5, 5, 5, 5)),
    (4, 3, (7, 5, 3, 3)),
]


def test_designation_independence_randomized():
    canonical = RealEvalContext()
    expected = {key: R(canonical, key[0], key[1], *key[2]) for key in DESIGNATION_SAMPLE_KEYS}
    rng = random.Random(314159)
    re_evaluations = 0
    for trial in range(3):
        ctx = RealEvalContext(designation_rule=_random_designation_rule(rng))
        for key in DESIGNATION_SAMPLE_KEYS:
            assert R(ctx, key[0], key[1], *key[2]) == expected[key], (trial, key)
            re_evaluations += 1
    assert re_evaluations >= 20


def test_canonical_designation_selection():
    assert canonical_designation(CodimVector.of(3, 5, 5)) == (5, 5)
    assert canonical_designation(CodimVector.of(3, 3)) == (3, 3)
    assert canonical_designation(CodimVector.of(7, 5, 3)) == (7, 5)
    for short in (CodimVector(), CodimVector.of(3)):
        with pytest.raises(ValueError, match="a designated pair needs 2 insertions"):
            canonical_designation(short)


def test_recursion_step_agrees_with_divisor_route():
    # Designating a divisor entry in the recursion must reproduce the
    # divisor relation: both orders of the designated pair.
    ctx = RealEvalContext()
    for n, d, entries in ((2, 3, (3, 3, 3, 1)), (3, 3, (5, 5, 3, 1)), (2, 5, (3, 3, 3, 3, 3, 1))):
        cv = CodimVector.from_entries(entries)
        stripped = cv.remove(1)
        divisor_value = d * eval_real(RealKey(n=n, d=d, insertions=stripped), ctx)
        assert eval_real(RealKey(n=n, d=d, insertions=cv), ctx) == divisor_value
        top = stripped.max_codim
        assert ctx.run(recursion_step(n, d, cv, (top, 1), ctx)) == divisor_value
        assert ctx.run(recursion_step(n, d, cv, (1, top), ctx)) == divisor_value


def test_divisor_relation_on_random_keys():
    ctx = RealEvalContext()
    rng = random.Random(515)
    for _ in range(30):
        n = rng.choice((2, 3))
        d = rng.choice((1, 3, 5))
        odd_choices = tuple(range(3, 2 * n, 2))
        entries = [rng.choice(odd_choices) for _ in range(rng.randint(1, 5))]
        cv = CodimVector.from_entries(entries)
        lhs = eval_real(RealKey(n=n, d=d, insertions=cv.add(1)), ctx)
        rhs = d * eval_real(RealKey(n=n, d=d, insertions=cv), ctx)
        assert lhs == rhs


def test_degree_one_collapse():
    # Every dimension-balanced degree-1 invariant equals 1.
    ctx = RealEvalContext()
    for n in (2, 3, 4):
        for base in real_codim_vectors(n, 1):
            for cv in (base, base.add(1), base.add(1, times=2)):
                assert eval_real(RealKey(n=n, d=1, insertions=cv), ctx) == 1, (n, cv)


def test_theorem12_residual_zero_on_spot_tuples():
    ctx = RealEvalContext()
    for n, d, c, c_list in (
        (2, 1, 1, (1, 1)),
        (2, 3, 1, (1, 1, 3, 3)),
        (2, 3, 1, (3, 1, 3, 1)),
        (2, 5, 1, (3, 3, 3)),
        (3, 3, 1, (5, 3, 3)),
        (3, 3, 2, (3, 3, 1)),
        (3, 5, 2, (5, 5, 3)),
    ):
        assert theorem12_residual(n, d, c, c_list, ctx) == 0, (n, d, c, c_list)


def test_theorem12_residual_validation():
    ctx = RealEvalContext()
    with pytest.raises(ValueError):
        theorem12_residual(1, 3, 1, (3, 3), ctx)
    with pytest.raises(ValueError):
        theorem12_residual(2, 3, 0, (3, 3), ctx)
    with pytest.raises(ValueError):
        theorem12_residual(2, 3, 1, (3,), ctx)
    with pytest.raises(ValueError):
        theorem12_residual(2, 3, 1, (3, 0), ctx)
    # a transfer above MAX_CODIM would pack a class of 2c
    with pytest.raises(ValueError, match="need 1 <= c <= 1024"):
        theorem12_residual(2, 3, 1025, (3, 3), ctx)


@pytest.mark.parametrize("c_list", [(3.0, 3), (3, 3.5), (True, 3), (3, 3, 3.0)])
def test_theorem12_residual_rejects_codimensions_that_are_not_ints(c_list):
    with pytest.raises(ValueError):
        theorem12_residual(2, 3, 1, c_list, RealEvalContext())


@pytest.mark.parametrize("c", [1.5, 2.0, True])
def test_theorem12_residual_rejects_a_transfer_amount_that_is_not_an_int(c):
    with pytest.raises(ValueError, match="transfer amount c must be an int"):
        theorem12_residual(2, 3, c, (3, 3), RealEvalContext())


def test_shared_complex_context_is_used():
    cctx = ComplexEvalContext()
    ctx = RealEvalContext(cctx)
    R(ctx, 2, 5, 3, 3, 3, 3, 3)
    assert ctx.complex_ctx is cctx
    assert len(cctx.memo) > 0


def _counters(ctx):
    return tuple(ctx.stats()[name] for name in ("calls", "memo_hits", "deep_evals", "memo_size"))


@pytest.mark.parametrize("order", [1, -1])
def test_engine_counters_on_the_p7_sweep(order):
    # Every balanced P^7 key of odd degree <= 9 in one context pair.  Each
    # memo key is expanded once, by the same calls, so the totals do not
    # depend on the order of the keys.  How deep each engine's own steps
    # nest does: in reverse order the deep keys come first.
    keys = [RealKey(n=4, d=d, insertions=cv) for d in (1, 3, 5, 7, 9)
            for cv in real_codim_vectors(4, d)]
    assert len(keys) == 94
    ctx = RealEvalContext()
    for key in keys[::order]:
        eval_real(key, ctx)
    assert _counters(ctx.complex_ctx) == (20_739, 19_253, 483, 483)
    assert _counters(ctx) == (1_753, 1_539, 93, 93)
    assert (ctx.complex_ctx.max_depth, ctx.max_depth) == {1: (6, 1), -1: (7, 14)}[order]


def test_engine_counters_of_the_transfer_identity():
    # Every residual of the sample grid in one context pair: the two sides
    # of each identity and the factors of its correction sum.
    ctx = RealEvalContext()
    for n, d, c, c_list in theorem12_samples():
        assert theorem12_residual(n, d, c, c_list, ctx) == 0
    assert _counters(ctx.complex_ctx) == (119, 82, 9, 9)
    assert _counters(ctx) == (203, 11, 4, 4)
    assert (ctx.complex_ctx.max_depth, ctx.max_depth) == (2, 2)


def test_engine_counters_of_table2_p5():
    ctx = RealEvalContext()
    table2_rows("p5", ctx=ctx)
    assert _counters(ctx.complex_ctx) == (1_293, 1_047, 66, 66)
    assert _counters(ctx) == (209, 153, 23, 23)
    assert (ctx.complex_ctx.max_depth, ctx.max_depth) == (3, 1)


def test_engine_counters_of_table1_to_61():
    # The rows of `gw table1 --dmax 61 --engine both`: deep P^3 keys of one class.
    ctx = RealEvalContext()
    table1_rows(61, engine="both", ctx=ctx)
    assert _counters(ctx.complex_ctx) == (3_163, 2_845, 58, 58)
    assert _counters(ctx) == (526, 435, 30, 30)
    assert (ctx.complex_ctx.max_depth, ctx.max_depth) == (2, 1)
