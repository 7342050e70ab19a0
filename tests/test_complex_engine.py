from __future__ import annotations

import random
import sys
import threading
from itertools import combinations_with_replacement

import pytest

from gwcount import (
    CodimVector,
    ComplexEvalContext,
    ComplexKey,
    RealEvalContext,
    RealKey,
    canonical_designation,
    canonical_pivot,
    complex_series_p3,
    eval_complex,
    eval_real,
)
from gwcount import complex_engine, real_engine
from gwcount.complex_engine import MAX_NESTING, product_sum, wdvv_step
from gwcount.keys import enumerate_splits
from gwcount.p3 import complex_codim_vectors, real_series_p3

from golden import COMPLEX_P3_N, COMPLEX_P3_NTILDE, KONTSEVICH_P2, SCHUBERT_P3_LINES, TABLE2_P5


def C(ctx, N, d, *cs):
    return eval_complex(ComplexKey(N=N, d=d, insertions=CodimVector.of(*cs)), ctx)


class Recorder:
    """A stand-in context: ``evaluate`` logs each lookup as (dim, d, (code, k,
    total)) and returns ``value`` of it, a fixed function that is 0 for some lookups."""

    def __init__(self) -> None:
        self.log: list = []

    @staticmethod
    def value(dim: int, d: int, cv) -> int:
        return (cv[0] + cv[1] + d) % 5 - 2

    def evaluate(self, dim: int, d: int, code: int, k: int, total: int) -> int:
        self.log.append((dim, d, (code, k, total)))
        return self.value(dim, d, (code, k, total))


# -- independent degree-1 oracle: Schubert calculus on the Grassmannian of
#    lines.  A codimension-c incidence condition is the special class
#    sigma_{c-1}; the count is the coefficient of the point class
#    sigma_{N-1,N-1} in the Pieri-rule product.

def schubert_line_count(N: int, codims: list[int]) -> int:
    state = {(0, 0): 1}
    for c in codims:
        b = c - 1
        new: dict[tuple[int, int], int] = {}
        for (l1, l2), coeff in state.items():
            # mu runs over partitions with mu/lambda a horizontal b-strip:
            # mu1 >= l1 >= mu2 >= l2, entries within the 2 x (N-1) box.
            for m1 in range(l1, N):
                m2 = l1 + l2 + b - m1
                if l2 <= m2 <= min(m1, l1):
                    new[(m1, m2)] = new.get((m1, m2), 0) + coeff
        state = new
    return state.get((N - 1, N - 1), 0)


def test_degree_one_matches_schubert_oracle_p3():
    ctx = ComplexEvalContext()
    checked = 0
    for k in range(2, 5):
        for combo in combinations_with_replacement((2, 3), k):
            if sum(c - 1 for c in combo) != 4:
                continue
            assert C(ctx, 3, 1, *combo) == schubert_line_count(3, list(combo)), combo
            checked += 1
    assert checked == 3  # (3,3), (2,2,3), (2,2,2,2)


@pytest.mark.parametrize("k", range(5))
def test_degree_one_matches_schubert_oracle_p1(k):
    # H*H = q on P^1 gives <H,H,H>_1 = 1; the divisor axiom carries it to
    # every k, down to the empty key <>_1.
    assert C(ComplexEvalContext(), 1, 1, *[1] * k) == schubert_line_count(1, [1] * k) == 1


def test_degree_one_matches_schubert_oracle_p5():
    ctx = ComplexEvalContext()
    checked = 0
    for k in range(2, 9):
        for combo in combinations_with_replacement((2, 3, 4, 5), k):
            if sum(c - 1 for c in combo) != 8:
                continue
            expect = schubert_line_count(5, list(combo))
            assert C(ctx, 5, 1, *combo) == expect, combo
            checked += 1
    assert checked >= 6
    # two pinned values used by the real-engine recursion at P^5
    assert C(ctx, 5, 1, 4, 5, 2) == 1
    assert C(ctx, 5, 1, 3, 4, 4) == 1


def test_degree_one_matches_schubert_oracle_at_high_dimension():
    # Lines through a point and two codimension-N/2 linear spaces of P^1023, and
    # lines meeting four codimension-128 linear spaces of P^255.
    ctx = ComplexEvalContext()
    for N, combo, expect in ((1023, (1023, 512, 512), 1), (255, (128,) * 4, 128)):
        assert schubert_line_count(N, list(combo)) == expect
        assert C(ctx, N, 1, *combo) == expect, (N, combo)


def test_a_step_that_cannot_split_its_degree_draws_no_split(monkeypatch):
    # A degree-1 step has no degrees d1, d2 >= 1 to split into, complex
    # (d1 + d2 = 1) or real (2 * d1 + d2 = 1), so its split sum draws nothing.
    drawn = []
    for module in (complex_engine, real_engine):
        def counted(cv, weight, inner=module.enumerate_splits):
            for split in inner(cv, weight):
                drawn.append(split)
                yield split

        monkeypatch.setattr(module, "enumerate_splits", counted)
    cctx, rctx = ComplexEvalContext(), RealEvalContext()
    assert C(cctx, 15, 1, *[8] * 4) == schubert_line_count(15, [8] * 4) == 8
    assert eval_real(RealKey(n=3, d=1, insertions=CodimVector.of(3, 3)), rctx) \
        == TABLE2_P5[(1, (0, 2))] == 1
    assert cctx.deep_evals and rctx.deep_evals  # both ran steps
    assert drawn == []


def test_rule_overflow():
    ctx = ComplexEvalContext()
    assert C(ctx, 3, 1, 4, 2, 1, 1) == 0  # balanced but one entry exceeds N
    assert C(ctx, 3, 0, 4, 2, 1) == 0


def test_rule_dimension_gap():
    ctx = ComplexEvalContext()
    assert C(ctx, 3, 1, 3, 3, 3) == 0
    assert C(ctx, 3, 2, 3, 3) == 0
    assert C(ctx, 5, 3, 5, 5, 5) == 0


def test_rule_degree_zero():
    ctx = ComplexEvalContext()
    assert C(ctx, 3, 0, 0, 1, 2) == 1
    assert C(ctx, 3, 0, 1, 1, 1) == 1
    assert C(ctx, 5, 0, 1, 2, 2) == 1
    assert C(ctx, 3, 0, 1, 1, 1, 1) == 0  # four insertions
    assert C(ctx, 5, 0, 2, 2) == 0


def test_rule_fundamental_class():
    ctx = ComplexEvalContext()
    assert C(ctx, 3, 1, 0, 3, 3, 2) == 0  # balanced, killed by the 0 entry
    assert C(ctx, 3, 2, 0, 2, 3, 3, 3, 3) == 0


def test_rule_divisor():
    ctx = ComplexEvalContext()
    # <1, 2, 2, 3, 3, 3>_2 strips to the two-line count Ntilde_2 = 1
    assert C(ctx, 3, 2, 1, 2, 2, 3, 3, 3) == 2
    assert C(ctx, 3, 1, 1, 3, 3) == 1
    assert C(ctx, 3, 1, 1, 1, 3, 3) == 1  # two divisor entries strip in turn


def test_rule_two_point_lines():
    ctx = ComplexEvalContext()
    assert C(ctx, 3, 1, 3, 3) == 1
    assert C(ctx, 5, 1, 5, 5) == 1
    assert C(ctx, 7, 1, 7, 7) == 1
    assert C(ctx, 3, 1, 3, 2) == 0
    assert C(ctx, 3, 3, 3, 3) == 0


def test_p3_counts_match_closed_series():
    ctx = ComplexEvalContext()
    n, nt = complex_series_p3(6)
    for d in range(1, 7):
        assert n[d] == COMPLEX_P3_N[d]
        assert nt[d] == COMPLEX_P3_NTILDE[d]
        assert C(ctx, 3, d, *([3] * (2 * d))) == n[d]
        assert C(ctx, 3, d, 2, 2, *([3] * (2 * d - 1))) == nt[d]


def test_plane_curve_counts_match_kontsevich():
    ctx = ComplexEvalContext()
    for d, expected in KONTSEVICH_P2.items():
        assert C(ctx, 2, d, *([2] * (3 * d - 1))) == expected, d


def test_space_curves_meeting_lines_match_schubert():
    ctx = ComplexEvalContext()
    for d, expected in SCHUBERT_P3_LINES.items():
        assert C(ctx, 3, d, *([2] * (4 * d))) == expected, d


def test_divisor_relation_on_random_keys():
    ctx = ComplexEvalContext()
    rng = random.Random(99)
    for _ in range(30):
        N = rng.choice((3, 5))
        d = rng.randint(1, 3)
        entries = [rng.randint(2, N) for _ in range(rng.randint(1, 5))]
        cv = CodimVector.from_entries(entries)
        with_div = eval_complex(ComplexKey(N=N, d=d, insertions=cv.add(1)), ctx)
        base = eval_complex(ComplexKey(N=N, d=d, insertions=cv), ctx)
        assert with_div == d * base


def _random_pivot_rule(rng: random.Random):
    def rule(cv: CodimVector):
        entries = cv.expand()
        picks = rng.sample(range(len(entries)), 3)
        options = []
        for a_i in picks:
            for e_i in picks:
                if e_i == a_i:
                    continue
                (c_i,) = [i for i in picks if i not in (a_i, e_i)]
                if entries[a_i] <= entries[e_i]:
                    options.append((entries[a_i], entries[c_i], entries[e_i]))
        return rng.choice(options)

    return rule


PIVOT_SAMPLE_KEYS = [
    (3, 2, (3, 3, 3, 3)),
    (3, 3, (3, 3, 3, 3, 3, 3)),
    (3, 3, (2, 2, 3, 3, 3, 3, 3)),
    (5, 1, (3, 3, 3, 3)),
    (5, 2, (5, 5, 4, 4)),
    (5, 2, (5, 4, 4, 3, 3)),
    (5, 2, (5, 5, 5, 3)),
    (5, 2, (5, 5, 4, 3, 2)),
]


def test_pivot_independence_randomized():
    canonical = ComplexEvalContext()
    expected = {key: C(canonical, key[0], key[1], *key[2]) for key in PIVOT_SAMPLE_KEYS}
    rng = random.Random(20260814)
    re_evaluations = 0
    for trial in range(4):
        ctx = ComplexEvalContext(pivot_rule=_random_pivot_rule(rng))
        for key in PIVOT_SAMPLE_KEYS:
            assert C(ctx, key[0], key[1], *key[2]) == expected[key], (trial, key)
            re_evaluations += 1
    assert re_evaluations >= 20


def test_wdvv_step_rejects_inadmissible_pivot():
    ctx = ComplexEvalContext()
    cv = CodimVector.of(2, 3, 3, 3, 3, 3, 3)
    with pytest.raises(ValueError):
        wdvv_step(3, 3, cv, (3, 3, 2), ctx)


def test_canonical_pivot_selection():
    assert canonical_pivot(CodimVector.of(2, 3, 5)) == (2, 3, 5)
    assert canonical_pivot(CodimVector.of(3, 3, 3)) == (3, 3, 3)
    assert canonical_pivot(CodimVector.of(2, 2, 4, 5)) == (2, 4, 5)
    for short in (CodimVector(), CodimVector.of(3), CodimVector.of(2, 3)):
        with pytest.raises(ValueError, match="a pivot needs 3 insertions"):
            canonical_pivot(short)


def test_table_shaped_p3_values_nonnegative():
    ctx = ComplexEvalContext()
    for d in range(1, 5):
        for b in range(0, 2 * d + 2):
            a = 4 * d - 2 * b
            if a < 0:
                continue
            entries = [2] * a + [3] * b
            if len(entries) < 1:
                continue
            assert C(ctx, 3, d, *entries) >= 0, (d, a, b)


def test_memo_statistics_track_work():
    ctx = ComplexEvalContext()
    C(ctx, 3, 3, *([3] * 6))
    stats = ctx.stats()
    assert stats["deep_evals"] == stats["memo_size"] > 0
    assert stats["calls"] > stats["deep_evals"]
    before = stats["memo_hits"]
    C(ctx, 3, 3, *([3] * 6))
    assert ctx.stats()["memo_hits"] > before


def test_engine_counters_of_every_balanced_complex_key():
    # Every balanced key of P^3 (d <= 6) and P^5 (d <= 4) in one context,
    # with no real engine involved: each of the 422 memo keys is expanded
    # once, and every other call is a memo hit or a structural end.
    keys = [ComplexKey(N=N, d=d, insertions=cv) for N, top in ((3, 6), (5, 4))
            for d in range(1, top + 1) for cv in complex_codim_vectors(N, d)]
    assert len(keys) == 424
    ctx = ComplexEvalContext()
    for key in keys:
        eval_complex(key, ctx)
    stats = ctx.stats()
    assert tuple(stats[name] for name in ("calls", "memo_hits", "deep_evals", "memo_size")) == (
        31_440, 29_788, 422, 422)
    assert stats["max_depth"] == 1


@pytest.mark.parametrize("engine, dim, d, divisors, core", [
    ("C", 3, 1, 2, (2, 2, 2, 2)),
    ("C", 3, 2, 2, (2, 2, 3, 3, 3)),
    ("C", 3, 1, 1, (3, 3)),  # the core is answered by rule 6, at depth 0
    ("R", 2, 3, 1, (3, 3, 3)),
    ("R", 3, 5, 2, (5, 5, 5, 3, 3)),
    ("R", 2, 1, 1, (3,)),  # the core is answered by rule 5, at depth 0
])
def test_divisor_peel_costs_no_call(engine, dim, d, divisors, core):
    def evaluate(*cs):
        if engine == "C":
            ctx = ComplexEvalContext()
            value = eval_complex(ComplexKey(N=dim, d=d, insertions=CodimVector.of(*cs)), ctx)
        else:
            ctx = RealEvalContext()
            value = eval_real(RealKey(n=dim, d=d, insertions=CodimVector.of(*cs)), ctx)
        return value, ctx.stats()

    value, stats = evaluate(*core)
    peeled, peeled_stats = evaluate(*(1,) * divisors, *core)
    assert value != 0 and peeled == d**divisors * value
    assert peeled_stats == stats  # calls and max_depth included


def test_divisor_lookups_of_solved_cores_skip_the_rules(monkeypatch):
    cv, real_cv = CodimVector.of(*[2] * 8), CodimVector.of(*[3] * 5)
    cctx, rctx = ComplexEvalContext(), RealEvalContext()
    assert cctx.evaluate(3, 2, *cv) == 92 and rctx.evaluate(2, 5, *real_cv) == 5

    def no_rules(*args):
        raise AssertionError("the rules ran for a key with a solved core")

    monkeypatch.setattr(ComplexEvalContext, "rules", staticmethod(no_rules))
    monkeypatch.setattr(RealEvalContext, "rules", staticmethod(no_rules))
    for ctx, dim, d, key, value in ((cctx, 3, 2, cv.add(1, times=2), 368),
                                    (rctx, 2, 5, real_cv.add(1), 25)):
        before = ctx.stats()
        assert ctx.evaluate(dim, d, *key) == value
        after = ctx.stats()
        assert (after["calls"] - before["calls"], after["memo_hits"] - before["memo_hits"]) == (1, 1)


def test_the_rules_see_only_typed_cores(monkeypatch):
    seen = []
    for cls in (ComplexEvalContext, RealEvalContext):
        def rules(dim, d, cv, inner=cls.rules):
            seen.append((d, cv))
            return inner(dim, d, cv)

        monkeypatch.setattr(cls, "rules", staticmethod(rules))
    # <5^3 3^2>_5 of P^5, cold: the driver strips every divisor entry first.
    assert eval_real(RealKey(n=3, d=5, insertions=CodimVector.of(5, 5, 5, 3, 3)),
                     RealEvalContext()) == 1
    assert len(seen) == 40
    assert all(type(cv) is CodimVector and not (d and cv.multiplicity(1)) for d, cv in seen)
    S, terms, ctx = CodimVector.of(5, 3, 3), ((1, (4, 5), ()), (-1, (4,), (5,))), Recorder()
    product_sum(ctx, ctx, 3, 5, 7, S, enumerate_splits(S, 2), 2, terms)
    assert ctx.log and all(type(field) is int for *_, cv in ctx.log for field in cv)


@pytest.mark.parametrize("N, d, twos, depth", [(3, 10, 40, 20), (5, 4, 26, 18)])
def test_max_depth_of_deep_keys(N, d, twos, depth):
    ctx = ComplexEvalContext()
    eval_complex(ComplexKey(N=N, d=d, insertions=CodimVector.of(*[2] * twos)), ctx)
    assert ctx.max_depth == depth


def test_a_raising_pivot_rule_leaves_the_depth_at_zero():
    key = ComplexKey(N=3, d=3, insertions=CodimVector.of(*[2] * 12))
    fresh = ComplexEvalContext()
    eval_complex(key, fresh)
    raised = []

    def pivot(cv):
        if not raised:
            raised.append(cv)
            raise LookupError("no pivot")
        return canonical_pivot(cv)

    ctx = ComplexEvalContext(pivot)
    with pytest.raises(LookupError):
        eval_complex(key, ctx)
    assert ctx.depth == 0 and not ctx.memo
    assert eval_complex(key, ctx) == eval_complex(key, fresh)
    assert ctx.max_depth == fresh.max_depth > 1


def test_keys_nested_past_max_nesting_evaluate_under_a_low_recursion_limit(monkeypatch):
    # <3^200>_100 on P^3 nests 99 complex steps and the real count of degree
    # 141 nests 70 real steps; both need more than 400 frames without the bound.
    limits = set()

    def pivot(cv):
        limits.add(sys.getrecursionlimit())
        return canonical_pivot(cv)

    def designation(cv):
        limits.add(sys.getrecursionlimit())
        return canonical_designation(cv)

    ends = {ComplexEvalContext: 0, RealEvalContext: 0}  # int results of each class's rules
    for cls in ends:
        def rules(*args, inner=cls.rules, cls=cls):
            value = inner(*args)
            ends[cls] += isinstance(value, int)
            return value

        monkeypatch.setattr(cls, "rules", staticmethod(rules))

    def assert_counts_add_up(ctx, ends_of_ctx, calls):
        stats = ctx.stats()
        assert stats["calls"] == stats["memo_hits"] + stats["deep_evals"] + ends_of_ctx == calls

    complex_key = ComplexKey(N=3, d=100, insertions=CodimVector.of(*[3] * 200))
    real_key = RealKey(n=2, d=141, insertions=CodimVector.of(*[3] * 141))
    expected = {"complex": complex_series_p3(100)[0][100],
                "real": (-1) ** 70 * real_series_p3(141)[141]}

    def run(kind):
        if kind == "complex":
            ctx = ComplexEvalContext(pivot)
            return eval_complex(complex_key, ctx), ctx
        ctx = RealEvalContext(ComplexEvalContext(pivot), designation)
        return eval_real(real_key, ctx), ctx

    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        value, cctx = run("complex")
        assert value == expected["complex"]
        assert (cctx.deep_evals, len(cctx.memo), cctx.max_depth) == (198, 198, MAX_NESTING)
        # A lookup aborted at the bound is not a call; its retry is.
        assert_counts_add_up(cctx, ends[ComplexEvalContext], 59_467)
        ends[ComplexEvalContext] = 0
        value, rctx = run("real")
        assert value == expected["real"]
        assert (rctx.deep_evals, len(rctx.memo), rctx.depth) == (70, 70, 0)
        assert (rctx.complex_ctx.deep_evals, len(rctx.complex_ctx.memo)) == (138, 138)
        assert_counts_add_up(rctx, ends[RealEvalContext], 5_106)
        assert_counts_add_up(rctx.complex_ctx, ends[ComplexEvalContext], 33_879)

        results = {}
        threads = [threading.Thread(target=lambda kind=kind: results.update({kind: run(kind)[0]}))
                   for kind in expected]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert results == expected
        assert limits == {400}
    finally:
        sys.setrecursionlimit(saved)
