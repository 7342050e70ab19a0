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
    theorem12_residual,
)
from gwcount import complex_engine, real_engine
from gwcount.complex_engine import product_sum, wdvv_step
from gwcount.checks import theorem12_samples
from gwcount.keys import B, MASK, enumerate_splits
from gwcount.p3 import (complex_codim_vectors, real_codim_vectors,
                        real_series_p3)

from golden import COMPLEX_P3_N, COMPLEX_P3_NTILDE, KONTSEVICH_P2, SCHUBERT_P3_LINES, TABLE2_P5


def C(ctx, N, d, *cs):
    return eval_complex(ComplexKey(N=N, d=d, insertions=CodimVector.of(*cs)), ctx)


class Recorder:
    """A stand-in context: ``run`` drives a step, and ``evaluate`` logs each of
    its lookups as (dim, d, (code, k, total)) and answers ``value`` of it, a
    fixed function that is 0 for some lookups.  It has solved no key, so
    ``product_sum`` answers none of its lookups in place."""

    def __init__(self) -> None:
        self.log: list = []
        self.solved: dict = {}
        self.hits = 0

    @staticmethod
    def value(dim: int, d: int, cv) -> int:
        return (cv[0] + cv[1] + d) % 5 - 2

    def evaluate(self, dim: int, d: int, code: int, k: int, total: int) -> int:
        self.log.append((dim, d, (code, k, total)))
        return self.value(dim, d, (code, k, total))

    def run(self, step) -> int:
        value = None
        try:
            while True:
                ctx, *request = step.send(value)
                assert ctx is self
                value = self.evaluate(*request)
        except StopIteration as done:
            return done.value


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
    for N, combo, expect in ((1023, (1023, 512, 512), 1), (255, (128,) * 4, 128)):
        ctx = ComplexEvalContext()
        assert schubert_line_count(N, list(combo)) == expect
        assert C(ctx, N, 1, *combo) == expect, (N, combo)
    # The last key nests 128 steps, one per codimension the donor gives up.
    stats = ctx.stats()
    assert (stats["calls"], stats["memo_hits"], stats["deep_evals"], stats["max_depth"]) == (
        6_622, 64, 2_207, 128)


def test_a_step_that_cannot_split_its_degree_draws_no_split(monkeypatch):
    # A degree-1 step has no degrees d1, d2 >= 1 to split into, complex
    # (d1 + d2 = 1) or real (2 * d1 + d2 = 1), so it builds no split at all.
    # A plain wrapper counts each call, whether or not its rows are read.
    drawn = []
    for module in (complex_engine, real_engine):
        def counted(*args, inner=module.enumerate_splits):
            drawn.append(args)
            return inner(*args)

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
        23_600, 22_079, 422, 422)
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
    assert len(seen) == 39
    assert all(type(cv) is CodimVector and not (d and cv.multiplicity(1)) for d, cv in seen)
    T, ctx = CodimVector.of(5, 5, 3, 3), Recorder()  # a real step's splits, H^5 moved
    ctx.run(product_sum(ctx, ctx, 3, 5, 7, T, enumerate_splits(T, 2, 7, 5), 2, 4, ()))
    assert ctx.log and all(type(field) is int for *_, cv in ctx.log for field in cv)


def _yielding_product_sum(lctx, rctx, rdim, N, d, R, splits, weight, h, explicit):
    """The reference split loop: ``product_sum`` as it was before it answered
    solved factors in place.  It reads the same groups and yields every lookup."""
    total = 0
    for coefficient, (code, k, codim) in explicit:
        total += coefficient * (yield rctx, rdim, d, code, k, codim)
    shift, lcode, rcode, rk, rt = N - 1 - h, 1 << B * h, R[0], R[1] + 1, R[2] + N
    for (pcode, pk, ptotal, pa, pb), table in splits:
        for ccode, i, ci, ai, bi in table:
            kcode, kk, ktotal, a, b = pcode + ccode, pk + i, ptotal + ci, pa * ai, pb * bi
            q, x = divmod(shift + kk - ktotal, N + 1)
            if 0 < -weight * q < d and 0 < x < N and x % weight == 0:
                t = yield lctx, N, -q, kcode + lcode + (1 << B * x), kk + 2, ktotal + h + x
                if t:
                    total += (a + b * q) * t * (yield rctx, rdim, d + weight * q,
                                                rcode - kcode + (1 << B * (N - x)), rk - kk,
                                                rt - ktotal - x)
    return total


def _watched(inner, crossed):
    """``inner`` with a log of whether each factor it yields (its explicit
    terms aside) was already solved, its H^1 entries peeled, when it crossed."""
    def product_sum(*args):
        gen, value, skip = inner(*args), None, len(args[-1])
        while True:
            try:
                request = gen.send(value)
            except StopIteration as done:
                return done.value
            ctx, dim, d, code, *_ = request
            m = code >> B & MASK
            if skip:
                skip -= 1
            else:
                crossed.append((m, (dim, d, code - (m << B)) in ctx.solved))
            value = yield request

    return product_sum


def _p7_sweep(cctx, rctx):
    return [eval_real(RealKey(n=4, d=d, insertions=cv), rctx)
            for d in (1, 3, 5, 7, 9) for cv in real_codim_vectors(4, d)]


def _transfers(cctx, rctx):
    return [theorem12_residual(*sample, rctx) for sample in theorem12_samples()]


def _complex_keys(cctx, rctx):
    return [C(cctx, N, d, *cv.expand()) for N in (3, 4, 5) for d in (1, 2, 3)
            for cv in complex_codim_vectors(N, d)]


def _donor_twos(cctx, rctx):
    # The canonical donor is a minimal slot, here H^2, so a = 1 and the left
    # factors carry H^1: the in-place lookups must peel it.
    return [C(cctx, 3, d, *[2] * (4 * d)) for d in (1, 2, 3, 4)] + \
        [C(cctx, 4, 3, 2, 2, 2, 4, 4, 4, 4, 4, 4)]


@pytest.mark.parametrize("run", [_complex_keys, _p7_sweep, _transfers, _donor_twos])
def test_in_loop_hits_agree_with_the_driver(monkeypatch, run):
    # A cold context pair, once with the split loop answering solved factors
    # in place and once with the reference loop, which yields every factor to
    # the driver: the same values and the same five counters on each
    # context, so each hit counts on the context that answered it.
    results, crossed = [], {}
    for name, inner in (("in place", product_sum), ("reference", _yielding_product_sum)):
        crossed[name] = []
        for module in (complex_engine, real_engine):
            monkeypatch.setattr(module, "product_sum", _watched(inner, crossed[name]))
        cctx = ComplexEvalContext()
        rctx = RealEvalContext(cctx)
        results.append((run(cctx, rctx), cctx.stats(), rctx.stats()))
    assert results[0] == results[1]
    # The reference loop sends solved factors, some with H^1 entries, to the
    # driver; the in-place loop answers every one of them itself.
    assert any(solved for _, solved in crossed["reference"])
    assert not any(solved for _, solved in crossed["in place"])
    if run is _donor_twos:
        assert any(m and solved for m, solved in crossed["reference"])


@pytest.mark.parametrize("run", [_complex_keys, _p7_sweep, _transfers, _donor_twos])
def test_the_view_cache_changes_nothing(monkeypatch, run):
    # The same keys on cold context pairs: with every step's views of the
    # balanced rows built afresh, then warming them, then reading them warm.
    def cleared(*args):
        complex_engine._balanced_rows.cache_clear()
        return product_sum(*args)

    results = []
    for split_loop in (cleared, product_sum, product_sum):
        for module in (complex_engine, real_engine):
            monkeypatch.setattr(module, "product_sum", split_loop)
        misses = complex_engine._balanced_rows.cache_info().misses
        cctx = ComplexEvalContext()
        rctx = RealEvalContext(cctx)
        results.append((run(cctx, rctx), cctx.stats(), rctx.stats()))
    assert results[0] == results[1] == results[2]
    assert complex_engine._balanced_rows.cache_info().misses == misses  # the last run read warm


def test_a_view_past_the_cap_is_not_retained():
    # A kept view holds at most _MAX_VIEW_ROWS = 512 rows, in a cache of a
    # fixed size: the table of m copies asks for a view of 2^bit_length(m) rows.
    assert complex_engine._balanced_rows.cache_info().maxsize == 256
    rows = complex_engine._MAX_VIEW_ROWS
    for m, kept in ((rows - 1, 1), (rows, 0)):
        T, results = CodimVector.of(*[3] * m), []
        complex_engine._balanced_rows.cache_clear()
        for loop in (product_sum, _yielding_product_sum):
            ctx = Recorder()
            value = ctx.run(loop(ctx, ctx, 3, 3, 9, T, enumerate_splits(T, 1, 9, 3), 1, 1, ()))
            results.append((ctx.log, value))
        assert complex_engine._balanced_rows.cache_info().currsize == kept
        assert results[0][0] and results[0] == results[1]


@pytest.mark.parametrize("N, d, twos, depth", [(3, 10, 40, 20), (5, 4, 26, 18)])
def test_max_depth_of_deep_keys(N, d, twos, depth):
    ctx = ComplexEvalContext()
    eval_complex(ComplexKey(N=N, d=d, insertions=CodimVector.of(*[2] * twos)), ctx)
    assert ctx.max_depth == depth


def test_a_raising_pivot_rule_leaves_the_depth_at_zero():
    # The rule raises on its first call, before any step runs, or on its
    # fourth, while two real steps and one complex step wait on the driver.
    for engine, raise_at, depths in (("complex", 1, [0]), ("real", 4, [2, 1])):
        depths_at_raise = []

        def pivot(cv):
            if len(depths_at_raise) + 1 == raise_at:
                depths_at_raise.append([c.depth for c in contexts])
                raise LookupError("no pivot")
            depths_at_raise.append(None)
            return canonical_pivot(cv)

        if engine == "complex":
            key, evaluate = ComplexKey(N=3, d=3, insertions=CodimVector.of(*[2] * 12)), eval_complex
            fresh, ctx = ComplexEvalContext(), ComplexEvalContext(pivot)
            contexts, fresh_contexts = [ctx], [fresh]
        else:
            key, evaluate = RealKey(n=2, d=9, insertions=CodimVector.of(*[3] * 9)), eval_real
            fresh, ctx = RealEvalContext(), RealEvalContext(ComplexEvalContext(pivot))
            contexts, fresh_contexts = [ctx, ctx.complex_ctx], [fresh, fresh.complex_ctx]
        value = evaluate(key, fresh)
        with pytest.raises(LookupError):
            evaluate(key, ctx)
        assert depths_at_raise[-1] == depths, engine
        assert all(c.depth == 0 for c in contexts), engine
        assert bool(ctx.memo) == (raise_at > 1)  # steps that returned before the raise keep theirs
        assert evaluate(key, ctx) == value
        assert [c.max_depth for c in contexts] == [c.max_depth for c in fresh_contexts], engine
        assert all(c.max_depth > 1 for c in contexts), engine


def _frame_depth() -> int:
    """The number of Python frames under the caller's, its own included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_no_step_recurses_under_a_low_recursion_limit(monkeypatch):
    # <3^200>_100 on P^3 nests 99 complex steps and the real count of degree
    # 141 nests 70 real steps. One loop drives every step, so each runs at
    # the same Python frame depth, and both keys fit a recursion limit of 100.
    limits = set()
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
        depths = set()  # the frame depth of every pivot and designation call

        def recorded(rule):
            def slots(cv):
                limits.add(sys.getrecursionlimit())
                depths.add(_frame_depth())
                return rule(cv)
            return slots

        pivot = recorded(canonical_pivot)
        if kind == "complex":
            ctx = ComplexEvalContext(pivot)
            return eval_complex(complex_key, ctx), ctx, depths
        ctx = RealEvalContext(ComplexEvalContext(pivot), recorded(canonical_designation))
        return eval_real(real_key, ctx), ctx, depths

    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        value, cctx, depths = run("complex")
        assert value == expected["complex"] and len(depths) == 1
        assert (cctx.deep_evals, len(cctx.memo), cctx.max_depth, cctx.depth) == (198, 198, 99, 0)
        assert_counts_add_up(cctx, ends[ComplexEvalContext], 29_802)
        ends[ComplexEvalContext] = 0
        value, rctx, depths = run("real")
        assert value == expected["real"] and len(depths) == 1
        assert (rctx.deep_evals, len(rctx.memo), rctx.max_depth, rctx.depth) == (70, 70, 70, 0)
        assert (rctx.complex_ctx.deep_evals, len(rctx.complex_ctx.memo)) == (138, 138)
        assert_counts_add_up(rctx, ends[RealEvalContext], 2_556)
        assert_counts_add_up(rctx.complex_ctx, ends[ComplexEvalContext], 17_183)

        results = {}
        threads = [threading.Thread(target=lambda kind=kind: results.update({kind: run(kind)}))
                   for kind in expected]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert {kind: value for kind, (value, _, _) in results.items()} == expected
        assert all(len(depths) == 1 for _, _, depths in results.values())
        assert limits == {100}
    finally:
        sys.setrecursionlimit(saved)
