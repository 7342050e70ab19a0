"""Genus-0 Gromov-Witten invariants of P^N with hyperplane-power insertions.

The invariant <H^{c_1}, ..., H^{c_k}>_d counts rational curves of degree d
meeting k generic linear subspaces of the given codimensions (when the
dimension gap vanishes; otherwise it is 0 by convention).  Evaluation applies
the first matching rule.  The driver (``EvalContext.run``) applies rule 5 to
every key; ``complex_rules`` judges the core it leaves by rules 1-4 and 6:

  1. some c_i > N                -> 0 (the class vanishes)
  2. nonzero dimension gap       -> 0
  3. d = 0                       -> classical triple intersection: 1 iff
                                    k = 3 and c_1+c_2+c_3 = N, else 0
  4. some c_i = 0 and d >= 1     -> 0 (fundamental-class axiom)
  5. m entries c_i = 1, d >= 1   -> d^m * <rest>_d (divisor axiom: the
                                    driver's factor d^m; none at d = 0)
  6. k <= 2 and d >= 1           -> 1: balance forces d = 1 and either
                                    {H^N, H^N} (the line through two points)
                                    or N = 1 and k = 0 (<>_1 of P^1)
  7. otherwise                   -> one solved step of the WDVV exchange
                                    relation (below), then recurse

Step 7 designates a donor slot H^{a+1} (canonically a minimal one), a
receiver slot H^e (canonically a maximal one) and an exchange partner H^c
(canonically the largest of the rest); with S the remaining insertions:

  <H^{a+1}, H^c, H^e, S>_d =
        d * <H^{a+c}, H^e, S>_d
      + <H^a, H^c, H^{e+1}, S>_d
      - d * <H^a, H^{c+e}, S>_d
      + sum over d1+d2 = d (d1, d2 >= 1), splits I+J = S, 0 <= f <= N of
          d2 * <H^a, H^c, I, H^f>_{d1} * <H^{N-f}, J, H^e>_{d2}
        - d1 * <H^a, I, H^f>_{d1} * <H^{N-f}, J, H^c, H^e>_{d2}

as in Kontsevich and Manin's form of the recursion.  Both products are one
function F(K) = <H^a, K, H^f>_{d1} * <H^{N-f}, T - K, H^e>_{d2} of a split K
of T = S + H^c, at K = I + H^c and at K = I, so step 7 sums over the splits
of T once.  With i of the M copies of H^c in T in K, w its weight as a split
of T and u = w * i / M that of K - H^c over S, the first product weighs F(K)
by d2 * u and the second by d1 * (w - u), as C(M-1, i-1) + C(M-1, i) =
C(M, i); d2 = d - d1 makes the coefficient d * u - d1 * w.  Each split of T
comes from a product (i >= 1 or i < M), so each factor is looked up once.
Every step of both engines runs through one loop, ``product_sum``, here with
weight 1, R = T + H^e, h = a, the grouped rows (code, k, total_codim, d * u,
w) of ``enumerate_splits(T, 1, d, c)`` and the three explicit terms above.  It
evaluates only the one (d1, f) per split that balances the left factor: every
other (d1, f) gives 0 by rule 2, and f = 0 or f = N by rule 4.  At d = 1 no
degree split exists, so the step builds no split.

All arithmetic is exact; only the results of step 7 are memoized, keyed on
the core (the cheap structural rules are recomputed on the fly), so the memo
holds exactly the keys whose evaluation required a full expansion.  The
driver strips the m divisor entries of a key and looks up the rest in
``solved``, the values of its own steps.  Each is a core with d >= 1, and H^1
entries keep the dimension balance, so a hit is exactly a key whose core was
solved, and its value is d^m times the stored one.  Only a miss runs the
rules, on the core.  A step is a generator: it yields each lookup but a split
factor in ``solved`` as one flat request (ctx, dim, d, code, k, total), is
sent its value and returns its own.  One loop, ``EvalContext.run``, drives
every step; a miss starts its core's step while the steps that wait on it stay
on a list, so no key recurses through Python frames.  ``max_depth`` is the
deepest nesting of a context's own steps, not of another engine's context's.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable

from .keys import B, MASK, CodimVector, ComplexKey, _new, enumerate_splits

__all__ = [
    "ComplexEvalContext",
    "canonical_pivot",
    "complex_rules",
    "eval_complex",
    "wdvv_step",
]

PivotRule = Callable[[CodimVector], tuple[int, int, int]]
Step = Generator[tuple, int, int]  # yields lookup requests, is sent their values
# Memo key of both engines: (dimension, degree, packed code of the CodimVector).
MemoKey = tuple[int, int, int]


def _largest_two(code: int) -> tuple[int, int]:  # canonical pivot's (e, c), designation's (c1, c2)
    top = (code.bit_length() - 1) // B
    return top, ((code - (1 << B * top)).bit_length() - 1) // B  # one top removed: may equal top


def canonical_pivot(cv: CodimVector) -> tuple[int, int, int]:
    """Default pivot: donate from a minimal slot into a maximal one.

    Returns (a+1, c, e) where a+1 is the minimal codimension, e the maximal
    one, and c the largest codimension among the remaining insertions.
    """
    if cv.k < 3:
        raise ValueError(f"a pivot needs 3 insertions, got {cv.k}")
    e, c = _largest_two(cv[0])
    return ((cv[0] & -cv[0]).bit_length() - 1) // B, c, e


def complex_rules(N: int, d: int, cv: CodimVector) -> int | None:
    """Rules 1-4 and 6 for the core <cv>_d on P^N: its value, or None (a step)."""
    code, k, total = cv
    if code >> B * (N + 1) or (N + 1) * d + N - 3 + k - total:
        return 0
    if d == 0:
        return 1 if k == 3 and total == N else 0
    if code & MASK:
        return 0
    return 1 if k <= 2 else None


class EvalContext:
    """Memo table, counters and the evaluation driver of both engines.

    A subclass supplies its pure ``rules`` and its ``step(dim, d, core)``, a
    generator of requests (module docstring).  ``run`` takes a request's
    code, k and total_codim as three ints, strips its m divisor entries if
    d >= 1 and hands ``rules`` the core left, typed as a ``CodimVector``;
    ``rules`` returns the core's value or None (it needs a step), and the
    key's value is d^m times the core's.  ``solved`` holds the values of this
    context's own steps, all cores; ``memo`` holds them and any warmed ones.
    Each lookup ends as a memo hit (``hits``, counted here or, for a split
    factor in ``solved``, in ``product_sum``), a structural end (``ends``) or
    a deep evaluation, and ``calls`` in ``stats`` is their sum.  Nothing is
    locked: one thread uses a context.
    """

    __slots__ = ("memo", "solved", "hits", "ends", "deep_evals", "depth", "max_depth")

    def __init__(self) -> None:
        self.memo: dict[MemoKey, int] = {}
        self.solved: dict[MemoKey, int] = {}
        self.hits = self.ends = self.deep_evals = 0
        self.depth = self.max_depth = 0

    def evaluate(self, dim: int, d: int, code: int, k: int, total: int) -> int:
        """<(code, k, total)>_d in one call: a divisor peel is the factor d^m, not a call."""
        return self.run(_ask(self, dim, d, code, k, total))

    def run(self, gen: Step) -> int:
        """Drive ``gen`` to its value; a miss starts its core's step in the request's context."""
        new, cv_type, b, mask = _new, CodimVector, B, MASK
        suspended = []  # (waiting generator, started step's context, memo key, d, m)
        value = None
        try:
            while True:
                try:
                    ctx, dim, d, code, k, total = gen.send(value)
                except StopIteration as done:
                    if not suspended:
                        return done.value
                    gen, ctx, key, d, m = suspended.pop()
                    ctx.memo[key] = ctx.solved[key] = value = done.value
                    ctx.deep_evals += 1
                    ctx.depth -= 1
                    value *= d**m
                    continue
                m = (code >> b) & mask if d else 0  # the divisor axiom needs d >= 1
                code -= m << b
                key = (dim, d, code)
                value = ctx.solved.get(key)
                if value is not None:  # a solved key is a core: the key is it plus m divisors
                    ctx.hits += 1
                else:
                    core = new(cv_type, (code, k - m, total - m))
                    value = ctx.rules(dim, d, core)
                    if value is not None:
                        ctx.ends += 1
                    elif (value := ctx.memo.get(key)) is not None:
                        ctx.hits += 1
                    else:
                        step = ctx.step(dim, d, core)  # before the push: a raise leaves none
                        suspended.append((gen, ctx, key, d, m))
                        gen, value = step, None
                        ctx.depth += 1
                        ctx.max_depth = max(ctx.max_depth, ctx.depth)
                        continue
                value *= d**m
        finally:
            for _, ctx, *_ in suspended:
                ctx.depth -= 1

    def stats(self) -> dict[str, int]:
        return {
            "calls": self.hits + self.deep_evals + self.ends,
            "memo_hits": self.hits,
            "deep_evals": self.deep_evals,
            "memo_size": len(self.memo),
            "max_depth": self.max_depth,
        }


class ComplexEvalContext(EvalContext):
    """Session-scoped evaluation state of the complex engine and its pivot rule.

    A custom ``pivot_rule`` may pick any admissible pivot: the three
    designated slots must be present in the multiset and the donor
    codimension a+1 must not exceed the receiver codimension e (that ordering
    is what makes the recursion terminate).
    """

    __slots__ = ("pivot_rule",)
    rules = staticmethod(complex_rules)

    def __init__(self, pivot_rule: PivotRule | None = None) -> None:
        super().__init__()
        self.pivot_rule = pivot_rule or canonical_pivot

    def step(self, N: int, d: int, cv: CodimVector) -> Step:
        return wdvv_step(N, d, cv, self.pivot_rule(cv), self)


def eval_complex(key: ComplexKey, ctx: ComplexEvalContext) -> int:
    """Exact value of a complex invariant key (keys validate on construction)."""
    return ctx.evaluate(key.N, key.d, *key.insertions)


def wdvv_step(
    N: int,
    d: int,
    cv: CodimVector,
    pivot: tuple[int, int, int],
    ctx: ComplexEvalContext,
) -> Step:
    """One solved step of the exchange relation with an explicit pivot.

    ``pivot`` = (a+1, c, e) must name slots present in ``cv``; requires
    a+1 <= e so that the k-preserving term strictly spreads the codimension
    profile and the recursion terminates.  Exposed separately so tests can
    run keys under arbitrary admissible pivots, through ``ctx.run``.
    """
    a1, c, e = pivot
    if a1 > e:
        raise ValueError(f"inadmissible pivot: donor {a1} exceeds receiver {e}")
    R, a = cv.remove(a1), a1 - 1
    T = R.remove(e)
    S = T.remove(c)
    explicit = ((d, S.add_all((a + c, e))), (1, S.add_all((a, c, e + 1))),
                (-d, S.add_all((a, c + e))))
    splits = enumerate_splits(T, 1, d, c) if d > 1 else ()  # d1 + d2 = d, d1, d2 >= 1
    return product_sum(ctx, ctx, N, N, d, R, splits, 1, a, explicit)


def product_sum(lctx: EvalContext, rctx: EvalContext, rdim: int, N: int, d: int,
                R: CodimVector, splits: Iterable[tuple[tuple[int, ...], tuple]], weight: int,
                h: int, explicit: Iterable[tuple[int, CodimVector]]) -> Step:
    """A step: sum of c * <v>_d over ``explicit`` (c, v) pairs, looked up in
    ``rctx`` on ``rdim``, plus the folded degeneration sum over a diagonal of
    P^N: sum of (a - b * d1) * <H^h, K, H^x>_{d1} * <R - K, H^(N-x)>_{d2} over
    the grouped ``splits`` K (code, k, total_codim, a, b) of a part of R,
    degrees weight*d1 + d2 = d with d1, d2 >= 1 and classes 0 < x < N, x a
    multiple of ``weight`` (1 for a complex sum, 2 for a real one).  The left
    factor is balanced only at (-d1, x) = divmod(N - 1 - h + k(K) - sum(K),
    N + 1), so each split is solved once.  It is looked up in ``lctx`` on P^N
    and, if it is nonzero, the right one, whose fields are R's less K's, in
    ``rctx`` on ``rdim``, here if its core is solved and else by the driver.
    """
    total = 0
    for coefficient, (code, k, codim) in explicit:
        total += coefficient * (yield rctx, rdim, d, code, k, codim)
    shift, lcode, rcode, rk, rt = N - 1 - h, 1 << B * h, R[0], R[1] + 1, R[2] + N
    lsolved, rsolved, b, mask = lctx.solved, rctx.solved, B, MASK
    for (pcode, pk, ptotal, pa, pb), table in splits:
        base = shift + pk - ptotal
        for ccode, i, ci, ai, bi in table:
            q, x = divmod(base + i - ci, N + 1)
            if 0 < -weight * q < d and 0 < x < N and x % weight == 0:
                kcode, kk, ktotal = pcode + ccode, pk + i, ptotal + ci
                code = kcode + lcode + (1 << b * x)  # d1, d2 >= 1: peel H^1s as the driver does
                m = code >> b & mask
                if (t := lsolved.get((N, -q, code - (m << b)))) is None:
                    t = yield lctx, N, -q, code, kk + 2, ktotal + h + x
                else:
                    lctx.hits += 1
                    t *= (-q)**m
                if t:  # the right factor: R - K and H^(N-x)
                    d2, code = d + weight * q, rcode - kcode + (1 << b * (N - x))
                    m = code >> b & mask
                    if (r := rsolved.get((rdim, d2, code - (m << b)))) is None:
                        r = yield rctx, rdim, d2, code, rk - kk, rt - ktotal - x
                    else:
                        rctx.hits += 1
                        r *= d2**m
                    total += (pa * ai + pb * bi * q) * t * r
    return total


def _ask(*request: object) -> Step:
    """A generator of the one lookup ``request``, whose value is the lookup's."""
    return (yield request)
