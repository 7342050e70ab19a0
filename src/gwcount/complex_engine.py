"""Genus-0 Gromov-Witten invariants of P^N with hyperplane-power insertions.

The invariant <H^{c_1}, ..., H^{c_k}>_d counts rational curves of degree d
meeting k generic linear subspaces of the given codimensions (when the
dimension gap vanishes; otherwise it is 0 by convention).  Evaluation applies
the first matching rule.  The driver (``EvalContext.evaluate``) applies rule 5
to every key; ``complex_rules`` judges the core it leaves by rules 1-4 and 6:

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

Each product of the relation carries one H^1 of its own, which stays in its
term; the driver peels it by the divisor axiom as the weight d2 or d1, as in
Kontsevich and Manin's form of the recursion.  Every split sum of both
engines runs through one loop, ``product_sum(lctx, rctx, rdim, N, d, S,
splits, weight, terms)``, here with weight 1.  A split is its part I alone,
and J = S - I is read off S's fields.  The loop evaluates the sum only at the
one (d1, f) per split and term that balances the left factor: every other
(d1, f) gives 0 by rule 2, and f = 0 or f = N by rule 4.  At d = 1 no degree
split exists, so it draws no split.

All arithmetic is exact; only the results of step 7 are memoized, keyed on
the core (the cheap structural rules are recomputed on the fly), so the memo
holds exactly the keys whose evaluation required a full expansion.  The
driver strips the m divisor entries of a key and looks up the rest in
``solved``, the values of its own steps.  Each is a core with d >= 1, and H^1
entries keep the dimension balance, so a hit is exactly a key whose core was
solved, and its value is d^m times the stored one.  Only a miss runs the
rules, on the core.  The driver also holds the nesting depth of its own steps;
``max_depth`` is the deepest it reached, and steps of another engine's
context do not count.

The driver bounds that nesting, so deep keys need no raised recursion limit.
A memo miss MAX_NESTING steps deep does not recurse: it names its core to the
context's outermost step, whose frame solves that core first, from depth 0,
and then runs its own step again, on memo hits where it had got to.  Each
step nests four frames, and only real steps nest complex ones, so at most
2 * 64 * 4 = 512 frames are in use.  For a key that nests past MAX_NESTING
steps, a lookup aborted at the bound is no call, ``calls`` and ``memo_hits``
include the retried lookups, and ``max_depth`` reads at most MAX_NESTING;
``deep_evals`` and the memo do not change.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .keys import B, MASK, CodimVector, ComplexKey, _new, enumerate_splits

__all__ = [
    "ComplexEvalContext",
    "canonical_pivot",
    "complex_rules",
    "eval_complex",
    "wdvv_step",
]

# Steps a context nests before a miss is solved from its outermost step instead.
MAX_NESTING = 64

PivotRule = Callable[[CodimVector], tuple[int, int, int]]
# Memo key of both engines: (dimension, degree, packed code of the CodimVector).
MemoKey = tuple[int, int, int]


def canonical_pivot(cv: CodimVector) -> tuple[int, int, int]:
    """Default pivot: donate from a minimal slot into a maximal one.

    Returns (a+1, c, e) where a+1 is the minimal codimension, e the maximal
    one, and c the largest codimension among the remaining insertions.
    """
    if cv.k < 3:
        raise ValueError(f"a pivot needs 3 insertions, got {cv.k}")
    e = (cv[0].bit_length() - 1) // B
    c = ((cv[0] - (1 << B * e)).bit_length() - 1) // B  # one e removed, so c may equal e
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


class _TooDeep(Exception):
    """A memo miss MAX_NESTING steps deep: args are its context and its key."""


class EvalContext:
    """Memo table, counters and the evaluation driver of both engines.

    A subclass supplies its recursion ``step`` and its pure ``rules``.  Only
    ``evaluate`` reads a key's shape: it takes its code, k and total_codim as
    three ints, strips its m divisor entries if d >= 1 and hands ``rules`` the
    core left, typed as a ``CodimVector``; ``rules`` returns the core's value or
    None (it needs a step), and the key's value is d^m times the core's.
    ``solved`` holds the values of this context's own steps, all cores;
    ``memo`` holds them and any warmed ones.  Counting happens only in
    ``evaluate``: each lookup ends as a memo hit (``hits``), a structural end
    (``ends``) or a deep evaluation, and ``calls`` in ``stats`` is their sum.
    Steps nest at most MAX_NESTING deep, as the module docstring describes.
    Nothing is locked: one thread uses a context.
    """

    __slots__ = ("memo", "solved", "hits", "ends", "deep_evals", "depth", "max_depth")

    def __init__(self) -> None:
        self.memo: dict[MemoKey, int] = {}
        self.solved: dict[MemoKey, int] = {}
        self.hits = self.ends = self.deep_evals = 0
        self.depth = self.max_depth = 0

    def evaluate(self, dim: int, d: int, code: int, k: int, total: int) -> int:
        """<(code, k, total)>_d in one call: a divisor peel is the factor d^m, not a call."""
        m = (code >> B) & MASK if d else 0  # the divisor axiom needs d >= 1
        code -= m << B
        value = self.solved.get((dim, d, code))
        if value is not None:  # every solved key is a core: the key is it plus m divisor entries
            self.hits += 1
            return d**m * value
        core = _new(CodimVector, (code, k - m, total - m))
        value = self.rules(dim, d, core)
        if value is not None:
            self.ends += 1
        elif (value := self.memo.get((dim, d, code))) is not None:
            self.hits += 1
        elif self.depth == MAX_NESTING:
            raise _TooDeep(self, (dim, d, core))
        else:
            self.depth += 1
            self.max_depth = max(self.max_depth, self.depth)
            pending = [(dim, d, core)]  # cores to solve, last first; only the outermost adds
            try:
                while pending:
                    key = pending[-1]
                    try:
                        value = self.step(*key)
                    except _TooDeep as deeper:
                        if self.depth > 1 or deeper.args[0] is not self:  # not the outermost
                            raise
                        pending.append(deeper.args[1])
                        continue
                    memo_key = (key[0], key[1], key[2][0])
                    self.memo[memo_key] = self.solved[memo_key] = value
                    self.deep_evals += 1
                    pending.pop()
            finally:
                self.depth -= 1
        return d**m * value

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

    def step(self, N: int, d: int, cv: CodimVector) -> int:
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
) -> int:
    """One solved step of the exchange relation with an explicit pivot.

    ``pivot`` = (a+1, c, e) must name slots present in ``cv``; requires
    a+1 <= e so that the k-preserving term strictly spreads the codimension
    profile and the recursion terminates.  Exposed separately so tests can
    re-evaluate keys under arbitrary admissible pivots.
    """
    a1, c, e = pivot
    if a1 > e:
        raise ValueError(f"inadmissible pivot: donor {a1} exceeds receiver {e}")
    S = cv.remove(a1).remove(c).remove(e)
    a = a1 - 1
    total = d * ctx.evaluate(N, d, *S.add_all((a + c, e)))
    total += ctx.evaluate(N, d, *S.add_all((a, c, e + 1)))
    total -= d * ctx.evaluate(N, d, *S.add_all((a, c + e)))
    terms = ((1, (a, c), (e, 1)), (-1, (a, 1), (c, e)))
    return total + product_sum(ctx, ctx, N, N, d, S, enumerate_splits(S, 1), 1, terms)


def product_sum(lctx: EvalContext, rctx: EvalContext, rdim: int, N: int, d: int,
                S: CodimVector, splits: Iterable[tuple[int, ...]], weight: int,
                terms: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]) -> int:
    """The degeneration sum over a diagonal of P^N: sum of sign * w *
    <I + left_extra + H^x>_{d1} * <S - I + right_extra + H^(N-x)>_{d2}.

    It runs over the splits (I's code, k, total_codim, w) of S from
    ``enumerate_splits``, ``terms`` (sign, left_extra, right_extra), degrees
    weight*d1 + d2 = d with d1, d2 >= 1 and diagonal classes 0 < x < N,
    x a multiple of ``weight`` (1 for a complex sum, 2 for a real one).  With
    L = I + left_extra, the left factor <L, H^x>_{d1} is balanced only at
    (-d1, x) = divmod(N - 2 + k(L) - sum(L), N + 1), so each split and term is
    solved once.  The left factor is looked up in ``lctx`` on P^N and, if it is
    nonzero, the right one, whose fields are S's less I's, in ``rctx`` on
    ``rdim``, each by one ``evaluate(dim, d, code, k, total)`` call, which
    counts it, types its core and peels its H^1 entries (a term's weight d1 or
    d2).  When d <= weight no degree split exists, and no split is drawn.
    """
    if d <= weight:
        return 0
    solved = [(sign, N - 2 + len(lx) - sum(lx), sum([1 << B * c for c in lx]), len(lx) + 1,
               sum(lx), S[0] + sum([1 << B * c for c in rx]), S[1] + len(rx) + 1,
               S[2] + sum(rx) + N) for sign, lx, rx in terms]
    total = 0
    for icode, ik, itotal, w in splits:
        for sign, shift, lcode, lk, lt, rcode, rk, rt in solved:
            q, x = divmod(shift + ik - itotal, N + 1)
            if 0 < -weight * q < d and 0 < x < N and x % weight == 0:
                t = lctx.evaluate(N, -q, icode + lcode + (1 << B * x), ik + lk, itotal + lt + x)
                if t:  # the right factor: S - I, right_extra and H^(N-x)
                    total += sign * w * t * rctx.evaluate(
                        rdim, d + weight * q, rcode - icode + (1 << B * (N - x)), rk - ik,
                        rt - itotal - x)
    return total
