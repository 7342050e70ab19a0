"""Real genus-0 invariants of odd projective spaces P^{2n-1}.

The invariant <c_1, ..., c_k>_d is a signed count of real rational curves of
degree d through a generic real collection of linear subspaces (points, when
c_i = 2n-1), normalized so that the line through a point and its conjugate
counts as +1.  The value is identical for both standard anti-holomorphic
involutions on P^{2n-1}, so the ``phi`` tag on keys never enters evaluation.

Evaluation applies the first matching rule.  The driver applies rule 4 to
every key; ``real_rules`` judges the core it leaves by rules 1-3 and 5:

  1. d even, or some c_i even     -> 0 (conjugation-odd configurations cancel)
  2. some c_i > 2n-1              -> 0
  3. nonzero dimension gap        -> 0
  4. m entries c_i = 1            -> d^m * <rest>_d (divisor relation: the
                                     driver's factor d^m; balance leaves
                                     rest an entry above 1)
  5. k = 1                        -> 1 iff d = 1 and c_1 = 2n-1, else 0
  6. otherwise                    -> one step of the degree-lowering
                                     recursion (below)

Step 6 designates a pair (c_1, c_2) (canonically the two largest entries);
with ``rest`` the remaining insertions, N = 2n-1, and splits I+J of ``rest``
weighted 2 per element routed into I:

  <c_1, c_2, rest>_d =
        d * <c_1 + c_2 - 1, rest>_d
      + sum over 2*d1 + d2 = d (d1, d2 >= 1), splits I+J, 2i + j = N
        (i, j >= 1) of
          d2 * <c_1 - 1, c_2, I, 2i>^C_{d1} * <J, j>_{d2}
        - d1 * <c_1 - 1, I, 2i>^C_{d1} * <c_2, J, j>_{d2}

where <...>^C are complex invariants of P^{2n-1} evaluated by the shared
complex engine.  Step 6 folds its products as step 7 does, over the grouped
rows (code, k, total_codim, d * u, w) of ``enumerate_splits(T, 2, d, c_2)``,
T = rest + c_2: d2 = d - 2 * d1 makes the coefficient d * u - d1 * w.  Step
6 and ``theorem12_residual`` run through ``complex_engine.product_sum``,
which solves each split's one balanced (d1, 2i), walking only the table rows
whose 2i is admissible, with weight 2 and their other lookups as its explicit
terms; below d = 3 neither builds a split.
``EvalContext.run`` drives the real steps and the complex ones they start in
one loop.  Only step-6 results are memoized, keyed on (n, d, core insertions).
"""

from __future__ import annotations

from collections.abc import Callable

from .complex_engine import ComplexEvalContext, EvalContext, Step, _largest_two, product_sum
from .keys import B, MASK, MAX_CODIM, CodimVector, RealKey, enumerate_splits

__all__ = [
    "RealEvalContext",
    "canonical_designation",
    "eval_real",
    "real_rules",
    "recursion_step",
    "theorem12_residual",
]

DesignationRule = Callable[[CodimVector], tuple[int, int]]
# MASK in the digit of every even class up to MAX_CODIM, above every real target's
# top: the two-digit pattern (even digit MASK, odd digit 0), repeated.
_EVEN_CLASSES = int.from_bytes(MASK.to_bytes(B // 4, "little") * (MAX_CODIM // 2 + 1), "little")


def canonical_designation(cv: CodimVector) -> tuple[int, int]:
    """Default designated pair: the largest entry, then the largest remaining."""
    if cv.k < 2:
        raise ValueError(f"a designated pair needs 2 insertions, got {cv.k}")
    return _largest_two(cv[0])


def real_rules(n: int, d: int, cv: CodimVector) -> int | None:
    """Rules 1-3 and 5 for the core <cv>_d on P^{2n-1}: its value, or None (a step)."""
    code, k, total = cv
    top = 2 * n - 1
    if (d % 2 == 0 or code & _EVEN_CLASSES or code >> B * (top + 1)
            or n * (d + 1) - 2 + k - total):
        return 0
    if k == 1:
        return 1 if d == 1 and code >> B * top else 0
    return None


class RealEvalContext(EvalContext):
    """Evaluation state for the real engine plus a shared complex context.

    Real evaluation constantly needs complex invariants of the same target,
    so the context owns (or borrows) a ComplexEvalContext and both memos
    persist together for a session.  A custom ``designation_rule`` may pick
    any ordered pair of slots present in the multiset; every choice
    terminates because each recursive call lowers (d, k) lexicographically.
    """

    __slots__ = ("complex_ctx", "designation_rule")
    rules = staticmethod(real_rules)

    def __init__(
        self,
        complex_ctx: ComplexEvalContext | None = None,
        designation_rule: DesignationRule | None = None,
    ) -> None:
        super().__init__()
        self.complex_ctx = complex_ctx if complex_ctx is not None else ComplexEvalContext()
        self.designation_rule = designation_rule or canonical_designation

    def step(self, n: int, d: int, cv: CodimVector) -> Step:
        return recursion_step(n, d, cv, self.designation_rule(cv), self)


def eval_real(key: RealKey, ctx: RealEvalContext) -> int:
    """Exact value of a real invariant key (keys validate on construction)."""
    return ctx.evaluate(key.n, key.d, *key.insertions)


def recursion_step(
    n: int,
    d: int,
    cv: CodimVector,
    designation: tuple[int, int],
    ctx: RealEvalContext,
) -> Step:
    """One unfolding of the real recursion with an explicit designated pair.

    ``designation`` = (c_1, c_2) must name slots present in ``cv``.  Exposed
    separately so tests can re-evaluate keys under arbitrary designations,
    including pairs involving divisor entries, through ``ctx.run``.
    """
    c1, c2 = designation
    T = cv.remove(c1)
    splits = enumerate_splits(T, 2, d, c2) if d > 2 else ()  # 2 * d1 + d2 = d, d1, d2 >= 1
    return product_sum(ctx.complex_ctx, ctx, n, 2 * n - 1, d, T, splits, 2, c1 - 1,
                       ((d, T.remove(c2).add(c1 + c2 - 1)),))


def theorem12_residual(
    n: int,
    d: int,
    c: int,
    c_list: tuple[int, ...] | list[int],
    ctx: RealEvalContext,
) -> int:
    """Residual of the codimension-transfer identity; zero when it holds.

    For insertions (c_1, c_2, rest) and a transfer amount 2c, the difference

      <c_1, c_2 + 2c, rest>_d - <c_1 + 2c, c_2, rest>_d

    equals a correction sum of complex-times-real products over degree splits
    2*d1 + d2 = d, splits I+J of rest (weight 2 per element in I), and
    diagonal pairs 2i + j = 2n-1:

      sum of  <2c, c_1, I, 2i>^C_{d1} * <c_2, J, j>_{d2}
            - <2c, c_2, I, 2i>^C_{d1} * <c_1, J, j>_{d2}

    Both products are F(K) = <2c, K, 2i>^C_{d1} * <T - K, j>_{d2} of a split K
    of T = (c_1, c_2, rest), at I + c_1 and I + c_2: the sum runs once over the
    K a product reaches, with coefficient u_1 - u_2.  u_m = w * i_m / (2 * M_m)
    weighs K - c_m over T - c_m, whose part with both c_m out cancels.

    Returns LHS - RHS, computed exactly.
    """
    # The key validates n, d and the entries (ints, each >= 1).
    cv = RealKey(n=n, d=d, insertions=CodimVector.from_entries(c_list)).insertions
    if not isinstance(c, int) or isinstance(c, bool):
        raise ValueError(f"transfer amount c must be an int, got {c!r}")
    if not 1 <= c <= MAX_CODIM or cv.k < 2:
        raise ValueError(f"need 1 <= c <= {MAX_CODIM} and two insertions to transfer between")
    c1, c2 = c_list[:2]
    lhs = ((1, cv.remove(c2).add(c2 + 2 * c)), (-1, cv.remove(c1).add(c1 + 2 * c)))
    M1, M2 = cv.multiplicity(c1), cv.multiplicity(c2)
    groups = enumerate_splits(cv, 2, 1, c2) if d > 2 else ()
    one = ((0, 0, 0, 1, 1),)  # a table of one row: each split below is its own group
    splits = [((code, k, total, u2 - w * i1 // (2 * M1), 0), one)  # LHS - RHS: u_2 - u_1
              for (pcode, pk, ptotal, pu, pw), table in groups for ccode, i, ci, ui, wi in table
              for code, k, total, u2, w in [(pcode + ccode, pk + i, ptotal + ci, pu * ui, pw * wi)]
              for i1, i2 in [(code >> B * c1 & MASK, code >> B * c2 & MASK)]
              if i1 and i2 < M2 or i2 and i1 < M1]  # c_m in K, and T - K holds the other
    return ctx.run(product_sum(ctx.complex_ctx, ctx, n, 2 * n - 1, d, cv, splits, 2, 2 * c, lhs))
