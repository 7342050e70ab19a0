"""Cross-cutting consistency suites exposed through ``gw check``.

Each suite returns a CheckReport; the CLI prints one line per check and
exits nonzero when anything fails.  The suites:

  parity         every dimension-balanced real invariant of P^3/P^5 at small
                 odd degree is odd and nonzero
  mod4           mod-4 congruences of the three P^3 families up to d = 31
  wdvv-identity  the codimension-transfer identity has zero residual on a
                 fixed grid of sample tuples
  cross-dim      equalities between invariants of different targets that
                 share a count (degree-1 collapses, P^5/P^7 coincidences)
  divisor        divisor relation <..., 1>_d = d * <...>_d on seeded random
                 keys, both engines
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from .complex_engine import ComplexEvalContext, canonical_pivot, wdvv_step
from .keys import CodimVector, RealKey
from .p3 import congruence_mod4_report, parity_report, real_series_p3
from .real_engine import (RealEvalContext, canonical_designation, eval_real, recursion_step,
                          theorem12_residual)
from .reports import CheckReport

__all__ = [
    "SUITES",
    "cross_dim_report",
    "divisor_report",
    "run_suites",
    "theorem12_samples",
    "wdvv_identity_report",
]

# Per-target insertion lists used for the transfer-identity sample grid.
_SAMPLE_LISTS = {
    2: ((3, 3), (3, 1), (3, 3, 3), (3, 3, 1, 1), (3, 3, 3, 3, 1)),
    3: ((5, 3), (5, 5, 3), (3, 3, 3), (5, 3, 3, 1), (5, 5, 3, 3, 1)),
}


def theorem12_samples() -> list[tuple[int, int, int, tuple[int, ...]]]:
    """Fixed grid of (n, d, c, c_list) tuples; 60 in total."""
    out = []
    for n in (2, 3):
        for d in (1, 3, 5):
            for c in (1, 2):
                for c_list in _SAMPLE_LISTS[n]:
                    out.append((n, d, c, c_list))
    return out


def wdvv_identity_report(ctx: RealEvalContext | None = None) -> CheckReport:
    """Residual of the codimension-transfer identity on the sample grid."""
    if ctx is None:
        ctx = RealEvalContext()
    report = CheckReport("codimension-transfer identity")
    for n, d, c, c_list in theorem12_samples():
        residual = theorem12_residual(n, d, c, c_list, ctx)
        report.check_equal(
            f"residual n={n} d={d} c={c} ({','.join(map(str, c_list))})",
            0,
            residual,
        )
    return report


def cross_dim_report(ctx: RealEvalContext | None = None) -> CheckReport:
    """Coincidences between invariants of different odd projective spaces."""
    if ctx is None:
        ctx = RealEvalContext()

    def rval(n: int, d: int, entries: dict[int, int]) -> int:
        cv = CodimVector(tuple(sorted((c, m) for c, m in entries.items() if m)))
        return eval_real(RealKey(n=n, d=d, insertions=cv), ctx)

    report = CheckReport("cross-dimension coincidences")
    n3r = real_series_p3(3)[3]
    report.check_equal("N^R_3 (closed form)", 1, n3r)
    report.check_equal("|<5^2 3^1>_3 of P^5|", 1, abs(rval(3, 3, {5: 2, 3: 1})))
    report.check_equal("|<7^2 3^1>_3 of P^7|", 1, abs(rval(4, 3, {7: 2, 3: 1})))
    report.check_equal(
        "<7^3 5^1>_5 of P^7 = <5^4>_5 of P^5",
        rval(3, 5, {5: 4}),
        rval(4, 5, {7: 3, 5: 1}),
    )
    report.check_equal("<5^4>_5 of P^5", 1, rval(3, 5, {5: 4}))
    report.check_equal(
        "<7^3 3^2>_5 of P^7 = <5^3 3^2>_5 of P^5",
        rval(3, 5, {5: 3, 3: 2}),
        rval(4, 5, {7: 3, 3: 2}),
    )
    report.check_equal("<5^3 3^2>_5 of P^5", 1, rval(3, 5, {5: 3, 3: 2}))
    report.check_equal("<3>_1 of P^3", 1, rval(2, 1, {3: 1}))
    report.check_equal("<5>_1 of P^5", 1, rval(3, 1, {5: 1}))
    report.check_equal("<7>_1 of P^7", 1, rval(4, 1, {7: 1}))
    report.check_equal("N^R_1 (closed form)", 1, real_series_p3(1)[1])
    return report


def divisor_report(
    seed: int = 20260814,
    trials: int = 40,
    cctx: ComplexEvalContext | None = None,
    rctx: RealEvalContext | None = None,
) -> CheckReport:
    """Divisor relation on seeded random keys of both engines.

    Appending a divisor insertion leaves the dimension gap unchanged, so the
    relation <ins + {1}>_d = d * <ins>_d holds whether or not the key is
    dimension-balanced.  Where the key has a pivot's or designation's slots,
    the left side is one explicit step, not ``EvalContext.evaluate``'s peel.
    """
    rng = random.Random(seed)
    if cctx is None:
        cctx = ComplexEvalContext()
    if rctx is None:
        rctx = RealEvalContext(cctx)
    report = CheckReport("divisor relation")
    for t in range(trials):
        if t % 2 == 0:
            dim = rng.choice((3, 5))
            d = rng.randint(1, 3)
            entries = [rng.randint(2, dim) for _ in range(rng.randint(1, 4))]
            ctx, label = cctx, f"complex N={dim}"
            step, slots, rule = wdvv_step, 3, canonical_pivot
        else:
            dim = rng.choice((2, 3))
            d = rng.choice((1, 3, 5))
            odd_choices = tuple(range(3, 2 * dim, 2))
            entries = [rng.choice(odd_choices) for _ in range(rng.randint(1, 4))]
            ctx, label = rctx, f"real n={dim}"
            step, slots, rule = recursion_step, 2, canonical_designation
        cv = CodimVector.from_entries(entries)
        plus = cv.add(1)
        lhs = step(dim, d, plus, rule(cv), ctx) if cv.k >= slots else ctx.evaluate(dim, d, plus)
        rhs = d * ctx.evaluate(dim, d, cv)
        report.check_equal(f"{label} d={d} <{cv}>+1", rhs, lhs)
    return report


def _parity_reports() -> list[CheckReport]:
    ctx = RealEvalContext()
    return [parity_report(n, (1, 3, 5, 7), ctx) for n in (2, 3)]


# Suite name -> function returning its reports, in ``gw check`` order.
SUITES = {
    "parity": _parity_reports,
    "mod4": lambda: [congruence_mod4_report(31)],
    "wdvv-identity": lambda: [wdvv_identity_report()],
    "cross-dim": lambda: [cross_dim_report()],
    "divisor": lambda: [divisor_report()],
}


def run_suites(names: Iterable[str]) -> list[CheckReport]:
    """Run the named suites in order and return their reports."""
    reports: list[CheckReport] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        reports += SUITES[name]()
    return reports
