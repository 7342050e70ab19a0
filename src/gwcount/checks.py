"""Cross-cutting consistency suites exposed through ``gw check``.

Each suite returns CheckReports, the pass/fail report type defined here;
the CLI prints one line per check and exits nonzero when anything fails.
The suites:

  parity         every dimension-balanced real invariant of P^3, P^5, P^7 and
                 P^9 at small odd degree is odd and nonzero
  mod4           mod-4 congruences of the three P^3 families up to d = 31
  wdvv-identity  the codimension-transfer identity has zero residual on a
                 fixed grid of sample tuples
  cross-dim      equalities between invariants of different targets that
                 share a count (degree-1 collapses, P^5/P^7 coincidences)
  divisor        divisor relation <..., 1>_d = d * <...>_d on 40 balanced keys
                 of both engines drawn with a fixed seed, the left side one
                 explicit step each
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from .complex_engine import canonical_pivot, wdvv_step
from .keys import CodimVector, RealKey, frozen_record
from .p3 import complex_codim_vectors, complex_series_p3, real_codim_vectors, real_series_p3
from .real_engine import (RealEvalContext, canonical_designation, eval_real, recursion_step,
                          theorem12_residual)

__all__ = [
    "CheckReport",
    "CheckResult",
    "SUITES",
    "congruence_mod4_report",
    "cross_dim_report",
    "divisor_report",
    "parity_report",
    "run_suites",
    "theorem12_samples",
    "wdvv_identity_report",
]

# Top degree of the mod4 suite.
MOD4_DMAX = 31

# Seed and number of the divisor suite's draws; ``gw check`` pins their keys.
DIVISOR_SEED = 20260814
DIVISOR_TRIALS = 40


class CheckResult(frozen_record("CheckResult", "check_id passed expected got")):
    __slots__ = ()


class CheckReport(frozen_record("CheckReport", "suite results")):
    """An ordered list of named checks with expected/got values."""

    __slots__ = ()

    def __new__(cls, suite: str, results: list[CheckResult] | None = None) -> "CheckReport":
        return super().__new__(cls, suite, [] if results is None else results)

    def add(self, check_id: str, passed: bool, expected: object, got: object) -> None:
        self.results.append(CheckResult(check_id, bool(passed), str(expected), str(got)))

    def check_equal(self, check_id: str, expected: object, got: object) -> None:
        self.add(check_id, expected == got, expected, got)

    @property
    def passed_count(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed_count(self) -> int:
        return sum(1 for r in self.results if not r.passed)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            if r.passed:
                out.append(f"PASS  {r.check_id}")
            else:
                out.append(f"FAIL  {r.check_id}: expected {r.expected}, got {r.got}")
        return out

    def summary(self) -> str:
        return f"{self.suite}: {self.passed_count} passed, {self.failed_count} failed"


def parity_report(
    n: int,
    d_list: tuple[int, ...] | list[int],
    ctx: RealEvalContext | None = None,
) -> CheckReport:
    """Check that every dimension-balanced real invariant is odd (hence nonzero).

    Exhaustive over the base vectors (entries >= 3) for each odd degree in
    ``d_list``, plus divisor-padded variants with one and two entries equal
    to 1; padding by further 1s only multiplies values by the odd degree d,
    which preserves oddness.
    """
    if ctx is None:
        ctx = RealEvalContext()
    report = CheckReport(f"parity, n={n}")
    for d in d_list:
        if d % 2 == 0:
            raise ValueError("parity checks apply to odd degrees only")
        for base in real_codim_vectors(n, d):
            for cv in (base, base.add(1), base.add(1, times=2)):
                value = eval_real(RealKey(n=n, d=d, insertions=cv), ctx)
                report.add(f"n={n} d={d} <{cv}>", value % 2 == 1, "odd nonzero", value)
    return report


def congruence_mod4_report() -> CheckReport:
    """Mod-4 congruences of the three P^3 families up to degree MOD4_DMAX.

    N^R_d and N_d are congruent to 1 at odd d and to 0 at even d; Ntilde_d is
    congruent to 1 at odd d, with the even values 1 (d = 2), 2 (d = 4) and 0
    (even d >= 6).
    """
    report = CheckReport(f"mod4 congruences, d <= {MOD4_DMAX}")
    n, nt = complex_series_p3(MOD4_DMAX)
    nr = real_series_p3(MOD4_DMAX)
    for d in range(1, MOD4_DMAX + 1):
        want = 1 if d % 2 else 0
        report.check_equal(f"N^C_{d} mod 4", want, n[d] % 4)
        want_nt = 1 if d % 2 else {2: 1, 4: 2}.get(d, 0)
        report.check_equal(f"Ntilde^C_{d} mod 4", want_nt, nt[d] % 4)
        report.check_equal(f"N^R_{d} mod 4", want, nr[d] % 4)
        if d % 2 == 0:
            report.check_equal(f"N^R_{d}", 0, nr[d])
    return report


# Per-target insertion lists used for the transfer-identity sample grid.
_SAMPLE_LISTS = {
    2: ((3, 3), (3, 1), (3, 3, 3), (3, 3, 1, 1), (3, 3, 3, 3, 1)),
    3: ((5, 3), (5, 5, 3), (3, 3, 3), (5, 3, 3, 1), (5, 5, 3, 3, 1)),
}


def theorem12_samples() -> list[tuple[int, int, int, tuple[int, ...]]]:
    """Fixed grid of (n, d, c, c_list) tuples; 60 in total."""
    return [(n, d, c, c_list) for n in (2, 3) for d in (1, 3, 5) for c in (1, 2)
            for c_list in _SAMPLE_LISTS[n]]


def wdvv_identity_report() -> CheckReport:
    """Residual of the codimension-transfer identity on the sample grid."""
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


def cross_dim_report() -> CheckReport:
    """Coincidences between invariants of different odd projective spaces."""
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


def divisor_report(rctx: RealEvalContext | None = None) -> CheckReport:
    """Divisor relation <cv, 1>_d = d * <cv>_d on seeded balanced keys, both engines.

    Each of DIVISOR_TRIALS trials draws (dim, d), then a balanced key with at
    least a pivot's 3 (complex) or a designated pair's 2 (real) slots; the
    real (2, 1) has only <3> and is not drawn.  The left side is one explicit
    step on the canonical slots of cv, so the divisor enters the step's own
    terms, not a driver peel.  Complex keys run on ``rctx.complex_ctx``.
    """
    rng = random.Random(DIVISOR_SEED)
    if rctx is None:
        rctx = RealEvalContext()
    engines = (
        (rctx.complex_ctx, "complex N", [(N, d) for N in (3, 5) for d in (1, 2, 3)],
         complex_codim_vectors, wdvv_step, canonical_pivot, 3),
        (rctx, "real n", [(2, 3), (2, 5), (3, 1), (3, 3), (3, 5)], real_codim_vectors,
         recursion_step, canonical_designation, 2),
    )
    report = CheckReport("divisor relation")
    for t in range(DIVISOR_TRIALS):
        ctx, label, targets, vectors, step, rule, slots = engines[t % 2]
        dim, d = rng.choice(targets)
        cv = rng.choice([cv for cv in vectors(dim, d) if cv.k >= slots])
        lhs = step(dim, d, cv.add(1), rule(cv), ctx)
        report.check_equal(f"{label}={dim} d={d} <{cv}>+1", d * ctx.evaluate(dim, d, *cv), lhs)
    return report


def _parity_reports() -> list[CheckReport]:
    ctx = RealEvalContext()
    degrees = {2: (1, 3, 5, 7), 3: (1, 3, 5, 7), 4: (1, 3, 5, 7, 9), 5: (1, 3, 5)}
    return [parity_report(n, ds, ctx) for n, ds in degrees.items()]


# Suite name -> function returning its reports, in ``gw check`` order.
SUITES = {
    "parity": _parity_reports,
    "mod4": lambda: [congruence_mod4_report()],
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
