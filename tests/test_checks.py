"""The divisor suite of ``gw check``: what it draws, and that it can fail."""

from __future__ import annotations

from gwcount import ComplexEvalContext, RealEvalContext
from gwcount import checks
from gwcount.checks import divisor_report
from gwcount.keys import B, MASK
from gwcount.p3 import complex_codim_vectors, real_codim_vectors


def _off_peel(step):
    """``step`` with each request's H^1 entries stripped and its answer multiplied
    by (d + (d == 3))^m instead of the driver's d^m."""
    value = None
    try:
        while True:
            ctx, dim, d, code, k, total = step.send(value)
            m = (code >> B) & MASK
            value = (d + (d == 3)) ** m * (yield ctx, dim, d, code - (m << B), k - m, total - m)
    except StopIteration as done:
        return done.value


class _OffPeel:
    """A context whose steps, and whatever it runs, peel divisors wrongly."""

    __slots__ = ()

    def run(self, step):
        return super().run(_off_peel(step))

    def step(self, dim, d, cv):
        return _off_peel(super().step(dim, d, cv))


class _OffComplex(_OffPeel, ComplexEvalContext):
    __slots__ = ()


class _OffReal(_OffPeel, RealEvalContext):
    __slots__ = ()


def test_divisor_suite_compares_nonzero_values():
    report = divisor_report(RealEvalContext())
    assert report.failed_count == 0, [r for r in report.results if not r.passed][:3]
    assert len(report.results) == 40
    assert sum(r.expected != "0" for r in report.results) >= 30


def test_divisor_suite_fails_under_a_wrong_peel():
    report = divisor_report(rctx=_OffReal(_OffComplex()))
    assert report.failed_count > 0
    fails = [line for line in report.lines() if line.startswith("FAIL")]
    assert len(fails) == report.failed_count
    assert all(line.startswith("FAIL  ") and ": expected " in line and ", got " in line
               for line in fails)


def test_every_divisor_check_is_one_step_on_a_balanced_key(monkeypatch):
    calls = []

    def spy(step, vectors, slots):
        def run(dim, d, cv, slot_choice, ctx):
            calls.append(step.__name__)
            base = cv.remove(1)
            assert base in list(vectors(dim, d)) and base.k >= slots
            assert len(slot_choice) == slots
            return step(dim, d, cv, slot_choice, ctx)
        return run

    monkeypatch.setattr(checks, "wdvv_step", spy(checks.wdvv_step, complex_codim_vectors, 3))
    monkeypatch.setattr(checks, "recursion_step",
                        spy(checks.recursion_step, real_codim_vectors, 2))
    report = divisor_report(RealEvalContext())
    assert report.failed_count == 0
    assert calls == ["wdvv_step", "recursion_step"] * 20
