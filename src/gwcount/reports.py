"""Structured pass/fail reports for the consistency-check suites."""

from __future__ import annotations

from .keys import frozen_record

__all__ = ["CheckReport", "CheckResult"]


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
