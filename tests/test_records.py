"""Behaviour of the record types: keys, table rows and check results.

Pins what callers may rely on: the exact ``repr``, equality only between
instances of one type with equal fields, hashing, immutability, and the
validation messages of the two key types.
"""

from __future__ import annotations

import pytest

from gwcount import CodimVector, ComplexKey, RealKey, TableRow
from gwcount.checks import CheckReport, CheckResult

CV = CodimVector.of(2, 3, 3)


def test_key_reprs():
    assert repr(ComplexKey(N=3, d=1, insertions=CV)) == (
        "ComplexKey(N=3, d=1, insertions=CodimVector(pairs=((2, 1), (3, 2))))")
    assert repr(RealKey(n=2, d=3, insertions=CodimVector.of(3, 3, 3))) == (
        "RealKey(n=2, d=3, insertions=CodimVector(pairs=((3, 3),)), phi='tau')")
    assert repr(RealKey(2, 1, CodimVector.of(3), "eta")) == (
        "RealKey(n=2, d=1, insertions=CodimVector(pairs=((3, 1),)), phi='eta')")


def test_keys_equal_only_keys_of_their_own_type():
    key = ComplexKey(N=3, d=1, insertions=CV)
    same = ComplexKey(3, 1, CodimVector.of(3, 2, 3))
    assert key == same and not key != same
    assert hash(key) == hash(same)
    assert len({key, same}) == 1
    assert key != (3, 1, CV) and not key == (3, 1, CV)
    assert (3, 1, CV) != key and not (3, 1, CV) == key
    assert key != ComplexKey(N=3, d=2, insertions=CV)
    real = RealKey(n=2, d=1, insertions=CodimVector.of(3))
    assert real == RealKey(n=2, d=1, insertions=CodimVector.of(3), phi="tau")
    assert real != RealKey(n=2, d=1, insertions=CodimVector.of(3), phi="eta")
    assert real != (2, 1, CodimVector.of(3), "tau")
    assert hash(real) == hash(RealKey(2, 1, CodimVector.of(3)))
    assert ComplexKey(N=2, d=1, insertions=CV) != RealKey(n=2, d=1, insertions=CV)


@pytest.mark.parametrize("record, field", [
    (ComplexKey(N=3, d=1, insertions=CV), "N"),
    (ComplexKey(N=3, d=1, insertions=CV), "insertions"),
    (RealKey(n=2, d=1, insertions=CodimVector.of(3)), "phi"),
    (TableRow(1, None, 1), "value"),
    (CheckResult("id", True, "1", "1"), "passed"),
])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("make, message", [
    (lambda: ComplexKey(N=0, d=1, insertions=CV), "complex target needs N >= 1, got N=0"),
    (lambda: ComplexKey(N=1024, d=1, insertions=CV), "complex target needs N < 1024, got N=1024"),
    (lambda: ComplexKey(N=3, d=-1, insertions=CV), "degree must be >= 0, got d=-1"),
    (lambda: ComplexKey(N=3, d=1, insertions=(3, 3)), "insertions must be a CodimVector"),
    (lambda: RealKey(n=1, d=1, insertions=CV), "real target needs n >= 2, got n=1"),
    (lambda: RealKey(n=513, d=1, insertions=CV), "real target needs 2n-1 < 1024, got n=513"),
    (lambda: RealKey(n=2, d=0, insertions=CV), "degree must be >= 1, got d=0"),
    (lambda: RealKey(n=2, d=1, insertions=CV, phi="sigma"),
     "phi must be one of ('tau', 'eta'), got 'sigma'"),
    (lambda: RealKey(n=2, d=1, insertions=[3]), "insertions must be a CodimVector"),
    (lambda: RealKey(n=2, d=1, insertions=CodimVector.of(0, 3)),
     "real insertions must have codimension >= 1"),
])
def test_key_validation_messages(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_replacing_a_field_validates_the_new_key():
    key = ComplexKey(N=3, d=1, insertions=CV)
    assert key._replace(d=2) == ComplexKey(N=3, d=2, insertions=CV)
    with pytest.raises(ValueError, match="complex target needs N >= 1"):
        key._replace(N=0)
    with pytest.raises(ValueError, match="phi must be one of"):
        RealKey(n=2, d=1, insertions=CodimVector.of(3))._replace(phi="sigma")


def test_table_row_fields_and_equality():
    row = TableRow(3, "5^1 3^2", -12)
    assert (row.d, row.signature, row.value) == (3, "5^1 3^2", -12)
    assert row == TableRow(d=3, signature="5^1 3^2", value=-12)
    assert hash(row) == hash(TableRow(3, "5^1 3^2", -12))
    assert row != TableRow(3, "5^1 3^2", 12)
    assert row != (3, "5^1 3^2", -12)
    assert repr(TableRow(1, None, 1)) == "TableRow(d=1, signature=None, value=1)"


def test_check_result_and_report():
    result = CheckResult("a", True, "1", "1")
    assert (result.check_id, result.passed, result.expected, result.got) == ("a", True, "1", "1")
    assert result == CheckResult(check_id="a", passed=True, expected="1", got="1")
    assert result != CheckResult("a", False, "1", "2")
    assert result != ("a", True, "1", "1")
    assert repr(result) == "CheckResult(check_id='a', passed=True, expected='1', got='1')"
    report = CheckReport("s")
    report.check_equal("a", 1, 1)
    assert report.results == [result]
    assert report == CheckReport("s", [CheckResult("a", True, "1", "1")])
    assert report != CheckReport("s")
    assert CheckReport("s").results is not CheckReport("s").results
    assert repr(CheckReport("t")) == "CheckReport(suite='t', results=[])"
    with pytest.raises(TypeError):
        hash(report)
