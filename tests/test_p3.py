from __future__ import annotations

from math import comb

import pytest

from gwcount import RealEvalContext, complex_series_p3, real_series_p3
from gwcount.checks import congruence_mod4_report, parity_report
from gwcount.p3 import complex_codim_vectors, real_codim_vectors

from golden import COMPLEX_P3_N, COMPLEX_P3_NTILDE, TABLE1


def test_complex_series_values():
    n, nt = complex_series_p3(6)
    assert n[1:] == [COMPLEX_P3_N[d] for d in range(1, 7)]
    assert nt[1:] == [COMPLEX_P3_NTILDE[d] for d in range(1, 7)]


def test_complex_series_seeds():
    n, nt = complex_series_p3(2)
    assert n[1] == 1
    assert nt[1] == 1
    assert n[2] == 0
    assert nt[2] == 1


def test_real_series_matches_golden_table():
    nr = real_series_p3(31)
    for d, value in TABLE1.items():
        assert nr[d] == value
    for d in range(2, 32, 2):
        assert nr[d] == 0


def test_p3_series_bundle():
    n, nt = complex_series_p3(7)
    nr = real_series_p3(7)
    assert len(n) == len(nt) == len(nr) == 7 + 1
    assert n[3] == 1
    assert nt[3] == 5
    assert nr[7] == 85


def _series_by_comb(dmax):
    """(N_d, Ntilde_d, N^R_d) by the module docstring's sums, each binomial from math.comb."""
    n, nt, nr = [0] * (dmax + 1), [0] * (dmax + 1), [0] * (dmax + 1)
    n[1] = nt[1] = nr[1] = 1
    for d in range(2, dmax + 1):
        pairs = [(d1, d - d1, nt[d1] * n[d - d1]) for d1 in range(1, d)]
        n[d] = sum((d2 * d2 * comb(2 * d - 3, 2 * d1 - 2) - d1 * d2 * comb(2 * d - 3, 2 * d1 - 1))
                   * term for d1, d2, term in pairs)
        nt[d] = d * n[d] + sum((d1 * d2 * d2 * comb(2 * d - 2, 2 * d1 - 1)
                                - d2 ** 3 * comb(2 * d - 2, 2 * d1 - 2)) * term
                               for d1, d2, term in pairs)
    for d in range(3, dmax + 1, 2):
        nr[d] = sum((-4) ** (d1 - 1) * (d - 2 * d1) * comb(d - 2, d - 2 * d1 - 1)
                    * nt[d1] * nr[d - 2 * d1] for d1 in range(1, (d - 1) // 2 + 1))
    return n, nt, nr


def test_series_match_the_binomial_reference_to_degree_150():
    n, nt, nr = _series_by_comb(150)
    assert complex_series_p3(150) == (n, nt)
    assert real_series_p3(150) == nr


def test_series_rejects_bad_dmax():
    with pytest.raises(ValueError):
        complex_series_p3(0)
    with pytest.raises(ValueError):
        real_series_p3(0)


def test_congruence_mod4_report():
    report = congruence_mod4_report()
    assert report.failed_count == 0, [r for r in report.results if not r.passed][:5]
    # three families per degree, plus the vanishing checks at even degree
    assert len(report.results) == 3 * 31 + 15
    assert report.passed_count == len(report.results)


def test_real_codim_vector_enumeration():
    # n=2, d=3: only 3,3,3 plus divisor paddings
    plain = list(real_codim_vectors(2, 3))
    assert [cv.expand() for cv in plain] == [(3, 3, 3)]
    # parity pads each vector with one and then two divisor entries
    checked = [r.check_id for r in parity_report(2, (3,), RealEvalContext()).results]
    assert checked == ["n=2 d=3 <3,3,3>", "n=2 d=3 <1,3,3,3>", "n=2 d=3 <1,1,3,3,3>"]
    # n=3, d=3: 2a + 4b = 10 over entries {3, 5}
    vecs = {cv.expand() for cv in real_codim_vectors(3, 3)}
    assert vecs == {(3, 5, 5), (3, 3, 3, 5), (3, 3, 3, 3, 3)}


def _balanced_by_brute_force(top, step, target):
    # Every exponent vector over the entries top, top - step, ... >= 2.
    entries = list(range(top, 1, -step))
    out = [()]
    for c in entries:
        out = [e + (m,) for e in out for m in range(target // (c - 1) + 1)]
    return sorted((e for e in out if sum(m * (c - 1) for c, m in zip(entries, e)) == target),
                  reverse=True), entries


@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_complex_codim_vectors_are_all_balanced_keys_in_descending_order(N, d):
    want, entries = _balanced_by_brute_force(N, 1, (N + 1) * d + N - 3)
    got = [tuple(cv.multiplicity(c) for c in entries) for cv in complex_codim_vectors(N, d)]
    assert got == want


@pytest.mark.parametrize("n, d", [(2, 5), (3, 5), (4, 3), (5, 3)])
def test_real_codim_vectors_are_all_balanced_keys_in_descending_order(n, d):
    want, entries = _balanced_by_brute_force(2 * n - 1, 2, n * (d + 1) - 2)
    got = [tuple(cv.multiplicity(c) for c in entries) for cv in real_codim_vectors(n, d)]
    assert got == want


def test_parity_report_p3():
    report = parity_report(2, (1, 3, 5, 7), RealEvalContext())
    assert report.failed_count == 0, [r for r in report.results if not r.passed][:5]
    assert report.passed_count == 4 * 3  # one base vector per degree, 2 paddings


def test_parity_report_p5():
    report = parity_report(3, (1, 3, 5), RealEvalContext())
    assert report.failed_count == 0, [r for r in report.results if not r.passed][:5]
    # base vector counts: d=1 -> 2, d=3 -> 3, d=5 -> 5; each with 2 paddings
    assert report.passed_count == (2 + 3 + 5) * 3


def test_parity_report_rejects_even_degree():
    with pytest.raises(ValueError):
        parity_report(2, (2,), RealEvalContext())
