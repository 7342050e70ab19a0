"""Acceptance gate: one test per shipped criterion, exact tolerances.

Each test prints a single ``criterion N: PASS/FAIL`` line so the gate can be
read off the test log directly.  All comparisons are exact integer equality.
"""

from __future__ import annotations

import random
import time

from gwcount import (
    CacheStore,
    CodimVector,
    ComplexEvalContext,
    ComplexKey,
    RealEvalContext,
    RealKey,
    complex_series_p3,
    enumerate_splits,
    eval_complex,
    eval_real,
    theorem12_residual,
)
from gwcount.checks import (congruence_mod4_report, cross_dim_report, divisor_report,
                            parity_report, theorem12_samples)
from gwcount.cli import main
from gwcount.tables import table2_rows

from golden import COMPLEX_P3_N, COMPLEX_P3_NTILDE, TABLE1, TABLE2_P5, TABLE2_P7
from test_complex_engine import PIVOT_SAMPLE_KEYS, _random_pivot_rule
from test_real_engine import DESIGNATION_SAMPLE_KEYS, _random_designation_rule


def _report(number: int, label: str, body, capsys) -> None:
    verdict = "FAIL"
    try:
        body()
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"criterion {number}: {verdict} ({label})")


def test_criterion_1_table1_reproduction(capsys):
    def body():
        start = time.monotonic()
        code = main(["table1", "--dmax", "31", "--engine", "both", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 16
        got = {int(d): int(v) for d, v in rows}
        assert got == TABLE1
        assert time.monotonic() - start < 120
    _report(1, "table1 to d=31, both engines, exact", body, capsys)


def test_criterion_2_table2_reproduction(engines, capsys):
    def body():
        start = time.monotonic()
        _, rctx = engines
        p5 = table2_rows("p5", ctx=rctx)
        p7 = table2_rows("p7", ctx=rctx)
        assert len(p5) == 24 and len(p7) == 27

        def decode(rows):
            out = {}
            for r in rows:
                exps = tuple(int(p.split("^")[1]) for p in r.signature.split())
                out[(r.d, exps)] = r.value
            return out

        assert decode(p5) == TABLE2_P5
        assert decode(p7) == TABLE2_P7
        assert time.monotonic() - start < 300
    _report(2, "table2 P^5 (24 rows) and P^7 (27 rows), exact signs", body, capsys)


def test_criterion_3_complex_oracle_agreement(engines, capsys):
    def body():
        cctx, _ = engines
        n, nt = complex_series_p3(6)
        assert n[1] == 1 and n[2] == 0 and n[3] == 1 and nt[3] == 5
        for d in range(1, 7):
            points = eval_complex(
                ComplexKey(N=3, d=d, insertions=CodimVector.of(*[3] * (2 * d))), cctx)
            lines = eval_complex(
                ComplexKey(N=3, d=d, insertions=CodimVector.of(2, 2, *[3] * (2 * d - 1))), cctx)
            assert points == n[d] == COMPLEX_P3_N[d]
            assert lines == nt[d] == COMPLEX_P3_NTILDE[d]
    _report(3, "engine matches closed-form complex series for d <= 6", body, capsys)


def test_criterion_4_mod4_congruences(capsys):
    def body():
        report = congruence_mod4_report()
        assert report.failed_count == 0, [r for r in report.results if not r.passed][:3]
        assert report.passed_count == 108
    _report(4, "mod-4 congruences of all three families to d=31", body, capsys)


def test_criterion_5_parity_and_nonvanishing(engines, capsys):
    def body():
        start = time.monotonic()
        _, rctx = engines
        for n in (2, 3):
            report = parity_report(n, (1, 3, 5), rctx)
            assert report.failed_count == 0, [r for r in report.results if not r.passed][:3]
            assert report.passed_count > 0
        assert time.monotonic() - start < 60
    _report(5, "all balanced odd invariants for n in {2,3}, d in {1,3,5} are odd", body, capsys)


def test_criterion_6_transfer_identity_residuals(engines, capsys):
    def body():
        _, rctx = engines
        samples = theorem12_samples()
        assert len(samples) >= 50
        seen_k = set()
        for n, d, c, c_list in samples:
            assert theorem12_residual(n, d, c, c_list, rctx) == 0, (n, d, c, c_list)
            seen_k.add(len(c_list))
        assert seen_k == {2, 3, 4, 5}
    _report(6, "codimension-transfer residual = 0 on 60 sample tuples", body, capsys)


def test_criterion_7_structural_suites(tmp_path, capsys):
    def body():
        # pivot independence, >= 20 randomized re-evaluations
        canonical_c = ComplexEvalContext()
        expected_c = {
            key: eval_complex(
                ComplexKey(N=key[0], d=key[1], insertions=CodimVector.of(*key[2])),
                canonical_c)
            for key in PIVOT_SAMPLE_KEYS
        }
        rng = random.Random(1)
        pivot_evals = 0
        for _ in range(3):
            ctx = ComplexEvalContext(pivot_rule=_random_pivot_rule(rng))
            for key in PIVOT_SAMPLE_KEYS:
                got = eval_complex(
                    ComplexKey(N=key[0], d=key[1], insertions=CodimVector.of(*key[2])), ctx)
                assert got == expected_c[key], key
                pivot_evals += 1
        assert pivot_evals >= 20

        # designation independence of the real engine
        canonical_r = RealEvalContext()
        expected_r = {
            key: eval_real(
                RealKey(n=key[0], d=key[1], insertions=CodimVector.of(*key[2])),
                canonical_r)
            for key in DESIGNATION_SAMPLE_KEYS
        }
        designation_evals = 0
        for _ in range(3):
            rctx = RealEvalContext(designation_rule=_random_designation_rule(rng))
            for key in DESIGNATION_SAMPLE_KEYS:
                got = eval_real(
                    RealKey(n=key[0], d=key[1], insertions=CodimVector.of(*key[2])), rctx)
                assert got == expected_r[key], key
                designation_evals += 1
        assert designation_evals >= 20

        # permutation independence of eval_real inputs
        rctx = RealEvalContext()
        entries = [5, 3, 3, 3]
        want = eval_real(RealKey(n=3, d=3, insertions=CodimVector.from_entries(entries)), rctx)
        for _ in range(5):
            rng.shuffle(entries)
            got = eval_real(RealKey(n=3, d=3, insertions=CodimVector.from_entries(entries)), rctx)
            assert got == want

        # divisor relation on random keys, both engines
        report = divisor_report()
        assert report.failed_count == 0, [r for r in report.results if not r.passed][:3]

        # split weight-sum identity
        for raw in ((3, 3, 3), (2, 3, 5, 5), (3,) * 6):
            cv = CodimVector.from_entries(raw)
            for w in (1, 2):
                assert sum(wt for *_, wt in enumerate_splits(cv, w)) == (1 + w) ** cv.k

        # warm-cache vs cold-cache equality plus save/load round trip
        cold_c = ComplexEvalContext()
        cold_r = RealEvalContext(cold_c)
        cold = [
            eval_real(RealKey(n=2, d=d, insertions=CodimVector.of(*[3] * d)), cold_r)
            for d in (1, 3, 5, 7, 9)
        ]
        store = CacheStore()
        store.absorb(cold_c, cold_r)
        path = tmp_path / "cache.txt"
        store.save(path)
        loaded = CacheStore.load(path)
        assert loaded.records == store.records
        path2 = tmp_path / "cache-2.txt"
        loaded.save(path2)
        assert path2.read_bytes() == path.read_bytes()
        warm_c = ComplexEvalContext()
        warm_r = RealEvalContext(warm_c)
        loaded.warm(warm_c, warm_r)
        warm = [
            eval_real(RealKey(n=2, d=d, insertions=CodimVector.of(*[3] * d)), warm_r)
            for d in (1, 3, 5, 7, 9)
        ]
        assert warm == cold
        assert warm_r.deep_evals == 0
    _report(7, "pivot/designation/permutation independence, divisor, splits, cache", body, capsys)


def test_criterion_8_cross_dimension_consistency(capsys):
    def body():
        report = cross_dim_report()
        assert report.failed_count == 0, [r for r in report.results if not r.passed][:3]
        assert report.passed_count == 11
    _report(8, "cross-dimension coincidences between P^3, P^5, P^7", body, capsys)
