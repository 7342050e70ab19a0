from __future__ import annotations

import json

import pytest

from gwcount import CodimVector, RealEvalContext, RealKey, real_series_p3, table1_rows, table2_rows
from gwcount import tables
from gwcount.keys import MAX_INSERTIONS
from gwcount.tables import EngineDisagreement, TableRow, format_rows

from golden import TABLE1, TABLE2_P5, TABLE2_P7


def test_table1_engines_agree_and_match_golden(engines):
    _, rctx = engines
    rows = table1_rows(11, engine="both", ctx=rctx)
    assert [(r.d, r.value) for r in rows] == [
        (d, TABLE1[d]) for d in range(1, 12, 2)
    ]


def test_table1_single_engine_variants(engines):
    _, rctx = engines
    closed = table1_rows(9, engine="closed", ctx=RealEvalContext())
    general = table1_rows(9, engine="general", ctx=rctx)
    assert [(r.d, r.value) for r in closed] == [(r.d, r.value) for r in general]
    # a cold context of its own
    assert table1_rows(9, engine="general", ctx=RealEvalContext()) == general


def test_table1_validation():
    with pytest.raises(ValueError):
        table1_rows(0, ctx=RealEvalContext())
    with pytest.raises(ValueError):
        table1_rows(5, engine="quantum", ctx=RealEvalContext())


def test_table1_general_engine_matches_closed_series_to_d61():
    ctx = RealEvalContext()
    rows = table1_rows(61, engine="general", ctx=ctx)
    series = real_series_p3(61)
    assert [(r.d, r.value) for r in rows] == [(d, series[d]) for d in range(1, 62, 2)]
    # Only the solved (d1, f) of each degeneration term is visited; looping
    # over every degree split and diagonal class took 446,494 calls here.
    assert ctx.complex_ctx.stats()["calls"] < 50_000


def test_table1_keys_are_packed_as_the_entries_give_them(monkeypatch):
    # Each row's key <3^d>_d is built in O(1); it must equal the entry-by-entry
    # build, fields and all, and past the bound fail with the same error.
    seen = []
    monkeypatch.setattr(tables, "eval_real", lambda key, ctx: seen.append(key) or 0)
    table1_rows(61, engine="general", ctx=RealEvalContext())
    assert [key.d for key in seen] == list(range(1, 62, 2))
    for key in seen:
        assert key == RealKey(n=2, d=key.d, insertions=CodimVector.of(*[3] * key.d))
        assert tuple(key.insertions) == tuple(CodimVector.of(*[3] * key.d))
    errors = []
    for build in (lambda d: table1_rows(d, engine="general", ctx=RealEvalContext()),
                  lambda d: CodimVector.of(*[3] * d)):
        with pytest.raises(ValueError) as raised:
            build(MAX_INSERTIONS + 2)
        errors.append(str(raised.value))
    assert errors[0] == errors[1] == f"a vector holds at most {MAX_INSERTIONS} insertions"


def test_engine_disagreement_payload():
    exc = EngineDisagreement([(3, 1, 2)])
    assert exc.diffs == [(3, 1, 2)]
    assert "d=3" in str(exc)


def test_table2_p5_rows_match_golden(engines):
    _, rctx = engines
    rows = table2_rows("p5", ctx=rctx)
    assert len(rows) == 24
    got = {}
    for r in rows:
        a_part, b_part = r.signature.split()
        a = int(a_part.split("^")[1])
        b = int(b_part.split("^")[1])
        got[(r.d, (a, b))] = r.value
    assert got == TABLE2_P5


def test_table2_p7_rows_match_golden(engines):
    _, rctx = engines
    rows = table2_rows("p7", ctx=rctx)
    assert len(rows) == 27
    got = {}
    for r in rows:
        a_part, b_part, c_part = r.signature.split()
        key = tuple(int(p.split("^")[1]) for p in (a_part, b_part, c_part))
        got[(r.d, key)] = r.value
    assert got == TABLE2_P7


def test_table2_row_order_descends_lexicographically(engines):
    _, rctx = engines
    rows = table2_rows("p5", ctx=rctx)
    d1_rows = [r.signature for r in rows if r.d == 1]
    assert d1_rows == ["5^1 3^0", "5^0 3^2"]
    d3_rows = [r.signature for r in rows if r.d == 3]
    assert d3_rows == ["5^2 3^1", "5^1 3^3", "5^0 3^5"]
    assert table2_rows("p5", ctx=RealEvalContext()) == rows  # a cold context of its own
    for space, n, golden in (("p5", 3, TABLE2_P5), ("p7", 4, TABLE2_P7)):
        order = [(r.d, r.signature) for r in table2_rows(space, ctx=rctx)]
        expected = [
            (d, " ".join(f"{c}^{e}" for c, e in zip(range(2 * n - 1, 1, -2), exps)))
            for d, exps in golden
        ]
        assert order == expected, space
        for d in {d for d, _ in golden}:
            exponents = [e for gd, e in golden if gd == d]
            assert exponents == sorted(exponents, reverse=True), (space, d)


def test_table2_rejects_unknown_space():
    with pytest.raises(ValueError):
        table2_rows("p9", ctx=RealEvalContext())


def test_format_text():
    rows = [TableRow(1, None, 1), TableRow(11, None, 136457)]
    text = format_rows(rows, "text")
    assert text == " 1  1\n11  136457\n"
    signed = [
        TableRow(1, "7^1 5^0 3^0", 1),
        TableRow(11, "7^10 5^0 3^0", -23),
        TableRow(3, "5^1 3^3", 1155),
    ]
    assert format_rows(signed, "text") == (
        " 1  7^1 5^0 3^0   1\n"
        "11  7^10 5^0 3^0  -23\n"
        " 3  5^1 3^3       1155\n"
    )
    assert format_rows([], "text") == "\n"


def test_format_csv():
    rows = [TableRow(1, None, 1), TableRow(3, None, 1)]
    assert format_rows(rows, "csv") == "d,value\n1,1\n3,1\n"
    rows2 = [TableRow(3, "5^2 3^1", -1)]
    assert format_rows(rows2, "csv") == "d,signature,value\n3,5^2 3^1,-1\n"
    assert format_rows([], "csv") == "d,value\n"


def test_format_json_values_are_strings():
    rows = [TableRow(31, None, TABLE1[31])]
    payload = json.loads(format_rows(rows, "json"))
    assert payload == [{"d": 31, "value": str(TABLE1[31])}]
    rows2 = [TableRow(1, "7^1 5^0 3^0", 1)]
    payload2 = json.loads(format_rows(rows2, "json"))
    assert payload2 == [{"d": 1, "signature": "7^1 5^0 3^0", "value": "1"}]
    assert format_rows([], "json") == "[]\n"


def test_format_rejects_unknown():
    with pytest.raises(ValueError):
        format_rows([TableRow(1, None, 1)], "xml")
