from __future__ import annotations

import argparse
import decimal
import hashlib
import json
import os
import re
import sys
import time

import pytest

from gwcount import CodimVector, ComplexEvalContext, RealEvalContext, RealKey, eval_real
from gwcount.cache import HEADER, CacheStore, is_memo_key
from gwcount import cli
from gwcount.cli import main

from golden import TABLE1


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_complex_query(capsys):
    code, out, err = run(capsys, "complex", "--dim", "3", "--d", "3",
                         "--codims", "2,2,3,3,3,3,3")
    assert (code, err) == (0, "")
    assert out == "5\n"


def test_real_query(capsys):
    code, out, _ = run(capsys, "real", "--n", "2", "--d", "3", "--codims", "3,3,3")
    assert code == 0
    assert out == "-1\n"


def test_real_query_high_dimension(capsys):
    code, out, _ = run(capsys, "real", "--n", "4", "--d", "1", "--codims", "7")
    assert code == 0
    assert out == "1\n"


def test_real_query_phi_flag_is_metadata(capsys, tmp_path):
    _, out_tau, _ = run(capsys, "real", "--n", "2", "--d", "3",
                        "--codims", "3,3,3", "--phi", "tau")
    _, out_eta, _ = run(capsys, "real", "--n", "2", "--d", "3",
                        "--codims", "3,3,3", "--phi", "eta")
    assert out_tau == out_eta == "-1\n"
    # Both involutions read one record: a query under eta hits the line tau wrote.
    path = tmp_path / "store.gwc"
    run(capsys, "real", "--n", "2", "--d", "3", "--codims", "3,3,3", "--phi", "tau",
        "--cache", str(path))
    text = path.read_text()
    assert "gw1|R|n=2|d=3|c=3,3,3|v=-1\n" in text
    path.write_text(text.replace("gw1|R|n=2|d=3|c=3,3,3|v=-1\n", "gw1|R|n=2|d=3|c=3,3,3|v=7\n"))
    _, out, _ = run(capsys, "real", "--n", "2", "--d", "3", "--codims", "3,3,3", "--phi", "eta",
                    "--cache", str(path))
    assert out == "7\n"


@pytest.mark.parametrize("argv", [
    ("complex", "--dim", "3", "--d", "1", "--codims", "3,3" + ",1" * 25_000),
    ("real", "--n", "2", "--d", "1", "--codims", "3" + ",1" * 25_000),
    # 65,533 insertions, the most a vector holds
    ("complex", "--dim", "3", "--d", "1", "--codims", "3,3" + ",1" * 65_531),
])
def test_deep_divisor_chain(capsys, argv):
    # One frame per divisor insertion would exceed the recursion limit.
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, "1\n", "")


@pytest.mark.parametrize("argv", [
    ("complex", "--dim", "3", "--d", "1", "--codims", "3,3" + ",1" * 65_532),
    ("complex", "--dim", "1024", "--d", "1", "--codims", "3,3"),
    ("real", "--n", "513", "--d", "1", "--codims", "3"),
])
def test_keys_beyond_the_packed_bounds_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("complex", "--dim", "3", "--d", "1", "--codims", "1000000000,3"),
    ("real", "--n", "2", "--d", "1", "--codims", "3,1000000000"),
])
def test_an_entry_above_the_top_is_zero_without_packing_it(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "0\n", "")


def test_complex_query_on_p1(capsys):
    code, out, err = run(capsys, "complex", "--dim", "1", "--d", "1", "--codims", "1,1,1")
    assert (code, out, err) == (0, "1\n", "")


def test_divisor_entries_at_degree_zero_are_not_stripped(capsys):
    # The divisor axiom needs d >= 1: <H, H, H>_0 = 1 on P^3 is a triple
    # intersection, but the stripped key <>_0 is 0 (the driver's own cases are
    # in test_complex_engine.py::test_rule_degree_zero).
    assert run(capsys, "complex", "--dim", "3", "--d", "0", "--codims", "1,1,1") == (0, "1\n", "")
    assert not is_memo_key("C", 3, 0, CodimVector.of(1, 1, 1))


def _unchanged(limit):
    return limit is None or sys.get_int_max_str_digits() == limit


def test_values_past_the_digit_limit_print_exactly(capsys, tmp_path, digit_limit):
    # <H^2 x 5>_2 of P^2 is 1, so 15,000 divisors make 2^15000: 4,516 digits.
    argv = ("complex", "--dim", "2", "--d", "2", "--codims", "2,2,2,2,2" + ",1" * 15_000)
    expected = str(decimal.Decimal(2**15000))  # Decimal formats past the limit
    assert run(capsys, *argv) == (0, expected + "\n", "") and _unchanged(digit_limit)
    code, out, err = run(capsys, *argv, "--json")
    assert (code, json.loads(out)["value"], err) == (0, expected, "")
    store = str(tmp_path / "big.gwc")
    for _ in range(2):  # computed and saved, then answered from the store
        assert run(capsys, *argv, "--cache", store) == (0, expected + "\n", "")
    assert _unchanged(digit_limit)


def test_a_stored_value_past_the_digit_limit_round_trips(capsys, tmp_path, digit_limit):
    # The store is trusted: a hand-written value of 5,000 digits is read back
    # by the one-line lookup and by the full parse, and rewritten unchanged.
    big = "9" * 5000
    path = tmp_path / "big.gwc"
    path.write_text(f"{HEADER}\ngw1|C|N=3|d=2|c=2,2,2,2,2,2,2,2|v={big}\n")
    text = path.read_text()
    argv = ("complex", "--dim", "3", "--d", "2", "--cache", str(path), "--codims")
    assert run(capsys, *argv, "2,2,2,2,2,2,2,2") == (0, big + "\n", "")
    code, out, _ = run(capsys, *argv, "1,2,2,2,2,2,2,2,2")
    assert (code, out) == (0, "1" + "9" * 4999 + "8\n")  # 2 * (10^5000 - 1)
    assert run(capsys, "cache", "save", "--cache", str(path))[0] == 0
    assert path.read_text() == text and _unchanged(digit_limit)


def test_arguments_past_the_digit_limit_parse(capsys, digit_limit):
    # Integer arguments of 5,000 digits are read as keys, which are 0 here.
    big = "9" * 5000
    assert run(capsys, "complex", "--dim", "3", "--d", big, "--codims", "2") == (0, "0\n", "")
    argv = ("complex", "--dim", "3", "--d", "1", "--codims", f"3,{big}")
    assert run(capsys, *argv) == (0, "0\n", "") and _unchanged(digit_limit)
    with pytest.raises(SystemExit):  # a usage error still restores the caller's limit
        main(["complex", "--dim", "3", "--d", "x", "--codims", "2"])
    assert _unchanged(digit_limit)


def test_json_query_output(capsys):
    code, out, _ = run(capsys, "real", "--n", "2", "--d", "3",
                       "--codims", "3,3,3", "--json")
    assert code == 0
    assert json.loads(out) == {
        "space": "real-2",
        "d": 3,
        "codims": [3, 3, 3],
        "value": "-1",
    }
    code, out, _ = run(capsys, "complex", "--dim", "5", "--d", "1",
                       "--codims", "5,4,2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "space": "p5",
        "d": 1,
        "codims": [2, 4, 5],
        "value": "1",
    }


def test_malformed_codims_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["real", "--n", "2", "--d", "3", "--codims", "3,x,3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_negative_codimension_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["complex", "--dim", "3", "--d", "1", "--codims", "2,-2"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "argument --codims: codimensions must be >= 0" in captured.err


@pytest.mark.parametrize("argv", [
    ["complex", "--dim", "3", "--d", "1", "--codims", "3_0,3"],
    ["real", "--n", "2", "--d", "٣", "--codims", "3,3,3"],  # Arabic-Indic 3
    ["complex", "--dim", "0_3", "--d", "1", "--codims", "3,3"],
    ["real", "--n", "2", "--d", "3", "--codims", "３,3,3"],  # fullwidth 3
    ["real", "--n", "2", "--d", "+3", "--codims", "3,3,3"],
    ["complex", "--dim", "3", "--d", " 1", "--codims", "3,3"],
    ["table1", "--dmax", "1_0"],
])
def test_integers_are_ascii_digits_only(capsys, argv):
    # int() alone would read each of these as a number.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert len([line for line in captured.err.splitlines() if "error" in line]) == 1


def test_out_of_domain_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["real", "--n", "0", "--d", "3", "--codims", "3,3,3"])
    assert exc.value.code == 2
    capsys.readouterr()
    # n = 1 parses but the key is rejected with a clear message
    code, out, err = run(capsys, "real", "--n", "1", "--d", "1", "--codims", "1")
    assert code == 2
    assert "n >= 2" in err


def test_table1_text_and_csv(capsys):
    code, out, _ = run(capsys, "table1", "--dmax", "9", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "d,value", "1,1", "3,1", "5,5", "7,85", "9,1993",
    ]
    code, out, _ = run(capsys, "table1", "--dmax", "5")
    assert code == 0
    assert out == "1  1\n3  1\n5  5\n"


def test_table1_json(capsys):
    code, out, _ = run(capsys, "table1", "--dmax", "31", "--engine", "closed",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 16
    assert payload[-1] == {"d": 31, "value": str(TABLE1[31])}


def test_table1_respects_limit(capsys):
    assert run(capsys, "table1", "--dmax", "33") == (2, "", "error: --dmax 33 exceeds --limit 31\n")
    code, _, _ = run(capsys, "table1", "--dmax", "33", "--limit", "33",
                     "--engine", "closed")
    assert code == 0


def test_table1_engine_disagreement_is_one_error_line(capsys, monkeypatch):
    from gwcount import tables
    real_series_p3 = tables.real_series_p3

    def off_by_one_at_3(dmax):
        series = real_series_p3(dmax)
        series[3] += 1
        return series

    monkeypatch.setattr(tables, "real_series_p3", off_by_one_at_3)
    code, out, err = run(capsys, "table1", "--dmax", "5")
    assert (code, out) == (1, "")
    assert err == "error: table1 engines disagree: d=3: closed 2 vs general 1\n"


def test_a_failed_table1_leaves_the_cache_as_it_was(capsys, tmp_path):
    path = tmp_path / "store.gwc"
    assert run(capsys, "table1", "--dmax", "5", "--engine", "general", "--cache", str(path)) == \
        (0, "1  1\n3  1\n5  5\n", "")
    # A wrong stored value and a dropped record: the engines disagree and add records.
    text = path.read_text().replace("|d=3|c=3,3,3|v=-1\n", "|d=3|c=3,3,3|v=999\n")
    text = "".join(line for line in text.splitlines(True) if "|d=5|" not in line)
    path.write_text(text)
    code, out, err = run(capsys, "table1", "--dmax", "7", "--engine", "both", "--cache", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: table1 engines disagree: d=3: closed 1 vs general -999;")
    assert path.read_text() == text


def test_table2_json_row_counts(capsys):
    code, out, _ = run(capsys, "table2", "--space", "p5", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 24
    code, out, _ = run(capsys, "table2", "--space", "p7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 27
    assert payload[0] == {"d": 1, "signature": "7^1 5^0 3^0", "value": "1"}


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "table2", "--space", "p5", "--format", "csv")
    _, second, _ = run(capsys, "table2", "--space", "p5", "--format", "csv")
    assert first == second


def test_check_single_suite(capsys):
    code, out, _ = run(capsys, "check", "--suite", "mod4")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith(("PASS", "FAIL")) or ":" in line for line in lines)
    assert lines[-1].endswith("0 failed")


def test_check_all_suites(capsys):
    code, out, _ = run(capsys, "check")
    assert code == 0
    assert out.count("0 failed") >= 6


def test_check_stdout_is_pinned(capsys):
    # Every suite's keys and check names; the divisor suite's seeded draws too.
    code, out, _ = run(capsys, "check")
    assert code == 0 and len(out.splitlines()) == 779
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3abb746d8d177a34a5162af5cbc27666d6405d0cf3f08243f9cb17ac7df5ec6e")


def test_check_builds_one_cold_pair_and_never_reads_a_store(tmp_path, capsys, monkeypatch):
    # Every suite runs on the one pair ``gw check`` builds, whatever GW_CACHE names.
    built = []

    def counted(init):
        def record(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        return record

    for cls in (ComplexEvalContext, RealEvalContext):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    monkeypatch.delenv("GW_CACHE", raising=False)
    code, cold_all, _ = run(capsys, "check")
    assert code == 0 and sorted(built) == ["ComplexEvalContext", "RealEvalContext"]
    cold_parity = run(capsys, "check", "--suite", "parity")[1]
    # An even value: a parity check, and the divisor check of this key, fail if it is read.
    path = tmp_path / "store.gwc"
    path.write_text(f"{HEADER}\ngw1|R|n=2|d=3|c=3,3,3|v=998\n")
    monkeypatch.setenv("GW_CACHE", str(path))
    assert run(capsys, "real", "--n", "2", "--d", "3", "--codims", "3,3,3")[:2] == (0, "998\n")
    assert run(capsys, "check")[:2] == (0, cold_all)
    assert run(capsys, "check", "--suite", "parity")[:2] == (0, cold_parity)


def test_cache_file_bytes_are_pinned(tmp_path, capsys):
    # Guards the render order and the decode of every stored key.
    path = str(tmp_path / "store.gwc")
    for argv in (("table1", "--dmax", "61", "--limit", "61", "--engine", "general"),
                 ("table2", "--space", "p7"), ("table2", "--space", "p5")):
        assert run(capsys, *argv, "--cache", path)[0] == 0
    data = (tmp_path / "store.gwc").read_bytes()
    assert data.count(b"\n") == 286
    assert hashlib.sha256(data).hexdigest() == (
        "9a53f82f6a4bbfaeb6b562d58df3ab63004802560eb7d0ca8ab74fa68d3da113")


def test_suite_registry_names_every_suite_once(monkeypatch):
    from gwcount.checks import SUITES, run_suites
    assert list(SUITES) == ["parity", "mod4", "wdvv-identity", "cross-dim", "divisor"]
    assert [r.suite for r in run_suites(["mod4", "parity"], RealEvalContext())] == [
        "mod4 congruences, d <= 31", "parity, n=2", "parity, n=3", "parity, n=4", "parity, n=5"]
    ran = []
    monkeypatch.setitem(SUITES, "mod4", lambda ctx: ran.append(ctx) or [])
    for names in (["bogus"], ["mod4", "bogus"]):  # no suite runs before the unknown name fails
        with pytest.raises(ValueError, match="unknown suite 'bogus'"):
            run_suites(names, RealEvalContext())
    assert ran == []


def test_cache_flag_persists_results(tmp_path, capsys):
    path = tmp_path / "store.txt"
    code, out, _ = run(capsys, "real", "--n", "2", "--d", "5",
                       "--codims", "3,3,3,3,3", "--cache", str(path))
    assert code == 0
    assert out == "5\n"
    text = path.read_text()
    assert text.startswith(HEADER)
    store = CacheStore.load(path)
    assert store.stats()["records"] == len(store)
    assert len(store) > 0
    # second run reuses the cache and leaves the file unchanged
    code, out, _ = run(capsys, "real", "--n", "2", "--d", "5",
                       "--codims", "3,3,3,3,3", "--cache", str(path))
    assert code == 0
    assert out == "5\n"
    assert path.read_text() == text


def _real_argv(d, path):
    return ["real", "--n", "2", "--d", str(d), "--codims", ",".join(["3"] * d),
            "--cache", str(path)]


def test_cache_hit_leaves_the_file_untouched(tmp_path, capsys, monkeypatch):
    path = tmp_path / "store.txt"
    assert run(capsys, *_real_argv(5, path))[:2] == (0, "5\n")
    before = path.read_bytes(), os.stat(path)
    renders = []
    original = CacheStore.render
    monkeypatch.setattr(CacheStore, "render",
                        lambda self: renders.append(1) or original(self))
    assert run(capsys, *_real_argv(5, path))[:2] == (0, "5\n")
    after = path.read_bytes(), os.stat(path)
    assert after[0] == before[0]
    assert (after[1].st_ino, after[1].st_mtime_ns) == (before[1].st_ino, before[1].st_mtime_ns)
    assert renders == []


def test_cache_miss_rewrites_the_file_canonically(tmp_path, capsys):
    path = tmp_path / "store.txt"
    run(capsys, *_real_argv(5, path))
    assert run(capsys, *_real_argv(7, path))[:2] == (0, "-85\n")
    cctx = ComplexEvalContext()
    rctx = RealEvalContext(cctx)
    for d in (5, 7):
        eval_real(RealKey(n=2, d=d, insertions=CodimVector.of(*[3] * d)), rctx)
    cold = CacheStore()
    cold.absorb(cctx, rctx)
    assert path.read_text() == cold.render()


def _respell_and_query_a_dropped_record(tmp_path, capsys, respelled):
    """Respell the d = 5 record, drop the d = 7 one, then query d = 7: the miss
    must print its value and write the canonical bytes again."""
    path = tmp_path / "store.txt"
    run(capsys, *_real_argv(5, path))
    run(capsys, *_real_argv(7, path))
    canonical = path.read_text()
    dropped = "gw1|R|n=2|d=7|c=3,3,3,3,3,3,3|v=-85\n"
    edited = canonical.replace("|d=5|c=3,3,3,3,3|", respelled).replace(dropped, "")
    assert respelled in edited and dropped not in edited
    path.write_text(edited)
    assert run(capsys, *_real_argv(7, path))[:2] == (0, "-85\n")
    assert path.read_text() == canonical


def test_cache_miss_respells_a_non_canonical_record(tmp_path, capsys):
    _respell_and_query_a_dropped_record(tmp_path, capsys, "|d=05|c=3,3,3,3,3|")


def test_cache_miss_respells_a_leading_zero_after_a_comma(tmp_path, capsys):
    # The flat codimension run of the canonical pattern accepts ",03"; only
    # the exclusion search sends this text to the full record grammar.
    _respell_and_query_a_dropped_record(tmp_path, capsys, "|d=5|c=3,03,3,3,3|")


def test_cache_query_creates_a_missing_file(tmp_path, capsys):
    path = tmp_path / "new.gwc"
    code, out, _ = run(capsys, "real", "--n", "2", "--d", "1", "--codims", "3",
                       "--cache", str(path))
    assert (code, out) == (0, "1\n")
    assert path.read_text() == HEADER + "\n"


def test_cache_verify_finds_an_edited_value(tmp_path, capsys):
    path = tmp_path / "store.txt"
    run(capsys, *_real_argv(5, path))
    code, out, err = run(capsys, "cache", "verify", "--cache", str(path))
    assert (code, err) == (0, "")
    assert out == f"ok: {len(CacheStore.load(path))} records verified\n"
    record = "gw1|R|n=2|d=5|c=3,3,3,3,3|v="
    text = path.read_text()
    assert record + "5\n" in text
    path.write_text(text.replace(record + "5\n", record + "999\n"))
    code, out, err = run(capsys, "cache", "verify", "--cache", str(path))
    assert (code, out) == (1, "")
    assert record + "999" in err
    assert err.count("\n") == 1


def test_cache_env_var_is_fallback(tmp_path, capsys, monkeypatch):
    env_path = tmp_path / "env.txt"
    flag_path = tmp_path / "flag.txt"
    monkeypatch.setenv("GW_CACHE", str(env_path))
    code, _, _ = run(capsys, "real", "--n", "2", "--d", "3", "--codims", "3,3,3")
    assert code == 0
    assert env_path.exists()
    code, _, _ = run(capsys, "real", "--n", "2", "--d", "3", "--codims", "3,3,3",
                     "--cache", str(flag_path))
    assert code == 0
    assert flag_path.exists()


def test_cache_subcommands(tmp_path, capsys):
    path = tmp_path / "store.txt"
    run(capsys, "table1", "--dmax", "7", "--cache", str(path))
    code, out, _ = run(capsys, "cache", "stats", "--cache", str(path))
    assert code == 0
    assert out.startswith("records:")
    code, out, _ = run(capsys, "cache", "load", "--cache", str(path))
    assert code == 0
    assert out.startswith("ok:")
    before = path.read_text()
    code, out, _ = run(capsys, "cache", "save", "--cache", str(path))
    assert code == 0
    assert path.read_text() == before


def test_cache_subcommand_requires_path(capsys, monkeypatch):
    monkeypatch.delenv("GW_CACHE", raising=False)
    assert run(capsys, "cache", "stats") == \
        (2, "", "error: cache path required (--cache or GW_CACHE)\n")


def test_cache_malformed_file_is_reported(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("#gw-cache v9\n")
    code, _, err = run(capsys, "cache", "load", "--cache", str(path))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("cache", "stats", "--cache", "{missing}"),
    ("cache", "load", "--cache", "{missing}"),
    ("cache", "verify", "--cache", "{missing}"),
    ("real", "--n", "2", "--d", "1", "--codims", "3", "--cache", "{dir}"),
    ("table1", "--dmax", "3", "--cache", "{dir}"),
    ("real", "--n", "2", "--d", "1", "--codims", "3", "--cache", "{binary}"),
])
def test_unreadable_cache_is_a_clean_exit(tmp_path, capsys, argv):
    # A non-ASCII file is a bad cache (exit 1), not a usage error (exit 2).
    paths = {"missing": tmp_path / "missing.gwc", "dir": tmp_path,
             "binary": tmp_path / "bin.gwc"}
    paths["binary"].write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff")
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _refuse_full_parse(monkeypatch):
    """Make a store parse or an engine context fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit built a store or an engine context")

    monkeypatch.setattr(CacheStore, "load", classmethod(refuse))
    monkeypatch.setattr(CacheStore, "parse", classmethod(refuse))
    monkeypatch.setattr(cli, "ComplexEvalContext", refuse)
    monkeypatch.setattr(cli, "RealEvalContext", refuse)


def _count_parses(monkeypatch):
    parses = []
    original = CacheStore.parse.__func__
    monkeypatch.setattr(CacheStore, "parse",
                        classmethod(lambda cls, text: parses.append(1) or original(cls, text)))
    return parses


def test_cache_hit_builds_no_store_and_leaves_the_file_untouched(tmp_path, capsys, monkeypatch):
    path = tmp_path / "store.txt"
    assert run(capsys, *_real_argv(5, path))[:2] == (0, "5\n")
    before = path.read_bytes(), os.stat(path)
    _refuse_full_parse(monkeypatch)
    assert run(capsys, *_real_argv(5, path)) == (0, "5\n", "")
    after = path.read_bytes(), os.stat(path)
    assert after[0] == before[0]
    assert (after[1].st_ino, after[1].st_mtime_ns) == (before[1].st_ino, before[1].st_mtime_ns)


@pytest.mark.parametrize("extra, expected", [
    # A second line for the queried key goes to the full parse, which merges
    # an equal value and rejects a different one.
    ("gw1|R|n=2|d=5|c=3,3,3,3,3|v=5\n", (0, "5\n", "")),
    ("gw1|R|n=2|d=5|c=3,3,3,3,3|v=6\n",
     (1, "", "error: conflicting values for R dim=2 d=5 c=3,3,3,3,3: had 5, got 6\n")),
    # A leading zero is outside the grammar, so the full parse sees the conflict.
    ("gw1|R|n=2|d=5|c=03,3,3,3,3|v=6\n",
     (1, "", "error: conflicting values for R dim=2 d=5 c=3,3,3,3,3: had 5, got 6\n")),
])
def test_repeated_cached_key_takes_the_full_parse(tmp_path, capsys, monkeypatch, extra, expected):
    path = tmp_path / "store.txt"
    run(capsys, *_real_argv(5, path))
    path.write_text(path.read_text() + extra)
    parses = _count_parses(monkeypatch)
    assert run(capsys, *_real_argv(5, path)) == expected
    assert parses == [1]


def test_cache_miss_reads_the_file_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "store.txt"
    run(capsys, *_real_argv(5, path))
    reads = []
    original = open

    def counting_open(file, mode="r", *args, **kwargs):
        if os.fspath(file) == str(path) and "r" in mode:
            reads.append(mode)
        return original(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    parses = _count_parses(monkeypatch)
    assert run(capsys, *_real_argv(7, path))[:2] == (0, "-85\n")
    assert (len(reads), parses) == (1, [1])


@pytest.mark.parametrize("argv, records", [
    (("table2", "--space", "p7"), 108),
    # 25 of its 31 records have a two-digit codimension, so the index refuses the store:
    # the full parse keeps it as sorted lines, and each miss merges by multi-digit lists.
    (("real", "--n", "6", "--d", "7", "--codims", "7,11,11,11,11"), 31),
], ids=["p7", "p11"])
def test_every_record_dropped_from_a_store_comes_back_byte_identical(tmp_path, capsys, argv,
                                                                     records):
    # A miss warms the engines from the rest of the store, so recomputing the
    # dropped key adds exactly its record, and the save restores every byte.
    path = tmp_path / "store.gwc"
    assert run(capsys, *argv, "--cache", str(path))[0] == 0
    complete = path.read_bytes()
    lines = complete.decode().splitlines(keepends=True)
    assert len(lines) == records + 1
    for dropped in lines[1:]:
        path.write_text("".join(line for line in lines if line != dropped))
        _, kind, dim, d, codims, value = dropped.rstrip("\n").split("|")
        argv = (("complex", "--dim") if kind == "C" else ("real", "--n")) + (
            dim[2:], "--d", d[2:], "--codims", codims[2:], "--cache", str(path))
        assert run(capsys, *argv) == (0, f"{value[2:]}\n", "")
        assert path.read_bytes() == complete, dropped


def test_cache_load_reads_a_form_feed_as_part_of_a_record(tmp_path, capsys):
    path = tmp_path / "store.gwc"
    path.write_text(f"{HEADER}\ngw1|C|N=3|d=1|c=3,3|v=1\x0cgw1|R|n=2|d=1|c=3|v=1\n")
    code, out, err = run(capsys, "cache", "load", "--cache", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 2: malformed record ") and err.count("\n") == 1


def test_malformed_line_elsewhere_fails_a_cached_query(tmp_path, capsys):
    path = tmp_path / "store.txt"
    run(capsys, *_real_argv(5, path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + ["gw1|R|n=2|d=3|c=3,3,3|v=q"]) + "\n")
    code, out, err = run(capsys, *_real_argv(5, path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: line {len(lines) + 1}: ") and err.count("\n") == 1


def test_non_canonical_spelling_is_read_by_the_full_parse(tmp_path, capsys, monkeypatch):
    # The stored value is replayed as truth, so 7 (not the true 5) shows that
    # the record was read.
    path = tmp_path / "store.txt"
    path.write_text(f"{HEADER}\ngw1|R|n=2|d=5|c=03,3,3,3,3|v=7\n")
    before = path.read_bytes()
    parses = _count_parses(monkeypatch)
    assert run(capsys, *_real_argv(5, path)) == (0, "7\n", "")
    assert parses == [1]
    assert path.read_bytes() == before


def test_unmemoized_record_is_not_answered(tmp_path, capsys):
    # The engine answers <5,5>_1 on P^3 with 0 (codim above N) before its memo.
    path = tmp_path / "store.txt"
    path.write_text(f"{HEADER}\ngw1|C|N=3|d=1|c=5,5|v=7\n")
    code, out, err = run(capsys, "complex", "--dim", "3", "--d", "1", "--codims", "5,5",
                         "--cache", str(path))
    assert (code, out, err) == (0, "0\n", "")


def test_cache_hit_json_output_through_env_var(tmp_path, capsys, monkeypatch):
    path = tmp_path / "store.txt"
    run(capsys, *_real_argv(5, path))
    monkeypatch.setenv("GW_CACHE", str(path))
    argv = ("real", "--n", "2", "--d", "5", "--codims", "3,3,3,3,3", "--json")
    with monkeypatch.context() as m:
        m.setattr(cli, "stored_value", lambda *args: None)
        full = run(capsys, *argv)
    _refuse_full_parse(monkeypatch)
    assert run(capsys, *argv) == full
    assert json.loads(full[1]) == {"space": "real-2", "d": 5,
                                   "codims": [3, 3, 3, 3, 3], "value": "5"}


def test_every_stored_record_answers_alike_on_the_hit_and_full_paths(tmp_path, capsys,
                                                                      monkeypatch):
    path = tmp_path / "store.txt"
    run(capsys, "table1", "--dmax", "9", "--cache", str(path))
    run(capsys, "table2", "--space", "p5", "--cache", str(path))
    records = CacheStore.load(path).sorted_records()
    assert {kind for kind, *_ in records} == {"C", "R"}
    parses = _count_parses(monkeypatch)
    for kind, dim, d, entries, _ in records:
        argv = (("complex", "--dim") if kind == "C" else ("real", "--n")) + (
            str(dim), "--d", str(d), "--codims", ",".join(map(str, entries)),
            "--cache", str(path))
        hit = run(capsys, *argv)
        assert hit[0] == 0 and parses == []
        with monkeypatch.context() as m:
            m.setattr(cli, "stored_value", lambda *args: None)
            assert run(capsys, *argv) == hit
        assert parses == [1]
        parses.clear()


@pytest.mark.parametrize("record", [
    "gw1|C|N=3|d=1|c=5,5|v=0",  # codim above N
    "gw1|C|N=3|d=1|c=3,3|v=1",  # two insertions: the line through two points
    "gw1|R|n=2|d=4|c=2,2|v=0",  # even degree and codims
    "gw1|R|n=2|d=3|c=1,3,3,3|v=-3",  # a divisor insertion
])
def test_cache_verify_rejects_keys_the_engines_never_memoize(tmp_path, capsys, record):
    # Each value is the engine's own, so only the key makes the record bad.
    path = tmp_path / "store.txt"
    path.write_text(f"{HEADER}\n{record}\n")
    code, out, err = run(capsys, "cache", "verify", "--cache", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: bad record {record}: not a key the engines memoize\n"


@pytest.mark.parametrize("record", [
    "gw1|R|n=1|d=1|c=|v=5",  # n <= 1, balanced with no insertions
    "gw1|R|n=1|d=1|c=1,1|v=1",
    "gw1|R|n=-1|d=-3|c=|v=5",
    "gw1|R|n=0|d=1|c=1|v=1",
    "gw1|R|n=2|d=-1|c=3|v=1",  # negative degree
    "gw1|C|N=0|d=3|c=|v=1",  # N <= 0
    "gw1|C|N=-1|d=1|c=2,2,2|v=1",
    "gw1|C|N=3|d=-1|c=0,0,0,0|v=0",  # negative degree
])
def test_cache_verify_rejects_records_outside_the_key_domain(tmp_path, capsys, record):
    path = tmp_path / "store.txt"
    path.write_text(f"{HEADER}\n{record}\n")
    code, out, err = run(capsys, "cache", "verify", "--cache", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: bad record {record}: not a key the engines memoize\n"


COMMAND_NAMES = ["complex", "real", "table1", "table2", "check", "cache"]


def _commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_command_table_lists_every_command_in_help_order():
    assert list(cli.COMMANDS) == COMMAND_NAMES
    assert list(_commands(cli.build_parser())) == COMMAND_NAMES


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out == cli.build_parser().format_help()
    listed = re.findall(r"^    (\S+) +(.+)$", out, re.M)
    assert listed == [(name, help) for name, (help, _, _) in cli.COMMANDS.items()]


def _full_parser_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["complex", "--dim", "3", "--d", "1"],
    ["real", "--n", "2", "--d", "1", "--codims", "3", "--phi", "sigma"],
    ["table1", "--format", "xml"],
    ["table2"],
    ["check", "--suite", "bogus"],
    ["cache", "bogus"],
    ["complex", "--dim", "3", "--d", "1", "--codims", "3,3", "extra"],
    ["real", "--bogus"],
    ["table1", "--dmax", "3", "stray"],
    ["table1", "--bogus", "--dmax", "x"],
    ["bogus"],
    [],
])
def test_usage_errors_match_the_full_parser(capsys, argv):
    expected = _full_parser_error(capsys, argv)
    assert expected[0] == 2 and expected[1].startswith("usage: gw")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, capsys.readouterr().err) == expected


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_command_help_prints_the_full_parsers_bytes(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == _commands(cli.build_parser())[command].format_help()


@pytest.fixture
def built_parsers(monkeypatch):
    """The ``prog`` of every parser built, in order."""
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize("argv", [
    ["table1", "--dm", "3"],
    ["table1", "--dmax=3", "--dmax", "5"],
    ["real", "--n", "2", "--d", "1", "--codims", "3", "--ph", "eta", "--json"],
    ["cache", "--cache", "store.gwc", "stats"],
])
def test_a_known_command_is_read_by_one_parser_as_by_the_full_parser(built_parsers, argv):
    assert cli._parse_args(argv) == cli.build_parser().parse_args(argv)
    # The call's one parser, then the full parser and its six subparsers.
    assert built_parsers[0] == f"gw {argv[0]}" and len(built_parsers) == 1 + 1 + len(COMMAND_NAMES)


def test_a_left_over_argument_is_read_by_the_full_parser(built_parsers, capsys):
    with pytest.raises(SystemExit) as exc:
        cli._parse_args(["complex", "--dim", "3", "--d", "1", "--codims", "3,3", "extra"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: extra\n")
    assert built_parsers == ["gw complex", "gw", *(f"gw {name}" for name in COMMAND_NAMES)]
