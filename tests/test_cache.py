from __future__ import annotations

import os
import random
import re
import sys
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwcount import (
    CacheFormatError,
    CacheIntegrityError,
    CacheStore,
    CodimVector,
    ComplexEvalContext,
    ComplexKey,
    RealEvalContext,
    RealKey,
    eval_complex,
    eval_real,
)
from gwcount.cache import (_CANONICAL_FILE, HEADER, _canonical, is_memo_key, record_line,
                           stored_value)
from gwcount.keys import B, MAX_CODIM, MAX_HELD_INSERTIONS, expand_code


def _ckey(N, d, *cs):
    return ComplexKey(N=N, d=d, insertions=CodimVector.of(*cs))


def _rkey(n, d, *cs):
    return RealKey(n=n, d=d, insertions=CodimVector.of(*cs))


def _code(*cs):
    """The packed code of the entries: the last field of a memo key."""
    return CodimVector.of(*cs)[0]


def test_save_load_roundtrip_is_byte_identical(tmp_path):
    store = CacheStore()
    store.records["C"][(3, 3, _code(3, 3, 3, 3, 3, 3))] = 1
    store.records["C"][(3, 1, _code(3, 3))] = 1
    store.records["C"][(5, 1, _code(2, 4, 5))] = 1
    store.records["R"][(2, 3, _code(3, 3, 3))] = -1
    store.records["R"][(3, 3, _code(3, 5, 5))] = -1
    path = tmp_path / "cache.txt"
    store.save(path)
    text = path.read_text()
    assert text.startswith(HEADER + "\n")
    loaded = CacheStore.load(path)
    assert loaded.records == store.records
    path2 = tmp_path / "cache2.txt"
    loaded.save(path2)
    assert path2.read_text() == text


def test_records_are_sorted_deterministically(tmp_path):
    store = CacheStore()
    store.records["R"][(2, 5, _code(3, 3, 3, 3, 3))] = 5
    store.records["C"][(5, 1, _code(2, 4, 5))] = 1
    store.records["C"][(3, 2, _code(3, 3, 3, 3))] = 0
    store.records["C"][(3, 1, _code(3, 3))] = 1
    lines = store.render().splitlines()
    assert lines[0] == HEADER
    assert lines[1:] == [
        "gw1|C|N=3|d=1|c=3,3|v=1",
        "gw1|C|N=3|d=2|c=3,3,3,3|v=0",
        "gw1|C|N=5|d=1|c=2,4,5|v=1",
        "gw1|R|n=2|d=5|c=3,3,3,3,3|v=5",
    ]


CANONICAL = (f"{HEADER}\ngw1|C|N=3|d=1|c=3,3|v=1\ngw1|C|N=3|d=2|c=3,3,3,3|v=0\n"
             "gw1|R|n=2|d=5|c=3,3,3,3,3|v=5\n")


def test_render_prints_a_changed_value_of_a_parsed_record():
    store = CacheStore.parse(CANONICAL)
    assert store.render() == CANONICAL
    store.records["R"][(2, 5, _code(3, 3, 3, 3, 3))] = 7
    store.records["C"][(3, 1, _code(3, 4))] = 2
    assert store.render() == CANONICAL.replace("v=5", "v=7").replace(
        "c=3,3|v=1\n", "c=3,3|v=1\ngw1|C|N=3|d=1|c=3,4|v=2\n")


@pytest.mark.parametrize("text", [
    CANONICAL.replace("d=5", "d=05"),
    CANONICAL.replace("c=3,3,3,3,3", "c=03,3,3,3,3"),
    CANONICAL.replace("N=3|d=2", "N=03|d=2"),
    CANONICAL.replace("v=5", "v=05"),
    CANONICAL.removesuffix("\n"),
    "".join(f"{line}\n" for line in [HEADER, *reversed(CANONICAL.splitlines()[1:])]),
])
def test_render_of_a_parsed_text_is_the_render_of_its_records(text):
    store = CacheStore.parse(text)
    built = CacheStore()
    for kind, records in store.records.items():
        built.records[kind].update(records)
    assert store.render() == built.render() == CANONICAL


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("#gw-cache v2\n")
    with pytest.raises(CacheFormatError):
        CacheStore.load(path)
    path.write_text("")
    with pytest.raises(CacheFormatError):
        CacheStore.load(path)


def test_load_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.txt"
    for line in (
        "gw1|C|N=3|d=1|c=3,3",
        "gw2|C|N=3|d=1|c=3,3|v=1",
        "gw1|X|N=3|d=1|c=3,3|v=1",
        "gw1|C|n=3|d=1|c=3,3|v=1",
        "gw1|C|N=3|d=1|c=3,2|v=1",
        "gw1|C|N=3|d=1|c=3,3|v=q",
        "gw1|C|N=3|d=one|c=3,3|v=1",
        "gw1|C|N=3|d=1|c=3,1025|v=0",  # entries above MAX_CODIM
        "gw1|C|N=3|d=1|c=3,1000000000|v=0",
        "gw1|C|N=3|d=1|c=1" + ",1" * 65_535 + "|v=1",  # a digit past 2^16 - 1
    ):
        path.write_text(HEADER + "\n" + line + "\n")
        with pytest.raises(CacheFormatError):
            CacheStore.load(path)


def test_render_parse_roundtrip_at_the_insertion_bound():
    # add fills a digit to 2^16 - 1 insertions; a store holding that vector
    # must read back what save wrote.
    cv = CodimVector.of(3, 3).add(2, MAX_HELD_INSERTIONS - 2)
    assert cv.k == MAX_HELD_INSERTIONS == 65_535
    store = CacheStore()
    store.records["C"][(3, 1, cv[0])] = 5
    assert CacheStore.parse(store.render()).records == store.records


@pytest.mark.parametrize("line", [
    "gw1|C|N=3|d=1|c=3_0|v=1",
    "gw1|C|N=3|d=1|c=3,3|v= +7",
    "gw1|C|N=3|d=1|c=3,3|v=+7",
    "gw1|C|N=3|d= 5|c=3,3|v=1",
])
def test_parse_reads_only_the_record_grammar(line):
    # int() alone would read these as c=30, v=7, v=7 and d=5.
    with pytest.raises(CacheFormatError, match=r"^line 2: malformed record "):
        CacheStore.parse(f"{HEADER}\n{line}\n")
    # Leading zeros are part of the grammar: 03 and 3 are one codimension.
    store = CacheStore.parse(f"{HEADER}\ngw1|C|N=03|d=01|c=03,3|v=-07\n")
    assert store.records["C"] == {(3, 1, _code(3, 3)): -7}


def test_load_rejects_non_ascii_bytes(tmp_path):
    path = tmp_path / "bin.gwc"
    path.write_bytes(HEADER.encode() + b"\n\xff\xfe\n")
    with pytest.raises(CacheFormatError):
        CacheStore.load(path)


def test_load_rejects_conflicting_records(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        HEADER + "\n"
        + "gw1|C|N=3|d=1|c=3,3|v=1\n"
        + "gw1|C|N=3|d=1|c=3,3|v=2\n"
    )
    with pytest.raises(CacheIntegrityError):
        CacheStore.load(path)


def test_large_roundtrip(tmp_path):
    store = CacheStore()
    count = 0
    for N in (3, 5, 7, 9):
        for d in range(1, 26):
            for k in range(1, 101):
                store.records["C"][(N, d, _code(2, 3, k + 3))] = (-k) ** d + N
                count += 1
    assert count == 10000
    path = tmp_path / "big.txt"
    store.save(path)
    loaded = CacheStore.load(path)
    assert loaded.records == store.records
    assert loaded.stats() == {"records": 10000, "complex": 10000, "real": 0}


def test_warm_and_absorb_regenerate_memos():
    cctx = ComplexEvalContext()
    rctx = RealEvalContext(cctx)
    value = eval_real(_rkey(2, 5, 3, 3, 3, 3, 3), rctx)
    assert value == 5
    store = CacheStore()
    assert store.absorb(cctx, rctx) == len(cctx.memo) + len(rctx.memo) > 0
    assert len(store) == len(cctx.memo) + len(rctx.memo)
    assert store.records == {"C": cctx.memo, "R": rctx.memo}
    assert store.absorb(cctx, rctx) == 0

    cctx2 = ComplexEvalContext()
    rctx2 = RealEvalContext(cctx2)
    store.warm(cctx2, rctx2)
    assert cctx2.memo == cctx.memo
    assert rctx2.memo == rctx.memo
    # warmed evaluation is a pure memo hit and agrees with the cold run
    assert eval_real(_rkey(2, 5, 3, 3, 3, 3, 3), rctx2) == value
    assert rctx2.deep_evals == 0


def test_warm_cache_cannot_change_results(tmp_path):
    # save, reload, recompute: identical values as from scratch
    cctx = ComplexEvalContext()
    rctx = RealEvalContext(cctx)
    cold = [eval_real(_rkey(2, d, *([3] * d)), rctx) for d in (1, 3, 5, 7)]
    store = CacheStore()
    store.absorb(cctx, rctx)
    path = tmp_path / "cache.txt"
    store.save(path)

    warmed = CacheStore.load(path)
    cctx2 = ComplexEvalContext()
    rctx2 = RealEvalContext(cctx2)
    warmed.warm(cctx2, rctx2)
    warm = [eval_real(_rkey(2, d, *([3] * d)), rctx2) for d in (1, 3, 5, 7)]
    assert warm == cold


def test_a_warmed_record_of_an_unmemoized_factor_is_never_read():
    # Each record is a product factor of the queried key that is not its own
    # core: the engines answer it by the divisor relation, never from a memo,
    # so even a wrong stored value must not reach the result.
    queries = [(eval_complex, _ckey(3, 3, *[2] * 12), "C", (3, 1, (1, 1, 2, 2, 2, 2))),
               (eval_real, _rkey(2, 5, *[3] * 5), "R", (2, 3, (1, 3, 3, 3)))]
    for evaluate, key, kind, (dim, d, entries) in queries:
        assert not is_memo_key(kind, dim, d, CodimVector.of(*entries))
        cold = evaluate(key, RealEvalContext() if kind == "R" else ComplexEvalContext())
        store = CacheStore()
        store.records[kind][(dim, d, _code(*entries))] = 7
        cctx = ComplexEvalContext()
        rctx = RealEvalContext(cctx)
        store.warm(cctx, rctx)
        assert evaluate(key, rctx if kind == "R" else cctx) == cold


def test_absorb_detects_engine_cache_conflicts():
    cctx = ComplexEvalContext()
    eval_complex(_ckey(3, 3, 3, 3, 3, 3, 3, 3), cctx)
    store = CacheStore()
    store.absorb(cctx, RealEvalContext(cctx))
    # corrupt one stored value, then absorbing the honest memo must fail
    memo_key = next(iter(store.records["C"]))
    store.records["C"][memo_key] += 1
    with pytest.raises(CacheIntegrityError):
        store.absorb(cctx, RealEvalContext(cctx))
    # and so must a store that keeps the lines of the corrupted text undecoded
    kept = CacheStore.parse(store.render())
    assert kept._kept
    with pytest.raises(CacheIntegrityError, match="^conflicting values for C "):
        kept.absorb(cctx, RealEvalContext(cctx))


def test_load_keys_records_like_the_engine_memos(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text(HEADER + "\n"
                    + "gw1|C|N=3|d=2|c=2,2,3,3,3|v=1\n"
                    + "gw1|R|n=2|d=3|c=1,3,3,3|v=-3\n"
                    + "gw1|R|n=2|d=1|c=|v=0\n")
    loaded = CacheStore.load(path)
    assert loaded.records == {
        "C": {(3, 2, _code(2, 2, 3, 3, 3)): 1},
        "R": {(2, 3, _code(1, 3, 3, 3)): -3, (2, 1, _code()): 0},
    }


def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch):
    store = CacheStore()
    store.records["C"][(3, 1, _code(3, 3))] = 1
    path = tmp_path / "cache.txt"
    store.save(path)
    before = path.read_bytes()
    store.records["C"][(3, 2, _code(3, 3, 3, 3))] = 0
    # a record that cannot be encoded makes the write fail part-way
    monkeypatch.setattr(CacheStore, "render", lambda self: HEADER + "\nv=\u221e\n")
    with pytest.raises(UnicodeEncodeError):
        store.save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cache.txt"]


def test_save_through_a_symlink_updates_its_target(tmp_path):
    store = CacheStore()
    store.records["C"][(3, 1, _code(3, 3))] = 1
    target = tmp_path / "cache.txt"
    store.save(target)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    store.records["C"][(3, 2, _code(3, 3, 3, 3))] = 0
    store.save(link)
    assert link.is_symlink()
    assert target.read_text() == store.render()


codim_lists = st.lists(st.integers(0, 6), max_size=6).map(sorted)
memo_records = st.dictionaries(
    st.tuples(st.sampled_from("CR"), st.integers(1, 9), st.integers(0, 30),
              codim_lists.map(lambda c: _code(*c))),
    st.integers(-(10**40), 10**40),
    max_size=30,
)


@settings(max_examples=50, deadline=None, database=None)
@given(memo_records)
@example({("C", 3, 2, _code(3, 3)): 1, ("C", 3, 2, _code(3, 4)): 2,
          ("C", 3, 2, _code(3, 3, 3)): 3})
def test_render_load_roundtrip_fuzz(tmp_path_factory, records):
    store = CacheStore()
    for (kind, dim, d, code), value in records.items():
        store.records[kind][(dim, d, code)] = value
    text = store.render()
    path = tmp_path_factory.mktemp("fuzz") / "cache.txt"
    path.write_text(text)
    loaded = CacheStore.load(path)
    assert loaded.records == store.records
    assert loaded.render() == text
    # file order is by the expanded codimension lists: 3,3 < 3,3,3 < 3,4
    lines = text.splitlines()[1:]
    assert lines == sorted(lines, key=_file_order)


def _file_order(line):
    _, kind, dim, d, codims, _ = line.split("|")
    return kind, int(dim[2:]), int(d[2:]), tuple(int(c) for c in codims[2:].split(",") if c)


# Classes past 9, so that 9 sorts before 10 only as a number does.
wide_records = st.dictionaries(
    st.tuples(st.sampled_from("CR"), st.integers(-1, 3), st.integers(-1, 3),
              st.lists(st.integers(0, 12), max_size=6).map(sorted).map(tuple)),
    st.integers(-(10**40), 10**40),
    max_size=30,
)


@settings(max_examples=100, deadline=None, database=None)
@given(wide_records)
@example({("C", 3, 2, (3,)): 1, ("C", 3, 2, (3, 3)): 2, ("C", 3, 2, (3, 4)): 3,
          ("C", 3, 2, ()): 4, ("C", 3, 2, (0, 3)): 5, ("R", 3, 2, (9,)): 6,
          ("R", 3, 2, (10,)): 7, ("R", 3, 2, (9, 10)): 8, ("R", 3, 2, (0,)): 9})
def test_render_matches_the_record_line_reference(records):
    store = CacheStore()
    for (kind, dim, d, entries), value in records.items():
        store.records[kind][(dim, d, _code(*entries))] = value
    reference = sorted((kind, dim, d, entries, value)
                       for (kind, dim, d, entries), value in records.items())
    assert store.sorted_records() == reference
    assert store.render() == "".join(f"{line}\n" for line in [
        HEADER, *(record_line(*record) for record in reference)])


# One record line as the full parse reads it, matched line by line.
_RECORD = re.compile(
    r"gw1\|(C\|N|R\|n)=(-?[0-9]+)\|d=(-?[0-9]+)\|c=((?:[0-9]+(?:,[0-9]+)*)?)\|v=(-?[0-9]+)")


def _reference_parse(text):
    """Records by kind of the full parse, converting every entry with int()."""
    lines = text.removesuffix("\n").split("\n") if text else []
    if not lines or lines[0] != HEADER:
        raise CacheFormatError(
            f"unsupported cache header: {lines[0]!r}" if lines else "empty cache file")
    records = {"C": {}, "R": {}}
    for lineno, line in enumerate(lines[1:], start=2):
        match = _RECORD.fullmatch(line)
        if match is None:
            raise CacheFormatError(f"line {lineno}: malformed record {line!r}")
        tag, dim, d, body, value = match.groups()
        try:
            entries = [int(c) for c in body.split(",")] if body else []
            if (entries != sorted(entries) or len(entries) > MAX_HELD_INSERTIONS
                    or entries and entries[-1] > MAX_CODIM):
                raise ValueError(f"codimensions must be sorted, at most {MAX_HELD_INSERTIONS} "
                                 f"of them, each at most {MAX_CODIM}: {body!r}")
            key = (int(dim), int(d), sum(1 << B * c for c in entries))
            value = int(value)
        except ValueError as exc:
            raise CacheFormatError(f"line {lineno}: {exc}") from None
        if records[tag[0]].setdefault(key, value) != value:
            raise CacheIntegrityError(
                f"conflicting values for {tag[0]} dim={key[0]} d={key[1]} "
                f"c={','.join(map(str, entries))}: had {records[tag[0]][key]}, got {value}")
    return records


# Codimension spellings: leading zeros, the MAX_CODIM bound and an entry too
# long for int() to convert.
spellings = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(1, 3), st.integers(0, 12)).map(lambda z: "0" * z[0] + str(z[1])),
    st.sampled_from(["1024", "01024", "1025", "01025", "3" * 5_000]),
)
record_lines = st.tuples(
    st.sampled_from(["C|N", "R|n"]), st.sampled_from(["3", "03", "-1"]),
    st.sampled_from(["1", "2", "01"]), st.lists(spellings, max_size=5),
    st.sampled_from(["0", "5", "-5", "05"]),
).map(lambda r: f"gw1|{r[0]}={r[1]}|d={r[2]}|c={','.join(r[3])}|v={r[4]}")


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.one_of(record_lines, st.sampled_from(["", "gw1|C|N=3|d=1|c=3_0|v=1"])),
                max_size=8))
@example(["gw1|C|N=3|d=1|c=3,03|v=1", "gw1|C|N=3|d=1|c=03,3|v=1"])
@example(["gw1|C|N=3|d=1|c=03,2|v=1"])
@example(["gw1|C|N=3|d=1|c=01025|v=1"])
@example(["gw1|C|N=3|d=1|c=2,01024,1024|v=1", "gw1|C|N=3|d=1|c=2,1024,01024|v=5"])
@example(["gw1|C|N=3|d=1|c=1025," + "3" * 5_000 + "|v=1"])
@example(["gw1|C|N=3|d=1|c=2,3|v=1", "gw1|C|N=3|d=1|c=2," + "0" * 4_999 + "3|v=1"])
def test_parse_matches_the_per_entry_reference(lines):
    text = "".join(f"{line}\n" for line in [HEADER, *lines])
    try:
        want = _reference_parse(text)
    except (CacheFormatError, CacheIntegrityError) as exc:
        with pytest.raises(type(exc)) as got:
            CacheStore.parse(text)
        assert str(got.value) == str(exc)
    else:
        assert CacheStore.parse(text).records == want


# Canonical record lines, so that only file order, a repeated key, a list out
# of order and entries of more than one digit keep a text from the index.
canonical_records = st.tuples(
    st.sampled_from("CR"), st.sampled_from([2, 3, 10]),
    st.sampled_from([0, 1, 2, 3, 9, 10, 11]),
    st.lists(st.integers(0, 4), max_size=6).map(sorted).map(tuple),
    st.integers(-(10**6), 10**6),
)
# Codimension lists of which a text holds at most one each.
_WIDE_CODIMS = st.lists(st.sampled_from([2, 3, 9, 10, 12, 1024]), min_size=1, max_size=3)
_RARE_CODIMS = [(5, 3, 3, 3), (1025,), (3,) * MAX_HELD_INSERTIONS,
                (3,) * (MAX_HELD_INSERTIONS + 1)]


def _text(records):
    return "".join(f"{line}\n" for line in [HEADER, *(record_line(*r) for r in records)])


@st.composite
def canonical_texts(draw):
    records = draw(st.lists(canonical_records, max_size=8, unique_by=lambda r: r[:4]))
    sometimes = st.integers(0, 3).map(lambda i: i == 0)
    if draw(sometimes):
        records.append(("C", 3, 1, tuple(sorted(draw(_WIDE_CODIMS))), 1))
    if draw(sometimes):
        records.append(("R", 2, 1, draw(st.sampled_from(_RARE_CODIMS)), 1))
    records = sorted(set(records))
    if records and draw(sometimes):  # a line again, next to itself, maybe another value
        at = draw(st.integers(0, len(records) - 1))
        records.insert(at + 1, (*records[at][:4], records[at][4] + draw(st.sampled_from([0, 1]))))
    if draw(sometimes):
        records = draw(st.permutations(records))
    return _text(records)


# Balanced keys of both engines, stored or not; each drawn memo key is queried too.
_QUERIES = [("C", 3, 2, (3, 3, 3, 3)), ("C", 2, 2, (2, 2, 2, 2, 2)),
            ("C", 3, 3, (2, 2, 3, 3, 3, 3, 3)), ("R", 2, 3, (3, 3, 3)), ("R", 2, 5, (3,) * 5)]


def _warmed_run(store, queries):
    """Values, counters, records added and rendered text of ``queries`` in a context
    pair warmed from ``store``."""
    cctx = ComplexEvalContext()
    rctx = RealEvalContext(cctx)
    store.warm(cctx, rctx)
    values = [eval_complex(_ckey(dim, d, *entries), cctx) if kind == "C"
              else eval_real(_rkey(dim, d, *entries), rctx) for kind, dim, d, entries in queries]
    counters = [{name: ctx.stats()[name] for name in ("calls", "memo_hits", "deep_evals")}
                for ctx in (cctx, rctx)]
    return values, counters, store.absorb(cctx, rctx), store.render()


@settings(max_examples=150, deadline=None, database=None)
@given(canonical_texts())
@example(_text([("C", 2, 2, (2, 2, 2, 2, 2), 7), ("C", 3, 2, (3, 3, 3, 3), -4),
                ("R", 2, 3, (3, 3, 3), 5), ("R", 3, 1, (), 0)]))
@example(_text([("C", 3, 2, (3, 3, 3, 3), -4), ("C", 2, 2, (2, 2, 2, 2, 2), 7)]))
@example(_text([("C", 3, 2, (3, 3, 3, 3), -4), ("C", 3, 2, (3, 3, 3, 3), -4)]))
@example(_text([("C", 3, 2, (3, 3, 3, 3), -4), ("C", 3, 2, (3, 3, 3, 3), -3)]))
@example(_text([("C", 3, 2, (3, 3, 3, 3), 1), ("C", 3, 2, (5, 3, 3, 3), 1)]))
@example(_text([("C", 3, 1, (9,), 1), ("C", 3, 1, (10,), 1), ("C", 3, 2, (3, 3, 3, 3), 1)]))
@example(_text([("C", 3, 1, (3,) * MAX_HELD_INSERTIONS, 1), ("R", 2, 3, (3, 3, 3), 5)]))
@example(_text([("R", 2, 1, (3,) * (MAX_HELD_INSERTIONS + 1), 1)]))
@example(_text([("R", 2, 1, (1024,), 1), ("R", 2, 1, (1025,), 1)]))
@example(_text([("C", 3, 10, (), 2), ("C", 3, 9, (), 1)]))  # in order only as strings
@example(_text([("R", 10, 1, (3,), 2), ("R", 2, 1, (3,), 1)]))
def test_indexed_parse_matches_the_per_entry_reference(text):
    try:
        want = _reference_parse(text)
    except (CacheFormatError, CacheIntegrityError) as exc:
        with pytest.raises(type(exc)) as got:
            CacheStore.parse(text)
        assert str(got.value) == str(exc)
        return
    reference = CacheStore()
    for kind, records in want.items():
        reference.records[kind].update(records)
    store = CacheStore.parse(text)
    assert (len(store), store.render()) == (len(reference), reference.render())
    queries = _QUERIES + [(kind, dim, d, expand_code(code)) for kind in "CR"
                          for dim, d, code in want[kind] if len(expand_code(code)) <= 8
                          and is_memo_key(kind, dim, d, CodimVector.of(*expand_code(code)))]
    assert _warmed_run(store, queries) == _warmed_run(reference, queries)
    assert (store.records, store.stats()) == (reference.records, reference.stats())


def test_parse_decodes_no_record_of_a_sorted_canonical_text(monkeypatch):
    # Every other text is decoded as it is parsed; a canonical one is then kept as
    # lines too, so that its render writes them again.
    decoded = []
    decode = CacheStore._decode
    monkeypatch.setattr(CacheStore, "_decode",
                        lambda store, lines: decoded.append(len(lines)) or decode(store, lines))
    records = [("C", 3, 1, (3, 3), 1), ("C", 3, 2, (3, 3, 3, 3), 0), ("C", 3, 10, (), 2),
               ("R", 2, 5, (3, 3, 3, 3, 3), 5)]
    assert CacheStore.parse(_text(records))._kept and decoded == []
    wide = [("C", 3, 1, (3, 9), 1), ("C", 3, 1, (3, 10), 1)]
    for text, kept in ((_text(records[::-1]), 4), (_text(records + records[-1:]), 4),
                       (_text(wide), 2), (_text(wide[::-1]), 2),
                       (_text(records).removesuffix("\n"), 0),
                       (_text(records).replace("d=2|", "d=02|"), 0)):
        assert len(CacheStore.parse(text)._kept) == kept and decoded.pop(), text


def test_a_value_past_the_digit_limit_fails_a_parse_unless_the_limit_is_lifted(digit_limit):
    # Library code keeps Python's int/str limit; a parse checks every value against
    # it, also one on a line that no lookup reads, and keeps it when lifted.
    text = (f"{HEADER}\ngw1|C|N=3|d=2|c=2,2,2,2,2,2,2,2|v=1\n"
            f"gw1|C|N=3|d=3|c=2,2,2,2,2,2,2,2,2,2,2|v={'9' * 5000}\n")
    if digit_limit is not None:
        with pytest.raises(CacheFormatError, match=r"^line 3: "):
            CacheStore.parse(text)
        sys.set_int_max_str_digits(0)
    store = CacheStore.parse(text)
    cctx = ComplexEvalContext()
    store.warm(cctx, RealEvalContext(cctx))
    assert eval_complex(_ckey(3, 2, *[2] * 8), cctx) == 1
    assert store.render() == text


@pytest.mark.parametrize("swap", [False, True])
def test_a_value_parsed_under_a_lifted_digit_limit_is_read_under_the_default(digit_limit, swap):
    # A value that needs a lifted int/str limit is converted as the text is parsed,
    # whether the text is in file order or not, so that it is read after the default
    # limit is restored as at the time of the parse.
    if digit_limit is None:
        pytest.skip("this Python has no int/str digit limit")
    lines = ["gw1|C|N=3|d=1|c=3,3|v=1", f"gw1|C|N=3|d=2|c={','.join('2' * 8)}|v={'9' * 5000}"]
    sys.set_int_max_str_digits(0)
    want = int("9" * 5000)
    store = CacheStore.parse("\n".join([HEADER, *(lines[::-1] if swap else lines), ""]))
    sys.set_int_max_str_digits(digit_limit)
    cctx = ComplexEvalContext()
    store.warm(cctx, RealEvalContext(cctx))
    assert eval_complex(_ckey(3, 2, *[2] * 8), cctx) == want


@pytest.mark.parametrize(
    "brk", ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
def test_parse_splits_records_at_newlines_only(brk, tmp_path):
    # str.splitlines would read these as two records, and a text-mode read
    # would turn "\r" and "\r\n" into "\n"; only "\n" ends a line.  So a
    # break in one record, or in place of every "\n", fails on load as in parse.
    line = f"gw1|C|N=3|d=1|c=3,3|v=1{brk}gw1|R|n=2|d=1|c=3|v=1"
    one_record = f"{HEADER}\n{line}\n"
    for text, message in ((one_record, r"^line 2: malformed record "),
                          (one_record.replace("\n", brk), r"^unsupported cache header: ")):
        with pytest.raises(CacheFormatError, match=message) as parsed:
            CacheStore.parse(text)
        if brk.isascii():
            path = tmp_path / "store.gwc"
            path.write_bytes(text.encode("ascii"))
            with pytest.raises(CacheFormatError) as loaded:
                CacheStore.load(path)
            assert str(loaded.value) == str(parsed.value)


def test_parse_reads_a_missing_final_newline_and_rejects_blank_lines():
    assert len(CacheStore.parse(f"{HEADER}\ngw1|C|N=3|d=1|c=3,3|v=1")) == 1
    assert len(CacheStore.parse(HEADER)) == 0
    with pytest.raises(CacheFormatError, match=r"^line 2: malformed record ''$"):
        CacheStore.parse(f"{HEADER}\n\ngw1|C|N=3|d=1|c=3,3|v=1\n")
    with pytest.raises(CacheFormatError, match=r"^line 3: malformed record ''$"):
        CacheStore.parse(f"{HEADER}\ngw1|C|N=3|d=1|c=3,3|v=1\n\n")


# The canonical grammar as one nested match, each codimension entry its own
# repeat of a group: the language that ``_canonical`` must accept exactly.
_INT = "(?:[1-9][0-9]*|0)"
_CANONICAL_REFERENCE = re.compile(
    rf"{re.escape(HEADER)}\n(?:gw1\|(?:C\|N|R\|n)={_INT}\|d={_INT}"
    rf"\|c=(?:{_INT}(?:,{_INT})*)?\|v=(?:-?[1-9][0-9]*|0)\n)*")


def _random_canonical_line(rng):
    kind = rng.choice("CR")
    entries = sorted(rng.choices(range(13), k=rng.randrange(6)))
    return record_line(kind, rng.randrange(13), rng.randrange(13), tuple(entries),
                       rng.randrange(-12, 13))


def test_canonical_check_matches_the_nested_reference_on_mutated_stores():
    rng = random.Random(20131016)
    alphabet = "0123456789,,,00|=-\nCRNncdvgw#"
    verdicts = {True: 0, False: 0}
    searched = 0  # texts that only the exclusion search rejects
    for _ in range(20_000):
        text = list("".join(f"{line}\n" for line in [
            HEADER, *(_random_canonical_line(rng) for _ in range(rng.randrange(1, 4)))]))
        for _ in range(rng.randint(0, 3)):  # a quarter stay canonical
            at = rng.randrange(len(text) + 1)
            op = rng.random()
            if op < 0.4:
                text.insert(at, rng.choice(alphabet))
            elif at < len(text):
                if op < 0.7:
                    del text[at]
                else:
                    text[at] = rng.choice(alphabet)
        text = "".join(text)
        want = _CANONICAL_REFERENCE.fullmatch(text) is not None
        assert _canonical(text) == want, text
        verdicts[want] += 1
        searched += not want and _CANONICAL_FILE.fullmatch(text) is not None
    assert min(verdicts.values()) > 4_000 and searched > 50, (verdicts, searched)


# Spellings of one field of ``_LINE``; the exclusion search alone rejects the
# two near-misses marked True.
_LINE = "gw1|C|N=3|d=1|c=3|v=1"
_NEAR_MISSES = {
    "c=,3": False, "c=3,": False, "c=3,,3": True, "c=03": False, "c=3,03": True,
    "v=-0": False, "v=00": False, "d=03": False, "N=03": False, "C|n=": False, "R|N=": False,
}
_SPELLINGS = ["c=", "c=0", "c=0,3", "v=0", "v=-7", "d=0"]


def _respelled(spelling):
    field = spelling[:spelling.index("=") + 1]
    if "|" in field:
        return _LINE.replace("C|N=", field)
    return re.sub(rf"(?<=\|){re.escape(field)}[^|]*", spelling, _LINE)


@pytest.mark.parametrize("spelling", [*_NEAR_MISSES, *_SPELLINGS])
def test_canonical_check_rejects_each_near_miss_and_no_legitimate_spelling(spelling):
    # A line for the queried key comes first, so that a hit can fail only on the check.
    key = _rkey(2, 5, 3, 3, 3, 3, 3)
    line = _respelled(spelling)
    assert line.count(spelling) == 1 and line != _LINE
    text = f"{HEADER}\ngw1|R|n=2|d=5|c=3,3,3,3,3|v=5\n{line}\n"
    accepted = spelling in _SPELLINGS
    assert (_CANONICAL_REFERENCE.fullmatch(text) is not None) == accepted
    assert _canonical(text) == accepted
    assert (_CANONICAL_FILE.fullmatch(text) is not None) == (
        accepted or _NEAR_MISSES[spelling])
    assert stored_value(text, key) == (5 if accepted else None)


def _multisets(codims, kmax):
    for k in range(kmax + 1):
        for entries in combinations_with_replacement(codims, k):
            yield CodimVector.of(*entries)


def test_is_memo_key_matches_what_a_cold_evaluation_memoizes():
    # Codims run one past the target's top class, so vanishing keys are included.
    memoized = {"C": 0, "R": 0}
    for N in range(1, 6):
        for d in range(4):
            for cv in _multisets(range(N + 2), 6):
                ctx = ComplexEvalContext()
                eval_complex(ComplexKey(N=N, d=d, insertions=cv), ctx)
                assert is_memo_key("C", N, d, cv) == ((N, d, cv[0]) in ctx.memo), (N, d, cv)
                memoized["C"] += (N, d, cv[0]) in ctx.memo
    for n in (2, 3):
        for d in range(1, 6):
            for cv in _multisets(range(1, 2 * n + 1), 6):
                ctx = RealEvalContext()
                eval_real(RealKey(n=n, d=d, insertions=cv), ctx)
                assert is_memo_key("R", n, d, cv) == ((n, d, cv[0]) in ctx.memo), (n, d, cv)
                memoized["R"] += (n, d, cv[0]) in ctx.memo
    assert memoized == {"C": 55, "R": 9}  # of 13,584 complex and 5,670 real keys
