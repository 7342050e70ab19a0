"""Inputs, passes and output checks of the three benchmark workloads.

A workload is a loop of passes.  Every pass starts from cold engine
contexts, as every ``gw`` invocation does, and repeats the same ops: the
rows of one ``gw table1`` call (``p3-deep``), one ``eval_real`` call per
P^7 key (``p7-sweep``) or one ``gw real|complex --cache`` call per query
(``cache-query``).  An op is the unit that is timed, checked and counted as
failed.

The program sees only argv lists and keys.  Keys, expected values and the
expected table text come from ``reference.json``, which ``make_reference.py``
wrote from the seed commit of the benchmark, so later changes to the
program's own enumeration or formatting cannot change the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# Scratch space of the benchmark, inside the checkout it runs from.
WORK = HERE.parent / ".bench_work"

TABLE1_ARGV = ["table1", "--dmax", "61", "--limit", "61", "--engine", "both"]

# Store sweeps: (name, real half-dimension n, degrees).  p3 is the real P^3
# key <3^d>_d behind each table1 row.
SWEEPS = (("p3", 2, tuple(range(1, 62, 2))),
          ("p7", 4, (1, 3, 5, 7, 9)),
          ("p5", 3, (1, 3, 5, 7, 9, 11, 13)))

# cache-query: one pass is a session of QUERIES_PER_PASS queries against a
# fresh copy of the prepared store.  MISSES_PER_PASS of them (10%) ask for a
# key held out of the store, split evenly between complex and real keys, and
# drawn from records of degree <= MISS_MAX_DEGREE so that every miss is a
# small computation of about the cost of a hit.
QUERIES_PER_PASS = 60
MISSES_PER_PASS = 6
MISS_MAX_DEGREE = 9
STORE_HEADER = "#gw-cache v1"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# -- store records ----------------------------------------------------------
#
# A record id is a store line without its value: "R|n=4|d=9|c=3,3,5" or
# "C|N=3|d=2|c=2,2,2,2", the fields of the documented v1 cache format.

def parse_store(text: str) -> dict[str, int]:
    """Record id -> value for every line of a v1 cache file."""
    lines = text.splitlines()
    if not lines or lines[0] != STORE_HEADER:
        raise ValueError("prepared store does not start with the v1 header")
    records = {}
    for line in lines[1:]:
        prefix, sep, value = line.rpartition("|v=")
        tag, _, rid = prefix.partition("|")
        if not sep or tag != "gw1":
            raise ValueError(f"unexpected store line {line!r}")
        records[rid] = int(value)
    return records


def drop_records(text: str, held_out: list[str]) -> str:
    """The store text without the lines of the held-out record ids."""
    wanted = {f"gw1|{rid}|v=" for rid in held_out}
    kept, dropped = [], 0
    for line in text.splitlines():
        if line.partition("|v=")[0] + "|v=" in wanted:
            dropped += 1
        else:
            kept.append(line)
    if dropped != len(wanted):
        raise ValueError(f"held out {dropped} of {len(wanted)} records")
    return "\n".join(kept) + "\n"


def record_degree(rid: str) -> int:
    return int(rid.split("|")[2][2:])


def query_argv(rid: str, path: str) -> list[str]:
    kind, dim, d, codims = rid.split("|")
    head = ["complex", "--dim", dim[2:]] if kind == "C" else ["real", "--n", dim[2:]]
    return head + ["--d", d[2:], "--codims", codims[2:], "--cache", path]


def query_stream(records: dict[str, str], seed: int) -> tuple[list[str], list[str]]:
    """(held-out record ids, ordered query record ids) of one seeded session."""
    rng = random.Random(seed)
    small = sorted(r for r in records if record_degree(r) <= MISS_MAX_DEGREE)
    half = MISSES_PER_PASS // 2
    held_out = (rng.sample([r for r in small if r[0] == "C"], half)
                + rng.sample([r for r in small if r[0] == "R"], MISSES_PER_PASS - half))
    stored = sorted(set(records) - set(held_out))
    queries = held_out + [rng.choice(stored)
                          for _ in range(QUERIES_PER_PASS - MISSES_PER_PASS)]
    rng.shuffle(queries)
    return held_out, queries


# -- passes -------------------------------------------------------------------

@dataclass
class PassResult:
    seconds: float
    latencies: list[float]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)


class ContextRecorder:
    """Keeps every engine context the CLI creates, to read ``stats()`` later.

    Rebinds the two context classes in the ``cli`` module to factories that
    construct the real class and remember the instance.  Only construction
    goes through the factory, so the engines' per-call paths are untouched.
    """

    def __init__(self, cli) -> None:
        self.contexts: list = []
        self.real_cls = cli.RealEvalContext
        cli.ComplexEvalContext = self._recording(cli.ComplexEvalContext)
        cli.RealEvalContext = self._recording(cli.RealEvalContext)

    def _recording(self, cls):
        def make(*args, **kwargs):
            ctx = cls(*args, **kwargs)
            self.contexts.append(ctx)
            return ctx

        return make

    def stats(self) -> dict[str, dict[str, int]]:
        return engine_stats(self.contexts, self.real_cls)


def engine_stats(contexts, real_cls) -> dict[str, dict[str, int]]:
    """Engine counters of one pass: sums over contexts, maxima for sizes."""
    out = {"complex": {}, "real": {}}
    for ctx in contexts:
        totals = out["real" if isinstance(ctx, real_cls) else "complex"]
        for name, value in ctx.stats().items():
            if name in ("memo_size", "max_depth"):
                totals[name] = max(totals.get(name, 0), value)
            else:
                totals[name] = totals.get(name, 0) + value
    for totals in out.values():
        for name in ("calls", "memo_hits", "deep_evals", "memo_size", "max_depth"):
            totals.setdefault(name, 0)
    return out


def _call_cli(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """(exit code or None on an exception, stdout, error text) of one call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception as exc:  # counted as a failed op, reported by name
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue().strip()


class P3Deep:
    """``gw table1 --dmax 61 --limit 61 --engine both``, one call per pass.

    The ops are the table's rows.  Each row's latency is its general-engine
    evaluation, timed by rebinding ``eval_real`` in the ``tables`` module,
    which looks it up at call time; the rest of the call (argument parsing,
    closed-form series, comparison, formatting) is the pass's other time.
    """

    name = "p3-deep"

    def __init__(self, gw, ref: dict, seed: int, workdir: Path) -> None:
        self.cli = gw.cli
        self.recorder = ContextRecorder(gw.cli)
        self.expected = ref["table1_stdout"]
        self.inputs = {"argv": TABLE1_ARGV}
        self.row_seconds: list[float] = []
        evaluate = gw.tables.eval_real

        def timed_row(*args, **kwargs):
            start = perf_counter()
            try:
                return evaluate(*args, **kwargs)
            finally:
                self.row_seconds.append(perf_counter() - start)

        gw.tables.eval_real = timed_row

    def run_pass(self) -> PassResult:
        self.recorder.contexts.clear()
        self.row_seconds.clear()
        start = perf_counter()
        code, out, err = _call_cli(self.cli, TABLE1_ARGV)
        seconds = perf_counter() - start
        rows = len(self.expected)
        lines = out.splitlines() if code == 0 else []
        failed = (rows if len(lines) != rows
                  else sum(got != want for got, want in zip(lines, self.expected)))
        errors = [f"table1 exit {code}, {failed} of {rows} rows wrong {err}"] if failed else []
        return PassResult(seconds, list(self.row_seconds), rows, failed, errors)

    def stats(self):
        return self.recorder.stats()


class P7Sweep:
    """``eval_real`` on every dimension-balanced key of P^7, odd d <= 9."""

    name = "p7-sweep"

    def __init__(self, gw, ref: dict, seed: int, workdir: Path) -> None:
        self.gw = gw
        self.rows = [(gw.RealKey(n=4, d=d, insertions=gw.CodimVector.from_entries(c)),
                      int(v)) for d, c, v in ref["sweeps"]["p7"]]
        self.inputs = {"keys": ref["sweeps"]["p7"]}
        self.contexts: list = []

    def run_pass(self) -> PassResult:
        gw = self.gw
        cctx = gw.ComplexEvalContext()
        rctx = gw.RealEvalContext(cctx)
        self.contexts = [cctx, rctx]
        latencies, failed, errors = [], 0, []
        start = perf_counter()
        for key, want in self.rows:
            t0 = perf_counter()
            try:
                got = gw.eval_real(key, rctx)
            except Exception as exc:  # counted as a failed op, reported by name
                got = exc
            latencies.append(perf_counter() - t0)
            if got != want:
                failed += 1
                errors.append(f"p7 d={key.d} <{key.insertions}>: {got!r}")
        seconds = perf_counter() - start
        return PassResult(seconds, latencies, len(self.rows), failed, errors)

    def stats(self):
        return engine_stats(self.contexts, self.gw.RealEvalContext)


class CacheQuery:
    """A seeded closed-loop session of ``gw real|complex --cache`` queries."""

    name = "cache-query"

    def __init__(self, gw, ref: dict, seed: int, workdir: Path) -> None:
        self.cli = gw.cli
        self.recorder = ContextRecorder(gw.cli)
        records = ref["records"]
        self.held_out, self.queries = query_stream(records, seed)
        self.expected = {rid: f"{records[rid]}\n" for rid in self.queries}
        self.path = workdir / "store.gwc"
        self.prepared = drop_records((workdir / "prepared.gwc").read_text(), self.held_out)
        self.argvs = [query_argv(rid, str(self.path)) for rid in self.queries]
        self.inputs = {"held_out": self.held_out, "queries": self.queries}

    def run_pass(self) -> PassResult:
        self.path.write_text(self.prepared)
        self.recorder.contexts.clear()
        latencies, failed, errors = [], 0, []
        start = perf_counter()
        for rid, argv in zip(self.queries, self.argvs):
            t0 = perf_counter()
            code, out, err = _call_cli(self.cli, argv)
            latencies.append(perf_counter() - t0)
            if code != 0 or out != self.expected[rid]:
                failed += 1
                errors.append(f"query {rid}: exit {code}, {out.strip()!r} {err}")
        seconds = perf_counter() - start
        return PassResult(seconds, latencies, len(self.queries), failed, errors)

    def stats(self):
        return self.recorder.stats()


CLASSES = {cls.name: cls for cls in (P3Deep, P7Sweep, CacheQuery)}


def prepare_store(gw, ref: dict, path: Path) -> list[str]:
    """Run the three store sweeps in one context pair and save the store.

    Returns a list of errors: wrong sweep values, and stored records whose
    value differs from the reference.
    """
    cctx = gw.ComplexEvalContext()
    rctx = gw.RealEvalContext(cctx)
    errors = []
    for name, n, _ in SWEEPS:
        for d, codims, want in ref["sweeps"][name]:
            key = gw.RealKey(n=n, d=d, insertions=gw.CodimVector.from_entries(codims))
            got = gw.eval_real(key, rctx)
            if got != int(want):
                errors.append(f"{name} d={d} <{key.insertions}>: {got} != {want}")
    store = gw.CacheStore()
    store.absorb(cctx, rctx)
    store.save(path)
    records = ref["records"]
    for rid, value in parse_store(path.read_text()).items():
        if rid in records and int(records[rid]) != value:
            errors.append(f"stored record {rid}: {value} != {records[rid]}")
    return errors
