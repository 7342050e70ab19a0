"""Smoke test of the traced benchmark run against the current program.

``bench/tracing.py`` wraps layer boundaries of ``gwcount`` by name: members
of ``CodimVector`` and ``CacheStore`` and module globals of the engines, the
tables and the CLI.  A refactor that renames or restructures one of them
would break the traced run; this test runs one traced P^5 real key and one
cached CLI query, and checks that every span was hit and that uninstalling
restores every wrapped attribute.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import gwcount
import gwcount.cli
from gwcount import CodimVector, ComplexEvalContext, RealEvalContext, RealKey
from gwcount.cache import CacheStore

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

SPANS = {
    "keys.add", "keys.remove", "keys.k", "keys.total_codim", "keys.enumerate_splits",
    "complex.wdvv_step", "real.recursion_step",
    "cache.load", "cache.warm", "cache.absorb", "cache.render", "cache.save",
    "p3.real_series_p3", "tables.format_rows", "cli.main",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("gwcount_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_traced_run_hits_every_span_and_uninstalls(tmp_path, capsys):
    owners = (gwcount.keys.CodimVector, gwcount.cache.CacheStore, gwcount.complex_engine,
              gwcount.real_engine, gwcount.tables, gwcount.cli)
    before = [dict(vars(owner)) for owner in owners]
    cache = tmp_path / "c.gwc"
    CacheStore().save(str(cache))  # so that the traced query loads a store

    tracer = _load_tracer()
    tracer.install(gwcount)
    try:
        cctx = ComplexEvalContext()
        rctx = RealEvalContext(cctx)
        key = RealKey(n=3, d=5, insertions=CodimVector.of(5, 5, 5, 3, 3))
        assert gwcount.real_engine.eval_real(key, rctx) != 0
        assert gwcount.cli.main(["table1", "--dmax", "5", "--cache", str(cache)]) == 0
        metrics = tracer.layer_metrics({"complex": cctx.stats(), "real": rctx.stats()})
    finally:
        tracer.uninstall()

    assert capsys.readouterr().out
    assert {name for name, count in tracer.calls.items() if count} == SPANS
    assert metrics["keys.enumerate_splits.yielded"] > 0
    assert metrics["cache.bytes_written"] > 0
    for owner, snapshot in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(snapshot), owner
        assert all(now[name] is value for name, value in snapshot.items()), owner
