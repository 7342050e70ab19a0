"""Per-layer spans for the traced benchmark run.

The engines look up ``wdvv_step``, ``recursion_step`` and
``enumerate_splits`` as module globals at call time, and the CLI looks up
``format_rows`` and the table code ``real_series_p3`` the same way, so the
tracer can wrap them from outside the program by rebinding those module
attributes.  ``CodimVector`` and ``CacheStore`` members are wrapped on their
classes.  Every wrapper records one span per call: its count and its self
time, which is the span's duration minus the time of the spans nested in it.

Wrapping changes the timing of everything it touches, so numbers from a
traced run locate time between layers and are never used for a claim.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from time import perf_counter

_DONE = object()


class Tracer:
    def __init__(self) -> None:
        self.stack = [0.0]
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stack[:] = [0.0]
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    # -- span wrappers -------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` runs outside it."""
        stack, calls, self_s = self.stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def generator_span(self, name: str, fn):
        """Wrap a generator function: one span per item produced."""
        stack, calls, self_s, counts = self.stack, self.calls, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = perf_counter()
                try:
                    item = next(inner, _DONE)
                finally:
                    elapsed = perf_counter() - start
                    self_s[name] += elapsed - stack.pop()
                    stack[-1] += elapsed
                if item is _DONE:
                    return
                counts[name + ".yielded"] += 1
                yield item

        return wrapper

    # -- installing ------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self, gw) -> None:
        """Wrap every layer boundary of the ``gwcount`` package ``gw``."""
        cv = gw.keys.CodimVector
        for method in ("add", "remove"):
            self._patch(cv, method, self.span(f"keys.{method}", cv.__dict__[method]))
        for prop in ("k", "total_codim"):
            self._patch(cv, prop, property(self.span(f"keys.{prop}", cv.__dict__[prop].fget)))
        for module in (gw.complex_engine, gw.real_engine):
            self._patch(module, "enumerate_splits",
                        self.generator_span("keys.enumerate_splits", module.enumerate_splits))
        self._patch(gw.complex_engine, "wdvv_step",
                    self.span("complex.wdvv_step", gw.complex_engine.wdvv_step))
        self._patch(gw.real_engine, "recursion_step",
                    self.span("real.recursion_step", gw.real_engine.recursion_step))

        store = gw.cache.CacheStore
        counts = self.counts

        def loaded(args, result):
            counts["cache.bytes_read"] += os.path.getsize(args[1])

        def saved(args, result):
            counts["cache.bytes_written"] += os.path.getsize(args[1])
            counts["cache.records"] = len(args[0])

        self._patch(store, "load",
                    classmethod(self.span("cache.load", store.__dict__["load"].__func__, loaded)))
        for method in ("warm", "absorb", "render"):
            self._patch(store, method, self.span(f"cache.{method}", store.__dict__[method]))
        self._patch(store, "save", self.span("cache.save", store.__dict__["save"], saved))

        self._patch(gw.tables, "real_series_p3",
                    self.span("p3.real_series_p3", gw.tables.real_series_p3))
        self._patch(gw.cli, "format_rows", self.span("tables.format_rows", gw.cli.format_rows))
        self._patch(gw.cli, "main", self.span("cli.main", gw.cli.main))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def layer_metrics(self, stats: dict[str, dict[str, int]]) -> dict[str, float]:
        """Per-layer metrics of one traced pass, given its engine counters."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        out: dict[str, float] = {
            "keys.add.calls": calls["keys.add"],
            "keys.add.self_s": self_s["keys.add"],
            "keys.remove.calls": calls["keys.remove"],
            "keys.k.calls": calls["keys.k"],
            "keys.total_codim.calls": calls["keys.total_codim"],
            "keys.props.self_s": self_s["keys.k"] + self_s["keys.total_codim"],
            "keys.enumerate_splits.calls": calls["keys.enumerate_splits"],
            "keys.enumerate_splits.yielded": counts["keys.enumerate_splits.yielded"],
            "keys.enumerate_splits.self_s": self_s["keys.enumerate_splits"],
        }
        for engine, step in (("complex", "wdvv_step"), ("real", "recursion_step")):
            s = stats[engine]
            out.update({f"{engine}.{name}": value for name, value in s.items()})
            out[f"{engine}.deep_per_call"] = s["deep_evals"] / s["calls"] if s["calls"] else 0.0
            out[f"{engine}.{step}.self_s"] = self_s[f"{engine}.{step}"]
        c = stats["complex"]
        looked_up = c["memo_hits"] + c["deep_evals"]
        out["complex.hit_ratio"] = c["memo_hits"] / looked_up if looked_up else 0.0
        for stage in ("load", "warm", "absorb", "render", "save"):
            out[f"cache.{stage}_s"] = self_s[f"cache.{stage}"]
        for name in ("records", "bytes_read", "bytes_written"):
            out[f"cache.{name}"] = counts[f"cache.{name}"]
        out["p3.real_series_p3.s"] = self_s["p3.real_series_p3"]
        out["tables.format_rows.s"] = self_s["tables.format_rows"]
        out["cli.main.self_s"] = self_s["cli.main"]
        return out
