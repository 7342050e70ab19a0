"""Measuring process of the benchmark; ``run.py`` starts one per run.

    worker.py prepare --workdir DIR
    worker.py measure --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR

``prepare`` runs the store sweeps and saves ``DIR/prepared.gwc`` for
``cache-query``, in its own process so that the sweeps do not count in the
measuring process's peak memory.  ``measure`` runs one untimed warm-up pass,
then passes until ``S`` seconds are spent, and prints one JSON object.

With ``--trace 1`` untraced and traced passes alternate, and the object
holds the per-layer metrics of the traced passes and the tracing overhead.
Every pass is checked against the reference, and the engines' exact counters
must repeat in every pass of the run and in every earlier run of the same
source and inputs, whose counters are kept under the benchmark's scratch
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import CLASSES, WORK, load_reference, prepare_store  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def import_program():
    import gwcount
    import gwcount.cli  # noqa: F401  (binds gwcount.cli)

    if not Path(gwcount.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"gwcount imported from {gwcount.__file__}, not from {SRC}")
    return gwcount


def distribution(samples: list[float]) -> dict:
    """Count, fastest, median and the highest whole percentile (nearest rank)
    that has at least ten samples above it, or None with too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)  # ceil(pct * n / 100)
        if rank >= 1 and n - rank >= 10:
            tail = {"pct": pct, "value": ordered[rank - 1]}
            break
    return {"n": n, "min": ordered[0], "median": statistics.median(ordered), "tail": tail}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_history(workload, counters: dict) -> list[str]:
    """Compare counters with earlier runs of the same source and inputs."""
    inputs = json.dumps(workload.inputs, sort_keys=True).encode()
    key = f"{source_digest()}-{hashlib.sha256(inputs).hexdigest()[:16]}"
    path = WORK / "counters" / f"{workload.name}-{key}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    errors = [f"{section} counters differ from an earlier run of the same code"
              for section, value in counters.items()
              if section in known and known[section] != value]
    if not errors:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({**known, **counters}, sort_keys=True))
        tmp.replace(path)
    return errors


class Run:
    """Outcome of every pass of one run: ops, failures and counter checks."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stats = None

    def pass_(self):
        result = self.workload.run_pass()
        self.attempted += result.attempted
        self.failed += result.failed
        self.errors += result.errors
        stats = self.workload.stats()
        if self.stats is None:
            self.stats = stats
        elif stats != self.stats:
            self.errors.append("engine counters differ between passes of one run")
        return result


def measure(gw, args) -> dict:
    ref = load_reference()
    workload = CLASSES[args.workload](gw, ref, args.seed, Path(args.workdir))
    run = Run(workload)
    run.pass_()  # warm-up: first-use imports and allocator growth
    timed, traced, layers = [], [], []
    deadline = perf_counter() + args.seconds
    if not args.trace:
        while perf_counter() < deadline or len(timed) < MIN_PASSES:
            timed.append(run.pass_())
    else:
        tracer = Tracer()
        while perf_counter() < deadline or len(traced) < MIN_TRACED_PASSES:
            timed.append(run.pass_())
            tracer.reset()
            tracer.install(gw)
            try:
                traced.append(run.pass_())
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics(workload.stats()))

    counters = {"stats": run.stats}
    metrics: dict[str, float] = {}
    walls = [p.seconds for p in timed]
    latencies_ms = [t * 1000 for p in timed for t in p.latencies]
    report = {
        "pass_s": distribution(walls),
        "query_ms": distribution(latencies_ms),
        "queries_per_s": len(latencies_ms) / sum(walls),
        "engine_stats": run.stats,
    }
    if not args.trace:
        # Every pass repeats the same ops.  Other tenants of a shared machine
        # slow stretches of a run, for seconds to minutes, and never speed it
        # up, so each op's fastest latency is the steady statistic, and the
        # shorter the op, the more quiet moments it finds.  The report keeps
        # the medians and tails.
        fastest = [min(per_op) for per_op in zip(*(p.latencies for p in timed))]
        other = min(p.seconds - sum(p.latencies) for p in timed)
        metrics["wall_s"] = sum(fastest) + other
        metrics["query_p50_ms"] = statistics.median(fastest) * 1000 if fastest else 0.0
    else:
        times = [n for n in layers[0] if n.endswith(("_s", ".s"))]
        exact = {n: v for n, v in layers[0].items() if n not in times}
        if any({n: v for n, v in s.items() if n in exact} != exact for s in layers):
            run.errors.append("traced counters differ between traced passes")
        counters["trace"] = exact
        metrics.update(exact)
        metrics.update({n: statistics.median(s[n] for s in layers) for n in times})
        traced_wall = statistics.median(p.seconds for p in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        report["traced_passes"] = len(traced)
    run.errors += check_history(workload, counters)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["environment"] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_pinning": "none",
    }
    report["inputs"] = {"seed": args.seed, "passes": 1 + len(timed) + len(traced)}
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors[:20],
        "metrics": metrics,
        "report": report,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prepare", "measure"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", choices=sorted(CLASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    gw = import_program()
    if args.mode == "prepare":
        errors = prepare_store(gw, load_reference(), Path(args.workdir) / "prepared.gwc")
        print(json.dumps({"errors": errors}))
    else:
        print(json.dumps(measure(gw, args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
