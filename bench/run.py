"""Benchmark of gwcount: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Workloads (see README.md): ``p3-deep``, ``p7-sweep``,
``cache-query``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it give every metric by name with its unit,
the sample counts, medians and tails of the timings, the failed fraction, and a JSON
report with the engine counters and the environment.

The measuring happens in a child process (``worker.py``), so that its peak
memory is the workload's own.  Exits 2 without a result when the checkout
has no program to measure, and 1 when a process fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
BUDGET_S = 170
SETUP_SAMPLES = 9


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GW_CACHE", None)  # would turn every table1 pass into a cache run
    # Import from cached bytecode, as an installed package does.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Stdout of a child Python process; raises if it fails or runs late."""
    proc = subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds(deadline: float) -> list[float]:
    """Wall times of fresh interpreters importing gwcount.cli, after a warm-up."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        run_child(["-c", "import gwcount.cli"], deadline)
        if i:
            samples.append(perf_counter() - start)
    return samples


def unit_of(name: str) -> str:
    """Unit of a reported metric that BENCHMARK.json does not list."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "B"
    return "ratio" if name.endswith(("_per_call", "_ratio")) else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("p3-deep", "p7-sweep", "cache-query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "gwcount" / "cli.py").is_file():
        print(f"error: no gwcount source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = monotonic() + BUDGET_S
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    worker = str(HERE / "worker.py")
    errors = []
    try:
        setup = [] if args.trace else setup_seconds(deadline)
        if args.workload == "cache-query":
            out = run_child([worker, "prepare", "--workdir", str(workdir)], deadline)
            errors += json.loads(out.splitlines()[-1])["errors"]
        out = run_child([worker, "measure", "--workload", args.workload,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--workdir", str(workdir)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = json.loads(out.splitlines()[-1])
    errors += result["errors"]
    measured = result["metrics"]
    report = result["report"]
    if setup:
        measured["setup_s"] = statistics.median(setup)
        report["setup_s"] = {"n": len(setup), "samples": setup}
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    units = {m["name"]: m["unit"] for m in wanted}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name in [*units, *sorted(set(measured) - set(units))]:
        print(f"{name} = {measured[name]} {units.get(name) or unit_of(name)}")
    for name, unit in (("pass_s", "s"), ("query_ms", "ms")):
        dist = report[name]
        tail = dist["tail"]
        high = f"p{tail['pct']} {tail['value']}" if tail else "no tail (under 11 samples)"
        print(f"{name}: {dist['n']} samples, fastest {dist['min']}, median {dist['median']}, "
              f"{high} {unit}")
    print(f"queries_per_s = {report['queries_per_s']} 1/s")
    print(f"failed_frac = {failed / attempted} ({failed} of {attempted} ops)")
    for line in errors[:20]:
        print(f"error: {line}")
    if len(errors) > 20:
        print(f"error: ... and {len(errors) - 20} more")
    print("report " + json.dumps({"measured": measured, **report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
