"""Write ``reference.json``: the inputs and expected outputs of the benchmark.

Run once from the root of a checkout whose engines are trusted:

    python3 bench/make_reference.py

Every value is cross-checked against a source independent of the general
engines' canonical recursion before it is written:

* P^3 rows: the closed-form series ``real_series_p3`` (and the golden
  ``TABLE1`` of the test suite up to d = 31);
* P^7 keys: the golden ``TABLE2_P7`` for d <= 5; for d = 7 and 9, parity
  (every balanced value is odd) and a re-evaluation with a non-canonical
  designated pair;
* P^5 keys: the golden ``TABLE2_P5`` for d <= 9; for d = 11 and 13, parity
  and the same non-canonical re-evaluation;
* every stored record: a re-evaluation in fresh contexts with a
  non-canonical pivot (complex) or designated pair (real).

Exits 1 without writing if any check fails.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gwcount  # noqa: E402
import gwcount.cli  # noqa: E402
from workloads import (REFERENCE, SWEEPS, TABLE1_ARGV, WORK, parse_store,  # noqa: E402
                       prepare_store)


def _golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tests" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def smallest_pivot(cv):
    """Donor and receiver as canonical, exchange partner the smallest of the rest."""
    a1 = cv.min_codim
    rest = cv.remove(a1)
    e = rest.max_codim
    return a1, rest.remove(e).min_codim, e


def smallest_pair(cv):
    """The two smallest entries, the smaller first."""
    c1 = cv.min_codim
    return c1, cv.remove(c1).min_codim


def _dump(value, depth: int = 0) -> str:
    """JSON with one list item or mapping entry per line, three levels deep."""
    if depth == 3 or not isinstance(value, (dict, list)):
        return json.dumps(value)
    pad = " " * (depth + 1)
    if isinstance(value, dict):
        items = [f"{pad}{json.dumps(k)}: {_dump(v, depth + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad[:-1] + "}" + ("\n" if depth == 0 else "")
    items = [pad + _dump(v, depth + 1) for v in value]
    return "[\n" + ",\n".join(items) + "\n" + pad[:-1] + "]"


def main() -> int:
    golden = _golden()
    errors: list[str] = []

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gwcount.cli.main(TABLE1_ARGV)
    table1_stdout = out.getvalue().splitlines()
    series = gwcount.real_series_p3(61)
    if code != 0 or len(table1_stdout) != 31:
        errors.append(f"table1 exit {code}, {len(table1_stdout)} lines")
    for line in table1_stdout:
        d, value = map(int, line.split())
        if value != series[d] or golden.TABLE1.get(d, value) != value:
            errors.append(f"table1 d={d}: {value}")

    cctx = gwcount.ComplexEvalContext()
    rctx = gwcount.RealEvalContext(cctx)
    sweeps = {}
    for name, n, degrees in SWEEPS:
        rows = []
        for d in degrees:
            for cv in gwcount.p3.real_codim_vectors(n, d):
                value = gwcount.eval_real(gwcount.RealKey(n=n, d=d, insertions=cv), rctx)
                rows.append([d, list(cv.expand()), str(value)])
        sweeps[name] = rows
    for d, codims, value in sweeps["p3"]:
        if (-1) ** ((d - 1) // 2) * int(value) != series[d]:
            errors.append(f"p3 d={d}: {value} vs closed form {series[d]}")
    for name, n, table, dmax in (("p7", 4, golden.TABLE2_P7, 5),
                                 ("p5", 3, golden.TABLE2_P5, 9)):
        for d, codims, value in sweeps[name]:
            counts = tuple(codims.count(c) for c in range(2 * n - 1, 2, -2))
            if d <= dmax and table[(d, counts)] != int(value):
                errors.append(f"{name} d={d} {codims}: {value} vs golden")
            if int(value) % 2 != 1:
                errors.append(f"{name} d={d} {codims}: {value} is even")
        want = sum(1 for d, _ in table if d <= dmax)
        got = sum(1 for d, _, _ in sweeps[name] if d <= dmax)
        if want != got:
            errors.append(f"{name}: {got} rows at d <= {dmax}, golden has {want}")

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        path = Path(tmp) / "store.gwc"
        errors += prepare_store(gwcount, {"sweeps": sweeps, "records": {}}, path)
        records = parse_store(path.read_text())

    alt_c = gwcount.ComplexEvalContext(pivot_rule=smallest_pivot)
    alt_r = gwcount.RealEvalContext(alt_c, designation_rule=smallest_pair)
    for rid, value in records.items():
        kind, dim, d, codims = rid.split("|")
        cv = gwcount.CodimVector.from_entries(int(c) for c in codims[2:].split(","))
        dim, d = int(dim[2:]), int(d[2:])
        if kind == "C":
            again = gwcount.eval_complex(gwcount.ComplexKey(N=dim, d=d, insertions=cv), alt_c)
        else:
            again = gwcount.eval_real(gwcount.RealKey(n=dim, d=d, insertions=cv), alt_r)
        if again != value:
            errors.append(f"record {rid}: {value}, non-canonical {again}")

    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    reference = {
        "table1_stdout": table1_stdout,
        "sweeps": sweeps,
        "records": {rid: str(v) for rid, v in sorted(records.items())},
    }
    REFERENCE.write_text(_dump(reference))
    print(f"wrote {REFERENCE.name}: {len(table1_stdout)} table rows, "
          + ", ".join(f"{len(rows)} {name} keys" for name, rows in sweeps.items())
          + f", {len(records)} records")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
