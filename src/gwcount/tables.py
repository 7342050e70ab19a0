"""Row generation and formatting for the two shipped invariant tables.

Table 1 lists the signed real counts N^R_d of degree-d curves through d
conjugate point-pairs in P^3 for odd d, available both from the closed-form
series and from the general real engine via the sign bridge

    N^R_d = (-1)^((d-1)/2) * <(2n-1)^d>_d   with n = 2.

Table 2 lists real invariants of P^5 (insertions 5^a 3^b) and P^7
(insertions 7^a 5^b 3^c) over all dimension-balanced exponent rows at small
odd degree, computed by the general engine.  The rows are the vectors of
``p3.real_codim_vectors``, in descending lexicographic order of the
exponents of 2n-1, 2n-3, ..., 3.  Both row builders run the general engine
on the RealEvalContext their caller passes as ``ctx``; neither builds one.
"""

from __future__ import annotations

from .keys import B, MAX_INSERTIONS, CodimVector, RealKey, _new, frozen_record
from .p3 import real_codim_vectors, real_series_p3
from .real_engine import RealEvalContext, eval_real

__all__ = [
    "EngineDisagreement",
    "TableRow",
    "format_rows",
    "table1_rows",
    "table2_rows",
    "TABLE2_DEGREES",
]

# Space -> (n, odd degrees) of the target P^(2n-1).
TABLE2_DEGREES = {"p5": (3, (1, 3, 5, 7, 9)), "p7": (4, (1, 3, 5))}


class TableRow(frozen_record("TableRow", "d signature value")):
    """One table line: degree, insertion signature (table 2 only), value."""

    __slots__ = ()


class EngineDisagreement(Exception):
    """Closed-form series and general engine produced different rows."""

    def __init__(self, diffs: list[tuple[int, int, int]]) -> None:
        self.diffs = diffs
        detail = "; ".join(
            f"d={d}: closed {a} vs general {b}" for d, a, b in diffs
        )
        super().__init__(f"table1 engines disagree: {detail}")


def table1_rows(dmax: int = 31, engine: str = "both", *, ctx: RealEvalContext) -> list[TableRow]:
    """N^R_d for odd d <= dmax, by the requested engine(s); the general engine runs on ``ctx``.

    With ``engine="both"`` the rows are computed twice and compared;
    disagreement raises EngineDisagreement listing the differing degrees.
    """
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    if engine not in ("closed", "general", "both"):
        raise ValueError(f"unknown engine {engine!r}")
    degrees = range(1, dmax + 1, 2)
    closed = general = None
    if engine in ("closed", "both"):
        series = real_series_p3(dmax)
        closed = [series[d] for d in degrees]
    if engine in ("general", "both"):
        if degrees[-1] > MAX_INSERTIONS:  # the error CodimVector.of(*[3] * d) raises
            raise ValueError(f"a vector holds at most {MAX_INSERTIONS} insertions")
        general = []
        for d in degrees:  # the key <3^d>_d of P^3, packed in O(1)
            raw = eval_real(RealKey(2, d, _new(CodimVector, (d << B * 3, d, 3 * d))), ctx)
            general.append((-1) ** ((d - 1) // 2) * raw)
    if closed is not None and general is not None:
        diffs = [
            (d, a, b) for d, a, b in zip(degrees, closed, general) if a != b
        ]
        if diffs:
            raise EngineDisagreement(diffs)
    values = closed if closed is not None else general
    assert values is not None
    return [TableRow(d, None, v) for d, v in zip(degrees, values)]


def table2_rows(space: str, *, ctx: RealEvalContext) -> list[TableRow]:
    """All dimension-balanced rows of the P^5 or P^7 table, general engine on ``ctx``."""
    if space not in TABLE2_DEGREES:
        raise ValueError(f"space must be 'p5' or 'p7', got {space!r}")
    n, degrees = TABLE2_DEGREES[space]
    rows: list[TableRow] = []
    for d in degrees:
        for cv in real_codim_vectors(n, d):
            value = eval_real(RealKey(n=n, d=d, insertions=cv), ctx)
            signature = " ".join(f"{c}^{cv.multiplicity(c)}" for c in range(2 * n - 1, 1, -2))
            rows.append(TableRow(d, signature, value))
    return rows


def format_rows(rows: list[TableRow], fmt: str = "text") -> str:
    """Render rows as aligned text, CSV, or JSON with string-encoded values."""
    with_signature = any(r.signature is not None for r in rows)
    columns = ["d", "signature", "value"] if with_signature else ["d", "value"]
    cells = [[r.d, r.signature, str(r.value)] if with_signature else [r.d, str(r.value)]
             for r in rows]
    if fmt == "text":
        width = max((len(str(r.d)) for r in rows), default=0)
        sig_width = max((len(r.signature or "") for r in rows), default=0)
        lines = []
        for d, *signature, value in cells:
            padded = [f"{s:<{sig_width}}" for s in signature]
            lines.append("  ".join([f"{d:>{width}}", *padded, value]))
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        import csv
        import io
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([columns, *cells])
        return buf.getvalue()
    if fmt == "json":
        import json
        return json.dumps([dict(zip(columns, row)) for row in cells], indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
