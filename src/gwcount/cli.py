"""Command-line interface: the ``gw`` tool.

``COMMANDS`` maps each command (complex, real, table1, table2, check, cache)
to its help line, the function adding its arguments, and its handler.  A call
builds one parser: that of the command it names.  Only a missing or unknown
command, or an argument that parser leaves over, builds the full ``gw``
parser (``build_parser``), which prints the usage error; help and usage
errors read the same either way.  ``checks`` is imported only by ``gw
check``, and ``json``/``csv`` only for the output formats that use them.

Compute commands accept ``--cache PATH`` (or the GW_CACHE environment
variable; the flag wins) to warm the engines from a store keyed like their
memos; a query rewrites the file only if it added records or the file is new.
``gw complex`` and ``gw real`` answer a key from its one canonical line in a
syntactically valid file, without building a store (``cache.stored_value``);
on a miss they parse the same text through ``CacheStore.parse``, the one way
every store here is read, whose full parse also accepts leading zeros and a
``-`` on the dimension, degree and value (``cache._RECORDS``).  ``gw cache
save`` rewrites the file in canonical form, and ``gw cache verify``, the only
check of stored values, recomputes every record cold, naming the first wrong
or unmemoized one.  Output is deterministic: identical invocations produce
byte-identical output.  Handlers raise on every error, and ``main`` alone
prints its ``error:`` line and maps it to an exit code.  Exit codes: 0 success,
1 failed checks, engine disagreement or a bad or unreadable cache, 2 usage
errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys

from .cache import CacheError, CacheStore, is_memo_key, read_text, record_line, stored_value
from .complex_engine import ComplexEvalContext, eval_complex
from .keys import MAX_CODIM, CodimVector, ComplexKey, RealKey
from .real_engine import RealEvalContext, eval_real
from .tables import EngineDisagreement, format_rows, table1_rows, table2_rows

__all__ = ["main"]

_ASCII_INT = re.compile(r"-?[0-9]+")  # int() alone also takes "_", "+", " " and non-ASCII digits


def _codims(text: str) -> list[int]:
    parts = text.split(",") if text else []
    if not all(map(_ASCII_INT.fullmatch, parts)):
        raise argparse.ArgumentTypeError(f"malformed codimension list {text!r}")
    entries = [int(part) for part in parts]
    if any(c < 0 for c in entries):
        raise argparse.ArgumentTypeError("codimensions must be >= 0")
    return entries


def _at_least(lowest: int, name: str):
    def parse(text: str) -> int:
        if not _ASCII_INT.fullmatch(text):
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}")
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"{name} must be >= {lowest}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """The full ``gw`` parser: one subparser per command, in ``COMMANDS`` order.

    ``_parse_args`` falls back to it for ``gw -h``, a missing or unknown
    command and arguments the command's own parser leaves over.
    """
    parser = argparse.ArgumentParser(
        prog="gw",
        description="Exact genus-0 curve counts of projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=summary))
    return parser


def _add_cache_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache", default=None, help="cache file path (default: $GW_CACHE if set)")


def _cache_path(args: argparse.Namespace) -> str | None:
    return args.cache or os.environ.get("GW_CACHE") or None


def _open_store(path: str | None) -> CacheStore:
    if path and os.path.exists(path):
        return CacheStore.load(path)
    return CacheStore()


@contextlib.contextmanager
def _engines(args: argparse.Namespace, text: str | None = None):
    """Engines warmed from the cache (its ``text`` if read); saves new results on success."""
    path = _cache_path(args)
    store = _open_store(path) if text is None else CacheStore.parse(text)
    cctx = ComplexEvalContext()
    rctx = RealEvalContext(cctx)
    store.warm(cctx, rctx)
    yield cctx, rctx
    if path and (store.absorb(cctx, rctx) or not os.path.exists(path)):
        store.save(path)


def _print_value(args: argparse.Namespace, space: str, value: int) -> None:
    if args.json:
        import json
        print(json.dumps({
            "space": space,
            "d": args.d,
            "codims": sorted(args.codims),
            "value": str(value),
        }))
    else:
        print(value)


def _query(args: argparse.Namespace, key: ComplexKey | RealKey, space: str) -> int:
    """Print one invariant: from its cached line on a hit, else from the engines."""
    path = _cache_path(args)
    text = read_text(path) if path and os.path.exists(path) else None
    value = None if text is None else stored_value(text, key)
    if value is None:  # a miss parses the text read above
        with _engines(args, text) as (cctx, rctx):
            value = eval_real(key, rctx) if isinstance(key, RealKey) else eval_complex(key, cctx)
    _print_value(args, space, value)
    return 0


def _insertions(codims: list[int], top: int) -> CodimVector:
    """``codims`` with entries above ``top`` as top + 1 (0 either way, small code);
    MAX_CODIM lowers an entry only if the key will reject ``top``."""
    return CodimVector.from_entries(min(c, top + 1, MAX_CODIM) for c in codims)


def _add_complex(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=_at_least(1, "--dim"), required=True,
                   help="projective dimension N")
    p.add_argument("--d", type=_at_least(0, "--d"), required=True)
    p.add_argument("--codims", type=_codims, required=True)
    p.add_argument("--json", action="store_true")
    _add_cache_flag(p)


def cmd_complex(args: argparse.Namespace) -> int:
    key = ComplexKey(N=args.dim, d=args.d, insertions=_insertions(args.codims, args.dim))
    return _query(args, key, f"p{args.dim}")


def _add_real(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_at_least(1, "--n"), required=True,
                   help="half-dimension n (target P^{2n-1})")
    p.add_argument("--d", type=_at_least(1, "--d"), required=True)
    p.add_argument("--codims", type=_codims, required=True)
    p.add_argument("--phi", choices=("tau", "eta"), default="tau",
                   help="involution tag (does not affect the value)")
    p.add_argument("--json", action="store_true")
    _add_cache_flag(p)


def cmd_real(args: argparse.Namespace) -> int:
    key = RealKey(n=args.n, d=args.d, insertions=_insertions(args.codims, 2 * args.n - 1),
                  phi=args.phi)
    return _query(args, key, f"real-{args.n}")


def _add_table1(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dmax", type=_at_least(1, "--dmax"), default=31)
    p.add_argument("--limit", type=_at_least(1, "--limit"), default=31,
                   help="refuse dmax beyond this bound")
    p.add_argument("--engine", choices=("closed", "general", "both"), default="both")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_cache_flag(p)


def cmd_table1(args: argparse.Namespace) -> int:
    if args.dmax > args.limit:
        raise ValueError(f"--dmax {args.dmax} exceeds --limit {args.limit}")
    with _engines(args) as (_, rctx):  # a disagreement leaves this body, so nothing is saved
        rows = table1_rows(args.dmax, engine=args.engine, ctx=rctx)
    sys.stdout.write(format_rows(rows, args.format))
    return 0


def _add_table2(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", choices=("p5", "p7"), required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_cache_flag(p)


def cmd_table2(args: argparse.Namespace) -> int:
    with _engines(args) as (_, rctx):
        rows = table2_rows(args.space, ctx=rctx)
    sys.stdout.write(format_rows(rows, args.format))
    return 0


def _add_check(p: argparse.ArgumentParser) -> None:
    from .checks import SUITES
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")


def cmd_check(args: argparse.Namespace) -> int:
    from .checks import SUITES, run_suites
    failed = 0
    rctx = RealEvalContext(ComplexEvalContext())  # one cold pair for every suite; no cache
    for report in run_suites(SUITES if args.suite == "all" else (args.suite,), rctx):
        for line in report.lines():
            print(line)
        print(report.summary())
        failed += report.failed_count
    return 0 if failed == 0 else 1


def _add_cache(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=("stats", "load", "save", "verify"))
    _add_cache_flag(p)


def cmd_cache(args: argparse.Namespace) -> int:
    path = _cache_path(args)
    if not path:
        raise ValueError("cache path required (--cache or GW_CACHE)")
    if args.action == "save":  # canonical rewrite; creates an empty store if absent
        store = _open_store(path)
        store.save(path)
        print(f"saved: {len(store)} records")
        return 0
    store = CacheStore.load(path)
    if args.action == "verify":
        return _verify(store)
    if args.action == "stats":
        for name, count in store.stats().items():
            print(f"{name}: {count}")
    else:
        print(f"ok: {len(store)} records")
    return 0


def _verify(store: CacheStore) -> int:
    """Recompute every record in one cold context pair, in file order.

    A record for a key the engines never memoize is bad whatever its value,
    since neither the engines nor a query ever read it.  Every memoized key
    is a valid key, so the engines accept every record they recompute.
    """
    cctx = ComplexEvalContext()
    rctx = RealEvalContext(cctx)
    for kind, dim, d, entries, value in store.sorted_records():
        cv = CodimVector.from_entries(entries)
        if not is_memo_key(kind, dim, d, cv):
            problem = "not a key the engines memoize"
        else:
            got = (eval_complex(ComplexKey(N=dim, d=d, insertions=cv), cctx) if kind == "C"
                   else eval_real(RealKey(n=dim, d=d, insertions=cv), rctx))
            problem = f"recomputed {got}" if got != value else None
        if problem:
            raise CacheError(f"bad record {record_line(kind, dim, d, entries, value)}: {problem}")
    print(f"ok: {len(store)} records verified")
    return 0


# Command name -> (help, argument adder, handler), in help order.
COMMANDS = {
    "complex": ("one complex invariant of P^N", _add_complex, cmd_complex),
    "real": ("one real invariant of P^{2n-1}", _add_real, cmd_real),
    "table1": ("N^R_d of P^3 for odd d", _add_table1, cmd_table1),
    "table2": ("real invariants of P^5 or P^7", _add_table2, cmd_table2),
    "check": ("consistency suites", _add_check, cmd_check),
    "cache": ("inspect or rewrite a cache file", _add_cache, cmd_cache),
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` read by its command's parser alone if that reads every argument, else by
    ``build_parser``, whose subparser meets the same help and errors first."""
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"gw {argv[0]}")
        COMMANDS[argv[0]][1](parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()  # None before 3.10.7
    if digits is not None:  # exact arguments and values convert at any size, for this call only
        sys.set_int_max_str_digits(0)
    try:
        args = _parse_args(argv)
        return COMMANDS[args.command][2](args)
    except (CacheError, EngineDisagreement, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    raise SystemExit(main())
