"""Command-line front end: counting, enumeration, the duality map,
verification, the rho3 routes, asymptotics, and SVG rendering.

All big integers cross the boundary as decimal strings so arbitrary
precision survives any consumer.  They come from verify.count_text,
which computes the recurrence table in decimal radix and hands back its
Decimal terms, so that printing it costs time linear in its digits; a
count of more than sys.get_int_max_str_digits() digits is still refused
with exit 1, as str() of an int refuses it.  A 64-bit lower bound
proves that refusal before any exact term is formed, and where it
cannot, the recurrence stops at the first such term.  Reports are
JSON on stdout with sorted keys
(byte-identical for identical invocations, apart from the elapsed-time
field).  A table of counts, the "counts" member of a JSON report or a
CSV table, is written row by row straight from the one table, and only
the rest of a JSON report goes through the encoder; either is written
after every refusal.  The diagrams of enum, text lines or the
"diagrams" member of its report, are written as they are generated,
after the refusal of a budget or of a k below 2.  A report's
elapsed_seconds is the handler's time before the first byte: for enum,
its refusals and its first diagram.  A reader that closes stdout early
cuts the output short but not the exit code.
Diagnostics go to stderr.  Exit codes: 0 success or verification
passed, 1 usage error, refused input or a library ArithmeticError, 2
verification failure (rho3 --route all also when a route raises
ArithmeticError, as the rho3 suite fails then).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from decimal import Decimal
from functools import cache
from itertools import chain
from typing import NoReturn

from . import __version__, diagrams, duality, enumeration, verify, walks

_CLASS_TAGS = {
    "partitions": "P_k",
    "2regular": "P_k2",
    "braids": "B_k",
    "braids-noiso": "B_k_dagger",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        _diag("usage-error", message)
        raise SystemExit(1)


def _diag(code: str, message: str) -> None:
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process."""
    parser = _Parser(prog="noncrossing", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count a diagram class by one of its routes")
    count.add_argument("--class", dest="class_name", required=True, choices=_CLASS_TAGS)
    count.add_argument("--k", type=int, default=3)
    group = count.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--n-max", type=int)
    count.add_argument("--route", default="brute")
    count.add_argument("--format", choices=("json", "csv"), default="json")

    enum = sub.add_parser("enum", help="list every diagram of a class")
    enum.add_argument("--class", dest="class_name", required=True, choices=_CLASS_TAGS)
    enum.add_argument("--k", type=int, default=3)
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--format", choices=("text", "json"), default="text")

    mapper = sub.add_parser("map", help="apply the partition-to-braid contraction")
    mapper.add_argument("--in", dest="text", required=True, metavar="DIAGRAM")
    mapper.add_argument("--inverse", action="store_true", help="expand a braid instead")
    mapper.add_argument("--format", choices=("text", "json"), default="text")

    suites = sub.add_parser("verify", help="run cross-validation suites")
    suites.add_argument("--suite", default="all", choices=("all", *verify.SUITE_NAMES))
    suites.add_argument("--k", type=int, default=3)
    suites.add_argument("--n-max", type=int, default=6)

    rho3 = sub.add_parser("rho3", help="count 3-noncrossing braids without isolated points")
    rho3.add_argument("--n-max", type=int, required=True)
    rho3_routes = sorted(verify.routes("B_k_dagger", 3))
    rho3.add_argument("--route", default="all", choices=("all", *rho3_routes))
    rho3.add_argument("--format", choices=("json", "csv"), default="json")

    asympt = sub.add_parser("asympt", help="asymptotic estimate vs exact value")
    asympt.add_argument("--n", type=int, required=True)

    render = sub.add_parser("render", help="emit an SVG drawing of a diagram")
    render.add_argument("--in", dest="text", required=True, metavar="DIAGRAM")

    return parser


# -- command handlers ---------------------------------------------------------------


def _one_to(n_max: int) -> range:
    if n_max < 1:
        raise ValueError("--n-max must be at least 1")
    return range(1, n_max + 1)


def _csv(header: str, prefix: str, table: dict[int, str | Decimal]) -> tuple[Iterator[str], int]:
    return chain([header], (f"{prefix},{n},{table[n]}" for n in sorted(table))), 0


def _cmd_count(ns: argparse.Namespace) -> tuple[dict | Iterator[str], int]:
    sizes = [ns.n] if ns.n is not None else _one_to(ns.n_max)
    counts = verify.count_text(_CLASS_TAGS[ns.class_name], ns.k, ns.route, sizes)
    if ns.format == "csv":
        return _csv("class,k,route,n,count", f"{ns.class_name},{ns.k},{ns.route}", counts)
    return {"class": ns.class_name, "k": ns.k, "route": ns.route, "counts": counts}, 0


def _cmd_enum(ns: argparse.Namespace) -> tuple[dict | Iterator[str], int]:
    class_tag = _CLASS_TAGS[ns.class_name]
    diagrams.require_k(ns.k)
    enumeration.require_brute_budget(class_tag, ns.n)
    lines = map(diagrams.format_diagram, enumeration.GENERATORS[class_tag](ns.n, ns.k))
    # the generator refuses n < 0 at its first diagram, before any is written
    lines = chain([next(lines, "")], lines)
    if ns.format == "json":
        return {"class": ns.class_name, "k": ns.k, "n": ns.n, "diagrams": lines}, 0
    return lines, 0


def _cmd_map(ns: argparse.Namespace) -> tuple[dict | str, int]:
    n, arcs = diagrams.parse_diagram(ns.text)
    verify.require_cap("a diagram", n, verify.DIAGRAM_CAP)
    if ns.inverse:
        out = duality.expand_braid(diagrams.BraidDiagram(n, arcs))
    else:
        out = duality.contract_partition(diagrams.PartitionDiagram(n, arcs))
    line = diagrams.format_diagram(out)
    if ns.format == "text":
        return line, 0
    return {"input": ns.text.strip(), "output": line}, 0


def _cmd_verify(ns: argparse.Namespace) -> tuple[dict, int]:
    _one_to(ns.n_max)
    names = verify.suite_names(ns.k) if ns.suite == "all" else [ns.suite]
    reports = verify.run_suites(names, ns.k, ns.n_max)
    passed = all(r["passed"] for r in reports)
    return {"k": ns.k, "n_max": ns.n_max, "suites": reports, "passed": passed}, (
        0 if passed else 2
    )


def _cmd_rho3(ns: argparse.Namespace) -> tuple[dict | Iterator[str], int]:
    sizes = _one_to(ns.n_max)
    if ns.route == "all":
        if ns.format == "csv":  # the agreement report has no CSV form
            raise ValueError("rho3 --route all has no --format csv; name one --route")
        tables, report = verify.rho3_agreement(ns.n_max)
        agreement = report["passed"]
        routes = {name: {str(n): v for n, v in table.items()} for name, table in tables.items()}
        return {"k": 3, "routes": routes, "agreement": agreement}, 0 if agreement else 2
    table = verify.count_text("B_k_dagger", 3, ns.route, sizes)
    if ns.format == "csv":
        return _csv("route,n,value", ns.route, table)
    return {"k": 3, "route": ns.route, "counts": table}, 0


def _cmd_asympt(ns: argparse.Namespace) -> tuple[dict, int]:
    verify.require_cap("asympt", ns.n, verify.ASYMPT_CAP)
    estimate = walks.asymptotic_estimate(ns.n)
    payload = {"n": ns.n, "estimate": str(estimate)}
    if ns.n <= verify.ASYMPT_EXACT_CAP:
        [exact] = verify.count_text("B_k_dagger", 3, "recurrence", [ns.n]).values()
        rel = abs(estimate / Decimal(exact) - 1)
        payload["exact"] = exact
        payload["relative_error"] = str(rel)
    return payload, 0


def _cmd_render(ns: argparse.Namespace) -> tuple[str, int]:
    n, arcs = diagrams.parse_diagram(ns.text)
    verify.require_cap("a diagram", n, verify.DIAGRAM_CAP)
    return diagrams.diagram_svg(diagrams.ArcDiagram(n, arcs)), 0


_HANDLERS = {
    "count": _cmd_count,
    "enum": _cmd_enum,
    "map": _cmd_map,
    "verify": _cmd_verify,
    "rho3": _cmd_rho3,
    "asympt": _cmd_asympt,
    "render": _cmd_render,
}


def _decimal_text(value: object) -> str:
    """json's hook for what it cannot encode: a Decimal count as its digits."""
    if isinstance(value, Decimal):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_REPORT_ENCODER = json.JSONEncoder(sort_keys=True, indent=2, default=_decimal_text)
#: the characters joined into one write to stdout, at most one chunk more
_WRITE_BATCH = 1 << 16


def _report_chunks(report: dict) -> Iterable[str]:
    """The text of report as _REPORT_ENCODER gives it, in chunks.  Its
    one streamed member, a "counts" table {n: digits} or a "diagrams"
    iterator of lines, is written row by row, and only the rest of the
    report goes through the encoder."""
    member = next((name for name in _STREAMED if name in report), None)
    if member is None:
        return _REPORT_ENCODER.iterencode(report)
    brackets, rows = _STREAMED[member]
    envelope = _REPORT_ENCODER.encode({**report, member: None})
    opening = f'\n  "{member}": '
    head, _, tail = envelope.partition(opening + "null")
    return chain([head, opening], _nested(brackets, rows(report[member])), [tail])


def _nested(brackets: str, rows: Iterable[str]) -> Iterator[str]:
    """A JSON object or array one level down in a report, from its rows
    as _REPORT_ENCODER writes them, a row per chunk."""
    opening, closing = brackets
    separator = opening
    for row in rows:
        yield f"{separator}\n    {row}"
        separator = ","
    yield f"\n  {closing}" if separator == "," else brackets


def _table_rows(table: dict[int, str | Decimal]) -> Iterator[str]:
    """The members of the JSON object {str(n): table[n]}, with its keys
    in the order sort_keys gives them.  A value must be a str or a
    Decimal: anything else raises the TypeError of _decimal_text."""
    for n in sorted(table, key=str):
        value = table[n]
        digits = value if isinstance(value, str) else _decimal_text(value)
        yield f'"{n}": "{digits}"'


#: a report's streamed member -> its empty form and its rows
_STREAMED = {
    "counts": ("{}", _table_rows),
    "diagrams": ("[]", lambda lines: map(_REPORT_ENCODER.encode, lines)),
}


def _write(chunks: Iterable[str]) -> None:
    """Write chunks to stdout as they come, in batches of about
    _WRITE_BATCH characters, as unbuffered stdout makes a system call
    per write."""
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= _WRITE_BATCH:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
    sys.stdout.write("".join(batch))


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    started = time.perf_counter()
    try:
        payload, status = _HANDLERS[ns.command](ns)
    except (ValueError, ArithmeticError, enumeration.RangeGuardError) as err:
        _diag(type(err).__name__, str(err))
        return 1
    if isinstance(payload, dict):
        report = {
            "command": ns.command,
            "args": {k: v for k, v in vars(ns).items() if k != "command"},
            "version": __version__,
            "elapsed_seconds": round(time.perf_counter() - started, 6),
            **payload,
        }
        chunks = chain(_report_chunks(report), ["\n"])
    else:  # csv rows, or text or svg as it is
        chunks = (f"{line}\n" for line in ([payload] if isinstance(payload, str) else payload))
    try:
        _write(chunks)
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: the status
        # stands, and what is left, the flush at exit included, goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status
