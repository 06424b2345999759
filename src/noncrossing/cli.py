"""Command-line front end: counting, enumeration, the duality map,
verification suites, the rho3 routes, asymptotics, and SVG rendering.

All big integers cross the boundary as decimal strings so arbitrary
precision survives any consumer.  Reports are JSON on stdout with
sorted keys (byte-identical for identical invocations, apart from the
elapsed-time field); diagnostics go to stderr.  Exit codes: 0 success
or verification passed, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal
from typing import NoReturn

from . import __version__, diagrams, duality, enumeration, tableaux, walks

_CLASS_TAGS = {
    "partitions": "P_k",
    "2regular": "P_k2",
    "braids": "B_k",
    "braids-noiso": "B_k_dagger",
}


def _rho3_recurrence_route(sizes: list[int] | range) -> dict[int, int]:
    entries = walks.rho3_recurrence(max(sizes)).entries
    return {n: entries[n] for n in sizes}


#: rho3 route name -> builder mapping the wanted sizes to {n: rho3(n)}
_RHO3_ROUTES = {
    "brute": lambda sizes: {
        n: sum(1 for _ in enumeration.gen_braids_no_isolated(n, 3)) for n in sizes
    },
    "kernel": walks._rho3_kernel_table,
    "closed": lambda sizes: {n: walks.rho3_closed_form(n) for n in sizes},
    "recurrence": _rho3_recurrence_route,
}

#: brute force in `rho3 --route all` is capped at this n
_BRUTE_CAP = 8


def _rho3_tables(n_max: int) -> dict[str, dict[int, int]]:
    """Every rho3 route over 1..n_max, brute force only up to _BRUTE_CAP."""
    return {
        name: build(range(1, (min(n_max, _BRUTE_CAP) if name == "brute" else n_max) + 1))
        for name, build in _RHO3_ROUTES.items()
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        _diag("usage-error", message)
        raise SystemExit(1)


def _diag(code: str, message: str) -> None:
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noncrossing", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count a diagram class by brute force")
    count.add_argument("--class", dest="class_name", required=True, choices=_CLASS_TAGS)
    count.add_argument("--k", type=int, default=3)
    group = count.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--n-max", type=int)
    count.add_argument("--route", default="brute")
    count.add_argument("--format", choices=("json", "csv"), default="json")
    count.add_argument("--jobs", type=int, default=1)

    enum = sub.add_parser("enum", help="list every diagram of a class")
    enum.add_argument("--class", dest="class_name", required=True, choices=_CLASS_TAGS)
    enum.add_argument("--k", type=int, default=3)
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--format", choices=("text", "json"), default="text")

    mapper = sub.add_parser("map", help="apply the partition-to-braid contraction")
    mapper.add_argument("--in", dest="text", required=True, metavar="DIAGRAM")
    mapper.add_argument("--inverse", action="store_true", help="expand a braid instead")
    mapper.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="run cross-validation suites")
    verify.add_argument("--suite", default="all", choices=("all", *sorted(_SUITES)))
    verify.add_argument("--k", type=int, default=3)
    verify.add_argument("--n-max", type=int, default=6)

    rho3 = sub.add_parser("rho3", help="count 3-noncrossing braids without isolated points")
    rho3.add_argument("--n-max", type=int, required=True)
    rho3.add_argument("--route", default="all", choices=("all", *sorted(_RHO3_ROUTES)))
    rho3.add_argument("--format", choices=("json", "csv"), default="json")

    asympt = sub.add_parser("asympt", help="asymptotic estimate vs exact value")
    asympt.add_argument("--n", type=int, required=True)

    render = sub.add_parser("render", help="emit an SVG drawing of a diagram")
    render.add_argument("--in", dest="text", required=True, metavar="DIAGRAM")

    return parser


# -- verification suites ----------------------------------------------------------


def _suite_duality(k: int, n_max: int) -> dict:
    """Cardinality, injectivity, image and arc property of the contraction."""
    cardinalities = {}
    for n in range(2, n_max + 1):
        parts = list(enumeration.gen_partitions_k(n, k))
        braids = set(enumeration.gen_braids(n - 1, k))
        images = set()
        for p in parts:
            image = duality.contract_partition(p)
            if image in images:
                return _failure("duality", p, f"image collision at n={n}")
            if image not in braids:
                return _failure("duality", p, f"image outside the braid class at n={n}")
            if set(image.arcs) != {(i, j - 1) for i, j in p.arcs}:
                return _failure("duality", p, f"arc property broken at n={n}")
            images.add(image)
        if len(parts) != len(braids):
            return _failure(
                "duality", None, f"|partitions({n})| != |braids({n - 1})|"
            )
        cardinalities[n] = len(parts)
    return {"name": "duality", "passed": True, "details": {"cardinalities": cardinalities}}


def _suite_restriction(k: int, n_max: int) -> dict:
    """Restricted map lands exactly on braids without isolated points."""
    checked = {}
    for n in range(2, n_max + 1):
        image = set()
        for p in enumeration.gen_2regular_k(n, k):
            b = duality.contract_two_regular(p, k)
            if duality.expand_braid_no_isolated(b, k) != p:
                return _failure("restriction", p, f"round trip broken at n={n}")
            image.add(b)
        target = set(enumeration.gen_braids_no_isolated(n - 1, k))
        if image != target:
            extra = sorted(image - target) or sorted(target - image)
            witness = diagrams.format_diagram(extra[0]) if extra else None
            return {
                "name": "restriction",
                "passed": False,
                "details": {"n": n},
                "counterexample": witness,
            }
        checked[n] = len(image)
    return {"name": "restriction", "passed": True, "details": {"cardinalities": checked}}


def _suite_routes(k: int, n_max: int) -> dict:
    """The tableau route computes the same map as the direct route."""
    total = 0
    for n in range(1, n_max + 1):
        for p in enumeration.gen_partitions_k(n, k):
            if duality.contract_partition_via_tableaux(p) != duality.contract_partition(p):
                return _failure("routes", p, "route disagreement")
            total += 1
    return {"name": "routes", "passed": True, "details": {"checked": total}}


def _suite_tableau(k: int, n_max: int) -> dict:
    """Round trips and the row bound for both diagram classes."""
    total = 0
    for n in range(0, n_max + 1):
        for p in enumeration.gen_set_partitions(n):
            t = tableaux.diagram_to_tableau(p)
            if tableaux.tableau_to_diagram(t) != p:
                return _failure("tableau", p, "partition round trip broken")
            if (t.max_rows() < k) != diagrams.is_k_noncrossing(p, k):
                return _failure("tableau", p, "row bound broken")
            total += 1
        if n == 0:
            continue
        for b in enumeration.gen_braids(n, n + 2):
            t = tableaux.diagram_to_tableau(b)
            if tableaux.tableau_to_diagram(t) != b:
                return _failure("tableau", b, "braid round trip broken")
            if (t.max_rows() < k) != diagrams.is_k_noncrossing(b, k):
                return _failure("tableau", b, "row bound broken")
            total += 1
    return {"name": "tableau", "passed": True, "details": {"checked": total}}


def _suite_rho3(k: int, n_max: int) -> dict:
    """Four-route agreement on the common range."""
    tables = _rho3_tables(n_max)
    reference = tables["closed"]
    for name, table in tables.items():
        for n, value in table.items():
            if value != reference[n]:
                return {
                    "name": "rho3",
                    "passed": False,
                    "details": {"route": name, "n": n},
                    "counterexample": None,
                }
    return {
        "name": "rho3",
        "passed": True,
        "details": {"values": {n: str(v) for n, v in reference.items()}},
    }


def _suite_walks(k: int, n_max: int) -> dict:
    """Reflection principle: a_n - b_n equals the closed form."""
    for n in range(0, n_max + 1):
        a, b = walks.quadrant_walk_counts(n)
        expect = 1 if n == 0 else walks.rho3_closed_form(n)
        if a - b != expect:
            return {
                "name": "walks",
                "passed": False,
                "details": {"n": n, "a": str(a), "b": str(b)},
                "counterexample": None,
            }
    return {"name": "walks", "passed": True, "details": {"n_max": n_max}}


def _suite_series(k: int, n_max: int) -> dict:
    """Kernel identities and the coefficient formula."""
    order = 40
    y = walks.kernel_root_series(order)
    if not walks.kernel_residual(y).is_zero():
        return {"name": "series", "passed": False, "details": {"check": "kernel"},
                "counterexample": None}
    if not walks.kernel_symmetry_holds():
        return {"name": "series", "passed": False, "details": {"check": "symmetry"},
                "counterexample": None}
    powers = {1: y, 2: y * y}
    powers[3] = powers[2] * y
    for n in range(0, min(n_max, 10) + 1):
        for kk in (1, 2, 3):
            for m in range(-5, 6):
                direct = powers[kk].coefficient(2 * n + 2, m)
                if direct != walks.root_power_coefficient(kk, m, n):
                    return {"name": "series", "passed": False,
                            "details": {"check": "coefficient", "k": kk, "m": m, "n": n},
                            "counterexample": None}
    return {"name": "series", "passed": True, "details": {"order": order}}


def _failure(name: str, witness, reason: str) -> dict:
    return {
        "name": name,
        "passed": False,
        "details": {"reason": reason},
        "counterexample": diagrams.format_diagram(witness) if witness else None,
    }


_SUITES = {
    "duality": _suite_duality,
    "restriction": _suite_restriction,
    "routes": _suite_routes,
    "tableau": _suite_tableau,
    "rho3": _suite_rho3,
    "walks": _suite_walks,
    "series": _suite_series,
}


# -- command handlers ---------------------------------------------------------------


def _count_one(args: tuple[str, int, int]) -> tuple[int, int]:
    class_tag, k, n = args
    return n, enumeration.count_class(class_tag, k, n)


def _cmd_count(ns: argparse.Namespace) -> tuple[dict, int]:
    class_tag = _CLASS_TAGS[ns.class_name]
    if ns.n is None and ns.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    n_values = [ns.n] if ns.n is not None else list(range(1, ns.n_max + 1))
    top = max(n_values)
    if ns.route == "brute":
        if enumeration.bell_number(top) > enumeration.BRUTE_FORCE_LIMIT:
            raise enumeration.RangeGuardError(
                f"Bell({top}) exceeds the brute-force budget"
            )
        work = [(class_tag, ns.k, n) for n in n_values]
        if ns.jobs > 1:
            with ProcessPoolExecutor(max_workers=ns.jobs) as pool:
                counts = dict(pool.map(_count_one, work))
        else:
            counts = dict(map(_count_one, work))
    elif class_tag == "B_k_dagger" and ns.k == 3 and ns.route in _RHO3_ROUTES:
        counts = _RHO3_ROUTES[ns.route](n_values)
    else:
        raise ValueError(
            f"route {ns.route!r} is only available for braids-noiso with k=3"
        )
    payload = {
        "class": ns.class_name,
        "k": ns.k,
        "route": ns.route,
        "counts": {str(n): str(counts[n]) for n in sorted(counts)},
    }
    if ns.format == "csv":
        lines = ["class,k,route,n,count"]
        lines += [
            f"{ns.class_name},{ns.k},{ns.route},{n},{counts[n]}" for n in sorted(counts)
        ]
        return {"csv": "\n".join(lines)}, 0
    return payload, 0


def _cmd_enum(ns: argparse.Namespace) -> tuple[dict, int]:
    gen = {
        "partitions": enumeration.gen_partitions_k,
        "2regular": enumeration.gen_2regular_k,
        "braids": enumeration.gen_braids,
        "braids-noiso": enumeration.gen_braids_no_isolated,
    }[ns.class_name]
    lines = [diagrams.format_diagram(d) for d in gen(ns.n, ns.k)]
    if ns.format == "text":
        return {"text": "\n".join(lines)}, 0
    return {"class": ns.class_name, "k": ns.k, "n": ns.n, "diagrams": lines}, 0


def _cmd_map(ns: argparse.Namespace) -> tuple[dict, int]:
    n, arcs = diagrams.parse_diagram(ns.text)
    if ns.inverse:
        out = duality.expand_braid(diagrams.BraidDiagram(n, arcs))
    else:
        out = duality.contract_partition(diagrams.PartitionDiagram(n, arcs))
    line = diagrams.format_diagram(out)
    if ns.format == "text":
        return {"text": line}, 0
    return {"input": ns.text.strip(), "output": line}, 0


def _cmd_verify(ns: argparse.Namespace) -> tuple[dict, int]:
    names = sorted(_SUITES) if ns.suite == "all" else [ns.suite]
    reports = [_SUITES[name](ns.k, ns.n_max) for name in names]
    passed = all(r["passed"] for r in reports)
    return {"k": ns.k, "n_max": ns.n_max, "suites": reports, "passed": passed}, (
        0 if passed else 2
    )


def _cmd_rho3(ns: argparse.Namespace) -> tuple[dict, int]:
    if ns.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    if ns.route == "all":
        tables = _rho3_tables(ns.n_max)
        reference = tables["closed"]
        agreement = all(
            value == reference[n]
            for table in tables.values()
            for n, value in table.items()
        )
        payload = {
            "k": 3,
            "routes": {
                name: {str(n): str(v) for n, v in table.items()}
                for name, table in tables.items()
            },
            "agreement": agreement,
        }
        return payload, 0 if agreement else 2
    table = _RHO3_ROUTES[ns.route](range(1, ns.n_max + 1))
    if ns.format == "csv":
        lines = ["route,n,value"]
        lines += [f"{ns.route},{n},{table[n]}" for n in sorted(table)]
        return {"csv": "\n".join(lines)}, 0
    return {"k": 3, "route": ns.route, "counts": {str(n): str(v) for n, v in table.items()}}, 0


def _cmd_asympt(ns: argparse.Namespace) -> tuple[dict, int]:
    estimate = walks.asymptotic_estimate(ns.n)
    payload = {"n": ns.n, "estimate": str(estimate)}
    if ns.n <= 2000:
        exact = walks.rho3_recurrence(ns.n).entries[ns.n]
        rel = abs(estimate / Decimal(exact) - 1)
        payload["exact"] = str(exact)
        payload["relative_error"] = str(rel)
    return payload, 0


def _cmd_render(ns: argparse.Namespace) -> tuple[dict, int]:
    n, arcs = diagrams.parse_diagram(ns.text)
    return {"svg": diagrams.diagram_svg(diagrams.ArcDiagram(n, arcs))}, 0


_HANDLERS = {
    "count": _cmd_count,
    "enum": _cmd_enum,
    "map": _cmd_map,
    "verify": _cmd_verify,
    "rho3": _cmd_rho3,
    "asympt": _cmd_asympt,
    "render": _cmd_render,
}

#: keys whose values are emitted raw instead of wrapped in the report
_RAW_KEYS = ("csv", "svg", "text")


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    started = time.perf_counter()
    try:
        payload, status = _HANDLERS[ns.command](ns)
    except (ValueError, enumeration.RangeGuardError, walks.RecurrenceError) as err:
        _diag(type(err).__name__, str(err))
        return 1
    for key in _RAW_KEYS:
        if key in payload:
            print(payload[key])
            break
    else:
        report = {
            "command": ns.command,
            "args": {k: v for k, v in vars(ns).items() if k != "command"},
            "version": __version__,
            "elapsed_seconds": round(time.perf_counter() - started, 6),
            **payload,
        }
        print(json.dumps(report, sort_keys=True, indent=2))
    return status


def main(argv: list[str] | None = None) -> int:
    return run(argv)
