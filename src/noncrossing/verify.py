"""The counting-route registry, with count() its one way in, and the
cross-validation suites, with run_suites() theirs.  Every class counts
by brute force at every k; rho3 (B_k_dagger at k = 3) also by three
formula routes, which rho3_agreement checks against each other.  The
paper's two theorems share one check, _bijection: a map that is
one-to-one, lands in the image class (enumeration.is_member) and has a
domain as large as that class (enumeration.count_class) is onto it, so
no set of diagrams is kept.  Every entry point has a size cap, refused
with RangeGuardError before any work.  Each suite is one entry of
_SUITES: its check, the class whose brute-force budget it is charged,
the least n it checks and the one k it checks, if any.  run_suites reads
only that table, and refuses with ValueError, before any suite runs, a
call that names no suite, an unknown one, or one that would check
another k or no n; suite_names(k) gives the suites that check k, which
--suite all runs.  A failed suite names its route, n and k and a
counterexample: a diagram, the disagreeing values, or the
ArithmeticError a route raised."""

from __future__ import annotations

import sys
from decimal import Decimal
from itertools import chain
from typing import Callable, NamedTuple

from . import diagrams, duality, enumeration, tableaux, walks

#: brute force in the rho3 route comparison is capped at this n
_BRUTE_CAP = 8


class _Route(NamedTuple):
    count: Callable  # sizes -> {n: count}, for 1 <= n <= cap
    cap: int
    decimal: bool = False  # count also takes (sizes, Decimal, max_digits) (count_text)


# The size caps of the entry points that do not enumerate (brute force has
# enumeration.require_brute_budget).  Each was set where the call took
# about ten seconds on a 2-core x86 VM under Python 3.11: a formula
# route's table over 1..cap, the walks suite at --n-max cap.  There the
# kernel table over 1..120 now takes 4.3-4.4 s, the walks suite at 210
# 0.12-0.23 s and the closed-form table over 1..800 5.4-5.7 s; the caps
# stay where they were, as raising a cap is a change of its own.
# The recurrence is cheap in time, and one size keeps two terms, but a
# table over 1..n holds about 1.5 n^2 bits; at 20 000 that is 75 MB,
# which sets its cap instead.  asympt takes about 0.05 s at --n cap, and
# render about 0.2 s and 55 MB at DIAGRAM_CAP; those caps stay so that
# every entry point has one.

#: (class, k) -> route -> its _Route
_FORMULA_ROUTES = {
    ("B_k_dagger", 3): {
        "kernel": _Route(walks._rho3_kernel_table, 120),
        "closed": _Route(lambda sizes: {n: walks.rho3_closed_form(n) for n in sizes}, 800),
        "recurrence": _Route(walks._rho3_terms, 20_000, decimal=True),
    },
}
#: the largest --n-max of the walks suite
_WALKS_CAP = 210
#: the largest --n of asympt
ASYMPT_CAP = 800_000
#: the largest --n at which asympt also reports the exact value
ASYMPT_EXACT_CAP = 2000
#: the largest n of a diagram given to map or render
DIAGRAM_CAP = 100_000


def require_cap(what: str, n: int, cap: int) -> None:
    """Refuse n above cap, before any work."""
    if n > cap:
        raise enumeration.RangeGuardError(f"{what} is capped at n = {cap}, got {n}")


def routes(class_tag: str, k: int) -> tuple[str, ...]:
    """The routes that count class_tag at this k."""
    return ("brute", *_FORMULA_ROUTES.get((class_tag, k), ()))


def count(class_tag: str, k: int, route: str, sizes) -> dict[int, int]:
    """{n: count} for each n in sizes by the named route, once _admit
    has admitted them: brute force is refused up front over budget, and
    a formula route over its cap."""
    sizes, counter, _ = _admit(class_tag, k, route, sizes)
    return counter(sizes)


def count_text(class_tag: str, k: int, route: str, sizes) -> dict[int, str | Decimal]:
    """count(), with every value ready to print: str() of it is its
    decimal digits.  A route marked decimal computes in decimal radix and
    hands back its Decimal terms, whose str() costs time linear in their
    digits, so that the table is held once; the others are converted with
    str().  Either way a value of more than sys.get_int_max_str_digits()
    digits is refused with the ValueError that str() of an int raises: a
    decimal route refuses it before it forms any term when a lower bound
    proves one too long, and otherwise stops at its first term that long
    (walks._rho3_terms); the others refuse it as they convert it."""
    sizes, counter, decimal = _admit(class_tag, k, route, sizes)
    if decimal:
        return counter(sizes, Decimal, sys.get_int_max_str_digits())
    return {n: str(v) for n, v in counter(sizes).items()}


def _admit(class_tag: str, k: int, route: str,
           sizes) -> tuple[range | list[int], Callable, bool]:
    """The sizes (a range kept as it is, bounded by its ends at any
    length; anything else as a list), the route's counter and its
    decimal flag, once the class, k, route and cap admit them.  Brute force
    counts each size with enumeration.count_class."""
    enumeration._class_filter(class_tag)  # refuses an unknown class tag
    diagrams.require_k(k)
    available = routes(class_tag, k)
    if route not in available:
        raise ValueError(
            f"route {route!r} does not count {class_tag} at k={k}; "
            f"available: {', '.join(available)}"
        )
    sizes = sizes if isinstance(sizes, range) else list(sizes)
    if not sizes:
        raise ValueError("no sizes to count")
    ends = (sizes[0], sizes[-1]) if isinstance(sizes, range) else sizes
    low, high = min(ends), max(ends)
    if route == "brute":
        enumeration.require_brute_budget(class_tag, high)
        brute = lambda sizes: {n: enumeration.count_class(class_tag, k, n) for n in sizes}
        return sizes, brute, False
    if low < 1:
        raise ValueError(f"route {route!r} counts from n = 1, got n = {low}")
    entry = _FORMULA_ROUTES[class_tag, k][route]
    require_cap(f"route {route!r}", high, entry.cap)
    return sizes, entry.count, entry.decimal


def rho3_agreement(n_max: int) -> tuple[dict[str, dict[int, str | Decimal]], dict]:
    """Every rho3 route over 1..n_max as count_text gives it, brute force
    only up to _BRUTE_CAP, and the rho3 suite's report that each agrees
    with the closed form, digit for digit.  A route that raises ArithmeticError
    fails it at the largest n asked for, with the tables built so far."""
    spans = {route: range(1, (min(n_max, _BRUTE_CAP) if route == "brute" else n_max) + 1)
             for route in routes("B_k_dagger", 3)}
    for route, span in spans.items():  # every cap, before the first table
        _admit("B_k_dagger", 3, route, span)
    tables = {}
    for route, span in spans.items():
        try:
            tables[route] = count_text("B_k_dagger", 3, route, span)
        except ArithmeticError as err:
            return tables, _raised("rho3", err, route=route, n=span[-1], k=3)
    reference = tables["closed"]
    for route, table in tables.items():
        for n, value in table.items():
            if str(value) != reference[n]:
                witness = {route: str(value), "closed": reference[n]}
                return tables, _failure("rho3", "route disagrees", witness,
                                        route=route, n=n, k=3)
    return tables, {"name": "rho3", "passed": True, "details": {"values": reference}}


# -- the suites -------------------------------------------------------------------


def _bijection(name: str, k: int, n_max: int, domain: Callable, image_class: str,
               forward: Callable, inverse: Callable) -> dict:
    """For each n in 2..n_max, forward maps domain(n, k) onto the class
    image_class over [n - 1].  One pass over the domain checks that
    inverse(forward(p)) == p, so forward is one-to-one, and that
    forward(p) is a member of the image class; the domain's size then
    equals enumeration.count_class of the image class, so forward is
    onto.  Only two counters are kept, no set of diagrams.  When the
    sizes differ, both sets are built at that n alone, to name the least
    diagram in one and not the other, or, when the sets are equal (a
    domain that repeats a diagram, or a wrong count), the three sizes."""
    generate = enumeration.GENERATORS[image_class]
    cardinalities = {}
    for n in range(2, n_max + 1):
        outside = f"the images are not {generate.__name__}({n - 1}, {k})"
        size = 0
        for p in domain(n, k):
            image = forward(p)
            if inverse(image) != p:
                return _failure(name, "round trip broken", p, n=n, k=k)
            if not enumeration.is_member(image_class, image, n - 1, k):
                return _failure(name, outside, image, n=n, k=k)
            size += 1
        counted = enumeration.count_class(image_class, k, n - 1)
        if size != counted:
            images = set(map(forward, domain(n, k)))
            target = set(generate(n - 1, k))
            if images != target:
                return _failure(name, outside, min(images ^ target, key=lambda d: d.arcs),
                                n=n, k=k)
            sizes = {"domain": size, "count_class": counted, "image_class": len(target)}
            return _failure(name, "the sizes disagree", sizes, n=n, k=k)
        cardinalities[n] = size
    return {"name": name, "passed": True, "details": {"cardinalities": cardinalities}}


def _suite_duality(k: int, n_max: int) -> dict:
    """Contraction maps P_k over [n] onto B_k over [n-1], and expand_braid
    (map --inverse) inverts it."""
    return _bijection("duality", k, n_max, enumeration.gen_partitions_k, "B_k",
                      duality.contract_partition, duality.expand_braid)


def _suite_restriction(k: int, n_max: int) -> dict:
    """Restricted to P_k2 over [n], it maps onto B_k_dagger over [n-1]."""
    return _bijection("restriction", k, n_max, enumeration.gen_2regular_k, "B_k_dagger",
                      lambda p: duality.contract_two_regular(p, k),
                      lambda b: duality.expand_braid_no_isolated(b, k))


def _suite_routes(k: int, n_max: int) -> dict:
    """The tableau route computes the same map as the direct route."""
    total = 0
    for n in range(1, n_max + 1):
        for p in enumeration.gen_partitions_k(n, k):
            if duality.contract_partition_via_tableaux(p) != duality.contract_partition(p):
                return _failure(
                    "routes", "route disagreement", p, route="via_tableaux", n=n, k=k
                )
            total += 1
    return {"name": "routes", "passed": True, "details": {"checked": total}}


def _suite_tableau(k: int, n_max: int) -> dict:
    """Round trips and the row bound for both diagram classes."""
    total = 0
    for n in range(0, n_max + 1):
        braids = enumeration.gen_braids(n, n + 2) if n else ()
        for d in chain(enumeration.gen_set_partitions(n), braids):
            t = tableaux.diagram_to_tableau(d)
            if tableaux.tableau_to_diagram(t) != d:
                return _failure("tableau", "round trip broken", d, n=n, k=k)
            if (t.max_rows() < k) != diagrams.is_k_noncrossing(d, k):
                return _failure("tableau", "row bound broken", d, n=n, k=k)
            total += 1
    return {"name": "tableau", "passed": True, "details": {"checked": total}}


def _suite_walks(k: int, n_max: int) -> dict:
    """Reflection principle: a_n - b_n equals the closed form."""
    require_cap("the walks suite", n_max, _WALKS_CAP)
    for n, (a, b) in enumerate(walks._quadrant_walk_table(n_max)):
        try:
            expect = 1 if n == 0 else walks.rho3_closed_form(n)
        except ArithmeticError as err:
            return _raised("walks", err, route="closed", n=n, k=3)
        if a - b != expect:
            witness = {"a": str(a), "b": str(b), "closed": str(expect)}
            return _failure("walks", "a_n - b_n is not rho3(n)", witness, n=n, k=3)
    return {"name": "walks", "passed": True, "details": {"n_max": n_max}}


def _suite_series(k: int, n_max: int) -> dict:
    """Kernel identities and the coefficient formula.  The kernel check
    is kernel_root_series's own: it raises on a nonzero residual."""
    order = 40
    try:
        y = walks.kernel_root_series(order)
    except ArithmeticError as err:
        # the root to t^order holds [t^(2n+2)] up to n = order/2 - 1
        return _raised("series", err, check="kernel", route="kernel", n=order // 2 - 1, k=3)
    if not walks.kernel_symmetry_holds():
        return _failure("series", "the kernel is not symmetric",
                        {"kernel_symmetry_holds": False}, check="symmetry", k=3)
    powers = {1: y, 2: y * y}
    powers[3] = powers[2] * y
    for n in range(0, min(n_max, 10) + 1):
        for power in (1, 2, 3):
            for m in range(-5, 6):
                direct = powers[power].coefficient(2 * n + 2, m)
                try:
                    formula = walks.root_power_coefficient(power, m, n)
                except ArithmeticError as err:
                    return _raised("series", err, check="coefficient", route="closed",
                                   power=power, m=m, n=n, k=3)
                if direct != formula:
                    return _failure(
                        "series", "series coefficient differs from the binomial sum",
                        {"series": str(direct), "binomial_sum": str(formula)},
                        check="coefficient", power=power, m=m, n=n, k=3,
                    )
    return {"name": "series", "passed": True, "details": {"order": order}}


def _failure(name: str, reason: str, counterexample, **where) -> dict:
    """A failed suite: the reason, where (route, n, k, ...) and a counterexample."""
    if not isinstance(counterexample, dict):
        counterexample = diagrams.format_diagram(counterexample)
    return {
        "name": name,
        "passed": False,
        "details": {"reason": reason, **where},
        "counterexample": counterexample,
    }


def _raised(name: str, err: ArithmeticError, **where) -> dict:
    """A failed suite for an ArithmeticError that a library route raised."""
    error = {"error": type(err).__name__, "message": str(err)}
    return _failure(name, f"the route raised {type(err).__name__}", error, **where)


class _Suite(NamedTuple):
    check: Callable  # (k, n_max) -> its report
    budget: str | None  # the class whose brute-force budget it is charged at n_max
    first_n: int  # the least n it checks past n = 0, so the least n_max it takes
    k: int | None = None  # the one k it checks, or None for every k


#: suite -> its _Suite.  The bijections map [n] to [n - 1], so they start
#: at n = 2; the other suites start at n = 1, as --n-max does, and tableau,
#: walks and series check n = 0 besides.  tableau is charged every braid.
_SUITES = {
    "duality": _Suite(_suite_duality, "P_k", 2),
    "restriction": _Suite(_suite_restriction, "P_k", 2),
    "routes": _Suite(_suite_routes, "P_k", 1),
    "tableau": _Suite(_suite_tableau, "B_k", 1),
    "rho3": _Suite(lambda k, n_max: rho3_agreement(n_max)[1], None, 1, 3),
    "walks": _Suite(_suite_walks, None, 1, 3),
    "series": _Suite(_suite_series, None, 1, 3),
}
#: the suite names, in the order that run_suites is given them by --suite all
SUITE_NAMES = tuple(sorted(_SUITES))


def suite_names(k: int) -> tuple[str, ...]:
    """The names of the suites that check k, in SUITE_NAMES order."""
    return tuple(name for name in SUITE_NAMES if _SUITES[name].k in (None, k))


def run_suites(names, k: int, n_max: int) -> list[dict]:
    """The reports of the named suites, in order.  Before the first one
    runs, an empty list of names, an unknown name (the message lists
    SUITE_NAMES) and a suite that checks another k are refused with
    ValueError, and so are the suites that would check no n, named by
    the largest first n among them, the least n_max that admits them
    all; then every suite that enumerates is charged its budget, so that
    a refusal comes before any work."""
    names = list(names)  # read twice below, so an iterator of names is listed once
    if not names:
        raise ValueError(f"no suite named; available: {', '.join(SUITE_NAMES)}")
    suites = [_SUITES.get(name) for name in names]
    for name, suite in zip(names, suites):
        if suite is None:
            raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
        if suite.k not in (None, k):
            raise ValueError(f"the {name} suite checks k = {suite.k} only, not k = {k}")
    first = max((suite.first_n for suite in suites if n_max < suite.first_n), default=None)
    if first is not None:
        vacuous = [name for name, suite in zip(names, suites) if suite.first_n == first]
        verb = "suites start" if len(vacuous) > 1 else "suite starts"
        raise ValueError(f"the {' and '.join(vacuous)} {verb} at n = {first}, got n_max = {n_max}")
    for class_tag in filter(None, (suite.budget for suite in suites)):
        enumeration.require_brute_budget(class_tag, n_max)
    return [suite.check(k, n_max) for suite in suites]
