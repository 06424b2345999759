"""Independent answers the benchmark checks the program against.

Nothing here copies an output of the program.  The reference numbers
(Catalan, Motzkin, Bell) come from ``math.comb`` and the benchmark's own
recurrences; the diagram checks compare against arc sets computed here
from the definitions; the rest are properties the paper's method must
have: the contraction duality and its restriction, agreement of
independent routes, and the n^-4 decay of the asymptotic error.

Every checker returns a list of problems, empty when the answer is right.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import lru_cache
from math import comb

#: 327680*sqrt(3)/(27*pi), the leading constant of rho3(n) ~ K 8^n n^-7.
K_FLOAT = 327680 * math.sqrt(3) / (27 * math.pi)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def motzkin(n: int) -> int:
    return sum(comb(n, 2 * j) * catalan(j) for j in range(n // 2 + 1))


def bell(n: int) -> int:
    """Bell numbers by B(m+1) = sum_j C(m, j) B(j)."""
    values = [1]
    for m in range(n):
        values.append(sum(comb(m, j) * values[j] for j in range(m + 1)))
    return values[n]


def format_arcs(n: int, arcs) -> str:
    """The one-line diagram text, written here from the format's definition."""
    return f"n={n}; arcs=" + "".join(f"({i},{j})" for i, j in sorted(arcs))


def brute_crossing_number(arcs, shared_endpoint: bool) -> int:
    """Largest set of mutually crossing arcs, by search over arc subsets.

    Arcs a = (i, j) and b = (p, q) with i < p cross when p < j < q; with
    ``shared_endpoint`` (braids) p == j also counts.  A set crosses
    mutually when every pair of it crosses.
    """
    arcs = sorted(a for a in arcs if a[0] != a[1])

    def cross(a, b):
        (i, j), (p, q) = a, b
        return i < p and (p <= j if shared_endpoint else p < j) and j < q

    best = 0

    def grow(chosen: list, start: int) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for t in range(start, len(arcs)):
            if all(cross(c, arcs[t]) for c in chosen):
                chosen.append(arcs[t])
                grow(chosen, t + 1)
                chosen.pop()

    grow([], 0)
    return best


def set_partition_arcs(n: int):
    """Arcs of every set partition of [n], each block's consecutive elements
    joined, from the benchmark's own recursive block assignment."""
    def place(v, last):  # last[b] = largest element so far of block b
        if v > n:
            yield ()
            return
        for b in range(len(last) + 1):
            arc = ((last[b], v),) if b < len(last) else ()
            grown = last[:b] + (v,) + last[b + 1:]
            for rest in place(v + 1, grown):
                yield arc + rest
    return place(1, ())


@lru_cache(maxsize=None)
def partition_profile(n: int) -> tuple[tuple[int, bool], ...]:
    """(crossing number, 2-regular) of every set partition of [n]."""
    return tuple(
        (brute_crossing_number(arcs, False), all(j != i + 1 for i, j in arcs))
        for arcs in set_partition_arcs(n)
    )


def count_noncrossing(n: int, k: int, two_regular: bool = False) -> int:
    """k-noncrossing (2-regular) partitions of [n], by the benchmark's own count."""
    return sum(1 for cr, reg in partition_profile(n) if cr < k and (reg or not two_regular))


# -- enumerate ------------------------------------------------------------------


def check_count_table(table: dict, closed_form=None) -> list[str]:
    """``table`` maps (class_tag, k, n) to a count.

    Checks P_k(n) and P_k2(n) against the benchmark's own enumeration of
    the partitions of [n], and B_k(n) and B_k_dagger(n) against that of
    [n+1]; P_2 against Catalan, P_22(n) and B_2_dagger(n-1) against
    Motzkin M_(n-1), P_k(n) against Bell(n) below n = 2k and Bell(2k) - 1
    at n = 2k (a single partition of [2k] has k mutually crossing arcs),
    P_k2(n) against Bell(n-1) below n = 2k (no two neighbours share a
    block), the duality P_k(n) = B_k(n-1), its restriction
    P_k2(n) = B_k_dagger(n-1), and P_32(n) = rho3(n-1) through
    ``closed_form`` when given.
    """
    problems = []

    def expect(key, want, why):
        if key in table and table[key] != want:
            problems.append(f"{key}: got {table[key]}, want {want} ({why})")

    for (tag, k, n), value in table.items():
        if tag in ("P_k", "P_k2"):
            expect((tag, k, n), count_noncrossing(n, k, tag == "P_k2"), "own enumeration")
        else:
            expect((tag, k, n), count_noncrossing(n + 1, k, tag == "B_k_dagger"),
                   "own enumeration over [n+1]")
        if tag == "P_k":
            if k == 2:
                expect((tag, k, n), catalan(n), "Catalan")
            if n < 2 * k:
                expect((tag, k, n), bell(n), "Bell(n) below 2k")
            elif n == 2 * k:
                expect((tag, k, n), bell(n) - 1, "Bell(2k) - 1")
            expect(("B_k", k, n - 1), value, "duality P_k(n) = B_k(n-1)")
        elif tag == "P_k2" and n >= 1:
            if k == 2:
                expect((tag, k, n), motzkin(n - 1), "Motzkin M_(n-1)")
            if n < 2 * k:
                expect((tag, k, n), bell(n - 1), "Bell(n-1) below 2k")
            expect(("B_k_dagger", k, n - 1), value, "restriction P_k2(n) = B_k_dagger(n-1)")
            if k == 3 and n >= 2 and closed_form is not None:
                expect((tag, k, n), closed_form(n - 1), "P_32(n) = rho3(n-1)")
        elif tag == "B_k_dagger" and k == 2:
            expect((tag, k, n), motzkin(n), "Motzkin M_n")
    return problems


# -- bijection ------------------------------------------------------------------


def _same(d, n, arcs) -> bool:
    return d.n == n and sorted(d.arcs) == sorted(arcs)


def _covered(n, arcs) -> bool:
    touched = {v for a in arcs for v in a}
    return all(v in touched for v in range(1, n + 1))


def check_diagram_result(inp, res) -> list[str]:
    """One diagram pushed through the chain; ``inp`` is the benchmark's
    own description of the input, ``res`` the dict of program outputs."""
    where = f"{inp.kind} {inp.text!r}"
    if inp.malformed:
        err = res.get("rejected")
        if err is None:
            return [f"{where}: malformed text was accepted"]
        if not issubclass(err, ValueError):
            return [f"{where}: rejected with {err.__name__}, not a ValueError"]
        return []
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(f"{where}: {what}")

    n, arcs = inp.n, inp.arcs
    need(_same(res["diagram"], n, arcs), "parsed diagram differs from the text")
    need(res["text"] == inp.text, "format(parse(text)) != text")
    need(res["tableau_valid"] is True, "tableau of the diagram is invalid")
    need(res["back"] == res["diagram"], "tableau scans are not inverses")
    need(res["rows"] == res["crossing"], "max_rows() != crossing number")
    if inp.brute_crossing is not None:
        need(res["crossing"] == inp.brute_crossing, "crossing number != brute force")
    if inp.kind == "partition":
        contracted = [(i, j - 1) for i, j in arcs]
        need(_same(res["direct"], n - 1, contracted), "contracted arcs != {(i, j-1)}")
        need(res["via_tableaux"] == res["direct"], "contraction routes disagree")
        need(_same(res["expanded"], n, arcs), "expand_braid does not invert the contraction")
        need(res["image_crossing"] == res["crossing"], "contraction changed the crossing number")
        if inp.two_regular:
            loops = [(v, v) for v in range(1, n) if all(v not in a for a in contracted)]
            need(_same(res["restricted"], n - 1, contracted + loops),
                 "2-regular restriction gives the wrong braid")
            need(_covered(n - 1, res["restricted"].arcs), "restricted image has an isolated point")
            need(_same(res["restricted_back"], n, arcs),
                 "2-regular restriction does not round-trip")
    else:
        expanded = [(i, j + 1) for i, j in arcs]
        need(_same(res["expanded"], n + 1, expanded), "expanded arcs != {(i, j+1)}")
        need(_same(res["direct"], n, arcs), "contract_partition does not invert expand_braid")
        need(res["via_tableaux"] == res["direct"], "contraction routes disagree")
        need(res["image_crossing"] == res["crossing"], "expansion changed the crossing number")
        if inp.covered:
            flat = [(i, j + 1) for i, j in arcs if i != j]
            need(_same(res["restricted"], n + 1, flat),
                 "restricted inverse gives the wrong partition")
            need(all(j != i + 1 for i, j in res["restricted"].arcs),
                 "restricted inverse is not 2-regular")
            need(_same(res["restricted_back"], n, arcs),
                 "2-regular restriction does not round-trip")
    return problems


def check_map_output(stdout: str, n: int, arcs, inverse: bool) -> list[str]:
    shift = 1 if inverse else -1
    want = format_arcs(n + shift, [(i, j + shift) for i, j in arcs])
    got = stdout.strip()
    return [] if got == want else [f"map{' --inverse' if inverse else ''}: {got!r} != {want!r}"]


# -- rho3 -----------------------------------------------------------------------


def check_rho3_routes(routes: dict[str, dict[int, int]]) -> list[str]:
    """Every route agrees with every other at each n they share."""
    problems = []
    values: dict[int, tuple[str, int]] = {}
    for name, table in routes.items():
        for n, value in table.items():
            if n in values and values[n][1] != value:
                other, known = values[n]
                problems.append(f"rho3({n}): {name} gives {value}, {other} gives {known}")
            values.setdefault(n, (name, value))
    return problems


def _relative_error(approx, exact: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return abs(Decimal(approx) / Decimal(exact) - 1)


def check_asymptotics(estimates: dict, fits: dict, exact: dict[int, int]) -> list[str]:
    """The estimate's relative error, and the fitted constant's distance
    from K, both shrink 14 to 18 times per doubling of n from 200 on, as
    the n^-4 law predicts; below 200 they still shrink."""
    problems = []
    for label, errors in (
        ("estimate", {n: _relative_error(v, exact[n]) for n, v in estimates.items()}),
        ("fit", {n: abs(Decimal(v) / Decimal(K_FLOAT) - 1) for n, v in fits.items()}),
    ):
        for n in sorted(errors):
            if 2 * n not in errors:
                continue
            ratio = errors[n] / errors[2 * n] if errors[2 * n] else Decimal("Infinity")
            low = 14 if n >= 200 else 1
            high = 18 if n >= 200 else Decimal("Infinity")
            if not low <= ratio <= high:
                problems.append(f"{label} error ratio {n}->{2 * n} is {ratio:.4g}")
    return problems


def check_recurrence(table: dict[int, int]) -> list[str]:
    """Every entry satisfies the P-recurrence of rho3,
    (n+7)(n+8)(n+9) r(n+3) = 8(n+1)(n+2)(n+3) r(n)
        + 3(n+2)(5n^2+47n+104) r(n+1) + 3(n+4)(n+7)(2n+11) r(n+2),
    so that, with its first entries checked against the other routes,
    the whole table is pinned down exactly."""
    for n in range(1, len(table) - 2):
        lhs = (n + 7) * (n + 8) * (n + 9) * table[n + 3]
        rhs = (8 * (n + 1) * (n + 2) * (n + 3) * table[n]
               + 3 * (n + 2) * (5 * n * n + 47 * n + 104) * table[n + 1]
               + 3 * (n + 4) * (n + 7) * (2 * n + 11) * table[n + 2])
        if lhs != rhs:
            return [f"rho3 table breaks the recurrence at n={n + 3}"]
    return []


def check_large_n(table: dict[int, int], sizes=(2000, 3000, 4000)) -> list[str]:
    """rho3(n) n^7 / (K 8^n (1 - 28/n)) is 1 to within 1000/n^2 for large n;
    the next term of the law is 4102/(9 n^2)."""
    problems = []
    for n in sizes:
        if n not in table:
            problems.append(f"rho3 table has no entry at n={n}")
            continue
        scaled = table[n] * n**7 * 10**30 // 8**n / 10**30
        ratio = scaled / (K_FLOAT * (1 - 28 / n))
        if abs(ratio - 1) > 1000 / n**2:
            problems.append(f"rho3({n}) is off the asymptotic law by {ratio - 1:.3g}")
    return problems
