"""Exhaustive generators and counting oracles for the diagram classes.

One stream feeds both.  Set partitions come from restricted growth
strings in lexicographic order, which is canonical and duplicate-free,
and each word becomes its arcs in start order by one rule: read right
to left, a vertex starts an arc to its label's next occurrence.  Each
class keeps the words that pass its filter: the 2-regular test first,
where the class asks for it, then the k-crossing test in the class's
convention (_FILTERS).  That test, diagrams.has_k_crossing, takes the
arcs in start order and only asks whether some k of them cross: it
skips the cuts before the k-th start and stops at the first k crossing
arcs, so no word pays for its whole crossing number.  The generators
wrap the surviving arcs in validated diagrams; count_class counts them
and builds no diagram.

Braids are produced through their loop-stripped skeletons: every braid
is a partition diagram (the non-loop arcs) plus a choice of
loop-or-isolated for each untouched vertex, so enumerating skeletons
with no k crossing arcs in the shared-endpoint convention and expanding
the isolated vertices covers each braid exactly once.  A loop joins no
crossing set of two or more arcs, so every one of the 2^f choices at a
skeleton with f isolated vertices keeps its crossing number, and
count_class weighs such a B_k skeleton 2^f; a B_k_dagger skeleton loops
every isolated vertex and counts 1.

These streams are the ground truth that every formula route is checked
against; they are deliberately simple.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator

from .diagrams import (
    Arc,
    BraidDiagram,
    PartitionDiagram,
    has_k_crossing,
    is_k_noncrossing,
    is_two_regular,
)

#: Hard ceiling on brute-force configuration counts.
BRUTE_FORCE_LIMIT = 10_000_000


class RangeGuardError(RuntimeError):
    """Brute-force range would exceed the configuration budget."""


def bell_number(n: int) -> int:
    """Number of set partitions of [n], by the Bell triangle."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All strings a_1..a_n with a_1 = 0 and a_i <= 1 + max(previous),
    in lexicographic order.  They encode set partitions of [n]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    word = [0] * n
    peak = [0] * n  # peak[t] = max(word[:t]), kept as the prefix changes
    while True:
        yield tuple(word)
        # advance to lexicographic successor: the last position below its cap
        pos = n - 1
        while pos > 0 and word[pos] > peak[pos]:
            pos -= 1
        if pos == 0:
            return
        word[pos] += 1
        top = word[pos] if word[pos] > peak[pos] else peak[pos]
        for t in range(pos + 1, n):
            word[t] = 0
            peak[t] = top


def _partition_arcs(n: int) -> Iterator[list[Arc]]:
    """The arcs of every set partition of [n], in growth-string order,
    each list in start order: read right to left, a vertex starts an arc
    to its label's next occurrence."""
    for word in restricted_growth_strings(n):
        following: dict[int, int] = {}
        arcs = []
        for v in range(n, 0, -1):
            label = word[v - 1]
            if label in following:
                arcs.append((v, following[label]))
            following[label] = v
        arcs.reverse()
        yield arcs


#: class tag -> (its partitions are 2-regular, its crossing convention is
#: shared-endpoint); the braid classes filter their skeletons
_FILTERS = {
    "P_k": (False, False),
    "P_k2": (True, False),
    "B_k": (False, True),
    "B_k_dagger": (False, True),
}


def _class_arcs(class_tag: str, n: int, k: int) -> Iterator[list[Arc]]:
    """The arcs of each partition of [n] that passes class_tag's filter at k."""
    _require_k(k)
    two_regular, shared_endpoint = _FILTERS[class_tag]
    for arcs in _partition_arcs(n):
        # the cheap test first: only Bell(n-1) of Bell(n) partitions pass it
        if two_regular and any(j == i + 1 for i, j in arcs):
            continue
        if not has_k_crossing(arcs, k, shared_endpoint):
            yield arcs


def _isolated(n: int, arcs: list[Arc]) -> list[int]:
    touched = {v for arc in arcs for v in arc}
    return [v for v in range(1, n + 1) if v not in touched]


def gen_set_partitions(n: int) -> Iterator[PartitionDiagram]:
    """Every set partition of [n] exactly once, as a canonical diagram."""
    for arcs in _partition_arcs(n):
        yield PartitionDiagram(n, arcs)


def gen_partitions_k(n: int, k: int) -> Iterator[PartitionDiagram]:
    for arcs in _class_arcs("P_k", n, k):
        yield PartitionDiagram(n, arcs)


def gen_2regular_k(n: int, k: int) -> Iterator[PartitionDiagram]:
    for arcs in _class_arcs("P_k2", n, k):
        yield PartitionDiagram(n, arcs)


def gen_braids(n: int, k: int) -> Iterator[BraidDiagram]:
    """Every k-noncrossing braid over [n], via loop expansion of skeletons."""
    for arcs in _class_arcs("B_k", n, k):
        free = _isolated(n, arcs)
        for mask in range(1 << len(free)):
            loops = [(v, v) for t, v in enumerate(free) if mask >> t & 1]
            yield BraidDiagram(n, arcs + loops)


def gen_braids_no_isolated(n: int, k: int) -> Iterator[BraidDiagram]:
    """k-noncrossing braids over [n] in which every vertex is covered."""
    for arcs in _class_arcs("B_k_dagger", n, k):
        yield BraidDiagram(n, arcs + [(v, v) for v in _isolated(n, arcs)])


#: class tag -> generator of its diagrams over [n] at k
GENERATORS = {
    "P_k": gen_partitions_k,
    "P_k2": gen_2regular_k,
    "B_k": gen_braids,
    "B_k_dagger": gen_braids_no_isolated,
}


def is_member(class_tag: str, d: object, n: int, k: int) -> bool:
    """True when d is one of the diagrams GENERATORS[class_tag](n, k)
    yields: a diagram of the class's type over [n], with no k crossing
    arcs in its convention, 2-regular for P_k2 and with no isolated
    vertex for B_k_dagger.  The type is compared exactly, as diagram
    equality compares it."""
    two_regular, braid = _FILTERS[class_tag]
    if type(d) is not (BraidDiagram if braid else PartitionDiagram) or d.n != n:
        return False
    if two_regular and not is_two_regular(d):
        return False
    if class_tag == "B_k_dagger" and d.isolated_vertices():
        return False
    return is_k_noncrossing(d, k)


def count_class(class_tag: str, k: int, n: int) -> int:
    """The number of diagrams GENERATORS[class_tag](n, k) yields, counted
    from the arc stream without building one: a B_k skeleton with f
    isolated vertices counts 2^f, every other member 1."""
    members = _class_arcs(class_tag, n, k)
    if class_tag == "B_k":
        # f is the number of vertices of [n] that no arc touches
        return sum(1 << (n - len(set().union(*arcs))) for arcs in members)
    return sum(1 for _ in members)


#: the least m with Bell(m) > BRUTE_FORCE_LIMIT
_REFUSED_SIZE = next(m for m in count() if bell_number(m) > BRUTE_FORCE_LIMIT)


def require_brute_budget(class_tag: str, n: int) -> None:
    """Refuse brute force over the diagrams of class_tag over [n] when
    their bound exceeds BRUTE_FORCE_LIMIT, before any is generated.  The
    bound is Bell(m), m = n, the set partitions of [n], except for B_k:
    its braids over [n] are as many as the partitions over [n + 1] that
    contract to them, up to Bell(n + 1).  Only m is compared, with
    _REFUSED_SIZE, so that refusal costs the same at every n."""
    m = n + 1 if class_tag == "B_k" else n
    if m >= _REFUSED_SIZE:
        relation = "=" if m == _REFUSED_SIZE else ">"
        raise RangeGuardError(
            f"{class_tag} over [{n}] is charged Bell({m}) {relation} "
            f"{bell_number(_REFUSED_SIZE)}, over the brute-force budget of {BRUTE_FORCE_LIMIT}"
        )


def _require_k(k: int) -> None:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
