"""Exhaustive generators and counting oracles for the diagram classes.

One stream feeds both.  Set partitions come from restricted growth
strings in lexicographic order, which is canonical and duplicate-free,
and one depth-first walk over them (_growth_walk; Knuth, TAOCP 4A,
7.2.1.5) keeps the arcs of the prefix it stands on: a vertex that takes
an old label closes an arc from that label's last vertex, and a step
back pops only the arcs of the suffix it changes, so a word costs O(1)
list operations amortized, not a pass over [n].  The walk also yields
the words themselves (restricted_growth_strings), so the package has
one enumeration of set partitions.  Each class reads the walk's own
list of arcs and keeps the words that pass its filter (_class_arcs):
the 2-regular test first, where the class asks for it, on the walk's
list, as it needs no order; then the list of each word that passes is
sorted into a fresh one in start order and meets the k-crossing test
in the crossing convention that the class's diagram type carries
(_FILTERS).  That test, diagrams.has_k_crossing,
takes the arcs in start order and only asks whether some k of them
cross: it skips the cuts before the k-th start and stops at the first
k crossing arcs, so no word pays for its whole crossing number.  The
generators wrap the surviving arcs in validated diagrams; count_class
counts them and builds no diagram.

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
    isolated,
    require_k,
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


def _growth_walk(n: int) -> Iterator[tuple[list[int], list[Arc]]]:
    """Every restricted growth string of [n], in lexicographic order, with
    the closed arcs of its partition, by one depth-first walk.  Each step
    yields the same two live lists, the word and its arcs in end order,
    which the next step changes: a reader copies what it keeps.

    Vertex v takes the label word[v - 1].  An old label L closes the arc
    (last[L], v); a vertex that closes no arc opens a block, under the
    next new label, which is its cap.  The last vertex tries each label
    of its prefix and then a new one.  Then the walk steps back: the end
    v of the last closed arc is the rightmost vertex below its cap, as
    every vertex after it opened a block.  The walk pops that arc, raises
    v's label and refills the vertices after v with label 0, each closing
    an arc to the one before.  A word costs O(1) list operations
    amortized."""
    if n < 0:
        raise ValueError("n must be >= 0")
    word = [0] * n
    # the first word, all 0, up to its last vertex: a chain of arcs
    arcs = [(v, v + 1) for v in range(1, n - 1)]
    state = word, arcs
    if n < 2:
        yield state
        return
    leaf = n - 1  # the position of vertex n
    last = [0] * n  # last[L] = the latest vertex before n labelled L
    last[0] = leaf
    while True:
        blocks = leaf - len(arcs)  # opened by the vertices before n
        for label in range(blocks):
            word[leaf] = label
            arcs.append((last[label], n))
            yield state
            arcs.pop()
        word[leaf] = blocks
        yield state
        if not arcs:
            return
        start, v = arcs.pop()
        label = word[v - 1]
        last[label] = start
        word[v - 1] = label = label + 1
        if label < v - 1 - len(arcs):  # the number of blocks opened before v
            arcs.append((last[label], v))
        last[label] = v
        for u in range(v + 1, n):
            word[u - 1] = 0
            arcs.append((last[0], u))
            last[0] = u


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All strings a_1..a_n with a_1 = 0 and a_i <= 1 + max(previous),
    in lexicographic order.  They encode set partitions of [n]."""
    for word, _ in _growth_walk(n):
        yield tuple(word)


#: class tag -> (the type of its diagrams, whose shared_endpoint is its
#: crossing convention; its partitions are 2-regular); the braid classes
#: filter their skeletons
_FILTERS = {
    "P_k": (PartitionDiagram, False),
    "P_k2": (PartitionDiagram, True),
    "B_k": (BraidDiagram, False),
    "B_k_dagger": (BraidDiagram, False),
}


def _class_filter(class_tag: str) -> tuple[type[PartitionDiagram | BraidDiagram], bool]:
    """class_tag's entry of _FILTERS; an unknown tag is refused."""
    if class_tag not in _FILTERS:
        raise ValueError(f"unknown class tag {class_tag!r}")
    return _FILTERS[class_tag]


def _class_arcs(class_tag: str, n: int, k: int) -> Iterator[list[Arc]]:
    """The arcs of each partition of [n] that passes class_tag's filter at
    k, in growth-string order, each a fresh list in start order."""
    require_k(k)
    kind, two_regular = _class_filter(class_tag)
    shared_endpoint = kind.shared_endpoint
    for _, arcs in _growth_walk(n):
        # the cheap test first, on the walk's own list: only Bell(n-1) of
        # Bell(n) partitions pass it, and it needs no start order
        if two_regular and any(j == i + 1 for i, j in arcs):
            continue
        arcs = sorted(arcs)
        if not has_k_crossing(arcs, k, shared_endpoint):
            yield arcs


def gen_set_partitions(n: int) -> Iterator[PartitionDiagram]:
    """Every set partition of [n] exactly once, as a canonical diagram."""
    return (PartitionDiagram(n, arcs) for _, arcs in _growth_walk(n))


def gen_partitions_k(n: int, k: int) -> Iterator[PartitionDiagram]:
    return (PartitionDiagram(n, arcs) for arcs in _class_arcs("P_k", n, k))


def gen_2regular_k(n: int, k: int) -> Iterator[PartitionDiagram]:
    return (PartitionDiagram(n, arcs) for arcs in _class_arcs("P_k2", n, k))


def gen_braids(n: int, k: int) -> Iterator[BraidDiagram]:
    """Every k-noncrossing braid over [n], via loop expansion of skeletons."""
    for arcs in _class_arcs("B_k", n, k):
        free = isolated(n, arcs)
        for mask in range(1 << len(free)):
            loops = [(v, v) for t, v in enumerate(free) if mask >> t & 1]
            yield BraidDiagram(n, arcs + loops)


def gen_braids_no_isolated(n: int, k: int) -> Iterator[BraidDiagram]:
    """k-noncrossing braids over [n] in which every vertex is covered."""
    for arcs in _class_arcs("B_k_dagger", n, k):
        yield BraidDiagram(n, arcs + [(v, v) for v in isolated(n, arcs)])


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
    kind, two_regular = _class_filter(class_tag)
    return (type(d) is kind and d.n == n
            and (not two_regular or is_two_regular(d))
            and not (class_tag == "B_k_dagger" and isolated(d.n, d.arcs))
            and is_k_noncrossing(d, k))


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
    _REFUSED_SIZE, so that refusal costs the same at every n.  An
    unknown class tag is refused with ValueError."""
    _class_filter(class_tag)
    m = n + 1 if class_tag == "B_k" else n
    if m >= _REFUSED_SIZE:
        relation = "=" if m == _REFUSED_SIZE else ">"
        raise RangeGuardError(
            f"{class_tag} over [{n}] is charged Bell({m}) {relation} "
            f"{bell_number(_REFUSED_SIZE)}, over the brute-force budget of {BRUTE_FORCE_LIMIT}"
        )

