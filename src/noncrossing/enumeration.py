"""Exhaustive generators and counting oracles for the diagram classes.

Set partitions are produced from restricted growth strings in
lexicographic order, which is canonical and duplicate-free.  Braids are
produced through their loop-stripped skeletons: every braid is a
partition diagram (the non-loop arcs) plus a choice of loop-or-isolated
for each untouched vertex, so enumerating skeletons whose shared-endpoint
crossing number stays below k and expanding the isolated vertices covers
each braid exactly once.

These streams are the ground truth that every formula route is checked
against; they are deliberately simple.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator

from .diagrams import (
    BraidDiagram,
    PartitionDiagram,
    crossing_number_of_arcs,
    is_two_regular,
    partition_from_blocks,
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
    while True:
        yield tuple(word)
        # advance to lexicographic successor
        pos = n - 1
        while pos > 0:
            cap = max(word[:pos]) + 1
            if word[pos] < cap:
                word[pos] += 1
                for t in range(pos + 1, n):
                    word[t] = 0
                break
            pos -= 1
        else:
            return


def gen_set_partitions(n: int) -> Iterator[PartitionDiagram]:
    """Every set partition of [n] exactly once, as a canonical diagram."""
    for word in restricted_growth_strings(n):
        blocks: dict[int, list[int]] = {}
        for v, label in enumerate(word, 1):
            blocks.setdefault(label, []).append(v)
        yield partition_from_blocks(blocks.values())


def gen_partitions_k(n: int, k: int) -> Iterator[PartitionDiagram]:
    _require_k(k)
    for p in gen_set_partitions(n):
        if crossing_number_of_arcs(p.arcs, shared_endpoint=False) < k:
            yield p


def gen_2regular_k(n: int, k: int) -> Iterator[PartitionDiagram]:
    _require_k(k)
    for p in gen_set_partitions(n):
        # the cheap test first: only Bell(n-1) of Bell(n) partitions pass it
        if is_two_regular(p) and crossing_number_of_arcs(p.arcs, shared_endpoint=False) < k:
            yield p


def _gen_braid_skeletons(n: int, k: int) -> Iterator[PartitionDiagram]:
    # The filter uses the shared-endpoint convention: chains through a
    # common vertex i_m = j_1 also block the skeleton.
    for p in gen_set_partitions(n):
        if crossing_number_of_arcs(p.arcs, shared_endpoint=True) < k:
            yield p


def gen_braids(n: int, k: int) -> Iterator[BraidDiagram]:
    """Every k-noncrossing braid over [n], via loop expansion of skeletons."""
    _require_k(k)
    for skel in _gen_braid_skeletons(n, k):
        free = skel.isolated_vertices()
        for mask in range(1 << len(free)):
            loops = tuple(
                (v, v) for t, v in enumerate(free) if mask >> t & 1
            )
            yield BraidDiagram(n, skel.arcs + loops)


def gen_braids_no_isolated(n: int, k: int) -> Iterator[BraidDiagram]:
    """k-noncrossing braids over [n] in which every vertex is covered."""
    _require_k(k)
    for skel in _gen_braid_skeletons(n, k):
        loops = tuple((v, v) for v in skel.isolated_vertices())
        yield BraidDiagram(n, skel.arcs + loops)


#: class tag -> generator of its diagrams over [n] at k
GENERATORS = {
    "P_k": gen_partitions_k,
    "P_k2": gen_2regular_k,
    "B_k": gen_braids,
    "B_k_dagger": gen_braids_no_isolated,
}


def count_class(class_tag: str, k: int, n: int) -> int:
    gen = GENERATORS[class_tag]
    return sum(1 for _ in gen(n, k))


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
