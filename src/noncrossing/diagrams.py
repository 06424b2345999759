"""Arc diagrams over a line of labelled vertices.

A diagram places vertices 1..n on a horizontal line and draws each arc
(i, j), i <= j, in the upper halfplane; (j, j) is a loop at j.  Two
refinements are implemented:

* ``PartitionDiagram`` -- the standard arc encoding of a set partition:
  no loops, and every vertex starts at most one arc and ends at most one
  arc.  The arcs are exactly the consecutive-element pairs of the blocks.
* ``BraidDiagram`` -- every vertex of degree two carries either a loop
  (j, j) or a pair (i, j), (j, h) with i < j < h, which by convention
  cross at j.

Both classes come down to one rule: every arc lies in range, no two
arcs start at the same vertex and no two end at the same vertex, where
a loop (j, j) both starts and ends at j.  A partition also has no loop.
So one pass over the arcs decides validity, and the rule-by-rule check,
which names the first violation, runs only on a diagram that pass
refuses.

The central statistic is the size of the largest set of mutually
crossing arcs.  For partitions a set {(i_1,j_1),...,(i_m,j_m)} is
mutually crossing when i_1 < ... < i_m < j_1 < ... < j_m.  For braids
the middle inequality relaxes to i_m <= j_1, so chains sharing the
vertex i_m = j_1 also count; loops never join a crossing set of size
two or more.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

Arc = tuple[int, int]


class InvalidDiagramError(ValueError):
    """Arcs violate the structural rules of the requested diagram class."""


@dataclass(frozen=True)
class ArcDiagram:
    """Base diagram: n vertices, arcs stored sorted with loops as (j, j).

    Every vertex has degree at most two, where a loop contributes two to
    the degree of its vertex, and no non-loop arc repeats.  n = 0 is the
    empty diagram.

    Construction runs ``_valid``, one pass that accepts only diagrams
    the class's rules accept.  Only a diagram it refuses goes through
    ``_check``, the rules one by one, which accepts it or raises with
    the first violation.
    """

    n: int
    arcs: tuple[Arc, ...] = ()

    #: the least j - i of an arc (i, j) that ``_valid`` accepts: 0 lets
    #: arcs be loops
    _min_span = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(sorted(map(tuple, self.arcs))))
        if not self._valid():
            self._check()

    def _valid(self) -> bool:
        """n >= 0, every arc has 1 <= i, i + _min_span <= j <= n, and no
        two arcs share a start or an end.  For partitions and braids this is the
        class's rule exactly; for a bare ArcDiagram, which allows a
        vertex to start two arcs, it is a sufficient test."""
        n, span = self.n, self._min_span
        starts: set[int] = set()
        ends: set[int] = set()
        for i, j in self.arcs:
            if not 0 < i <= j - span or j > n or i in starts or j in ends:
                return False
            starts.add(i)
            ends.add(j)
        return n >= 0

    def _check(self) -> None:
        if self.n < 0:
            raise InvalidDiagramError(f"vertex count must be >= 0, got {self.n}")
        degree: dict[int, int] = {}
        seen: set[Arc] = set()
        for i, j in self.arcs:
            if not (1 <= i <= j <= self.n):
                raise InvalidDiagramError(f"arc {(i, j)} out of range for n={self.n}")
            if (i, j) in seen:
                raise InvalidDiagramError(f"repeated arc {(i, j)}")
            seen.add((i, j))
            degree[i] = degree.get(i, 0) + 1
            degree[j] = degree.get(j, 0) + 1
        for v, d in degree.items():
            if d > 2:
                raise InvalidDiagramError(f"vertex {v} has degree {d} > 2")

    def origins(self) -> set[int]:
        """Vertices that start an arc; a loop makes its vertex an origin."""
        return {i for i, _ in self.arcs}

    def endpoints(self) -> set[int]:
        """Vertices that end an arc; a loop makes its vertex an endpoint."""
        return {j for _, j in self.arcs}

    def isolated_vertices(self) -> tuple[int, ...]:
        touched = self.origins() | self.endpoints()
        return tuple(v for v in range(1, self.n + 1) if v not in touched)


def _check_endpoints(arcs: Iterable[Arc]) -> None:
    """No vertex starts two of these non-loop arcs, and none ends two."""
    starts: set[int] = set()
    ends: set[int] = set()
    for i, j in arcs:
        if i in starts:
            raise InvalidDiagramError(f"vertex {i} starts two non-loop arcs")
        if j in ends:
            raise InvalidDiagramError(f"vertex {j} ends two non-loop arcs")
        starts.add(i)
        ends.add(j)


class PartitionDiagram(ArcDiagram):
    """Arc form of a set partition of [n]."""

    _min_span = 1

    def _check(self) -> None:
        super()._check()
        for i, j in self.arcs:
            if i == j:
                raise InvalidDiagramError(f"partition diagram cannot contain loop {(i, j)}")
        _check_endpoints(self.arcs)


class BraidDiagram(ArcDiagram):
    """Braid diagram: degree-two vertices are loops or crossing pairs;
    the endpoint rule leaves a pair only as (i, v), (v, h).  A loop
    (v, v) starts and ends at v, so in the one-pass test distinct starts
    and distinct ends also keep loops apart from each other and from
    every other arc."""

    def _check(self) -> None:
        super()._check()
        _check_endpoints((i, j) for i, j in self.arcs if i != j)


# -- block view of partitions -------------------------------------------------


def partition_from_blocks(blocks: Iterable[Iterable[int]]) -> PartitionDiagram:
    """Build the arc diagram of a set partition given as blocks.

    The blocks must be disjoint, nonempty, and cover [n] where n is the
    largest element.  Arcs join consecutive elements of each block.
    """
    seen: set[int] = set()
    arcs: list[Arc] = []
    for block in blocks:
        elems = sorted(block)
        if not elems:
            raise InvalidDiagramError("empty block")
        for v in elems:
            if v < 1:
                raise InvalidDiagramError(f"vertex {v} out of range")
            if v in seen:
                raise InvalidDiagramError(f"vertex {v} appears in two blocks")
            seen.add(v)
        arcs.extend(zip(elems, elems[1:]))
    n = max(seen, default=0)
    if len(seen) != n:
        missing = sorted(set(range(1, n + 1)) - seen)
        raise InvalidDiagramError(f"blocks do not cover [n]: missing {missing}")
    return PartitionDiagram(n, tuple(arcs))


# -- crossing statistics -------------------------------------------------------


def crossing_number_of_arcs(arcs: Iterable[Arc], shared_endpoint: bool) -> int:
    """Largest m admitting arcs with i_1 < ... < i_m </<= j_1 < ... < j_m.

    With ``shared_endpoint`` the middle comparison is <= (equality only
    realisable as i_m = j_1), which is the braid convention; otherwise
    it is strict, the partition convention.

    Every arc of such a set spans the cut c = i_m, so the maximum is
    found by scanning cuts: among the arcs spanning a cut, a mutually
    crossing set is exactly a subset whose left and right endpoints both
    increase strictly.  Sorted by (i, -j), arcs sharing a left endpoint
    have decreasing right endpoints, so such a subset is exactly a
    strictly increasing run of right endpoints, found by patience
    sorting.  One pass per cut costs O(m^2 log m) for m arcs.
    """
    arcs = sorted(arcs, key=lambda a: (a[0], -a[1]))
    best = 0
    for c in {i for i, _ in arcs}:
        tails: list[int] = []  # tails[h]: least right end of a run of h + 1
        for i, j in arcs:
            if i > c:
                break
            if j > c or (shared_endpoint and j == c):
                h = bisect_left(tails, j)
                if h == len(tails):
                    tails.append(j)
                else:
                    tails[h] = j
        best = max(best, len(tails))
    return best


def has_k_crossing(arcs: Sequence[Arc], k: int, shared_endpoint: bool) -> bool:
    """True when some k of the arcs cross, that is, when
    crossing_number_of_arcs(arcs, shared_endpoint) >= k, for k >= 1.

    The arcs must have distinct starts and come in start order, as the
    arcs of a partition or a braid do in a diagram.  The scan is the
    statistic's, stopped as soon as it can answer: k crossing arcs have
    k distinct starts, so their cut c = i_k is the k-th start or a later
    one, and the first k - 1 cuts are skipped; the scan returns at the
    first patience run of length k.  With distinct starts, start order
    is the (i, -j) order the statistic sorts by.
    """
    if len(arcs) < k:
        return False
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for t in range(k - 1, len(arcs)):
        c = arcs[t][0]
        low = c - 1 if shared_endpoint else c  # an arc (i, j) spans c when j > low
        tails: list[int] = []
        for _, j in arcs[: t + 1]:
            if j > low:
                h = bisect_left(tails, j)
                if h < len(tails):
                    tails[h] = j
                elif h + 1 < k:
                    tails.append(j)
                else:
                    return True
    return False


def partition_crossing_number(p: PartitionDiagram) -> int:
    return crossing_number_of_arcs(p.arcs, shared_endpoint=False)


def braid_crossing_number(b: BraidDiagram) -> int:
    return crossing_number_of_arcs(b.arcs, shared_endpoint=True)


def is_k_noncrossing(d: PartitionDiagram | BraidDiagram, k: int) -> bool:
    """True when the diagram has no k mutually crossing arcs, in its
    class's convention.  Asked by has_k_crossing, which stops at the
    first k crossing arcs; the diagram's sorted arcs are in start order."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if isinstance(d, PartitionDiagram):
        return not has_k_crossing(d.arcs, k, shared_endpoint=False)
    if isinstance(d, BraidDiagram):
        return not has_k_crossing(d.arcs, k, shared_endpoint=True)
    raise TypeError(f"expected a partition or braid diagram, got {type(d).__name__}")


def is_two_regular(p: PartitionDiagram) -> bool:
    """True when no arc joins adjacent vertices (i, i+1)."""
    return all(j != i + 1 for i, j in p.arcs)


# -- text format ----------------------------------------------------------------


def format_diagram(d: ArcDiagram) -> str:
    """Canonical one-line form ``n=<int>; arcs=(i,j)(i,j)...``."""
    body = "".join(f"({i},{j})" for i, j in d.arcs)
    return f"n={d.n}; arcs={body}"


def parse_diagram(text: str) -> tuple[int, tuple[Arc, ...]]:
    """Parse the text format back into (n, arcs); inverse of format_diagram.

    Every integer is written as str() writes an int: ASCII decimal
    digits, with no leading zero unless it is 0.  Only n may carry a
    leading "-" (not on 0), which the diagram check then refuses with
    its own message.  int() alone would also read "_", spaces, signs,
    leading zeros and other scripts' digits, none of which
    format_diagram writes.
    """
    text = text.strip()
    try:
        head, body = text.split("; arcs=", 1)
        digits = head[2:]
        if not (head.startswith("n=") and (_numeral(digits) or (
                digits[:1] == "-" and digits != "-0" and _numeral(digits[1:])))):
            raise ValueError
        n = int(digits)
    except ValueError:
        raise ValueError(f"bad diagram syntax: {_excerpt(text)}") from None
    if not body:
        return n, ()
    if not (body.startswith("(") and body.endswith(")")):
        # quote the end that is wrong
        raise ValueError(f"bad arc list: {_excerpt(body, end=body.startswith('('))}")
    # an accepted item is two numerals, free of parentheses, so splitting
    # at ")(" cuts exactly between arcs
    arcs = []
    for t, item in enumerate(body[1:-1].split(")("), 1):
        i, _, j = item.partition(",")
        try:
            if not (_numeral(i) and _numeral(j)):
                raise ValueError
            arcs.append((int(i), int(j)))
        except ValueError:
            raise ValueError(f"bad arc {t}: {_excerpt(f'({item})')}") from None
    return n, tuple(arcs)


def _numeral(text: str) -> bool:
    """text is str() of an int >= 0: ASCII digits, no leading zero but in "0"."""
    return text.isascii() and text.isdigit() and (text[0] != "0" or text == "0")


#: the most characters of a refused text that its diagnostic quotes
_EXCERPT = 40


def _excerpt(text: str, end: bool = False) -> str:
    """repr(text), cut to its first (end: last) _EXCERPT characters."""
    if len(text) <= _EXCERPT:
        return repr(text)
    return f"...{text[-_EXCERPT:]!r}" if end else f"{text[:_EXCERPT]!r}..."


# -- svg rendering ---------------------------------------------------------------

_SVG_UNIT = 40  # horizontal pixels between adjacent vertices


def diagram_svg(d: ArcDiagram) -> str:
    """Deterministic SVG: vertices on a baseline, arcs as semicircles above,
    loops as small circles sitting on their vertex."""
    margin = _SVG_UNIT
    base_y = 30 + _SVG_UNIT * max((j - i for i, j in d.arcs), default=0) // 2
    width = 2 * margin + _SVG_UNIT * max(d.n - 1, 0)
    height = base_y + 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line x1="{margin}" y1="{base_y}" x2="{width - margin}" y2="{base_y}" '
        'stroke="black" stroke-width="1"/>',
    ]
    x_of = lambda v: margin + _SVG_UNIT * (v - 1)
    for i, j in d.arcs:
        if i == j:
            parts.append(
                f'<circle cx="{x_of(i)}" cy="{base_y - 8}" r="8" '
                'fill="none" stroke="black"/>'
            )
        else:
            r = _SVG_UNIT * (j - i) / 2
            parts.append(
                f'<path d="M {x_of(i)} {base_y} A {r:g} {r:g} 0 0 1 {x_of(j)} {base_y}" '
                'fill="none" stroke="black"/>'
            )
    for v in range(1, d.n + 1):
        parts.append(f'<circle cx="{x_of(v)}" cy="{base_y}" r="2.5" fill="black"/>')
        parts.append(
            f'<text x="{x_of(v)}" y="{base_y + 16}" font-size="11" '
            f'text-anchor="middle">{v}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
