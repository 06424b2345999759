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
two or more.  Each class states its convention once, as its class
attribute ``shared_endpoint``, and every crossing test reads it there;
``crossing_number(d)`` is the statistic of either kind of diagram.

Every crossing question about a diagram or an arc list is one
left-to-right insertion sweep (``_most_rows``): it keeps the
row-insertion filling of the open arcs' right ends as one list of rows,
drops the rows that the passed ends empty, which are always the bottom
ones, and its most rows are the statistic, as the most rows of the
diagram's vacillating tableau are.  ``crossing_number`` and
``is_k_noncrossing`` sweep the arcs a diagram stores, which are already
in the sweep's order, and the latter stops at k rows; only
``crossing_number_of_arcs`` sorts, for raw arc lists.  Only the
brute-force words of ``enumeration``, of at most 12 vertices, ask
``has_k_crossing`` instead, a patience scan of each cut that stops at
the first k crossing arcs; on those words it is the faster of the two.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def isolated(n: int, arcs: Iterable[Arc]) -> list[int]:
    """The vertices of [n] that no arc touches, in order."""
    touched = {v for arc in arcs for v in arc}
    return [v for v in range(1, n + 1) if v not in touched]


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
    #: arcs cross strictly: i_m < j_1
    shared_endpoint = False

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

    #: arcs also cross at a shared vertex: i_m <= j_1
    shared_endpoint = True

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


def _most_rows(arcs: Iterable[Arc], shared_endpoint: bool, stop: int) -> int:
    """The most mutually crossing arcs, by one left-to-right insertion
    sweep; with stop = k >= 2 it returns k as soon as k arcs cross, and
    with stop = 0 it reads every arc.

    The arcs come in (i, -j) order.  Every arc of a crossing set spans
    the cut i_m of its last start, and among the arcs spanning a cut a
    crossing set is a run whose right ends increase strictly, that is,
    a strictly decreasing run of their -j.  The sweep keeps the
    row-insertion filling of the -j of the open arcs, one list of rows,
    whose number is the longest such run (Schensted).  Before arc (i, j)
    it cuts from every row the ends the cut at i has passed,
    -j >= bump - i, where bump is 1 with shared endpoints and 0
    otherwise.  Those are the largest entries, and cutting the largest
    entries of a filling leaves the filling of the rest, so what is
    left is the filling of the arcs still open.  The filling's columns
    increase strictly downward, so a row that empties empties every row
    below it: the emptied rows are a suffix, dropped from the bottom.
    An arc whose own end would be cut (a loop in the strict convention)
    is skipped.  This is the mirror image of the right-to-left scan of
    tableaux, and its most rows are the most rows of the diagram's
    vacillating tableau.  Each arc costs one cut and one insertion, each
    at most a bisection per row: O(m r log m) for m arcs and r rows,
    where rescanning each cut cost O(m^2 log m).
    """
    bump = int(shared_endpoint)
    rows: list[list[int]] = []
    most = 0
    for i, j in arcs:
        low = bump - i
        for row in rows:
            if row[-1] >= low:
                del row[bisect_left(row, low):]
        while rows and not rows[-1]:  # the emptied rows are the bottom ones
            rows.pop()
        value = -j
        if value >= low:
            continue
        for row in rows:  # row insertion, bumping the least larger entry down
            pos = bisect_right(row, value)
            if pos == len(row):
                row.append(value)
                break
            row[pos], value = value, row[pos]
        else:
            rows.append([value])
            if len(rows) > most:
                most = len(rows)
                if most == stop:
                    break
    return most


def crossing_number_of_arcs(arcs: Iterable[Arc], shared_endpoint: bool) -> int:
    """Largest m admitting arcs with i_1 < ... < i_m </<= j_1 < ... < j_m.

    With ``shared_endpoint`` the middle comparison is <= (equality only
    realisable as i_m = j_1), which is the braid convention; otherwise
    it is strict, the partition convention.  This is the one crossing
    entry that sorts, for raw arc lists, which may repeat starts and
    come in any order: it sorts them by (i, -j) and sweeps them once by
    _most_rows.
    """
    return _most_rows(sorted(arcs, key=lambda a: (a[0], -a[1])), shared_endpoint, 0)


def has_k_crossing(arcs: Sequence[Arc], k: int, shared_endpoint: bool) -> bool:
    """True when some k of the arcs cross, that is, when
    crossing_number_of_arcs(arcs, shared_endpoint) >= k, for k >= 1.

    The arcs must have distinct starts and come in start order, as the
    arcs of a partition or a braid do in a diagram; with distinct starts,
    start order is the (i, -j) order.  Every arc of a crossing set spans
    the cut c = i_m of its last start, and among the arcs spanning a
    cut, a crossing set is a run of strictly increasing right ends,
    found by patience sorting.  The scan reads the arcs up to each cut
    from the k-th on afresh and stops at the first run of length k.

    This stopping scan serves the brute-force words, of at most 12
    vertices, on which it is faster than the sweep of _most_rows: with
    the sweep in its place, the enumerate benchmark's wall_s read
    0.0454 -> 0.0583 and 0.0449 -> 0.0576 s (+28 %, two 30 s runs on a
    2-core VM, CPython 3.11).
    """
    if len(arcs) < k:
        return False
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for t in range(k - 1, len(arcs)):
        c = arcs[t][0]
        low = c - 1 if shared_endpoint else c  # an arc (i, j) spans c when j > low
        tails: list[int] = []  # tails[h]: least right end of a run of h + 1
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


def _require_diagram(d: object) -> None:
    """Refuse anything but a partition or a braid diagram: only those
    two classes state a crossing convention."""
    if not isinstance(d, (PartitionDiagram, BraidDiagram)):
        raise TypeError(f"expected a partition or braid diagram, got {type(d).__name__}")


def crossing_number(d: PartitionDiagram | BraidDiagram) -> int:
    """The most mutually crossing arcs of d, in its class's convention:
    one sweep of _most_rows over the stored arcs.  A diagram stores its
    arcs sorted, and its starts are distinct, so that order is the
    sweep's (i, -j) order and nothing is sorted again."""
    _require_diagram(d)
    return _most_rows(d.arcs, d.shared_endpoint, 0)


def is_k_noncrossing(d: PartitionDiagram | BraidDiagram, k: int) -> bool:
    """True when the diagram has no k mutually crossing arcs, in its
    class's convention: the sweep of _most_rows over the stored arcs,
    as in crossing_number, stops at the first k crossing arcs."""
    require_k(k)
    _require_diagram(d)
    return _most_rows(d.arcs, d.shared_endpoint, k) < k


def require_k(k: int) -> None:
    """Refuse k < 2: the k-noncrossing classes start at k = 2."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")


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
