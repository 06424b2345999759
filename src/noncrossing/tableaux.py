"""Vacillating tableaux and their correspondence with arc diagrams.

A vacillating tableau of length 2n is a sequence of Young-diagram shapes
empty = s^0, s^1, ..., s^2n = empty in which each vertex i contributes
the two half-steps (s^{2i-2} -> s^{2i-1} -> s^{2i}).  Two step
disciplines are used:

* partition steps: the odd half may remove a square or do nothing, the
  even half may add a square or do nothing;
* braid steps: the legal pairs are (do nothing, do nothing),
  (add, remove), (do nothing, add) and (remove, do nothing).

Both are stated once, as the table ``_LEGAL_KINDS`` of legal (odd, even)
kinds, which validation and the right-to-left scan both read.  The rule
for one half-step is that of ``add_square`` and ``remove_square``: an
add is legal when the row above is longer, a remove when the row below
is shorter.  ``half_step`` decodes a step from the rows alone.  Only
the first row where two shapes differ can carry it, by one square, and
every row after that one must be unchanged; so it reads that row, its
neighbour and the tails after it, and builds no trial shape.  A step it
refuses goes through ``add_square`` or ``remove_square``, which raise
the message, or else the two shapes differ by more than one square.
This is the one-pass check and rule-by-rule report of ``diagrams``.
Every legal step keeps a shape a shape, so a sequence that starts at
() and moves only by legal half-steps holds only shapes.  The
validating scan ``_scan`` therefore calls ``is_shape`` only on a
tableau it has already found invalid, to name its first entry that is
not a shape.

The translation to diagrams scans vertices left to right while
maintaining a filling (a partial standard Young tableau whose entries
are the currently open origins):

* an "add at row h" half-step at vertex i places the entry i, the
  current maximum, at the end of row h;
* a "remove at row h" half-step reverse-bumps from the corner of row h.
  Walking upward, the carried value replaces the largest smaller entry
  of each row; the value e finally ejected from the top row closes the
  arc (e, i).  Under braid steps a vertex may place i and immediately
  eject it again, which is how loops (i, i) arise.

The inverse direction scans the diagram right to left.  Each vertex
places iff it starts an arc and ejects iff it ends one, and under either
discipline exactly one legal pair does just that; the scan undoes its
even half-step, then its odd one.  An ejection is undone by ordinary
row insertion of the arc partner (bump the smallest larger entry
downward), a placement by deleting the entry i, which at that moment is
maximal and therefore sits at a removable corner.  Because insertion and
reverse bumping are mutually inverse, the two scans are exact inverses,
and the maximal number of rows used equals the diagram's crossing number.
So the row bound is ``max_rows()``: a diagram is k-noncrossing iff
``max_rows() < k`` for its tableau.

Every tableau is built as a shape sequence, never from step pairs:
``diagram_to_tableau`` keeps the row lengths of its filling, moved by
the row that each insertion or extraction reports, and the duality's
witness route amends the shapes of a partition tableau.
A tableau is scanned at most once: its first scan derives every
half-step and every violation, and the tableau keeps the result.
``validate_tableau``, ``step_pairs`` and ``tableau_to_diagram`` all read
that one result.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import ge
from typing import Sequence

from .diagrams import BraidDiagram, PartitionDiagram

Shape = tuple[int, ...]
HalfStep = tuple[str, int] | None  # ('+', row) adds, ('-', row) removes
StepPair = tuple[HalfStep, HalfStep]  # (odd half-step, even half-step)

PARTITION_STEPS = "partition"
BRAID_STEPS = "braid"
#: step set -> the class of the diagrams its tableaux encode
_DIAGRAM_CLASS = {PARTITION_STEPS: PartitionDiagram, BRAID_STEPS: BraidDiagram}
_STEP_SET = {cls: step_set for step_set, cls in _DIAGRAM_CLASS.items()}


class MalformedTableauError(ValueError):
    """The shape sequence breaks the vacillating tableau rules."""


# -- shapes ---------------------------------------------------------------------


def is_shape(rows: Sequence[int]) -> bool:
    """Weakly decreasing rows, the last at least 1, so that every row is."""
    return not rows or (rows[-1] >= 1 and all(map(ge, rows, rows[1:])))


def add_square(shape: Shape, row: int) -> Shape:
    """Shape with one more square in the given 1-indexed row: legal iff
    row is 1 or row - 1 is longer than row, a row past the end counting
    as 0."""
    if row < 1 or row > len(shape) + 1:
        raise MalformedTableauError(f"cannot add at row {row} of {shape}")
    length = shape[row - 1] if row <= len(shape) else 0
    if row > 1 and shape[row - 2] <= length:
        raise MalformedTableauError(f"adding at row {row} of {shape} is illegal")
    return shape[:row - 1] + (length + 1,) + shape[row:]


def remove_square(shape: Shape, row: int) -> Shape:
    """Shape with one square fewer in the given 1-indexed row: legal iff
    row is longer than row + 1, a row past the end counting as 0."""
    if row < 1 or row > len(shape):
        raise MalformedTableauError(f"cannot remove at row {row} of {shape}")
    length = shape[row - 1]
    if row < len(shape) and shape[row] >= length:
        raise MalformedTableauError(f"removing at row {row} of {shape} is illegal")
    # a row that empties is the last one, since the next row is shorter
    return shape[:row - 1] + ((length - 1,) if length > 1 else ()) + shape[row:]


def half_step(prev: Shape, nxt: Shape) -> HalfStep:
    """The half-step turning shape prev into nxt, or raise if it is
    illegal or the two differ by more than one square.

    Only the first row h where the two differ can carry the step, as an
    add if it gains one square and a remove if it loses one.  An add is
    legal when the row above h is longer than h, a remove when the row
    below h is shorter, and either is the step when every row after h
    is unchanged; a remove that empties h drops it.  Only a refused step
    goes through add_square or remove_square, which raise its message.
    """
    if prev == nxt:
        return None
    rows, rows_next = len(prev), len(nxt)
    h = 0
    while h < rows and h < rows_next and prev[h] == nxt[h]:
        h += 1
    a = prev[h] if h < rows else 0
    b = nxt[h] if h < rows_next else 0
    if b == a + 1:
        if (h == 0 or prev[h - 1] > a) and h < rows_next and nxt[h + 1:] == prev[h + 1:]:
            return ("+", h + 1)
        add_square(prev, h + 1)
    elif b == a - 1:
        kept = h + 1 if a > 1 else h  # where nxt holds the rows after h
        if h < rows and (h + 1 == rows or prev[h + 1] < a) and nxt[kept:] == prev[h + 1:]:
            return ("-", h + 1)
        remove_square(prev, h + 1)
    raise MalformedTableauError(f"shapes {prev} -> {nxt} differ by more than one square")


#: step set -> the legal (odd, even) kinds of a vertex's pair, where a
#: kind is None (do nothing), "+" (add) or "-" (remove)
_LEGAL_KINDS = {
    PARTITION_STEPS: frozenset({(None, None), ("-", None), (None, "+"), ("-", "+")}),
    BRAID_STEPS: frozenset({(None, None), ("+", "-"), (None, "+"), ("-", None)}),
}


# -- tableaux ---------------------------------------------------------------------


@dataclass(frozen=True)
class VacillatingTableau:
    """Shape sequence of length 2n+1 with a declared step discipline.

    Construction does not validate; see validate_tableau.  The row bound
    is max_rows(): the diagram of a valid tableau is k-noncrossing iff
    max_rows() < k.
    """

    shapes: tuple[Shape, ...]
    step_set: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "shapes", tuple(map(tuple, self.shapes)))

    @cached_property
    def _scanned(self) -> tuple[tuple[str, ...], tuple[StepPair, ...]]:
        """The result of ``_scan``, kept on the tableau, which is frozen,
        so that validate_tableau, step_pairs and tableau_to_diagram scan
        it once between them.  Not a field: equality, hash and repr
        ignore it."""
        return _scan(self)

    @property
    def n(self) -> int:
        return (len(self.shapes) - 1) // 2

    def max_rows(self) -> int:
        return max((len(s) for s in self.shapes), default=0)


def _scan(t: VacillatingTableau) -> tuple[tuple[str, ...], tuple[StepPair, ...]]:
    """(violations, pairs): every rule violation, and the step pairs the
    scan derived, complete exactly when there is no violation.

    A sequence that starts at () and moves only by legal half-steps holds
    only shapes, so the scan derives every half-step once, by half_step
    unless the two shapes are equal, and vets no shape on its way.  Only when it has found a violation does it call
    is_shape, entry by entry, and a non-shape entry is then the whole
    report, as if it had been checked first."""
    shapes = t.shapes
    if t.step_set not in _LEGAL_KINDS:
        return (f"unknown step set {t.step_set!r}",), ()
    if len(shapes) % 2 == 0:
        return (f"length {len(shapes)} is not 2n+1",), ()
    out: list[str] = []
    if shapes[0] != ():
        out.append("first shape is not empty")
    if shapes[-1] != ():
        out.append("last shape is not empty")
    legal = _LEGAL_KINDS[t.step_set]
    pairs: list[StepPair] = []
    for i, (prev, mid, nxt) in enumerate(zip(shapes[0::2], shapes[1::2], shapes[2::2]), 1):
        try:
            pair = (
                None if prev == mid else half_step(prev, mid),
                None if mid == nxt else half_step(mid, nxt),
            )
        except MalformedTableauError as err:
            out.append(f"vertex {i}: {err}")
            continue
        odd, even = pair
        if (odd and odd[0], even and even[0]) not in legal:
            out.append(f"vertex {i}: pair {pair} not allowed for {t.step_set} steps")
        pairs.append(pair)
    if out:
        for pos, s in enumerate(shapes):
            if not is_shape(s):
                return (f"entry {pos} is not a shape: {s}",), ()
    return tuple(out), tuple(pairs)


def validate_tableau(t: VacillatingTableau) -> bool:
    return not t._scanned[0]


def step_pairs(t: VacillatingTableau) -> tuple[StepPair, ...]:
    """The n half-step pairs of a valid tableau, or raise with every
    violation."""
    problems, pairs = t._scanned
    if problems:
        raise MalformedTableauError("; ".join(problems))
    return pairs


# -- fillings ---------------------------------------------------------------------
# A filling is a list of rows of distinct integers, strictly increasing
# along rows and down columns; the entries are the open origins.


def _place(filling: list[list[int]], value: int, row: int) -> None:
    # value exceeds every current entry, so the declared corner is the
    # only constraint
    if row == len(filling) + 1:
        filling.append([])
    elif not (1 <= row <= len(filling)):
        raise MalformedTableauError(f"cannot place at row {row}")
    filling[row - 1].append(value)


def _reverse_bump(filling: list[list[int]], row: int) -> int:
    """Remove the corner of the given row and bump upward, returning the
    entry ejected from the top row."""
    if not (1 <= row <= len(filling)) or not filling[row - 1]:
        raise MalformedTableauError(f"no corner at row {row}")
    if row < len(filling) and len(filling[row]) >= len(filling[row - 1]):
        raise MalformedTableauError(f"row {row} has no removable corner")
    value = filling[row - 1].pop()
    if not filling[row - 1]:
        filling.pop(row - 1)
    for r in range(row - 2, -1, -1):
        # rows increase strictly, and columns too, so some entry of the
        # row above is smaller than the carried value
        cells = filling[r]
        pos = bisect_left(cells, value) - 1
        cells[pos], value = value, cells[pos]
    return value


def _insert(filling: list[list[int]], value: int) -> int:
    """Standard row insertion; returns the 1-indexed row of the new cell."""
    for r, cells in enumerate(filling, 1):
        pos = bisect_right(cells, value)
        if pos == len(cells):
            cells.append(value)
            return r
        cells[pos], value = value, cells[pos]
    filling.append([value])
    return len(filling)


def _extract_max(filling: list[list[int]], value: int) -> int:
    """Delete the maximal entry ``value``; returns the row it occupied."""
    for r, cells in enumerate(filling):
        if cells and cells[-1] == value:
            cells.pop()
            if not cells:
                filling.pop(r)
            return r + 1
    raise MalformedTableauError(f"entry {value} is not at a corner")


# -- the correspondence -------------------------------------------------------------


def tableau_to_diagram(t: VacillatingTableau) -> PartitionDiagram | BraidDiagram:
    """Left-to-right scan turning a valid tableau into its diagram."""
    filling: list[list[int]] = []
    arcs: list[tuple[int, int]] = []
    # the half-steps in order, the two of vertex i at positions 2i and 2i + 1
    for pos, half in enumerate(chain.from_iterable(step_pairs(t)), 2):
        if half:
            op, row = half
            if op == "+":
                _place(filling, pos // 2, row)
            else:
                arcs.append((_reverse_bump(filling, row), pos // 2))
    if filling:
        raise MalformedTableauError("valid tableaux drain the filling")
    return _DIAGRAM_CLASS[t.step_set](t.n, tuple(arcs))


#: step set -> each legal pair by what its vertex does, (places, ejects),
#: even half first: the right-to-left scan undoes a placement by deleting
#: the entry i and an ejection by inserting its partner
_UNDO = {
    step_set: {("+" in kinds, "-" in kinds): kinds[::-1] for kinds in legal}
    for step_set, legal in _LEGAL_KINDS.items()
}


def diagram_to_tableau(d: PartitionDiagram | BraidDiagram) -> VacillatingTableau:
    """Right-to-left scan building the unique tableau of a diagram.

    Exact inverse of tableau_to_diagram; the maximal row count of the
    result equals the crossing number of the diagram.
    """
    step_set = _STEP_SET.get(type(d))
    if step_set is None:
        raise TypeError(f"expected a partition or braid diagram, got {type(d).__name__}")

    partner = {j: i for i, j in d.arcs}  # vertex -> entry its ejection released
    placers = {i for i, _ in d.arcs}  # vertices that placed themselves
    undo = _UNDO[step_set]

    filling: list[list[int]] = []
    rows: list[int] = []  # the row lengths of filling
    rev: list[Shape] = [()]
    for i in range(d.n, 0, -1):
        for kind in undo[i in placers, i in partner]:
            if kind == "+":
                r = _extract_max(filling, i) - 1
                rows[r] -= 1
                if not rows[r]:
                    rows.pop()  # an emptied row is the last one
            elif kind == "-":
                r = _insert(filling, partner[i]) - 1
                if r < len(rows):
                    rows[r] += 1
                else:
                    rows.append(1)
            rev.append(tuple(rows) if kind else rev[-1])
    if filling:
        raise MalformedTableauError("the right-to-left scan left entries in the filling")
    return VacillatingTableau(tuple(reversed(rev)), step_set)
