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
for one half-step is stated once, in ``add_square`` and ``remove_square``,
and ``half_step`` asks them.  Every step they accept keeps a shape a
shape, so only the validating scan ``_scan`` calls ``is_shape``, to vet
shapes from outside.

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
``diagram_to_tableau`` reads the shapes off its filling, and the
duality's witness route amends the shapes of a partition tableau.
``step_pairs`` is the one validating entry: it checks every shape and
derives every half-step once, and ``tableau_to_diagram`` reads the pairs
it returns.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import ge
from typing import Sequence

from .diagrams import BraidDiagram, PartitionDiagram

Shape = tuple[int, ...]
HalfStep = tuple[str, int] | None  # ('+', row) adds, ('-', row) removes
StepPair = tuple[HalfStep, HalfStep]  # (odd half-step, even half-step)

PARTITION_STEPS = "partition"
BRAID_STEPS = "braid"


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

    Only the first row where the two differ can carry the step, as an
    add if it gains one square and a remove if it loses one; add_square
    or remove_square decides whether that step is legal.
    """
    if prev == nxt:
        return None
    h = 0
    while h < len(prev) and h < len(nxt) and prev[h] == nxt[h]:
        h += 1
    a = prev[h] if h < len(prev) else 0
    b = nxt[h] if h < len(nxt) else 0
    if b == a + 1 and add_square(prev, h + 1) == nxt:
        return ("+", h + 1)
    if b == a - 1 and remove_square(prev, h + 1) == nxt:
        return ("-", h + 1)
    raise MalformedTableauError(f"shapes {prev} -> {nxt} differ by more than one square")


#: step set -> the legal (odd, even) kinds of a vertex's pair, where a
#: kind is None (do nothing), "+" (add) or "-" (remove)
_LEGAL_KINDS = {
    PARTITION_STEPS: frozenset({(None, None), ("-", None), (None, "+"), ("-", "+")}),
    BRAID_STEPS: frozenset({(None, None), ("+", "-"), (None, "+"), ("-", None)}),
}


def _legal_pair(pair: StepPair, step_set: str) -> bool:
    if step_set not in _LEGAL_KINDS:
        raise ValueError(f"unknown step set {step_set!r}")
    odd, even = pair
    return (odd and odd[0], even and even[0]) in _LEGAL_KINDS[step_set]


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
        object.__setattr__(self, "shapes", tuple(tuple(s) for s in self.shapes))

    @property
    def n(self) -> int:
        return (len(self.shapes) - 1) // 2

    def max_rows(self) -> int:
        return max((len(s) for s in self.shapes), default=0)


def _scan(t: VacillatingTableau) -> tuple[list[str], tuple[StepPair, ...]]:
    """(violations, pairs): every rule violation, and the step pairs the
    scan derived, complete exactly when there is no violation.  One scan
    checks every shape and derives every half-step once."""
    if t.step_set not in _LEGAL_KINDS:
        return [f"unknown step set {t.step_set!r}"], ()
    if len(t.shapes) % 2 == 0 or not t.shapes:
        return [f"length {len(t.shapes)} is not 2n+1"], ()
    for pos, s in enumerate(t.shapes):
        if not is_shape(s):
            return [f"entry {pos} is not a shape: {s}"], ()
    out: list[str] = []
    if t.shapes[0] != ():
        out.append("first shape is not empty")
    if t.shapes[-1] != ():
        out.append("last shape is not empty")
    pairs: list[StepPair] = []
    for i in range(1, t.n + 1):
        try:
            pair = (
                half_step(t.shapes[2 * i - 2], t.shapes[2 * i - 1]),
                half_step(t.shapes[2 * i - 1], t.shapes[2 * i]),
            )
        except MalformedTableauError as err:
            out.append(f"vertex {i}: {err}")
            continue
        if not _legal_pair(pair, t.step_set):
            out.append(f"vertex {i}: pair {pair} not allowed for {t.step_set} steps")
        pairs.append(pair)
    return out, tuple(pairs)


def validate_tableau(t: VacillatingTableau) -> bool:
    return not _scan(t)[0]


def step_pairs(t: VacillatingTableau) -> tuple[StepPair, ...]:
    """The n half-step pairs of a valid tableau, or raise with every
    violation."""
    problems, pairs = _scan(t)
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
    r = 0
    while r < len(filling):
        cells = filling[r]
        pos = bisect_right(cells, value)
        if pos == len(cells):
            cells.append(value)
            return r + 1
        cells[pos], value = value, cells[pos]
        r += 1
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
    for i, (odd, even) in enumerate(step_pairs(t), 1):
        for half in (odd, even):
            if half is None:
                continue
            op, row = half
            if op == "+":
                _place(filling, i, row)
            else:
                arcs.append((_reverse_bump(filling, row), i))
    if filling:
        raise MalformedTableauError("valid tableaux drain the filling")
    cls = PartitionDiagram if t.step_set == PARTITION_STEPS else BraidDiagram
    return cls(t.n, tuple(arcs))


def diagram_to_tableau(d: PartitionDiagram | BraidDiagram) -> VacillatingTableau:
    """Right-to-left scan building the unique tableau of a diagram.

    Exact inverse of tableau_to_diagram; the maximal row count of the
    result equals the crossing number of the diagram.
    """
    if isinstance(d, PartitionDiagram):
        step_set = PARTITION_STEPS
    elif isinstance(d, BraidDiagram):
        step_set = BRAID_STEPS
    else:
        raise TypeError(f"expected a partition or braid diagram, got {type(d).__name__}")

    partner = {j: i for i, j in d.arcs}  # vertex -> entry its ejection released
    placers = {i for i, _ in d.arcs}  # vertices that placed themselves
    # each legal pair by what its vertex does, (places, ejects), even
    # half first: the scan undoes a placement by deleting the entry i and
    # an ejection by inserting its partner
    undo = {("+" in kinds, "-" in kinds): kinds[::-1] for kinds in _LEGAL_KINDS[step_set]}

    filling: list[list[int]] = []
    rev: list[Shape] = [()]
    for i in range(d.n, 0, -1):
        for kind in undo[i in placers, i in partner]:
            if kind == "+":
                _extract_max(filling, i)
            elif kind == "-":
                _insert(filling, partner[i])
            rev.append(tuple(map(len, filling)))
    if filling:
        raise MalformedTableauError("the right-to-left scan left entries in the filling")
    return VacillatingTableau(tuple(reversed(rev)), step_set)
