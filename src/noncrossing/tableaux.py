"""Vacillating tableaux and their correspondence with arc diagrams.

A vacillating tableau of length 2n is a sequence of Young-diagram shapes
empty = s^0, s^1, ..., s^2n = empty in which each vertex i contributes
the two half-steps (s^{2i-2} -> s^{2i-1} -> s^{2i}).  Two step
disciplines are used:

* partition steps: the odd half may remove a square or do nothing, the
  even half may add a square or do nothing;
* braid steps: the legal pairs are (do nothing, do nothing),
  (add, remove), (do nothing, add) and (remove, do nothing).

Validation reads them as the table ``_LEGAL_KINDS`` of legal (odd,
even) kinds, one lookup per vertex.  The rule for one half-step is that
of ``add_square`` and ``remove_square``: an add is legal when the row
above is longer, a remove when the row below is shorter.  ``half_step``
decodes a step from the rows alone.  Only the first row where two shapes
differ can carry it, by one square, and every row after that one must
be unchanged; so it reads that row, its neighbour and the tails after
it, and builds no trial shape.  A step it refuses goes through
``add_square`` or ``remove_square``, which raise the message, or else
the two shapes differ by more than one square.  This is the one-pass
check and rule-by-rule report of ``diagrams``.  Every legal step keeps
a shape a shape, so a sequence that starts at () and moves only by
legal half-steps holds only shapes.  The validating scan ``_scan``
therefore walks the shapes once, calls ``half_step`` only where two
neighbours differ, and calls ``is_shape`` only on a tableau it has
already found invalid, to name its first entry that is not a shape.

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

A half-step that does nothing costs nothing, a placement one append,
and a removal one bisection per row above it.  Neither checks its row:
the filling has the shape of the tableau at every point, and the scan
behind ``step_pairs`` has already proved each half-step legal on that
shape, so a placement lands on an addable corner and a removal starts
at a removable one.

The inverse direction scans the diagram right to left, one half-step at
a time.  Each vertex places iff it starts an arc and ejects iff it ends
one, and under either discipline exactly one legal pair does just that:
the add falls on the even half and the remove on the odd one, except
for the braid pair (add, remove).  One pass over the arcs writes, for
each half-step, what undoing it takes.  An ejection is undone by
ordinary row insertion of the arc partner (bump the smallest larger
entry downward), a placement by deleting the entry i, which at that
moment is maximal and therefore ends its row.  A half-step that does
nothing repeats the shape before it; any other moves one row length
and builds one shape.  Because insertion and reverse bumping are
mutually inverse, the two scans are exact inverses, and the maximal
number of rows used equals the diagram's crossing number.  So the row
bound is ``max_rows()``: a diagram is k-noncrossing iff
``max_rows() < k`` for its tableau.

Every tableau is built as a shape sequence, never from step pairs:
``diagram_to_tableau`` keeps the row lengths of its filling, moved by
the row that each insertion or deletion ends in, and the duality's
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
from operator import ge
from typing import Sequence

from .diagrams import BraidDiagram, PartitionDiagram, _require_diagram

Shape = tuple[int, ...]
HalfStep = tuple[str, int] | None  # ('+', row) adds, ('-', row) removes
StepPair = tuple[HalfStep, HalfStep]  # (odd half-step, even half-step)

PARTITION_STEPS = "partition"
BRAID_STEPS = "braid"
#: step set -> the class of the diagrams its tableaux encode
_DIAGRAM_CLASS = {PARTITION_STEPS: PartitionDiagram, BRAID_STEPS: BraidDiagram}


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
    unless the two shapes are equal, and vets no shape on its way.  Only
    when it has found a violation does it call is_shape, entry by entry,
    and a non-shape entry is then the whole report, as if it had been
    checked first."""
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
    rest = iter(shapes)
    prev = next(rest)
    for i, (mid, nxt) in enumerate(zip(rest, rest), 1):
        try:
            odd = None if prev == mid else half_step(prev, mid)
            even = None if mid == nxt else half_step(mid, nxt)
        except MalformedTableauError as err:
            out.append(f"vertex {i}: {err}")
        else:
            if (odd and odd[0], even and even[0]) not in legal:
                out.append(f"vertex {i}: pair {(odd, even)} not allowed for {t.step_set} steps")
            pairs.append((odd, even))
        prev = nxt
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


# -- the correspondence -------------------------------------------------------------
# A filling is a list of rows of distinct integers, strictly increasing
# along rows and down columns; the entries are the open origins.


def tableau_to_diagram(t: VacillatingTableau) -> PartitionDiagram | BraidDiagram:
    """Left-to-right scan turning a valid tableau into its diagram.  It
    checks no row: the scan behind step_pairs has proved every half-step
    legal on the shape the filling has."""
    filling: list[list[int]] = []
    arcs: list[tuple[int, int]] = []
    for i, pair in enumerate(step_pairs(t), 1):
        for half in pair:
            if half is None:
                continue
            op, row = half
            if op == "+":  # i exceeds every entry, so it ends its row
                if row > len(filling):
                    filling.append([i])
                else:
                    filling[row - 1].append(i)
            else:  # take the corner of the row and bump upward
                cells = filling[row - 1]
                value = cells.pop()
                if not cells:  # an emptied row is the last one
                    filling.pop()
                for r in range(row - 2, -1, -1):
                    # the carried value replaces the largest smaller
                    # entry, which exists as columns increase strictly
                    cells = filling[r]
                    pos = bisect_left(cells, value) - 1
                    cells[pos], value = value, cells[pos]
                arcs.append((value, i))
    if filling:
        raise MalformedTableauError("valid tableaux drain the filling")
    return _DIAGRAM_CLASS[t.step_set](t.n, tuple(arcs))


def diagram_to_tableau(d: PartitionDiagram | BraidDiagram) -> VacillatingTableau:
    """Right-to-left scan building the unique tableau of a diagram.

    Exact inverse of tableau_to_diagram; the maximal row count of the
    result equals the crossing number of the diagram.  It takes what
    diagrams.crossing_number takes, subclasses of the two diagram types
    included, and raises the same TypeError on anything else.
    """
    _require_diagram(d)
    braid = isinstance(d, BraidDiagram)
    # half-step 2i - 1 is vertex i's odd half and 2i its even one.  A
    # vertex adds on its even half and removes on its odd one, except a
    # braid vertex that does both, whose pair is (add, remove).  The scan
    # undoes the add of vertex i by deleting i and the remove of an arc
    # (i, j) by inserting i: undo[h] is -i, i, or 0 for doing nothing.
    both = {j for _, j in d.arcs}.intersection(i for i, _ in d.arcs) if braid else ()
    undo = [0] * (2 * d.n + 1)
    for i, j in d.arcs:
        undo[2 * i - (i in both)] = -i
        undo[2 * j - 1 + (j in both)] = i
    filling: list[list[int]] = []
    rows: list[int] = []  # the row lengths of filling
    shapes: list[Shape] = [()] * (2 * d.n + 1)
    shape: Shape = ()
    for h in range(2 * d.n, 0, -1):
        value = undo[h]
        if value > 0:  # row insertion, bumping the smallest larger entry down
            for r, cells in enumerate(filling):
                pos = bisect_right(cells, value)
                if pos == len(cells):
                    cells.append(value)
                    rows[r] += 1
                    break
                cells[pos], value = value, cells[pos]
            else:
                filling.append([value])
                rows.append(1)
            shape = tuple(rows)
        elif value:  # -value is the largest entry, so it ends its row
            for r, cells in enumerate(filling):
                if cells[-1] == -value:
                    cells.pop()
                    if not cells:  # an emptied row is the last one
                        filling.pop()
                        rows.pop()
                    else:
                        rows[r] -= 1
                    break
            else:
                raise MalformedTableauError(f"entry {-value} is not at a corner")
            shape = tuple(rows)
        shapes[h - 1] = shape
    if filling:
        raise MalformedTableauError("the right-to-left scan left entries in the filling")
    return VacillatingTableau(tuple(shapes), BRAID_STEPS if braid else PARTITION_STEPS)
