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
and a removal one bisection per row above it.  This fill, ``_fill``,
checks every pair it is handed, each in O(1): its kinds against
``_LEGAL_KINDS``, each half-step against the lengths of its row and
the neighbouring row of the filling, which has the shape of the tableau
at every point (the rule of ``add_square`` and ``remove_square``), and
at the end that the filling drains.  A refusal names the vertex.  So a
placement lands on an addable corner and a removal starts at a
removable one even when the pairs come from no tableau, as on the
duality's witness route.

The inverse direction, ``_half_steps``, scans the diagram right to
left, one half-step at a time, and returns the half-steps themselves, in
the form of ``step_pairs``.  Each vertex places iff it starts an arc and
ejects iff it ends one, and under either discipline exactly one legal
pair does just that: the add falls on the even half and the remove on
the odd one, except for the braid pair (add, remove).  One pass over the
arcs writes, for each half-step, what undoing it takes.  An ejection is
undone by ordinary row insertion of the arc partner (bump the smallest
larger entry downward), a placement by deleting the entry i, which at
that moment is maximal and therefore ends its row; the row that either
ends in is the row of the half-step.  Because insertion and reverse
bumping are mutually inverse, the scan and the fill are exact inverses,
and the maximal number of rows used equals the diagram's crossing
number.  So the row bound is ``max_rows()``: a diagram is k-noncrossing
iff ``max_rows() < k`` for its tableau.

``diagram_to_tableau`` builds its shapes from the scan's half-steps: a
half-step that does nothing repeats the shape before it, and any other
moves one row length and builds one shape.  The duality's witness route
re-brackets the same half-steps and fills them, and builds no tableau.
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
    only shapes, so the scan derives every half-step once, by half_step,
    and vets no shape on its way.  Only when it has found a violation
    does it call is_shape, entry by entry, and a non-shape entry is then
    the whole report, as if it had been checked first."""
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
            odd = half_step(prev, mid)
            even = half_step(mid, nxt)
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


def _half_steps(d: PartitionDiagram | BraidDiagram) -> list[HalfStep]:
    """The 2n half-steps of d's tableau, half-step h at index h - 1, by
    the one right-to-left scan; each is None, ("+", row) or ("-", row),
    as in step_pairs."""
    _require_diagram(d)
    # half-step 2i - 1 is vertex i's odd half and 2i its even one.  A
    # vertex adds on its even half and removes on its odd one, except a
    # braid vertex that does both, whose pair is (add, remove).  The scan
    # undoes the add of vertex i by deleting i and the remove of an arc
    # (i, j) by inserting i.  steps[h - 1] first holds what undoing
    # half-step h takes, -i, i or None for nothing, and the scan
    # overwrites it with the half-step once it has undone it.
    both = ({j for _, j in d.arcs}.intersection(i for i, _ in d.arcs)
            if isinstance(d, BraidDiagram) else ())
    steps: list[HalfStep | int] = [None] * (2 * d.n)
    for i, j in d.arcs:
        steps[2 * i - 1 - (i in both)] = -i
        steps[2 * j - 2 + (j in both)] = i
    filling: list[list[int]] = []
    for slot in range(2 * d.n - 1, -1, -1):
        value = steps[slot]
        if value is None:
            continue
        if value > 0:  # row insertion, bumping the smallest larger entry down
            for row, cells in enumerate(filling, 1):
                pos = bisect_right(cells, value)
                if pos == len(cells):
                    cells.append(value)
                    break
                cells[pos], value = value, cells[pos]
            else:
                filling.append([value])
                row = len(filling)
            steps[slot] = ("-", row)  # the half-step took that square away
        else:  # -value is the largest entry, so it ends its row
            for row, cells in enumerate(filling, 1):
                if cells[-1] == -value:
                    cells.pop()
                    if not cells:  # an emptied row is the last one
                        filling.pop()
                    break
            else:
                raise MalformedTableauError(f"entry {-value} is not at a corner")
            steps[slot] = ("+", row)
    if filling:
        raise MalformedTableauError("the right-to-left scan left entries in the filling")
    return steps


def _fill(n: int, pairs: Sequence[StepPair], step_set: str) -> PartitionDiagram | BraidDiagram:
    """Left-to-right fill turning n step pairs into their diagram, or
    raise naming the first vertex whose pair is not legal for step_set,
    whose half-step is illegal on the filling's rows, or after which the
    filling does not drain.  Each check is O(1): a kind lookup, or the
    lengths of the step's row and its neighbour, by the rule of
    add_square and remove_square."""
    legal = _LEGAL_KINDS[step_set]
    filling: list[list[int]] = []
    arcs: list[tuple[int, int]] = []
    for i, pair in enumerate(pairs, 1):
        odd, even = pair
        if (odd and odd[0], even and even[0]) not in legal:
            raise MalformedTableauError(f"vertex {i}: pair {pair} not allowed for {step_set} steps")
        for half in pair:
            if half is None:
                continue
            op, row = half
            rows = len(filling)
            # i exceeds every entry, so a placement ends its row
            if op == "+" and row == rows + 1:
                filling.append([i])
            elif op == "+" and 0 < row <= rows and (
                    row == 1 or len(filling[row - 2]) > len(filling[row - 1])):
                filling[row - 1].append(i)
            elif op == "-" and 0 < row <= rows and (
                    row == rows or len(filling[row]) < len(filling[row - 1])):
                # take the corner of the row and bump upward
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
            else:
                doing = "adding" if op == "+" else "removing"
                shape = tuple(map(len, filling))
                raise MalformedTableauError(f"vertex {i}: {doing} at row {row} of {shape} is illegal")
    if filling:
        raise MalformedTableauError(f"vertex {n}: the filling does not drain")
    return _DIAGRAM_CLASS[step_set](n, tuple(arcs))


def tableau_to_diagram(t: VacillatingTableau) -> PartitionDiagram | BraidDiagram:
    """Left-to-right fill turning a valid tableau into its diagram: the
    one fill, _fill, of the pairs the tableau's scan derived, which
    checks each half-step again on the filling's rows, in O(1)."""
    return _fill(t.n, step_pairs(t), t.step_set)


def diagram_to_tableau(d: PartitionDiagram | BraidDiagram) -> VacillatingTableau:
    """The unique tableau of a diagram: its shapes, built from the
    half-steps of the right-to-left scan.

    Exact inverse of tableau_to_diagram; the maximal row count of the
    result equals the crossing number of the diagram.  It takes what
    diagrams.crossing_number takes, subclasses of the two diagram types
    included, and raises the same TypeError on anything else.
    """
    rows: list[int] = []  # the row lengths after each half-step
    shape: Shape = ()
    shapes = [shape]
    for step in _half_steps(d):
        if step is not None:
            op, row = step
            if op == "+":
                if row > len(rows):
                    rows.append(1)
                else:
                    rows[row - 1] += 1
            elif rows[row - 1] > 1:
                rows[row - 1] -= 1
            else:  # an emptied row is the last one
                rows.pop()
            shape = tuple(rows)
        shapes.append(shape)
    return VacillatingTableau(tuple(shapes),
                              BRAID_STEPS if isinstance(d, BraidDiagram) else PARTITION_STEPS)
