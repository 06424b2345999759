"""Vacillating tableaux: shapes, validation, and the diagram bijection."""

import random
import re
from itertools import chain, product

import pytest

from conftest import braids_over, partitions_of
from noncrossing import tableaux
from noncrossing.diagrams import (
    ArcDiagram,
    BraidDiagram,
    PartitionDiagram,
    crossing_number,
    is_k_noncrossing,
    isolated,
)
from noncrossing.enumeration import bell_number
from noncrossing.tableaux import (
    BRAID_STEPS,
    PARTITION_STEPS,
    MalformedTableauError,
    VacillatingTableau,
    add_square,
    diagram_to_tableau,
    half_step,
    is_shape,
    remove_square,
    step_pairs,
    tableau_to_diagram,
    validate_tableau,
)

P, B = PARTITION_STEPS, BRAID_STEPS


def _addable_rows(shape):
    return [h for h in range(1, len(shape) + 2) if h == 1 or shape[h - 2] > _row(shape, h)]


def _removable_rows(shape):
    return [
        h for h in range(1, len(shape) + 1)
        if _row(shape, h) > _row(shape, h + 1)
    ]


def _row(shape, h):
    return shape[h - 1] if h <= len(shape) else 0


def enumerate_tableaux(n, step_set):
    """Independent depth-first enumeration of all valid pair sequences
    of length n, used as a counting oracle.  Prunes branches whose shape
    cannot drain in the remaining vertices (each vertex removes at most
    one net square)."""

    def pairs_from(shape):
        if step_set == P:
            for odd in [None] + [("-", h) for h in _removable_rows(shape)]:
                mid = remove_square(shape, odd[1]) if odd else shape
                for even in [None] + [("+", h) for h in _addable_rows(mid)]:
                    yield odd, even
        else:
            yield None, None
            for h in _addable_rows(shape):
                yield None, ("+", h)
            for h in _removable_rows(shape):
                yield ("-", h), None
            for h in _addable_rows(shape):
                grown = add_square(shape, h)
                for j in _removable_rows(grown):
                    yield ("+", h), ("-", j)

    def walk(shape, left, prefix):
        if sum(shape) > left:
            return
        if left == 0:
            yield tuple(prefix)
            return
        for pair in pairs_from(shape):
            end = _apply(_apply(shape, pair[0]), pair[1])
            yield from walk(end, left - 1, prefix + [pair])

    yield from walk((), n, [])


def _apply(shape, half):
    if half is None:
        return shape
    if half[0] == "+":
        return add_square(shape, half[1])
    return remove_square(shape, half[1])


def tableau_of_pairs(pairs, step_set):
    """The tableau whose half-steps are the given pairs, built one shape
    at a time by add_square and remove_square."""
    shapes = [()]
    for pair in pairs:
        for half in pair:
            shapes.append(_apply(shapes[-1], half))
    return VacillatingTableau(tuple(shapes), step_set)


def shapes_up_to(size):
    """Every shape with at most ``size`` squares, the empty one included."""

    def parts(total, largest):
        if total == 0:
            yield ()
        for first in range(min(total, largest), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    return [s for total in range(size + 1) for s in parts(total, total)]


def defined_add(shape, row):
    """add_square by its definition: one more square in the row, legal
    iff the result is a shape."""
    if not 1 <= row <= len(shape) + 1:
        raise MalformedTableauError(f"cannot add at row {row} of {shape}")
    rows = list(shape) + [0] * (row - len(shape))
    rows[row - 1] += 1
    if not defined_is_shape(rows):
        raise MalformedTableauError(f"adding at row {row} of {shape} is illegal")
    return tuple(rows)


def defined_remove(shape, row):
    """remove_square by its definition: one square fewer in the row, an
    emptied last row dropped, legal iff the result is a shape."""
    if not 1 <= row <= len(shape):
        raise MalformedTableauError(f"cannot remove at row {row} of {shape}")
    rows = list(shape)
    rows[row - 1] -= 1
    if rows[-1] == 0:
        rows.pop()
    if not defined_is_shape(rows):
        raise MalformedTableauError(f"removing at row {row} of {shape} is illegal")
    return tuple(rows)


def defined_half_step(prev, nxt):
    """half_step by its definition: the add or remove that turns prev
    into nxt."""
    if prev == nxt:
        return None
    for row in range(1, len(prev) + 2):
        for op, sign in ((defined_add, "+"), (defined_remove, "-")):
            try:
                if op(prev, row) == nxt:
                    return (sign, row)
            except MalformedTableauError:
                pass
    raise MalformedTableauError(f"no half-step turns {prev} into {nxt}")


def defined_is_shape(rows):
    """is_shape by its two-condition definition."""
    return all(r >= 1 for r in rows) and all(
        rows[h] >= rows[h + 1] for h in range(len(rows) - 1)
    )


def documented_kinds(step_set):
    """The legal (odd, even) kinds of a step set, read from the module
    docstring's list of the two disciplines."""
    kind = {"do nothing": None, "add": "+", "remove": "-", "add a square": "+",
            "remove a square": "-"}
    [bullet] = re.findall(rf"^\* {step_set} steps: (.*?)(?=^\S|^\* |\Z)",
                          tableaux.__doc__, re.M | re.S)
    bullet = " ".join(bullet.split())
    if step_set == P:
        odd, even = re.fullmatch(
            r"the odd half may (.*) or do nothing, the even half may (.*) or do nothing;",
            bullet,
        ).groups()
        return set(product((None, kind[odd]), (None, kind[even])))
    pairs = re.findall(r"\((do nothing|add|remove), (do nothing|add|remove)\)", bullet)
    return {(kind[a], kind[b]) for a, b in pairs}


def reference_half_step(prev, nxt):
    """defined_half_step on two shapes, and where it finds no step,
    half_step's message, which must refuse the step too."""
    try:
        return defined_half_step(prev, nxt)
    except MalformedTableauError:
        half_step(prev, nxt)
    raise AssertionError(f"half_step accepts {prev} -> {nxt}")


def reference_scan(t):
    """The validating scan as first written: is_shape on every entry,
    then each pair's half-steps by their definition, whose kinds the
    docstring's list of legal pairs decides."""
    if t.step_set not in (P, B):
        return (f"unknown step set {t.step_set!r}",), ()
    if len(t.shapes) % 2 == 0:
        return (f"length {len(t.shapes)} is not 2n+1",), ()
    for pos, s in enumerate(t.shapes):
        if not is_shape(s):
            return (f"entry {pos} is not a shape: {s}",), ()
    out = []
    if t.shapes[0] != ():
        out.append("first shape is not empty")
    if t.shapes[-1] != ():
        out.append("last shape is not empty")
    pairs = []
    legal = documented_kinds(t.step_set)
    for i in range(1, t.n + 1):
        try:
            pair = (reference_half_step(t.shapes[2 * i - 2], t.shapes[2 * i - 1]),
                    reference_half_step(t.shapes[2 * i - 1], t.shapes[2 * i]))
        except MalformedTableauError as err:
            out.append(f"vertex {i}: {err}")
            continue
        if (pair[0] and pair[0][0], pair[1] and pair[1][0]) not in legal:
            out.append(f"vertex {i}: pair {pair} not allowed for {t.step_set} steps")
        pairs.append(pair)
    return tuple(out), tuple(pairs)


def reference_tableau(d):
    """diagram_to_tableau as first written: the right-to-left scan reads
    each shape off its filling.  A vertex undoes, even half first, the
    one legal pair that places iff it starts an arc and ejects iff it
    ends one: a placement by deleting the vertex, the largest entry, from
    the end of its row, an ejection by row-inserting its partner."""
    step_set = P if isinstance(d, PartitionDiagram) else B
    undo = {("+" in kinds, "-" in kinds): kinds[::-1] for kinds in documented_kinds(step_set)}
    partner = {j: i for i, j in d.arcs}
    placers = {i for i, _ in d.arcs}
    filling, rev = [], [()]
    for i in range(d.n, 0, -1):
        for kind in undo[i in placers, i in partner]:
            if kind == "+":
                [cells] = [cells for cells in filling if max(cells) == i]
                cells.remove(i)
            elif kind == "-":
                value = partner[i]
                for cells in filling:
                    larger = [x for x in cells if x > value]
                    if not larger:
                        cells.append(value)
                        break
                    bumped = min(larger)
                    cells[cells.index(bumped)], value = value, bumped
                else:
                    filling.append([value])
            filling = [cells for cells in filling if cells]
            rev.append(tuple(map(len, filling)))
    return VacillatingTableau(tuple(reversed(rev)), step_set)


def random_diagrams(seed, count):
    """Seeded partitions and braids over 20 to 60 vertices: each vertex
    gets one of a random number of block labels, consecutive members of
    a block are joined by an arc, and a braid loops about half of its
    isolated vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(20, 60)
        blocks = rng.randint(1, n)
        last, arcs = {}, []
        for v in range(1, n + 1):
            label = rng.randrange(blocks)
            if label in last:
                arcs.append((last[label], v))
            last[label] = v
        p = PartitionDiagram(n, arcs)
        if rng.random() < 0.5:
            yield p
        else:
            loops = [(v, v) for v in isolated(p.n, p.arcs) if rng.random() < 0.5]
            yield BraidDiagram(n, arcs + loops)


def nudged(rng, shape):
    """shape with one or two rows, a row past the end among them, moved
    by one square up or down, and an emptied last row mostly dropped:
    illegal adds like (1, 1) -> (1, 2), illegal removes like
    (2, 2) -> (1, 2), two-row steps like (2, 1) -> (3, 2), and entries
    with a zero row, besides legal steps."""
    rows = list(shape) + [0]
    for h in rng.sample(range(len(rows)), min(len(rows), rng.choice((1, 2)))):
        rows[h] += rng.choice((1, 1, -1))
    while rows and rows[-1] == 0 and rng.random() < 0.8:
        rows.pop()
    return tuple(rows)


def corruptions(shapes):
    """The kinds of bad step from a shape into its successor that a
    sequence holds."""
    kinds = set()
    for prev, nxt in zip(shapes, shapes[1:]):
        if 0 in nxt:
            kinds.add("zero row")
        if not is_shape(prev) or len(nxt) > len(prev) + 1:
            continue
        width = max(len(prev), len(nxt))
        moves = [b - a for a, b in zip(list(prev) + [0] * (width - len(prev)),
                                       list(nxt) + [0] * (width - len(nxt))) if a != b]
        if len(moves) == 2:
            kinds.add("two rows")
        elif moves in ([1], [-1]) and not is_shape(nxt):
            kinds.add("illegal add" if moves == [1] else "illegal remove")
    return kinds


def climb(shape):
    """The shapes of a valid tableau under either step set that adds the
    squares of shape row by row, one per vertex, and then takes them
    away in reverse: vertices (do nothing, add), then (remove, do
    nothing)."""
    path = [()]
    for h, length in enumerate(shape, 1):
        for _ in range(length):
            path.append(add_square(path[-1], h))
    shapes = [()]
    for s in path[1:]:
        shapes += [shapes[-1], s]
    for s in reversed(path[:-1]):
        shapes += [s, s]
    return shapes


def detours(size):
    """Under both step sets, the climb to each shape of at most size
    squares and back, with one vertex more at its peak that moves one
    row, a row past the end among them, by one square up or down and
    then back: legal steps, illegal adds like (1, 1) -> (1, 2), illegal
    removes like (2, 2) -> (1, 2), and entries with a zero row, whether
    an emptied row is dropped or kept."""
    for shape in shapes_up_to(size):
        shapes = climb(shape)
        peak = len(shapes) // 2
        for h in range(len(shape) + 1):
            for sign in (1, -1):
                rows = list(shape) + [0]
                rows[h] += sign
                kept = tuple(rows)
                for moved in {kept, kept[:-1] if kept[-1] == 0 else kept}:
                    for step_set in (P, B):
                        yield shapes[:peak + 1] + [moved] + shapes[peak:], step_set


def corrupt_shape_sequences(seed, count):
    """Seeded shape sequences under both step sets: valid tableaux, the
    same with entries replaced by other shapes, by non-shapes (zero
    rows, increasing rows, negative entries) or by a nudge of the entry
    before, cut to an even length, or read under the other step set, and
    sequences of random rows."""
    rng = random.Random(seed)
    odd_rows = [(0,), (1, 2), (-1,), (2, 0), (1, -1), (0, 0), (1, 1, 2)]
    for _ in range(count):
        step_set = rng.choice((P, B))
        roll = rng.random()
        if roll < 0.15:
            rows = lambda: tuple(rng.randint(-1, 3) for _ in range(rng.randint(0, 3)))
            yield [rows() for _ in range(rng.randint(1, 9))], step_set
            continue
        d = rng.choice(partitions_of(6) if step_set == P else braids_over(5))
        shapes = list(diagram_to_tableau(d).shapes)
        for _ in range(rng.choice((0, 1, 1, 2))):
            pos = rng.randrange(len(shapes))
            other = rng.random()
            if other < 0.3:
                shapes[pos] = rng.choice(odd_rows)
            elif other < 0.6:
                shapes[pos] = rng.choice(shapes_up_to(4))
            else:
                shapes[pos] = nudged(rng, shapes[pos - 1])
        if roll < 0.25:
            del shapes[rng.randrange(len(shapes))]
        elif roll < 0.4:
            step_set = P if step_set == B else B
        yield shapes, step_set


class TestShapes:
    def test_add_and_remove(self):
        assert add_square((), 1) == (1,)
        assert add_square((2, 1), 2) == (2, 2)
        assert remove_square((2, 2), 2) == (2, 1)
        assert remove_square((1,), 1) == ()

    @pytest.mark.parametrize(
        "op,shape,row",
        [
            (add_square, (), 2),
            (add_square, (2, 2), 2),  # (2,3) is not weakly decreasing
            (remove_square, (), 1),
            (remove_square, (2, 2), 1),  # (1,2) is not weakly decreasing
        ],
    )
    def test_illegal_moves(self, op, shape, row):
        with pytest.raises(MalformedTableauError):
            op(shape, row)

    def test_half_step(self):
        assert half_step((1,), (1,)) is None
        assert half_step((1,), (2,)) == ("+", 1)
        assert half_step((2, 1), (1, 1)) == ("-", 1)
        with pytest.raises(MalformedTableauError):
            half_step((), (2,))

    def test_add_and_remove_match_their_definition(self):
        shapes = shapes_up_to(6)
        assert len(shapes) == 30
        moves = 0
        for shape in shapes:
            for row in range(0, len(shape) + 3):
                for op, defined in ((add_square, defined_add), (remove_square, defined_remove)):
                    try:
                        expect = defined(shape, row)
                    except MalformedTableauError as err:
                        with pytest.raises(MalformedTableauError) as raised:
                            op(shape, row)
                        assert str(raised.value) == str(err)
                        continue
                    assert op(shape, row) == expect, (op.__name__, shape, row)
                    moves += 1
        # a shape with c distinct row lengths has c + 1 addable corners
        # and c removable ones
        assert moves == sum(2 * len(set(s)) + 1 for s in shapes)

    def test_add_then_remove_at_row_one_is_the_identity(self):
        # adding at row 1 is always legal and leaves row 1 longer than
        # row 2, so removing at row 1 is legal too and undoes it
        checked = 0
        for k in range(2, 6):
            for shape in shapes_up_to(12):
                if len(shape) <= k - 1:
                    assert remove_square(add_square(shape, 1), 1) == shape, (k, shape)
                    checked += 1
        assert checked == 319

    def test_half_step_matches_its_definition(self):
        shapes = shapes_up_to(6)
        assert len(shapes) == 30
        # pairs a legal step cannot join, among them shapes two rows
        # apart and single-square changes that break the shape
        extra = [((2, 2), (2, 3)), ((2, 2), (1, 2)), ((1, 1), (1, 1, 1, 1)),
                 ((3, 1, 1), (3,)), ((2, 1, 1), (2,)), ((), (1, 1))]
        pairs = [(a, b) for a in shapes for b in shapes] + extra
        assert sum(abs(len(a) - len(b)) == 2 for a, b in pairs) > 100
        steps = 0
        for prev, nxt in pairs:
            try:
                expect = defined_half_step(prev, nxt)
            except MalformedTableauError:
                with pytest.raises(MalformedTableauError):
                    half_step(prev, nxt)
                continue
            assert half_step(prev, nxt) == expect, (prev, nxt)
            steps += expect is not None
        # each corner of a shape is one add into it and one remove out of it
        assert steps == 2 * sum(len(set(s)) for s in shapes)

    def test_is_shape_matches_its_definition(self):
        # one pass (weakly decreasing, last row >= 1) against the two
        # conditions (every row >= 1, weakly decreasing)
        rows = [r for size in range(6) for r in product(range(-1, 5), repeat=size)]
        assert len(rows) == 9331
        for r in rows:
            expect = defined_is_shape(r)
            assert is_shape(r) is expect and is_shape(list(r)) is expect, r

    @pytest.mark.parametrize(
        "prev,nxt,message",
        [
            ((2, 2), (2, 3), "adding at row 2 of (2, 2) is illegal"),
            ((2, 2), (1, 2), "removing at row 1 of (2, 2) is illegal"),
            ((2, 2), (2, 3, 1), "adding at row 2 of (2, 2) is illegal"),
            ((1,), (1, 1, 1), "shapes (1,) -> (1, 1, 1) differ by more than one square"),
            ((3, 1, 1), (3,), "removing at row 2 of (3, 1, 1) is illegal"),
            ((2, 1), (1, 2), "shapes (2, 1) -> (1, 2) differ by more than one square"),
        ],
    )
    def test_half_step_messages(self, prev, nxt, message):
        # validation reports these messages verbatim
        with pytest.raises(MalformedTableauError) as err:
            half_step(prev, nxt)
        assert str(err.value) == message


class TestValidation:
    def test_spec_examples(self):
        assert validate_tableau(VacillatingTableau(((), (), ()), P))
        assert validate_tableau(VacillatingTableau(((), (1,), ()), B))
        assert not validate_tableau(VacillatingTableau(((), (1,), ()), P))

    def test_violation_report_is_machine_readable(self):
        # step_pairs raises with every violation, joined by "; "
        bad = VacillatingTableau(((1,), (), (1,), (2,), (1,)), P)
        with pytest.raises(MalformedTableauError) as err:
            step_pairs(bad)
        assert str(err.value).split("; ") == [
            "first shape is not empty",
            "last shape is not empty",
            "vertex 2: pair (('+', 1), ('-', 1)) not allowed for partition steps",
        ]

    def test_endpoint_conditions(self):
        assert not validate_tableau(VacillatingTableau(((1,), (), ()), P))
        assert not validate_tableau(VacillatingTableau(((), (), (1,)), P))

    def test_bad_shape_entry(self):
        assert not validate_tableau(VacillatingTableau(((), (0,), ()), B))

    def test_scan_guard_matches_the_reference_scan(self):
        # deriving the half-steps first and vetting shapes only after a
        # violation reports exactly what vetting every shape first did
        seen = {"valid": 0, "not a shape": 0, "other": 0}
        bad_steps = dict.fromkeys(("illegal add", "illegal remove", "two rows", "zero row"), 0)
        for shapes, step_set in chain(corrupt_shape_sequences(5, 4000), detours(5)):
            for kind in corruptions(shapes):
                bad_steps[kind] += 1
            t = VacillatingTableau(shapes, step_set)
            expect = reference_scan(t)
            if tableaux._scan(t) != expect:
                raise AssertionError(f"{t}: {tableaux._scan(t)} != {expect}")
            problems, pairs = expect
            if validate_tableau(t) is not (not problems):
                raise AssertionError(f"{t}: validate_tableau")
            try:
                got = step_pairs(t)
            except MalformedTableauError as err:
                if str(err) != "; ".join(problems):
                    raise AssertionError(f"{t}: {err}") from None
            else:
                if problems or got != pairs:
                    raise AssertionError(f"{t}: step_pairs {got}")
            key = "valid" if not problems else (
                "not a shape" if "not a shape" in problems[0] else "other")
            seen[key] += 1
        if min(seen.values()) < 600 or min(bad_steps.values()) < 150:
            raise AssertionError(f"too few of one outcome or step: {seen}, {bad_steps}")


class TestStepPairs:
    @pytest.mark.parametrize("step_set", [P, B])
    def test_legal_pairs_are_the_documented_ones(self, step_set):
        # one vertex from the shape (2,), where an add and a remove at
        # row 1 are legal as either half, so the scan judges every pair
        documented = documented_kinds(step_set)
        assert len(documented) == 4
        half = {None: None, "+": ("+", 1), "-": ("-", 1)}
        accepted = set()
        for kinds in product(half, repeat=2):
            pair = (half[kinds[0]], half[kinds[1]])
            mid = _apply((2,), pair[0])
            problems, pairs = tableaux._scan(VacillatingTableau(((2,), mid, _apply(mid, pair[1])),
                                                                step_set))
            assert pairs == (pair,)
            if f"vertex 1: pair {pair} not allowed for {step_set} steps" not in problems:
                accepted.add(kinds)
        assert accepted == documented

    def test_unknown_step_set_is_refused(self):
        t = VacillatingTableau(((), (), ()), "tangled")
        assert not validate_tableau(t)
        with pytest.raises(ValueError, match="^unknown step set 'tangled'$"):
            step_pairs(t)

    def test_examples(self):
        assert step_pairs(VacillatingTableau(((), (), ()), P)) == ((None, None),)
        assert step_pairs(VacillatingTableau(((), (1,), ()), B)) == (
            (("+", 1), ("-", 1)),
        )

    def test_round_trip(self):
        t = VacillatingTableau(((), (), (1,), (), ()), P)
        pairs = ((None, ("+", 1)), (("-", 1), None))
        assert step_pairs(t) == pairs
        assert tableau_of_pairs(pairs, P) == t


class TestConversion:
    def test_spec_examples(self):
        assert tableau_to_diagram(VacillatingTableau(((), (), ()), P)) == PartitionDiagram(1)
        assert tableau_to_diagram(VacillatingTableau(((), (1,), ()), B)) == BraidDiagram(
            1, ((1, 1),)
        )
        t = VacillatingTableau(((), (), (1,), (), ()), P)
        assert tableau_to_diagram(t) == PartitionDiagram(2, ((1, 2),))

        assert diagram_to_tableau(PartitionDiagram(1)).shapes == ((), (), ())
        assert diagram_to_tableau(BraidDiagram(1, ((1, 1),))).shapes == ((), (1,), ())
        assert diagram_to_tableau(PartitionDiagram(4, ((1, 3), (2, 4)))).max_rows() == 2

    def test_takes_what_crossing_number_takes(self):
        # subclasses of the two diagram types are diagrams of their class;
        # anything else is refused with crossing_number's own TypeError
        class P(PartitionDiagram):
            pass

        class Br(BraidDiagram):
            pass

        for d in (P(4, ((1, 3), (2, 4))), Br(4, ((1, 3), (2, 4)))):
            assert diagram_to_tableau(d).max_rows() == crossing_number(d) == 2
        bare = ArcDiagram(3, ((1, 2), (1, 3)))
        with pytest.raises(TypeError) as expected:
            crossing_number(bare)
        with pytest.raises(TypeError) as caught:
            diagram_to_tableau(bare)
        assert str(caught.value) == str(expected.value) == (
            "expected a partition or braid diagram, got ArcDiagram"
        )

    def test_malformed_tableau_raises(self):
        with pytest.raises(MalformedTableauError):
            tableau_to_diagram(VacillatingTableau(((), (1,), ()), P))

    def test_validates_once(self, monkeypatch):
        # a tableau keeps its scan: converting, validating and asking for
        # its pairs scan it once between them
        import noncrossing.tableaux as tableaux_module

        calls = []
        scan = tableaux_module._scan

        def counted(t):
            calls.append(t)
            return scan(t)

        monkeypatch.setattr(tableaux_module, "_scan", counted)
        t = diagram_to_tableau(PartitionDiagram(4, ((1, 3), (2, 4))))
        assert tableau_to_diagram(t) == PartitionDiagram(4, ((1, 3), (2, 4)))
        assert validate_tableau(t)
        assert len(step_pairs(t)) == t.n
        assert calls == [t]

    @pytest.mark.parametrize("d", [
        PartitionDiagram(7, ((1, 3), (2, 5), (3, 4), (5, 7))),
        BraidDiagram(6, ((1, 3), (2, 5), (3, 4), (6, 6))),
    ], ids=["partition", "braid"])
    def test_each_shape_is_checked_once(self, monkeypatch, d):
        # a valid tableau's half-steps prove every entry a shape, so its
        # scan calls is_shape on none of them; an invalid one's calls it
        # at most once per entry
        calls = []

        def counted(rows):
            calls.append(rows)
            return is_shape(rows)

        monkeypatch.setattr(tableaux, "is_shape", counted)
        t = diagram_to_tableau(d)
        calls.clear()
        step_pairs(t)
        assert calls == []
        shapes = list(t.shapes)
        shapes[3] = (0,)
        bad = VacillatingTableau(tuple(shapes), t.step_set)
        assert not validate_tableau(bad)
        assert 0 < len(calls) <= len(bad.shapes)

    def test_witness_route_scans_each_tableau_once(self, monkeypatch):
        from noncrossing import duality

        def unreachable(*args):
            raise AssertionError("the witness route decoded or built a tableau")

        scanned = []
        scan = duality._half_steps

        def counted_scan(d):
            scanned.append(d)
            return scan(d)

        monkeypatch.setattr(tableaux, "_scan", unreachable)
        monkeypatch.setattr(tableaux, "half_step", unreachable)
        monkeypatch.setattr(VacillatingTableau, "__post_init__", unreachable)
        monkeypatch.setattr(duality, "_half_steps", counted_scan)
        n = 7
        p = PartitionDiagram(n, ((1, 3), (2, 5), (3, 4), (5, 7)))
        assert duality.contract_partition_via_tableaux(p) == duality.contract_partition(p)
        # the route re-brackets the half-steps of the partition's one
        # right-to-left scan and fills them: it decodes no shape and
        # builds no tableau, of either diagram
        assert scanned == [p]

    @pytest.mark.parametrize("step_set", [P, B])
    def test_fill_guard_matches_the_square_rule(self, step_set):
        # the fill refuses exactly the pair sequences that break a rule:
        # a pair of kinds not legal for the step set, a half-step that
        # add_square or remove_square refuses, or a filling left undrained;
        # it names the first vertex that breaks one, and fills any other
        # sequence into the diagram whose tableau the sequence is
        rng = random.Random(38)
        legal = documented_kinds(step_set)
        # mostly legal kinds on low rows, so that every outcome is common
        drawn = sorted(legal, key=str) * 12 + list(product((None, "+", "-"), repeat=2))
        seen = {"filled": 0, "kind": 0, "row": 0, "drain": 0}
        for _ in range(4000):
            n = rng.randint(1, 5)
            pairs = tuple(tuple(kind and (kind, rng.choice((0, 1, 1, 1, 1, 2, 2, 3)))
                                for kind in rng.choice(drawn)) for _ in range(n))
            shape, broken = (), None
            for i, pair in enumerate(pairs, 1):
                if (pair[0] and pair[0][0], pair[1] and pair[1][0]) not in legal:
                    broken = (i, "kind")
                    break
                try:
                    shape = _apply(_apply(shape, pair[0]), pair[1])
                except MalformedTableauError:
                    broken = (i, "row")
                    break
            else:
                if shape:
                    broken = (n, "drain")
            seen[broken[1] if broken else "filled"] += 1
            if broken is None:
                d = tableaux._fill(n, pairs, step_set)
                assert diagram_to_tableau(d) == tableau_of_pairs(pairs, step_set), pairs
                continue
            with pytest.raises(MalformedTableauError, match=f"^vertex {broken[0]}: "):
                tableaux._fill(n, pairs, step_set)
        assert min(seen.values()) >= 100, seen

    def test_row_lengths_match_the_reference_filling(self):
        # diagram_to_tableau counts the squares of each row as its scan
        # inserts and extracts; the reference measures every row of the
        # filling after each half-step
        small = [p for n in range(9) for p in partitions_of(n)]
        small += [b for n in range(8) for b in braids_over(n)]
        large = list(random_diagrams(11, 500))
        assert len(small) == 2 * sum(map(bell_number, range(9))) - 1
        assert sum(isinstance(d, BraidDiagram) for d in large) > 200
        for d in small + large:
            assert diagram_to_tableau(d) == reference_tableau(d), d

    def test_round_trips(self):
        for n in range(0, 8):
            for p in partitions_of(n):
                assert tableau_to_diagram(diagram_to_tableau(p)) == p
        for n in range(0, 7):
            for b in braids_over(n):
                assert tableau_to_diagram(diagram_to_tableau(b)) == b

    def test_tableau_round_trips_back(self):
        # the other direction of the bijection, via the oracle enumerator
        for n in range(0, 5):
            for pairs in enumerate_tableaux(n, P):
                t = tableau_of_pairs(pairs, P)
                assert diagram_to_tableau(tableau_to_diagram(t)) == t
            for pairs in enumerate_tableaux(n, B):
                t = tableau_of_pairs(pairs, B)
                assert diagram_to_tableau(tableau_to_diagram(t)) == t

    def test_row_bound_equals_crossing_number(self):
        for n in range(0, 7):
            for p in partitions_of(n):
                t = diagram_to_tableau(p)
                assert t.max_rows() == crossing_number(p)
                for k in (3, 4):
                    assert (t.max_rows() < k) == is_k_noncrossing(p, k)
            for b in braids_over(n):
                t = diagram_to_tableau(b)
                assert t.max_rows() == crossing_number(b)
                for k in (3, 4):
                    assert (t.max_rows() < k) == is_k_noncrossing(b, k)

    def test_local_correspondence(self):
        # the i-th pair encodes the degree structure of vertex i
        for n in range(0, 7):
            for b in braids_over(n):
                pairs = step_pairs(diagram_to_tableau(b))
                for i in range(1, n + 1):
                    odd, even = pairs[i - 1]
                    origin = i in {s for s, _ in b.arcs}
                    endpoint = i in {e for _, e in b.arcs}
                    if origin and endpoint:
                        assert odd[0] == "+" and even[0] == "-"
                    elif origin:
                        assert odd is None and even[0] == "+"
                    elif endpoint:
                        assert odd[0] == "-" and even is None
                    else:
                        assert odd is None and even is None

    def test_adjacent_arcs_and_loops_are_row_one_steps(self):
        # in a partition, (i, i+1) is an arc exactly when vertex i's even
        # half-step adds at row 1 and vertex i+1's odd half-step removes at
        # row 1; in a braid, (i, i) is a loop exactly when vertex i adds at
        # row 1 and removes there.  A braid's crossing vertex adds first,
        # so the arc rule is the partitions' alone
        add, remove = ("+", 1), ("-", 1)
        partitions = [p for n in range(10) for p in partitions_of(n)]
        braids = [b for n in range(8) for b in braids_over(n)]
        assert len(partitions) == sum(map(bell_number, range(10)))
        assert len(braids) == 5295
        for p in partitions:
            pairs = step_pairs(diagram_to_tableau(p))
            for i in range(1, p.n):
                adjacent = pairs[i - 1][1] == add and pairs[i][0] == remove
                assert ((i, i + 1) in p.arcs) == adjacent, (p, i)
        for b in braids:
            pairs = step_pairs(diagram_to_tableau(b))
            for i in range(1, b.n + 1):
                assert ((i, i) in b.arcs) == (pairs[i - 1] == (add, remove)), (b, i)

    def test_partition_local_correspondence(self):
        for p in partitions_of(6):
            pairs = step_pairs(diagram_to_tableau(p))
            for i in range(1, 7):
                odd, even = pairs[i - 1]
                assert (odd is not None) == (i in {e for _, e in p.arcs})
                assert (even is not None) == (i in {s for s, _ in p.arcs})


class TestCounting:
    def test_partition_tableaux_count_is_bell(self):
        for n in range(0, 9):
            count = sum(1 for _ in enumerate_tableaux(n, P))
            assert count == bell_number(n), n

    def test_braid_tableaux_count_matches_braids(self):
        for n in range(0, 6):
            count = sum(1 for _ in enumerate_tableaux(n, B))
            assert count == len(braids_over(n)), n
