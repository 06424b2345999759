"""Vacillating tableaux: shapes, validation, and the diagram bijection."""

import re
from itertools import product

import pytest

from conftest import braids_over, partitions_of
from noncrossing import tableaux
from noncrossing.diagrams import (
    BraidDiagram,
    PartitionDiagram,
    braid_crossing_number,
    is_k_noncrossing,
    partition_crossing_number,
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


class TestStepPairs:
    @pytest.mark.parametrize("step_set", [P, B])
    def test_legal_pairs_are_the_documented_ones(self, step_set):
        documented = documented_kinds(step_set)
        assert len(documented) == 4
        half = {None: None, "+": ("+", 1), "-": ("-", 1)}
        accepted = {
            kinds for kinds in product(half, repeat=2)
            if tableaux._legal_pair((half[kinds[0]], half[kinds[1]]), step_set)
        }
        assert accepted == documented

    def test_unknown_step_set_is_refused(self):
        with pytest.raises(ValueError, match="unknown step set 'tangled'"):
            tableaux._legal_pair((None, None), "tangled")

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

    def test_malformed_tableau_raises(self):
        with pytest.raises(MalformedTableauError):
            tableau_to_diagram(VacillatingTableau(((), (1,), ()), P))

    def test_validates_once(self, monkeypatch):
        import noncrossing.tableaux as tableaux_module

        calls = []
        scan = tableaux_module._scan

        def counted(t):
            calls.append(t)
            return scan(t)

        monkeypatch.setattr(tableaux_module, "_scan", counted)
        t = diagram_to_tableau(PartitionDiagram(4, ((1, 3), (2, 4))))
        assert tableau_to_diagram(t) == PartitionDiagram(4, ((1, 3), (2, 4)))
        assert len(calls) == 1
        step_pairs(t)
        assert len(calls) == 2

    @pytest.mark.parametrize("d", [
        PartitionDiagram(7, ((1, 3), (2, 5), (3, 4), (5, 7))),
        BraidDiagram(6, ((1, 3), (2, 5), (3, 4), (6, 6))),
    ], ids=["partition", "braid"])
    def test_each_shape_is_checked_once(self, monkeypatch, d):
        # validation checks every shape of a tableau from outside once
        calls = []

        def counted(rows):
            calls.append(rows)
            return is_shape(rows)

        monkeypatch.setattr(tableaux, "is_shape", counted)
        t = diagram_to_tableau(d)
        calls.clear()
        step_pairs(t)
        assert len(calls) == len(t.shapes)

    def test_witness_route_scans_each_tableau_once(self, monkeypatch):
        import noncrossing.tableaux as tableaux_module
        from noncrossing.duality import contract_partition, contract_partition_via_tableaux

        counts = {"validations": 0, "half_steps": 0}
        scan = tableaux_module._scan

        def counted_scan(t):
            counts["validations"] += 1
            return scan(t)

        def counted_half_step(prev, nxt):
            counts["half_steps"] += 1
            return half_step(prev, nxt)

        monkeypatch.setattr(tableaux_module, "_scan", counted_scan)
        monkeypatch.setattr(tableaux_module, "half_step", counted_half_step)
        n = 7
        p = PartitionDiagram(n, ((1, 3), (2, 5), (3, 4), (5, 7)))
        assert contract_partition_via_tableaux(p) == contract_partition(p)
        # the partition tableau is built by the right-to-left scan and
        # read as shapes, so only the braid tableau over [n-1] is scanned:
        # 2(n - 1) shape transitions
        assert counts == {"validations": 1, "half_steps": 2 * (n - 1)}

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
                assert t.max_rows() == partition_crossing_number(p)
                for k in (3, 4):
                    assert (t.max_rows() < k) == is_k_noncrossing(p, k)
            for b in braids_over(n):
                t = diagram_to_tableau(b)
                assert t.max_rows() == braid_crossing_number(b)
                for k in (3, 4):
                    assert (t.max_rows() < k) == is_k_noncrossing(b, k)

    def test_local_correspondence(self):
        # the i-th pair encodes the degree structure of vertex i
        for n in range(0, 7):
            for b in braids_over(n):
                pairs = step_pairs(diagram_to_tableau(b))
                for i in range(1, n + 1):
                    odd, even = pairs[i - 1]
                    origin = i in b.origins()
                    endpoint = i in b.endpoints()
                    if origin and endpoint:
                        assert odd[0] == "+" and even[0] == "-"
                    elif origin:
                        assert odd is None and even[0] == "+"
                    elif endpoint:
                        assert odd[0] == "-" and even is None
                    else:
                        assert odd is None and even is None

    def test_partition_local_correspondence(self):
        for p in partitions_of(6):
            pairs = step_pairs(diagram_to_tableau(p))
            for i in range(1, 7):
                odd, even = pairs[i - 1]
                assert (odd is not None) == (i in p.endpoints())
                assert (even is not None) == (i in p.origins())


class TestCounting:
    def test_partition_tableaux_count_is_bell(self):
        for n in range(0, 9):
            count = sum(1 for _ in enumerate_tableaux(n, P))
            assert count == bell_number(n), n

    def test_braid_tableaux_count_matches_braids(self):
        for n in range(0, 6):
            count = sum(1 for _ in enumerate_tableaux(n, B))
            assert count == len(braids_over(n)), n
