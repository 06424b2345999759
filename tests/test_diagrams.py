"""Diagram model: invariants, block view, crossing statistics, formats."""

import random
import re
import time
from itertools import combinations

import pytest

from conftest import braids_over, partitions_of
from noncrossing.diagrams import (
    ArcDiagram,
    BraidDiagram,
    InvalidDiagramError,
    PartitionDiagram,
    braid_crossing_number,
    crossing_number_of_arcs,
    diagram_svg,
    format_diagram,
    has_k_crossing,
    is_k_noncrossing,
    is_two_regular,
    parse_diagram,
    partition_crossing_number,
    partition_from_blocks,
)


# -- oracles -----------------------------------------------------------------


def blocks_of(p):
    """The blocks of a partition diagram: the chain of arcs from each
    vertex that ends no arc."""
    succ = dict(p.arcs)
    blocks = []
    for v in sorted(set(range(1, p.n + 1)) - set(succ.values())):
        blocks.append([v])
        while blocks[-1][-1] in succ:
            blocks[-1].append(succ[blocks[-1][-1]])
    return blocks


def chain_exists(arcs, size, shared):
    """Exhaustive subset oracle for the crossing statistic."""
    for sub in combinations(sorted(arcs), size):
        lefts = [i for i, _ in sub]
        rights = [j for _, j in sub]
        if any(a >= b for a, b in zip(lefts, lefts[1:])):
            continue
        if any(a >= b for a, b in zip(rights, rights[1:])):
            continue
        if lefts[-1] < rights[0] or (shared and lefts[-1] == rights[0]):
            return True
    return False


def oracle_crossing(arcs, shared):
    best = 0
    for size in range(1, len(arcs) + 1):
        if chain_exists(arcs, size, shared):
            best = size
    return best


def window_crossing(arcs, shared):
    """The crossing statistic by the cut scan with a quadratic chain DP
    on each window: every arc spanning the cut, longest subsequence
    strictly increasing in both endpoints."""
    arcs = sorted(arcs)
    best = 0
    for c in {i for i, _ in arcs}:
        window = [(i, j) for i, j in arcs if i <= c < j or (shared and c == j)]
        chain = [0] * len(window)
        for t, (i, j) in enumerate(window):
            chain[t] = 1 + max(
                (chain[s] for s in range(t) if window[s][0] < i and window[s][1] < j),
                default=0,
            )
        best = max(best, max(chain, default=0))
    return best


def raw_arc_lists(seed, count, n_max, m_max):
    """Seeded arc lists that no diagram class would accept: arcs are
    drawn independently, so left endpoints repeat, loops occur, an arc
    may end where another starts, and arcs may repeat."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, n_max)
        arcs = []
        for _ in range(rng.randint(0, m_max)):
            i = rng.randint(1, n)
            arcs.append((i, rng.randint(i, n)))
        yield arcs


def corrupt_diagrams(seed, count):
    """Seeded (n, arcs), valid or breaking the diagram rules in every
    way: loops, repeated arcs, shared starts and ends, arcs past n or
    before 1, i > j, and n < 0."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(-1, 8)

        def vertex():
            # one time in ten, or when there is none, a vertex out of range
            if n < 1 or rng.random() < 0.1:
                return rng.choice((0, max(n, 0) + 1))
            return rng.randint(1, n)

        arcs = []
        for _ in range(rng.randint(0, 5)):
            roll = rng.random()
            if arcs and roll < 0.05:
                arcs.append(rng.choice(arcs))
            elif arcs and roll < 0.2:
                # an arc sharing a start or an end with an earlier one
                i, j = rng.choice(arcs)
                arcs.append((i, max(i, vertex())) if roll < 0.125 else (min(vertex(), j), j))
            elif roll < 0.3:
                v = vertex()
                arcs.append((v, v))
            else:
                i, j = vertex(), vertex()
                arcs.append((i, j) if roll < 0.35 else (min(i, j), max(i, j)))
        yield n, arcs


def unchecked(cls, n, arcs):
    """A diagram of cls that construction has not checked."""
    d = object.__new__(cls)
    object.__setattr__(d, "n", n)
    object.__setattr__(d, "arcs", tuple(sorted(arcs)))
    return d


class TestConstruction:
    def test_arcs_are_canonicalised(self):
        d = ArcDiagram(4, ((3, 4), (1, 2)))
        assert d.arcs == ((1, 2), (3, 4))

    def test_empty_diagram_allowed(self):
        assert ArcDiagram(0).arcs == ()

    @pytest.mark.parametrize(
        "cls,n,arcs",
        [
            (ArcDiagram, 2, ((2, 1),)),
            (ArcDiagram, 2, ((1, 3),)),
            (ArcDiagram, 2, ((1, 2), (1, 2))),
            (ArcDiagram, 4, ((1, 2), (1, 3), (1, 4))),
            (PartitionDiagram, 2, ((1, 1),)),
            (PartitionDiagram, 3, ((1, 2), (1, 3))),
            (PartitionDiagram, 3, ((1, 3), (2, 3))),
            (BraidDiagram, 3, ((1, 2), (1, 3))),
            (BraidDiagram, 3, ((1, 3), (2, 3))),
            (ArcDiagram, -1, ()),
        ],
    )
    def test_invalid_inputs_rejected(self, cls, n, arcs):
        with pytest.raises(InvalidDiagramError):
            cls(n, arcs)

    # (n, arcs, partition outcome, braid outcome): None accepts, a string
    # is the InvalidDiagramError message.  With two violations, the
    # endpoint rule reports the first in arc order, and a partition
    # refuses a loop before it applies the rule.
    @pytest.mark.parametrize(
        "n,arcs,partition,braid",
        [
            (3, ((1, 2), (1, 3)), "vertex 1 starts two non-loop arcs",
             "vertex 1 starts two non-loop arcs"),
            (3, ((1, 3), (2, 3)), "vertex 3 ends two non-loop arcs",
             "vertex 3 ends two non-loop arcs"),
            (2, ((1, 1),), "partition diagram cannot contain loop (1, 1)", None),
            (3, ((1, 2), (2, 3)), None, None),
            (3, ((1, 1), (2, 3)), "partition diagram cannot contain loop (1, 1)", None),
            (2, ((1, 1), (1, 2)), "vertex 1 has degree 3 > 2", "vertex 1 has degree 3 > 2"),
            (4, ((1, 3), (2, 3), (2, 4)), "vertex 3 ends two non-loop arcs",
             "vertex 3 ends two non-loop arcs"),
            (4, ((1, 2), (1, 3), (4, 4)), "partition diagram cannot contain loop (4, 4)",
             "vertex 1 starts two non-loop arcs"),
        ],
    )
    def test_endpoint_rule(self, n, arcs, partition, braid):
        for cls, message in ((PartitionDiagram, partition), (BraidDiagram, braid)):
            if message is None:
                assert cls(n, arcs).arcs == arcs
                continue
            with pytest.raises(InvalidDiagramError) as err:
                cls(n, arcs)
            assert str(err.value) == message, cls.__name__

    @pytest.mark.parametrize("cls", [PartitionDiagram, BraidDiagram, ArcDiagram])
    def test_one_pass_guard_agrees_with_the_rules(self, cls):
        # the one-pass test accepts exactly what the rule-by-rule check
        # accepts (a bare ArcDiagram: only what it accepts), and
        # construction refuses with the check's message
        accepted = 0
        rules = set()  # the messages met, numbers blanked
        for n, arcs in corrupt_diagrams(11, 8000):
            d = unchecked(cls, n, arcs)
            try:
                d._check()
                message = None
            except InvalidDiagramError as err:
                message = str(err)
                rules.add(re.sub(r"-?\d+", "#", message))
            fast = d._valid()
            if fast and message is not None:
                raise AssertionError(f"one pass accepts {cls.__name__}({n}, {arcs}): {message}")
            if not fast and message is None and cls is not ArcDiagram:
                raise AssertionError(f"one pass refuses {cls.__name__}({n}, {arcs})")
            try:
                built = cls(n, arcs)
            except InvalidDiagramError as err:
                if str(err) != message:
                    raise AssertionError(f"{cls.__name__}({n}, {arcs}): {err} != {message}")
            else:
                if message is not None or built.arcs != d.arcs:
                    raise AssertionError(f"{cls.__name__}({n}, {arcs}) built: {message}")
            accepted += message is None
        if not 1000 < accepted < 7000:
            raise AssertionError(f"{accepted} of 8000 accepted")
        expected = {
            "vertex count must be >= #, got #", "arc (#, #) out of range for n=#",
            "repeated arc (#, #)", "vertex # has degree # > #",
        }
        if cls is not ArcDiagram:
            expected |= {"vertex # starts two non-loop arcs", "vertex # ends two non-loop arcs"}
        if cls is PartitionDiagram:
            expected.add("partition diagram cannot contain loop (#, #)")
        if rules != expected:
            raise AssertionError(f"rules met: {sorted(rules)}")

    def test_classes_compare_distinct(self):
        arcs = ((1, 2), (2, 3))
        assert PartitionDiagram(3, arcs) != BraidDiagram(3, arcs)

    def test_degree_and_vertex_sets(self):
        b = BraidDiagram(4, ((1, 2), (2, 3)))
        assert b.origins() == {1, 2}
        assert b.endpoints() == {2, 3}
        assert b.isolated_vertices() == (4,)


class TestBlocks:
    @pytest.mark.parametrize(
        "blocks,arcs",
        [
            ([{1}, {2}, {3}], ()),
            ([{1, 3}, {2}], ((1, 3),)),
            ([{1, 3, 5}, {2, 4}], ((1, 3), (2, 4), (3, 5))),
        ],
    )
    def test_from_blocks(self, blocks, arcs):
        assert partition_from_blocks(blocks).arcs == arcs

    @pytest.mark.parametrize(
        "blocks", [[{1}, {1, 2}], [{1}, {3}], [set()], [{0, 1}]]
    )
    def test_bad_blocks_rejected(self, blocks):
        with pytest.raises(InvalidDiagramError):
            partition_from_blocks(blocks)

    def test_round_trip_exhaustive(self):
        for n in range(0, 11):
            for p in partitions_of(n):
                assert partition_from_blocks(blocks_of(p)) == p


class TestCrossingStatistics:
    @pytest.mark.parametrize(
        "arcs,n,expect",
        [
            (((1, 4), (2, 5), (3, 6)), 6, 3),
            ((), 5, 0),
            (((1, 3), (3, 5), (2, 4)), 5, 2),
        ],
    )
    def test_partition_examples(self, arcs, n, expect):
        assert partition_crossing_number(PartitionDiagram(n, arcs)) == expect

    @pytest.mark.parametrize(
        "arcs,n,expect",
        [
            (((1, 2), (2, 3)), 3, 2),
            (((1, 1),), 1, 1),
            (((1, 3), (2, 4), (3, 5)), 5, 3),
            (((1, 4), (2, 3)), 4, 1),  # nesting does not cross
        ],
    )
    def test_braid_examples(self, arcs, n, expect):
        assert braid_crossing_number(BraidDiagram(n, arcs)) == expect

    def test_partition_statistic_against_subset_oracle(self):
        for n in range(0, 9):
            for p in partitions_of(n):
                assert partition_crossing_number(p) == oracle_crossing(p.arcs, False)

    def test_braid_statistic_against_subset_oracle(self):
        for n in range(0, 8):
            for b in braids_over(n):
                assert braid_crossing_number(b) == oracle_crossing(b.arcs, True)

    @pytest.mark.parametrize("shared", [False, True])
    def test_statistic_on_raw_arc_lists(self, shared):
        seen = {"repeated left": 0, "loop": 0, "shared endpoint": 0}
        for arcs in raw_arc_lists(20_110 + shared, 400, 8, 9):
            lefts = [i for i, _ in arcs]
            seen["repeated left"] += len(set(lefts)) < len(lefts)
            seen["loop"] += any(i == j for i, j in arcs)
            seen["shared endpoint"] += bool(set(lefts) & {j for i, j in arcs if i < j})
            assert crossing_number_of_arcs(arcs, shared) == oracle_crossing(arcs, shared), arcs
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize("shared", [False, True])
    def test_statistic_on_long_raw_arc_lists(self, shared):
        for arcs in raw_arc_lists(20_120 + shared, 60, 40, 40):
            assert crossing_number_of_arcs(arcs, shared) == window_crossing(arcs, shared), arcs

    def test_braid_statistic_splits_into_flat_conditions(self):
        # k-noncrossing braid == the loop-stripped arcs lack both a
        # strict k-chain and a shared-endpoint k-chain
        for n in range(0, 9):
            for b in braids_over(n):
                flat = [(i, j) for i, j in b.arcs if i != j]
                for k in (3, 4):
                    strict = chain_exists(flat, k, False)
                    shared = chain_exists(flat, k, True)
                    assert is_k_noncrossing(b, k) == (not strict and not shared), (b, k)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            is_k_noncrossing(PartitionDiagram(1), 1)
        with pytest.raises(TypeError):
            is_k_noncrossing(ArcDiagram(1), 3)


def seeded_diagrams(seed, count):
    """Seeded partitions and braids, alternately, at n = 20..60, from
    random block labels drawn from 2..n/2 of them; a braid loops each
    isolated vertex with probability 1/2."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(20, 60)
        labels = [rng.randrange(rng.randint(2, n // 2)) for _ in range(n)]
        blocks = {}
        for v, label in enumerate(labels, 1):
            blocks.setdefault(label, []).append(v)
        p = partition_from_blocks(blocks.values())
        if t % 2:
            loops = tuple((v, v) for v in p.isolated_vertices() if rng.random() < 0.5)
            yield BraidDiagram(n, p.arcs + loops)
        else:
            yield p


class TestKCrossing:
    # has_k_crossing answers crossing_number_of_arcs(arcs, shared) >= k
    # and stops at the first k crossing arcs

    @pytest.mark.parametrize("shared", [False, True])
    def test_partitions_against_subset_oracle(self, shared):
        for n in range(0, 9):
            for p in partitions_of(n):
                cross = oracle_crossing(p.arcs, shared)
                for k in range(2, 7):
                    assert has_k_crossing(p.arcs, k, shared) == (cross >= k), (p, k)

    def test_braids_against_subset_oracle(self):
        for n in range(0, 8):
            for b in braids_over(n):
                cross = oracle_crossing(b.arcs, True)
                for k in range(2, 7):
                    assert has_k_crossing(b.arcs, k, True) == (cross >= k), (b, k)

    def test_seeded_diagrams_at_the_statistic(self):
        seen = {PartitionDiagram: 0, BraidDiagram: 0}
        for d in seeded_diagrams(20_130, 500):
            seen[type(d)] += 1
            for shared in (False, True):
                cross = window_crossing(d.arcs, shared)
                # both sides of the threshold, and k = 2..6
                for k in {2, 3, 4, 5, 6, cross, cross + 1} - {0, 1}:
                    assert has_k_crossing(d.arcs, k, shared) == (cross >= k), (d, k, shared)
        assert min(seen.values()) == 250, seen

    def test_examples(self):
        arcs = ((1, 4), (2, 5), (3, 6))
        assert has_k_crossing(arcs, 3, False)
        assert not has_k_crossing(arcs, 4, False)
        assert not has_k_crossing((), 2, True)
        assert has_k_crossing(((1, 2),), 1, False)
        assert has_k_crossing(((1, 1),), 1, True)
        assert not has_k_crossing(((1, 1),), 1, False)

    def test_k_validation(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                has_k_crossing(((1, 2),), k, False)


class TestPredicates:
    def test_is_k_noncrossing_examples(self):
        assert not is_k_noncrossing(PartitionDiagram(6, ((1, 4), (2, 5), (3, 6))), 3)
        assert is_k_noncrossing(PartitionDiagram(3), 3)
        assert is_k_noncrossing(PartitionDiagram(4, ((1, 3), (2, 4))), 3)

    def test_two_regular(self):
        assert is_two_regular(PartitionDiagram(3, ((1, 3),)))
        assert not is_two_regular(PartitionDiagram(3, ((2, 3),)))
        assert not is_two_regular(PartitionDiagram(4, ((1, 3), (3, 4))))


class TestTextFormat:
    @pytest.mark.parametrize(
        "d,text",
        [
            (PartitionDiagram(3), "n=3; arcs="),
            (BraidDiagram(1, ((1, 1),)), "n=1; arcs=(1,1)"),
            (PartitionDiagram(5, ((3, 5), (1, 3), (2, 4))), "n=5; arcs=(1,3)(2,4)(3,5)"),
        ],
    )
    def test_format(self, d, text):
        assert format_diagram(d) == text
        assert parse_diagram(text) == (d.n, d.arcs)

    def test_round_trip_exhaustive(self):
        for n in range(0, 7):
            for b in braids_over(n):
                n2, arcs = parse_diagram(format_diagram(b))
                assert BraidDiagram(n2, arcs) == b

    @pytest.mark.parametrize("text", [
        "", "n=x; arcs=", "n=2 arcs=", "n=2; arcs=(1,2", "n=2; arcs=()", "n=4; arcs=(1,2)(3,4",
        "n=4; arcs=(1,2)x(3,4)", "n=4; arcs=(1,2)()(3,4)", "n=4; arcs=((1,2))",
        "n=4; arcs=(1,2))(3,4)", "n=4; arcs=(1,2,3)", "n=4; arcs= (1,2)",
        # integers that int() reads but format_diagram never writes
        "n=1_0; arcs=(1,1_0)", "n= 4 ; arcs=( 1 , 3 )", "n=\u0664; arcs=(\u0661,\u0663)",
        "n=4; arcs=(1,1_0)", "n=4; arcs=( 1,3)", "n=4; arcs=(\u0661,3)", "n=4; arcs=(1,\xb2)",
        "n=+4; arcs=", "n=--4; arcs=", "n=4 ; arcs=", "n=4; arcs=(+1,3)", "n=4; arcs=(-1,3)",
        # leading zeros and a signed zero, which format_diagram never writes either
        "n=-0; arcs=", "n=00; arcs=", "n=04; arcs=", "n=-05; arcs=", "n=-00; arcs=",
        "n=3; arcs=(01,3)", "n=3; arcs=(1,03)", "n=3; arcs=(00,3)",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_diagram(text)

    def test_an_endpoint_0_reaches_the_diagram_check(self):
        assert parse_diagram("n=3; arcs=(0,3)") == (3, ((0, 3),))
        with pytest.raises(InvalidDiagramError, match="out of range"):
            PartitionDiagram(*parse_diagram("n=3; arcs=(0,3)"))

    def test_a_negative_vertex_count_reaches_the_diagram_check(self):
        assert parse_diagram("n=-5; arcs=") == (-5, ())
        with pytest.raises(InvalidDiagramError, match="vertex count must be >= 0, got -5"):
            PartitionDiagram(*parse_diagram("n=-5; arcs="))

    @pytest.mark.parametrize("cls", [PartitionDiagram, BraidDiagram])
    @pytest.mark.parametrize("text", [
        "n=5; arcs=(1,3)(2,4)(1,6)",   # arc past vertex n
        "n=5; arcs=(1,3)(1,3)(2,4)",   # repeated arc
        "n=5; arcs=(1,3)(2,4)(3,3)",   # loop on a vertex of degree >= 1
        "n=x5; arcs=(1,3)(2,4)",       # bad vertex count
        "n=5; arcs=(1,3)(2,4",         # unclosed arc
        "n=5; arcs=(1,3)(2,4)(3,1)",   # arc with i > j
        "n=-5; arcs=",                 # negative vertex count
        "n=5; arcs=(a,3)(1,3)(2,4)",   # non-integer endpoint
    ])
    def test_corrupt_text_is_refused(self, cls, text):
        with pytest.raises(ValueError):
            cls(*parse_diagram(text))

    def test_parse_is_linear_at_the_diagram_cap(self):
        # 100 000 loops, the most arcs a diagram under the vertex cap can have;
        # a parse that copies the rest of the text per arc took 6 s here
        n = 100_000
        text = f"n={n}; arcs=" + "".join(f"({v},{v})" for v in range(1, n + 1))
        started = time.perf_counter()
        parsed = parse_diagram(text)
        assert time.perf_counter() - started < 1.0
        assert parsed == (n, tuple((v, v) for v in range(1, n + 1)))


class TestSvg:
    def test_empty_diagram(self):
        svg = diagram_svg(PartitionDiagram(3))
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<text") == 3 and "<path" not in svg

    def test_crossing_arcs_and_loop(self):
        svg = diagram_svg(BraidDiagram(4, ((1, 3), (2, 4))))
        assert svg.count("<path") == 2
        loop_svg = diagram_svg(BraidDiagram(1, ((1, 1),)))
        assert loop_svg.count('r="8"') == 1

    def test_deterministic(self):
        d = BraidDiagram(5, ((1, 3), (2, 4), (5, 5)))
        assert diagram_svg(d) == diagram_svg(d)
