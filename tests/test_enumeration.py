"""Streams and counting oracles."""

from itertools import combinations

import pytest

from conftest import braids_over, partitions_of
from noncrossing import verify
from noncrossing.diagrams import (
    ArcDiagram,
    BraidDiagram,
    InvalidDiagramError,
    PartitionDiagram,
    crossing_number_of_arcs,
    is_k_noncrossing,
    is_two_regular,
    isolated,
    partition_from_blocks,
)
from noncrossing.enumeration import (
    BRUTE_FORCE_LIMIT,
    GENERATORS,
    RangeGuardError,
    bell_number,
    count_class,
    gen_2regular_k,
    gen_braids,
    gen_braids_no_isolated,
    gen_partitions_k,
    gen_set_partitions,
    is_member,
    require_brute_budget,
    restricted_growth_strings,
)


class TestBellOracle:
    def test_known_values(self):
        assert [bell_number(n) for n in range(11)] == [
            1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975,
        ]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell_number(-1)


class TestGrowthStrings:
    def test_lexicographic_order_and_count(self):
        words = list(restricted_growth_strings(4))
        assert words[0] == (0, 0, 0, 0)
        assert words[-1] == (0, 1, 2, 3)
        # with the growth condition below, Bell(n) distinct words are all
        # of them, and sorted is their order
        for n in range(0, 10):
            words = list(restricted_growth_strings(n))
            assert words == sorted(words), n
            assert len(words) == len(set(words)) == bell_number(n), n

    def test_growth_condition(self):
        for n in range(1, 10):
            for word in restricted_growth_strings(n):
                assert word[0] == 0
                for pos in range(1, n):
                    assert word[pos] <= max(word[:pos]) + 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            next(restricted_growth_strings(-1))


def _right_to_left_arcs(word):
    # the per-word rule the walk replaced: read right to left, a vertex
    # starts an arc to its label's next occurrence
    following = {}
    arcs = []
    for v in range(len(word), 0, -1):
        label = word[v - 1]
        if label in following:
            arcs.append((v, following[label]))
        following[label] = v
    arcs.reverse()
    return arcs


class TestArcWalk:
    def test_each_list_is_the_right_to_left_rule_and_its_own(self):
        # the rule's list, in start order, that the reader may keep or
        # change: keep one, reverse the next, extend the one after, and
        # every later list is still the rule's
        import noncrossing.enumeration as enumeration_module

        for n in range(0, 10):
            kept = []
            stream = enumeration_module._partition_arcs(n)
            for t, word in enumerate(restricted_growth_strings(n)):
                arcs = next(stream)
                assert arcs == _right_to_left_arcs(word), (n, word)
                assert arcs == sorted(arcs), (n, word)
                if t % 3 == 0:
                    kept.append((word, arcs))
                elif t % 3 == 1:
                    arcs.reverse()
                else:
                    arcs.extend([(0, 0), (n + 1, n + 2)])
            assert next(stream, None) is None
            for word, arcs in kept:
                assert arcs == _right_to_left_arcs(word), (n, word)


_ENTRIES = [
    *(pytest.param(lambda n, tag=tag: count_class(tag, 3, n), id=f"count_class-{tag}")
      for tag in sorted(GENERATORS)),
    *(pytest.param(lambda n, tag=tag: next(GENERATORS[tag](n, 3)), id=f"GENERATORS-{tag}")
      for tag in sorted(GENERATORS)),
    pytest.param(lambda n: next(gen_set_partitions(n)), id="gen_set_partitions"),
    pytest.param(lambda n: next(restricted_growth_strings(n)), id="restricted_growth_strings"),
]


class TestSizes:
    @pytest.mark.parametrize("entry", _ENTRIES)
    @pytest.mark.parametrize("n", [-1, -7])
    def test_negative_size_is_refused(self, entry, n):
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            entry(n)

    @pytest.mark.parametrize("tag", sorted(GENERATORS))
    def test_the_empty_size_counts_one(self, tag):
        # [0] has one partition, the empty one, and one braid
        for k in range(2, 7):
            assert count_class(tag, k, 0) == 1, (tag, k)
            assert sum(1 for _ in GENERATORS[tag](0, k)) == 1, (tag, k)


class TestPartitionStream:
    @pytest.mark.parametrize("n,count", [(0, 1), (3, 5), (5, 52)])
    def test_counts(self, n, count):
        assert sum(1 for _ in gen_set_partitions(n)) == count

    def test_no_duplicates_and_valid(self):
        seen = set(gen_set_partitions(6))
        assert len(seen) == bell_number(6)
        assert all(isinstance(p, PartitionDiagram) for p in seen)

    def test_bell_below_first_possible_crossing(self):
        # a k-crossing needs at least 2k vertices
        for k in (3, 4):
            for n in range(0, 2 * k):
                assert sum(1 for _ in gen_partitions_k(n, k)) == bell_number(n)
        assert sum(1 for _ in gen_partitions_k(6, 3)) == bell_number(6) - 1
        assert sum(1 for _ in gen_partitions_k(8, 4)) == bell_number(8) - 1

    def test_two_regular_boundary(self):
        assert list(gen_2regular_k(2, 3)) == [PartitionDiagram(2)]

    def test_two_regular_filters_before_crossings(self, monkeypatch):
        import noncrossing.enumeration as enumeration_module

        expected = list(gen_2regular_k(7, 3))
        calls = []
        real = enumeration_module.has_k_crossing

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(enumeration_module, "has_k_crossing", counted)
        assert list(gen_2regular_k(7, 3)) == expected
        # only the Bell(n-1) 2-regular partitions reach the crossing filter
        assert len(calls) == bell_number(6)


class TestBraidStream:
    def test_small_counts(self):
        assert list(gen_braids_no_isolated(1, 3)) == [BraidDiagram(1, ((1, 1),))]
        assert sum(1 for _ in gen_braids(1, 3)) == 2
        assert sum(1 for _ in gen_braids_no_isolated(4, 3)) == 15

    def test_no_duplicates_and_valid(self):
        for k in (3, 4):
            braids = list(gen_braids(5, k))
            assert len(braids) == len(set(braids))
            for b in braids:
                assert isinstance(b, BraidDiagram)
                assert is_k_noncrossing(b, k)
            dense = list(gen_braids_no_isolated(5, k))
            assert set(dense) == {b for b in braids if not isolated(b.n, b.arcs)}

    def test_duality_cardinalities(self):
        for k in (3, 4):
            for n in range(1, 8):
                parts = sum(1 for _ in gen_partitions_k(n, k))
                braids = sum(1 for _ in gen_braids(n - 1, k))
                assert parts == braids
                reg = sum(1 for _ in gen_2regular_k(n, k))
                dense = sum(1 for _ in gen_braids_no_isolated(n - 1, k))
                assert reg == dense

    def test_k_validation(self):
        with pytest.raises(ValueError):
            next(gen_braids(3, 1))

    def test_against_raw_arc_subsets(self):
        # independent oracle sharing nothing with the skeleton route:
        # walk every arc subset, keep the structurally valid braids,
        # apply the crossing bound through the public predicate
        def raw_braids(n, k, need_cover):
            candidates = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
            found = set()
            for r in range(0, n + 1):
                for sub in combinations(candidates, r):
                    try:
                        b = BraidDiagram(n, sub)
                    except InvalidDiagramError:
                        continue
                    if need_cover and isolated(b.n, b.arcs):
                        continue
                    if is_k_noncrossing(b, k):
                        found.add(b)
            return found

        for n in range(0, 6):
            for k in (3, 4):
                assert set(gen_braids(n, k)) == raw_braids(n, k, False), (n, k)
                assert set(gen_braids_no_isolated(n, k)) == raw_braids(n, k, True), (n, k)


class TestCountingStream:
    # count_class reads the arc stream that the generators wrap in diagrams

    @pytest.mark.parametrize("tag", sorted(GENERATORS))
    def test_count_is_the_number_generated(self, tag):
        # for B_k this checks each skeleton's weight 2^(isolated vertices)
        # against the loop expansion itself
        for k in range(2, 6):
            for n in range(0, 9):
                generated = sum(1 for _ in GENERATORS[tag](n, k))
                assert count_class(tag, k, n) == generated, (tag, k, n)

    def test_streams_are_the_crossing_number_rule(self):
        # the reference filters the set partitions, in their order, by the
        # 2-regular test where the class asks for it and then the whole
        # crossing number, and expands a skeleton's isolated vertices as
        # the braid generators do
        def reference(tag, n, k):
            shared = tag in ("B_k", "B_k_dagger")
            for p, crossing in zip(partitions_of(n), crossings[n, shared]):
                if tag == "P_k2" and not is_two_regular(p):
                    continue
                if crossing >= k:
                    continue
                free = isolated(p.n, p.arcs)
                if tag == "B_k":
                    for mask in range(1 << len(free)):
                        loops = tuple((v, v) for t, v in enumerate(free) if mask >> t & 1)
                        yield BraidDiagram(n, p.arcs + loops)
                elif tag == "B_k_dagger":
                    yield BraidDiagram(n, p.arcs + tuple((v, v) for v in free))
                else:
                    yield p

        crossings = {
            (n, shared): [crossing_number_of_arcs(p.arcs, shared) for p in partitions_of(n)]
            for n in range(0, 9)
            for shared in (False, True)
        }
        for tag, gen in GENERATORS.items():
            for k in range(2, 7):
                for n in range(0, 9):
                    expected = list(reference(tag, n, k))
                    assert list(gen(n, k)) == expected, (tag, k, n)
                    assert count_class(tag, k, n) == len(expected), (tag, k, n)

    def test_count_builds_no_diagram(self, monkeypatch):
        import noncrossing.enumeration as enumeration_module

        expected = {tag: count_class(tag, 3, 7) for tag in GENERATORS}

        def unbuilt(*args):
            raise AssertionError("a diagram was built")

        for name in ("PartitionDiagram", "BraidDiagram"):
            monkeypatch.setattr(enumeration_module, name, unbuilt)
        assert {tag: count_class(tag, 3, 7) for tag in GENERATORS} == expected
        with pytest.raises(AssertionError, match="built"):
            next(gen_braids(7, 3))

    def test_set_partitions_are_the_block_construction(self):
        # each word's blocks, joined by consecutive elements, in word order
        for n in range(0, 9):
            expected = []
            for word in restricted_growth_strings(n):
                blocks = {}
                for v, label in enumerate(word, 1):
                    blocks.setdefault(label, []).append(v)
                expected.append(partition_from_blocks(blocks.values()))
            assert list(gen_set_partitions(n)) == expected, n


class TestMembership:
    @pytest.mark.parametrize("tag", sorted(GENERATORS))
    def test_members_are_what_the_generator_yields(self, tag):
        # every partition and every braid is offered to every class, so a
        # diagram of the other type is refused along with the non-members
        for k in range(2, 6):
            for n in range(0, 8):
                members = set(GENERATORS[tag](n, k))
                offered = set(partitions_of(n) + (braids_over(n) if n <= 6 else ()))
                accepted = {d for d in offered if is_member(tag, d, n, k)}
                assert accepted == members & offered, (tag, k, n)
                if n <= 6:  # the offered diagrams hold the whole class
                    assert members <= offered, (tag, k, n)

    @pytest.mark.parametrize("tag", sorted(GENERATORS))
    def test_the_wrong_n_or_no_diagram_is_refused(self, tag):
        for n in range(0, 6):
            for d in GENERATORS[tag](n, 3):
                assert is_member(tag, d, n, 3)
                assert not is_member(tag, d, n + 1, 3) and not is_member(tag, d, n - 1, 3)
        assert not is_member(tag, None, 0, 3)
        assert not is_member(tag, ArcDiagram(2), 2, 3)


@pytest.mark.parametrize("entry", [
    lambda: require_brute_budget("bogus", 5),
    lambda: count_class("bogus", 3, 4),
    lambda: is_member("bogus", PartitionDiagram(3), 3, 3),
])
def test_unknown_class_tag_is_refused(entry):
    with pytest.raises(ValueError, match="^unknown class tag 'bogus'$"):
        entry()


class TestCountTable:
    def test_example(self):
        assert verify.count("B_k_dagger", 3, "brute", [1]) == {1: 1}

    def test_matches_golden(self, golden):
        for k in (3, 4):
            for name, tag, n_max in (
                ("partitions", "P_k", 7),
                ("2regular", "P_k2", 7),
                ("braids", "B_k", 6),
                ("braids-noiso", "B_k_dagger", 6),
            ):
                table = verify.count(tag, k, "brute", range(1, n_max + 1))
                stored = golden["counts"][f"{name}_k{k}"]
                for n, value in table.items():
                    assert str(value) == stored[str(n)], (name, k, n)

    def test_range_guard(self):
        assert bell_number(13) > BRUTE_FORCE_LIMIT
        with pytest.raises(RangeGuardError):
            verify.count("P_k", 3, "brute", range(1, 14))
