"""Streams and counting oracles."""

from itertools import combinations

import pytest

from noncrossing import verify
from noncrossing.diagrams import (
    BraidDiagram,
    InvalidDiagramError,
    PartitionDiagram,
    is_k_noncrossing,
)
from noncrossing.enumeration import (
    BRUTE_FORCE_LIMIT,
    RangeGuardError,
    bell_number,
    gen_2regular_k,
    gen_braids,
    gen_braids_no_isolated,
    gen_partitions_k,
    gen_set_partitions,
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
        assert words == sorted(words)
        assert len(words) == len(set(words)) == bell_number(4)

    def test_growth_condition(self):
        for word in restricted_growth_strings(6):
            assert word[0] == 0
            for pos in range(1, 6):
                assert word[pos] <= max(word[:pos]) + 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            next(restricted_growth_strings(-1))


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
        real = enumeration_module.crossing_number_of_arcs

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(enumeration_module, "crossing_number_of_arcs", counted)
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
            assert set(dense) == {b for b in braids if not b.isolated_vertices()}

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
                    if need_cover and b.isolated_vertices():
                        continue
                    if is_k_noncrossing(b, k):
                        found.add(b)
            return found

        for n in range(0, 6):
            for k in (3, 4):
                assert set(gen_braids(n, k)) == raw_braids(n, k, False), (n, k)
                assert set(gen_braids_no_isolated(n, k)) == raw_braids(n, k, True), (n, k)


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
