"""Contraction duality: direct route, tableau route, restriction."""

import pytest

from conftest import partitions_of
from noncrossing.diagrams import (
    BraidDiagram,
    PartitionDiagram,
    crossing_number,
    is_k_noncrossing,
    isolated,
)
from noncrossing.duality import (
    RestrictedDomainError,
    contract_partition,
    contract_partition_via_tableaux,
    contract_two_regular,
    expand_braid,
    expand_braid_no_isolated,
)
from noncrossing.enumeration import gen_2regular_k, gen_braids, gen_braids_no_isolated
from noncrossing.tableaux import diagram_to_tableau


class TestDirect:
    @pytest.mark.parametrize(
        "p,b",
        [
            (PartitionDiagram(2, ((1, 2),)), BraidDiagram(1, ((1, 1),))),
            (PartitionDiagram(5), BraidDiagram(4)),
            (
                PartitionDiagram(4, ((1, 3), (2, 4))),
                BraidDiagram(3, ((1, 2), (2, 3))),
            ),
        ],
    )
    def test_examples_both_ways(self, p, b):
        assert contract_partition(p) == b
        assert expand_braid(b) == p

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            contract_partition(PartitionDiagram(0))

    def test_single_vertex_contracts_to_empty(self):
        assert contract_partition(PartitionDiagram(1)) == BraidDiagram(0)

    def test_arc_property_exhaustive(self):
        for n in range(1, 10):
            for p in partitions_of(n):
                image = contract_partition(p)
                assert set(image.arcs) == {(i, j - 1) for i, j in p.arcs}
                assert expand_braid(image) == p

    def test_crossing_number_preserved(self):
        for n in range(1, 9):
            for p in partitions_of(n):
                image = contract_partition(p)
                assert crossing_number(image) == crossing_number(p)
                for k in (3, 4):
                    assert is_k_noncrossing(p, k) == is_k_noncrossing(image, k)

    def test_bijectivity(self):
        for k in (3, 4):
            for n in range(1, 9):
                parts = [p for p in partitions_of(n) if is_k_noncrossing(p, k)]
                images = {contract_partition(p) for p in parts}
                assert len(images) == len(parts)
                assert images == set(gen_braids(n - 1, k))

    def test_origin_endpoint_shift(self):
        for n in range(1, 8):
            for p in partitions_of(n):
                image = contract_partition(p)
                for j in range(1, n):
                    assert (j in {s for s, _ in p.arcs}) == (j in {s for s, _ in image.arcs})
                    assert (j + 1 in {e for _, e in p.arcs}) == (j in {e for _, e in image.arcs})


class TestTableauRoute:
    def test_examples(self):
        assert contract_partition_via_tableaux(
            PartitionDiagram(2, ((1, 2),))
        ) == BraidDiagram(1, ((1, 1),))
        assert contract_partition_via_tableaux(PartitionDiagram(1)) == BraidDiagram(0)

    def test_agreement_exhaustive(self):
        for n in range(1, 8):
            for p in partitions_of(n):
                assert contract_partition_via_tableaux(p) == contract_partition(p), p

    def test_intermediate_shape_interleaving(self):
        # the shapes of the braid tableau, reached by the direct route and
        # not by the witness's shape rule, interleave with the partition
        # tableau's: even positions repeat the odd source shapes, and odd
        # positions agree with a neighbouring source shape whenever they
        # differ from the one in between
        for n in range(2, 6):
            for p in partitions_of(n):
                src = diagram_to_tableau(p).shapes
                mid = diagram_to_tableau(contract_partition(p)).shapes
                assert mid[2 * (n - 1)] == src[2 * n - 1] == ()
                for j in range(1, n):
                    assert mid[2 * j] == src[2 * j + 1]
                for j in range(0, n - 1):
                    if mid[2 * j + 1] != src[2 * j + 2]:
                        assert mid[2 * j + 1] in (src[2 * j + 1], src[2 * j + 3])


class TestRestricted:
    def test_examples(self):
        assert contract_two_regular(PartitionDiagram(3, ((1, 3),)), 3) == BraidDiagram(
            2, ((1, 2),)
        )
        assert contract_two_regular(PartitionDiagram(4, ((1, 3), (2, 4))), 3) == (
            BraidDiagram(3, ((1, 2), (2, 3)))
        )

    def test_boundary_all_singletons(self):
        # the contracted image of the singleton partition is all isolated
        # points; the restricted map loops them, landing on the unique
        # braid without isolated points over [1]
        assert contract_two_regular(PartitionDiagram(2), 3) == BraidDiagram(1, ((1, 1),))
        assert expand_braid_no_isolated(BraidDiagram(1, ((1, 1),)), 3) == PartitionDiagram(2)

    def test_domain_errors(self):
        with pytest.raises(RestrictedDomainError):
            contract_two_regular(PartitionDiagram(2, ((1, 2),)), 3)
        crossing = PartitionDiagram(6, ((1, 4), (2, 5), (3, 6)))
        with pytest.raises(RestrictedDomainError):
            contract_two_regular(crossing, 3)
        with pytest.raises(RestrictedDomainError):
            expand_braid_no_isolated(BraidDiagram(2, ((1, 1),)), 3)
        with pytest.raises(RestrictedDomainError):
            expand_braid_no_isolated(BraidDiagram(5, ((1, 3), (2, 4), (3, 5))), 3)

    def test_set_equality_and_round_trip(self):
        for k in (3, 4):
            for n in range(2, 9):
                image = set()
                for p in gen_2regular_k(n, k):
                    b = contract_two_regular(p, k)
                    assert not isolated(b.n, b.arcs)
                    assert is_k_noncrossing(b, k)
                    assert expand_braid_no_isolated(b, k) == p
                    image.add(b)
                assert image == set(gen_braids_no_isolated(n - 1, k))


@pytest.mark.parametrize("route,k,wrong,right", [
    (contract_partition, None, BraidDiagram(3, ((1, 3),)), PartitionDiagram(3, ((1, 3),))),
    (contract_two_regular, 3, BraidDiagram(3, ((1, 3),)), PartitionDiagram(3, ((1, 3),))),
    (contract_partition_via_tableaux, None, BraidDiagram(4, ((1, 2), (2, 4), (3, 3))),
     PartitionDiagram(4, ((1, 2), (2, 4)))),
    (expand_braid, None, PartitionDiagram(3, ((1, 3),)), BraidDiagram(3, ((1, 3),))),
    (expand_braid_no_isolated, 3, PartitionDiagram(2, ((1, 2),)), BraidDiagram(2, ((1, 2),))),
], ids=["contract_partition", "contract_two_regular", "contract_partition_via_tableaux",
        "expand_braid", "expand_braid_no_isolated"])
def test_each_map_takes_only_its_own_diagram_type(route, k, wrong, right):
    # contractions take partitions and expansions braids; a diagram of
    # the other class is refused by type, a subclass of the right one is
    # that class
    args = () if k is None else (k,)
    with pytest.raises(TypeError) as err:
        route(wrong, *args)
    assert str(err.value) == f"expected a {type(right).__name__}, got {type(wrong).__name__}"
    sub = type("Sub", (type(right),), {})(right.n, right.arcs)
    assert route(sub, *args) == route(right, *args)
