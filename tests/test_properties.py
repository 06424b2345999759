"""Property tests on random diagrams well past the exhaustive sizes:
n = 20..60, n = 100..300 for the crossing statistic, n = 200..1000 for
the two contraction routes, and one partition of [4000], from a fixed
seed and a bounded number of examples."""

import random

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from conftest import shape_rule, window_crossing
from noncrossing.diagrams import (
    BraidDiagram,
    PartitionDiagram,
    crossing_number,
    crossing_number_of_arcs,
    format_diagram,
    is_k_noncrossing,
    is_two_regular,
    isolated,
    parse_diagram,
    partition_from_blocks,
)
from noncrossing.duality import (
    RestrictedDomainError,
    contract_partition,
    contract_partition_via_tableaux,
    contract_two_regular,
    expand_braid,
    expand_braid_no_isolated,
)
from noncrossing.enumeration import is_member
from noncrossing.tableaux import diagram_to_tableau, step_pairs, tableau_to_diagram

_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def partitions(draw, sizes=(20, 60)):
    """A set partition of [n], n in sizes, in arc form: each vertex gets
    a block label, and consecutive members of a block are joined by an
    arc.  The number of labels sets how many blocks there can be."""
    n = draw(st.integers(*sizes))
    labels = draw(st.lists(st.integers(0, draw(st.integers(0, n - 1))), min_size=n, max_size=n))
    last: dict[int, int] = {}
    arcs = []
    for v, label in enumerate(labels, 1):
        if label in last:
            arcs.append((last[label], v))
        last[label] = v
    return PartitionDiagram(n, tuple(arcs))


@st.composite
def braids(draw, sizes=(20, 60)):
    """A braid over [n]: a partition's arcs, a vertex with an arc in and
    an arc out read as a crossing, and loops on some isolated vertices."""
    p = draw(partitions(sizes))
    free = isolated(p.n, p.arcs)
    looped = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
    return BraidDiagram(p.n, p.arcs + tuple((v, v) for v in looped))


@st.composite
def two_regular_partitions(draw):
    """A 2-regular partition of [n]: block labels from at least two,
    no vertex labelled as the one before it, so no arc is (i, i+1)."""
    n = draw(st.integers(20, 60))
    top = draw(st.integers(1, n - 1))
    blocks: dict[int, list[int]] = {}
    label = draw(st.integers(0, top))
    for v in range(1, n + 1):
        blocks.setdefault(label, []).append(v)
        other = draw(st.integers(0, top - 1))
        label = other + (other >= label)  # any label but this one
    return partition_from_blocks(blocks.values())


diagrams = st.one_of(partitions(), braids())


@seed(20070)
@_SETTINGS
@given(diagrams)
def test_parse_format_round_trip(d):
    n, arcs = parse_diagram(format_diagram(d))
    assert type(d)(n, arcs) == d


@seed(20071)
@_SETTINGS
@given(diagrams)
def test_tableau_scans_are_inverse(d):
    t = diagram_to_tableau(d)
    assert t.n == d.n
    assert tableau_to_diagram(t) == d
    assert diagram_to_tableau(tableau_to_diagram(t)) == t


@seed(20072)
@_SETTINGS
@given(diagrams)
def test_max_rows_is_the_crossing_number(d):
    assert diagram_to_tableau(d).max_rows() == crossing_number(d)


@seed(20081)
@settings(_SETTINGS, max_examples=30)
@given(st.one_of(partitions((100, 300)), braids((100, 300))))
def test_crossing_number_past_the_old_cost(d):
    # the sweep against the independent window DP, in both conventions,
    # and the stopping sweep on both sides of the statistic
    cross = crossing_number(d)
    assert cross == window_crossing(d.arcs, d.shared_endpoint)
    other = not d.shared_endpoint
    assert crossing_number_of_arcs(d.arcs, other) == window_crossing(d.arcs, other)
    for k in {2, cross, cross + 1} - {0, 1}:
        assert is_k_noncrossing(d, k) == (cross < k)


def test_crossing_number_at_n_4000():
    # the size of the timing row in the ROADMAP: a partition of [4000]
    # from 1333 random block labels, 2,745 arcs and 56 rows, read
    # as a partition and as a braid; the tableau's row count is the same
    # algorithm run right to left
    rng = random.Random(4000)
    blocks = {}
    for v in range(1, 4001):
        blocks.setdefault(rng.randrange(4000 // 3), []).append(v)
    p = partition_from_blocks(blocks.values())
    assert 2600 < len(p.arcs) < 2800
    for d in (p, BraidDiagram(p.n, p.arcs)):
        cross = crossing_number(d)
        assert cross == diagram_to_tableau(d).max_rows() > 40
        assert not is_k_noncrossing(d, cross) and is_k_noncrossing(d, cross + 1)


@seed(20073)
@_SETTINGS
@given(partitions())
def test_direct_route_equals_tableau_route(p):
    b = contract_partition(p)
    assert contract_partition_via_tableaux(p) == b
    assert b.n == p.n - 1


@seed(20074)
@_SETTINGS
@given(braids())
def test_tableau_route_inverts_expansion(b):
    assert contract_partition_via_tableaux(expand_braid(b)) == b


@seed(20078)
@settings(_SETTINGS, max_examples=15)
@given(partitions((200, 1000)))
def test_direct_route_equals_tableau_route_past_the_exhaustive_sizes(p):
    assert contract_partition_via_tableaux(p) == contract_partition(p)


@seed(20079)
@settings(_SETTINGS, max_examples=15)
@given(braids((200, 1000)))
def test_tableau_route_inverts_expansion_past_the_exhaustive_sizes(b):
    assert contract_partition_via_tableaux(expand_braid(b)) == b


@seed(20080)
@_SETTINGS
@given(partitions())
def test_shape_rule_states_the_witness_step(p):
    # the braid tableau of the image is the paper's shape rule applied to
    # the partition tableau
    shapes = diagram_to_tableau(p).shapes
    assert diagram_to_tableau(contract_partition(p)).shapes == shape_rule(shapes)


@seed(20075)
@_SETTINGS
@given(two_regular_partitions())
def test_restricted_bijection_round_trips(p):
    # k one more than the crossing number puts every draw in the domain,
    # and k equal to it, from 2 on, puts it out
    assert is_two_regular(p)
    crossing = crossing_number(p)
    k = max(2, crossing + 1)
    image = contract_two_regular(p, k)
    assert is_member("B_k_dagger", image, p.n - 1, k)
    assert expand_braid_no_isolated(image, k) == p
    if crossing >= 2:
        with pytest.raises(RestrictedDomainError):
            contract_two_regular(p, crossing)


@seed(20076)
@_SETTINGS
@given(partitions())
def test_adjacent_arcs_are_row_one_steps(p):
    # (i, i+1) is an arc exactly when vertex i's even half-step adds at
    # row 1 and vertex i+1's odd half-step removes there
    pairs = step_pairs(diagram_to_tableau(p))
    for i in range(1, p.n):
        adjacent = pairs[i - 1][1] == ("+", 1) and pairs[i][0] == ("-", 1)
        assert ((i, i + 1) in p.arcs) == adjacent, i


@seed(20077)
@_SETTINGS
@given(braids())
def test_loops_are_row_one_steps(b):
    # (i, i) is a loop exactly when vertex i adds at row 1 and removes there
    pairs = step_pairs(diagram_to_tableau(b))
    for i in range(1, b.n + 1):
        assert ((i, i) in b.arcs) == (pairs[i - 1] == (("+", 1), ("-", 1))), i
