"""Property tests on random diagrams well past the exhaustive sizes:
n = 20..60, from a fixed seed and a bounded number of examples."""

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from noncrossing.diagrams import (
    BraidDiagram,
    PartitionDiagram,
    braid_crossing_number,
    format_diagram,
    parse_diagram,
    partition_crossing_number,
)
from noncrossing.duality import contract_partition, contract_partition_via_tableaux
from noncrossing.tableaux import diagram_to_tableau, tableau_to_diagram

_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def partitions(draw):
    """A set partition of [n] in arc form: each vertex gets a block
    label, and consecutive members of a block are joined by an arc.  The
    number of labels sets how many blocks there can be."""
    n = draw(st.integers(20, 60))
    labels = draw(st.lists(st.integers(0, draw(st.integers(0, n - 1))), min_size=n, max_size=n))
    last: dict[int, int] = {}
    arcs = []
    for v, label in enumerate(labels, 1):
        if label in last:
            arcs.append((last[label], v))
        last[label] = v
    return PartitionDiagram(n, tuple(arcs))


@st.composite
def braids(draw):
    """A braid over [n]: a partition's arcs, a vertex with an arc in and
    an arc out read as a crossing, and loops on some isolated vertices."""
    p = draw(partitions())
    isolated = p.isolated_vertices()
    looped = draw(st.lists(st.sampled_from(isolated), unique=True)) if isolated else []
    return BraidDiagram(p.n, p.arcs + tuple((v, v) for v in looped))


diagrams = st.one_of(partitions(), braids())


def _crossing_number(d):
    if isinstance(d, PartitionDiagram):
        return partition_crossing_number(d)
    return braid_crossing_number(d)


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
    assert diagram_to_tableau(d).max_rows() == _crossing_number(d)


@seed(20073)
@_SETTINGS
@given(partitions())
def test_direct_route_equals_tableau_route(p):
    b = contract_partition(p)
    assert contract_partition_via_tableaux(p) == b
    assert b.n == p.n - 1
