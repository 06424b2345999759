"""The contraction duality between partitions over [n] and braids over [n-1].

The direct map sends every arc (i, j) of a partition to (i, j-1): arcs
between adjacent vertices contract to loops, and a vertex that ends one
arc and starts another acquires the braid crossing convention.  The map
is a bijection onto the braids over [n-1] and preserves the crossing
number.

An independently coded witness route computes the same map through
vacillating tableaux: it re-brackets the partition's half-steps into
braid step pairs and fills them.  This is the half-step construction of
Chen, Deng, Du, Stanley and Yan.  Re-bracketing the 2n half-steps of the
partition tableau by one vertex makes braid vertex i the even half of
partition vertex i (add or nothing), then the odd half of vertex i+1
(remove or nothing).  The first odd and the last even half-steps do
nothing, so re-bracketing drops them.  Swapping each pair into braid
order moves a lone add to the even slot, (add, nothing) becoming
(nothing, add), and a lone remove to the odd slot, (nothing, remove)
becoming (remove, nothing).  Only (add, remove) keeps its order.  The
route takes the half-steps from the one right-to-left scan of
``tableaux`` and hands the pairs to its one fill, which checks each
pair and half-step; it builds and decodes no shape.

Stated on shapes, this is the paper's rule.  Let s^0 .. s^2n be the
partition tableau.  Its shapes s^1 .. s^(2n-1) form the braid tableau,
except that for braid vertex i, with corners a = s^(2i-1) and
c = s^(2i+1), the middle b = s^(2i) is kept only when it is larger than
both a and c; otherwise it becomes the smaller of a and c.  A swap
keeps a and c, and the middle becomes a for a lone add and c for a lone
remove, in each case the smaller corner.  Shapes at most one square apart order as tuples as they
do by size, so the rule compares tuples.  The tests hold the rule, as
the statement of the step on shapes, against the tableau of the direct
route's image.  The two routes share nothing beyond the diagram types;
their agreement is the module's central cross-validation contract.

Contractions take partitions and expansions braids; each map refuses a
diagram of the other class with TypeError, and takes subclasses.

Restricted to partitions without adjacent-vertex arcs, contraction
produces a loop-free image; looping every isolated image vertex then
lands exactly on the braids without isolated points, which is how the
count of such partitions reduces to the braid count.
"""

from __future__ import annotations

from .diagrams import BraidDiagram, PartitionDiagram, is_k_noncrossing, is_two_regular, isolated
from .tableaux import BRAID_STEPS, _fill, _half_steps


class RestrictedDomainError(ValueError):
    """Input is outside the domain of the restricted bijection."""


def _require(d: object, cls: type) -> None:
    """Refuse anything but a cls diagram, subclasses included, as
    diagrams._require_diagram admits them."""
    if not isinstance(d, cls):
        raise TypeError(f"expected a {cls.__name__}, got {type(d).__name__}")


# -- direct route ---------------------------------------------------------------


def _contracted(p: PartitionDiagram) -> tuple[int, tuple[tuple[int, int], ...]]:
    """n - 1 and the arcs (i, j-1) of p.  Requires n >= 1."""
    if p.n < 1:
        raise ValueError("contraction needs at least one vertex")
    return p.n - 1, tuple((i, j - 1) for i, j in p.arcs)


def contract_partition(p: PartitionDiagram) -> BraidDiagram:
    """Map arcs (i, j) to (i, j-1), dropping vertex n.  Requires n >= 1."""
    _require(p, PartitionDiagram)
    return BraidDiagram(*_contracted(p))


def expand_braid(b: BraidDiagram) -> PartitionDiagram:
    """Inverse of contract_partition: arcs (i, j) become (i, j+1)."""
    _require(b, BraidDiagram)
    return PartitionDiagram(b.n + 1, tuple((i, j + 1) for i, j in b.arcs))


# -- tableau route --------------------------------------------------------------


def contract_partition_via_tableaux(p: PartitionDiagram) -> BraidDiagram:
    """Witness route: the half-steps of the partition's one right-to-left
    scan, re-bracketed into braid step pairs and filled into the braid,
    building and decoding no shape.  _fill checks every pair and
    half-step it fills.  The shape rule of the module docstring is this
    step stated on shapes; the tests hold it, the route does not run it.
    Equals contract_partition on every input; coded independently so
    the two can be checked against each other.
    """
    _require(p, PartitionDiagram)
    if p.n < 1:
        raise ValueError("contraction needs at least one vertex")
    # braid vertex i is partition half-step 2i (add or nothing), then
    # 2i + 1 (remove or nothing); half-steps 1 and 2n do nothing
    inner = iter(_half_steps(p)[1:-1])
    pairs = [(None, add) if remove is None else (remove, None) if add is None else (add, remove)
             for add, remove in zip(inner, inner)]
    return _fill(p.n - 1, pairs, BRAID_STEPS)


# -- restriction to 2-regular partitions -----------------------------------------


def contract_two_regular(p: PartitionDiagram, k: int) -> BraidDiagram:
    """Bijection from 2-regular k-noncrossing partitions over [n] onto the
    k-noncrossing braids over [n-1] without isolated points.

    The contracted arcs of a 2-regular partition hold no loop; they and
    a loop on each vertex they leave isolated are the braid, built once.
    Inputs outside the domain are rejected, not silently mapped.
    """
    _require(p, PartitionDiagram)
    if not is_two_regular(p):
        raise RestrictedDomainError("partition has an adjacent-vertex arc")
    if not is_k_noncrossing(p, k):
        raise RestrictedDomainError(f"partition is not {k}-noncrossing")
    n, arcs = _contracted(p)
    return BraidDiagram(n, arcs + tuple((v, v) for v in isolated(n, arcs)))


def expand_braid_no_isolated(b: BraidDiagram, k: int) -> PartitionDiagram:
    """Inverse of contract_two_regular: the braid's arcs other than its
    loops, expanded, built once."""
    _require(b, BraidDiagram)
    if isolated(b.n, b.arcs):
        raise RestrictedDomainError("braid has isolated points")
    if not is_k_noncrossing(b, k):
        raise RestrictedDomainError(f"braid is not {k}-noncrossing")
    return PartitionDiagram(b.n + 1, tuple((i, j + 1) for i, j in b.arcs if i != j))
