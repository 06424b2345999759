"""The contraction duality between partitions over [n] and braids over [n-1].

The direct map sends every arc (i, j) of a partition to (i, j-1): arcs
between adjacent vertices contract to loops, and a vertex that ends one
arc and starts another acquires the braid crossing convention.  The map
is a bijection onto the braids over [n-1] and preserves the crossing
number.

An independently coded witness route computes the same map through
vacillating tableaux: convert the partition to its tableau, re-bracket
the 2n half-steps with an offset of one (dropping the leading and
trailing do-nothings), swap each resulting pair into braid order unless
it is (add, remove), and convert the braid tableau back to a diagram.
The two routes share nothing beyond the shape type; their agreement is
the module's central cross-validation contract.

Restricted to partitions without adjacent-vertex arcs, contraction
produces a loop-free image; looping every isolated image vertex then
lands exactly on the braids without isolated points, which is how the
count of such partitions reduces to the braid count.
"""

from __future__ import annotations

from .diagrams import (
    BraidDiagram,
    PartitionDiagram,
    is_k_noncrossing,
    is_two_regular,
    loop_isolated_vertices,
    strip_loops,
)
from .tableaux import (
    BRAID_STEPS,
    StepPair,
    diagram_to_tableau,
    step_pairs,
    tableau_from_step_pairs,
    tableau_to_diagram,
)


class RestrictedDomainError(ValueError):
    """Input is outside the domain of the restricted bijection."""


# -- direct route ---------------------------------------------------------------


def contract_partition(p: PartitionDiagram) -> BraidDiagram:
    """Map arcs (i, j) to (i, j-1), dropping vertex n.  Requires n >= 1."""
    if p.n < 1:
        raise ValueError("contraction needs at least one vertex")
    return BraidDiagram(p.n - 1, tuple((i, j - 1) for i, j in p.arcs))


def expand_braid(b: BraidDiagram) -> PartitionDiagram:
    """Inverse of contract_partition: arcs (i, j) become (i, j+1)."""
    return PartitionDiagram(b.n + 1, tuple((i, j + 1) for i, j in b.arcs))


# -- tableau route --------------------------------------------------------------


def shift_half_steps(pairs: tuple[StepPair, ...]) -> tuple[StepPair, ...]:
    """Re-bracket a partition pair sequence with an offset of one vertex.

    Output pair i is (even half of vertex i, odd half of vertex i+1);
    requires the first odd and last even half-steps to be do-nothings,
    which every partition tableau satisfies, so the map is invertible.
    """
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    if pairs[0][0] is not None or pairs[-1][1] is not None:
        raise ValueError("sequence must start and end with a do-nothing half-step")
    return tuple((pairs[i][1], pairs[i + 1][0]) for i in range(len(pairs) - 1))


_SWAP_EXEMPT = ("+", "-")  # the (add, remove) pair keeps its order


def reorder_pairs(pairs: tuple[StepPair, ...]) -> tuple[StepPair, ...]:
    """Swap each pair into braid order, fixing (add, remove) pairs.

    Admissible inputs are the re-bracketed pairs: (none, none),
    (add, none), (none, remove), (add, remove).  Applying the swap twice
    restores every swapped pair.
    """
    out = []
    for a, b in pairs:
        kinds = (a[0] if a else None, b[0] if b else None)
        if kinds not in ((None, None), ("+", None), (None, "-"), _SWAP_EXEMPT):
            raise ValueError(f"pair ({a}, {b}) is outside the admissible set")
        out.append((a, b) if kinds == _SWAP_EXEMPT else (b, a))
    return tuple(out)


def contract_partition_via_tableaux(p: PartitionDiagram) -> BraidDiagram:
    """Witness route: tableau, half-step surgery, tableau, diagram.

    Equals contract_partition on every input; coded independently so the
    two can be checked against each other.
    """
    if p.n < 1:
        raise ValueError("contraction needs at least one vertex")
    braid_pairs = reorder_pairs(shift_half_steps(step_pairs(diagram_to_tableau(p))))
    return tableau_to_diagram(tableau_from_step_pairs(braid_pairs, BRAID_STEPS))


# -- restriction to 2-regular partitions -----------------------------------------


def contract_two_regular(p: PartitionDiagram, k: int) -> BraidDiagram:
    """Bijection from 2-regular k-noncrossing partitions over [n] onto the
    k-noncrossing braids over [n-1] without isolated points.

    The contracted image of a 2-regular partition is loop-free; reading
    it as a partition and looping its isolated vertices produces the
    braid.  Inputs outside the domain are rejected, not silently mapped.
    """
    if not is_two_regular(p):
        raise RestrictedDomainError("partition has an adjacent-vertex arc")
    if not is_k_noncrossing(p, k):
        raise RestrictedDomainError(f"partition is not {k}-noncrossing")
    contracted = contract_partition(p)
    if contracted.loops():
        raise RestrictedDomainError("2-regular input cannot contract to loops")
    return loop_isolated_vertices(PartitionDiagram(contracted.n, contracted.arcs))


def expand_braid_no_isolated(b: BraidDiagram, k: int) -> PartitionDiagram:
    """Inverse of contract_two_regular."""
    if b.isolated_vertices():
        raise RestrictedDomainError("braid has isolated points")
    if not is_k_noncrossing(b, k):
        raise RestrictedDomainError(f"braid is not {k}-noncrossing")
    flat = strip_loops(b)
    return PartitionDiagram(b.n + 1, tuple((i, j + 1) for i, j in flat.arcs))
