"""Exact enumeration of crossing-restricted set partitions and braids.

The package models set partitions and braids as arc diagrams, converts
them to and from vacillating tableaux, implements the contraction
duality between partitions over [n] and braids over [n-1], enumerates
every class exhaustively, and evaluates the count of 3-noncrossing
braids without isolated points by five routes (brute force, kernel
constant term, closed-form binomial sum, quadrant walks, P-recurrence)
together with its asymptotic law.  The closed form expands the kernel
route's prefactors by Lagrange inversion; the recurrence is seeded with
the closed form at n = 1, 2 and its table was found from the terms, so
it is checked against the closed form but does not stand apart from it.
"""

__version__ = "0.1.0"

from .diagrams import (
    ArcDiagram,
    BraidDiagram,
    InvalidDiagramError,
    PartitionDiagram,
    crossing_number,
    diagram_svg,
    format_diagram,
    is_k_noncrossing,
    is_two_regular,
    parse_diagram,
    partition_from_blocks,
)
from .duality import (
    RestrictedDomainError,
    contract_partition,
    contract_partition_via_tableaux,
    contract_two_regular,
    expand_braid,
    expand_braid_no_isolated,
)
from .enumeration import (
    RangeGuardError,
    bell_number,
    gen_2regular_k,
    gen_braids,
    gen_braids_no_isolated,
    gen_partitions_k,
    gen_set_partitions,
)
from .tableaux import (
    BRAID_STEPS,
    PARTITION_STEPS,
    MalformedTableauError,
    VacillatingTableau,
    diagram_to_tableau,
    step_pairs,
    tableau_to_diagram,
    validate_tableau,
)
from .walks import (
    EXACT_K,
    REFERENCE_K,
    RecurrenceError,
    asymptotic_estimate,
    fit_leading_constant,
    kernel_root_series,
    quadrant_walk_counts,
    rho3_closed_form,
    rho3_kernel_ct,
    rho3_recurrence,
    root_power_coefficient,
    solve_asymptotics,
)
