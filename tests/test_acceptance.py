"""Acceptance criteria.

Each test prints one ``criterion N (...): PASS|FAIL`` line (visible with
``pytest -s`` or on failure).  Criterion 8 is split: the asymptotic
constants and estimate quality, and the leading constant.  The exact
data reproduce K = 327680*sqrt(3)/(27*pi) = 6691.0908... (walks.EXACT_K);
the published value 6686.408973 (walks.REFERENCE_K) is low by a
relative 7.0e-4 and is checked only as an erratum.  See the asymptotics
entries of testdata/golden.json for the frozen measurements.
"""

import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

from conftest import braids_over, partitions_of
from noncrossing.diagrams import (
    BraidDiagram,
    PartitionDiagram,
    is_k_noncrossing,
)
from noncrossing.duality import (
    contract_partition,
    contract_partition_via_tableaux,
    contract_two_regular,
    expand_braid_no_isolated,
)
from noncrossing.enumeration import gen_2regular_k, gen_braids, gen_braids_no_isolated
from noncrossing.tableaux import diagram_to_tableau, tableau_to_diagram
from noncrossing.walks import (
    EXACT_K,
    REFERENCE_K,
    asymptotic_estimate,
    fit_leading_constant,
    kernel_residual,
    kernel_root_series,
    kernel_symmetry_holds,
    quadrant_walk_counts,
    rho3_closed_form,
    rho3_kernel_ct,
    rho3_recurrence,
    root_power_coefficient,
    solve_asymptotics,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def significant_figures(value, digits: int) -> str:
    return f"{float(value):.{digits}g}"


def neville_at_zero(xs, ys):
    """Value at 0 of the interpolating polynomial through (xs[i], ys[i])."""
    p = list(ys)
    for d in range(1, len(xs)):
        for i in range(len(xs) - d):
            p[i] = (xs[i + d] * p[i] - xs[i] * p[i + 1]) / (xs[i + d] - xs[i])
    return p[0]


def test_criterion_1_duality_cardinality():
    with criterion(1, "duality cardinality and injectivity"):
        started = time.perf_counter()
        for k in (3, 4):
            for n in range(2, 10):
                parts = [p for p in partitions_of(n) if is_k_noncrossing(p, k)]
                braids = set(gen_braids(n - 1, k))
                assert len(parts) == len(braids), (k, n)
                images = {contract_partition(p) for p in parts}
                assert len(images) == len(parts), (k, n)
                assert images <= braids, (k, n)
        assert time.perf_counter() - started < 120


def test_criterion_2_route_agreement():
    with criterion(2, "tableau route equals direct route"):
        for n in range(1, 8):
            for p in partitions_of(n):
                if not is_k_noncrossing(p, 3):
                    continue
                assert contract_partition_via_tableaux(p) == contract_partition(p), p


def test_criterion_3_restriction_onto_dense_braids():
    with criterion(3, "restricted bijection onto braids without isolated points"):
        for k in (3, 4):
            for n in range(2, 10):
                image = set()
                for p in gen_2regular_k(n, k):
                    b = contract_two_regular(p, k)
                    assert expand_braid_no_isolated(b, k) == p
                    image.add(b)
                assert image == set(gen_braids_no_isolated(n - 1, k)), (k, n)
        # the documented boundary case: the all-singleton partition maps
        # to the looped vertex, keeping the count identity at n = 2
        assert contract_two_regular(PartitionDiagram(2), 3) == BraidDiagram(1, ((1, 1),))


def test_criterion_4_four_route_equality():
    with criterion(4, "four-route equality for the braid count"):
        table = rho3_recurrence(300)
        for n in range(1, 9):
            brute = sum(1 for _ in gen_braids_no_isolated(n, 3))
            assert brute == rho3_kernel_ct(n) == rho3_closed_form(n) == table[n]
        for n in (50, 150, 300):
            assert rho3_closed_form(n) == table[n]


def test_criterion_5_reflection_principle():
    with criterion(5, "reflection principle walk counts"):
        table = rho3_recurrence(12)
        for n in range(1, 13):
            a, b = quadrant_walk_counts(n)
            assert a - b == table[n], n


def test_criterion_6_row_bound_and_round_trips():
    with criterion(6, "tableau row bound and round trips"):
        for n in range(0, 9):
            for p in partitions_of(n):
                t = diagram_to_tableau(p)
                assert tableau_to_diagram(t) == p
                for k in (3, 4):
                    assert (t.max_rows() < k) == is_k_noncrossing(p, k), (p, k)
            for b in braids_over(n):
                t = diagram_to_tableau(b)
                assert tableau_to_diagram(t) == b
                for k in (3, 4):
                    assert (t.max_rows() < k) == is_k_noncrossing(b, k), (b, k)


def test_criterion_7_series_identities():
    with criterion(7, "kernel series identities"):
        y40 = kernel_root_series(40)
        assert kernel_residual(y40).is_zero()
        assert kernel_symmetry_holds()
        assert [y40.coefficient(2, e) for e in range(-2, 3)] == [0, 0, 1, 1, 0]
        assert [y40.coefficient(4, e) for e in range(-2, 4)] == [0, 1, 3, 3, 1, 0]
        for n in range(0, 11):
            y = kernel_root_series(2 * n + 2)
            powers = {1: y, 2: y * y}
            powers[3] = powers[2] * y
            for k in (1, 2, 3):
                for m in range(-5, 6):
                    assert powers[k].coefficient(2 * n + 2, m) == (
                        root_power_coefficient(k, m, n)
                    ), (k, m, n)


def test_criterion_8_asymptotic_constants(golden):
    with criterion(8, "asymptotic constants and estimate quality"):
        params = solve_asymptotics()
        assert params.base == 8
        assert params.exponent == -7
        assert params.c1 == -28
        c2 = Decimal(params.c2.numerator) / Decimal(params.c2.denominator)
        c3 = Decimal(params.c3.numerator) / Decimal(params.c3.denominator)
        assert f"{c2:.5f}" == "455.77778"
        assert f"{c3:.6f}" == "-5651.160494"

        table = rho3_recurrence(200)
        errors = {
            n: abs(asymptotic_estimate(n) / Decimal(table[n]) - 1)
            for n in (50, 100, 200)
        }
        assert errors[200] < errors[100] < errors[50]
        frozen = Decimal(golden["asymptotics"]["frozen_tolerance_n200"])
        assert errors[200] < frozen


def test_criterion_8_reference_constant():
    """The exact data reproduce the leading constant of the asymptotic law.

    fit_leading_constant(200) = 6691.36... matches EXACT_K = 6691.0908...
    to four significant figures.  Neville extrapolation in 1/n of the
    exact rho3(n) * n^7 / 8^n over n = 1000, 1050, ..., 2000 matches it
    to more than 40 digits (about 47).  The published constant
    6686.408973 (REFERENCE_K) stays on record as an erratum: it agrees
    with EXACT_K to three significant figures and not to four.
    """
    with criterion(8, "leading constant reproduced; published value an erratum"):
        fit = fit_leading_constant(200)
        assert significant_figures(fit, 4) == significant_figures(EXACT_K, 4), (
            f"fit at 200 is {fit}, exact constant is {EXACT_K}"
        )

        table = rho3_recurrence(2000)
        probes = range(1000, 2001, 50)
        limit = neville_at_zero(
            [Fraction(1, n) for n in probes],
            [Fraction(table[n] * n**7, 8**n) for n in probes],
        )
        assert abs(limit / Fraction(EXACT_K) - 1) < Fraction(1, 10**40), (
            f"extrapolated limit {float(limit)!r}, exact constant {EXACT_K}"
        )

        erratum = f"published constant {REFERENCE_K}, exact constant {EXACT_K}"
        assert significant_figures(REFERENCE_K, 3) == significant_figures(EXACT_K, 3), erratum
        assert significant_figures(REFERENCE_K, 4) != significant_figures(EXACT_K, 4), erratum


def test_criterion_9_exact_division_to_1000():
    with criterion(9, "recurrence divisions exact to n=1000"):
        table = rho3_recurrence(1000)  # RecurrenceError on any inexact step
        assert len(table) == 1000
        assert table[1000] > 0
        assert rho3_closed_form(250) == table[250]
