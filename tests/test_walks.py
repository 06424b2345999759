"""The kernel root and its dense rows, counting routes, asymptotics."""

import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial, isclose, pi, sqrt

import pytest

from conftest import schoolbook, trimmed
from noncrossing.enumeration import gen_braids_no_isolated
from noncrossing.walks import (
    _CLOSED_FORM_GAPS,
    _CLOSED_FORM_TERMS,
    _RHO3_RECURRENCE,
    EXACT_K,
    REFERENCE_K,
    RecurrenceError,
    RowSeries,
    _certainly_too_long,
    _pack,
    _rho3_terms,
    _slot_bytes,
    _triple_sums,
    _unpack,
    asymptotic_estimate,
    fit_leading_constant,
    kernel_residual,
    kernel_root_series,
    kernel_symmetry_holds,
    quadrant_walk_counts,
    recurrence_weights,
    rho3_closed_form,
    rho3_kernel_ct,
    rho3_recurrence,
    root_power_coefficient,
    series_solution,
    solve_asymptotics,
)


def x_terms(series, t_exponent, span=range(-10, 11)):
    """The nonzero coefficients of t^t_exponent in series, by x-exponent."""
    return {e: c for e in span if (c := series.coefficient(t_exponent, e))}


class TestKernelRoot:
    def test_leading_terms(self):
        y = kernel_root_series(4)
        assert x_terms(y, 2) == {0: 1, 1: 1}
        # x(x+1)(1/x+1)^2 expanded
        assert x_terms(y, 4) == {-1: 1, 0: 3, 1: 3, 2: 1}

    def test_kernel_identity(self):
        for order in range(2, 62, 2):
            assert kernel_residual(kernel_root_series(order)).is_zero(), order

    def test_positive_coefficients(self):
        y = kernel_root_series(24)
        assert y.rows[0] == []
        # W_i = [s^i] W has degree 2i - 1, and no coefficient up to it vanishes
        for i, row in enumerate(y.rows[1:], 1):
            assert len(row) == 2 * i and all(c > 0 for c in row), i

    def test_order_validation(self):
        with pytest.raises(ValueError):
            kernel_root_series(0)
        with pytest.raises(ValueError):
            kernel_root_series(7)

    def test_lower_orders_are_prefixes(self):
        full = kernel_root_series(40)
        for m in range(1, 20):
            assert kernel_root_series(2 * m).rows == full.rows[: m + 1], m

    def test_coefficient_beyond_the_order_is_refused(self):
        y = kernel_root_series(4)
        assert y.coefficient(3, 0) == 0 and y.coefficient(-2, 0) == 0
        with pytest.raises(ValueError):
            y.coefficient(6, 0)

    def test_fixed_point_guard_is_live(self, monkeypatch):
        import noncrossing.walks as walks_module

        # corrupts the online pass only: the x = 1 pass that sizes its slots
        # reads zero, so they shrink to one byte, too narrow for W_5 and W_6,
        # and coefficients carry into their neighbours; the check packs with
        # a width of its own
        online = walks_module._online_pass
        monkeypatch.setattr(
            walks_module, "_online_pass", lambda h, bits: online(h, bits) if bits else ([0], [0])
        )
        with pytest.raises(ArithmeticError, match="fixed point"):
            walks_module.kernel_root_series(12)

    def test_check_does_not_share_the_squares(self, monkeypatch):
        import noncrossing.walks as walks_module

        # doubled squares in the online pass cannot cancel in the check,
        # which forms y^2 by a product of its own
        square = walks_module._square_row
        monkeypatch.setattr(walks_module, "_square_row", lambda w, i: 2 * square(w, i))
        with pytest.raises(ArithmeticError, match="fixed point"):
            walks_module.kernel_root_series(6)

    def test_symmetry(self):
        assert kernel_symmetry_holds()


class TestCoefficientFormula:
    def test_spec_values(self):
        assert root_power_coefficient(1, 1, 0) == 1
        assert root_power_coefficient(1, 0, 0) == 1

    def test_matches_series_extraction(self):
        for n in range(0, 7):
            y = kernel_root_series(2 * n + 2)
            square = RowSeries(2, schoolbook(y, y))
            powers = {1: y, 2: square, 3: RowSeries(3, schoolbook(square, y))}
            for k in (1, 2, 3):
                for m in range(-5, 6):
                    assert powers[k].coefficient(2 * n + 2, m) == (
                        root_power_coefficient(k, m, n)
                    ), (k, m, n)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            root_power_coefficient(0, 0, 1)
        for n in (-1, -2):
            with pytest.raises(ValueError, match="n must be"):
                root_power_coefficient(1, 0, n)

    def test_integrality_guard_is_live(self, monkeypatch):
        import noncrossing.walks as walks_module

        # every binomial C(2, j), j <= 2, read as 1: the sum for k=1, m=-1,
        # n=1 has the one term s = 0, and 1 is odd
        monkeypatch.setattr(walks_module, "_binomial_row", lambda top: [1] * (top + 1))
        with pytest.raises(ArithmeticError, match="divide"):
            walks_module.root_power_coefficient(1, -1, 1)

    def test_triple_sums_depend_only_on_the_gaps(self):
        # sum_s C(N,s) C(N,s+k) C(N,s+m) over every s, by a plain loop,
        # equals the shared sums at the gaps of the sorted offsets {0, k, m},
        # read in either order
        for top in range(0, 41):
            for k in range(-6, 7):
                for m in range(-6, 7):
                    low, mid, high = sorted((0, k, m))
                    gaps = [(mid - low, high - mid), (high - mid, mid - low)]
                    total = sum(
                        comb(top, s) * comb(top, s + k) * comb(top, s + m)
                        for s in range(max(0, -k, -m), top + 1)
                    )
                    assert _triple_sums(top, gaps) == [total, total], (top, k, m)

    def test_twelve_terms_share_nine_sums(self):
        terms = [term for group in _CLOSED_FORM_GAPS.values() for term in group]
        assert sorted(terms) == sorted(_CLOSED_FORM_TERMS) and len(terms) == 12
        assert len(_CLOSED_FORM_GAPS) == 9
        shared = {gap for gap, group in _CLOSED_FORM_GAPS.items() if len(group) > 1}
        assert shared == {(1, 1), (1, 3), (0, 3)}
        for gap, group in _CLOSED_FORM_GAPS.items():
            for k, m, _ in group:
                low, mid, high = sorted((0, k, m))
                assert gap == tuple(sorted((mid - low, high - mid))), (k, m)


class TestCountingRoutes:
    def test_against_brute_force(self):
        for n in range(1, 7):
            brute = sum(1 for _ in gen_braids_no_isolated(n, 3))
            assert rho3_kernel_ct(n) == brute
            assert rho3_closed_form(n) == brute

    def test_golden_values(self, golden):
        table = rho3_recurrence(300)
        for n_str, value in golden["rho3"].items():
            assert str(table[int(n_str)]) == value

    def test_domain(self):
        for fn in (rho3_kernel_ct, rho3_closed_form):
            with pytest.raises(ValueError):
                fn(0)

    def test_kernel_route_at_large_n(self):
        table = rho3_recurrence(40)
        for n in (30, 40):
            assert rho3_kernel_ct(n) == table[n]

    def test_kernel_route_is_independent_of_the_closed_form(self, monkeypatch):
        import noncrossing.walks as walks_module

        expected = rho3_recurrence(12)[12]

        def unreachable(*args):
            raise AssertionError("the kernel route reached the closed form")

        for name in ("root_power_coefficient", "rho3_closed_form", "_triple_sums",
                     "_binomial_row"):
            monkeypatch.setattr(walks_module, name, unreachable)
        monkeypatch.setattr(walks_module, "_CLOSED_FORM_TERMS", ())
        monkeypatch.setattr(walks_module, "_CLOSED_FORM_GAPS", {})
        assert walks_module.rho3_kernel_ct(12) == expected

    def test_closed_form_guard_is_live(self, monkeypatch):
        import noncrossing.walks as walks_module

        # every binomial read as 1: at n=1 the sum at the gaps (1, 1) is 1,
        # and the term k=1, m=-1 that reads it does not divide by 2
        monkeypatch.setattr(walks_module, "_binomial_row", lambda top: [1] * (top + 1))
        with pytest.raises(ArithmeticError, match="integral"):
            walks_module.rho3_closed_form(1)


class TestRecurrence:
    def test_weights_at_zero(self):
        assert recurrence_weights(0) == (24, 88, 56)

    def test_weights_match_their_factored_form(self):
        for n in range(0, 201):
            assert recurrence_weights(n) == (
                8 * (n + 1) * (n + 3),
                7 * n * n + 53 * n + 88,
                (n + 7) * (n + 8),
            ), n

    def test_the_retired_cubic_recurrence_agrees(self):
        # the order-3 recurrence that the table replaced, kept as
        # reference data: it holds on the table, and its formal series
        # solution is the same to order 6
        cubic = (
            (48, 88, 48, 8),
            (624, 594, 171, 15),
            (924, 531, 99, 6),
            (504, 191, 24, 1),
        )
        table = rho3_recurrence(3000)
        for n in range(1, 2998):
            *weights, lead = (((d * n + c) * n + b) * n + a for a, b, c, d in cubic)
            assert lead * table[n + 3] == sum(
                w * table[n + j] for j, w in enumerate(weights)
            ), n
        assert series_solution(cubic, 6) == series_solution(_RHO3_RECURRENCE, 6)

    def test_exactness_guard_is_live(self, monkeypatch):
        import noncrossing.walks as walks_module

        def broken(n):
            *weights, lead = recurrence_weights(n)
            return (*[1] * len(weights), lead)

        monkeypatch.setattr(walks_module, "recurrence_weights", broken)
        with pytest.raises(RecurrenceError):
            walks_module.rho3_recurrence(10)

    def test_terms_keep_exactly_the_sizes_asked_for(self):
        table = rho3_recurrence(300)
        sizes = [300, 7, 1, 150, 7, 2]
        assert _rho3_terms(sizes) == {n: table[n] for n in sizes}
        assert _rho3_terms(range(1, 301)) == table
        assert _rho3_terms([1]) == {1: table[1]}
        decimals = _rho3_terms([2, 40], Decimal)
        assert all(type(v) is Decimal for v in decimals.values())
        assert decimals == {2: table[2], 40: table[40]}
        with pytest.raises(ValueError):
            _rho3_terms([0, 5])

    def test_decimal_seeds_carry_the_table_in_decimal_radix(self):
        ints = rho3_recurrence(300)
        decimals = _rho3_terms(range(1, 301), Decimal)
        assert all(type(v) is Decimal for v in decimals.values())
        assert decimals == ints
        assert [str(v) for v in decimals.values()] == [str(v) for v in ints.values()]

    def test_rho3_increases(self):
        # a3(n) r(n+2) = a1(n) r(n) + a2(n) r(n+1) with a1 > 0 and a2 > a3
        # for n >= 1, so from 0 < r(1) < r(2) on, r(n+2) > r(n+1): the
        # first term too long to print ends every table that reaches it
        a1, a2, a3 = _RHO3_RECURRENCE
        assert all(c > 0 for c in a1)
        assert [x - y for x, y in zip(a2, a3)] == [32, 38, 6]
        assert 0 < rho3_closed_form(1) < rho3_closed_form(2)

    @pytest.mark.parametrize("number", [int, Decimal])
    def test_exactness_guard_names_n_divisor_and_remainder(self, monkeypatch, number):
        import noncrossing.walks as walks_module

        # past n = 4775 the numerator has more than 4300 digits, more than
        # str() of an int prints; the message must not need it
        def broken(n):
            first, *rest = recurrence_weights(n)
            return (first + (n >= 4785), *rest)

        table = rho3_recurrence(4787)
        *weights, lead = broken(4785)
        rem = sum(w * table[4785 + j] for j, w in enumerate(weights)) % lead
        assert rem
        monkeypatch.setattr(walks_module, "recurrence_weights", broken)
        with pytest.raises(RecurrenceError) as caught:
            walks_module._rho3_terms(range(1, 4801), number)
        assert str(caught.value) == (
            f"non-exact division at n=4785: remainder {rem} modulo {lead}"
        )

    def test_lower_bound_proves_exactly_the_overlong_tables(self):
        # n* is the first n with rho3(n) >= 10^digits, a term of more than
        # digits digits: the bound proves a table over 1..n* too long, and
        # never one over 1..n* - 1, which fits
        table = rho3_recurrence(1200)
        n_star = 1
        for digits in range(1, 1001):
            while table[n_star] < 10**digits:
                n_star += 1
            assert not _certainly_too_long(n_star - 1, digits), (digits, n_star)
            assert _certainly_too_long(n_star, digits), (digits, n_star)


class TestQuadrantWalks:
    def test_base_cases(self):
        assert quadrant_walk_counts(0) == (1, 0)
        assert quadrant_walk_counts(1) == (2, 1)

    def test_reflection_difference(self):
        table = rho3_recurrence(10)
        for n in range(1, 11):
            a, b = quadrant_walk_counts(n)
            assert a - b == table[n]


class TestAsymptotics:
    def test_double_root_guard_is_live(self):
        # r(n+2) = 4r(n+1) - 4r(n): characteristic -(X - 2)^2
        with pytest.raises(ArithmeticError):
            series_solution(((-4,), (4,), (1,)), 3)

    def test_equal_modulus_guard_is_live(self):
        # r(n+2) = r(n): roots 1 and -1
        with pytest.raises(ArithmeticError):
            series_solution(((1,), (0,), (1,)), 3)

    def test_solver_reproduces_the_catalan_expansion(self):
        # (n+2) C(n+1) = 2(2n+1) C(n), and C(n) ~ 4^n n^(-3/2) / sqrt(pi) *
        # (1 - 9/(8n) + 145/(128n^2) - 1155/(1024n^3) + ...)
        assert series_solution(((2, 4), (2, 1)), 3) == (
            4, Fraction(-3, 2), (Fraction(-9, 8), Fraction(145, 128), Fraction(-1155, 1024)),
        )

    def test_solved_constants(self):
        assert solve_asymptotics() == series_solution(_RHO3_RECURRENCE, 3)
        base, exponent, (c1, c2, c3) = solve_asymptotics()
        assert base == 8
        assert exponent == Fraction(-7)
        assert c1 == Fraction(-28)
        assert c2 == Fraction(4102, 9)
        assert c3 == Fraction(-457744, 81)
        assert len(EXACT_K.as_tuple().digits) == 60

    def test_corrections_satisfy_their_equations(self):
        _, _, (c1, c2, c3) = solve_asymptotics()
        assert 2268 + 81 * c1 == 0
        assert 1683 * c1 + 162 * c2 - 26712 == 0
        assert -32547 * c1 + 729 * c2 + 129654 + 243 * c3 == 0

    def test_corrections_help(self):
        exact = Decimal(rho3_recurrence(50)[50])
        with_c = asymptotic_estimate(50)
        with localcontext() as ctx:
            ctx.prec = 60
            without_c = EXACT_K * Decimal(8) ** 50 / Decimal(50) ** 7
        assert abs(with_c / exact - 1) < abs(without_c / exact - 1)

    def test_fit_stabilises(self, golden):
        fits = {n: fit_leading_constant(n) for n in (50, 100, 200, 1000)}
        for n, value in fits.items():
            assert str(value).startswith(golden["asymptotics"][f"fit_n{n}"][:12])
        assert abs(fits[200] - fits[1000]) < abs(fits[100] - fits[1000])
        assert abs(fits[100] - fits[1000]) < abs(fits[50] - fits[1000])
        # the probe sequence approaches the exact constant, not the
        # published one
        assert abs(fits[1000] - REFERENCE_K) > Decimal("4")
        assert abs(fits[1000] - EXACT_K) < Decimal("0.001")

    def test_exact_k_from_saddle_point(self):
        # the expansion documented at walks.EXACT_K: alpha_0..alpha_4
        # vanish, alpha_5 gives K, and alpha_6..alpha_8 give c1..c3
        alphas = _saddle_point_alphas(8)
        assert alphas[:5] == [0] * 5
        ratio = 8 * 2 * alphas[5] / 3  # K = 8 * 2*sqrt(3)/(3*pi) * alpha_5
        assert ratio == Fraction(327680, 27)
        assert isclose(float(ratio) * sqrt(3) / pi, float(EXACT_K), rel_tol=1e-12)
        # rho3(n) ~ K 8^n (n+1)^-7 sum_d (alpha_(5+d)/alpha_5) (n+1)^-d,
        # re-expanded in powers of 1/n
        corrections = tuple(
            sum(
                alphas[5 + d] / alphas[5] * (-1) ** (i - d) * comb(6 + i, i - d)
                for d in range(i + 1)
            )
            for i in (1, 2, 3)
        )
        assert corrections == solve_asymptotics()[2]

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            asymptotic_estimate(0)
        with pytest.raises(ValueError):
            fit_leading_constant(0)


def _saddle_point_alphas(order):
    """alpha_0..alpha_order in CT(P * L^N) = 8^N * 2/(sqrt(3)*pi) *
    sum_j alpha_j N^(-1-j), the Laplace expansion of the twelve-term sum
    about its saddle point (see walks.EXACT_K), in exact arithmetic.

    Polynomials in the torus angles of walks.EXACT_K, rescaled by
    sqrt(N) and still called (u, v), are dicts (a, b) -> coefficient of
    u^a v^b; series in 1/N are lists of them, truncated after 1/N^order.
    """

    def add(p, q, scale=1):
        out = dict(p)
        for key, c in q.items():
            out[key] = out.get(key, 0) + scale * c
        return out

    def mul(s, t):
        out = [{} for _ in range(order + 1)]
        for i, p in enumerate(s):
            for j, q in enumerate(t[: order + 1 - i]):
                for (a, b), c in p.items():
                    for (a2, b2), c2 in q.items():
                        key = (a + a2, b + b2)
                        out[i + j][key] = out[i + j].get(key, 0) + c * c2
        return out

    def linear_power(alpha, beta, d):  # (alpha*u + beta*v)^d
        return {(i, d - i): comb(d, i) * alpha**i * beta ** (d - i) for i in range(d + 1)}

    # the even part of P(e^iu, e^iv), sum sign*k*cos(k*u + m*v); the odd
    # part integrates to zero against the even L^N
    p = [{} for _ in range(order + 1)]
    for j in range(order + 1):
        for k, m, sign in _CLOSED_FORM_TERMS:
            scale = Fraction(sign * k * (-1) ** j, factorial(2 * j))
            p[j] = add(p[j], linear_power(k, m, 2 * j), scale)

    # log cos(x/2) = sum_r log_cos[r] x^(2r), from the series of cos(x/2)
    cos_half = [Fraction((-1) ** r, 4**r * factorial(2 * r)) for r in range(order + 2)]
    log_cos = [Fraction(0)] * (order + 2)
    for r in range(1, order + 2):
        inner = sum((i * log_cos[i] * cos_half[r - i] for i in range(1, r)), Fraction(0))
        log_cos[r] = cos_half[r] - inner / r

    # N*log(L/8) beyond its Gaussian part -(u^2+uv+v^2)/4, then its exp
    h = [{} for _ in range(order + 1)]
    for r in range(2, order + 2):
        for alpha, beta in ((1, 0), (0, 1), (1, 1)):
            h[r - 1] = add(h[r - 1], linear_power(alpha, beta, 2 * r), log_cos[r])
    term = [{(0, 0): Fraction(1)}] + [{} for _ in range(order)]
    exp_h = term
    for i in range(1, order + 1):
        term = [{key: c / i for key, c in t.items()} for t in mul(term, h)]
        exp_h = [add(x, y) for x, y in zip(exp_h, term)]

    def gaussian_moment(d, variance):
        if d % 2:
            return 0
        return Fraction(factorial(d), factorial(d // 2) * 2 ** (d // 2)) * variance ** (d // 2)

    def moment(a, b):
        # E[u^a v^b] under exp(-(u^2+uv+v^2)/4): with u = w - v/2 the
        # weight splits into independent w (variance 2) and v (variance 8/3)
        return sum(
            comb(a, i) * Fraction(-1, 2) ** (a - i)
            * gaussian_moment(i, 2) * gaussian_moment(a - i + b, Fraction(8, 3))
            for i in range(a + 1)
        )

    return [
        sum(c * moment(a, b) for (a, b), c in series.items())
        for series in mul(p, exp_h)
    ]


def _dict_walk_counts(n):
    """The quadrant walk count as a dict from (x, y) to walks, advanced
    one compound step at a time: the reference for the dense rows."""
    moves = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    grid = {(1, 0): 1}
    for _ in range(n):
        nxt = {}
        for (x, y), ways in grid.items():
            nxt[(x, y)] = nxt.get((x, y), 0) + 2 * ways
            for dx, dy in moves:
                p, q = x + dx, y + dy
                if p >= 0 and q >= 0:
                    nxt[(p, q)] = nxt.get((p, q), 0) + ways
        grid = nxt
    return grid.get((1, 0), 0), grid.get((0, 1), 0)


def _kernel_by_schoolbook(y):
    """The rows of K(x, y; t) = xy - t^2 (x^2 y + x y^2 + y + x + x^2 + y^2 + 2xy),
    as a series of power 0, from coefficients read term by term and y^2
    by schoolbook: the reference for kernel_residual."""

    def terms(series):  # {(t exponent, x exponent): coefficient}
        return {
            (2 * i, series.power - i + e): c
            for i, row in enumerate(series.rows)
            for e, c in enumerate(row)
        }

    size = len(y.rows)
    powers = ({(0, 0): 1}, terms(y), terms(RowSeries(2 * y.power, schoolbook(y, y))))
    # c x^i y^j t^level for each monomial of K
    monomials = [(1, 1, 1, 0)] + [
        (-c, i, j, 2)
        for (i, j), c in {(2, 1): 1, (1, 2): 1, (0, 1): 1, (1, 0): 1, (2, 0): 1, (0, 2): 1,
                          (1, 1): 2}.items()
    ]
    kernel = {}
    for c, i, j, level in monomials:
        for (t, x), v in powers[j].items():
            if t + level < 2 * size:
                kernel[t + level, x + i] = kernel.get((t + level, x + i), 0) + c * v
    # [x^(e - r) t^(2r)] is entry e of row r, the shift s = t^2 / x
    rows = [[] for _ in range(size)]
    for (t, x), v in kernel.items():
        r, e = t // 2, x + t // 2
        assert t % 2 == 0 and e >= 0, (t, x)
        rows[r].extend([0] * (e + 1 - len(rows[r])))
        rows[r][e] += v
    return [trimmed(row) for row in rows]


class TestPackedRows:
    def test_round_trip(self):
        rng = random.Random(1717)
        for slot in (1, 2, 3, 8, 46):
            top = (1 << (8 * slot)) - 1  # the largest entry a slot holds
            rows = [[], [0], [0, 0, 0], [top], [0, top], [top, 1, 0, top, top], [5, 0, 0]]
            rows += [
                [rng.randint(0, top) for _ in range(rng.randrange(1, 40))]
                for _ in range(200)
            ]
            for row in rows:
                assert _unpack(_pack(row, slot), slot) == trimmed(row), (slot, row)

    def test_slot_holds_its_bound(self):
        for bound in (0, 255, 256, 2**16 - 1, 2**16, 8**121):
            slot = _slot_bytes(bound)
            assert bound < 1 << (8 * slot), bound
            assert slot == 1 or bound >= 1 << (8 * slot - 8), bound  # and is no wider
            assert _unpack(_pack([bound, 0, bound], slot), slot) == trimmed([bound, 0, bound])

    def test_entry_wider_than_its_slot_is_refused(self):
        for slot in (1, 3):
            full = 1 << (8 * slot)
            for row in ([full], [0, full + 1]):
                with pytest.raises(OverflowError):
                    _pack(row, slot)

    def test_negative_entry_is_refused(self):
        for slot in (1, 3):
            for row in ([-1], [0, 5, -(1 << (8 * slot - 1))]):
                with pytest.raises(OverflowError):
                    _pack(row, slot)

    def test_residual_matches_schoolbook(self):
        y = kernel_root_series(12)
        assert _kernel_by_schoolbook(y) == [[]] * len(y.rows)
        # the corruption of test_series_corrupted_root: Y gains x^-1 t^4
        y.rows[2][0] += 1
        residual = kernel_residual(y)
        assert residual.power == 0 and not residual.is_zero()
        assert residual.rows == _kernel_by_schoolbook(y)


class TestDenseRoutes:
    def test_diagonal_rows_match_the_dict_walk(self):
        for n in range(0, 41):
            assert quadrant_walk_counts(n) == _dict_walk_counts(n), n

    def test_packed_diagonals_match_the_dict_walk_at_64(self):
        # slots of 3 * 64 + 2 = 194 bits, past the range checked above
        for n in (63, 64):
            assert quadrant_walk_counts(n) == _dict_walk_counts(n), n

    def test_reflection_difference_to_120(self):
        table = rho3_recurrence(120)
        for n in range(1, 121):
            a, b = quadrant_walk_counts(n)
            assert a - b == table[n], n

    def test_closed_form_to_400(self):
        table = rho3_recurrence(400)
        for n in range(1, 401):
            assert rho3_closed_form(n) == table[n], n

    def test_coefficient_row_reaches_every_shift(self):
        # the passes over the binomial row stop at its end, for any k and m,
        # including shifts past n + 1 where every binomial vanishes
        for n in range(0, 8):
            top = n + 1
            for k in (1, 2, 5):
                for m in range(-top - 2, top + 8):
                    total = sum(
                        comb(top, s) * comb(top, k + s) * comb(top, s + m)
                        for s in range(max(0, -m), top + 1)
                    )
                    assert root_power_coefficient(k, m, n) * top == k * total, (k, m, n)
