"""Lattice-walk model and exact counting routes for rho3(n), the number
of 3-noncrossing braids without isolated points over [n].

Braid tableaux with fewer than three rows are quadrant walks: each
vertex contributes one compound step from the multiset
{E, W, N, S, (1,-1), (-1,1), stay, stay}, and rho3(n) = a_n - b_n where
a_n counts n-step quadrant walks (1,0) -> (1,0) and b_n the walks
(1,0) -> (0,1) (reflection across the diagonal).

The generating-function route works in the kernel

    K(x, y; t) = x*y - t^2*(x^2*y + x*y^2 + y + x + x^2 + y^2 + 2*x*y).

As a quadratic in y it has a unique root Y0 that is a power series in
t^2 with Laurent-polynomial coefficients in x, fixed point of
Y = t^2*(1/x + 1)*(x + Y)*(1 + Y).  With s = t^2/x and Y0 = x*W(s)
that relation becomes W = s*(1 + x)*(1 + (1 + x)*W + x*W^2), whose
coefficient W_i = [s^i] W is an ordinary polynomial of degree 2i - 1.
The code computes each W_i, and the rows of W^2 and W^3, from the rows
before it (the online, or relaxed, scheme of van der Hoeven) in one
pass that the kernel route and the series suite both read, and hands
the rows of W out as lists (RowSeries, which has no product).  Both
routes pack a row of integers into one integer, coefficient e in slot
e (Kronecker substitution), so that a row product is one
multiplication.  No packed entry is negative.  A slot
holds the largest value at x = 1 of a kernel row, which bounds its
coefficients, and the kernel's residual packs its t^0 and t^2 sides
apart (kernel_residual); the walks keep one anti-diagonal per integer,
in slots of 3n + 2 bits, as no count exceeds 8^n; one walk gives
(a_t, b_t) for every t up to its length.
Constant-term extraction of a fixed x-Laurent combination of Y0, Y0^2,
Y0^3 yields rho3, as does a twelve-term signed sum of coefficients of
Y0^k (binomial sums, by Lagrange inversion) and a three-term
P-recurrence of order 2 (_RHO3_RECURRENCE), stepped once per request
with exact divisions (_rho3_terms); a 64-bit lower-bound pass refuses a
table with a term too long to print before the exact pass starts.  The
twelve triple-binomial sums are nine: each depends only on the gaps
between its three offsets, read in either order (a shift of the
summation index, and the reflection C(N, j) = C(N, N - j)), and each
is one pass of a pair row C(N,s) C(N,s+a), a <= 2, against a shifted
binomial row (_triple_sums).  The asymptotic law
rho3(n) ~ K * 8^n * n^-7 * (1 + c1/n + c2/n^2 + c3/n^3) is the formal
series solution of that table (series_solution, in exact rationals),
kept as the (base, exponent, corrections) that it returns for any table.
Its constant K = 327680*sqrt(3)/(27*pi) (EXACT_K) comes from a
saddle-point expansion of the twelve-term sum; the published value
6686.408973 (REFERENCE_K) is low by a relative 7.0e-4, an erratum.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    localcontext,
)
from fractions import Fraction
from functools import cache
from itertools import accumulate, zip_longest
from math import gcd, prod
from operator import mul

_DECIMAL_DIGITS = 60

#: Published value of the leading constant, kept on record as an
#: erratum: it agrees with EXACT_K to three significant figures, not
#: four, and is low by a relative 7.0e-4.  Nothing computes with it.
REFERENCE_K = Decimal("6686.408973")


def _decimal_pi() -> Decimal:
    """pi at the current decimal precision, by the series recipe of the
    decimal module's documentation."""
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    return +s


def _exact_leading_constant() -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS + 5  # guard digits, rounded off below
        value = 327680 * Decimal(3).sqrt() / (27 * _decimal_pi())
        ctx.prec = _DECIMAL_DIGITS
        return +value


#: The leading constant K = 327680*sqrt(3)/(27*pi) = 2^16*5/(3^(5/2)*pi)
#: of the asymptotic law, to 60 significant digits.
#:
#: Derivation.  Since [x^a y^b] L^N = sum_s C(N,s) C(N,s+a) C(N,s+b) for
#: L = (1+x)(1+y)(1+1/(xy)), the twelve-term sum reads
#: rho3(n) = CT_{x,y}(P * L^N) / N with N = n+1 and
#: P = sum sign*k * x^-k * y^-m over _CLOSED_FORM_TERMS.  On the torus
#: x = e^(i*u), y = e^(i*v), L = 8 cos(u/2) cos(v/2) cos((u+v)/2), whose
#: modulus peaks only at u = v = 0, with Gaussian profile
#: exp(-N(u^2+uv+v^2)/4).  Expanding P and N*log(L/8) about that point
#: and integrating term by term gives
#: CT = 8^N * 2/(sqrt(3)*pi) * sum_j alpha_j N^(-1-j) with rational
#: alpha_j; alpha_0 .. alpha_4 vanish and alpha_5 = 20480/9, so
#: K = 8 * 2/(sqrt(3)*pi) * 20480/9.  The next three alpha_j reproduce
#: c1, c2, c3.  tests/test_walks.py carries the expansion out in exact
#: arithmetic.
EXACT_K = _exact_leading_constant()


class RecurrenceError(ArithmeticError):
    """A recurrence step required a non-exact division."""


# -- packed rows ------------------------------------------------------------------------

def _slot_bytes(bound: int) -> int:
    """Bytes per slot, so that a slot holds every entry 0..bound."""
    return max(1, (bound.bit_length() + 7) // 8)


def _pack(row: list[int], slot: int) -> int:
    """sum_e row[e] * 2^(8*slot*e).  to_bytes raises OverflowError on an
    entry that is negative or does not fit its slot."""
    return int.from_bytes(b"".join(c.to_bytes(slot, "little") for c in row), "little")


def _unpack(value: int, slot: int) -> list[int]:
    """The packed row up to its last nonzero entry, the inverse of _pack:
    the bytes of value end in that entry's slot."""
    data = value.to_bytes((value.bit_length() + 7) // 8, "little")
    return [int.from_bytes(data[e : e + slot], "little") for e in range(0, len(data), slot)]


def _difference(a: int, b: int, slot: int) -> list[int]:
    """The row a - b of two different packed rows, up to its last nonzero entry."""
    row = [u - v for u, v in zip_longest(_unpack(a, slot), _unpack(b, slot), fillvalue=0)]
    return row[: max(e for e, c in enumerate(row) if c) + 1]


@dataclass(frozen=True)
class RowSeries:
    """The truncated series x^power * sum_i s^i rows[i](x) with s = t^2/x.

    Each row lists the coefficients of an ordinary polynomial in x, from
    x^0 upward.  The kernel root Y0 = x*W(s) is stored with power 1 and
    rows W_0, W_1, ...; its k-th power, with power k and rows [s^i] W^k.
    The rows stop at s^(order/2), that is at t^order.  No entry of a row
    is negative, but in a kernel_residual away from the root.  It has no
    product: the powers of the root come packed from its one online pass
    (_online_root, _cube_row).
    """

    power: int
    rows: list[list[int]]

    def coefficient(self, t_exponent: int, x_exponent: int) -> int:
        """[x^x_exponent t^t_exponent] of the series."""
        i, odd = divmod(t_exponent, 2)
        if i >= len(self.rows):
            raise ValueError(f"t^{t_exponent} lies beyond the truncation order")
        if odd or i < 0:
            return 0
        row, e = self.rows[i], x_exponent - self.power + i
        return row[e] if 0 <= e < len(row) else 0

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.rows)


# -- the kernel and its power-series root --------------------------------------------

# K(x, y; t) = xy - t^2 * (x^2 y + x y^2 + y + x + x^2 + y^2 + 2xy),
# stored as bivariate monomial dicts for the t^0 and t^2 levels.
_KERNEL_T0 = {(1, 1): 1}
_KERNEL_T2 = {(2, 1): 1, (1, 2): 1, (0, 1): 1, (1, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 2}


def kernel_symmetry_holds() -> bool:
    """Exact check of the two kernel symmetries: substituting
    (x, y) -> (y/x, y) and multiplying by x^2/y reproduces K, as does
    substituting (x, y) -> (y/x, 1/x) and multiplying by x^3."""
    # x^i y^j -> x^(i*xi + j*yi + si) y^(i*xj + j*yj + sj), both one-to-one
    return all(
        {(i * xi + j * yi + si, i * xj + j * yj + sj): c for (i, j), c in level.items()} == level
        for (xi, xj), (yi, yj), (si, sj) in (
            ((-1, 1), (0, 1), (2, -1)),  # x^2 y^-1 * K(x^-1 y, y)
            ((-1, 1), (-1, 0), (3, 0)),  # x^3 * K(x^-1 y, x^-1)
        )
        for level in (_KERNEL_T0, _KERNEL_T2)
    )


def kernel_root_series(order: int) -> RowSeries:
    """The power-series root Y0 = x*W(s) of the kernel, s = t^2/x, to the
    given even order in t.

    W_i = [s^i] W is an ordinary polynomial of degree 2i - 1, returned as
    a dense row, and [x^e t^(2i)] Y0^k = [x^(e-k+i)] [s^i] W^k.  Computed
    online, on packed rows, from the relation with S_i = [s^i] W^2

        W_i = (1 + x) * ([i = 1] + (1 + x)*W_(i-1) + x*S_(i-1)),

    and S_(i-1) needs only W_1 .. W_(i-2), so each row follows from
    those already known and none depends on the order; a slot holds the
    largest row value at x = 1 (_online_root).  The result is then
    checked against the kernel itself (kernel_residual), and a
    nonzero residual raises ArithmeticError.  Every coefficient is a
    positive integer; the rows start W_1 = 1 + x, W_2 = (1 + x)^3, so
    Y0 = (1 + x) t^2 + (1/x + 3 + 3x + x^2) t^4 + ...
    """
    if order < 2 or order % 2:
        raise ValueError(f"order must be even and at least 2, got {order}")
    return RowSeries(1, _online_root(order // 2)[0])


def _online_root(half_order: int) -> tuple[list[list[int]], list[int], list[int], int]:
    """W_i, i <= h = half_order, as rows and packed, S_i, i <= h + 1, packed,
    and the slot width in bits, checked against the kernel.  Slot d of a
    packed row holds its x^d coefficient, and _cube_row gives [s^i] W^3,
    i <= h, in the same slots.  No coefficient of W_i, S_i or [s^i] W^3 is
    negative, so none exceeds its row's value at x = 1: the pass with
    bits = 0 gives those, and [s^i] W^3 <= S_(i+1)/2 (_cube_row)."""
    slot = _slot_bytes(max(max(values) for values in _online_pass(half_order, 0)))
    bits = 8 * slot
    packed, squares = _online_pass(half_order, bits)
    rows = [_unpack(w, slot) for w in packed]
    if not kernel_residual(RowSeries(1, rows)).is_zero():
        raise ArithmeticError(f"kernel root is not a fixed point at order {2 * half_order}")
    return rows, packed, squares, bits


def _online_pass(half_order: int, bits: int) -> tuple[list[int], list[int]]:
    """W_i for i <= half_order and S_i for i <= half_order + 1 (W_0 = 0, so
    no W_(half_order+1) enters), packed at x = 2^bits, by the relation."""
    packed, squares = [0], []
    for i in range(1, half_order + 1):
        squares.append(_square_row(packed, i - 1))
        inner = packed[i - 1] + ((packed[i - 1] + squares[i - 1]) << bits) + (i == 1)
        packed.append(inner + (inner << bits))  # (1 + x) * inner
    return packed, squares + [_square_row(packed, half_order), _square_row(packed, half_order + 1)]


def _square_row(w: list[int], i: int) -> int:
    # [s^i] W^2 = sum of W_a * W_b over a + b = i, a, b >= 1, b < len(w) (W_0 = 0)
    pairs = sum(w[a] * w[i - a] for a in range(max(1, i + 1 - len(w)), (i + 1) // 2))
    return 2 * pairs + (w[i // 2] ** 2 if i % 2 == 0 else 0)


def _cube_row(packed: list[int], squares: list[int], bits: int, i: int) -> int:
    """[s^i] W^3, packed as _online_root packs W_i and S_i.  The relation
    times W, W^2 = s(1 + x)(W + (1 + x)W^2 + xW^3), gives it as
    (S_(i+1)/(1 + x) - W_i - (1 + x)S_i)/x, both divisions exact."""
    one_plus_x = 1 + (1 << bits)
    return (squares[i + 1] // one_plus_x - packed[i] - one_plus_x * squares[i]) >> bits


def kernel_residual(y: RowSeries) -> RowSeries:
    """K(x, y(t); t) as a truncated series, zero exactly on the root.  It
    packs y.rows afresh and forms y^2 by a symmetric product of its own,
    not the online pass's _square_row.  Each row of K is the difference of
    two packed rows, the t^0 side xy (_KERNEL_T0) and the t^2 side
    (_KERNEL_T2), unpacked only where the two differ.  A slot holds the
    larger sum of the c of a side's monomials times the largest row sum
    of 1, y or y^2 (bounded by the sums of y)."""

    def square(p: list[int]) -> list[int]:  # rows of p^2: each a < b once, doubled
        return [2 * sum(p[a] * p[r - a] for a in range((r + 1) // 2))
                + (p[r // 2] ** 2 if r % 2 == 0 else 0) for r in range(len(p))]

    sums = [sum(row) for row in y.rows]
    weight = max(sum(monomials.values()) for monomials in (_KERNEL_T0, _KERNEL_T2))
    slot = _slot_bytes(weight * max([1, *sums, *square(sums)]))
    packed = [_pack(row, slot) for row in y.rows]
    powers = ([1], packed, square(packed))  # rows of y^0 = 1 (the rest zero), y and y^2
    sides = [[0] * len(packed), [0] * len(packed)]
    for level, monomials in enumerate((_KERNEL_T0, _KERNEL_T2)):
        for (i, j), c in monomials.items():
            # x^i t^(2 level) y^j = x^(i + level + j*power) s^level * (rows of y^j)
            for r, row in enumerate(powers[j][: len(packed) - level]):
                sides[level][r + level] += c * row << 8 * slot * (i + level + j * y.power)
    return RowSeries(0, [_difference(a, b, slot) if a != b else [] for a, b in zip(*sides)])


# -- counting routes ------------------------------------------------------------------

# x-Laurent prefactors, exponent -> coefficient, whose constant term
# against Y0, Y0^3, Y0^2 counts the braids:
# rho3(n) = [t^(2n+2)] CT_x(A*Y0 + B*Y0^3 + C*Y0^2).
_CT_PREFACTORS = (
    {0: 1, 1: -1, 4: -1, 3: 1},
    {-4: -1, -3: 1, 0: 1, -1: -1},
    {-5: 1, -4: -1, -1: -1, -2: 1},
)


def rho3_kernel_ct(n: int) -> int:
    """rho3(n) by constant-term extraction from the kernel root."""
    return _rho3_kernel_table([n])[n]


def _rho3_kernel_table(sizes: list[int] | range) -> dict[int, int]:
    """rho3(n) for each n in sizes, all read from one online root."""
    if min(sizes) < 1:
        raise ValueError("n must be >= 1")
    _, packed, squares, bits = _online_root(max(sizes) + 1)
    return {n: _kernel_ct(packed, squares, bits, n) for n in sizes}


def _kernel_ct(packed: list[int], squares: list[int], bits: int, n: int) -> int:
    # [t^(2n+2)] CT_x(A*Y0 + B*Y0^3 + C*Y0^2), reading only the x-coefficients
    # the prefactors meet: slot d of a packed row holds its x^d coefficient.
    # With top = n+1, [t^(2 top)] Y0^k is x^(k-top) [s^top] W^k
    top, mask = n + 1, (1 << bits) - 1
    cube = _cube_row(packed, squares, bits, top)
    return sum(  # x^e meets the exponent d = top - k - e of [s^top] W^k
        c * ((row >> bits * d) & mask)
        for prefactor, k, row in zip(_CT_PREFACTORS, (1, 3, 2), (packed[top], cube, squares[top]))
        for e, c in prefactor.items()
        if (d := top - k - e) >= 0
    )


def root_power_coefficient(k: int, m: int, n: int) -> int:
    """[x^m t^(2n+2)] Y0^k as the binomial sum
    (k/N) * sum_s C(N,s) C(N,s+k) C(N,s+m), N = n + 1,
    which follows from Lagrange inversion of the fixed-point relation.
    The sum depends only on the gaps between the sorted offsets {0, k, m},
    read in either order (_gaps), and is _triple_sums at those gaps."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    (total,) = _triple_sums(n + 1, [_gaps(k, m)])
    return _coefficient(k, m, n, total)


def _gaps(k: int, m: int) -> tuple[int, int]:
    """(a, b) with sum_s C(N,s) C(N,s+k) C(N,s+m) = S(a, b) for every N.

    The sum runs over every integer s, so shifting s leaves it a function
    of the gaps between the sorted offsets {0, k, m}, and reflecting it,
    s -> N - s - a - b with C(N, x) = C(N, N - x), turns S(a, b) into
    S(b, a).  So the gaps, smaller first."""
    low, mid, high = sorted((0, k, m))
    return min(mid - low, high - mid), max(mid - low, high - mid)


def _triple_sums(top: int, gaps) -> list[int]:
    """S(a, b) = sum_s C(top,s) C(top,s+a) C(top,s+a+b) for each (a, b) in
    gaps, in order.  The pair row C(top,s) C(top,s+a) is formed once per a,
    and each sum is one pass over it against the binomial row shifted by
    a + b.  The passes stop at the end of the shorter row: the terms they
    drop read a binomial C(top, j) with j > top, which is zero."""
    row = _binomial_row(top)
    pairs = {a: list(map(mul, row, row[a:])) for a in {a for a, _ in gaps}}
    return [sum(map(mul, pairs[a], row[a + b :])) for a, b in gaps]


def _binomial_row(top: int) -> list[int]:
    """[C(top, j) for j = 0..top].  The first half is built term by term,
    C(top, j + 1) = C(top, j) (top - j) / (j + 1), each division exact,
    and the row is symmetric, C(top, j) = C(top, top - j)."""
    half = list(accumulate(range(top // 2), lambda c, j: c * (top - j) // (j + 1), initial=1))
    return half + half[: (top + 1) // 2][::-1]


def _coefficient(k: int, m: int, n: int, total: int) -> int:
    """k * total / (n + 1), which must divide exactly."""
    value, rem = divmod(k * total, n + 1)
    if rem:
        raise ArithmeticError(
            f"coefficient sum for k={k}, m={m}, n={n} does not divide by n+1:"
            " the coefficient is not integral"
        )
    return value


# (k, m, sign) triples of the twelve-term sum: the prefactors above,
# expanded term by term against the root powers Y0, Y0^3, Y0^2.
_CLOSED_FORM_TERMS = tuple(
    (k, -e, c) for k, prefactor in zip((1, 3, 2), _CT_PREFACTORS) for e, c in prefactor.items()
)
#: gap pair -> the (k, m, sign) terms whose sum it is: nine pairs for the
#: twelve terms, as (1, 1), (1, 3) and (0, 3) serve two each
_CLOSED_FORM_GAPS = {
    gap: [(k, m, sign) for k, m, sign in _CLOSED_FORM_TERMS if _gaps(k, m) == gap]
    for gap in dict.fromkeys(_gaps(k, m) for k, m, _ in _CLOSED_FORM_TERMS)
}


def rho3_closed_form(n: int) -> int:
    """rho3(n) as the twelve-term signed sum over _CLOSED_FORM_TERMS:
    term (k, m, sign) is sign * root_power_coefficient(k, m, n), read
    from sums formed once for all twelve instead of by calling it.

    The twelve binomial sums are nine: by the shift and the reflection
    of _gaps, _CLOSED_FORM_GAPS groups the terms by the gaps of their
    offsets, and _triple_sums reads the nine from the three pair rows
    C(N,s) C(N,s+a), a = 0, 1, 2.  _coefficient checks each term's
    division by N = n + 1 on its own."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sums = _triple_sums(n + 1, _CLOSED_FORM_GAPS)
    return sum(
        sign * _coefficient(k, m, n, total)
        for total, terms in zip(sums, _CLOSED_FORM_GAPS.values())
        for k, m, sign in terms
    )


#: The order-2 P-recurrence of rho3, a3(n) r(n+2) = a1(n) r(n) + a2(n) r(n+1)
#: with a1 = 8(n+1)(n+3), a2 = 7n^2+53n+88, a3 = (n+7)(n+8), one row of
#: integer coefficients per weight, constant term first.  Found from the terms
#: of rho3, and checked in tests/test_walks.py against an order-3 recurrence.
_RHO3_RECURRENCE = (
    (24, 32, 8),
    (88, 53, 7),
    (56, 15, 1),
)


def recurrence_weights(n: int) -> tuple[int, int, int]:
    """The three polynomial weights of the rho3 recurrence at index n."""
    return tuple([(c * n + b) * n + a for a, b, c in _RHO3_RECURRENCE])


#: Exact decimal arithmetic: integers of any length are represented
#: exactly, and a rounded or invalid result raises instead.
_EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
    traps=[Inexact, InvalidOperation, DivisionByZero, Overflow],
)


def rho3_recurrence(n_max: int) -> dict[int, int]:
    """{n: rho3(n)} as ints for 1 <= n <= n_max, by _rho3_terms over that range."""
    return _rho3_terms(range(1, n_max + 1))


def _rho3_terms(sizes: list[int] | range, number: type = int,
                max_digits: int = 0) -> dict[int, int]:
    """{n: rho3(n)} for each n in sizes, by one pass of _RHO3_RECURRENCE
    that keeps the two latest terms and the sizes asked for.

    The seeds are the closed form at n = 1, 2, converted to number:
    int, or Decimal, in which case every term is a Decimal and the loop
    runs in decimal radix under an exact context, so that str() of a
    term costs time linear in its digits.  Every division must be
    exact; a remainder raises RecurrenceError.  With max_digits > 0 a
    term of more digits raises the ValueError that str() of such an int
    raises (_too_long).  The table would hold one anyway: rho3
    increases, as a2 - a3 = 6n^2 + 38n + 32 > 0 gives r(n+2) > r(n+1),
    so the largest size asked for, top, is at least as long.  No term up
    to top is too long when 8^top < 10^max_digits, as rho3(n) <= a_n <=
    8^n; past that line _certainly_too_long tries to prove the refusal
    before any exact term, or the set of sizes, is formed, and only when
    it cannot does the exact pass run, stopping at its first term that
    long.
    """
    if min(sizes, default=0) < 1:
        raise ValueError("n must be >= 1")
    top = max(sizes)
    if max_digits and 8**top >= 10**max_digits and _certainly_too_long(top, max_digits):
        raise _too_long(max_digits)
    wanted = set(sizes)
    prev, cur = (number(rho3_closed_form(n)) for n in (1, 2))
    terms = {n: v for n, v in ((1, prev), (2, cur)) if n in wanted}
    with localcontext(_EXACT):
        too_long = number(10) ** max_digits
        for n in range(1, top - 1):
            a1, a2, a3 = recurrence_weights(n)
            value, rem = divmod(a1 * prev + a2 * cur, a3)
            if rem:  # the numerator itself may be too long to print
                raise RecurrenceError(f"non-exact division at n={n}: remainder {rem} modulo {a3}")
            if max_digits and value >= too_long:
                raise _too_long(max_digits)
            prev, cur = cur, value
            if n + 2 in wanted:
                terms[n + 2] = value
    return terms


def _too_long(max_digits: int) -> ValueError:
    """The refusal of a term of more than max_digits digits, in the words
    of str() of such an int."""
    return ValueError(
        f"Exceeds the limit ({max_digits} digits) for integer string conversion;"
        " use sys.set_int_max_str_digits() to increase the limit"
    )


def _certainly_too_long(top: int, max_digits: int) -> bool:
    """Whether a lower bound proves that some rho3(n), n <= top, has more
    than max_digits digits.

    Lower bounds L * 2^e of two consecutive terms, L < 2^64 and one e for
    both, are stepped by the recurrence with a floor division, and the
    bits past 64 are dropped, another floor.  The weights are positive,
    so each step keeps both bounds below their terms.  The pass stops at
    the first bound of 10^max_digits or more.  Each floor loses less than
    a unit in 64 bits, so the bound misses a term that long only when the
    term lies within a tiny relative margin of 10^max_digits, and then
    the exact pass decides."""
    too_long = 10**max_digits
    prev, cur, e = rho3_closed_form(1), rho3_closed_form(2), 0
    for n in range(1, top - 1):
        a1, a2, a3 = recurrence_weights(n)
        prev, cur = cur, (a1 * prev + a2 * cur) // a3
        if cur << e >= too_long:
            return True
        drop = max(0, cur.bit_length() - 64)
        prev, cur, e = prev >> drop, cur >> drop, e + drop
    return False


# -- quadrant walks -------------------------------------------------------------------

def quadrant_walk_counts(n: int) -> tuple[int, int]:
    """(a_n, b_n), the last entry of _quadrant_walk_table(n)."""
    return _quadrant_walk_table(n)[-1]


def _quadrant_walk_table(n_max: int) -> list[tuple[int, int]]:
    """[(a_t, b_t) for t = 0..n_max], read after each step of one walk:
    a_t and b_t count the t-compound-step walks from (1,0) staying in the
    first quadrant, ending at (1,0) and at (0,1).  The six unit moves are
    barred from leaving the quadrant; the two stay steps are always legal
    and distinct, hence the weight 2.

    The counts are kept as one packed integer per anti-diagonal d = x + y,
    slot x counting the walks now at (x, d - x), in slots of 3n_max + 2
    bits, as a slot adds at most two counts below 8^n_max.  A step moves d
    by at most one, so with h_d = (1 + X) * row_d it reads

        new row_d[j] = h_(d-1)[j] + h_d[j] + h_d[j+1] + h_(d+1)[j+1]

    (E and N from d - 1; stay, stay, (1,-1) and (-1,1) within d; W and S
    from d + 1), masked to j <= d: the mask and the zero slots past each
    diagonal are the quadrant's walls.  After step t only the diagonals
    d <= 1 + min(t, n_max - t) are kept: the others cannot get back to
    d = 1 in the steps left, so the cut is exact for every t <= n_max.
    """
    if n_max < 0:
        raise ValueError("n must be >= 0")
    bits = 3 * n_max + 2
    masks = [(1 << bits * (d + 1)) - 1 for d in range(n_max // 2 + 2)]
    diagonals = [0, 1 << bits]
    table = [(1, 0)]
    for t in range(1, n_max + 1):
        # h[d + 1] = h_d, h[0] = h_(-1); two zeros for diagonals not yet reached
        h = [0] + [row + (row << bits) for row in diagonals] + [0, 0]
        down = [row >> bits for row in h]
        diagonals = [
            (h[d] + h[d + 1] + down[d + 1] + down[d + 2]) & masks[d]
            for d in range(2 + min(t, n_max - t))
        ]
        table.append((diagonals[1] >> bits, diagonals[1] & masks[0]))
    return table


# -- asymptotics -----------------------------------------------------------------------


def _dominant_root(coeffs: list[int]) -> Fraction:
    """The rational root of largest modulus of sum_i coeffs[i] X^i, among
    the candidates p/q with p | the constant term and q | the leading one.
    ArithmeticError unless the Cauchy bound of the quotient by X - root
    puts every other root strictly inside its modulus (so it is simple)."""
    while coeffs[0] == 0:  # roots at zero never dominate
        coeffs = coeffs[1:]
    value = lambda poly, x: sum(c * x**i for i, c in enumerate(poly))
    divisors = lambda m: [d for d in range(1, abs(m) + 1) if m % d == 0]
    roots = [
        r for p in divisors(coeffs[0]) for q in divisors(coeffs[-1])
        for r in (Fraction(p, q), Fraction(-p, q)) if value(coeffs, r) == 0
    ]
    if not roots:
        raise ArithmeticError(f"the characteristic polynomial {coeffs} has no rational root")
    beta = max(roots, key=abs)
    quotient = [Fraction(coeffs[-1])]  # by synthetic division, top term first
    for c in coeffs[-2:0:-1]:
        quotient.append(c + beta * quotient[-1])
    cauchy = [-abs(c / quotient[0]) for c in quotient[:0:-1]] + [1]
    if value(cauchy, abs(beta)) <= 0:
        raise ArithmeticError(f"the dominant root {beta} is not simple and alone in its modulus")
    return beta


def series_solution(table, order: int) -> tuple[Fraction, Fraction, tuple[Fraction, ...]]:
    """(beta, theta, (c_1, ..., c_order)) of the formal solution
    r(n) ~ beta^n n^theta (1 + c_1/n + ... + c_order/n^order) of the
    recurrence table[-1](n) r(n+d) = sum_(j<d) table[j](n) r(n+j), each
    row a tuple of polynomial coefficients from the constant term up.

    The ansatz of Wimp and Zeilberger.  Written as sum_j p_j(n) r(n+j) = 0
    (p_j = row j, the last negated, of top degree D), in u = 1/n and
    divided by beta^n n^(theta+D), it reads sum_m c_m u^m E_m(u), c_0 = 1,
    with E_m(u) = sum_j beta^j p_j(u) (1 + j u)^(theta - m).  Its u^0 term
    is the characteristic polynomial at beta, its u^1 term fixes theta,
    and c_m first enters at u^(m+1), with factor [u^1] E_m =
    -m sum_j j beta^j p_j0, nonzero as beta is simple."""
    width = max(map(len, table))
    signed = [*table[:-1], tuple(-c for c in table[-1])]
    # rows[j][i] = [n^(D-i)] p_j, zero-padded for the orders to come
    rows = [(0,) * (width - len(row)) + row[::-1] + (0,) * (order + 1) for row in signed]
    beta = _dominant_root([row[0] for row in rows])
    powers = [beta**j for j in range(len(rows))]
    slope = sum(j * w * row[0] for j, (w, row) in enumerate(zip(powers, rows)))
    theta = -sum(w * row[1] for w, row in zip(powers, rows)) / slope

    def e(m: int, k: int) -> Fraction:  # [u^k] E_m(u), binomials of theta - m
        return sum(
            w * row[i] * j ** (k - i) * prod((theta - m - t) / (t + 1) for t in range(k - i))
            for j, (w, row) in enumerate(zip(powers, rows))
            for i in range(k + 1)
        )

    c = [Fraction(1)]
    for m in range(1, order + 1):
        c.append(sum(c[i] * e(i, m + 1 - i) for i in range(m)) / (m * slope))
    return beta, theta, tuple(c[1:])


@cache
def solve_asymptotics() -> tuple[Fraction, Fraction, tuple[Fraction, ...]]:
    """The law of rho3 as series_solution gives it for any table, the
    (base, exponent, corrections) of _RHO3_RECURRENCE, unchanged.  Its
    constant is EXACT_K.  Solved once per process."""
    return series_solution(_RHO3_RECURRENCE, 3)


def _shape(n: int) -> Fraction:
    """n^exponent * (1 + c1/n + c2/n^2 + ...), every correction of the law."""
    _, exponent, corrections = solve_asymptotics()
    return Fraction(n) ** exponent * (1 + sum(c / n**i for i, c in enumerate(corrections, 1)))


def asymptotic_estimate(n: int) -> Decimal:
    """K * base^n * n^exponent * (1 + c1/n + c2/n^2 + ...) at 60 digits.

    With base = p/q and a/b = n^exponent * correction, the factor after K
    is a * p^n / g over (b / g) * q^n, g = gcd(p^n, b), both formed
    exactly in decimal radix (no long binary integer is converted to
    decimal); K times the first is rounded once to 60 digits and divided
    by the second."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q = solve_asymptotics()[0].as_integer_ratio()
    a, b = _shape(n).as_integer_ratio()
    g = gcd(pow(p, n, b), b)
    with localcontext(_EXACT):
        numerator = Decimal(a) * Decimal(p) ** n / g
        denominator = Decimal(b // g) * Decimal(q) ** n
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        return EXACT_K * numerator / denominator


def fit_leading_constant(n_probe: int) -> Decimal:
    """The leading constant estimated as rho3(n) / (8^n * n^-7 * correction),
    rho3(n) the one term _rho3_terms keeps; tends to EXACT_K as n grows."""
    if n_probe < 1:
        raise ValueError("n_probe must be >= 1")
    ratio = _rho3_terms([n_probe])[n_probe] / (solve_asymptotics()[0] ** n_probe * _shape(n_probe))
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        return Decimal(ratio.numerator) / Decimal(ratio.denominator)
