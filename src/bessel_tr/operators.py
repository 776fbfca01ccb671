"""Differential operators on the graded series, and the series they act on.

The linear operators are data: normal-ordered tables {d^B: {p^A: c}},
derivatives first, built once per size by `operator_table` from the
formulas below (M from the L_m tables) and applied by `PSeries.apply`,
or by its integer kernel for M's flow in `evolve`. Three families:

  * the half-Virasoro operators

        L_m = -(m + 1/2)/hbar d/dp_{2m+1}
              + sum_{i odd} (m + i/2) p_i d/dp_{2m+i}
              + sum_{i+j=2m, i,j odd} ij/4 d^2/dp_i dp_j
              + 1/16 [m = 0],

    which annihilate the partition function and close under
    [L_m, L_n] = (m - n) L_{m+n};

  * the cut-and-join operator

        M = 2 sum_{m >= 0} p_{2m+1} L^_m

    (Alexandrov's cut-and-join for the BGW model, arXiv:1608.01627), where
    L^_m is L_m without its 1/hbar piece. L^_m lowers weighted degree by
    2m, so M raises it by exactly one; M generates the partition function
    as the flow sum_k M^k 1 / k!;

  * the KdV field u = d^2 F / dx^2 in the weight-absorbed variables
    x = p1, t = p3 (absorbing hbar^k into p_k makes F hbar-free, since the
    hbar-exponent of every term equals its weighted degree), which solves

        u_t - u u_x - 1/12 u_xxx = 0,  with  u(x, 0) = 1/(8 (1-x)^2).

In the graded representation the 1/hbar piece of L_m maps a degree-d term
to degree d - (2m+1) at hbar-level d - 1, and the other three pieces map it
to hbar-level d at degree d - 2m, so every output term sits at hbar-level
(weighted degree + 2m) and the four pieces combine in one table. No L_m
raises degree. Which window of each image is complete, and so checked, is
decided in `verify`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd

from .pseries import PSeries, _apply_nums, _rows, operator_table


@cache
def _virasoro_table(m: int, top: int) -> dict:
    """L_m on series whose variables have index <= top."""
    k = 2 * m
    terms = [(-(m + Fraction(1, 2)), [], [(k + 1, 1)])]
    terms += [(m + Fraction(i, 2), [(i, 1)], [(k + i, 1)]) for i in range(1, top - k + 1, 2)]
    terms += [(Fraction(i * (k - i), 4), [], [(i, 1), (k - i, 1)]) for i in range(1, k, 2)]
    if m == 0:
        terms.append((Fraction(1, 16), [], []))
    return operator_table(terms)


def virasoro_apply(m: int, series: PSeries) -> PSeries:
    """Apply L_m term by term, through the table sized by the order, which
    bounds every index present; the truncation order is kept."""
    if m < 0:
        raise ValueError("the operators are defined for m >= 0 only")
    return series.apply(_virasoro_table(m, series.order))


@cache
def _cut_and_join_table(top: int) -> dict:
    """M on series of order top, read off the L_m tables. Every image of
    p_{2m+1} L^_m has degree >= 2m + 1, so m runs while 2m + 1 <= top, and
    m = 0 always, whose 1/16 gives M its p_1/8."""
    terms = [
        (2 * c, [*a, (2 * m + 1, 1)], b)
        for m in range((max(top, 1) + 1) // 2)
        for b, row in _virasoro_table(m, top).items()
        for a, c in row.items()
        if a or b != ((2 * m + 1, 1),)  # drop the 1/hbar piece d/dp_{2m+1}
    ]
    return operator_table(terms)


def evolve(order: int) -> PSeries:
    """The flow sum_{k <= order} M^k 1 / k!; M raises degree by one, so the
    k-th summand is exactly the degree-k slice and the sum is their union.
    Each M^k 1 / k! is integers over one denominator, reduced by their gcd."""
    if order < 0:
        raise ValueError("order must be non-negative")
    d_m, rows = _rows(_cut_and_join_table(order))
    den, power, terms = 1, {(): 1}, {(): Fraction(1)}
    for k in range(1, order + 1):
        power = _apply_nums(power, rows)
        den *= d_m * k
        g = gcd(den, *power.values())
        den, power = den // g, {m: n // g for m, n in power.items() if n}
        terms.update((m, Fraction(n, den)) for m, n in power.items())
    return PSeries(terms, order)


def kdv_initial_series(order: int) -> PSeries:
    """Series of 1/(8 (1 - x)^2) = sum (k+1) x^k / 8 in x = p1."""
    return PSeries(
        {(((1, k),) if k else ()): Fraction(k + 1, 8) for k in range(order + 1)},
        order,
    )


def kdv_field(F: PSeries) -> PSeries:
    """u = d^2 F / dx^2 restricted to the variables p1, p3, complete through
    degree F.order - 2. Restriction commutes with the derivatives taken here."""
    return F.restrict((1, 3)).partial(1).partial(1)

