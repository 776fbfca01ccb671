"""Differential operators on the graded series, and the series they act on.

The linear operators are data: normal-ordered operators, derivatives first,
packed once per size by `operator_table` from the terms of the formulas
below (M from the terms of the L_m) and applied by `PSeries.apply`, also
step by step in M's flow `evolve`. Three families:

  * the half-Virasoro operators

        L_m = -(m + 1/2)/hbar d/dp_{2m+1}
              + sum_{i odd} (m + i/2) p_i d/dp_{2m+i}
              + sum_{i+j=2m, i,j odd} ij/4 d^2/dp_i dp_j
              + s/2 [m = 0],

    with s = C(1; 1) = 1/8 read from `correlators.SEED`, never from a run's
    table, so a wrong seed fails. They annihilate the partition function and
    close under [L_m, L_n] = (m - n) L_{m+n};

  * the cut-and-join operator

        M = 2 sum_{m >= 0} p_{2m+1} L^_m

    (Alexandrov's cut-and-join for the BGW model, arXiv:1608.01627), where
    L^_m is L_m without its 1/hbar piece. L^_m lowers weighted degree by
    2m, so M raises it by exactly one; M generates the partition function
    as the flow sum_k M^k 1 / k!;

  * the KdV field u = d^2 F / dx^2 in the weight-absorbed variables
    x = p1, t = p3 (absorbing hbar^k into p_k makes F hbar-free, since the
    hbar-exponent of every term equals its weighted degree), which solves

        u_t - u u_x - 1/12 u_xxx = 0,  with  u(x, 0) = s/(1-x)^2.

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

from .correlators import SEED
from .pseries import P1, Operator, PSeries, _order, operator_table


def _virasoro_terms(m: int, top: int) -> list:
    """The terms (c, A, B) of L_m whose d^B has degree <= top; the rest act
    on no monomial of degree <= top."""
    k = 2 * m
    terms = [(Fraction(-k - 1, 2), [], [(k + 1, 1)])] if k < top else []
    terms += [(Fraction(k + i, 2), [(i, 1)], [(k + i, 1)]) for i in range(1, top - k + 1, 2)]
    if k <= top:
        terms += [(Fraction(i * (k - i), 4), [], [(i, 1), (k - i, 1)]) for i in range(1, k, 2)]
    if m == 0:
        terms.append((SEED / 2, [], []))
    return terms


@cache
def _virasoro_table(m: int, top: int) -> Operator:
    """L_m on series of order top."""
    return operator_table(_virasoro_terms(m, top))


def virasoro_apply(m: int, series: PSeries) -> PSeries:
    """Apply L_m term by term, through the table sized by the order, which
    bounds every index present; the truncation order is kept."""
    if m < 0:
        raise ValueError("the operators are defined for m >= 0 only")
    return series.apply(_virasoro_table(m, series.order))


@cache
def _cut_and_join_table(top: int) -> Operator:
    """M on series of order top, as 2 p_{2m+1} L^_m for the m with 2m + 1 <= top,
    since the image of p_{2m+1} has degree >= 2m + 1; L_m sized by top - 1
    keeps exactly M's terms whose p^A has degree <= top, the only ones that
    land a kept term."""
    terms = [
        (2 * c, [*a, (2 * m + 1, 1)], b)
        for m in range((top + 1) // 2)
        for c, a, b in _virasoro_terms(m, top - 1)
        if a or b != [(2 * m + 1, 1)]  # drop the 1/hbar piece d/dp_{2m+1}
    ]
    return operator_table(terms)


def evolve(order: int) -> PSeries:
    """The flow sum_{k <= order} M^k 1 / k!; M raises degree by one, so the
    k-th summand is exactly the degree-k slice and the sum is their union.
    Each M^k 1 / k! is integers over one denominator, reduced by their gcd."""
    top = _order(order)
    M, power, slices = _cut_and_join_table(top), PSeries.one(top), [(1, {0: 1})]
    for k in range(1, top + 1):
        power = power.apply(M)
        power = PSeries._of(power.nums, power.den * k, top)
        slices.append((power.den, power.nums))
    return PSeries._joined(slices, top)


def kdv_initial_series(order: int) -> PSeries:
    """Series of u(x, 0) = s/(1 - x)^2 = sum (k+1) s x^k in x = p1, s = SEED."""
    top, (p, q) = _order(order), SEED.as_integer_ratio()
    return PSeries._of({k * P1: (k + 1) * p for k in range(top + 1)}, q, top)


def kdv_field(F: PSeries) -> PSeries:
    """u = d^2 F / dx^2 restricted to the variables p1, p3, complete through
    degree F.order - 2. Restriction commutes with the derivatives taken here."""
    return F.restrict((1, 3)).partial(1).partial(1)

