"""Differential operators on the graded series and their residual checks.

The linear operators are data: normal-ordered tables {d^B: {p^A: c}},
derivatives first, built once per size by `operator_table` from the
formulas below and applied by `PSeries.apply`. Three families:

  * the half-Virasoro operators

        L_m = -(m + 1/2)/hbar d/dp_{2m+1}
              + sum_{i odd} (m + i/2) p_i d/dp_{2m+i}
              + sum_{i+j=2m, i,j odd} ij/4 d^2/dp_i dp_j
              + 1/16 [m = 0],

    which annihilate the partition function and close under
    [L_m, L_n] = (m - n) L_{m+n};

  * the cut-and-join operator

        M = 1/8 p_1 + 1/2 sum_{i,j odd} ij p_{i+j+1} d^2/dp_i dp_j
            + sum_{i,j odd} (i+j-1) p_i p_j d/dp_{i+j-1},

    which raises weighted degree by exactly one and generates the partition
    function as the flow sum_k M^k 1 / k!;

  * the KdV residual for u = d^2 F / dx^2 in the weight-absorbed variables
    x = p1, t = p3 (absorbing hbar^k into p_k makes F hbar-free, since the
    hbar-exponent of every term equals its weighted degree):

        u_t - u u_x - 1/12 u_xxx,  with  u(x, 0) = 1/(8 (1-x)^2).

In the graded representation the 1/hbar piece of L_m maps a degree-d term
to degree d - (2m+1) at hbar-level d - 1, and the other three pieces map it
to hbar-level d at degree d - 2m, so every output term sits at hbar-level
(weighted degree + 2m) and the four pieces combine in one table. Applied
to a series complete through degree N, the result is reliable through
hbar-level N - 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .pseries import PSeries, mono_degree, mono_json, operator_table


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
    """Apply L_m term by term; output coefficients are reliable through
    hbar-level (series.order - 1), i.e. output degree series.order - 1 - 2m."""
    if m < 0:
        raise ValueError("the operators are defined for m >= 0 only")
    # sized by the largest index present (listed first), so small series share small tables
    top = max((mo[0][0] for mo in series.terms if mo), default=0)
    return series.apply(_virasoro_table(m, top))


def virasoro_annihilation_check(Z: PSeries, m_max: int) -> dict:
    """Assert L_m Z = 0 through hbar-level (Z.order - 1) for 0 <= m <= m_max.

    Failures are report content, not exceptions.
    """
    residuals = []
    for m in range(m_max + 1):
        for mo, c in virasoro_apply(m, Z).sorted_terms():
            if mono_degree(mo) + 2 * m <= Z.order - 1:
                residuals.append({"m": m, "mono": mono_json(mo), "coeff": str(c)})
    return {
        "check": "virasoro",
        "order": Z.order,
        "reliable_order": Z.order - 1,
        "status": "pass" if not residuals else "fail",
        "residual_terms": residuals,
    }


def virasoro_commutator_holds(m: int, n: int, series: PSeries, images: dict | None = None) -> bool:
    """[L_m, L_n] = (m - n) L_{m+n} applied to `series`.

    Compared through the provably complete window: L_n costs 2n + 1 degrees
    of completeness and L_m another 2m + 1, so the difference is checked
    through degree series.order - 2(m + n) - 2. `images` maps k to
    L_k(series) and is filled on first use: passing one dict to every call
    on the same series applies each L_k to it once.
    """
    if images is None:
        images = {}

    def image(k: int) -> PSeries:
        if k not in images:
            images[k] = virasoro_apply(k, series)
        return images[k]

    lhs = virasoro_apply(m, image(n)) - virasoro_apply(n, image(m))
    rhs = image(m + n) * (m - n)
    reliable = series.order - 2 * (m + n) - 2
    if reliable < 0:
        return True
    return (lhs - rhs).truncated(reliable).is_zero()


@cache
def _cut_and_join_table(top: int) -> dict:
    """M on series of order top; the join piece p_{i+j+1} d^2/dp_i dp_j is
    listed only where its images, of degree >= i + j + 1, can stay within top."""
    odd = range(1, top + 1, 2)
    terms = [(Fraction(1, 8), [(1, 1)], [])]
    for i in odd:
        for j in odd:
            if i + j + 1 <= top:
                terms.append((Fraction(i * j, 2), [(i + j + 1, 1)], [(i, 1), (j, 1)]))
            if i + j - 1 <= top:
                terms.append((i + j - 1, [(i, 1), (j, 1)], [(i + j - 1, 1)]))
    return operator_table(terms)


def cut_and_join(series: PSeries) -> PSeries:
    """Apply M; every term raises the weighted degree by exactly one."""
    return series.apply(_cut_and_join_table(series.order))


def evolve(order: int) -> PSeries:
    """The flow sum_{k <= order} M^k 1 / k!; M raises degree by one, so the
    k-th summand is exactly the degree-k slice."""
    if order < 0:
        raise ValueError("order must be non-negative")
    acc = PSeries.one(order)
    power = PSeries.one(order)
    for k in range(1, order + 1):
        power = cut_and_join(power)
        acc = acc + power * Fraction(1, factorial(k))
    return acc


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


def kdv_residuals(F: PSeries) -> tuple[PSeries, PSeries]:
    """The KdV residual u_t - u u_x - 1/12 u_xxx truncated to the reliable
    degree F.order - 5, and u(x, 0) minus the geometric square series
    through degree F.order - 2."""
    u = kdv_field(F)
    flow = u.partial(3) - u * u.partial(1) - u.partial(1).partial(1).partial(1) * Fraction(1, 12)
    initial = u.restrict((1,)).truncated(F.order - 2) - kdv_initial_series(F.order - 2)
    return flow.truncated(F.order - 5), initial
