"""Differential operators on the graded series and their residual checks.

Three families are implemented as structured term-by-term rules on sparse
monomials:

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
(weighted degree + 2m) and the four pieces combine as plain series. Applied
to a series complete through degree N, the result is reliable through
hbar-level N - 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .pseries import PSeries, mono_degree, mono_json


def _add_term(out: dict, key, coeff: Fraction) -> None:
    out[key] = out.get(key, Fraction(0)) + coeff


def _shifted(md: dict, deltas: dict):
    new = dict(md)
    for v, d in deltas.items():
        e = new.get(v, 0) + d
        if e < 0:
            return None
        if e:
            new[v] = e
        else:
            new.pop(v, None)
    return tuple(sorted(new.items(), reverse=True))


def virasoro_apply(m: int, series: PSeries) -> PSeries:
    """Apply L_m term by term; output coefficients are reliable through
    hbar-level (series.order - 1), i.e. output degree series.order - 1 - 2m."""
    if m < 0:
        raise ValueError("the operators are defined for m >= 0 only")
    out: dict = {}
    for mo, c in series.terms.items():
        md = dict(mo)
        # -(m + 1/2) d/dp_{2m+1}, the 1/hbar piece
        e = md.get(2 * m + 1)
        if e:
            _add_term(out, _shifted(md, {2 * m + 1: -1}), c * e * Fraction(-(2 * m + 1), 2))
        # sum over odd i of (m + i/2) p_i d/dp_{2m+i}; with i = v - 2m the
        # coefficient collapses to v/2
        for v, ev in md.items():
            if v - 2 * m >= 1:
                deltas = {v: -1}
                deltas[v - 2 * m] = deltas.get(v - 2 * m, 0) + 1
                _add_term(out, _shifted(md, deltas), c * ev * Fraction(v, 2))
        # sum over ordered odd pairs i + j = 2m of ij/4 d^2/dp_i dp_j
        for i in range(1, 2 * m, 2):
            j = 2 * m - i
            if i == j:
                fac = md.get(i, 0) * (md.get(i, 0) - 1)
                deltas = {i: -2}
            else:
                fac = md.get(i, 0) * md.get(j, 0)
                deltas = {i: -1, j: -1}
            if fac:
                _add_term(out, _shifted(md, deltas), c * fac * Fraction(i * j, 4))
        # central term
        if m == 0:
            _add_term(out, mo, c * Fraction(1, 16))
    return PSeries(out, series.order)


def virasoro_residual_terms(Z: PSeries, m: int) -> list[tuple]:
    """Nonzero terms of L_m Z within the reliable window, as (mono, coeff)."""
    res = virasoro_apply(m, Z)
    return [
        (mo, c)
        for mo, c in res.sorted_terms()
        if mono_degree(mo) + 2 * m <= Z.order - 1
    ]


def virasoro_annihilation_check(Z: PSeries, m_max: int) -> dict:
    """Assert L_m Z = 0 through hbar-level (Z.order - 1) for 0 <= m <= m_max.

    Failures are report content, not exceptions.
    """
    residuals = []
    for m in range(m_max + 1):
        for mo, c in virasoro_residual_terms(Z, m):
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


def cut_and_join(series: PSeries) -> PSeries:
    """Apply M; every term raises the weighted degree by exactly one."""
    out: dict = {}
    for mo, c in series.terms.items():
        md = dict(mo)
        _add_term(out, _shifted(md, {1: 1}), c * Fraction(1, 8))
        # join piece: 1/2 sum ij p_{i+j+1} d^2/dp_i dp_j over ordered pairs
        for i, ei in md.items():
            for j, ej in md.items():
                fac = ei * (ei - 1) if i == j else ei * ej
                if not fac:
                    continue
                deltas = {i: -1}
                deltas[j] = deltas.get(j, 0) - 1
                deltas[i + j + 1] = deltas.get(i + j + 1, 0) + 1
                _add_term(out, _shifted(md, deltas), c * fac * Fraction(i * j, 2))
        # cut piece: sum (i+j-1) p_i p_j d/dp_{i+j-1}, i.e. for each variable
        # k present, split it as i + j = k + 1 over ordered odd pairs
        for k, ek in md.items():
            for i in range(1, k + 1, 2):
                j = k + 1 - i
                deltas = {k: -1}
                deltas[i] = deltas.get(i, 0) + 1
                deltas[j] = deltas.get(j, 0) + 1
                _add_term(out, _shifted(md, deltas), c * ek * k)
    return PSeries(out, series.order)


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
