"""Verification suites.

Each target builds a JSON-ready report

    {"check": name, "order": N, "reliable_order": r,
     "status": "pass" | "fail", "residual_terms": [...]}

listing every offending term (empty on pass); string-dilaton and
oracle-equivalence give chi_max as both orders. `run_target(name, run)`
reports one target on a `RunContext`, the one run its targets share. A
target whose reliable window would be empty is refused with a ValueError,
by `run_target` and by each report called directly, never reported as a
vacuous pass. The operators and the series they act on come from
`operators`; every window and every pass/fail decision is made here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import operators
from .correlators import (
    CorrelatorTable,
    genus,
    in_support,
    multiplicity_weight,
    odd_partitions,
    support_keys,
)
from .operators import evolve, kdv_field, kdv_initial_series, virasoro_apply
from .pseries import (
    PSeries,
    bracket,
    free_energy,
    mono_degree,
    mono_json,
)
from .spectral import CorrelationEngine, bessel_curve, stable_pairs, symmetric_table
from .wave import coefficients, principal_specialize, quantum_curve_residual, wave_series


class RunContext:
    """One verify run: its order, chi_max and m_max, the correlator table
    its targets share, and F and Z = exp F at its order, each built on first
    use, so a run builds only what its targets read. Targets only read F and
    Z; every series operation returns a new series."""

    def __init__(self, *, order: int, chi_max: int, m_max: int):
        self.order, self.chi_max, self.m_max = order, chi_max, m_max
        self.table = CorrelatorTable()

    @cached_property
    def F(self) -> PSeries:
        return free_energy(self.table, self.order)

    @cached_property
    def Z(self) -> PSeries:
        return self.F.exp()


def _report(check: str, order: int, reliable: int, residuals: list) -> dict:
    return {
        "check": check,
        "order": order,
        "reliable_order": reliable,
        "status": "pass" if not residuals else "fail",
        "residual_terms": residuals,
    }


def virasoro_report(Z: PSeries, m_max: int) -> dict:
    """L_m Z = 0 for 0 <= m <= m_max. Every term of L_m Z sits at hbar-level
    (degree + 2m), and Z complete through degree N makes L_m Z complete
    through hbar-level N - 1, so each image is checked through degree
    N - 1 - 2m, and m stops where that window empties, at (N - 1) // 2."""
    _refuse_empty_window("virasoro", order=Z.order, m_max=m_max)
    residuals = []
    for m in range(min(m_max, (Z.order - 1) // 2) + 1):
        residuals += virasoro_apply(m, Z).truncated(Z.order - 1 - 2 * m).rows(m=m)
    return _report("virasoro", Z.order, Z.order - 1, residuals)


def commutator_report(order: int, m_max: int) -> dict:
    """[L_m, L_n] = (m - n) L_{m+n} on every monomial of degree <= order,
    for 0 <= m < n <= m_max: m = n holds by construction and m > n is the
    same identity negated. For 2n > order, L_n and L_{m+n} kill every such
    monomial and every image of one (no L_k raises degree), so n stops at
    order // 2.

    The verdict is made on operator tables: for each pair, the commutator
    summed by `bracket` from the L tables sized by order (only the Leibniz
    terms that contract a derivative, as the others cancel) must equal the
    table (m - n) L_{m+n}, both kept to derivative degree <= order. That
    cut is exact. A term the sizing drops carries a derivative d/dp_j with
    j > order, and so does every product term it feeds: a product keeps
    the inner factor's derivatives, and loses an outer d/dp_j only against
    a p_j of the inner factor, which an L table holds only beside
    d/dp_{j+2k}. And a normal-ordered operator kills every monomial of
    degree <= order iff its coefficients of derivative degree <= order all
    vanish: on p^B, for B least among the d^B with a coefficient that does
    not, only d^B itself acts. Only a pair whose tables differ sweeps the
    basis, both sides applied to each monomial x as the exact series of
    order deg x, to list the monomials it fails on.
    """
    _refuse_empty_window("commutator", order=order, m_max=m_max)
    n_max = min(m_max, order // 2)
    failing = [
        (m, n)
        for m in range(n_max + 1)
        for n in range(m + 1, n_max + 1)
        if not _bracket_closes(m, n, order)
    ]
    basis = [parts for d in range(order + 1) for parts in odd_partitions(d)] if failing else []
    residuals = []
    for m, n in failing:
        for x in basis:
            s = PSeries({x: 1}, mono_degree(x))
            lhs = virasoro_apply(m, virasoro_apply(n, s)) - virasoro_apply(n, virasoro_apply(m, s))
            if not (lhs - virasoro_apply(m + n, s) * (m - n)).is_zero():
                residuals.append({"m": m, "n": n, "mono": mono_json(x)})
    return _report("commutator", order, order, residuals)


def _bracket_closes(m: int, n: int, order: int) -> bool:
    """Whether bracket(L_m, L_n, order) = (m - n) L_{m+n}, on the L tables
    sized by order, the right side cut to derivative degree <= order and
    both sides without zero coefficients or empty rows."""
    table = operators._virasoro_table
    rows = (
        (b, {a: (m - n) * c for a, c in row.items() if c})
        for b, row in table(m + n, order).items()
        if mono_degree(b) <= order
    )
    return bracket(table(m, order), table(n, order), order) == {b: r for b, r in rows if r}


def cutjoin_report(Z: PSeries) -> dict:
    """The cut-and-join flow against Z = exp F at the same order."""
    return _report("cutjoin", Z.order, Z.order, (evolve(Z.order) - Z).rows())


def kdv_report(F: PSeries) -> dict:
    """u_t - u u_x - 1/12 u_xxx = 0 for u = kdv_field(F), checked through
    degree F.order - 5 (u is complete through F.order - 2, and u_t and
    u_xxx each cost three more), and u(x, 0) against s/(1 - x)^2, s = SEED, through F.order - 2."""
    _refuse_empty_window("kdv", order=F.order)
    u = kdv_field(F)
    u_x = u.partial(1)
    flow = u.partial(3) - u * u_x - u_x.partial(1).partial(1) * Fraction(1, 12)
    initial = u.restrict((1,)).truncated(F.order - 2) - kdv_initial_series(F.order - 2)
    residuals = flow.truncated(F.order - 5).rows(part="flow") + initial.rows(part="initial")
    return _report("kdv", F.order, F.order - 5, residuals)


def quantum_curve_report(Z: PSeries) -> dict:
    """The specialised Z against the quantum curve, and against the
    closed-form wave series."""
    _refuse_empty_window("quantum-curve", order=Z.order)
    psi = principal_specialize(Z)
    routes = (
        ("specialised", quantum_curve_residual(psi)),
        ("agreement", psi - wave_series(Z.order)),
    )
    residuals = [
        {"route": route, "power": mono_degree(m), "coeff": str(c)}
        for route, series in routes
        for m, c in series.sorted_terms()
    ]
    return _report("quantum-curve", Z.order, Z.order - 1, residuals)


def string_dilaton_report(table: CorrelatorTable, chi_max: int) -> dict:
    """Appending a part equal to 1 multiplies the value by 2g - 2 + n, on
    every index tuple with 2g - 2 + n <= chi_max. The table fills C(g; mu, 1)
    by this very equation, so the left side is a fresh recursion step that
    pivots on the largest part, reading the filled entries only as inputs."""
    _refuse_empty_window("string-dilaton", chi_max=chi_max)
    residuals = [
        {"g": g, "mu": list(parts)}
        for g, parts in support_keys(chi_max)
        if table.recursion_step(g, parts + (1,), 0)
        != (2 * g - 2 + len(parts)) * table.value(g, parts)
    ]
    return _report("string-dilaton", chi_max, chi_max, residuals)


def oracle_equivalence_report(table: CorrelatorTable, chi_max: int) -> dict:
    """Residue pipeline against the closed recursion on every index tuple
    with 2g - 2 + n <= chi_max, both directions."""
    _refuse_empty_window("oracle-equivalence", chi_max=chi_max)
    engine = CorrelationEngine(bessel_curve())
    residuals = []
    partitions = [list(odd_partitions(chi)) for chi in range(chi_max + 1)]
    for g, n in stable_pairs(chi_max):
        got = symmetric_table(engine.omega(g, n), n)
        off = [mu for mu in got if not in_support(g, mu)]
        on = [mu for mu in partitions[2 * g - 2 + n] if len(mu) == n]
        for mu in off + on:  # off the support, value is 0
            expected, seen = table.value(g, mu), got.get(mu, Fraction(0))
            if seen != expected:
                residuals.append(
                    {"g": g, "mu": list(mu), "expected": str(expected), "got": str(seen)}
                )
    return _report("oracle-equivalence", chi_max, chi_max, residuals)


def sk_identity_report(table: CorrelatorTable, Z: PSeries) -> dict:
    """log of the specialised Z against the table, one hbar-power d at a
    time through Z.order: the sum over odd partitions of d of C(g; parts) /
    prod mult!. Reading the table, not F, keeps this route independent of
    `free_energy`. Each power that disagrees is a row, with the table's sum
    as expected and the coefficient of the log as got."""
    # no sign: hbar -> -hbar gives w^d the sign (-1)^d and each correlator
    # (-1)^n, and n odd parts sum to d only when n = d mod 2
    residuals = []
    for d, a in enumerate(coefficients(principal_specialize(Z).log())):
        rhs = sum(
            table.value(genus(parts), parts) / multiplicity_weight(parts)
            for parts in odd_partitions(d)
        )
        if a != rhs:
            residuals.append(
                {"identity": "sk-log", "power": d, "expected": str(rhs), "got": str(a)}
            )
    report = _report("sk-identity", Z.order, Z.order, residuals)
    # the two leading WKB terms are constants outside the series ring
    report["prefactor"] = {"S0": "-z", "S1": "-(1/2)*log(z)"}
    return report


# name -> (the least value of each parameter at which the target checks
# anything, below which its reliable window is empty; its report on a run)
_TARGETS = {
    "virasoro": ({"order": 1, "m_max": 0}, lambda run: virasoro_report(run.Z, run.m_max)),
    "commutator": ({"order": 2, "m_max": 1}, lambda run: commutator_report(run.order, run.m_max)),
    "cutjoin": ({"order": 0}, lambda run: cutjoin_report(run.Z)),
    "kdv": ({"order": 5}, lambda run: kdv_report(run.F)),
    "quantum-curve": ({"order": 1}, lambda run: quantum_curve_report(run.Z)),
    "string-dilaton": ({"chi_max": 1}, lambda run: string_dilaton_report(run.table, run.chi_max)),
    "oracle-equivalence": (
        {"chi_max": 1},
        lambda run: oracle_equivalence_report(run.table, run.chi_max),
    ),
    "sk-identity": ({"order": 0}, lambda run: sk_identity_report(run.table, run.Z)),
}
TARGETS = tuple(_TARGETS)


def empty_window(name: str, **params: int) -> str | None:
    """Why target `name` would check nothing at these parameters, or None."""
    for param, least in _TARGETS[name][0].items():
        if params[param] < least:
            flag = "--" + param.replace("_", "-")
            return f"{name} checks nothing at {flag} {params[param]}; it needs {flag} >= {least}"
    return None


def _refuse_empty_window(name: str, **params: int) -> None:
    """Raise ValueError where target `name` would check nothing; `params`
    needs only the parameters the target has a least value for."""
    reason = empty_window(name, **params)
    if reason:
        raise ValueError(reason)


def run_target(name: str, run: RunContext) -> dict:
    """Report of target `name` on `run`, at the run's parameters."""
    if name not in _TARGETS:
        raise ValueError(f"unknown verify target {name!r}")
    _refuse_empty_window(name, order=run.order, chi_max=run.chi_max, m_max=run.m_max)
    return _TARGETS[name][1](run)
