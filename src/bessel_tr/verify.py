"""Verification suites.

Each target builds a JSON-ready report

    {"check": name, "order": N, "reliable_order": r,
     "status": "pass" | "fail", "residual_terms": [...]}

listing every offending term (empty on pass). A target whose reliable window
would be empty is refused, never reported as a vacuous pass.
"""

from __future__ import annotations

from fractions import Fraction

from .correlators import (
    CorrelatorTable,
    in_support,
    odd_partitions,
    string_dilaton_holds,
    support_keys,
)
from .operators import (
    evolve,
    kdv_field,
    kdv_initial_series,
    virasoro_annihilation_check,
    virasoro_commutator_holds,
)
from .pseries import PSeries, mono, partition_function
from .spectral import CorrelationEngine, bessel_curve, stable_pairs, symmetric_table
from .wave import (
    conjugated_residual,
    principal_specialize,
    quantum_curve_residual,
    sk_identity_check,
    wave_series,
)


def _report(check: str, order: int, reliable: int, residuals: list) -> dict:
    return {
        "check": check,
        "order": order,
        "reliable_order": reliable,
        "status": "pass" if not residuals else "fail",
        "residual_terms": residuals,
    }


def _mono_json(m) -> dict:
    return {str(i): e for i, e in sorted(m)}


def virasoro_report(order: int, m_max: int) -> dict:
    return virasoro_annihilation_check(partition_function(CorrelatorTable(), order), m_max)


def commutator_report(order: int, m_max: int) -> dict:
    """[L_m, L_n] = (m - n) L_{m+n} on every monomial of degree <= order.

    Working truncation is padded so the comparison is complete for exact
    monomial inputs.
    """
    pad = 4 * m_max + 2
    basis = [PSeries.one(pad)]
    for d in range(1, order + 1):
        for parts in odd_partitions(d):
            basis.append(PSeries({mono((p, 1) for p in parts): Fraction(1)}, d + pad))
    residuals = []
    for m in range(m_max + 1):
        for n in range(m, m_max + 1):
            for series in basis:
                if not virasoro_commutator_holds(m, n, series):
                    term = next(iter(series.terms), ())
                    residuals.append({"m": m, "n": n, "mono": _mono_json(term)})
    return _report("commutator", order, order, residuals)


def cutjoin_report(order: int) -> dict:
    flowed = evolve(order)
    exponentiated = partition_function(CorrelatorTable(), order)
    diff = flowed - exponentiated
    residuals = [
        {"mono": _mono_json(mo), "coeff": str(c)} for mo, c in diff.sorted_terms()
    ]
    return _report("cutjoin", order, order, residuals)


def kdv_report(order: int) -> dict:
    table = CorrelatorTable()
    u = kdv_field(table, order)
    residuals = []
    flow = (
        u.partial(3) - u * u.partial(1) - u.partial(1).partial(1).partial(1) * Fraction(1, 12)
    ).truncated(order - 5)
    for mo, c in flow.sorted_terms():
        residuals.append({"part": "flow", "mono": _mono_json(mo), "coeff": str(c)})
    ic_diff = u.restrict((1,)).truncated(order - 2) - kdv_initial_series(order - 2)
    for mo, c in ic_diff.sorted_terms():
        residuals.append({"part": "initial", "mono": _mono_json(mo), "coeff": str(c)})
    return _report("kdv", order, order - 5, residuals)


def quantum_curve_report(order: int) -> dict:
    residuals = []
    psi_closed = wave_series(order)
    for d, c in enumerate(quantum_curve_residual(psi_closed).coeffs):
        if c:
            residuals.append({"route": "closed-form", "power": d, "coeff": str(c)})
    psi_spec = principal_specialize(partition_function(CorrelatorTable(), order))
    for d, c in enumerate(quantum_curve_residual(psi_spec).coeffs):
        if c:
            residuals.append({"route": "specialised", "power": d, "coeff": str(c)})
    agree = psi_spec - psi_closed
    for d, c in enumerate(agree.coeffs):
        if c:
            residuals.append({"route": "agreement", "power": d, "coeff": str(c)})
    conj = conjugated_residual(psi_closed) - quantum_curve_residual(psi_closed) * 2
    for d, c in enumerate(conj.coeffs):
        if c:
            residuals.append({"route": "conjugation", "power": d, "coeff": str(c)})
    return _report("quantum-curve", order, order - 1, residuals)


def string_dilaton_report(chi_max: int) -> dict:
    table = CorrelatorTable()
    residuals = []
    for g, parts in support_keys(chi_max):
        if not string_dilaton_holds(table, g, parts):
            residuals.append({"g": g, "mu": list(parts)})
    return _report("string-dilaton", chi_max, chi_max, residuals)


def oracle_equivalence_report(chi_max: int) -> dict:
    """Residue pipeline against the closed recursion on every index tuple
    with 2g - 2 + n <= chi_max, both directions."""
    table = CorrelatorTable()
    engine = CorrelationEngine(bessel_curve())
    residuals = []
    expected = {(g, parts): table.value(g, parts) for g, parts in support_keys(chi_max)}
    for g, n in stable_pairs(chi_max):
        got = symmetric_table(engine.omega(g, n))
        for mu, value in got.items():
            if not in_support(g, mu):
                residuals.append(
                    {"g": g, "mu": list(mu), "expected": "0", "got": str(value)}
                )
        for (gg, parts), value in expected.items():
            if gg == g and len(parts) == n:
                seen = got.get(parts, Fraction(0))
                if seen != value:
                    residuals.append(
                        {"g": g, "mu": list(parts), "expected": str(value), "got": str(seen)}
                    )
    return _report("oracle-equivalence", chi_max, chi_max, residuals)


def sk_identity_report(order: int) -> dict:
    ok = sk_identity_check(CorrelatorTable(), order)
    residuals = [] if ok else [{"identity": "sk-log"}]
    report = _report("sk-identity", order, order, residuals)
    # the two leading WKB terms are constants outside the series ring
    report["prefactor"] = {"S0": "-z", "S1": "-(1/2)*log(z)"}
    return report


# name -> (the least value of each parameter at which the target checks
# anything, below which its reliable window is empty; its report function,
# called with (order, chi_max, m_max))
_TARGETS = {
    "virasoro": ({"order": 1, "m_max": 0}, lambda o, c, m: virasoro_report(o, m)),
    "commutator": ({"order": 0, "m_max": 0}, lambda o, c, m: commutator_report(o, m)),
    "cutjoin": ({"order": 0}, lambda o, c, m: cutjoin_report(o)),
    "kdv": ({"order": 5}, lambda o, c, m: kdv_report(o)),
    "quantum-curve": ({"order": 1}, lambda o, c, m: quantum_curve_report(o)),
    "string-dilaton": ({"chi_max": 1}, lambda o, c, m: string_dilaton_report(c)),
    "oracle-equivalence": ({"chi_max": 1}, lambda o, c, m: oracle_equivalence_report(c)),
    "sk-identity": ({"order": 0}, lambda o, c, m: sk_identity_report(o)),
}
TARGETS = tuple(_TARGETS)


def empty_window(name: str, **params: int) -> str | None:
    """Why target `name` would check nothing at these parameters, or None."""
    for param, least in _TARGETS[name][0].items():
        if params[param] < least:
            flag = "--" + param.replace("_", "-")
            return f"{name} checks nothing at {flag} {params[param]}; it needs {flag} >= {least}"
    return None


def run_target(name: str, *, order: int, chi_max: int, m_max: int) -> dict:
    if name not in _TARGETS:
        raise ValueError(f"unknown verify target {name!r}")
    reason = empty_window(name, order=order, chi_max=chi_max, m_max=m_max)
    if reason:
        raise ValueError(reason)
    return _TARGETS[name][1](order, chi_max, m_max)
