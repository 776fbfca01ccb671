import hashlib
import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st
from closed_families import double_factorial
from strategies import PROPERTY

from bessel_tr import spectral
from bessel_tr.correlators import CorrelatorTable, in_support, odd_partitions
from bessel_tr.spectral import (
    ConsistencyError,
    CorrelationEngine,
    airy_curve,
    bessel_curve,
    omega_records,
    reciprocal,
    stable_pairs,
    symmetric_table,
)


def test_kernel_rejects_even_y():
    with pytest.raises(ValueError):
        CorrelationEngine({2: 1})


def test_unsupported_branch_behaviour_rejected():
    with pytest.raises(ValueError):
        CorrelationEngine({3: 1}).omega(1, 1)


def test_germ_refuses_a_fractional_exponent():
    # int() would read y = z^(-3/2) as the Bessel curve; even keys are checked too
    for germ in ({-1.5: 1}, {-1: 1, 2.0: 3}):
        with pytest.raises(TypeError):
            CorrelationEngine(germ)
    assert CorrelationEngine({True: 1}).kernel_denominator == {2: 2}


def test_omega_rejects_unstable_indices():
    engine = CorrelationEngine(bessel_curve())
    for g, n in ((0, 1), (0, 2), (-1, 3), (1, 0)):
        with pytest.raises(ValueError):
            engine.omega(g, n)


def test_bessel_omega_examples():
    engine = CorrelationEngine(bessel_curve())
    assert symmetric_table(engine.omega(1, 1), 1) == {(1,): Fraction(1, 8)}
    assert symmetric_table(engine.omega(0, 3), 3) == {}
    assert symmetric_table(engine.omega(2, 1), 1) == {(3,): Fraction(3, 128)}


def test_airy_omega_examples():
    # oracles: hand residue for (1,1); psi-class intersection table with the
    # double-factorial dictionary for the rest (<tau_0^3> = 1, <tau_1> = 1/24,
    # <tau_0 tau_2> = <tau_1 tau_1> = 1/24, <tau_4> = 1/1152)
    engine = CorrelationEngine(airy_curve())
    assert symmetric_table(engine.omega(1, 1), 1) == {(3,): Fraction(1, 24)}
    assert symmetric_table(engine.omega(0, 3), 3) == {(1, 1, 1): Fraction(1)}
    assert symmetric_table(engine.omega(1, 2), 2) == {
        (5, 1): Fraction(1, 8),
        (3, 3): Fraction(1, 24),
    }
    assert symmetric_table(engine.omega(2, 1), 1) == {(9,): Fraction(35, 384)}


def test_oracle_equivalence_bessel():
    # the module's primary acceptance property
    engine = CorrelationEngine(bessel_curve())
    table = CorrelatorTable()
    for g, n in stable_pairs(6):
        got = symmetric_table(engine.omega(g, n), n)
        for mu, value in got.items():
            assert table.value(g, mu) == value, (g, mu)
        for parts in odd_partitions(2 * g - 2 + n):
            if len(parts) == n:
                assert got.get(parts, Fraction(0)) == table.value(g, parts), (g, parts)


def test_bessel_support_law():
    engine = CorrelationEngine(bessel_curve())
    for g, n in stable_pairs(6):
        for mu in engine.omega(g, n):
            assert in_support(g, mu), (g, mu)


def test_pole_order_law():
    # no index is capped, so the law is checked on every index the residues
    # reach: expansion index at most 2g - 1 at a simple pole of y (pole order
    # 2g), at most 6g - 5 + 2n where y is analytic (pole order 6g - 4 + 2n);
    # some pair must reach its bound, or the check would be vacuous
    for germ, chi_max in (
        ({-1: 1}, 10),
        ({-1: 1, 1: 1}, 10),
        ({-1: 1, 1: 3, 3: -5}, 8),
        ({1: 1}, 6),
        ({1: 1, 3: 1}, 6),
        ({1: 2, 3: 1}, 5),
    ):
        engine = CorrelationEngine(germ)
        reached = 0
        for g, n in stable_pairs(chi_max):
            bound = 2 * g - 1 if -1 in germ else 6 * g - 5 + 2 * n
            tops = {max(mu) for mu in engine.omega(g, n)}
            assert all(top <= bound for top in tops), (germ, g, n, tops)
            reached += bound in tops
        assert reached, germ


def _live_slots(mu, value):
    """The storage form of one multiset: an entry per distinct live index."""
    entries = {}
    for v in set(mu):
        rest = sorted(mu, reverse=True)
        rest.remove(v)
        entries[(v,) + tuple(rest)] = value
    return entries


def test_omega_tensors_are_symmetric():
    # every stored entry (b; E) has all its live-slot siblings, equal to it
    for curve, chi_max in ((bessel_curve(), 8), (airy_curve(), 6)):
        engine = CorrelationEngine(curve)
        for g, n in stable_pairs(chi_max):
            tensor = engine.omega(g, n)
            for key, value in tensor.items():
                assert list(key[1:]) == sorted(key[1:], reverse=True), (g, n, key)
                for sibling, same in _live_slots(key, value).items():
                    assert tensor.get(sibling) == same, (curve, g, n, key, sibling)


def test_symmetric_table_empty():
    assert symmetric_table({}, 3) == {}


def test_symmetric_table_rejects_asymmetry():
    # two live slots of one multiset that disagree
    broken = {(3, 1): Fraction(1, 8), (1, 3): Fraction(1, 4)}
    with pytest.raises(ConsistencyError):
        symmetric_table(broken, 2)
    missing = {(3, 1): Fraction(1, 8)}
    with pytest.raises(ConsistencyError):
        symmetric_table(missing, 2)
    whole = _live_slots((5, 3, 3, 1), Fraction(2, 9))
    for key in whole:
        bent = dict(whole)
        bent[key] = Fraction(3, 9)
        with pytest.raises(ConsistencyError, match="asymmetric"):
            symmetric_table(bent, 4)


def test_symmetric_table_rejects_unsorted_externals():
    # (1; 1, 3) would stand in for the live slot 1 of (3, 1, 1) a second time
    entries = {(3, 1, 1): Fraction(1), (1, 1, 3): Fraction(1)}
    with pytest.raises(ConsistencyError, match="unsorted"):
        symmetric_table(entries, 3)


def test_omega_records_format():
    records = omega_records(2, 1, CorrelationEngine(bessel_curve()).omega(2, 1))
    assert records == [{"g": 2, "n": 1, "mu": [3], "value": "3/128"}]


def test_germs_with_non_monomial_d_pass_symmetry():
    # D = 2 + 2z^2 (pole) and D = 2z^2 + 2z^4 (analytic): 1/D has a tail
    for germ, chi_max in (({-1: 1, 1: 1}, 10), ({1: 1, 3: 1}, 6)):
        engine = CorrelationEngine(germ)
        for g, n in stable_pairs(chi_max):
            symmetric_table(engine.omega(g, n), n)


@pytest.mark.parametrize(
    "germ, chi_max, digest",
    [
        (
            {-1: 1, 1: Fraction(3, 7), 3: Fraction(-5, 11)},
            8,
            "95ad610d4cf81a482345a371d917869fb90136b7fb5aa65bb88fe6bb68d434f2",
        ),
        (
            {1: Fraction(2, 3), 3: Fraction(1, 5)},
            5,
            "952780a79fdd85f3025f8f5c40f4f9abd2e9a7183a609f5c2d999df2ffe723bd",
        ),
    ],
)
def test_wide_denominator_tensors_are_pinned(germ, chi_max, digest):
    # odd germ coefficients other than 1 put 7, 11, 3 and 5 into D and 1/D,
    # so every common denominator of the residue sums is wider than a power
    # of two; symmetry alone would not see one of them dropped
    engine = CorrelationEngine(germ)
    records = [
        r for g, n in stable_pairs(chi_max) for r in omega_records(g, n, engine.omega(g, n))
    ]
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == digest


def test_even_part_of_y_does_not_enter():
    # D is twice the odd part of y times z, so 3 + 5z^2 changes nothing
    plain = CorrelationEngine(bessel_curve())
    shifted = CorrelationEngine({-1: 1, 0: 3, 2: 5})
    assert shifted.kernel_denominator == {0: 2}
    for g, n in stable_pairs(10):
        assert shifted.omega(g, n) == plain.omega(g, n), (g, n)


def test_odd_part_of_y_changes_tensors():
    # the tail of 1/D must reach the tensors; symmetry alone would not see
    # a reciprocal that dropped it
    plain = CorrelationEngine(bessel_curve())
    deformed = CorrelationEngine({-1: 1, 1: 1})
    assert any(
        deformed.omega(g, n) != plain.omega(g, n) for g, n in stable_pairs(6)
    )


def _airy_parts(ds):
    # dictionary U = <prod tau_{d_i}> * prod (2 d_i - 1)!! with mu_i = 2 d_i + 1
    return tuple(sorted((2 * d + 1 for d in ds), reverse=True))


def _partitions(total, max_parts, largest=None):
    """Partitions of total into at most max_parts parts, parts descending."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, largest or total), 0, -1):
        for tail in _partitions(total - first, max_parts - 1, first):
            yield (first,) + tail


def test_airy_genus_zero_closed_form():
    # <tau_{d_1} ... tau_{d_n}>_0 = (n - 3)! / prod d_i! on sum d_i = n - 3
    engine = CorrelationEngine(airy_curve())
    checked = 0
    for n in range(3, 11):
        expected = {}
        for nonzero in _partitions(n - 3, n):
            ds = nonzero + (0,) * (n - len(nonzero))
            value = Fraction(factorial(n - 3))
            for d in ds:
                value = value / factorial(d) * double_factorial(2 * d - 1)
            expected[_airy_parts(ds)] = value
        assert symmetric_table(engine.omega(0, n), n) == expected, n
        checked += len(expected)
    assert checked == 45


def test_airy_one_point_closed_form():
    # <tau_{3g-2}>_g = 1 / (24^g g!), so U(g; 6g - 3) = (6g - 5)!! / (24^g g!)
    engine = CorrelationEngine(airy_curve())
    for g in range(1, 5):
        expected = Fraction(double_factorial(6 * g - 5), 24**g * factorial(g))
        assert symmetric_table(engine.omega(g, 1), 1) == {(6 * g - 3,): expected}, g


def test_symmetric_table_at_arity_twelve():
    # one live slot for twelve equal parts, three for three distinct parts;
    # 12!/(3! 8!) orderings of the latter are never stored
    ones = (1,) * 12
    assert symmetric_table({ones: Fraction(5, 7)}, 12) == {ones: Fraction(5, 7)}
    mu = (5, 3, 3, 3) + (1,) * 8
    whole = _live_slots(mu, Fraction(5, 7))
    assert len(whole) == 3
    assert symmetric_table(whole, 12) == {mu: Fraction(5, 7)}
    partial = {key: v for key, v in whole.items() if key[0] != 3}
    with pytest.raises(ConsistencyError):
        symmetric_table(partial, 12)


def test_symmetric_table_rejects_one_missing_ordering():
    # drop each live slot in turn, with two and with three distinct parts
    value = Fraction(3, 2)
    for g, mu in ((1, (3, 3, 1, 1, 1, 1)), (2, (5, 3, 1, 1))):
        whole = _live_slots(mu, value)
        assert len(whole) == len(set(mu))
        assert symmetric_table(whole, len(mu)) == {mu: value}
        for dropped in whole:
            partial = {key: v for key, v in whole.items() if key != dropped}
            with pytest.raises(ConsistencyError, match="live slots"):
                symmetric_table(partial, len(mu))


def test_symmetric_table_rejects_wrong_arity():
    with pytest.raises(ConsistencyError, match="arity"):
        symmetric_table({(1, 1, 1): Fraction(1)}, 2)
    with pytest.raises(ConsistencyError, match="arity"):
        symmetric_table({(1, 1): Fraction(1), (3,): Fraction(1)}, 2)


def test_airy_live_slots_agree_through_chi_eight():
    engine = CorrelationEngine(airy_curve())
    stored = 0
    for g, n in stable_pairs(8):
        tensor = engine.omega(g, n)
        assert symmetric_table(tensor, n), (g, n)
        stored += len(tensor)
    # one entry per live slot: 608 where ordered externals would take 27,325
    assert stored == 608


@PROPERTY
@given(
    st.dictionaries(
        st.integers(-4, 6),
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)),
        min_size=1,
        max_size=5,
    ).filter(lambda poly: any(poly.values())),
    st.integers(-6, 10),
)
def test_reciprocal_times_polynomial_is_one(poly, cap):
    # with v the valuation of poly, the product is complete through
    # exponent cap + v, and there it must be 1 at z^0 and 0 elsewhere
    inv = reciprocal(poly, cap)
    v = min(k for k, c in poly.items() if c)
    assert all(c and -v <= k <= cap for k, c in inv.items())
    product: dict = {}
    for ka, ca in poly.items():
        for kb, cb in inv.items():
            product[ka + kb] = product.get(ka + kb, 0) + ca * cb
    for k in range(min(product, default=0), cap + v + 1):
        assert product.get(k, 0) == (1 if k == 0 else 0), k


def test_inverse_truncated():
    a = {0: 2, 1: 1, 3: -4}
    inv = reciprocal(a, 6)
    product: dict = {}
    for ka, va in a.items():
        for kb, vb in inv.items():
            product[ka + kb] = product.get(ka + kb, 0) + va * vb
    for k in range(-2, 7):
        assert product.get(k, 0) == (1 if k == 0 else 0)
    assert reciprocal({2: 2}, 0) == {-2: Fraction(1, 2)}


def test_inverse_of_zero_rejected():
    cancelled = {-1: Fraction(5) - 5}
    with pytest.raises(ZeroDivisionError):
        reciprocal(cancelled, 3)
    with pytest.raises(ZeroDivisionError):
        reciprocal({}, 3)


def test_a_residue_left_in_the_live_slot_raises(monkeypatch):
    # a z^1 term added to the truncated 1/D meets omega_{1,1}'s density
    # -z^-2 / 4 at z^-1, a residue at b = 1, which a true 1/D never leaves
    real = spectral.reciprocal
    monkeypatch.setattr(spectral, "reciprocal", lambda coeffs, top: {**real(coeffs, top), 1: 1})
    message = r"^\(1,1\): residue left a simple pole in the live slot$"
    with pytest.raises(ConsistencyError, match=message):
        CorrelationEngine(bessel_curve()).omega(1, 1)


def _int_partitions(total, largest=None):
    """Partitions of total into positive integers, parts descending."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest or total), 0, -1):
        for tail in _int_partitions(total - first, first):
            yield (first,) + tail


def _bessel_family_law(table, b, g, n):
    """U_y(g; mu) for y = 1/z + sum_k b[k] z^(2k - 1), read off the closed
    recursion at the shifted times p_(2k+1) -> p_(2k+1) - b[k]: every
    multiset J with sum J = (2g - 2 + n - sum mu) / 2 adds
    prod_(j in J) (-b[j]) / prod mult(J)! * C(g; mu + {2j + 1 : j in J})."""
    law = {}
    for total in range(n, 2 * g - 1 + n, 2):
        for mu in odd_partitions(total):
            if len(mu) != n:
                continue
            value = Fraction(0)
            for js in _int_partitions((2 * g - 2 + n - total) // 2):
                shift = Fraction(1)
                for j in set(js):
                    shift *= Fraction(-b.get(j, 0)) ** js.count(j) / factorial(js.count(j))
                if shift:
                    value += shift * table.value(g, mu + tuple(2 * j + 1 for j in js))
            if value:
                law[mu] = value
    return law


def _check_bessel_family(b, chi_max):
    # both directions at once: every entry the engine keeps is the law's,
    # and every nonzero value of the law is kept
    germ = {-1: 1, **{2 * k - 1: c for k, c in b.items()}}
    engine = CorrelationEngine(germ)
    table = CorrelatorTable()
    entries = 0
    for g, n in stable_pairs(chi_max):
        got = symmetric_table(engine.omega(g, n), n)
        assert got == _bessel_family_law(table, b, g, n), (b, g, n)
        entries += len(got)
    return entries


@pytest.mark.parametrize(
    "b, chi_max, entries",
    [
        ({1: 1}, 10, 87),
        ({1: Fraction(3, 7), 2: Fraction(-5, 11)}, 9, 64),
        ({3: Fraction(2, 3)}, 9, 36),
    ],
)
def test_bessel_family_is_bessel_at_shifted_times(b, chi_max, entries):
    # y = 1/z + sum_k b_k z^(2k - 1) is the Bessel curve with p_(2k+1)
    # shifted by -b_k, fixed in advance rather than fitted: a truncated 1/D
    # is itself a time shift, so fitted shifts would not see one
    assert _check_bessel_family(b, chi_max) == entries


@PROPERTY
@given(
    st.dictionaries(
        st.integers(1, 3),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5)),
        min_size=1,
        max_size=3,
    ).filter(lambda b: any(b.values())),
    st.integers(1, 6),
)
def test_drawn_bessel_family_germs_follow_the_law(b, chi_max):
    _check_bessel_family(b, chi_max)


@pytest.mark.parametrize("germ, chi_max", [({-1: 1}, 10), ({1: 1}, 6)])
def test_scaling_y_scales_omega(germ, chi_max):
    # y -> c y multiplies omega_{g,n} by c^(2 - 2g - n), entry by entry
    c = Fraction(-5, 3)
    plain = CorrelationEngine(germ)
    scaled = CorrelationEngine({k: c * v for k, v in germ.items()})
    for g, n in stable_pairs(chi_max):
        factor = c ** (2 - 2 * g - n)
        expected = {key: factor * v for key, v in plain.omega(g, n).items()}
        assert scaled.omega(g, n) == expected, (germ, g, n)


def test_stable_pairs_through_chi_four():
    # g <= (chi + 1) // 2 keeps n = chi + 2 - 2g >= 1
    assert list(stable_pairs(4)) == [
        (0, 3), (1, 1), (0, 4), (1, 2), (0, 5), (1, 3), (2, 1), (0, 6), (1, 4), (2, 2),
    ]
