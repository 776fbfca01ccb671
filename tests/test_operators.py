import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import PROPERTY, M, sparse_series

from bessel_tr.correlators import CorrelatorTable, odd_partitions
from bessel_tr.operators import (
    _cut_and_join_table,
    _virasoro_table,
    evolve,
    kdv_field,
    kdv_initial_series,
    virasoro_apply,
)
from bessel_tr.pseries import PSeries, bracket, free_energy, mono, mono_degree, partition_function
from bessel_tr.verify import kdv_report, virasoro_report
from bessel_tr.wave import quantum_curve_residual


def commutator_holds(m, n, s):
    """[L_m, L_n] s = (m - n) L_{m+n} s, compared in full: no L_k raises
    degree, so on a series whose terms all lie within its order both sides
    are exact."""
    lhs = virasoro_apply(m, virasoro_apply(n, s)) - virasoro_apply(n, virasoro_apply(m, s))
    return (lhs - virasoro_apply(m + n, s) * (m - n)).is_zero()


def test_l1_kills_constants():
    assert virasoro_apply(1, PSeries.one(4)).is_zero()


def test_negative_indices_are_rejected():
    with pytest.raises(ValueError):
        virasoro_apply(-1, PSeries.one(4))
    with pytest.raises(ValueError):
        evolve(-1)


def test_l0_on_constant_leaves_central_term():
    out = virasoro_apply(0, PSeries.one(4))
    assert out == PSeries({(): Fraction(1, 16)}, 4)
    report = virasoro_report(PSeries.one(4), 0)
    assert report["status"] == "fail"
    assert report["residual_terms"] == [{"m": 0, "mono": {}, "coeff": "1/16"}]


def test_l0_on_p1():
    # single-monomial bookkeeping: scaling term v/2, central 1/16, hbar term -1/2
    out = virasoro_apply(0, PSeries({M((1, 1)): 1}, 4))
    assert out == PSeries({M((1, 1)): Fraction(9, 16), (): Fraction(-1, 2)}, 4)


def test_annihilation_at_order_six():
    Z = partition_function(CorrelatorTable(), 6)
    report = virasoro_report(Z, 4)
    assert report["status"] == "pass"
    assert report["reliable_order"] == 5


def test_annihilation_detects_corrupted_seed():
    table = CorrelatorTable()
    table._entries[(1,)] = Fraction(1, 4)
    Z = partition_function(table, 4)
    residual = virasoro_apply(0, Z)
    assert residual.coefficient([]) == Fraction(-1, 16)
    report = virasoro_report(Z, 0)
    assert report["status"] == "fail"
    degrees = {sum(int(i) * e for i, e in t["mono"].items()) for t in report["residual_terms"]}
    assert 0 in degrees


def test_commutator_antisymmetric_case():
    a = PSeries({M((1, 1), (3, 1)): Fraction(2, 3), M((5, 1)): 1}, 12)
    assert commutator_holds(1, 1, a)


def test_commutator_worked_example():
    a = PSeries({M((1, 1), (3, 1)): 1, M((5, 1)): 1}, 12)
    assert commutator_holds(1, 2, a)


def test_commutator_random_sparse():
    rng = random.Random(17)
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            pairs = [
                (rng.choice((1, 3, 5, 7)), rng.randint(1, 2))
                for _ in range(rng.randint(1, 2))
            ]
            m = mono(pairs)
            if mono_degree(m) <= 8:
                terms[m] = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        a = PSeries(terms, 24)
        assert commutator_holds(0, 3, a)


@st.composite
def low_degree_series(draw):
    """Up to four terms of degree <= 8 in p1 .. p7 at order 24."""
    terms = {}
    for pairs in draw(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from((1, 3, 5, 7)), st.integers(1, 2)), min_size=1, max_size=2
            ),
            min_size=1,
            max_size=4,
        )
    ):
        m = mono(pairs)
        if mono_degree(m) <= 8:
            terms[m] = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 5)))
    return PSeries(terms, 24)


@PROPERTY
@given(low_degree_series(), st.sampled_from(((0, 3), (1, 2), (0, 1), (1, 3), (2, 3))))
def test_commutator_random_sparse_property(a, pair):
    assert commutator_holds(*pair, a)


def test_commutator_on_monomial_basis():
    for d in range(0, 9):
        for parts in odd_partitions(d) if d else [()]:
            a = PSeries({parts: 1}, d + 20)
            for m in range(5):
                for n in range(m, 5):
                    assert commutator_holds(m, n, a), (m, n, parts)


def test_bracket_of_virasoro_tables_closes_at_order_30():
    # [L_m, L_n] - (m - n) L_{m+n} on the tables sized by 30, every
    # coefficient of derivative degree <= 30 compared exactly: none is left
    for n in range(1, 7):
        for m in range(n):
            diff = Counter(bracket(_virasoro_table(m, 30), _virasoro_table(n, 30), 30))
            diff.subtract({key: (m - n) * c for key, c in _virasoro_table(m + n, 30).terms.items()})
            assert not any(diff.values()), (m, n)


def test_cut_and_join_steps():
    one = PSeries.one(6)
    step1 = one.apply(_cut_and_join_table(one.order))
    assert step1 == PSeries({M((1, 1)): Fraction(1, 8)}, 6)
    step2 = step1.apply(_cut_and_join_table(step1.order))
    assert step2 == PSeries({M((1, 2)): Fraction(9, 64)}, 6)
    # hand application of the three pieces to p3
    p3 = PSeries({M((3, 1)): 1}, 6)
    assert p3.apply(_cut_and_join_table(p3.order)) == PSeries(
        {M((3, 1), (1, 1)): Fraction(49, 8)}, 6
    )


def test_evolve_small_orders():
    assert evolve(0) == PSeries.one(0)
    assert evolve(1) == PSeries({(): 1, M((1, 1)): Fraction(1, 8)}, 1)


def test_evolve_matches_exponential_pipeline():
    t = CorrelatorTable()
    # order 24 takes the integer powers, each reduced by a gcd, to depth
    for order in (2, 5, 6, 7, 10, 24):
        assert evolve(order) == partition_function(t, order), order


def test_kdv_residual_vanishes():
    for order in (8, 9):
        report = kdv_report(free_energy(CorrelatorTable(), order))
        assert report["status"] == "pass" and report["reliable_order"] == order - 5, order


def test_kdv_field_low_coefficients():
    # frozen expansion: u = 1/8 + x/4 + 3x^2/8 + x^3/2 + 9t/32 + 5x^4/8 + 45tx/32 + ...
    u = kdv_field(free_energy(CorrelatorTable(), 8))
    assert u.coefficient([]) == Fraction(1, 8)
    assert u.coefficient([(1, 1)]) == Fraction(1, 4)
    assert u.coefficient([(1, 2)]) == Fraction(3, 8)
    assert u.coefficient([(1, 3)]) == Fraction(1, 2)
    assert u.coefficient([(3, 1)]) == Fraction(9, 32)
    assert u.coefficient([(1, 4)]) == Fraction(5, 8)
    assert u.coefficient([(3, 1), (1, 1)]) == Fraction(45, 32)


def test_kdv_initial_condition():
    u0 = kdv_field(free_energy(CorrelatorTable(), 8)).restrict((1,))
    for k in range(7):
        key = [(1, k)] if k else ()
        assert u0.coefficient(key) == Fraction(k + 1, 8)
    assert kdv_initial_series(3).coefficient([(1, 3)]) == Fraction(1, 2)


def test_kdv_dispersionless_limit():
    # every term of u carries hbar^(degree + 2), so u -> 0 with hbar
    u = kdv_field(free_energy(CorrelatorTable(), 8))
    assert all(mono_degree(m) + 2 >= 2 for m, _ in u.sorted_terms())
    assert free_energy(CorrelatorTable(), 8).restrict((1, 3)).terms


def P(*pairs, order):
    return PSeries({mono(pairs): 1}, order)


def virasoro_by_formula(m, s):
    """L_m written with partial, products by p_i and sums."""
    top = s.order
    out = s.partial(2 * m + 1) * -(m + Fraction(1, 2))
    for i in range(1, top - 2 * m + 1, 2):
        out = out + P((i, 1), order=top) * s.partial(2 * m + i) * (m + Fraction(i, 2))
    for i in range(1, 2 * m, 2):
        out = out + s.partial(i).partial(2 * m - i) * Fraction(i * (2 * m - i), 4)
    if m == 0:
        out = out + s * Fraction(1, 16)
    return out


def cut_and_join_by_formula(s):
    top = s.order
    out = P((1, 1), order=top) * s * Fraction(1, 8)
    for i in range(1, top + 1, 2):
        for j in range(1, top + 1, 2):
            join = s.partial(i).partial(j) * Fraction(i * j, 2)
            out = out + P((i + j + 1, 1), order=top) * join
            out = out + P((i, 1), (j, 1), order=top) * s.partial(i + j - 1) * (i + j - 1)
    return out


def quantum_curve_by_formula(psi):
    w = P((1, 1), order=psi.order)
    d1 = psi.partial(1)
    out = w * w * d1.partial(1) * Fraction(1, 2) + w * d1 + psi * Fraction(1, 8) - d1
    return out.truncated(psi.order - 1)


@PROPERTY
@given(sparse_series(), st.integers(0, 3))
def test_operator_tables_match_their_formulas(s, m):
    # second derivatives go through two single-variable steps here, so the
    # square and pair divisors of PSeries.apply are checked by another route
    assert virasoro_apply(m, s) == virasoro_by_formula(m, s)
    assert s.apply(_cut_and_join_table(s.order)) == cut_and_join_by_formula(s)
    if s.order >= 1:
        assert quantum_curve_residual(s) == quantum_curve_by_formula(s)
