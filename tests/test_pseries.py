import random
from fractions import Fraction
from math import factorial, perm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bessel_tr.correlators import CorrelatorTable, in_support, odd_partitions, support_keys
from bessel_tr.operators import _virasoro_table
from bessel_tr.pseries import (
    PSeries,
    bracket,
    free_energy,
    mono,
    mono_degree,
    mono_mul,
    mono_str,
    operator_table,
    partition_function,
)
from bessel_tr.wave import double_factorial, principal_specialize


def M(*pairs):
    return mono(pairs)


def test_mono_rejects_even_or_negative():
    with pytest.raises(ValueError):
        mono([(2, 1)])
    with pytest.raises(ValueError):
        mono([(1, -1)])
    assert mono([(3, 0)]) == ()


def test_free_energy_order_three():
    F = free_energy(CorrelatorTable(), 3)
    assert F.terms == {
        M((1, 1)): Fraction(1, 8),
        M((1, 2)): Fraction(1, 16),
        M((3, 1)): Fraction(3, 128),
        M((1, 3)): Fraction(1, 24),
    }


def test_free_energy_order_six_selected():
    F = free_energy(CorrelatorTable(), 6)
    assert F.coefficient(M((3, 1), (1, 3))) == Fraction(15, 64)
    assert F.coefficient(M((3, 2))) == Fraction(63, 1024)
    assert len(F.terms) == 13


def test_free_energy_order_zero():
    assert free_energy(CorrelatorTable(), 0).is_zero()


def test_free_energy_rejects_a_negative_order():
    with pytest.raises(ValueError):
        free_energy(CorrelatorTable(), -1)


def test_operator_table_rejects_a_third_derivative():
    with pytest.raises(ValueError, match="derivative order above 2"):
        operator_table([(1, [], [(1, 2), (3, 1)])])


def test_series_is_unhashable_and_prints_zero():
    with pytest.raises(TypeError):
        hash(PSeries.one(0))
    assert repr(PSeries({}, 3)) == "PSeries(0; order=3)"


def test_free_energy_grading():
    # every emitted monomial is a support index: weight = 2g - 2 + n
    F = free_energy(CorrelatorTable(), 8)
    for m in F.terms:
        parts = []
        for i, e in m:
            parts += [i] * e
        d = mono_degree(m)
        n = len(parts)
        assert in_support((d - n) // 2 + 1, tuple(parts))


def test_exp_examples():
    assert PSeries({}, 4).exp() == PSeries.one(4)
    a = PSeries({M((1, 1)): Fraction(1, 8)}, 2)
    assert a.exp() == PSeries(
        {(): 1, M((1, 1)): Fraction(1, 8), M((1, 2)): Fraction(1, 128)}, 2
    )
    with pytest.raises(ValueError):
        PSeries.one(2).exp()


def test_log_examples():
    assert PSeries.one(4).log() == PSeries({}, 4)
    one_plus_p1 = PSeries({(): 1, M((1, 1)): 1}, 2)
    assert one_plus_p1.log() == PSeries(
        {M((1, 1)): 1, M((1, 2)): Fraction(-1, 2)}, 2
    )
    with pytest.raises(ValueError):
        PSeries({}, 2).log()


def test_log_exp_round_trip():
    F = free_energy(CorrelatorTable(), 6)
    assert F.exp().log() == F


def test_partial_examples():
    p1sq = PSeries({M((1, 2)): 1}, 4)
    assert p1sq.partial(1) == PSeries({M((1, 1)): 2}, 4)
    p3p1 = PSeries({M((3, 1), (1, 1)): 1}, 4)
    assert p3p1.partial(3) == PSeries({M((1, 1)): 1}, 4)
    p1cu = PSeries({M((1, 3)): 1}, 4)
    assert p1cu.partial(5).is_zero()


def test_ring_examples():
    p1 = PSeries({M((1, 1)): 1}, 6)
    p3 = PSeries({M((3, 1)): 1}, 6)
    assert p1 * p3 == PSeries({M((1, 1), (3, 1)): 1}, 6)
    one = PSeries.one(6)
    assert (one + p1) * (one - p1) == PSeries({(): 1, M((1, 2)): -1}, 6)
    assert (p1 * 0).is_zero()
    assert p1 * Fraction(3, 2) == PSeries({M((1, 1)): Fraction(3, 2)}, 6)


def test_mul_truncates_at_min_order():
    a = PSeries({M((1, 2)): 1}, 2)
    b = PSeries({M((1, 1)): 1}, 8)
    assert (a * b).order == 2
    assert (a * b).is_zero()


def test_truncated_never_raises_the_order():
    s = PSeries({M((1, 1)): 1, M((3, 1)): 2}, 4)
    assert s.truncated(9).order == 4
    assert s.truncated(9) == s
    assert s.truncated(2) == PSeries({M((1, 1)): 1}, 2)
    assert s.truncated(-1) == PSeries({}, 0)


def _random_series(rng, order=8):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        pairs = [(rng.choice((1, 3, 5)), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        terms[mono(pairs)] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return PSeries(terms, order)


def test_leibniz_rule():
    rng = random.Random(23)
    for _ in range(40):
        a, b = _random_series(rng), _random_series(rng)
        for i in (1, 3, 5):
            lhs = (a * b).partial(i)
            rhs = a.partial(i) * b + a * b.partial(i)
            # the truncated product only knows derivatives through degree 8 - i
            assert lhs.truncated(8 - i) == rhs.truncated(8 - i)


def test_partition_function_matches_exp():
    t = CorrelatorTable()
    assert partition_function(t, 5) == free_energy(t, 5).exp()


def test_canonical_term_order():
    Z = partition_function(CorrelatorTable(), 6)
    degree_six = [m for m, _ in Z.sorted_terms() if mono_degree(m) == 6]
    assert [mono_str(m) for m in degree_six] == ["p5*p1", "p3^2", "p3*p1^3", "p1^6"]


def test_json_round_trip():
    F = free_energy(CorrelatorTable(), 6)
    data = F.to_json_dict()
    assert data["order"] == 6
    assert {"mono": {"1": 1}, "coeff": "1/8"} in data["terms"]
    # rebuild the series from the dump alone
    terms = {
        mono((int(i), e) for i, e in t["mono"].items()): Fraction(t["coeff"])
        for t in data["terms"]
    }
    assert PSeries(terms, data["order"]) == F


def test_coefficient_normalises_every_key():
    assert PSeries.one(3).coefficient(((1, 0),)) == 1
    s = PSeries({M((3, 1), (1, 1)): Fraction(2, 5)}, 4)
    assert s.coefficient(((1, 1), (3, 1))) == Fraction(2, 5)
    assert s.coefficient(((3, 1), (1, 1))) == Fraction(2, 5)


def test_restrict():
    F = free_energy(CorrelatorTable(), 6)
    restricted = F.restrict((1, 3))
    assert restricted.coefficient(M((5, 1), (1, 1))) == 0
    assert restricted.coefficient(M((3, 2))) == Fraction(63, 1024)


# property tests draw a fixed example stream (derandomize), so the suite is deterministic
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def sparse_series(draw, constant=0, max_order=12, denominators=st.integers(1, 6)):
    """A random sparse series of order <= max_order with the given constant
    term. The order is drawn first, then one to five monomials of degree
    1 .. order, among them distinct ones of equal degree such as p3 and p1^3,
    with coefficients over `denominators`."""
    order = draw(st.integers(0, max_order))
    terms = {(): Fraction(constant)}
    candidates = [
        mono((p, 1) for p in parts) for d in range(1, order + 1) for parts in odd_partitions(d)
    ]
    if candidates:
        monos = st.lists(st.sampled_from(candidates), min_size=1, max_size=5, unique=True)
        for m in draw(monos):
            terms[m] = Fraction(draw(st.integers(-6, 6).filter(bool)), draw(denominators))
    return PSeries(terms, order)


def power_sum_exp(F: PSeries) -> PSeries:
    """exp F as the truncated power sum sum_k F^k / k!: an oracle built on
    the product alone."""
    acc = PSeries.one(F.order)
    power = PSeries.one(F.order)
    for k in range(1, F.order + 1):
        power = power * F
        acc = acc + power * Fraction(1, factorial(k))
    return acc


@PROPERTY
@given(sparse_series())
def test_exp_matches_power_sum(F):
    assert F.exp() == power_sum_exp(F)


@PROPERTY
@given(sparse_series())
def test_log_inverts_exp(F):
    assert F.exp().log() == F


@PROPERTY
@given(sparse_series(constant=1))
def test_exp_inverts_log(Z):
    assert Z.log().exp() == Z


@PROPERTY
@given(sparse_series(), sparse_series())
def test_exp_turns_sums_into_products(a, b):
    assert (a + b).exp() == a.exp() * b.exp()


@PROPERTY
@given(sparse_series())
def test_exp_commutes_with_principal_specialisation(F):
    assert principal_specialize(F.exp()) == principal_specialize(F).exp()
    assert principal_specialize(F.exp()).log() == principal_specialize(F)


@PROPERTY
@given(sparse_series(), sparse_series())
# distinct terms of equal degree, which the derandomized draws rarely give
@example(
    PSeries({M((5, 1)): 1, M((1, 2), (3, 1)): 2, M((1, 1)): -1}, 12),
    PSeries({M((5, 1)): 3, M((3, 1), (1, 1)): Fraction(1, 3), M((1, 4)): 1}, 9),
)
def test_principal_specialisation_is_a_ring_map(a, b):
    assert principal_specialize(a * b) == principal_specialize(a) * principal_specialize(b)
    assert principal_specialize(a + b) == principal_specialize(a) + principal_specialize(b)


@PROPERTY
@given(sparse_series(), sparse_series(), st.sampled_from((1, 3, 5)))
def test_leibniz_rule_property(a, b, i):
    lhs = (a * b).partial(i)
    rhs = a.partial(i) * b + a * b.partial(i)
    # the truncated product only knows derivatives through degree order - i
    reliable = min(a.order, b.order) - i
    assert lhs.truncated(reliable) == rhs.truncated(reliable)


def test_exp_matches_power_sum_on_free_energy():
    F = free_energy(CorrelatorTable(), 10)
    assert F.exp() == power_sum_exp(F)


@st.composite
def small_tables(draw, denominators=st.integers(1, 4)):
    """A random `operator_table` of one to four terms c p^A d^B over p1, p3,
    p5, with exponents <= 2 in A and derivative order <= 2, so that an outer
    d_i^2 can meet an inner p_i^2; coefficients are over `denominators`."""
    var = st.sampled_from((1, 3, 5))
    derivative = st.one_of(
        st.just([]),
        st.tuples(var, st.integers(1, 2)).map(lambda t: [t]),
        st.lists(st.tuples(var, st.just(1)), min_size=2, max_size=2),
    )
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.lists(st.tuples(var, st.integers(1, 2)), max_size=2))
        c = Fraction(draw(st.integers(-4, 4).filter(bool)), draw(denominators))
        terms.append((c, a, draw(derivative)))
    return operator_table(terms)


def apply_any_order(series, table):
    """Apply {B: {A: c}} with derivatives of any order: d^B p^m is
    prod (m_i)_(B_i) p^(m - B) where B divides m."""
    out = PSeries({}, series.order)
    for m, c in series.terms.items():
        powers = dict(m)
        for b, row in table.items():
            if all(powers.get(i, 0) >= e for i, e in b):
                k = c * prod(perm(powers[i], e) for i, e in b)
                rest = mono((i, e - dict(b).get(i, 0)) for i, e in m)
                image = {mono_mul(rest, a): k * q for a, q in row.items()}
                out = out + PSeries(image, series.order)
    return out


@PROPERTY
@given(sparse_series(), small_tables(), small_tables())
# an outer d_1^2 past an inner p_1^2: Leibniz factors 1, 4 and 2
@example(
    PSeries({M((1, 2), (3, 1)): 1, M((1, 3)): 2, M((3, 1)): -1}, 5),
    operator_table([(1, [], [(1, 2)]), (Fraction(1, 2), [(1, 1)], [(1, 1)])]),
    operator_table([(1, [(1, 2)], [(3, 1)]), (3, [(1, 2)], [])]),
)
def test_bracket_applies_as_the_commutator(s, x, y):
    # no side truncates at order 64: s has degree <= 12 and each factor's A
    # degree <= 20; bracket keeps the derivatives that can act on s
    s = PSeries(s.terms, 64)
    top = max(map(mono_degree, s.terms), default=0)
    table = bracket(x, y, top)
    assert all(row and all(row.values()) for row in table.values())
    assert apply_any_order(s, table) == s.apply(y).apply(x) - s.apply(x).apply(y)


@PROPERTY
@given(sparse_series(max_order=20, denominators=st.integers(1, 12)), st.sampled_from((1, 3, 5, 7)))
def test_partial_matches_the_operator_table_route(s, i):
    assert s.partial(i) == s.apply(operator_table([(1, [], [(i, 1)])]))


# denominators 2^k up to 2^40, 3^5, 7 and 11, coprime across the families:
# a common denominator grows past each coefficient's, and slices reduce by
# large gcds
WIDE = st.one_of(st.integers(0, 40).map(lambda k: 2**k), st.sampled_from((3**5, 7, 11)))


@PROPERTY
@given(
    sparse_series(denominators=WIDE),
    sparse_series(denominators=WIDE),
    sparse_series(denominators=WIDE),
)
def test_series_algebra_with_wide_denominators(a, b, c):
    assert a.exp() == power_sum_exp(a)
    assert a.exp().log() == a
    assert a * (b + c) == a * b + a * c


@PROPERTY
@given(sparse_series(denominators=WIDE), small_tables(denominators=WIDE))
# d_1 and d_1^2 rows on one variable, a d_3 d_1 row, a constant row and a
# d_7 row for a variable the series lacks, on p1^2 p3: each row is looked up
# under its own derivative, not under its variable alone
@example(
    PSeries({M((3, 1), (1, 2)): Fraction(3, 2**40), M((1, 3)): 7, M((5, 1)): Fraction(-1, 11)}, 9),
    operator_table(
        [
            (Fraction(1, 3), [], [(1, 1)]),
            (2, [(3, 1)], [(1, 2)]),
            (Fraction(5, 7), [(1, 1)], [(3, 1), (1, 1)]),
            (3, [(5, 1)], []),
            (-1, [(1, 1)], [(7, 1)]),
        ]
    ),
)
def test_apply_with_wide_denominators(s, table):
    assert s.apply(table) == apply_any_order(s, table)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_virasoro_tables_apply_as_any_order(m):
    # L_m with m odd holds the row d_m^2 beside d_m, and L_2, L_3 hold
    # d_v d_w rows; Z at order 12 holds p1^2 p3, p3^2 p5 and the like
    Z = partition_function(CorrelatorTable(), 12)
    table = _virasoro_table(m, 12)
    assert Z.apply(table) == apply_any_order(Z, table)


# a monomial over p1 .. p9 with exponents <= 3, possibly empty
MONOMIALS = st.lists(st.tuples(st.sampled_from((1, 3, 5, 7, 9)), st.integers(1, 3))).map(mono)


@PROPERTY
@given(MONOMIALS, MONOMIALS)
@example((), ())
@example(M((5, 1), (1, 2)), M((5, 2), (3, 1), (1, 1)))
def test_mono_mul_merges_as_mono(a, b):
    assert mono_mul(a, b) == mono(list(a) + list(b))


def test_bessel_denominators_are_powers_of_two():
    # observed, not proven, and checked on the Bessel curve only: through
    # chi 24, prod mu_i!! C(g; mu) has denominator 2^e with e <= 4g - 1, and
    # at order 24 each coefficient of Z = exp F times prod e_i! (i!!)^e_i has
    # a power-of-two denominator; a tripwire on the recursion and on exp
    table = CorrelatorTable()
    for g, parts in support_keys(24):
        d = (table.value(g, parts) * prod(double_factorial(p) for p in parts)).denominator
        assert d & (d - 1) == 0 and d.bit_length() <= 4 * g, (g, parts)
    for m, c in partition_function(table, 24).terms.items():
        d = (c * prod(factorial(e) * double_factorial(i) ** e for i, e in m)).denominator
        assert d & (d - 1) == 0, m
