import random
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, perm, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from closed_families import double_factorial
from strategies import PROPERTY, M, monomials, sparse_series

from bessel_tr.correlators import CorrelatorTable, canonical_parts, in_support, support_keys
from bessel_tr.operators import _virasoro_table, evolve, kdv_initial_series
from bessel_tr.pseries import (
    LIMIT,
    MASK,
    Operator,
    PSeries,
    bracket,
    free_energy,
    mono,
    mono_degree,
    mono_str,
    operator_table,
    pack,
    partition_function,
    unpack,
)
from bessel_tr.wave import principal_specialize, wave_series


def test_mono_rejects_even_or_negative():
    with pytest.raises(ValueError):
        mono([(2, 1)])
    with pytest.raises(ValueError):
        mono([(1, -1)])
    assert mono([(3, 0)]) == ()


def test_free_energy_order_three():
    F = free_energy(CorrelatorTable(), 3)
    assert F.terms == {
        pack(M((1, 1))): Fraction(1, 8),
        pack(M((1, 2))): Fraction(1, 16),
        pack(M((3, 1))): Fraction(3, 128),
        pack(M((1, 3))): Fraction(1, 24),
    }


def test_free_energy_order_six_selected():
    F = free_energy(CorrelatorTable(), 6)
    assert F.coefficient([(3, 1), (1, 3)]) == Fraction(15, 64)
    assert F.coefficient([(3, 2)]) == Fraction(63, 1024)
    assert len(F.terms) == 13


def test_free_energy_order_zero():
    assert free_energy(CorrelatorTable(), 0).is_zero()


def test_free_energy_rejects_a_negative_order():
    with pytest.raises(ValueError):
        free_energy(CorrelatorTable(), -1)


def test_free_energy_keys_are_the_table_keys():
    # one key per multiset: F's monomials are the correlator table's parts tuples
    keys = {parts for _, parts in support_keys(12)}
    assert set(map(unpack, free_energy(CorrelatorTable(), 12).terms)) == keys


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
    for m in map(unpack, F.terms):
        parts = []
        for i, e in Counter(m).items():
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


def test_order_must_be_an_integer():
    with pytest.raises(TypeError):
        PSeries({}, 2.7)
    with pytest.raises(TypeError):
        PSeries.one(3).truncated(1.5)
    assert PSeries({}, True).order == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: PSeries.one(-1),
        lambda: PSeries({}, -2).exp(),
        lambda: kdv_initial_series(-1),
        lambda: wave_series(-1),
    ],
    ids=["one", "exp", "kdv_initial_series", "wave_series"],
)
def test_a_negative_order_is_refused(build):
    # every series is built through the one order check; only `truncated`
    # reads a negative order, as empty
    with pytest.raises(ValueError, match="order must be non-negative"):
        build()


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


def test_rows_put_the_tags_first():
    s = PSeries({M((3, 1)): Fraction(1, 2), M((1, 3)): -2}, 3)
    rows = s.rows(m=1)
    assert rows == [
        {"m": 1, "mono": {"3": 1}, "coeff": "1/2"},
        {"m": 1, "mono": {"1": 3}, "coeff": "-2"},
    ]
    assert [list(row) for row in rows] == [["m", "mono", "coeff"]] * 2
    assert s.to_json_dict()["terms"] == s.rows()


def test_coefficient_normalises_every_key():
    assert PSeries.one(3).coefficient(((1, 0),)) == 1
    s = PSeries({M((3, 1), (1, 1)): Fraction(2, 5)}, 4)
    assert s.coefficient(((1, 1), (3, 1))) == Fraction(2, 5)
    assert s.coefficient(((3, 1), (1, 1))) == Fraction(2, 5)
    # a monomial above the order, even one too large for a packed key, is 0
    assert s.coefficient(((1, 300),)) == 0


def test_coefficient_refuses_a_fractional_index():
    # int() would read p1.9 as p1
    s = PSeries({M((1, 1)): Fraction(1, 8)}, 4)
    with pytest.raises(TypeError):
        s.coefficient([(1.9, 1)])
    assert s.coefficient([(True, 1)]) == Fraction(1, 8)


def test_coefficient_refuses_a_fractional_exponent():
    # int() would read p3^0.7 as p3^0, the constant term
    s = PSeries.one(4)
    with pytest.raises(TypeError):
        s.coefficient([(3, 0.7)])
    assert s.coefficient([(3, False)]) == 1


def test_restrict():
    F = free_energy(CorrelatorTable(), 6)
    restricted = F.restrict((1, 3))
    assert restricted.coefficient([(5, 1), (1, 1)]) == 0
    assert restricted.coefficient([(3, 2)]) == Fraction(63, 1024)


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


def decoded(table):
    """{B: {A: c}} on parts tuples, of an `Operator` or of the terms
    {(pack(B), pack(A)): c} that `bracket` returns, each key read by `unpack`."""
    out: dict = {}
    for (b, a), c in (table.terms if isinstance(table, Operator) else table).items():
        out.setdefault(unpack(b), {})[unpack(a)] = c
    return out


def fraction_apply(terms, table):
    """An operator of `decoded`, with derivatives of any order, on {parts:
    Fraction}, as a Counter of Fractions: d^B p^m is prod (m_i)_(B_i)
    p^(m - B) where B divides m."""
    out = Counter()
    for m, c in terms.items():
        powers = Counter(m)
        for b, row in decoded(table).items():
            need = Counter(b)
            if all(powers[i] >= e for i, e in need.items()):
                k = c * prod(perm(powers[i], e) for i, e in need.items())
                rest = mono((i, e - need[i]) for i, e in powers.items())
                for a, q in row.items():
                    out[canonical_parts(rest + a)] += k * q
    return out


def apply_any_order(series, table):
    """`fraction_apply` on a series, at its order."""
    return PSeries(fraction_apply(dict(series.sorted_terms()), table), series.order)


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
    s = PSeries(dict(s.sorted_terms()), 64)
    top = max((mono_degree(m) for m, _ in s.sorted_terms()), default=0)
    table = bracket(x, y, top)
    assert all(table.values())
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


@pytest.mark.parametrize(
    "b, m, value",
    [
        ([(3, 2), (1, 1)], [(3, 2), (1, 1)], 2),
        ([(1, 3)], [(1, 3)], 6),
        ([(5, 1), (3, 1), (1, 1)], [(5, 1)], 0),
    ],
)
def test_apply_refuses_a_row_above_second_order(b, m, value):
    # a third derivative is refused by operator_table, not filed as a lower
    # one, and apply refuses its row in a bare dict; only apply_any_order reads it
    s = PSeries({mono(m): 1}, 9)
    assert apply_any_order(s, {(pack(mono(b)), 0): Fraction(1)}) == PSeries({(): value}, 9)
    with pytest.raises(ValueError, match="derivative order above 2"):
        operator_table([(1, [], b)])
    with pytest.raises(TypeError, match="Operator"):
        s.apply({mono(b): {(): Fraction(1)}})


def test_apply_refuses_anything_but_an_operator():
    # bracket's terms reach derivative order 3 (an outer d_1^2 past p_1^2 d_3 d_1),
    # so they are no Operator; neither is a bare dict, decoded or with two
    # entries that a (den, rows) pair would unpack, nor such a pair
    x = operator_table([(1, [], [(1, 2)])])
    y = operator_table([(1, [(1, 2)], [(3, 1), (1, 1)])])
    commutator = bracket(x, y, 9)
    assert decoded(commutator) == {(3, 1, 1): {(1,): 4}, (3, 1): {(): 2}}
    s = PSeries({M((3, 1), (1, 2)): 1}, 9)
    assert apply_any_order(s, commutator) == s.apply(y).apply(x) - s.apply(x).apply(y)
    for table in (commutator, decoded(commutator), {1: {}, 3: {}}, (y.den, y.single)):
        with pytest.raises(TypeError, match="Operator"):
            s.apply(table)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_virasoro_tables_apply_as_any_order(m):
    # L_m with m odd holds the row d_m^2 beside d_m, and L_2, L_3 hold
    # d_v d_w rows; Z at order 12 holds p1^2 p3, p3^2 p5 and the like
    Z = partition_function(CorrelatorTable(), 12)
    table = _virasoro_table(m, 12)
    assert Z.apply(table) == apply_any_order(Z, table)


# monomials of degree <= LIMIT, the most a kept key has: two of them add
# without a carry
KEPT = monomials.filter(lambda m: sum(m) <= LIMIT)


@PROPERTY
@given(KEPT, KEPT)
@example((), ())
@example(M((5, 1), (1, 2)), M((5, 2), (3, 1), (1, 1)))
@example(M((1, LIMIT)), M((LIMIT, 1)))
def test_packed_keys_add_as_the_product(a, b):
    assert unpack(pack(a)) == a
    assert pack(a) & MASK == sum(a)
    assert pack(a) + pack(b) == pack(canonical_parts(a + b))


@PROPERTY
@given(sparse_series(max_order=20), st.sampled_from((1, 3, 5, 7, 9)), st.sets(st.integers(-1, 25)))
def test_partial_and_restrict_match_their_parts_definitions(s, i, keep):
    # d/dp_i drops one part i and multiplies by the count of i; restrict
    # keeps the monomials whose parts all lie in `keep`
    derivative = {}
    for m, c in s.sorted_terms():
        if i in m:
            x = m.index(i)
            derivative[m[:x] + m[x + 1 :]] = c * m.count(i)
    assert s.partial(i) == PSeries(derivative, s.order)
    kept = {m: c for m, c in s.sorted_terms() if keep.issuperset(m)}
    assert s.restrict(keep) == PSeries(kept, s.order)


def test_an_order_too_large_for_a_field_is_refused():
    # only empty series and the entry checks: nothing large is built
    assert PSeries({}, LIMIT).order == LIMIT
    for build in (
        lambda: PSeries({}, LIMIT + 1),
        lambda: PSeries.one(LIMIT + 1),
        lambda: free_energy(CorrelatorTable(), LIMIT + 1),
        lambda: evolve(LIMIT + 1),
        lambda: kdv_initial_series(LIMIT + 1),
        lambda: wave_series(LIMIT + 1),
    ):
        with pytest.raises(ValueError, match="packed key"):
            build()


def test_apply_drops_a_row_above_the_order():
    # p127^2 has degree 254, above the order, and its key still holds it
    s = PSeries({(LIMIT,): 1}, LIMIT)
    assert s.apply(operator_table([(1, [(LIMIT, 1)], [])])).is_zero()
    assert s.apply(operator_table([(2, [(1, LIMIT)], [(LIMIT, 1)])])) == PSeries(
        {(1,) * LIMIT: 2}, LIMIT
    )


@pytest.mark.parametrize(
    "a, b",
    [([(LIMIT + 2, 1)], []), ([], [(LIMIT + 2, 1)]), ([(1, LIMIT + 1)], [(1, 1)])],
    ids=["p129", "d129", "p1^128"],
)
def test_operator_table_refuses_a_term_that_could_carry(a, b):
    # p127 p129 has degree 256, whose key would carry out of the degree field:
    # no A or B of degree above LIMIT is packed
    with pytest.raises(ValueError, match=f"degree above {LIMIT}"):
        operator_table([(1, a, b)])


def test_a_series_plus_a_number_is_a_type_error():
    # a number is not a series: the sum raises on either side, as 1 + s does
    s = PSeries({(1,): 1}, 3)
    for build in (lambda: s + 1, lambda: s - 1, lambda: 1 + s, lambda: s + Fraction(1, 2)):
        with pytest.raises(TypeError):
            build()


def test_the_constructor_keys_each_monomial_once():
    # an unsorted parts tuple is the monomial of its sorted one, and equal
    # monomials add up
    s = PSeries({(1, 3): 1, (3, 1): 1}, 4)
    assert s == PSeries({(3, 1): 2}, 4)
    assert repr(s) == "PSeries(2*p3*p1; order=4)"
    assert (PSeries({(1, 3): 1}, 4) - PSeries({(3, 1): 1}, 4)).is_zero()
    assert PSeries({(1, 3): 1, (3, 1): -1}, 4).is_zero()


@pytest.mark.parametrize("parts", [(2,), (1, 4), (3, 0), (-1,), (10,)])
def test_the_constructor_refuses_an_even_or_non_positive_part(parts):
    # p2 is unrepresentable, at any degree
    with pytest.raises(ValueError, match="odd and positive"):
        PSeries({parts: 1}, 4)


def test_bessel_denominators_are_powers_of_two():
    # observed, not proven, and checked on the Bessel curve only: through
    # chi 24, prod mu_i!! C(g; mu) has denominator 2^e with e <= 4g - 1, and
    # at order 24 each coefficient of Z = exp F times prod e_i! (i!!)^e_i has
    # a power-of-two denominator; a tripwire on the recursion and on exp
    table = CorrelatorTable()
    for g, parts in support_keys(24):
        d = (table.value(g, parts) * prod(double_factorial(p) for p in parts)).denominator
        assert d & (d - 1) == 0 and d.bit_length() <= 4 * g, (g, parts)
    for m, c in partition_function(table, 24).sorted_terms():
        weight = prod(factorial(e) * double_factorial(i) ** e for i, e in Counter(m).items())
        d = (c * weight).denominator
        assert d & (d - 1) == 0, m


# The series kernels against Fraction references built from `sorted_terms`
# alone: {parts: Fraction} dicts summed and multiplied term by term.


def fraction_terms(series):
    return dict(series.sorted_terms())


def fraction_mul(a, b, order):
    out = Counter()
    for ma, ca in a.items():
        for mb, cb in b.items():
            out[canonical_parts(ma + mb)] += ca * cb
    return {m: c for m, c in out.items() if c and sum(m) <= order}


def fraction_power_sum(x, weights, order):
    """sum_k weights(k) x^k for k = 1 .. order, truncated at `order`."""
    acc, power = Counter(), {(): Fraction(1)}
    for k in range(1, order + 1):
        power = fraction_mul(power, x, order)
        for m, c in power.items():
            acc[m] += weights(k) * c
    return acc


def assert_matches(result, reference, order):
    """`result` has `order`, the nonzero terms of degree <= order of the
    Fraction dict `reference`, and the reduced stored form."""
    assert result.order == order
    assert fraction_terms(result) == {m: c for m, c in reference.items() if c and sum(m) <= order}
    assert result.den > 0 and gcd(result.den, *result.nums.values()) == 1
    assert all(n and k & MASK <= order for k, n in result.nums.items())


@PROPERTY
@given(
    sparse_series(denominators=WIDE),
    sparse_series(denominators=WIDE),
    st.fractions(max_denominator=12),
    small_tables(denominators=WIDE),
    st.sampled_from((1, 3, 5, 7)),
    st.sets(st.integers(-1, 13)),
    st.integers(-1, 13),
)
def test_series_kernels_match_fraction_references(a, b, x, table, i, keep, t):
    ta, tb, order = fraction_terms(a), fraction_terms(b), min(a.order, b.order)
    for sign, result in ((1, a + b), (-1, a - b)):
        summed = Counter(ta)
        summed.update({m: sign * c for m, c in tb.items()})  # update keeps negative sums
        assert_matches(result, summed, order)
    assert_matches(a * x, {m: c * x for m, c in ta.items()}, a.order)
    assert_matches(a * b, fraction_mul(ta, tb, order), order)
    assert_matches(a.apply(table), fraction_apply(ta, table), a.order)
    derivative = Counter()
    for m, c in ta.items():
        if i in m:  # d/dp_i drops one part i and multiplies by the count of i
            derivative[m[: m.index(i)] + m[m.index(i) + 1 :]] = c * m.count(i)
    assert_matches(a.partial(i), derivative, a.order)
    assert_matches(a.restrict(keep), {m: c for m, c in ta.items() if keep.issuperset(m)}, a.order)
    assert_matches(a.truncated(t), ta if t >= 0 else {}, min(t, a.order) if t >= 0 else 0)
    exp = fraction_power_sum(ta, lambda k: Fraction(1, factorial(k)), a.order)
    exp[()] += 1
    assert_matches(a.exp(), exp, a.order)
    one_plus_a = a + PSeries.one(a.order)
    log = fraction_power_sum(ta, lambda k: Fraction((-1) ** (k + 1), k), a.order)
    assert_matches(one_plus_a.log(), log, a.order)
    specialised = Counter()
    for m, c in ta.items():
        specialised[(1,) * sum(m)] += c
    assert_matches(principal_specialize(a), specialised, a.order)


@PROPERTY
@given(
    sparse_series(denominators=st.sampled_from((1, 2, 4, 2**20))),
    sparse_series(denominators=st.sampled_from((3, 5, 7, 9 * 11))),
)
@example(
    PSeries({M((1, 1)): Fraction(1, 8)}, 4),
    PSeries({M((3, 1)): Fraction(1, 3), M((1, 1)): Fraction(2, 9)}, 4),
)
def test_equal_values_are_equal_series_across_routes(a, b):
    # b's denominator is coprime to a's, so a + b is held over their product
    # and the difference must reduce back to a's own denominator
    a, b = a.truncated(b.order), b.truncated(a.order)
    assert (a + b) - b == a
    assert (a + b) - b - a == PSeries({}, a.order)
    assert a * 0 == PSeries({}, a.order)
    assert (a * 0).den == 1
    assert a * Fraction(1, 3) * 3 == a


def test_mutating_the_terms_read_leaves_the_series_unchanged():
    s = PSeries({M((1, 1)): Fraction(1, 8), M((3, 1)): Fraction(3, 128)}, 3)
    terms = s.terms
    terms[pack(M((1, 1)))] = Fraction(5)
    terms.clear()
    assert s == PSeries({M((1, 1)): Fraction(1, 8), M((3, 1)): Fraction(3, 128)}, 3)
    assert s.terms == {pack(M((1, 1))): Fraction(1, 8), pack(M((3, 1))): Fraction(3, 128)}
    assert (s.den, s.nums) == (128, {pack(M((1, 1))): 16, pack(M((3, 1))): 3})
