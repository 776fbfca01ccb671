from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from bessel_tr.correlators import (
    CorrelatorTable,
    closed_form,
    family_parts,
    in_support,
    odd_partitions,
    string_dilaton_holds,
    support_keys,
)
from bessel_tr.formal import ConsistencyError


def test_base_and_low_values():
    t = CorrelatorTable()
    assert t.value(1, (1,)) == Fraction(1, 8)
    assert t.value(2, (3, 1)) == Fraction(9, 128)
    assert t.value(3, (3, 3)) == Fraction(63, 512)
    assert t.value(1, (2,)) == 0


def test_off_support_is_zero():
    t = CorrelatorTable()
    assert t.value(2, (5, 1)) == 0      # wrong total
    assert t.value(0, (1,)) == 0        # genus-zero base case
    assert t.value(0, (1, 1)) == 0
    assert t.value(1, (-1,)) == 0
    assert t.value(3, (4, 2)) == 0      # even parts


def test_value_is_order_insensitive():
    t = CorrelatorTable()
    assert t.value(2, (1, 3)) == t.value(2, (3, 1))
    assert t.value(3, (1, 1, 3, 3)) == t.value(3, (3, 3, 1, 1))


def test_closed_form_examples():
    assert closed_form(4, (7,), 1) == Fraction(7875, 32768)
    assert closed_form(3, (5,), 2) == Fraction(225, 1024)
    assert closed_form(1, (), 2) == Fraction(1, 8)


def test_closed_form_rejects_untabulated():
    with pytest.raises(ValueError):
        closed_form(2, (5,), 1)
    with pytest.raises(ValueError):
        closed_form(5, (9,), 1)
    with pytest.raises(ValueError):
        closed_form(4, (3, 3, 3), 2)  # needs at least three parts


def test_recursion_matches_all_closed_families():
    t = CorrelatorTable()
    for (g, shape) in [
        (1, ()),
        (2, (3,)),
        (3, (5,)),
        (3, (3, 3)),
        (4, (7,)),
        (4, (5, 3)),
        (4, (3, 3, 3)),
    ]:
        # n up to 12: long runs of ones are where sub-multiset splits differ
        # most from subsets
        for n in range(max(len(shape), 1), 13):
            parts = family_parts(shape, n)
            assert t.value(g, parts) == closed_form(g, shape, n), (g, shape, n)


def test_string_dilaton_examples():
    t = CorrelatorTable()
    assert string_dilaton_holds(t, 1, (1,))
    assert t.value(1, (1, 1)) == Fraction(1, 8)
    assert string_dilaton_holds(t, 2, (3,))
    assert t.value(2, (3, 1)) == 3 * t.value(2, (3,))
    assert string_dilaton_holds(t, 0, (1, 1))


def test_string_dilaton_sweep():
    t = CorrelatorTable()
    for g, parts in support_keys(8):
        assert string_dilaton_holds(t, g, parts), (g, parts)


def test_support_predicate_examples():
    assert in_support(1, (1, 1, 1))
    assert in_support(2, (3, 1))
    assert not in_support(2, (5, 1))
    assert not in_support(1, (2,))
    assert not in_support(-1, (1,))
    assert not in_support(1, ())


def test_support_sweep_parts_up_to_nine():
    # exhaustive: parts from 1..9, up to 4 of them, genus up to 4
    t = CorrelatorTable()
    for g in range(5):
        for n in range(1, 5):
            for parts in combinations_with_replacement(range(1, 10), n):
                if not in_support(g, parts):
                    assert t.value(g, parts) == 0, (g, parts)


def test_pivot_choice_does_not_matter():
    # the recursion distinguishes one part; every choice must agree (except
    # on the seeded base value, which the recursion does not reproduce)
    t = CorrelatorTable()
    for g, parts in support_keys(12):
        if (g, parts) == (1, (1,)):
            continue
        expected = t.value(g, parts)
        for pivot in range(len(parts)):
            assert t.recursion_step(g, parts, pivot) == expected, (g, parts, pivot)


def test_pivot_identity_is_trivial_for_seeded_base_case():
    # the seed (g, parts) = (1, (1,)) is not produced by the recursion itself
    t = CorrelatorTable()
    assert t.recursion_step(1, (1,), 0) == 0
    assert t.value(1, (1,)) == Fraction(1, 8)


def test_recursion_step_accepts_unsorted_parts():
    t = CorrelatorTable()
    assert t.recursion_step(3, (1, 3, 1, 3), 1) == t.value(3, (3, 3, 1, 1))
    assert t.recursion_step(3, (1, 3, 1, 3), 0) == t.value(3, (3, 3, 1, 1))


def test_recursion_step_rejects_off_support_index():
    with pytest.raises(ValueError):
        CorrelatorTable().recursion_step(2, (5, 1), 0)


def test_memo_insert_conflict_is_fatal():
    t = CorrelatorTable()
    t.value(2, (3,))
    with pytest.raises(ConsistencyError):
        t._store((2, (3,)), Fraction(1, 2))


def test_odd_partitions():
    assert set(odd_partitions(5)) == {(5,), (3, 1, 1), (1, 1, 1, 1, 1)}
    assert set(odd_partitions(2)) == {(1, 1)}
    assert list(odd_partitions(0)) == [()]
    for parts in odd_partitions(9):
        assert all(p % 2 == 1 for p in parts)
        assert sum(parts) == 9


def test_support_keys_ordering_and_content():
    keys = list(support_keys(3))
    assert (1, (1,)) in keys
    assert (2, (3,)) in keys
    assert (1, (1, 1, 1)) in keys
    for g, parts in keys:
        assert in_support(g, parts)
        assert 2 * g - 2 + len(parts) <= 3
