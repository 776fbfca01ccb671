from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest

from closed_families import closed_form, double_factorial, family_parts

from bessel_tr.correlators import (
    CorrelatorTable,
    in_support,
    odd_partitions,
    support_keys,
)
from bessel_tr.pseries import free_energy


def string_dilaton_holds(t, g, parts):
    """Appending a part equal to 1 multiplies the value by 2g - 2 + n. The
    table fills C(g; parts, 1) by this equation, so the left side is a fresh
    recursion step on the largest part, not the filled entry read back."""
    return t.recursion_step(g, parts + (1,), 0) == (2 * g - 2 + len(parts)) * t.value(g, parts)


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
    # the memo is keyed by the parts alone: a wrong-genus query must neither
    # write to nor read from the key of the right genus, in either order
    t = CorrelatorTable()
    assert t.value(3, (3, 1)) == 0
    assert t.value(2, (3, 1)) == Fraction(9, 128)
    t = CorrelatorTable()
    assert t.value(2, (3, 1)) == Fraction(9, 128)
    assert t.value(3, (3, 1)) == 0


def test_value_is_order_insensitive():
    t = CorrelatorTable()
    assert t.value(2, (1, 3)) == t.value(2, (3, 1))
    assert t.value(3, (1, 1, 3, 3)) == t.value(3, (3, 3, 1, 1))


def test_value_refuses_float_parts_on_a_cold_and_a_warm_table():
    # a float part raises, whatever the memo holds: it is never read through
    # the int key's entry, nor multiplied into a float by the dilaton fill
    for warm in ((), (3,), (3, 1)):
        t = CorrelatorTable()
        if warm:
            t.value(2, warm)
        with pytest.raises(TypeError):
            t.value(2, (3.0, 1))
        with pytest.raises(TypeError):
            t.recursion_step(2, (3.0, 1), 0)


def test_free_energy_steps_only_on_keys_with_no_part_one(monkeypatch):
    # every key with a part 1 is filled from the key without it by the
    # dilaton equation, so the recursion runs once per other support key
    steps = []
    step = CorrelatorTable.recursion_step

    def counted(self, g, parts, pivot):
        steps.append((g, parts))
        return step(self, g, parts, pivot)

    monkeypatch.setattr(CorrelatorTable, "recursion_step", counted)
    free_energy(CorrelatorTable(), 14)
    assert len(steps) == 21
    assert sorted(steps) == sorted((g, p) for g, p in support_keys(14) if 1 not in p)


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


def test_one_point_closed_form_at_depth():
    # C(g; 2g - 1) = ((2g - 3)!!)^2 (2g - 1)!! / (8^g g!), far beyond the
    # genus <= 4 families above: a cheap tripwire on the recursion at chi 29
    t = CorrelatorTable()
    for g in range(1, 16):
        expected = Fraction(
            double_factorial(2 * g - 3) ** 2 * double_factorial(2 * g - 1), 8**g * factorial(g)
        )
        assert t.value(g, (2 * g - 1,)) == expected, g


def test_string_dilaton_examples():
    t = CorrelatorTable()
    assert string_dilaton_holds(t, 1, (1,))
    assert t.value(1, (1, 1)) == Fraction(1, 8)
    assert string_dilaton_holds(t, 2, (3,))
    assert t.value(2, (3, 1)) == 3 * t.value(2, (3,))
    assert t.value(0, (1, 1, 1)) == 0  # off the support, where 2g - 2 + n = 0


def test_dilaton_fill_walks_long_runs_of_ones():
    # a miss walks down the trailing 1s and multiplies back up, one frame for
    # any number of them: C(1; 1^n) = (n - 1)! / 8, and each 1 appended to
    # (3, 1^k) multiplies by 3 + k
    assert CorrelatorTable().value(1, (1,) * 600) == Fraction(factorial(599), 8)
    t = CorrelatorTable()
    assert t.value(2, (3,) + (1,) * 600) == t.value(2, (3,)) * (factorial(602) // 2)


def test_dilaton_fill_spreads_a_stored_entry_and_stores_each_key():
    # the walk stops at the first stored key, so a wrong entry reaches the
    # longer keys multiplied by the dilaton factors, and each is stored
    t = CorrelatorTable()
    t._entries[(3, 1)] = Fraction(1, 7)
    assert t.value(2, (3, 1, 1, 1)) == 4 * 5 * Fraction(1, 7)
    assert list(t._entries.items())[-2:] == [
        ((3, 1, 1), 4 * Fraction(1, 7)),
        ((3, 1, 1, 1), 4 * 5 * Fraction(1, 7)),
    ]
    assert (3,) not in t._entries


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
    # a fractional part is not odd, whatever the parts sum to
    assert not in_support(1, (1.5,))
    assert not in_support(2, (2.5, 1.5))
    # nor is an integer-valued float, which `value` refuses with TypeError
    assert not in_support(2, (3.0, 1))


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


def test_recursion_step_counts_a_negative_pivot_from_the_end():
    t = CorrelatorTable()
    assert t.recursion_step(2, (3, 1), -1) == t.value(2, (3, 1))
    assert t.recursion_step(2, (3, 1), -2) == t.value(2, (3, 1))
    with pytest.raises(IndexError):
        t.recursion_step(2, (3, 1), 2)


def test_recursion_step_rejects_off_support_index():
    with pytest.raises(ValueError):
        CorrelatorTable().recursion_step(2, (5, 1), 0)


def test_odd_partitions():
    assert set(odd_partitions(5)) == {(5,), (3, 1, 1), (1, 1, 1, 1, 1)}
    assert set(odd_partitions(2)) == {(1, 1)}
    assert list(odd_partitions(0)) == [()]
    for parts in odd_partitions(9):
        assert all(p % 2 == 1 for p in parts)
        assert sum(parts) == 9


def recursive_odd_partitions(total, max_part):
    """The first part from the largest allowed down, then the rest below it."""
    if total == 0:
        yield ()
        return
    start = min(total, max_part)
    for first in range(start - 1 + start % 2, 0, -2):
        for rest in recursive_odd_partitions(total - first, first):
            yield (first,) + rest


def test_odd_partitions_match_the_recursive_walk():
    # the same partitions in the same order, for every total
    for total in range(-1, 31):
        assert list(odd_partitions(total)) == list(recursive_odd_partitions(total, total))


def test_support_keys_ordering_and_content():
    keys = list(support_keys(3))
    assert (1, (1,)) in keys
    assert (2, (3,)) in keys
    assert (1, (1, 1, 1)) in keys
    for g, parts in keys:
        assert in_support(g, parts)
        assert 2 * g - 2 + len(parts) <= 3


def test_every_support_value_through_chi_24_is_positive():
    # the seed and every recursion coefficient are positive, so by induction
    # no support value is zero and `free_energy` keeps every support key
    t = CorrelatorTable()
    assert all(t.value(g, parts) > 0 for g, parts in support_keys(24))
