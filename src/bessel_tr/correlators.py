"""Closed recursion for the Bessel-curve correlator coefficients.

The coefficients are indexed by a genus g and a tuple of positive odd
integers; they vanish unless the parts sum to 2g - 2 + n. A memoised table
evaluates the recursion

    mu1 * C(g; mu1, rest) = sum_k (mu1 + mu_k - 1) * C(g; mu1 + mu_k - 1, rest \\ mu_k)
        + 1/2 * sum_{a + b = mu1 - 1, a, b odd} a*b * [ C(g-1; a, b, rest)
            + sum_{left + right = rest} C(g1; a, left) * C(g2; b, right) ]

seeded by C(1; 1) = 1/8; genus zero is empty, as n parts cannot sum to n - 2.
The quadratic sum runs over sub-multisets `left` of `rest`, not subsets: a
split taking k of the c parts equal to v stands for comb(c, k) subsets and
is weighted by the product of those binomials. The support law forces both
genera, 2*g1 = a + sum(left) + 1 - |left| and g2 = g - g1, and each is at
least 1 because every part is; no genus is summed over.

Also houses the genus <= 4 closed-form families, the combined string/dilaton
identity, and the support predicate.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

from .formal import ConsistencyError


def canonical_parts(parts) -> tuple[int, ...]:
    """Sorted-descending tuple; the canonical memo key."""
    return tuple(sorted(parts, reverse=True))


def in_support(g: int, parts) -> bool:
    """True iff all parts are positive odd and sum to 2g - 2 + n."""
    parts = tuple(parts)
    n = len(parts)
    if g < 0 or n < 1:
        return False
    if any(p < 1 or p % 2 == 0 for p in parts):
        return False
    return sum(parts) == 2 * g - 2 + n


def odd_partitions(total: int, max_part: int | None = None):
    """Partitions of `total` into positive odd parts, as descending tuples."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    start = min(total, max_part)
    if start % 2 == 0:
        start -= 1
    for first in range(start, 0, -2):
        for rest in odd_partitions(total - first, first):
            yield (first,) + rest


def support_keys(chi_max: int):
    """All (g, parts) on the support with 2g - 2 + n <= chi_max.

    Ordered by (2g - 2 + n, n, parts), which is the canonical dump order.
    """
    for chi in range(1, chi_max + 1):
        for n in range(1, chi + 1):
            if (chi - n) % 2:
                continue
            g = (chi - n) // 2 + 1
            for parts in odd_partitions(chi):
                if len(parts) == n:
                    yield g, parts


class CorrelatorTable:
    """Memoised evaluator for the correlator coefficients."""

    def __init__(self):
        self._entries: dict[tuple[int, tuple[int, ...]], Fraction] = {
            (1, (1,)): Fraction(1, 8)
        }

    def value(self, g: int, parts) -> Fraction:
        """Coefficient for genus g and the given parts (any order).

        Inputs off the support (even or non-positive parts, wrong total)
        return 0 without recursing.
        """
        parts = canonical_parts(parts)
        if not in_support(g, parts):
            return Fraction(0)
        key = (g, parts)
        got = self._entries.get(key)
        if got is None:
            got = self.recursion_step(g, parts, 0)
            self._store(key, got)
        return got

    def _lookup(self, g: int, parts: tuple[int, ...]) -> Fraction:
        # canonical key on the support: a memo hit skips value's input checks
        got = self._entries.get((g, parts))
        return self.value(g, parts) if got is None else got

    def recursion_step(self, g: int, parts, pivot: int) -> Fraction:
        """One unfolding of the recursion with parts[pivot] distinguished.

        `value` always pivots on the largest part; other pivots are exposed so
        the well-definedness of the recursion can be checked directly. The
        index must be on the support, in any order. Each sub-multiset split of
        the other parts is taken once, weighted by its binomial count, with
        the genera the support law forces (see the module docstring).
        """
        parts = tuple(parts)
        if not in_support(g, parts):
            raise ValueError(f"index off the support: genus {g}, parts {parts}")
        first = parts[pivot]
        rest = canonical_parts(parts[:pivot] + parts[pivot + 1 :])
        lookup = self._lookup
        total = Fraction(0)
        for k in range(len(rest)):
            merged = first + rest[k] - 1
            total += merged * lookup(g, canonical_parts((merged,) + rest[:k] + rest[k + 1 :]))
        groups = sorted(Counter(rest).items(), reverse=True)
        splits = []  # (weight, left, right, 2*g1 - alpha)
        for taken in product(*(range(c + 1) for _, c in groups)):
            left = tuple(v for (v, _), k in zip(groups, taken) for _ in range(k))
            right = tuple(v for (v, c), k in zip(groups, taken) for _ in range(c - k))
            weight = prod(comb(c, k) for (_, c), k in zip(groups, taken))
            splits.append((weight, left, right, sum(left) + 1 - len(left)))
        quad = Fraction(0)
        for alpha in range(1, first - 1, 2):
            beta = first - 1 - alpha
            inner = lookup(g - 1, canonical_parts((alpha, beta) + rest))
            for weight, left, right, shift in splits:
                g1 = (alpha + shift) // 2
                a = lookup(g1, canonical_parts((alpha,) + left))
                inner += weight * a * lookup(g - g1, canonical_parts((beta,) + right))
            quad += alpha * beta * inner
        total += quad / 2
        return total / first

    def _store(self, key, value: Fraction) -> None:
        # idempotent insert: re-storing an equal value is legal, a differing one is fatal
        existing = self._entries.get(key)
        if existing is not None and existing != value:
            raise ConsistencyError(f"conflicting values for {key}: {existing} vs {value}")
        self._entries[key] = value


_CLOSED_FAMILIES: dict[tuple[int, tuple[int, ...]], tuple[Fraction, int]] = {
    (1, ()): (Fraction(1, 2**3), -1),
    (2, (3,)): (Fraction(3, 2**8), 1),
    (3, (5,)): (Fraction(15, 2**13), 3),
    (3, (3, 3)): (Fraction(21, 5 * 2**12), 3),
    (4, (7,)): (Fraction(175, 2**19), 5),
    (4, (5, 3)): (Fraction(575, 7 * 2**19), 5),
    (4, (3, 3, 3)): (Fraction(2407, 105 * 2**18), 5),
}


def closed_form(g: int, shape, n: int) -> Fraction:
    """Tabulated factorial formula for one of the seven genus <= 4 families.

    `shape` lists the parts larger than one; the full index is shape padded
    with ones up to n parts. Untabulated (g, shape) pairs are rejected.
    """
    shape = canonical_parts(shape)
    family = _CLOSED_FAMILIES.get((g, shape))
    if family is None:
        raise ValueError(f"no tabulated family for genus {g} with shape {shape}")
    if n < max(len(shape), 1):
        raise ValueError(f"need at least {max(len(shape), 1)} parts, got n={n}")
    coeff, shift = family
    return coeff * factorial(n + shift)


def family_parts(shape, n: int) -> tuple[int, ...]:
    """The full index of a closed-form family: shape padded with ones."""
    shape = canonical_parts(shape)
    return shape + (1,) * (n - len(shape))


def string_dilaton_holds(table: CorrelatorTable, g: int, parts) -> bool:
    """Appending a part equal to 1 multiplies the value by 2g - 2 + n."""
    parts = tuple(parts)
    n = len(parts)
    return table.value(g, parts + (1,)) == (2 * g - 2 + n) * table.value(g, parts)
