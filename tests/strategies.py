"""Helpers shared by the test modules: the monomial shorthand `M`, the
hypothesis settings `PROPERTY` and the `monomials` and `sparse_series`
strategies."""

from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st

from bessel_tr.correlators import odd_partitions
from bessel_tr.pseries import PSeries, mono


def M(*pairs):
    return mono(pairs)


# property tests draw a fixed example stream (derandomize), so the suite is deterministic
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# a monomial over p1 .. p9 with exponents <= 3, possibly empty
monomials = st.lists(st.tuples(st.sampled_from((1, 3, 5, 7, 9)), st.integers(1, 3))).map(mono)


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
