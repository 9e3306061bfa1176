import pytest
from hypothesis import given
from hypothesis import strategies as st

from compedge.monomials import (
    Monomial,
    lcm,
    one,
    parse_monomial,
    variable,
    x_of_set,
)
from test_ideals import divisors


def m(*exps):
    return Monomial(tuple(exps))


monomials = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*([st.integers(0, 4)] * n)).map(Monomial)
)


def paired(draw_n=st.integers(1, 5)):
    return draw_n.flatmap(
        lambda n: st.tuples(
            st.tuples(*([st.integers(0, 4)] * n)).map(Monomial),
            st.tuples(*([st.integers(0, 4)] * n)).map(Monomial),
        )
    )


class TestBasics:
    def test_constant(self):
        u = one(3)
        assert u.is_one and u.degree == 0 and u.support == frozenset()

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            m(1, -1)

    def test_rejects_empty_ambient(self):
        with pytest.raises(ValueError):
            Monomial(())

    def test_support_and_degrees(self):
        u = m(2, 0, 1)
        assert u.degree == 3
        assert u.support == {0, 2}
        assert not u.is_squarefree and m(1, 0, 1).is_squarefree


class TestArithmetic:
    def test_lcm(self):
        assert lcm(m(1, 1, 0), m(0, 1, 1)) == m(1, 1, 1)

    def test_divides(self):
        assert m(1, 0).divides(m(2, 1))
        assert not m(2, 1).divides(m(1, 1))

    def test_exact_division(self):
        assert m(2, 1) // m(1, 0) == m(1, 1)
        with pytest.raises(ValueError):
            m(1, 0) // m(0, 1)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            m(1) * m(1, 0)

    @given(paired())
    def test_lcm_is_a_common_multiple(self, pair):
        u, v = pair
        assert u.divides(lcm(u, v)) and v.divides(lcm(u, v))

    @given(paired())
    def test_degree_and_support_additivity(self, pair):
        u, v = pair
        assert (u * v).degree == u.degree + v.degree
        assert (u * v).support == u.support | v.support


class TestBuilders:
    def test_x_of_set(self):
        assert x_of_set({0, 1, 2}, 3) == m(1, 1, 1)
        assert x_of_set(set(), 4) == one(4)
        assert x_of_set({1}, 4) == m(0, 1, 0, 0)

    def test_x_of_set_range_error(self):
        with pytest.raises(ValueError):
            x_of_set({4}, 3)

    def test_variable(self):
        assert variable(2, 4) == m(0, 0, 1, 0)


class TestDivisors:
    """The reference enumeration the divisor-count tables of ``test_ideals``
    are checked against."""

    @pytest.mark.parametrize(
        "u,count",
        [(m(1, 1), 4), (m(2), 3), (m(2, 2, 2), 27)],
    )
    def test_counts(self, u, count):
        divs = list(divisors(u))
        assert len(divs) == count
        assert len(set(divs)) == count
        assert all(d.divides(u) for d in divs)

    @given(monomials)
    def test_count_formula(self, u):
        expected = 1
        for e in u.exponents:
            expected *= e + 1
        assert sum(1 for _ in divisors(u)) == expected


class TestTextFormat:
    @pytest.mark.parametrize(
        "u,text",
        [
            (m(0, 0), "1"),
            (m(2, 0, 1), "x1^2*x3"),
            (m(1, 1), "x1*x2"),
        ],
    )
    def test_str(self, u, text):
        assert str(u) == text

    @given(monomials)
    def test_round_trip(self, u):
        assert parse_monomial(str(u), u.ambient) == u

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_monomial("y1", 3)
        with pytest.raises(ValueError):
            parse_monomial("x9", 3)
