from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from weildec.cyclo import _divide_by_xd_minus_1, cyclotomic_poly, make_field


LEVELS = [3, 4, 8, 12, 24, 40]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 24])
def test_cyclotomic_poly_degree(n):
    poly = cyclotomic_poly(n)
    assert len(poly) - 1 == sum(gcd(k, n) == 1 for k in range(1, n + 1))
    assert poly[-1] == 1


def _divmod_by_monic(num, den):
    """Long division of integer polynomials (lowest degree first), den monic."""
    num = list(num)
    d = len(den) - 1
    q = [0] * max(1, len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            q[i - d] = c
            for j, dj in enumerate(den):
                num[i - d + j] -= c * dj
    return q, num[:d]


def _recursive_cyclotomic_polys(limit):
    """Phi_n for n <= limit as (X^n - 1) divided by every Phi_d, d | n, d < n."""
    phis = {}
    for n in range(1, limit + 1):
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                poly, rem = _divmod_by_monic(poly, phis[d])
                assert not any(rem)
        phis[n] = tuple(poly)
    return phis


def test_cyclotomic_poly_matches_division_recursion():
    for n, phi in _recursive_cyclotomic_polys(400).items():
        assert cyclotomic_poly(n) == phi, n


def test_inexact_division_raises():
    # (X^2 + 1) / (X - 1) leaves the remainder 2
    with pytest.raises(RuntimeError):
        _divide_by_xd_minus_1([1, 0, 1], 1)
    assert _divide_by_xd_minus_1([-1, 0, 0, 0, 1], 2) == [1, 0, 1]


@pytest.mark.parametrize("level", LEVELS)
def test_roots_of_unity(level):
    field = make_field(level)
    z = field.root_of_unity(1)
    acc = field.one()
    for k in range(level):
        assert acc == field.root_of_unity(k)
        acc = acc * z
    assert acc == field.one()


@pytest.mark.parametrize("level", LEVELS)
def test_primitive_root_has_full_order(level):
    field = make_field(level)
    z = field.root_of_unity(1)
    for k in range(1, level):
        assert z ** k != field.one()
    assert z ** level == field.one()


def _elt_strategy(field):
    coeff = st.integers(min_value=-9, max_value=9)
    return st.lists(
        coeff, min_size=field.level, max_size=field.level
    ).map(field.from_int_vector)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_axioms(data):
    field = make_field(12)
    a = data.draw(_elt_strategy(field))
    b = data.draw(_elt_strategy(field))
    c = data.draw(_elt_strategy(field))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == field.zero()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_inverse(data):
    field = make_field(8)
    a = data.draw(_elt_strategy(field))
    if a.is_zero():
        a = a + field.one()
    assert a * a.inverse() == field.one()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_conjugation_is_involutive_and_multiplicative(data):
    field = make_field(12)
    a = data.draw(_elt_strategy(field))
    b = data.draw(_elt_strategy(field))
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()


@pytest.mark.parametrize("level", [3, 4, 8, 12])
def test_norm_of_root_is_one(level):
    field = make_field(level)
    for k in range(level):
        assert field.root_of_unity(k).norm_sq() == field.one()


def test_rational_detection():
    field = make_field(12)
    x = field.from_rational(Fraction(7, 3))
    assert x.is_rational()
    assert x.as_fraction() == Fraction(7, 3)
    z = field.root_of_unity(1)
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.as_fraction()


def _prime_divisors(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]


@pytest.mark.parametrize("level", [3, 4, 8, 24])
def test_root_of_unity_order(level):
    # zeta_L^k has order L / gcd(k, L): that power is 1, and no power
    # order / q for a prime q dividing the order is
    field = make_field(level)
    for k in range(level):
        z = field.root_of_unity(k)
        order = level // gcd(k, level)
        assert z ** order == 1
        assert all(z ** (order // q) != 1 for q in _prime_divisors(order))


def test_coerce_and_arithmetic_with_ints():
    field = make_field(8)
    z = field.root_of_unity(2)
    assert z * 0 == field.zero()
    assert field.coerce(1) == field.one()
    assert field.coerce(Fraction(1, 2)) * 2 == field.one()


def test_field_cache():
    assert make_field(24) is make_field(24)


def test_mixed_levels_rejected():
    with pytest.raises(ValueError):
        make_field(8).coerce(make_field(12).one())
