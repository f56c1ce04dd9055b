from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from glim.cyclotomic import cyclotomic_polynomial, get_field


def test_small_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta4_squares_to_minus_one():
    f = get_field(4)
    assert f.zeta(1) * f.zeta(1) == f.scalar(-1)


def test_inverse_of_minus_one():
    f = get_field(2)
    assert f.scalar(-1).inverse() == f.scalar(-1)


def test_product_reduces_mod_phi3():
    # (1 + z)(1 + z^2) = 1 using 1 + z + z^2 = 0
    f = get_field(3)
    assert (f.one + f.zeta(1)) * (f.one + f.zeta(2)) == f.one


def test_root_of_unity_cases():
    assert get_field(4).zeta(2) == get_field(4).scalar(-1)
    assert get_field(7).zeta(0) == get_field(7).one
    assert get_field(2).zeta(1) == get_field(2).scalar(-1)


def test_norms():
    f4 = get_field(4)
    assert f4.element([1, 1]).norm_to_q() == 2  # (1+i)(1-i)
    assert f4.zero.norm_to_q() == 0
    assert get_field(2).scalar(3).norm_to_q() == 3


def test_norm_of_rational_is_power():
    f = get_field(5)
    assert f.scalar(Fraction(2, 3)).norm_to_q() == Fraction(2, 3) ** 4


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        get_field(4).zero.inverse()


def test_conductor_mismatch_raises():
    with pytest.raises(ValueError):
        get_field(4).one + get_field(3).one


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 12])
def test_all_roots_of_unity_have_order_dividing_n(n):
    f = get_field(n)
    for k in range(n):
        assert f.zeta(k) ** n == f.one


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def cyc_numbers(draw, n):
    f = get_field(n)
    coeffs = draw(
        st.lists(small_rationals, min_size=f.degree, max_size=f.degree)
    )
    return f.element(coeffs)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 4, 6, 8]))
def test_field_axioms(data, n):
    x = data.draw(cyc_numbers(n))
    y = data.draw(cyc_numbers(n))
    z = data.draw(cyc_numbers(n))
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    if not x.is_zero:
        assert x * x.inverse() == get_field(n).one


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([3, 4, 6]))
def test_norm_is_multiplicative(data, n):
    x = data.draw(cyc_numbers(n))
    y = data.draw(cyc_numbers(n))
    assert (x * y).norm_to_q() == x.norm_to_q() * y.norm_to_q()


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([3, 4, 5, 8]))
def test_conjugation_fixes_norm_and_respects_products(data, n):
    x = data.draw(cyc_numbers(n))
    y = data.draw(cyc_numbers(n))
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            assert x.conjugate(k) * y.conjugate(k) == (x * y).conjugate(k)


# ---------------------------------------------------------------------------
# agreement with a plain Fraction-coefficient reference


def _ref_reduce(poly, n):
    """Remainder of a Fraction polynomial (ascending) mod Phi_n."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    out = list(poly) + [Fraction(0)] * max(0, d - len(poly))
    for top in range(len(out) - 1, d - 1, -1):
        c = out[top]
        if c:
            for i, p in enumerate(phi):
                out[top - d + i] -= c * p
    return out[:d]


def _ref_mul(x, y, n):
    prod = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    return _ref_reduce(prod, n)


def _ref_matrix(x, n):
    """Columns: x * zeta^j in the power basis, j < phi(n)."""
    d = len(x)
    return [_ref_mul(x, [Fraction(int(i == j)) for i in range(d)], n) for j in range(d)]


def _ref_solve(cols, rhs):
    """The vector v with sum_j v[j] * cols[j] == rhs (cols independent)."""
    d = len(rhs)
    rows = [[cols[j][i] for j in range(d)] + [rhs[i]] for i in range(d)]
    for c in range(d):
        piv = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][d] for i in range(d)]


def _ref_det(cols):
    d = len(cols)
    m = [list(col) for col in cols]
    det = Fraction(1)
    for c in range(d):
        piv = next((r for r in range(c, d) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, d):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _ref_conjugate(x, k, n):
    poly = [Fraction(0)] * n
    for i, a in enumerate(x):
        poly[(i * k) % n] += a
    return _ref_reduce(poly, n)


REFERENCE_CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 12, 16]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(REFERENCE_CONDUCTORS))
def test_arithmetic_agrees_with_fraction_reference(data, n):
    f = get_field(n)
    x = data.draw(cyc_numbers(n))
    y = data.draw(cyc_numbers(n))
    rx, ry = list(x.coeffs), list(y.coeffs)
    assert list((x + y).coeffs) == [a + b for a, b in zip(rx, ry)]
    assert list((x - y).coeffs) == [a - b for a, b in zip(rx, ry)]
    assert list((x * y).coeffs) == _ref_mul(rx, ry, n)
    # the norm is the determinant of multiplication by x
    assert x.norm_to_q() == _ref_det(_ref_matrix(rx, n))
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            assert list(x.conjugate(k).coeffs) == _ref_conjugate(rx, k, n)
    if not y.is_zero:
        one = [Fraction(int(i == 0)) for i in range(f.degree)]
        ref_inv = _ref_solve(_ref_matrix(ry, n), one)
        assert list(y.inverse().coeffs) == ref_inv
        assert list((x / y).coeffs) == _ref_mul(rx, ref_inv, n)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(REFERENCE_CONDUCTORS))
def test_canonical_form_hash_and_coefficient_round_trip(data, n):
    f = get_field(n)
    x = data.draw(cyc_numbers(n))
    y = data.draw(cyc_numbers(n))
    assert f.element(x.coeffs) == x
    assert f.element(x.coeffs).coeffs == x.coeffs
    same = (x + y) - y
    assert same == x and hash(same) == hash(x)
    scaled = (x * 3) / 3
    assert scaled == x and hash(scaled) == hash(x)
    assert hash(f.element([0] * f.degree)) == hash(f.zero)


# ---------------------------------------------------------------------------
# units +-zeta^k and rationals skip the convolution: they must still give the
# canonical form of the general path


@st.composite
def units_and_rationals(draw, n):
    f = get_field(n)
    if draw(st.booleans()):
        z = f.zeta(draw(st.integers(0, n - 1)))
        return z if draw(st.booleans()) else -z
    value = draw(st.sampled_from([0, 1, -1]) | st.fractions(max_value=0, max_denominator=6))
    return f.scalar(value)


def _assert_matches_reference(got, ref):
    """``got`` has the canonical numerators, denominator and hash of the
    Fraction coefficients ``ref``."""
    den = lcm(*(c.denominator for c in ref))
    assert got.num == tuple(c.numerator * (den // c.denominator) for c in ref)
    assert got.den == den
    assert hash(got) == hash(got.field.element(ref))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(REFERENCE_CONDUCTORS))
def test_unit_and_rational_fast_paths_agree_with_fraction_reference(data, n):
    f = get_field(n)
    one = [Fraction(int(i == 0)) for i in range(f.degree)]
    x = data.draw(units_and_rationals(n))
    y = data.draw(units_and_rationals(n) | cyc_numbers(n))
    for a, b in ((x, y), (y, x)):
        ra, rb = list(a.coeffs), list(b.coeffs)
        _assert_matches_reference(a * b, _ref_mul(ra, rb, n))
        if not b.is_zero:
            ref_inv = _ref_solve(_ref_matrix(rb, n), one)
            _assert_matches_reference(b.inverse(), ref_inv)
            _assert_matches_reference(a / b, _ref_mul(ra, ref_inv, n))
            assert b * b.inverse() == f.one


@pytest.mark.parametrize("n", REFERENCE_CONDUCTORS)
def test_every_unit_product_and_inverse_through_the_table(n):
    f = get_field(n)
    one = [Fraction(int(i == 0)) for i in range(f.degree)]
    units = [z for k in range(n) for z in (f.zeta(k), -f.zeta(k))]
    for u in units:
        ref_inv = _ref_solve(_ref_matrix(list(u.coeffs), n), one)
        _assert_matches_reference(u.inverse(), ref_inv)
        assert u * u.inverse() == f.one
        for v in units:
            _assert_matches_reference(u * v, _ref_mul(list(u.coeffs), list(v.coeffs), n))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REFERENCE_CONDUCTORS), st.integers(-9, 9) | small_rationals)
def test_scalar_is_the_one_coefficient_element(n, value):
    f = get_field(n)
    s = f.scalar(value)
    assert s == f.element([value]) and hash(s) == hash(f.element([value]))
    assert (s.num, s.den) == (f.element([value]).num, f.element([value]).den)
    x = f.zeta(1) + 2
    _assert_matches_reference(x * value, [c * value for c in x.coeffs])
    _assert_matches_reference(value * x, [c * value for c in x.coeffs])


def test_floats_and_bools_stay_out_of_the_field():
    f = get_field(4)
    for bad in (0.1, 1.0, True, False, "1/2"):
        with pytest.raises(ValueError):
            f.element([bad, 0])
        with pytest.raises(ValueError):
            f.scalar(bad)
    for bad in (True, 0.5):
        for op in (lambda z: z * bad, lambda z: bad * z, lambda z: z + bad, lambda z: z / bad):
            with pytest.raises(TypeError):
                op(f.zeta(1))
        assert f.one != bad
