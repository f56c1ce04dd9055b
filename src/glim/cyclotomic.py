"""Exact arithmetic in the cyclotomic field Q(zeta_n).

An element is a polynomial in zeta_n reduced modulo the n-th cyclotomic
polynomial, stored as a tuple of integer numerators over one positive common
denominator in lowest terms (zero has denominator 1).  The form is canonical,
so equality of values is equality of integers.  No floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Divide integer polynomials (den monic), returning (quotient, remainder)."""
    num = list(num)
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return [0], num
    quot = [0] * (len(num) - dd)
    for shift in range(len(num) - 1 - dd, -1, -1):
        c = num[shift + dd]
        quot[shift] = c
        if c:
            for i, dc in enumerate(den):
                num[shift + i] -= c * dc
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert all(c == 0 for c in rem)
    return tuple(num)


class CyclotomicField:
    """The field Q(zeta_n); use :func:`get_field` to obtain the cached instance.

    ``zero``, ``one`` and the n powers of zeta are built once, here.
    """

    def __init__(self, n: int):
        self.n = n
        self.poly = cyclotomic_polynomial(n)
        self.degree = len(self.poly) - 1
        # reductions of zeta^k mod Phi_n for every power that can appear
        top = max(n, 2 * self.degree - 1)
        table: list[tuple[int, ...]] = []
        for k in range(top):
            if k < self.degree:
                vec = [0] * self.degree
                vec[k] = 1
            else:
                prev = table[k - 1]
                vec = [0] + list(prev[:-1])
                lead = prev[-1]
                if lead:
                    for i in range(self.degree):
                        vec[i] -= lead * self.poly[i]
            table.append(tuple(vec))
        # kept sparse: the (index, coefficient) pairs of each reduction
        self._pow = [tuple((i, c) for i, c in enumerate(vec) if c) for vec in table]
        zeros = (0,) * self.degree
        self.zero = CycNum(self, zeros, 1)
        self.one = CycNum(self, (1,) + zeros[1:], 1)
        self._zetas = tuple(CycNum(self, table[k], 1) for k in range(n))
        # the units +-zeta^k by sign, and each one's (sign, k) by its numerators (den 1)
        self._units = {1: self._zetas, -1: tuple(-z for z in self._zetas)}
        self._unit_of = {u.num: (s, k) for s, us in self._units.items() for k, u in enumerate(us)}

    def element(self, coeffs) -> CycNum:
        vec = [Fraction(_rational(c)) for c in coeffs]
        if len(vec) < self.degree:
            vec += [Fraction(0)] * (self.degree - len(vec))
        if len(vec) != self.degree:
            raise ValueError("coefficient vector too long")
        den = lcm(*(c.denominator for c in vec))
        return _canonical(self, [c.numerator * (den // c.denominator) for c in vec], den)

    def scalar(self, value) -> CycNum:
        value = _rational(value)
        return CycNum(self, (value.numerator,) + self.zero.num[1:], value.denominator)

    def zeta(self, k: int = 1) -> CycNum:
        return self._zetas[k % self.n]

    def __repr__(self) -> str:
        return f"CyclotomicField({self.n})"


@lru_cache(maxsize=None)
def get_field(n: int) -> CyclotomicField:
    return CyclotomicField(n)


def _rational(value):
    """``value`` itself if it is an int (not a bool) or a Fraction."""
    if type(value) is int or isinstance(value, Fraction):
        return value
    raise ValueError(f"coefficients are int or Fraction, not {type(value).__name__}")


def _canonical(field: CyclotomicField, num: list[int], den: int) -> CycNum:
    """The element num/den (den > 0), brought to lowest terms."""
    if not any(num):
        return field.zero
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return CycNum(field, tuple(num), den)


class CycNum:
    """An element of Q(zeta_n), canonically reduced mod the cyclotomic polynomial.

    The value is ``sum(num[i] * zeta**i) / den``: integer numerators over one
    positive common denominator, in lowest terms, with zero as denominator 1.
    Instances are values: nothing rebinds their fields.  Build them through
    the field (``element``, ``scalar``, ``zeta``, ``zero``, ``one``); the
    constructor takes the canonical form as given.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CyclotomicField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of 1, zeta, ..., zeta^(degree-1)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.field.n != self.field.n:
                raise ValueError(
                    f"conductor mismatch: {self.field.n} vs {other.field.n}"
                )
            return other
        if type(other) is int or isinstance(other, Fraction):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        da, db = self.den, o.den
        if da == db:
            num = [a + b for a, b in zip(self.num, o.num)]
        else:
            num = [a * db + b * da for a, b in zip(self.num, o.num)]
            da *= db
        return _canonical(self.field, num, da)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        fld = self.field
        # units, +-1 among them, multiply by adding exponents; no convolution
        if self.den == 1 == o.den and self.num in fld._unit_of and o.num in fld._unit_of:
            (s, k), (t, j) = fld._unit_of[self.num], fld._unit_of[o.num]
            return fld._units[s * t][(k + j) % fld.n]
        a, b = (o, self) if self.is_rational else (self, o)
        if b.is_rational:  # a rational factor scales the numerators once
            return _canonical(fld, [x * b.num[0] for x in a.num], a.den * b.den)
        d = fld.degree
        # integer convolution; then each power zeta^k, k >= degree, reduced
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(o.num, i):
                    if y:
                        prod[j] += x * y
        out = prod[:d]
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                for i, r in fld._pow[k]:
                    out[i] += c * r
        return _canonical(fld, out, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, k: int) -> "CycNum":
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.field.n, self.num, self.den))

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def _cofactor(self) -> "CycNum":
        """The product of the Galois conjugates of self under every
        automorphism but the identity."""
        n = self.field.n
        out = self.field.one
        for k in range(2, n + 1):
            if gcd(k, n) == 1:
                out = out * self.conjugate(k)
        return out

    def inverse(self) -> "CycNum":
        """Field inverse: a rational or unit +-zeta^k directly, else conjugates over the norm."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        if self.is_rational:
            c = self.num[0]
            return CycNum(self.field, (self.den if c > 0 else -self.den,) + self.num[1:], abs(c))
        if self.den == 1 and self.num in self.field._unit_of:
            s, k = self.field._unit_of[self.num]
            return self.field._units[s][-k % self.field.n]
        cofactor = self._cofactor()
        return cofactor * (1 / (self * cofactor).as_rational())

    def conjugate(self, k: int) -> "CycNum":
        """Apply the Galois automorphism zeta -> zeta^k (k coprime to n)."""
        fld = self.field
        n = fld.n
        if gcd(k, n) != 1:
            raise ValueError(f"{k} is not coprime to the conductor {n}")
        out = [0] * fld.degree
        for i, c in enumerate(self.num):
            if c:
                for j, r in fld._pow[(i * k) % n]:
                    out[j] += c * r
        # an automorphism of Z[zeta] keeps the content of the numerators, so
        # the denominator stays in lowest terms
        return CycNum(fld, tuple(out), self.den)

    def norm_to_q(self) -> Fraction:
        """Product of all Galois conjugates; always a rational number."""
        if self.is_zero:
            return Fraction(0)
        result = self * self._cofactor()
        if not result.is_rational:
            raise AssertionError("norm did not land in Q")
        return result.as_rational()

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(parts)
