"""Exact arithmetic in the cyclotomic field Q(zeta_n).

Elements are stored as rational-coefficient polynomials in zeta_n reduced
modulo the n-th cyclotomic polynomial, so equality of values is equality of
coefficient vectors.  No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd


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
    """The field Q(zeta_n); use :func:`get_field` to obtain the cached instance."""

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
        self._pow = table

    def element(self, coeffs) -> CycNum:
        vec = [Fraction(c) for c in coeffs]
        if len(vec) < self.degree:
            vec += [Fraction(0)] * (self.degree - len(vec))
        if len(vec) != self.degree:
            raise ValueError("coefficient vector too long")
        return CycNum(self, tuple(vec))

    def scalar(self, value) -> CycNum:
        return self.element([Fraction(value)])

    @property
    def zero(self) -> CycNum:
        return self.scalar(0)

    @property
    def one(self) -> CycNum:
        return self.scalar(1)

    def zeta(self, k: int = 1) -> CycNum:
        k %= self.n
        return CycNum(self, tuple(Fraction(c) for c in self._pow[k]))

    def __repr__(self) -> str:
        return f"CyclotomicField({self.n})"

    def _reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.degree
        for k, c in enumerate(coeffs):
            if c:
                red = self._pow[k]
                for i in range(self.degree):
                    if red[i]:
                        out[i] += c * red[i]
        return tuple(out)


@lru_cache(maxsize=None)
def get_field(n: int) -> CyclotomicField:
    return CyclotomicField(n)


@dataclass(frozen=True)
class CycNum:
    """An element of Q(zeta_n), canonically reduced mod the cyclotomic polynomial."""

    field: CyclotomicField
    coeffs: tuple[Fraction, ...]

    def _coerce(self, other) -> "CycNum | None":
        if isinstance(other, CycNum):
            if other.field.n != self.field.n:
                raise ValueError(
                    f"conductor mismatch: {self.field.n} vs {other.field.n}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # scalar fast paths: most coefficients in practice are rational
        if all(c == 0 for c in o.coeffs[1:]):
            s = o.coeffs[0]
            if s == 0:
                return self.field.zero
            if s == 1:
                return self
            return CycNum(self.field, tuple(a * s for a in self.coeffs))
        if all(c == 0 for c in self.coeffs[1:]):
            s = self.coeffs[0]
            if s == 0:
                return self.field.zero
            if s == 1:
                return o
            return CycNum(self.field, tuple(b * s for b in o.coeffs))
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CycNum(self.field, self.field._reduce(prod))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
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
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        return hash((self.field.n, self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def inverse(self) -> "CycNum":
        """Field inverse via the extended Euclidean algorithm mod Phi_n."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        mod = [Fraction(c) for c in self.field.poly]
        a = list(self.coeffs)
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        # invariants: r0 = s0*self (mod Phi), r1 = s1*self (mod Phi)
        r0, s0 = mod, [Fraction(0)]
        r1, s1 = a, [Fraction(1)]
        while True:
            if len(r1) == 1:
                inv = [c / r1[0] for c in s1]
                return CycNum(self.field, self.field._reduce(inv))
            q, r = _frac_poly_divmod(r0, r1)
            s = _frac_poly_sub(s0, _frac_poly_mul(q, s1))
            r0, s0 = r1, s1
            r1, s1 = r, s
            assert len(r1) >= 1

    def conjugate(self, k: int) -> "CycNum":
        """Apply the Galois automorphism zeta -> zeta^k (k coprime to n)."""
        n = self.field.n
        if gcd(k, n) != 1:
            raise ValueError(f"{k} is not coprime to the conductor {n}")
        out = [Fraction(0)] * self.field.degree
        for i, c in enumerate(self.coeffs):
            if c:
                red = self.field._pow[(i * k) % n]
                for j in range(self.field.degree):
                    if red[j]:
                        out[j] += c * red[j]
        return CycNum(self.field, tuple(out))

    def norm_to_q(self) -> Fraction:
        """Product of all Galois conjugates; always a rational number."""
        n = self.field.n
        if n == 1:
            return self.coeffs[0]
        result = self.field.one
        for k in range(1, n + 1):
            if gcd(k, n) == 1:
                result = result * self.conjugate(k)
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


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dd:
        return [Fraction(0)], num
    quot = [Fraction(0)] * (len(num) - dd)
    for shift in range(len(num) - 1 - dd, -1, -1):
        c = num[shift + dd] / lead
        quot[shift] = c
        if c:
            for i, dc in enumerate(den):
                num[shift + i] -= c * dc
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _frac_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def root_of_unity(n: int, k: int) -> CycNum:
    """zeta_n^k as an exact element of Q(zeta_n)."""
    return get_field(n).zeta(k)


def norm_to_q(x: CycNum) -> Fraction:
    return x.norm_to_q()
