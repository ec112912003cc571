"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are represented by their coordinate vector (rational coefficients)
on the power basis 1, zeta, ..., zeta^(d-1) where d = deg Phi_L and Phi_L is
the L-th cyclotomic polynomial.  Every operation reduces mod Phi_L, so
equality of elements is equality of coordinate tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
import math


def _mobius(n):
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _divide_by_xd_minus_1(num, d):
    """num / (X^d - 1) by synthetic division (lowest degree first);
    RuntimeError when the remainder is nonzero."""
    num = list(num)
    quo = [0] * (len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        quo[i - d] = num[i]
        num[i - d] += num[i]
    if any(num[:d]):
        raise RuntimeError("X^%d - 1 does not divide the product" % d)
    return quo


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Integer coefficients of Phi_n, lowest degree first.

    Phi_n = prod_{d | n} (X^d - 1)^mu(n/d): the factors with mu = 1 are
    multiplied in first (a shift and a subtraction each), then the factors
    with mu = -1 are divided out exactly.
    """
    divs = [d for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    for d in divs:
        if _mobius(n // d) == 1:
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in divs:
        if _mobius(n // d) == -1:
            poly = _divide_by_xd_minus_1(poly, d)
    return tuple(poly)


class CycloElt:
    """An element of Q(zeta_L), immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- basic predicates -------------------------------------------------
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("element is not rational: %r" % (self,))
        return self.coeffs[0]

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = self.field.coerce(other)
        return CycloElt(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloElt(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self.field.coerce(other)
        return CycloElt(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __mul__(self, other):
        other = self.field.coerce(other)
        return CycloElt(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        return self.field.inverse(self)

    def __truediv__(self, other):
        other = self.field.coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.coerce(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self):
        """The Galois automorphism zeta -> zeta^(-1) (complex conjugation)."""
        return self.field.conj(self)

    def norm_sq(self):
        """z * conj(z); always lies in the real subfield."""
        return self * self.conj()

    # -- comparisons ------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, CycloElt):
            return self.field.level == other.field.level and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field.level, self.coeffs))

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append("%s*z^%d" % (c, k))
        return "CycloElt(L=%d: %s)" % (self.field.level, " + ".join(terms) or "0")


class CycloField:
    """Q(zeta_L) with precomputed reduction and conjugation tables."""

    def __init__(self, level):
        self.level = level
        phi = cyclotomic_poly(level)
        self.poly = phi
        self.degree = len(phi) - 1
        d = self.degree
        # power_rows[k] = coordinates of zeta^k, for 0 <= k < L (integers)
        rows = []
        cur = [0] * d
        cur[0] = 1
        for _k in range(level):
            rows.append(tuple(cur))
            # multiply by zeta
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for j in range(d):
                    nxt[j] -= top * phi[j]
            cur = nxt
        self.power_rows = rows
        # reduction rows for X^(d+j), j = 0..d-2, used in _mul
        red = []
        # X^d mod Phi = -phi[:d]
        cur = [-phi[j] for j in range(d)]
        for _j in range(d - 1):
            red.append(tuple(cur))
            nxt = [0] + cur[:-1]
            top = cur[-1]
            if top:
                for j in range(d):
                    nxt[j] -= top * phi[j]
            cur = nxt
        self.reduction_rows = red
        # conjugation: image of basis vector zeta^i is zeta^(L-i)
        self.conj_rows = [rows[(-i) % level] for i in range(d)]
        # coefficient tuples, not elements: an element points back at its
        # field, and that cycle would keep a dropped field alive until a
        # full cyclic collection
        self._one = (Fraction(1),) + (Fraction(0),) * (d - 1)
        self._zero = (Fraction(0),) * d

    # -- constructors -----------------------------------------------------
    def zero(self):
        return CycloElt(self, self._zero)

    def one(self):
        return CycloElt(self, self._one)

    def from_rational(self, q):
        c = [Fraction(0)] * self.degree
        c[0] = Fraction(q)
        return CycloElt(self, c)

    def from_int_vector(self, vec):
        """Element sum_k vec[k] * zeta^k for any iterable indexed mod L."""
        d = self.degree
        acc = [Fraction(0)] * d
        for k, v in enumerate(vec):
            if v:
                row = self.power_rows[k % self.level]
                for j in range(d):
                    if row[j]:
                        acc[j] += v * row[j]
        return CycloElt(self, acc)

    def root_of_unity(self, k):
        """zeta_L^k."""
        row = self.power_rows[k % self.level]
        return CycloElt(self, [Fraction(v) for v in row])

    def coerce(self, x):
        if isinstance(x, CycloElt):
            if x.field.level != self.level:
                raise ValueError("mixed field levels %d and %d" % (x.field.level, self.level))
            return x
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        raise TypeError("cannot coerce %r" % (x,))

    # -- kernels ----------------------------------------------------------
    def _mul(self, a, b):
        d = self.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        out = prod[:d]
        for j in range(d, 2 * d - 1):
            c = prod[j]
            if c:
                row = self.reduction_rows[j - d]
                for t in range(d):
                    if row[t]:
                        out[t] += c * row[t]
        return out

    def conj(self, x):
        d = self.degree
        acc = [Fraction(0)] * d
        for i, ci in enumerate(x.coeffs):
            if ci:
                row = self.conj_rows[i]
                for j in range(d):
                    if row[j]:
                        acc[j] += ci * row[j]
        return CycloElt(self, acc)

    def inverse(self, x):
        """Extended Euclid against Phi_L in Q[X]."""
        if x.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if x.is_rational():
            return self.from_rational(1 / x.coeffs[0])
        # r0 = Phi, r1 = x ; track s only against x
        r0 = [Fraction(c) for c in self.poly]
        r1 = list(x.coeffs)
        while len(r1) > 1 and r1[-1] == 0:
            r1.pop()
        s0 = [Fraction(0)]
        s1 = [Fraction(1)]

        def deg(p):
            return len(p) - 1

        def trim(p):
            while len(p) > 1 and p[-1] == 0:
                p.pop()
            return p

        while deg(r1) > 0:
            q = [Fraction(0)] * (deg(r0) - deg(r1) + 1)
            rem = list(r0)
            for i in range(deg(rem), deg(r1) - 1, -1):
                c = rem[i] / r1[-1]
                if c:
                    q[i - deg(r1)] = c
                    for j, rj in enumerate(r1):
                        rem[i - deg(r1) + j] -= c * rj
            trim(rem)
            # s_new = s0 - q*s1
            qs = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        qs[i + j] += qi * sj
            snew = [Fraction(0)] * max(len(s0), len(qs))
            for i, v in enumerate(s0):
                snew[i] += v
            for i, v in enumerate(qs):
                snew[i] -= v
            r0, r1 = r1, rem
            s0, s1 = s1, trim(snew)
        # r1 is a nonzero constant: inverse = s1 / r1
        c = r1[0]
        d = self.degree
        out = [Fraction(0)] * d
        for i, v in enumerate(s1):
            if v:
                if i < d:
                    out[i] += v / c
                else:  # can only happen transiently; reduce via power rows
                    prow = self.power_rows[i % self.level]
                    for j in range(d):
                        out[j] += (v / c) * prow[j]
        inv = CycloElt(self, out)
        return inv

    def __repr__(self):
        return "CycloField(level=%d, degree=%d)" % (self.level, self.degree)


@lru_cache(maxsize=None)
def make_field(level):
    return CycloField(level)


def field_for_level(p):
    """The working field for representation level p: Q(zeta_L), L = lcm(2p, 24)."""
    L = math.lcm(2 * p, 24)
    return make_field(L)
