"""Exact arithmetic in the quadratic extension Q(sqrt(q)).

Every coefficient produced by Hall algebra computations over F_q is a
rational expression in v = sqrt(q).  Elements are stored in the canonical
form a + b*v with exact rational components, so equality is literal
component equality and no floating point appears anywhere.  When q happens
to be a perfect square the b component is absorbed into a at construction
and the same code paths apply.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "GroundField",
    "Scalar",
    "is_prime",
    "is_positive",
    "q_binom",
    "q_int",
    "v_pow",
]

RatLike = int | Fraction


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for the field sizes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Scalar:
    """An element a + b*v of Q(sqrt(q)), with v**2 = q.

    Values are immutable, so arithmetic may share them: a product with an
    exact one is the other operand itself.  Mixing scalars over different q
    is an error.
    """

    __slots__ = ("q", "a", "b")

    def __init__(self, q: int, a: RatLike = 0, b: RatLike = 0):
        q = int(q)
        if q < 2:
            raise ValueError(f"q must be at least 2, got {q}")
        a = Fraction(a)
        b = Fraction(b)
        r = math.isqrt(q)
        if r * r == q and b:
            a += b * r
            b = Fraction(0)
        self.q = q
        self.a = a
        self.b = b

    def _coerce(self, other) -> "Scalar | None":
        if isinstance(other, Scalar):
            if other.q != self.q:
                raise ValueError(f"mixed ground fields: q={self.q} and q={other.q}")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(self.q, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.q, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.q, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Scalar(self.q, -self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # An exact unit factor is never multiplied: Scalars are values, so
        # the other operand is returned as it is.
        if self.b == 0 and self.a == 1:
            return o
        if o.b == 0 and o.a == 1:
            return self
        return Scalar(
            self.q,
            self.a * o.a + self.b * o.b * self.q,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        d = self.a * self.a - self.b * self.b * self.q
        if d == 0:
            raise ZeroDivisionError("scalar is zero")
        return Scalar(self.q, self.a / d, -self.b / d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = Scalar(self.q, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, Scalar):
            return self.q == other.q and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.q, self.a, self.b))

    def __bool__(self):
        return bool(self.a or self.b)

    def __str__(self):
        if self.b >= 0:
            return f"{self.a}+{self.b}*v"
        return f"{self.a}-{-self.b}*v"

    def __repr__(self):
        return f"Scalar(q={self.q}, {self.a!r}, {self.b!r})"


def v_pow(q: int, n: int) -> Scalar:
    """v**n reduced by v**2 = q; negative n uses v**-1 = v/q."""
    if n % 2 == 0:
        return Scalar(q, Fraction(q) ** (n // 2))
    return Scalar(q, 0, Fraction(q) ** ((n - 1) // 2))


def q_int(q: int, n: int, eps: int = 1) -> Scalar:
    """The balanced quantum integer [n] at v_i = v**eps.

    [n] = (v_i**n - v_i**-n) / (v_i - v_i**-1), computed as the Laurent sum
    v_i**(n-1) + v_i**(n-3) + ... + v_i**(1-n).
    """
    if eps < 1:
        raise ValueError(f"eps must be a positive integer, got {eps}")
    out = Scalar(q, 0)
    for k in range(n):
        out = out + v_pow(q, eps * (n - 1 - 2 * k))
    return out


def q_binom(q: int, m: int, n: int, eps: int = 1) -> Scalar:
    """Quantum binomial coefficient [m choose n] at v_i = v**eps."""
    if n < 0 or n > m:
        raise ValueError(f"need 0 <= n <= m, got m={m}, n={n}")
    num = Scalar(q, 1)
    den = Scalar(q, 1)
    for k in range(n):
        num = num * q_int(q, m - k, eps)
        den = den * q_int(q, k + 1, eps)
    return num / den


def is_positive(x: Scalar) -> bool:
    """Whether a + b*sqrt(q) > 0 under the real embedding with sqrt(q) > 0.

    Decided exactly by sign analysis and comparison of a**2 with q*b**2.
    """
    a, b = x.a, x.b
    if b == 0:
        return a > 0
    if a == 0:
        return b > 0
    if a > 0 and b > 0:
        return True
    if a < 0 and b < 0:
        return False
    if a > 0:
        return a * a > b * b * x.q
    return b * b * x.q > a * a


class GroundField:
    """The finite field F_q (q prime) together with its formal square root v."""

    __slots__ = ("q", "_vcache", "_zero", "_one")

    def __init__(self, q: int):
        q = int(q)
        if not is_prime(q):
            raise ValueError(f"field size must be prime, got {q}")
        self.q = q
        self._vcache: dict[int, Scalar] = {}
        self._zero = Scalar(q, 0)
        self._one = Scalar(q, 1)

    def scalar(self, a: RatLike = 0, b: RatLike = 0) -> Scalar:
        return Scalar(self.q, a, b)

    @property
    def zero(self) -> Scalar:
        return self._zero

    @property
    def one(self) -> Scalar:
        return self._one

    def v_pow(self, n: int) -> Scalar:
        out = self._vcache.get(n)
        if out is None:
            out = v_pow(self.q, n)
            self._vcache[n] = out
        return out

    def q_int(self, n: int, eps: int = 1) -> Scalar:
        return q_int(self.q, n, eps)

    def q_binom(self, m: int, n: int, eps: int = 1) -> Scalar:
        return q_binom(self.q, m, n, eps)

    def __eq__(self, other):
        return isinstance(other, GroundField) and other.q == self.q

    def __hash__(self):
        return hash(("GroundField", self.q))

    def __repr__(self):
        return f"GroundField({self.q})"
