"""Exact scalars in a real quadratic field Q(sqrt(d)), d in {1, 2, 3}.

Every closed-form configuration in this package has its circle data in a
single such field, so tangency, orthogonality and integrality predicates can
be decided by integer arithmetic alone.  A value is stored as
(a + b*sqrt(d)) / q with arbitrary-precision integers, gcd(a, b, q) = 1 and
q >= 1.  For d = 1 the root is rational and b is folded into a.

A parallel float path exists throughout the package; helpers at the bottom of
this module (``scalar_sign``, ``as_float``) make code polymorphic over
``QuadExt`` and ``float``.

Columns of many values skip the objects: ``reduce_terms`` and
``format_terms`` give the stored integers and the text of
``QuadExt(a, b, q, d)`` elementwise, and ``scalar_terms`` reads one string
of the language ``parse_scalar`` accepts into its integers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

import numpy as np

SUPPORTED_D = (1, 2, 3)

# sqrt(d) to ~70 digits, enough that float() of the assembled Fraction is the
# correctly rounded double for desk-scale inputs.
_SQRT_FRAC = {
    d: Fraction(math.isqrt(d * 10**140), 10**70) for d in SUPPORTED_D
}


class FieldMismatchError(TypeError):
    """Raised when two scalars from genuinely different fields meet."""


def _gcd3(a: int, b: int, c: int) -> int:
    return math.gcd(math.gcd(abs(a), abs(b)), abs(c))


class QuadExt:
    """Immutable exact value (a + b*sqrt(d)) / q."""

    __slots__ = ("a", "b", "q", "d")

    def __init__(self, a: int, b: int = 0, q: int = 1, d: int = 1):
        if q == 0:
            raise ZeroDivisionError("zero denominator in QuadExt")
        if d not in SUPPORTED_D:
            raise ValueError(f"unsupported field tag d={d}")
        if d == 1:
            a, b = a + b, 0
        if q < 0:
            a, b, q = -a, -b, -q
        g = _gcd3(a, b, q)
        if g > 1:
            a, b, q = a // g, b // g, q // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("QuadExt is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def sqrt_d(cls, d: int) -> "QuadExt":
        """The element sqrt(d) itself."""
        return cls(0, 1, 1, d)

    # -- field bookkeeping -------------------------------------------------

    def _coerce(self, other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, int):
            return QuadExt(other, 0, 1, self.d)
        if isinstance(other, Fraction):
            return QuadExt(other.numerator, 0, other.denominator, self.d)
        return None

    def _join_d(self, other: "QuadExt") -> int:
        if self.d == other.d:
            return self.d
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        raise FieldMismatchError(
            f"cannot mix sqrt({self.d}) and sqrt({other.d}) values"
        )

    def is_integer(self) -> bool:
        return self.b == 0 and self.q == 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_d(o)
        return QuadExt(
            self.a * o.q + o.a * self.q,
            self.b * o.q + o.b * self.q,
            self.q * o.q,
            d,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.q, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_d(o)
        return QuadExt(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            self.q * o.q,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_d(o)
        norm = o.a * o.a - o.b * o.b * d
        if norm == 0:
            raise ZeroDivisionError("division by zero QuadExt")
        # 1/o = conj(o) * q / norm with conj(a + b sqrt d) = a - b sqrt d
        num = self * QuadExt(o.a, -o.b, 1, d)
        return QuadExt(num.a * o.q, num.b * o.q, num.q * norm, d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QuadExt(1, 0, 1, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- order and equality -------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value, by integer comparisons."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d
        t = a * a - b * b * self.d
        if a > 0:  # b < 0
            return (t > 0) - (t < 0)
        return (t < 0) - (t > 0)  # a < 0, b > 0

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.b == 0 and o.b == 0:
            return self.a == o.a and self.q == o.q
        return (
            self.d == o.d
            and self.a == o.a
            and self.b == o.b
            and self.q == o.q
        )

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(Fraction(self.a, self.q))
        return hash((self.a, self.b, self.q, self.d))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadExt with {type(other)}")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- conversions ---------------------------------------------------------

    def __float__(self) -> float:
        num, den = self.float_terms()
        return num / den

    def float_terms(self) -> "tuple[int, int]":
        """Integers (num, den) with float(k * self) == k * num / den for
        every integer k.  The value is a + b*sqrt(d) over q with sqrt(d)
        replaced by its ~70-digit rational, and integer true division
        rounds that quotient correctly, so it is the correctly rounded
        double whatever multiple of it is taken."""
        root = _SQRT_FRAC[self.d]
        return (
            self.a * root.denominator + self.b * root.numerator,
            self.q * root.denominator,
        )

    # -- text form -------------------------------------------------------------

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a) if self.q == 1 else f"{self.a}/{self.q}"
        core = f"({self.a}{'+' if self.b > 0 else '-'}{abs(self.b)}*sqrt({self.d}))"
        return core if self.q == 1 else f"{core}/{self.q}"

    def __repr__(self) -> str:
        return f"QuadExt({self.a}, {self.b}, {self.q}, d={self.d})"


# Every canonical form in one pattern, with the whitespace around and inside
# it that the forms allow: group 1 opens "(a+b*sqrt(d))", which must then
# carry its sign, b and d; groups 2-6 are a, the sign, b, d and q.
_SCALAR_RE = re.compile(
    r"\s*(\(\s*)?(-?\d+)(?(1)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\))"
    r"(?:\s*/\s*(\d+))?\s*"
)


def _match_terms(m: "re.Match[str]") -> "tuple[int, int, int, int]":
    """(a, b, q, d) of a match of ``_SCALAR_RE``, unreduced: "a/q" and "a"
    have b = 0 and d = 1."""
    _, a, sign, b, d, q = m.groups()
    if b is None:
        return int(a), 0, int(q) if q else 1, 1
    return int(a), int(b) if sign == "+" else -int(b), int(q) if q else 1, int(d)


def scalar_terms(text: str) -> "tuple[int, int, int, int] | None":
    """(a, b, q, d) of a string ``parse_scalar`` accepts, unreduced, or None
    where it raises.  A bare integer skips the pattern: "-?\\d+" is
    ``isdecimal`` after an optional minus."""
    if text.isdecimal() or (text[:1] == "-" and text[1:].isdecimal()):
        return int(text), 0, 1, 1
    m = _SCALAR_RE.fullmatch(text)
    if m is None:
        return None
    t = _match_terms(m)
    return t if t[2] and t[3] in SUPPORTED_D else None


def parse_scalar(text: str) -> QuadExt:
    """Parse the canonical string forms emitted by ``str(QuadExt)``.

    Accepts "(a+b*sqrt(d))/q", "(a-b*sqrt(d))", "a/q" and "a", with
    whitespace around the whole and between the parts.
    """
    m = _SCALAR_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed exact scalar: {text!r}")
    return QuadExt(*_match_terms(m))


# Integer columns beyond this bound are reduced on Python integers, so that
# no sum or negation wraps.
_INT64_SAFE = 2**62


def int_array(values) -> np.ndarray:
    """int64 array of integers, or an array of Python integers past int64."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def reduce_terms(a, b, q, d) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """(a, b, q) of ``QuadExt(a, b, q, d)`` elementwise, as its constructor
    stores them: b folded into a where d = 1, q > 0 and gcd(a, b, q) = 1.

    a, b and q are integer arrays of one shape, int64 or of Python
    integers (``int_array``), and every q is nonzero.  Values past 2^62
    make the whole reduction run on Python integers.
    """
    if any(x.dtype == object or (x.size and (x.max() >= _INT64_SAFE or x.min() <= -_INT64_SAFE))
           for x in (a, b, q)):
        a, b, q = (x.astype(object) for x in (a, b, q))
    one = d == 1
    a, b = np.where(one, a + b, a), np.where(one, 0, b)
    s = np.where(q < 0, -1, 1)
    a, b, q = a * s, b * s, q * s
    g = np.gcd(np.gcd(a, b), q)
    return a // g, b // g, q // g


def format_terms(a, b, q, d) -> "list[str]":
    """``str(QuadExt(a, b, q, d))`` elementwise, for columns as
    ``reduce_terms`` takes them."""
    a, b, q = reduce_terms(a, b, q, d)
    d = np.broadcast_to(d, a.shape)
    return [
        (f"{x}" if z == 1 else f"{x}/{z}") if not y
        else (f"({x}+{y}*sqrt({e}))" if y > 0 else f"({x}-{-y}*sqrt({e}))")
        + ("" if z == 1 else f"/{z}")
        for x, y, z, e in zip(a.tolist(), b.tolist(), q.tolist(), d.tolist())
    ]


Scalar = Union[QuadExt, float]


def scalar_sign(x: Scalar, eps: float = 1e-9) -> int:
    """Sign of an exact or float scalar; floats use the tolerance eps."""
    if isinstance(x, QuadExt):
        return x.sign()
    if x > eps:
        return 1
    if x < -eps:
        return -1
    return 0


def as_float(x: Scalar) -> float:
    return float(x)
