"""Exact Gaussian-rational arithmetic, the ground field for everything else.

All coefficients in this package live in Q(i): complex numbers whose real
and imaginary parts are rationals.  A value is stored as one integer
triple (a, b, d) meaning (a + b·i)/d, with d > 0 and gcd(a, b, d) = 1.
That form is unique, so equality and zero-tests are structural, never
approximate, and arithmetic is a few Python-int products and one
`math.gcd` per operation.  Only this module reads the triple: `parts` and
`from_parts` are the one way in and out for code that works on the
integers directly (the fraction-free elimination in `linalg`).
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm


class GaussianRational:
    """A number (a + b·i)/d with a, b, d integers, d > 0, gcd(a, b, d) = 1.

    Immutable and hashable, so instances can serve as dict values and keys
    in sparse representations; a real value hashes like the equal int or
    `Fraction`.  Arithmetic accepts int and Fraction on either side.  The
    constructor takes the real and imaginary parts, each an int, Fraction
    or anything `Fraction` accepts; `re` and `im` read them back as
    `Fraction`s.
    """

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        _set(self, (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._t
        return Fraction(b, d)

    # -- basic protocol ----------------------------------------------------

    def __hash__(self):
        a, b, d = self._t
        if b:
            return hash(self._t)
        return hash(a) if d == 1 else hash(Fraction(a, d))

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return self._t == other._t
        t = _triple(other)
        if t is None:
            return NotImplemented
        return self._t == t

    def __bool__(self):
        a, b, _ = self._t
        return bool(a or b)

    def __repr__(self):
        return f"scalar('{self}')"

    def __str__(self):
        a, b, d = self._t
        if not b:
            return _ratio(a, d)
        if not a:
            return _imag_str(b, d)
        return f"{_ratio(a, d)}{'+' if b > 0 else '-'}{_imag_str(abs(b), d)}"

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        if type(other) is GaussianRational:
            e, f, g = other._t
        else:
            t = _triple(other)
            if t is None:
                return NotImplemented
            e, f, g = t
        return _sum(self._t, e, f, g)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self._t
        return _make((-a, -b, d))

    def __sub__(self, other):
        if type(other) is GaussianRational:
            e, f, g = other._t
        else:
            t = _triple(other)
            if t is None:
                return NotImplemented
            e, f, g = t
        return _sum(self._t, -e, -f, g)

    def __rsub__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        a, b, d = self._t
        return _sum(t, -a, -b, d)

    def __mul__(self, other):
        if type(other) is GaussianRational:
            e, f, g = other._t
        else:
            t = _triple(other)
            if t is None:
                return NotImplemented
            e, f, g = t
        a, b, d = self._t
        if b or f:
            a, b = a * e - b * f, a * f + b * e
        else:
            a *= e
        d *= g
        if d != 1:
            k = gcd(a, b, d)
            if k != 1:
                a //= k
                b //= k
                d //= k
        out = _new(GaussianRational)
        _set(out, (a, b, d))
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _quotient(self._t, t)

    def __rtruediv__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _quotient(t, self._t)

    # -- predicates --------------------------------------------------------

    def is_integer(self) -> bool:
        """True exactly when the value lies in Z (no imaginary part, denominator 1)."""
        _, b, d = self._t
        return not b and d == 1


# The hot operations inline these two calls; a helper call costs them 15-20%.
_new = object.__new__
_set = GaussianRational._t.__set__  # the slot's own setter, past the immutability guard


def _make(t: tuple[int, int, int]) -> GaussianRational:
    """A scalar holding the canonical triple t."""
    out = _new(GaussianRational)
    _set(out, t)
    return out


def _triple(x):
    """(a, b, d) of a GaussianRational, int or Fraction; None for any other type."""
    if isinstance(x, GaussianRational):
        return x._t
    if isinstance(x, int):
        return (int(x), 0, 1)
    if isinstance(x, Fraction):
        return (x.numerator, 0, x.denominator)
    return None


def _sum(t, e: int, f: int, g: int) -> GaussianRational:
    """The triple t plus (e + f·i)/g, reduced."""
    a, b, d = t
    if d == g:
        a += e
        b += f
    else:
        a = a * g + e * d
        b = b * g + f * d
        d *= g
    if d != 1:
        k = gcd(a, b, d)
        if k != 1:
            a //= k
            b //= k
            d //= k
    out = _new(GaussianRational)
    _set(out, (a, b, d))
    return out


def _quotient(t, u) -> GaussianRational:
    """(a + b·i)/d divided by (e + f·i)/g: multiply by g·(e − f·i) over d·(e² + f²)."""
    a, b, d = t
    e, f, g = u
    if f:
        a, b, d = (a * e + b * f) * g, (b * e - a * f) * g, d * (e * e + f * f)
    elif e:
        a, b, d = a * g, b * g, d * e
    else:
        raise ZeroDivisionError("division by zero in Q(i)")
    return from_parts(a, b, d)


def parts(x: GaussianRational) -> tuple[int, int, int]:
    """(a, b, d) with x = (a + b·i)/d, d > 0 and gcd(a, b, d) = 1."""
    return x._t


def from_parts(a: int, b: int, d: int) -> GaussianRational:
    """(a + b·i)/d for any integers with d ≠ 0: the sign moves to a, b and the gcd is divided out."""
    if d < 0:
        a, b, d = -a, -b, -d
    elif not d:
        raise ZeroDivisionError("division by zero in Q(i)")
    k = gcd(a, b, d)
    if k != 1:
        a //= k
        b //= k
        d //= k
    out = _new(GaussianRational)
    _set(out, (a, b, d))
    return out


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, written as `str(Fraction(n, d))` writes it."""
    k = gcd(n, d)
    return str(n // k) if d == k else f"{n // k}/{d // k}"


def _imag_str(b: int, d: int) -> str:
    if b == d:
        return "i"
    if b == -d:
        return "-i"
    return f"{_ratio(b, d)}*i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)

_FRACTION = r"\d+(?:/\d+)?"
_TERM = _re.compile(
    rf"(?P<sign>[+-]?)(?:(?P<coef>{_FRACTION})(?:\*?(?P<unit>i))?|(?P<lone_i>i))"
)


def scalar(x) -> GaussianRational:
    """Coerce an int, Fraction, GaussianRational, or text form into Q(i).

    The text form is sums of rational terms with an optional imaginary
    marker: "5", "-1/2", "i", "-i", "3*i", "3i", "1/2+3/4*i", "1-i".
    """
    if isinstance(x, GaussianRational):
        return x
    t = _triple(x)
    if t is not None:
        return _make(t)
    if isinstance(x, str):
        return _parse(x)
    raise TypeError(f"cannot interpret {x!r} as a Q(i) scalar")


def _parse(text: str) -> GaussianRational:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    re_part = Fraction(0)
    im_part = Fraction(0)
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or (not first and m.group("sign") == ""):
            raise ValueError(f"bad scalar literal {text!r} (at {s[pos:]!r})")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("lone_i"):
            im_part += sign
        else:
            value = sign * Fraction(m.group("coef"))
            if m.group("unit"):
                im_part += value
            else:
                re_part += value
        pos = m.end()
        first = False
    return GaussianRational(re_part, im_part)


def normalize_alpha(alpha: GaussianRational) -> tuple[GaussianRational, int]:
    """Split alpha into alpha0 + m with m integral and 0 <= Re(alpha0) < 1.

    The imaginary part is untouched.  Idempotent: an already-normalized
    value comes back with shift 0.
    """
    a, b, d = alpha._t
    m = a // d
    return _make((a - m * d, b, d)), m  # gcd(a - m·d, b, d) = gcd(a, b, d) = 1
