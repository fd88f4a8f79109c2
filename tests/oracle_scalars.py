"""Independent oracle for the scalar layer: Q(i) as a pair of `Fraction`s.

This is the package's former `GaussianRational`, kept unchanged: the real
and imaginary parts are `fractions.Fraction` values and every operation is
written out on them.  The engine's class stores one reduced integer triple
(a + b·i)/d instead; tests/test_scalars.py compares every operation of the
two.  Nothing in src/ imports this module.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction


class GaussianRational:
    """A number a + b*i with a, b exact rationals.

    Immutable and hashable, so instances can serve as dict values and keys
    in sparse representations.  Arithmetic accepts int and Fraction on
    either side.
    """

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- basic protocol ----------------------------------------------------

    def __hash__(self):
        return hash((self.re, self.im))

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"scalar('{self}')"

    def __str__(self):
        if not self.im:
            return str(self.re)
        im = _imag_str(self.im)
        if not self.re:
            return im
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im)).lstrip('+')}"

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self

    def is_integer(self) -> bool:
        """True exactly when the value lies in Z (no imaginary part, denominator 1)."""
        return self.im == 0 and self.re.denominator == 1


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


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
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
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
    m = math.floor(alpha.re)
    return GaussianRational(alpha.re - m, alpha.im), m
