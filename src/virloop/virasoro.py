"""The loop-Virasoro Lie algebra: generators, bracket, and enveloping words.

The algebra is Vir tensored with a commutative unital algebra B.  Basis
symbols are d_n⊗b (n an integer) and the central C⊗b; the bracket is

    [d_m⊗b, d_n⊗b'] = (n-m) d_{m+n}⊗bb' + delta_{m,-n} (m^3-m)/12 C⊗bb'
    [d_n⊗b, C⊗b']   = 0

Note the (n-m) orientation: [d_1, d_{-1}] = -2 d_0.  Every downstream
number in the package (Gram entries, probe coefficients) is tied to this
orientation, so it must not be flipped to the (m-n) variant.

bracket_terms is the one place that bracket is written: the PBW action
(verma.PbwAction) commutes generators with it, and the test oracle's Lie
elements (tests/oracle_lie.py) bracket with it.  Elements of the enveloping
algebra are WordSum values, formal sums of words whose factors carry whole
B-elements.  Words multiply by concatenation; no relations are applied
here.  In a word, the rightmost factor acts first on a vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff_algebra import AlgebraB, BElem
from .linalg import deposit
from .scalars import ONE, ZERO, from_parts, scalar

MAX_DEGREE = 10**6

KIND_D = "d"
KIND_C = "C"


def _check_degree(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"degree must be an integer, got {n!r}")
    if abs(n) > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the supported bound {MAX_DEGREE}")
    return n


@dataclass(frozen=True)
class Generator:
    """One tensor factor d_n⊗b or C⊗b, with b a full coefficient-algebra element."""

    kind: str
    degree: int
    bcoef: BElem

    def __post_init__(self):
        if self.kind not in (KIND_D, KIND_C):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        _check_degree(self.degree)
        if self.kind == KIND_C and self.degree != 0:
            raise ValueError("central generators carry degree 0")


def d_gen(n: int, bcoef: BElem) -> Generator:
    return Generator(KIND_D, n, bcoef)


def bracket_terms(m: int, n: int, product) -> tuple[list, list]:
    """The terms of [d_m⊗b, d_n⊗b'], given bb' as (basis index, coefficient) pairs.

    Returns (d_terms, c_terms): the coefficients of d_{m+n}⊗e_k and of
    C⊗e_k as (k, scalar) pairs, (n-m)·c for the first and, when m = -n,
    (m^3-m)/12·c for the second.  Either list is empty when its factor is 0.
    """
    d_terms = [(k, (n - m) * c) for k, c in product] if m != n else []
    central = from_parts(m**3 - m, 0, 12) if m == -n else ZERO
    c_terms = [(k, central * c) for k, c in product] if central else []
    return d_terms, c_terms


class WordSum:
    """Formal sum of enveloping-algebra words over a fixed B.

    Stored as a map from factor tuples (of Generator) to scalar
    coefficients.  Multiplication is free concatenation; consumers apply
    the module relations.
    """

    __slots__ = ("algebra", "words")

    def __init__(self, algebra: AlgebraB, words=None):
        self.algebra = algebra
        self.words: dict = {}
        if words:
            for factors, coeff in words.items():
                self.add_word(factors, coeff)

    @classmethod
    def single(cls, algebra: AlgebraB, gen: Generator) -> "WordSum":
        return cls(algebra, {(gen,): ONE})

    def add_word(self, factors, coeff):
        deposit(self.words, tuple(factors), scalar(coeff))

    def __sub__(self, other: "WordSum") -> "WordSum":
        out = WordSum(self.algebra, dict(self.words))
        for factors, coeff in other.words.items():
            out.add_word(factors, -coeff)
        return out

    def scale(self, s) -> "WordSum":
        s = scalar(s)
        out = WordSum(self.algebra)
        for factors, coeff in self.words.items():
            out.add_word(factors, s * coeff)
        return out

    def __mul__(self, other: "WordSum") -> "WordSum":
        """Free product: concatenate factor sequences, multiply coefficients."""
        out = WordSum(self.algebra)
        for fx, cx in self.words.items():
            for fy, cy in other.words.items():
                out.add_word(fx + fy, cx * cy)
        return out

    def __bool__(self) -> bool:
        return bool(self.words)
