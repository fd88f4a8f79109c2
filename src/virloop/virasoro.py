"""The loop-Virasoro Lie algebra: generators, bracket, and enveloping words.

The algebra is Vir tensored with a commutative unital algebra B.  Basis
symbols are d_n⊗b (n an integer) and the central C⊗b; the bracket is

    [d_m⊗b, d_n⊗b'] = (n-m) d_{m+n}⊗bb' + delta_{m,-n} (m^3-m)/12 C⊗bb'
    [d_n⊗b, C⊗b']   = 0

Note the (n-m) orientation: [d_1, d_{-1}] = -2 d_0.  Every downstream
number in the package (Gram entries, probe coefficients) is tied to this
orientation, so it must not be flipped to the (m-n) variant.

Two element layers coexist:

* LieElement, a sparse Lie-algebra element keyed by (degree, kind, B-basis
  index) over a fixed coefficient algebra;
* WordSum, a formal sum of enveloping-algebra words whose factors carry
  whole B-elements.  Words multiply by concatenation; no relations are
  applied here.  In a word, the rightmost factor acts first on a vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff_algebra import AlgebraB, BElem
from .linalg import vec_add_scaled
from .scalars import GaussianRational, ONE, ZERO, from_parts, scalar

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


def c_gen(bcoef: BElem) -> Generator:
    return Generator(KIND_C, 0, bcoef)


def central_charge_term(m: int) -> GaussianRational:
    """Coefficient of C in [d_m, d_{-m}], namely (m^3 - m)/12."""
    return from_parts(m**3 - m, 0, 12)


class LieElement:
    """Sparse element of the loop-Virasoro algebra over a fixed B.

    Terms map (degree, kind, B-basis index) to nonzero scalars; the key
    order gives a canonical listing.  Instances are treated as immutable.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: AlgebraB, terms=None):
        self.algebra = algebra
        clean = {}
        for key, coeff in (terms or {}).items():
            degree, kind, bindex = key
            _check_degree(degree)
            if kind not in (KIND_D, KIND_C):
                raise ValueError(f"unknown generator kind {kind!r}")
            if kind == KIND_C and degree != 0:
                raise ValueError("central generators carry degree 0")
            if not 0 <= bindex < algebra.dim:
                raise ValueError(f"B-basis index {bindex} out of range")
            coeff = scalar(coeff)
            if coeff:
                clean[key] = coeff
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, algebra: AlgebraB) -> "LieElement":
        return cls(algebra, {})

    @classmethod
    def d(cls, algebra: AlgebraB, n: int, bindex: int = 0, coeff=1) -> "LieElement":
        return cls(algebra, {(n, KIND_D, bindex): scalar(coeff)})

    @classmethod
    def central(cls, algebra: AlgebraB, bindex: int = 0, coeff=1) -> "LieElement":
        return cls(algebra, {(0, KIND_C, bindex): scalar(coeff)})

    # -- vector-space operations ----------------------------------------------

    def _require_same_algebra(self, other: "LieElement"):
        if self.algebra is not other.algebra and self.algebra.table != other.algebra.table:
            raise ValueError("elements live over different coefficient algebras")

    def __add__(self, other: "LieElement") -> "LieElement":
        self._require_same_algebra(other)
        acc = dict(self.terms)
        vec_add_scaled(acc, other.terms, ONE)
        return LieElement(self.algebra, acc)

    def __sub__(self, other: "LieElement") -> "LieElement":
        self._require_same_algebra(other)
        acc = dict(self.terms)
        vec_add_scaled(acc, other.terms, -ONE)
        return LieElement(self.algebra, acc)

    def __neg__(self) -> "LieElement":
        return self.scale(-ONE)

    def scale(self, s) -> "LieElement":
        s = scalar(s)
        return LieElement(self.algebra, {k: s * v for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LieElement) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- Lie structure ---------------------------------------------------------

    def bracket(self, other: "LieElement") -> "LieElement":
        """[self, other] with the (n-m) orientation and central extension."""
        self._require_same_algebra(other)
        B = self.algebra
        acc: dict = {}
        for (m, kx, i), cx in self.terms.items():
            if kx == KIND_C:
                continue
            for (n, ky, j), cy in other.terms.items():
                if ky == KIND_C:
                    continue
                coeff = cx * cy
                bb = B.mult(B.basis_elem(i), B.basis_elem(j))
                if m != n:
                    f = coeff * scalar(n - m)
                    for k, bk in enumerate(bb):
                        if bk:
                            key = (m + n, KIND_D, k)
                            s = acc.get(key, ZERO) + f * bk
                            if s:
                                acc[key] = s
                            else:
                                acc.pop(key, None)
                if m == -n:
                    cf = coeff * central_charge_term(m)
                    if cf:
                        for k, bk in enumerate(bb):
                            if bk:
                                key = (0, KIND_C, k)
                                s = acc.get(key, ZERO) + cf * bk
                                if s:
                                    acc[key] = s
                                else:
                                    acc.pop(key, None)
        return LieElement(self.algebra, acc)

    # -- conversion and display --------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (degree, kind, j), coeff in self.sorted_terms():
            sym = f"d[{degree}]" if kind == KIND_D else "C"
            parts.append(f"({coeff})*{sym}*e{j}")
        return " + ".join(parts)

    __repr__ = __str__


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
    def single(cls, algebra: AlgebraB, gen: Generator, coeff=1) -> "WordSum":
        return cls(algebra, {(gen,): scalar(coeff)})

    def add_word(self, factors, coeff):
        coeff = scalar(coeff)
        if not coeff:
            return
        factors = tuple(factors)
        s = self.words.get(factors, ZERO) + coeff
        if s:
            self.words[factors] = s
        else:
            self.words.pop(factors, None)

    def __add__(self, other: "WordSum") -> "WordSum":
        out = WordSum(self.algebra, dict(self.words))
        for factors, coeff in other.words.items():
            out.add_word(factors, coeff)
        return out

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

    def __eq__(self, other) -> bool:
        return isinstance(other, WordSum) and self.words == other.words

    def __bool__(self) -> bool:
        return bool(self.words)

    def __str__(self):
        if not self.words:
            return "0"
        parts = []
        for factors, coeff in self.words.items():
            if factors:
                syms = ".".join(
                    (f"d[{g.degree}]" if g.kind == KIND_D else "C")
                    + f"⊗{self.algebra.format_elem(g.bcoef)}"
                    for g in factors
                )
            else:
                syms = "1"
            parts.append(f"({coeff})*{syms}")
        return " + ".join(parts)

    __repr__ = __str__
