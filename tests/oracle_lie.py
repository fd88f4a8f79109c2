"""Lie-algebra test oracles: sparse loop-Virasoro elements and their action.

LieElement brackets through `virasoro.bracket_terms`, the function the PBW
action commutes generators with, so the axiom checks (antisymmetry,
Jacobi) and the representation checks, act_lie(x, act_lie(y, v)) -
act_lie(y, act_lie(x, v)) = act_lie([x, y], v), run on the bracket the
engine runs.  `submodule_closure` is the span-elimination closure that
`IntModule.closure_is_full`'s index reachability is checked against.
"""

from virloop.linalg import SpanBasis, deposit
from virloop.scalars import ONE, scalar
from virloop.virasoro import KIND_C, KIND_D, Generator, bracket_terms


class LieElement:
    """Sparse element of the loop-Virasoro algebra over a fixed B.

    Terms map (degree, kind, B-basis index) to nonzero scalars.
    """

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        self.terms = {}
        for (degree, kind, bindex), coeff in (terms or {}).items():
            Generator(kind, degree, algebra.basis_elem(bindex))  # raises on an invalid key
            coeff = scalar(coeff)
            if coeff:
                self.terms[degree, kind, bindex] = coeff

    @classmethod
    def zero(cls, algebra):
        return cls(algebra)

    @classmethod
    def d(cls, algebra, n, bindex=0, coeff=1):
        return cls(algebra, {(n, KIND_D, bindex): coeff})

    @classmethod
    def central(cls, algebra, bindex=0, coeff=1):
        return cls(algebra, {(0, KIND_C, bindex): coeff})

    def __add__(self, other):
        acc = dict(self.terms)
        for key, c in other.terms.items():
            deposit(acc, key, c)
        return LieElement(self.algebra, acc)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = scalar(s)
        return LieElement(self.algebra, {key: s * c for key, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, LieElement) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def bracket(self, other):
        """[self, other]; central terms bracket to zero."""
        table = self.algebra.table
        acc = {}
        for (m, kx, i), cx in self.terms.items():
            for (n, ky, j), cy in other.terms.items():
                if kx == KIND_C or ky == KIND_C:
                    continue
                product = [(k, c) for k, c in enumerate(table[i][j]) if c]
                d_terms, c_terms = bracket_terms(m, n, product)
                for k, c in d_terms:
                    deposit(acc, (m + n, KIND_D, k), cx * cy * c)
                for k, c in c_terms:
                    deposit(acc, (0, KIND_C, k), cx * cy * c)
        return LieElement(self.algebra, acc)


def act_lie(module, x, vec):
    """x.vec on any module with `act(Generator, vec)`, applied term by term."""
    out = {}
    for (degree, kind, j), coeff in x.terms.items():
        for key, c in module.act(Generator(kind, degree, x.algebra.basis_elem(j)), vec).items():
            deposit(out, key, coeff * c)
    return out


def submodule_closure(module, seeds, kmin, kmax, max_degree):
    """Close span(seeds) under d_n, |n| ≤ max_degree, inside the window [kmin, kmax].

    Components pushed outside the window are discarded, so the result is
    the invariant span of the window-truncated action of the intermediate
    module.  Returns the echelon basis and the set of indices it touches.
    """
    span = SpanBasis()
    queue = []
    for seed in seeds:
        vec = {k: c for k, c in seed.items() if kmin <= k <= kmax}
        if span.add(vec):
            queue.append(vec)
    while queue:
        vec = queue.pop()
        for n in range(-max_degree, max_degree + 1):
            img = {k: c for k, c in module.act_d(n, ONE, vec).items() if kmin <= k <= kmax}
            if img and span.add(img):
                queue.append(img)
    basis = span.vectors()
    return basis, {k for vec in basis for k in vec}
