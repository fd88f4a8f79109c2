"""Truncated highest-weight (Verma-type) modules over the loop-Virasoro algebra.

M(φ) is induced from a one-dimensional representation φ of the degree-zero
part: the highest weight vector ṽ satisfies

    (d_n⊗b).ṽ = 0 for n > 0,   (d_0⊗b).ṽ = φ(d_0⊗b) ṽ,   (C⊗b).ṽ = φ(C⊗b) ṽ,

and M(φ) is free over the negative part, with PBW monomial basis per level.
The unique maximal proper submodule N(φ) is obtained per level as the
radical of the contravariant form ⟨u.ṽ, u'.ṽ⟩ built from the
anti-involution ω(d_n⊗b) = d_{-n}⊗b, ω(C⊗b) = C⊗b, which reverses
products.  Since every proper submodule of a weight-graded highest-weight
module avoids the highest-weight line, it pairs to zero against everything
and lies in the radical; the radical is itself proper and invariant, so it
equals N(φ).  V(φ) = M(φ)/N(φ) is realized by the complement monomials of
the radical's pivot set.

One memoized engine, PbwAction, acts with single generators d_n⊗e_j on
PBW monomials: a generator is commuted past the leading factor with the
bracket correction of virasoro.bracket_terms (the package's one copy of
the bracket), and each (n, j, monomial) maps to a cached sparse
vector, so equal terms merge at the vector level instead of being
rewritten word by word.  Gram entries, the action on V(φ) and word sums
(normal_order) all go through it; each VermaModule owns one cache shared
by all its levels.

A monomial is a tuple of (depth, bindex) pairs sorted by (-depth, bindex);
vectors are sparse dicts {monomial: scalar}.
"""

from __future__ import annotations

import itertools

from .coeff_algebra import AlgebraB, BElem
from .linalg import SpanBasis, deposit, nullspace
from .scalars import GaussianRational, ONE, ZERO, scalar
from .virasoro import Generator, KIND_C, KIND_D, WordSum, bracket_terms

Monomial = tuple
PbwVector = dict


class DepthExceededError(Exception):
    """Raised when an action needs a level beyond the computed depth.

    A module's depth is fixed when it is built; going deeper means building
    a new module.
    """


class HighestWeight:
    """The functional φ on the degree-zero part, stored by B-basis values."""

    def __init__(self, algebra: AlgebraB, d0_values, c_values):
        self.algebra = algebra
        self.d0_values = tuple(scalar(v) for v in d0_values)
        self.c_values = tuple(scalar(v) for v in c_values)
        if len(self.d0_values) != algebra.dim or len(self.c_values) != algebra.dim:
            raise ValueError(f"expected {algebra.dim} values for d_0 and for C")

    def of_d0(self, belem: BElem) -> GaussianRational:
        return sum((c * v for c, v in zip(belem, self.d0_values)), ZERO)

    def of_c(self, belem: BElem) -> GaussianRational:
        return sum((c * v for c, v in zip(belem, self.c_values)), ZERO)


def _partitions(k: int, largest: int | None = None):
    if k == 0:
        yield ()
        return
    if largest is None:
        largest = k
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def pbw_monomials(dim_b: int, k: int) -> list[Monomial]:
    """Canonical depth-k monomials, sorted; count is the B-colored partition number."""
    if k < 0:
        raise ValueError("level must be non-negative")
    out = []
    for part in _partitions(k):
        groups = [(depth, len(list(g))) for depth, g in itertools.groupby(part)]
        pools = [
            list(itertools.combinations_with_replacement(range(dim_b), count))
            for _, count in groups
        ]
        for pick in itertools.product(*pools):
            mono = []
            for (depth, _), colors in zip(groups, pick):
                mono.extend((depth, j) for j in colors)
            out.append(tuple(mono))
    return sorted(out)


class PbwAction:
    """Memoized action of single generators d_n⊗e_j on the PBW basis of M(φ).

    gen(n, j, mono) is (d_n⊗e_j).mono as a sparse vector of canonical
    monomials.  A generator x meeting the leading factor y of y.rest
    commutes past it,

        x.(y.rest) = y.(x.rest) + [x, y].rest,

    where y.(...) re-enters gen for the lowering generator y.  A lowering
    x that already sorts before y is simply prepended; on ṽ a raising
    generator gives 0 and d_0⊗e_j gives φ(d_0⊗e_j).  Every result is
    cached under (n, j, mono), so equal terms merge once, at the vector
    level.  Cached vectors are shared and must not be mutated.
    """

    def __init__(self, hw: HighestWeight):
        self.hw = hw
        algebra = hw.algebra
        self._mult = [
            [[(k, c) for k, c in enumerate(cell) if c] for cell in row] for row in algebra.table
        ]
        self._cache: dict = {}

    def gen(self, n: int, j: int, mono: Monomial) -> PbwVector:
        key = (n, j, mono)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if n < 0 and (not mono or (n, j) <= (-mono[0][0], mono[0][1])):
            out = {((-n, j),) + mono: ONE}
        elif not mono:
            phi = self.hw.d0_values[j]
            out = {(): phi} if n == 0 and phi else {}
        else:
            (n1, j1), rest = mono[0], mono[1:]
            out = {}
            for mono2, c2 in self.gen(n, j, rest).items():
                for mono3, c3 in self.gen(-n1, j1, mono2).items():
                    deposit(out, mono3, c2 * c3)
            d_terms, c_terms = bracket_terms(n, -n1, self._mult[j][j1])
            for kdx, c in d_terms:
                for mono2, c2 in self.gen(n - n1, kdx, rest).items():
                    deposit(out, mono2, c * c2)
            if c_terms:
                phi_c = sum((c * self.hw.c_values[kdx] for kdx, c in c_terms), ZERO)
                if phi_c:
                    deposit(out, rest, phi_c)
        self._cache[key] = out
        return out

    def apply(self, g: Generator, vec: PbwVector) -> PbwVector:
        """g.vec for d_n⊗b (b expanded over the basis) or C⊗b (the scalar φ(C⊗b))."""
        if g.kind == KIND_C:
            s = self.hw.of_c(g.bcoef)
            return {mono: s * c for mono, c in vec.items()} if s else {}
        out: PbwVector = {}
        for j, b in enumerate(g.bcoef):
            if not b:
                continue
            for mono, c in vec.items():
                bc = b * c
                for mono2, c2 in self.gen(g.degree, j, mono).items():
                    deposit(out, mono2, bc * c2)
        return out


def normal_order(words: WordSum, hw: HighestWeight) -> PbwVector:
    """Value of the word sum on ṽ, as a sparse monomial vector; each word acts right to left."""
    action = PbwAction(hw)
    out: PbwVector = {}
    for factors, coeff in words.words.items():
        part = {(): ONE}
        for g in reversed(factors):
            part = action.apply(g, part)
        for mono, c in part.items():
            deposit(out, mono, coeff * c)
    return out


class _LevelData:
    __slots__ = ("monomials", "index", "gram", "radical", "quotient_monomials")

    def __init__(self, monomials, index, gram, radical, quotient_monomials):
        self.monomials = monomials
        self.index = index
        self.gram = gram
        self.radical = radical
        self.quotient_monomials = quotient_monomials


class VermaModule:
    """M(φ) and V(φ) = M(φ)/N(φ), computed level by level up to a depth bound.

    All levels 0..depth are built by the constructor, in order, because
    each Gram matrix reads the rows of lower levels, and every level shares
    one PbwAction cache.  Level data (Gram matrix, radical, quotient basis)
    is immutable once built, and the depth never changes.
    """

    def __init__(self, algebra: AlgebraB, hw: HighestWeight, depth: int):
        if depth < 0:
            raise ValueError("depth must be non-negative")
        self.algebra = algebra
        self.hw = hw
        self._action = PbwAction(hw)
        self._levels: list[_LevelData] = []
        for k in range(depth + 1):
            self._levels.append(self._compute_level(k))
        self.depth = depth

    # -- level construction -------------------------------------------------------

    def _compute_level(self, k: int) -> _LevelData:
        """Gram matrix, radical and quotient basis of level k; levels below must exist.

        For u = (d_{-a}⊗e_j).u' the entry ⟨u, v⟩ is the ṽ-coefficient of
        ω(u').(d_a⊗e_j).v, that is, level k-a's Gram row of u' paired with
        the cached vector (d_a⊗e_j).v.  The form is symmetric, so only the
        upper triangle is computed.
        """
        monos = pbw_monomials(self.algebra.dim, k)
        index = {m: i for i, m in enumerate(monos)}
        size = len(monos)
        gram = [[ZERO] * size for _ in range(size)]
        for r, u in enumerate(monos):
            if not u:  # level 0: ⟨ṽ, ṽ⟩ = 1
                gram[r][r] = ONE
                continue
            (a, j), rest = u[0], u[1:]
            below = self._levels[k - a]
            row_below = below.gram[below.index[rest]]
            for s in range(r, size):
                acc = ZERO
                for mono, c in self._action.gen(a, j, monos[s]).items():
                    acc = acc + c * row_below[below.index[mono]]
                gram[r][s] = gram[s][r] = acc
        # nullspace gives free column f a vector with 1 at f, 0 at the other free
        # columns and its support on pivot columns left of f.  With columns
        # reversed that support lies right of f, so read back reversed the
        # vectors are the RREF of the kernel, the canonical radical.  Reversed
        # rows keep G symmetric, and Bareiss then meets smaller minors (1452 vs
        # 1777 bits at trivial Kac (2,2) level 13) and runs about twice as fast.
        kernel = nullspace([row[::-1] for row in reversed(gram)])
        radical = SpanBasis.from_echelon(
            [{monos[i]: c for i, c in enumerate(reversed(vec)) if c} for vec in reversed(kernel)]
        )
        pivots = radical.pivots()
        quotient = [m for m in monos if m not in pivots]
        return _LevelData(monos, index, gram, radical, quotient)

    def _level(self, k: int) -> _LevelData:
        if k < 0:
            raise ValueError("level must be non-negative")
        if k > self.depth:
            raise DepthExceededError(
                f"level {k} not computed (depth {self.depth}); extend depth to proceed"
            )
        return self._levels[k]

    # -- level queries -------------------------------------------------------------

    def pbw_basis(self, k: int) -> list[Monomial]:
        return list(self._level(k).monomials)

    def monomial_index(self, k: int) -> dict:
        return self._level(k).index

    def gram(self, k: int):
        return [list(row) for row in self._level(k).gram]

    def gram_rank(self, k: int) -> int:
        lv = self._level(k)
        return len(lv.monomials) - len(lv.radical)

    def radical_basis(self, k: int) -> list[PbwVector]:
        return self._level(k).radical.vectors()

    def radical_dim(self, k: int) -> int:
        return len(self._level(k).radical)

    def quotient_monomials(self, k: int) -> list[Monomial]:
        return list(self._level(k).quotient_monomials)

    def vphi_dim(self, k: int) -> int:
        return len(self._level(k).quotient_monomials)

    def is_radical(self, k: int, vec: PbwVector) -> bool:
        return self._level(k).radical.contains(vec)

    # -- quotient structure -----------------------------------------------------------

    def vphi_reduce(self, k: int, vec: PbwVector) -> PbwVector:
        """Canonical representative of vec + N(φ)_k, supported off radical pivots."""
        return self._level(k).radical.reduce(vec)

    def act_on_vphi(self, gen: Generator, k: int, vec: PbwVector) -> tuple[int, PbwVector]:
        """Apply one generator to a level-k quotient vector.

        Returns (target level, reduced vector); the target is k - degree.
        Raising past the top gives the zero vector at level 0.  Lowering
        below the computed depth raises DepthExceededError.
        """
        target = k - gen.degree if gen.kind == KIND_D else k
        if target < 0:
            return 0, {}
        if target > self.depth:
            raise DepthExceededError(
                f"action lands at level {target} beyond depth {self.depth}; extend depth"
            )
        return target, self.vphi_reduce(target, self._action.apply(gen, vec))

    # -- irreducibility certificate ----------------------------------------------------

    def quotient_irreducibility_check(self) -> bool:
        """Certify that every computed radical is N(φ), so V(φ) is irreducible to depth.

        Two checks run at every level 1 ≤ k ≤ depth:

        (a) G_k·x = 0 for every radical basis vector x, read from the stored
            Gram matrix: no radical is too big.
        (b) The images of each quotient monomial under every d_1⊗e_j and
            every d_2⊗e_j, stacked as the columns of a matrix
            V_k → V_{k-1} ⊕ V_{k-2}, leave an empty nullspace: no radical is
            too small.  Take the lowest level where a vector r of N(φ) is
            missing.  The raising operators send r into the lower radicals,
            which are right, so r modulo the computed radical would be a
            nonzero kernel vector.

        Conversely, B is unital and [d_1⊗1, d_n⊗b] = (n-1)·d_{n+1}⊗b, so
        d_1⊗B and d_2⊗B generate the positive part: a quotient vector they
        all kill is singular, and lies in N(φ).  (b) therefore also shows,
        by induction on k, that every nonzero quotient vector reaches the
        highest weight line.
        """
        raising = [Generator(KIND_D, n, self.algebra.basis_elem(j))
                   for n in (1, 2) for j in range(self.algebra.dim)]
        for k in range(1, self.depth + 1):
            lv = self._levels[k]
            if any(sum((row[lv.index[m]] * c for m, c in x.items()), ZERO)
                   for x in lv.radical.vectors() for row in lv.gram):
                return False
            columns = [{(i, m): c for i, gen in enumerate(raising)
                        for m, c in self.act_on_vphi(gen, k, {mono: ONE})[1].items()}
                       for mono in lv.quotient_monomials]
            rows = sorted(set().union(*columns))
            # nullspace reads a matrix without rows as injective, so no image at all fails here
            if columns and (not rows or nullspace([[col.get(r, ZERO) for col in columns] for r in rows])):
                return False
        return True
