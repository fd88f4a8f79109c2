"""Independent worklist oracle for normal ordering in M(φ).

This is a word-level rewrite, kept apart from the package's memoized
single-generator action so the two can be checked against each other.
Every word is rewritten on its own, and equal terms are never merged
before they reach the output, so the cost grows exponentially with depth:
use it at small depths only.

Rules: strip central factors, kill words whose rightmost factor raises,
evaluate rightmost degree-zero factors, and swap out-of-order adjacent
pairs with a bracket correction.  Each step shortens the word or strictly
reduces its inversion count, so the rewrite terminates.  The bracket
correction is written here, not taken from `virasoro.bracket_terms`, so
the comparison checks that function as well.

`monomial_word` and `omega_word` spell a PBW monomial and its image
under ω as words, and `form_value` pairs two vectors through a module's
Gram matrix; the tests build contravariance checks from them.
"""

import itertools

from virloop.scalars import ONE, ZERO, from_parts, scalar
from virloop.virasoro import Generator, KIND_C, KIND_D, WordSum
from virloop.verma import pbw_monomials


def worklist_normal_order(words, hw):
    """Value of the word sum on ṽ, as a sparse monomial vector."""
    algebra = words.algebra
    out = {}
    work = [(factors, coeff) for factors, coeff in words.words.items()]
    while work:
        factors, coeff = work.pop()
        if not coeff:
            continue
        # strip central factors anywhere; C⊗b acts as φ(C⊗b) on all of M(φ)
        if any(g.kind == KIND_C for g in factors):
            for g in factors:
                if g.kind == KIND_C:
                    coeff = coeff * hw.of_c(g.bcoef)
            factors = tuple(g for g in factors if g.kind != KIND_C)
            if not coeff:
                continue
        if not factors:
            _deposit(out, (), coeff)
            continue
        last = factors[-1]
        if last.degree > 0:
            continue
        if last.degree == 0:
            work.append((factors[:-1], coeff * hw.of_d0(last.bcoef)))
            continue
        swap_at = None
        for i in range(len(factors) - 2, -1, -1):
            if factors[i].degree > factors[i + 1].degree:
                swap_at = i
                break
        if swap_at is None:
            _deposit_negative_word(out, algebra, factors, coeff)
            continue
        i = swap_at
        x, y = factors[i], factors[i + 1]
        work.append((factors[:i] + (y, x) + factors[i + 2 :], coeff))
        bb = algebra.mult(x.bcoef, y.bcoef)
        if any(bb):
            lie_coeff = scalar(y.degree - x.degree)
            mid = Generator(KIND_D, x.degree + y.degree, bb)
            work.append((factors[:i] + (mid,) + factors[i + 2 :], coeff * lie_coeff))
            if x.degree == -y.degree:
                cterm = from_parts(x.degree**3 - x.degree, 0, 12)
                if cterm:
                    midc = Generator(KIND_C, 0, bb)
                    work.append(
                        (factors[:i] + (midc,) + factors[i + 2 :], coeff * cterm)
                    )
    return out


def _deposit(out, mono, coeff):
    s = out.get(mono, ZERO) + coeff
    if s:
        out[mono] = s
    else:
        out.pop(mono, None)


def _deposit_negative_word(out, algebra, factors, coeff):
    """Expand B-coefficients over the basis and file under canonical monomials."""
    pools = []
    for g in factors:
        entries = [(j, c) for j, c in enumerate(g.bcoef) if c]
        if not entries:
            return
        pools.append(entries)
    depths = [-g.degree for g in factors]
    for pick in itertools.product(*pools):
        c = coeff
        for _, bc in pick:
            c = c * bc
        mono = tuple(
            sorted(((d, j) for d, (j, _) in zip(depths, pick)), key=lambda p: (-p[0], p[1]))
        )
        _deposit(out, mono, c)


def monomial_word(algebra, mono):
    """The monomial as a factor sequence (deepest leftmost, rightmost acts first)."""
    return tuple(Generator(KIND_D, -depth, algebra.basis_elem(j)) for depth, j in mono)


def omega_word(algebra, mono):
    """ω of the monomial: degrees flipped positive, factor order reversed."""
    return tuple(Generator(KIND_D, depth, algebra.basis_elem(j)) for depth, j in reversed(mono))


def form_value(vm, k, u, v):
    """The contravariant form of two level-k vectors, read from the module's Gram matrix."""
    gram, index = vm.gram(k), vm.monomial_index(k)
    return sum(
        (cu * gram[index[mu]][index[mv]] * cv for mu, cu in u.items() for mv, cv in v.items()),
        ZERO,
    )


def worklist_gram(hw, k):
    """Full level-k Gram matrix, one rewritten word per entry."""
    algebra = hw.algebra
    monos = pbw_monomials(algebra.dim, k)
    gram = []
    for u in monos:
        raising = omega_word(algebra, u)
        row = []
        for v in monos:
            word = raising + monomial_word(algebra, v)
            res = worklist_normal_order(WordSum(algebra, {word: ONE}), hw)
            row.append(res.get((), ZERO))
        gram.append(row)
    return gram


def worklist_act(hw, gen, mono):
    """gen applied to one PBW monomial, before any reduction by the radical."""
    word = (gen,) + monomial_word(hw.algebra, mono)
    return worklist_normal_order(WordSum(hw.algebra, {word: ONE}), hw)
