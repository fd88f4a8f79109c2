"""Loop-Virasoro bracket, its triangular grading, and the word algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle_lie import LieElement
from virloop.coeff_algebra import trivial_algebra, truncated_poly
from virloop.scalars import ONE, scalar
from virloop.virasoro import Generator, WordSum, bracket_terms, d_gen

TRIV = trivial_algebra()
TPOLY2 = truncated_poly(2)


def D(n, alg=TRIV, j=0, c=1):
    return LieElement.d(alg, n, j, c)


def degree_part(x, sign):
    """The terms of x whose degree has the given sign (-1, 0 or 1); C has degree 0."""
    terms = {key: c for key, c in x.terms.items() if (key[0] > 0) - (key[0] < 0) == sign}
    return LieElement(x.algebra, terms)


def test_bracket_d1_dm1():
    assert D(1).bracket(D(-1)) == D(0, c=-2)


def test_bracket_d2_dm2_central_term():
    got = D(2).bracket(D(-2))
    want = D(0, c=-4) + LieElement.central(TRIV, coeff="1/2")
    assert got == want
    assert bracket_terms(2, -2, [(0, ONE)]) == ([(0, scalar(-4))], [(0, scalar("1/2"))])
    assert bracket_terms(1, -1, [(0, ONE)]) == ([(0, scalar(-2))], [])
    assert bracket_terms(-2, 2, [(0, ONE)])[1] == [(0, scalar("-1/2"))]


def test_central_generators_commute():
    x = LieElement.d(TPOLY2, 3, 1)
    c = LieElement.central(TPOLY2, 1)
    assert x.bracket(c).is_zero()
    assert c.bracket(x).is_zero()
    assert c.bracket(c).is_zero()


def test_bracket_carries_b_product():
    # over Q(i)[t]/(t^2): [d_1⊗t, d_2⊗t] = d_3⊗t^2 = 0
    x = LieElement.d(TPOLY2, 1, 1)
    y = LieElement.d(TPOLY2, 2, 1)
    assert x.bracket(y).is_zero()
    # [d_1⊗1, d_2⊗t] = (2-1) d_3⊗t
    u = LieElement.d(TPOLY2, 1, 0)
    assert u.bracket(y) == LieElement.d(TPOLY2, 3, 1)


def test_triangular_part():
    # the degree parts are the eigenspaces of ad d_0: [d_0, d_n⊗b] = n d_n⊗b, [d_0, C⊗b] = 0
    d0 = D(0, TPOLY2)
    c = LieElement.central(TPOLY2, 1)
    x = LieElement.d(TPOLY2, -1, 1) + d0 + D(5, TPOLY2) + c
    neg, zero, pos = (degree_part(x, s) for s in (-1, 0, 1))
    assert neg == LieElement.d(TPOLY2, -1, 1)
    assert zero == d0 + c
    assert pos == D(5, TPOLY2)
    assert d0.bracket(neg) == neg.scale(-1)
    assert d0.bracket(zero).is_zero()
    assert d0.bracket(pos) == pos.scale(5)


def test_word_multiply():
    g1 = d_gen(1, TRIV.unit)
    gm1 = d_gen(-1, TRIV.unit)
    u = WordSum.single(TRIV, g1)
    v = WordSum.single(TRIV, gm1)
    assert (u * v).words == {(g1, gm1): ONE}

    ident = WordSum(TRIV, {(): ONE})  # the empty word
    assert (ident * u).words == u.words
    assert (u * ident).words == u.words

    gn = d_gen(4, TRIV.unit)
    gm = d_gen(7, TRIV.unit)
    lhs = WordSum(TRIV, {(gn,): 2}) * WordSum(TRIV, {(gm,): 3})
    assert lhs.words == {(gn, gm): scalar(6)}


def test_word_sum_cancellation():
    g = d_gen(2, TRIV.unit)
    u = WordSum.single(TRIV, g)
    assert not (u - u)


def test_generator_guards():
    with pytest.raises(ValueError):
        Generator("C", 3, TRIV.unit)
    with pytest.raises(ValueError):
        Generator("d", 10**6 + 1, TRIV.unit)
    with pytest.raises(ValueError):
        Generator("x", 0, TRIV.unit)
    with pytest.raises(ValueError):
        LieElement.d(TRIV, -(10**6) - 5)


_indices = st.integers(-6, 6)
_coeffs = st.integers(-4, 4)


def _rand_elem(alg, data, nterms):
    x = LieElement.zero(alg)
    for _ in range(nterms):
        n = data.draw(_indices)
        j = data.draw(st.integers(0, alg.dim - 1))
        c = data.draw(_coeffs)
        kind = data.draw(st.sampled_from(["d", "d", "d", "C"]))
        if kind == "C":
            x = x + LieElement.central(alg, j, c)
        else:
            x = x + LieElement.d(alg, n, j, c)
    return x


@given(st.data())
def test_bracket_antisymmetry(data):
    x = _rand_elem(TPOLY2, data, 2)
    y = _rand_elem(TPOLY2, data, 2)
    assert x.bracket(y) == -(y.bracket(x))


@given(st.data())
def test_bracket_jacobi(data):
    x = _rand_elem(TPOLY2, data, 2)
    y = _rand_elem(TPOLY2, data, 2)
    z = _rand_elem(TPOLY2, data, 2)
    total = (
        x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(x.bracket(y))
    )
    assert total.is_zero()


@given(st.data())
def test_triangular_closure(data):
    x = _rand_elem(TPOLY2, data, 3)
    y = _rand_elem(TPOLY2, data, 3)
    for sign in (-1, 1):
        br = degree_part(x, sign).bracket(degree_part(y, sign))
        assert br == degree_part(br, sign)


@given(st.data())
def test_triangular_parts_sum_back(data):
    x = _rand_elem(TPOLY2, data, 4)
    neg, zero, pos = (degree_part(x, s) for s in (-1, 0, 1))
    assert neg + zero + pos == x
