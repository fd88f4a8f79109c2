"""Field arithmetic, parsing, and weight normalization for Gaussian rationals."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_rref
import oracle_scalars as oracle
from virloop import linalg
from virloop.scalars import (
    ONE,
    ZERO,
    GaussianRational,
    from_parts,
    normalize_alpha,
    parts,
    scalar,
)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


I = gr(0, 1)


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_basic_sums_and_products():
    assert scalar("1/2+i") + scalar("1/2-i") == ONE
    assert scalar("1/3") * scalar(3) == ONE
    assert I * I == -ONE
    assert gr(2, 3) * gr(2, -3) == gr(13)


def test_division():
    a = gr(1, 2)
    b = gr(3, -1)
    assert (a / b) * b == a
    assert ONE / I == -I
    with pytest.raises(ZeroDivisionError):
        a / ZERO


def test_is_integer_and_is_zero():
    assert gr(5).is_integer()
    assert gr(-3).is_integer()
    assert not ZERO and ZERO.is_integer()
    assert not gr(Fraction(1, 2)).is_integer()
    assert not gr(1, 1).is_integer()
    assert ONE


def test_parse_round_trip_examples():
    for text in ["0", "1", "-1", "i", "-i", "1/2", "-3/4", "1/2+3/4*i", "2-i", "5i"]:
        v = scalar(text)
        assert scalar(str(v)) == v


def test_parse_rejects_garbage():
    for bad in ["", "x", "1+", "1//2", "i*i", "1 + + i"]:
        with pytest.raises(ValueError):
            scalar(bad)


def test_normalize_alpha_examples():
    assert normalize_alpha(gr(Fraction(7, 3))) == (gr(Fraction(1, 3)), 2)
    assert normalize_alpha(ZERO) == (ZERO, 0)
    assert normalize_alpha(gr(Fraction(-1, 2), 1)) == (gr(Fraction(1, 2), 1), -1)
    assert normalize_alpha(gr(3)) == (ZERO, 3)


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(gaussians)
def test_inverses(a):
    assert a + (-a) == ZERO
    if a:
        assert a * (ONE / a) == ONE


@given(gaussians)
def test_conjugation_norm(a):
    n = a * GaussianRational(a.re, -a.im)
    assert n.im == 0
    assert n.re >= 0


@given(gaussians)
def test_normalize_alpha_idempotent(a):
    a0, m = normalize_alpha(a)
    assert a0 + scalar(m) == a
    assert 0 <= a0.re < 1
    assert normalize_alpha(a0) == (a0, 0)


@given(gaussians)
def test_str_round_trip(a):
    assert scalar(str(a)) == a


# -- hash and equality agree ---------------------------------------------------------


def test_real_values_hash_like_int_and_fraction():
    assert hash(scalar(3)) == hash(3)
    assert hash(scalar(-7)) == hash(-7)
    assert hash(scalar("1/2")) == hash(Fraction(1, 2))
    assert hash(ZERO) == hash(0)
    assert {scalar(3): 1}[3] == 1
    assert {scalar("1/2"): 1}[Fraction(1, 2)] == 1
    assert {3: 1}[scalar(3)] == 1


# -- the integer-triple engine against the Fraction-pair oracle ----------------------

BIG = 2**64
numerators = st.one_of(
    st.integers(-12, 12),
    st.integers(-(BIG**2), BIG**2),
    st.sampled_from([0, BIG + 1, -(BIG + 3)]),
)
denominators = st.one_of(
    st.sampled_from([1, 2, 3, 4, 6, 12]),  # shared denominators are common
    st.integers(1, BIG**2),
)


@st.composite
def pairs(draw):
    """(re, im) Fractions; real, purely imaginary and zero values included."""
    den = draw(denominators)
    re = Fraction(draw(numerators), den)
    im = Fraction(draw(numerators), den)
    shape = draw(st.sampled_from(["complex", "real", "imaginary", "zero"]))
    if shape in ("real", "zero"):
        im = Fraction(0)
    if shape in ("imaginary", "zero"):
        re = Fraction(0)
    return re, im


@st.composite
def operands(draw):
    """(engine operand, oracle operand): both scalars, or the same int or Fraction."""
    kind = draw(st.sampled_from(["scalar", "scalar", "int", "fraction"]))
    if kind == "int":
        n = draw(numerators)
        return n, n
    if kind == "fraction":
        q = Fraction(draw(numerators), draw(denominators))
        return q, q
    re, im = draw(pairs())
    return GaussianRational(re, im), oracle.GaussianRational(re, im)


def assert_same(x, o):
    """x is canonical and equals the oracle's value o, read and printed the same way."""
    assert isinstance(x, GaussianRational)
    a, b, d = parts(x)
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (x.re, x.im) == (o.re, o.im)
    assert x == GaussianRational(o.re, o.im)
    assert str(x) == str(o) and repr(x) == repr(o)
    assert bool(x) == bool(o)
    assert x.is_integer() == o.is_integer()
    if not o.im:
        assert hash(x) == hash(o.re)


def assert_same_outcome(fn, engine_args, oracle_args):
    """fn gives the oracle's value on the engine's operands, or raises ZeroDivisionError as it does."""
    try:
        want = fn(*oracle_args)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            fn(*engine_args)
    else:
        assert_same(fn(*engine_args), want)


BINARY = [
    operator.add,
    operator.sub,
    operator.mul,
    operator.truediv,
    lambda x, y: y + x,
    lambda x, y: y - x,
    lambda x, y: y * x,
    lambda x, y: y / x,
]


@settings(max_examples=400)
@given(pairs(), operands())
def test_every_operation_equals_fraction_pair_oracle(x_parts, y):
    x, ox = GaussianRational(*x_parts), oracle.GaussianRational(*x_parts)
    y, oy = y
    assert_same(x, ox)
    for op in BINARY:
        assert_same_outcome(op, (x, y), (ox, oy))
    assert (x == y) == (ox == oy) and (y == x) == (oy == ox)
    assert (x != y) == (ox != oy)
    assert_same(-x, -ox)
    assert_same(GaussianRational(x.re, -x.im), ox.conjugate())
    (x0, m), (ox0, om) = normalize_alpha(x), oracle.normalize_alpha(ox)
    assert m == om
    assert_same(x0, ox0)
    assert_same(scalar(str(ox)), ox)
    if not isinstance(oy, oracle.GaussianRational):
        assert_same(scalar(y), oracle.scalar(oy))


@given(st.text(alphabet="0123456789/+-*i ", max_size=12))
def test_scalar_parsing_equals_oracle(text):
    try:
        want = oracle.scalar(text)
    except (ValueError, ZeroDivisionError) as err:
        with pytest.raises(type(err)):
            scalar(text)
    else:
        assert_same(scalar(text), want)


def test_from_parts_fixes_sign_and_reduces():
    assert parts(from_parts(2, -4, -6)) == (-1, 2, 3)
    assert parts(from_parts(0, 0, -5)) == (0, 0, 1)
    assert from_parts(BIG * 3, 0, BIG * 6) == scalar("1/2")
    with pytest.raises(ZeroDivisionError):
        from_parts(1, 0, 0)


def _oracle_entries(rows):
    return [[(x.re, x.im) for x in row] for row in rows]


@pytest.mark.parametrize(
    "matrix",
    [
        [["-3", "1"]],  # real pivot D = -3
        [["-2", "1", "5"], ["4", "-1", "0"]],  # last real pivot negative
        [["-i", "1"]],  # Gaussian pivot D = -i
        [["-1-2i", "3", "i"], ["2", "-5", "1/3"]],
    ],
)
def test_linalg_results_are_canonical_after_a_negative_pivot(matrix):
    m = [[scalar(x) for x in row] for row in matrix]
    flipped = [row[::-1] for row in m]  # other pivots, so another last pivot D
    results = []
    for mat in (m, flipped):
        basis = linalg.nullspace(mat)
        assert _oracle_entries(basis) == _oracle_entries(oracle_rref.nullspace(mat))
        results += [x for v in basis for x in v]
    for x in results:
        a, b, d = parts(x)
        assert d > 0 and math.gcd(a, b, d) == 1
