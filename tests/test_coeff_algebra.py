"""Coefficient algebras: structure axioms, characters, units, ideal generation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle_rref
from virloop.coeff_algebra import (
    AlgebraB,
    CharacterPsi,
    builtin_algebra,
    cyclic_group_algebra,
    split_algebra,
    trivial_algebra,
    truncated_poly,
)
from virloop.scalars import ONE, ZERO, scalar


def coords(B, *vals):
    return B.elem(list(vals))


def mult_matrix(B, b):
    """The matrix of x -> b·x in the basis of B: column j holds b·e_j."""
    cols = [B.mult(b, B.basis_elem(j)) for j in range(B.dim)]
    return [[cols[j][i] for j in range(B.dim)] for i in range(B.dim)]


def test_builtins_pass_validate():
    for B in [
        trivial_algebra(),
        truncated_poly(1),
        truncated_poly(4),
        split_algebra(3),
        cyclic_group_algebra(5),
    ]:
        B.validate()


def test_builtin_name_resolution():
    assert builtin_algebra("trivial").dim == 1
    assert builtin_algebra("truncated-poly 3").dim == 3
    assert builtin_algebra("split 2").dim == 2
    assert builtin_algebra("cyclic-group 4").dim == 4
    with pytest.raises(ValueError):
        builtin_algebra("nonsense")
    with pytest.raises(ValueError):
        builtin_algebra("split x")


def test_mult_examples():
    B = truncated_poly(2)
    t = B.basis_elem(1)
    assert B.mult(t, t) == (ZERO,) * B.dim

    B2 = split_algebra(2)
    assert B2.mult(B2.basis_elem(0), B2.basis_elem(1)) == (ZERO,) * B2.dim

    B3 = truncated_poly(3)
    t = B3.basis_elem(1)
    assert B3.mult(t, t) == B3.basis_elem(2)


def test_validate_catches_broken_tables():
    # noncommutative: e1*e0 = 0 but e0*e1 = e1 with e0 acting as unit
    bad = AlgebraB(
        table=[[[1, 0], [0, 1]], [[0, 0], [0, 0]]],
        unit=[1, 0],
    )
    with pytest.raises(ValueError, match="commutativity"):
        bad.validate()
    # commutative but unit law broken
    bad2 = AlgebraB(
        table=[[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        unit=[1, 0],
    )
    with pytest.raises(ValueError, match="unit"):
        bad2.validate()


def test_nonassociative_table_is_caught():
    # commutative table with broken associativity: e1*e1 = e0 (so 1-dim'l in
    # disguise is fine); instead use e1*e1 = e1+e0, e1*e2 = 0, e2*e2 = e1:
    # ((e1 e1) e2) = e1 e2 + e0 e2 = e2; e1 (e1 e2) = 0.
    bad = AlgebraB(
        table=[
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [1, 1, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 1, 0]],
        ],
        unit=[1, 0, 0],
    )
    with pytest.raises(ValueError, match="associativity"):
        bad.validate()


def test_character_check():
    B = truncated_poly(2)
    assert CharacterPsi(B, [1, 0]).check()
    assert not CharacterPsi(B, [1, 1]).check()
    assert CharacterPsi(trivial_algebra(), [1]).check()

    Bs = split_algebra(3)
    assert CharacterPsi(Bs, [1, 0, 0]).check()
    assert CharacterPsi(Bs, [0, 1, 0]).check()
    assert not CharacterPsi(Bs, [1, 1, 0]).check()


def test_character_of_is_linear():
    B = cyclic_group_algebra(2)
    psi = CharacterPsi(B, [1, -1])
    assert psi.check()
    v = coords(B, "1/2", "3")
    assert psi.of(v) == scalar("1/2") - scalar(3)


def test_units_and_inverses():
    # a unit generates all of B and b·x = 1 is solvable; a non-unit neither
    B = truncated_poly(3)
    one_plus_t = B.elem([1, 1, 0])
    inv = oracle_rref.solve(mult_matrix(B, one_plus_t), list(B.unit))
    assert inv == list(B.elem([1, -1, 1]))
    assert B.mult(one_plus_t, tuple(inv)) == B.unit
    assert len(B.ideal_generated(one_plus_t)) == B.dim
    t = B.basis_elem(1)
    assert oracle_rref.solve(mult_matrix(B, t), list(B.unit)) is None
    assert len(B.ideal_generated(t)) < B.dim

    Bs = split_algebra(2)
    assert len(Bs.ideal_generated(Bs.elem([1, -1]))) == Bs.dim
    assert len(Bs.ideal_generated(Bs.basis_elem(0))) < Bs.dim


def test_ideal_generated_examples():
    B = truncated_poly(2)
    assert B.ideal_generated(B.basis_elem(1)) == [B.basis_elem(1)]

    Bs = split_algebra(2)
    assert Bs.ideal_generated(Bs.basis_elem(0)) == [Bs.basis_elem(0)]

    B3 = truncated_poly(3)
    ideal = B3.ideal_generated(B3.basis_elem(1))
    assert ideal == [B3.basis_elem(1), B3.basis_elem(2)]


def test_ideal_of_unit_is_everything():
    for B in [truncated_poly(3), split_algebra(3), cyclic_group_algebra(4)]:
        ideal = B.ideal_generated(B.unit)
        assert len(ideal) == B.dim


def test_ideal_is_multiplication_closed():
    B = cyclic_group_algebra(4)
    b = B.elem([1, 0, -1, 0])
    ideal = B.ideal_generated(b)
    from virloop.linalg import SpanBasis

    span = SpanBasis()
    for v in ideal:
        span.add({j: c for j, c in enumerate(v) if c})
    for v in ideal:
        for j in range(B.dim):
            prod = B.mult(v, B.basis_elem(j))
            assert span.contains({k: c for k, c in enumerate(prod) if c})


small_vals = st.integers(-3, 3)


@given(
    st.sampled_from(["truncated-poly 3", "split 3", "cyclic-group 3"]),
    st.lists(small_vals, min_size=3, max_size=3),
    st.lists(small_vals, min_size=3, max_size=3),
    st.lists(small_vals, min_size=3, max_size=3),
)
def test_algebra_axioms_on_random_elements(name, xs, ys, zs):
    B = builtin_algebra(name)
    a, b, c = B.elem(xs), B.elem(ys), B.elem(zs)
    assert B.mult(a, b) == B.mult(b, a)
    assert B.mult(B.mult(a, b), c) == B.mult(a, B.mult(b, c))
    assert B.mult(B.unit, a) == a


@given(st.lists(small_vals, min_size=4, max_size=4))
def test_unit_iff_solvable(vals):
    # ideal_generated(b) is all of B exactly when b·x = 1 is solvable
    B = cyclic_group_algebra(4)
    b = B.elem(vals)
    x = oracle_rref.solve(mult_matrix(B, b), list(B.unit))
    assert (len(B.ideal_generated(b)) == B.dim) == (x is not None)
    if x is not None:
        assert B.mult(b, tuple(x)) == B.unit
