"""Intermediate-series modules: action, irreducibility, closure oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_lie import LieElement, act_lie, submodule_closure
from virloop.coeff_algebra import CharacterPsi, trivial_algebra, truncated_poly
from virloop.intermediate import (
    INDEX_ALL,
    INDEX_NONZERO,
    IntModule,
    IntParams,
    int_module,
    is_irreducible_int,
    prime_module,
)
from virloop.scalars import ONE, ZERO, scalar
from virloop.virasoro import KIND_C, Generator, d_gen

TRIV = trivial_algebra()
PSI1 = CharacterPsi(TRIV, [1])
I = scalar("i")


def module(alpha, beta, index_set=INDEX_ALL, psi=PSI1):
    return IntModule(IntParams(scalar(alpha), scalar(beta), psi), index_set)


def test_action_example_direct_substitution():
    m = module("1/3", 2)
    got = m.act_d(5, ONE, {-1: ONE})
    assert got == {4: scalar("28/3")}


def test_central_acts_as_zero():
    m = module("1/2", "1/3")
    assert m.act(Generator(KIND_C, 0, TRIV.unit), {7: ONE}) == {}


def test_vanishing_coefficient_beta_one():
    m = module(0, 1)
    assert m.act_d(-3, ONE, {3: ONE}) == {}


def test_act_scales_by_psi():
    B = truncated_poly(2)
    psi = CharacterPsi(B, [1, 0])
    m = IntModule(IntParams(scalar("1/2"), scalar(2), psi))
    gen_t = d_gen(3, B.basis_elem(1))
    assert m.act(gen_t, {0: ONE}) == {}
    gen_1 = d_gen(3, B.unit)
    assert m.act(gen_1, {0: ONE}) == {3: scalar("13/2")}


def test_weight_property():
    m = module("1/3", "1/2")
    for k in range(-4, 5):
        got = m.act_d(0, ONE, {k: ONE})
        assert got == {k: scalar("1/3") + scalar(k)}


def test_quotient_module_drops_index_zero():
    m = module(0, 0, INDEX_NONZERO)
    # d_{-1}.v_1 would land on v_0 with coefficient 1; the quotient drops it
    assert m.act_d(-1, ONE, {1: ONE}) == {}


def test_is_irreducible_predicate():
    assert is_irreducible_int("1/2", 2)
    assert not is_irreducible_int(0, 0)
    assert not is_irreducible_int(0, 1)
    assert not is_irreducible_int(3, 1)
    assert not is_irreducible_int(-2, 0)
    assert is_irreducible_int(0, "1/2")
    assert is_irreducible_int(0, 2)
    assert is_irreducible_int("i", 0)
    assert is_irreducible_int("1/3", 1)


def test_int_module_index_set_and_irreducible_as_built():
    # Z - {0} exactly at (0,0); every other pair keeps the full index set
    assert int_module(0, 0, PSI1).index_set == INDEX_NONZERO
    for alpha, beta in ((1, 0), (0, 1), (-2, 1), ("1/2", 0), (0, "1/3")):
        assert int_module(alpha, beta, PSI1).index_set == INDEX_ALL
    assert int_module(0, 0).irreducible
    assert int_module("1/2", 0).irreducible and int_module(3, "1/3").irreducible
    assert not int_module(1, 0).irreducible and not int_module(-2, 1).irreducible
    # the full module at (0,0), or Z - {0} off the origin, stays reducible
    assert not module(0, 0).irreducible
    assert not module(1, 0, INDEX_NONZERO).irreducible


def test_closure_at_0_0_finds_proper_submodule():
    m = module(0, 0)
    basis, reachable = submodule_closure(m, [{0: ONE}], -10, 10, 5)
    assert len(basis) == 1
    assert reachable == {0}
    # from v_1 everything is reachable (v_0 included)
    basis, reachable = submodule_closure(m, [{1: ONE}], -10, 10, 5)
    assert len(basis) == 21
    assert reachable == set(range(-10, 11))


def test_closure_at_0_1_misses_index_zero():
    m = module(0, 1)
    basis, reachable = submodule_closure(m, [{1: ONE}], -10, 10, 5)
    assert 0 not in reachable
    assert len(basis) == 20
    # while the closure of v_0 fills the window
    basis0, reach0 = submodule_closure(m, [{0: ONE}], -10, 10, 5)
    assert len(basis0) == 21


def test_closure_generic_parameters_fill_window():
    m = module("1/2", "1/3")
    basis, reachable = submodule_closure(m, [{0: ONE}], -10, 10, 5)
    assert len(basis) == 21
    assert reachable == set(range(-10, 11))


def test_closure_oracle_agrees_with_predicate_on_grid():
    alphas = [ZERO, scalar("1/2"), I, scalar("1/3")]
    betas = [ZERO, ONE, scalar(2), scalar("1/2")]
    for alpha in alphas:
        for beta in betas:
            m = module(alpha, beta)
            expect = is_irreducible_int(alpha, beta)
            assert m.closure_is_full(-12, 12, 6) == expect, (alpha, beta)


def _closure_scan_by_span(m, kmin, kmax, max_degree):
    """The span-elimination scan: every seed's span closure fills the window."""
    full = len(m.window_indices(kmin, kmax))
    return all(
        len(submodule_closure(m, [{k: ONE}], kmin, kmax, max_degree)[0]) == full
        for k in m.window_indices(kmin, kmax)
    )


def test_closure_is_full_equals_span_closure_oracle():
    alphas = [ZERO, ONE, scalar(-2), scalar("1/2"), I, scalar("1+i")]
    betas = [ZERO, ONE, scalar("1/2"), I]
    windows = [
        (-2, 2, 1),  # degree 1: in Z-0 the window splits at 0
        (1, 4, 2),  # no index 0
        (-4, -2, 1),
        (-1, 2, 5),  # degree above the window width
    ]
    verdicts = set()
    for alpha in alphas:
        for beta in betas:
            for index_set in (INDEX_ALL, INDEX_NONZERO):
                m = module(alpha, beta, index_set)
                for kmin, kmax, degree in windows:
                    want = _closure_scan_by_span(m, kmin, kmax, degree)
                    got = m.closure_is_full(kmin, kmax, degree)
                    assert got == want, (alpha, beta, index_set, kmin, kmax, degree)
                    verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "index_set, kmin, kmax",
    [(INDEX_ALL, 3, 3), (INDEX_NONZERO, 0, 0), (INDEX_NONZERO, 0, 1), (INDEX_ALL, 2, 1)],
)
def test_closure_is_full_rejects_window_below_two_indices(index_set, kmin, kmax):
    with pytest.raises(ValueError, match="fewer than 2 allowed indices"):
        module(0, 0, index_set).closure_is_full(kmin, kmax, 4)


def test_prime_module_normalization():
    m = prime_module("7/3", 1)
    assert m.params.alpha == scalar("1/3")
    assert m.params.beta == ZERO
    assert m.index_set == INDEX_ALL

    m2 = prime_module(0, 1)
    assert (m2.params.alpha, m2.params.beta) == (ZERO, ZERO)
    assert m2.index_set == INDEX_NONZERO

    m3 = prime_module("1/2", 2)
    assert (m3.params.alpha, m3.params.beta) == (scalar("1/2"), scalar(2))
    assert m3.index_set == INDEX_ALL

    m4 = prime_module(5, 0)
    assert m4.index_set == INDEX_NONZERO


def test_prime_module_at_degenerate_pair_is_irreducible_by_oracle():
    m = prime_module(0, 0)
    full = len(m.window_indices(-8, 8))
    for k in [-8, -3, -1, 1, 2, 8]:
        basis, _ = submodule_closure(m, [{k: ONE}], -8, 8, 6)
        assert len(basis) == full


def test_abstract_coefficients_mode():
    m = IntModule(IntParams(scalar("1/4"), scalar(3), psi=None))
    got = m.act_d(2, scalar("1/2"), {1: ONE})
    assert got == {3: scalar("1/2") * (scalar("1/4") + scalar(1) + scalar(6))}
    with pytest.raises(ValueError):
        act_lie(m, LieElement.d(TRIV, 1), {0: ONE})


params_strategy = st.tuples(
    st.sampled_from(["0", "1/2", "i", "1/3", "2", "-1/2+i"]),
    st.sampled_from(["0", "1", "2", "1/2", "i"]),
)


@settings(max_examples=40)
@given(
    params_strategy,
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-2, 2),
)
def test_representation_property(pair, m_deg, n_deg, k):
    alpha, beta = pair
    mod = module(alpha, beta)
    v = {k: ONE}
    x = LieElement.d(TRIV, m_deg)
    y = LieElement.d(TRIV, n_deg)
    lhs_xy = act_lie(mod, x, act_lie(mod, y, v))
    lhs_yx = act_lie(mod, y, act_lie(mod, x, v))
    diff = dict(lhs_xy)
    for kk, c in lhs_yx.items():
        s = diff.get(kk, ZERO) - c
        if s:
            diff[kk] = s
        else:
            diff.pop(kk, None)
    rhs = act_lie(mod, x.bracket(y), v)
    assert diff == rhs


@settings(max_examples=20)
@given(st.integers(-4, 4), st.integers(1, 4))
def test_representation_property_in_quotient(k, n):
    # the degenerate quotient realization also satisfies the bracket relation
    mod = module(0, 0, INDEX_NONZERO)
    if k == 0:
        k = 5
    v = {k: ONE}
    x = LieElement.d(TRIV, n)
    y = LieElement.d(TRIV, -n)
    lhs_xy = act_lie(mod, x, act_lie(mod, y, v))
    lhs_yx = act_lie(mod, y, act_lie(mod, x, v))
    diff = dict(lhs_xy)
    for kk, c in lhs_yx.items():
        s = diff.get(kk, ZERO) - c
        if s:
            diff[kk] = s
        else:
            diff.pop(kk, None)
    rhs = act_lie(mod, x.bracket(y), v)
    assert diff == rhs
