"""Tensor modules: Leibniz action, weights, and the generation oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virloop.coeff_algebra import CharacterPsi, split_algebra, trivial_algebra
from virloop.intermediate import INDEX_NONZERO, IntModule, IntParams, prime_module
from virloop.linalg import SpanBasis
from virloop.scalars import ONE, ZERO, scalar
from virloop.tensor_product import TensorModule
from virloop.verma import HighestWeight, VermaModule
from virloop.virasoro import KIND_C, KIND_D, Generator, d_gen

from oracle_lie import LieElement, act_lie

TRIV = trivial_algebra()
PSI1 = CharacterPsi(TRIV, [1])


def make_module(h="1", c="0", alpha="1/2", beta="2", depth=3):
    vm = VermaModule(TRIV, HighestWeight(TRIV, [h], [c]), depth)
    im = IntModule(IntParams(scalar(alpha), scalar(beta), PSI1))
    return TensorModule(vm, im)


def test_seed_and_vector_validation():
    tm = make_module()
    assert tm.seed(3) == {(0, (), 3): ONE}
    with pytest.raises(ValueError, match="beyond depth"):
        tm.vector({(9, (), 0): 1})
    with pytest.raises(ValueError):
        tm.vector({(1, ((5, 0),), 0): 1})


def test_positive_generator_on_seed_moves_intermediate_factor():
    # first Leibniz term dies on the highest weight vector
    tm = make_module(alpha="1/2", beta="2")
    got = tm.act(d_gen(3, TRIV.unit), tm.seed(0))
    coeff = scalar("1/2") + scalar(0) + scalar(3) * scalar(2)
    assert got == {(0, (), 3): coeff}


def test_ladder_identity_up():
    # d_1⊗b.(v_φ⊗v_n) = ψ(b)(α+n+β)(v_φ⊗v_{n+1})
    tm = make_module(alpha="1/2", beta="1/3")
    for n in range(-3, 4):
        got = tm.act(d_gen(1, TRIV.unit), tm.seed(n))
        coeff = scalar("1/2") + scalar(n) + scalar("1/3")
        assert got == {(0, (), n + 1): coeff}


def test_central_generator_scales_by_phi():
    tm = make_module(h="1", c="5/7")
    x = tm.act(d_gen(-2, TRIV.unit), tm.seed(1))
    got = tm.act(Generator(KIND_C, 0, TRIV.unit), x)
    want = {key: scalar("5/7") * c for key, c in x.items()}
    assert got == want


def test_negative_generator_mixes_both_factors():
    tm = make_module(h="1", c="0", alpha="1/2", beta="2")
    got = tm.act(d_gen(-1, TRIV.unit), tm.seed(0))
    second = scalar("1/2") + scalar(0) + scalar(-1) * scalar(2)
    assert got == {
        (1, ((1, 0),), 0): ONE,
        (0, (), -1): second,
    }


def test_depth_guard_is_hard():
    tm = make_module(depth=1)
    x = tm.act(d_gen(-1, TRIV.unit), tm.seed(0))
    with pytest.raises(ValueError, match="beyond depth"):
        tm.act(d_gen(-1, TRIV.unit), x)
    assert make_module(depth=2).act(d_gen(-1, TRIV.unit), x)


def test_weight_bookkeeping_under_d0():
    # the summand (i, mono, k) has weight φ(d_0) + α + (k - i)
    tm = make_module(h="1/3", alpha="1/2", beta="2")
    d0 = d_gen(0, TRIV.unit)
    for n in (-2, 0, 3):
        x = {(1, ((1, 0),), n + 1): ONE, (0, (), n): scalar(2)}
        got = tm.act(d0, x)
        lam = scalar("1/3") + scalar("1/2") + scalar(n)
        assert got == {key: lam * c for key, c in x.items()}


def test_action_shifts_weight_by_degree():
    # d_n moves every summand from weight offset k - i to offset k - i + n
    tm = make_module()
    x = tm.seed(2)
    for deg in (-2, -1, 1, 2):
        y = tm.act(d_gen(deg, TRIV.unit), x)
        if y:
            assert {k - i for (i, _mono, k) in y} == {2 + deg}


def test_weight_space_dim_counts_levels():
    tms = [make_module(h="1", c="0", depth=d) for d in range(4)]
    # generic φ here: no radical through depth 3, so dims are partition counts
    assert [tm.weight_space_dim(0) for tm in tms] == [1, 2, 4, 7]
    # strictly increasing in depth whenever a level is nonzero
    dims = [tm.weight_space_dim(5) for tm in tms]
    assert all(a < b for a, b in zip(dims, dims[1:]))


def test_weight_space_dim_respects_excluded_index():
    vm = VermaModule(TRIV, HighestWeight(TRIV, [1], [0]), 2)
    im = prime_module(0, 0, PSI1)
    tm = TensorModule(vm, im)
    # offset n = -1: index k = n+i = 0 at i = 1 is excluded
    full = sum(vm.vphi_dim(i) for i in range(3))
    assert tm.weight_space_dim(-1) == full - vm.vphi_dim(1)


def test_leibniz_representation_property():
    tm = make_module(h="1/2", c="1/3", alpha="1/3", beta="1/2", depth=3)
    v = tm.act(d_gen(-1, TRIV.unit), tm.seed(1))
    for m_deg, n_deg in [(1, -1), (2, -2), (-1, 2), (1, 1), (0, -2)]:
        x = LieElement.d(TRIV, m_deg)
        y = LieElement.d(TRIV, n_deg)
        lhs = act_lie(tm, x, act_lie(tm, y, v))
        rhs_sub = act_lie(tm, y, act_lie(tm, x, v))
        diff = dict(lhs)
        for key, c in rhs_sub.items():
            s = diff.get(key, ZERO) - c
            if s:
                diff[key] = s
            else:
                diff.pop(key, None)
        want = act_lie(tm, x.bracket(y), v)
        assert diff == want, (m_deg, n_deg)


def test_leibniz_property_with_nontrivial_b():
    B = split_algebra(2)
    psi = CharacterPsi(B, [1, 0])
    vm = VermaModule(B, HighestWeight(B, ["1", "0"], ["0", "0"]), 2)
    im = IntModule(IntParams(scalar("1/2"), scalar("1/3"), psi))
    tm = TensorModule(vm, im)
    v = tm.seed(0)
    pairs = [
        (LieElement.d(B, 1, 0), LieElement.d(B, -1, 1)),
        (LieElement.d(B, -1, 0), LieElement.d(B, 2, 1)),
        (LieElement.d(B, 0, 1), LieElement.d(B, -2, 0)),
    ]
    for x, y in pairs:
        lhs = act_lie(tm, x, act_lie(tm, y, v))
        rhs_sub = act_lie(tm, y, act_lie(tm, x, v))
        diff = dict(lhs)
        for key, c in rhs_sub.items():
            s = diff.get(key, ZERO) - c
            if s:
                diff[key] = s
            else:
                diff.pop(key, None)
        want = act_lie(tm, x.bracket(y), v)
        assert diff == want


def test_generation_check_generic():
    tm = make_module(h="1/2", c="0", alpha="1/2", beta="2", depth=2)
    assert tm.generation_check(-4, 4)


def test_generation_check_depth_zero():
    tm = make_module(depth=0)
    assert tm.generation_check(-3, 3)


def test_generation_check_degenerate_pair():
    # (α,β) = (0,0): seeds run over nonzero indices only, and still generate
    vm = VermaModule(TRIV, HighestWeight(TRIV, ["1/2"], ["0"]), 2)
    im = prime_module(0, 0, PSI1)
    tm = TensorModule(vm, im)
    assert im.index_set == INDEX_NONZERO
    assert tm.generation_check(-3, 3)


def _span_of_all_words_contains_truncation(tm, depth, kmin, kmax):
    """Apply every ordered word of d_{-n}⊗e_j with total degree ≤ depth to
    the seeds v_φ⊗v_m, m in [kmin-depth, kmax+depth], and test the span."""
    span = SpanBasis()
    gens = [
        (n, Generator(KIND_D, -n, tm.algebra.basis_elem(j)))
        for n in range(1, depth + 1)
        for j in range(tm.algebra.dim)
    ]

    def walk(vec, used):
        span.add(vec)
        for n, gen in gens:
            if used + n <= depth:
                img = tm.act(gen, vec)
                if img:
                    walk(img, used + n)

    for m in range(kmin - depth, kmax + depth + 1):
        if tm.intermediate.allowed_index(m):
            walk(tm.seed(m), 0)
    return all(
        span.contains({(i, mono, k): ONE})
        for i in range(depth + 1)
        for mono in tm.verma.quotient_monomials(i)
        for k in range(kmin, kmax + 1)
        if tm.intermediate.allowed_index(k)
    )


@pytest.mark.parametrize(
    "algebra, d0, c, psi, alpha, beta, depth",
    [
        # the budget false negative: the seed set of the CLI reproducer
        ("split 2", ["0", "1"], ["0", "0"], ["1", "0"], "1/2", "1/3", 2),
        ("split 2", ["1", "0"], ["1", "-2"], ["0", "1"], "1/2", "1/2", 2),
        ("split 2", ["0", "1"], ["0", "0"], ["1", "0"], "0", "0", 2),
        ("split 2", ["1/2", "1/3"], ["0", "0"], ["1", "0"], "i", "0", 2),
        ("trivial", ["1/2"], ["1"], ["1"], "1/2", "1/3", 3),
        ("trivial", ["0"], ["0"], ["1"], "0", "1", 2),
    ],
)
def test_generation_check_equals_span_of_all_words(algebra, d0, c, psi, alpha, beta, depth):
    B = split_algebra(2) if algebra == "split 2" else TRIV
    vm = VermaModule(B, HighestWeight(B, d0, c), depth)
    im = prime_module(alpha, beta, CharacterPsi(B, psi))
    tm = TensorModule(vm, im)
    want = _span_of_all_words_contains_truncation(tm, depth, -3, 3)
    assert tm.generation_check(-3, 3) == want


def test_act_words_linear_combination():
    tm = make_module()
    from virloop.virasoro import WordSum

    ws = WordSum(TRIV)
    ws.add_word((d_gen(1, TRIV.unit),), scalar(2))
    ws.add_word((d_gen(-1, TRIV.unit), d_gen(1, TRIV.unit)), scalar(-1))
    v = tm.seed(1)
    got = tm.act_words(ws, v)
    a = tm.act(d_gen(1, TRIV.unit), v)
    b = tm.act(d_gen(-1, TRIV.unit), a)
    want = {}
    for key, c in a.items():
        want[key] = scalar(2) * c
    for key, c in b.items():
        s = want.get(key, ZERO) - c
        if s:
            want[key] = s
        else:
            want.pop(key, None)
    assert got == want
