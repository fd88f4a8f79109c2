"""Highest-weight module engine against independent oracles.

Expected matrices below were frozen from the oracle (tests/oracle_dense.py)
after validating it on hand-derived one- and two-factor words.  The
worklist oracle (tests/oracle_worklist.py) checks the engine at small
depths; the Kac determinant checks radicals at depths the worklist
oracle cannot reach in a test budget (trivial B through depth 10), and
`split 2` quotient dimensions are checked as convolutions of the two
Virasoro factors' at depth 6.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_rref
from oracle_dense import DenseOracle, oracle_monomials
from oracle_worklist import form_value, monomial_word, omega_word, worklist_act, worklist_gram
from virloop.coeff_algebra import builtin_algebra, trivial_algebra, truncated_poly
from virloop import linalg
from virloop.linalg import SpanBasis, nullspace
from virloop.scalars import ONE, ZERO, scalar
from virloop.verma import (
    HighestWeight,
    VermaModule,
    normal_order,
    pbw_monomials,
)
from virloop.virasoro import KIND_C, Generator, WordSum, d_gen

TRIV = trivial_algebra()


def hw_c(h, c):
    return HighestWeight(TRIV, [h], [c])


def word(alg, *degrees):
    gens = tuple(d_gen(n, alg.unit) for n in degrees)
    return WordSum(alg, {gens: ONE})


def test_pbw_monomial_counts():
    assert pbw_monomials(1, 2) == [((1, 0), (1, 0)), ((2, 0),)]
    assert len(pbw_monomials(1, 4)) == 5
    assert pbw_monomials(2, 1) == [((1, 0),), ((1, 1),)]
    assert [len(pbw_monomials(2, k)) for k in range(5)] == [1, 2, 5, 10, 20]


def test_pbw_monomials_match_oracle_enumeration():
    for dim in (1, 2):
        for k in range(6):
            assert pbw_monomials(dim, k) == oracle_monomials(dim, k)


def test_normal_order_highest_weight_annihilation():
    hw = hw_c(7, 3)
    assert normal_order(word(TRIV, 1), hw) == {}
    assert normal_order(word(TRIV, 5), hw) == {}


def test_normal_order_one_swap():
    hw = hw_c(7, 3)
    assert normal_order(word(TRIV, 1, -1), hw) == {(): scalar(-14)}


def test_normal_order_central_term():
    hw = hw_c(7, 3)
    assert normal_order(word(TRIV, 2, -2), hw) == {(): scalar("-53/2")}


def test_normal_order_central_factor_strips():
    hw = hw_c(7, 3)
    gens = (Generator(KIND_C, 0, TRIV.unit), d_gen(-1, TRIV.unit))
    got = normal_order(WordSum(TRIV, {gens: ONE}), hw)
    assert got == {((1, 0),): scalar(3)}


def test_normal_order_sorts_negative_factors():
    hw = hw_c(1, 0)
    # d_{-1} d_{-2} = d_{-2} d_{-1} + [d_{-1}, d_{-2}] = d_{-2} d_{-1} - d_{-3}
    got = normal_order(word(TRIV, -1, -2), hw)
    assert got == {((2, 0), (1, 0)): ONE, ((3, 0),): -ONE}


def test_gram_level1_is_minus_two_h():
    for h in ("0", "1", "5/7", "i"):
        vm = VermaModule(TRIV, hw_c(h, 0), 1)
        assert vm.gram(1) == [[scalar(-2) * scalar(h)]]
    assert VermaModule(TRIV, hw_c(0, 0), 1).radical_dim(1) == 1
    assert VermaModule(TRIV, hw_c(1, 0), 1).radical_dim(1) == 0


def test_gram_levels_2_3_frozen_from_oracle():
    vm = VermaModule(TRIV, hw_c(1, 0), 3)
    assert vm.pbw_basis(2) == [((1, 0), (1, 0)), ((2, 0),)]
    assert vm.gram(2) == [
        [scalar(4), scalar(6)],
        [scalar(6), scalar(-4)],
    ]
    assert vm.gram(3) == [
        [scalar(0), scalar(-24), scalar(-24)],
        [scalar(-24), scalar(0), scalar(10)],
        [scalar(-24), scalar(10), scalar(-6)],
    ]
    assert vm.radical_dim(2) == 0
    assert vm.radical_dim(3) == 0


def test_gram_dim2_level1_frozen_from_oracle():
    B = truncated_poly(2)
    hw = HighestWeight(B, ["5", "11"], [0, 0])
    vm = VermaModule(B, hw, 1)
    assert vm.gram(1) == [
        [scalar(-10), scalar(-22)],
        [scalar(-22), scalar(0)],
    ]


def test_engine_matches_oracle_trivial_b():
    samples = [("0", "0"), ("1", "0"), ("1/2", "1/3"), ("i", "2"), ("-3", "1")]
    for h, c in samples:
        vm = VermaModule(TRIV, hw_c(h, c), 4)
        oracle = DenseOracle(TRIV, [h], [c])
        for k in range(5):
            monos, g = oracle.gram(k)
            assert vm.pbw_basis(k) == monos
            assert vm.gram(k) == g


def test_engine_matches_oracle_dim2():
    B = truncated_poly(2)
    hw = HighestWeight(B, ["1", "1/2"], ["2", "0"])
    vm = VermaModule(B, hw, 3)
    oracle = DenseOracle(B, ["1", "1/2"], ["2", "0"])
    for k in range(4):
        monos, g = oracle.gram(k)
        assert vm.pbw_basis(k) == monos
        assert vm.gram(k) == g


def test_engine_matches_oracle_on_word_actions():
    hw = hw_c("1/3", "1/2")
    oracle = DenseOracle(TRIV, ["1/3"], ["1/2"])
    for degrees in [(-1, -1, -2), (2, -1, -2), (1, 1, -2, -1), (-2, 3, -1), (0, -2)]:
        got = normal_order(word(TRIV, *degrees), hw)
        want = oracle.apply_word([(n, 0) for n in degrees], {(): ONE})
        assert got == want, degrees


def test_gram_symmetry_and_contravariance():
    B = truncated_poly(2)
    hw = HighestWeight(B, ["1/2", "3"], ["1", "0"])
    vm = VermaModule(B, hw, 3)
    for k in range(4):
        g = vm.gram(k)
        for i in range(len(g)):
            for j in range(len(g)):
                assert g[i][j] == g[j][i]
    # <d_{-n} u, v> = <u, d_n v> across adjacent levels for all basis pairs
    for n in (1, 2):
        for k in range(0, 4 - n):
            for u in vm.pbw_basis(k):
                uvec = {u: ONE}
                for v in vm.pbw_basis(k + n):
                    lowered = normal_order(
                        WordSum(
                            B,
                            {
                                (d_gen(-n, B.basis_elem(1)),)
                                + monomial_word(B, u): ONE
                            },
                        ),
                        hw,
                    )
                    raised = normal_order(
                        WordSum(
                            B,
                            {
                                (d_gen(n, B.basis_elem(1)),)
                                + monomial_word(B, v): ONE
                            },
                        ),
                        hw,
                    )
                    lhs = form_value(vm, k + n, lowered, {v: ONE})
                    rhs = form_value(vm, k, uvec, raised)
                    assert lhs == rhs


def test_radical_stability_under_raising():
    # at h=0, c=0 the whole module below level 0 is radical; check d_1, d_2 keep it so
    vm = VermaModule(TRIV, hw_c(0, 0), 4)
    for k in range(1, 5):
        for rad in vm.radical_basis(k):
            for n in (1, 2):
                if k - n < 0:
                    continue
                target, res = vm.act_on_vphi(d_gen(n, TRIV.unit), k, rad)
                assert res == {}, (k, n)


def test_radical_stability_generic_dim2():
    B = truncated_poly(2)
    hw = HighestWeight(B, ["1", "0"], ["0", "0"])
    vm = VermaModule(B, hw, 3)
    found_any = False
    for k in range(1, 4):
        for rad in vm.radical_basis(k):
            found_any = True
            for n in (1, 2):
                if k - n < 0:
                    continue
                for j in range(B.dim):
                    gen = Generator("d", n, B.basis_elem(j))
                    lowered: dict = {}
                    for mono, c in rad.items():
                        w = WordSum(B, {(gen,) + monomial_word(B, mono): c})
                        for m2, c2 in normal_order(w, hw).items():
                            s = lowered.get(m2, ZERO) + c2
                            if s:
                                lowered[m2] = s
                            else:
                                lowered.pop(m2, None)
                    assert vm.is_radical(k - n, lowered)
    assert found_any


def test_vphi_reduce_examples():
    vm = VermaModule(TRIV, hw_c(0, 0), 2)
    assert vm.vphi_reduce(1, {((1, 0),): ONE}) == {}
    vm2 = VermaModule(TRIV, hw_c(1, 0), 2)
    for mono in vm2.quotient_monomials(2):
        assert vm2.vphi_reduce(2, {mono: ONE}) == {mono: ONE}
    for rad in vm2.radical_basis(2):
        assert vm2.vphi_reduce(2, rad) == {}


def test_vphi_dims_account_for_radical():
    vm = VermaModule(TRIV, hw_c(0, 0), 3)
    for k in range(4):
        assert vm.vphi_dim(k) + vm.radical_dim(k) == len(vm.pbw_basis(k))
    assert vm.vphi_dim(0) == 1


def test_act_on_vphi_weight_scaling():
    vm = VermaModule(TRIV, hw_c("1/2", "1/3"), 3)
    d0 = d_gen(0, TRIV.unit)
    for k in range(4):
        for mono in vm.quotient_monomials(k):
            target, res = vm.act_on_vphi(d0, k, {mono: ONE})
            assert target == k
            want = {
                m: (scalar("1/2") - scalar(k)) * c
                for m, c in vm.vphi_reduce(k, {mono: ONE}).items()
            }
            want = {m: c for m, c in want.items() if c}
            assert res == want


def test_act_on_vphi_highest_weight_and_central():
    vm = VermaModule(TRIV, hw_c("1/2", "1/3"), 2)
    target, res = vm.act_on_vphi(d_gen(1, TRIV.unit), 0, {(): ONE})
    assert res == {}
    target, res = vm.act_on_vphi(Generator(KIND_C, 0, TRIV.unit), 2, {((1, 0), (1, 0)): ONE})
    assert target == 2
    want = vm.vphi_reduce(2, {((1, 0), (1, 0)): scalar("1/3")})
    assert res == want


def test_act_on_vphi_depth_guard():
    lower = d_gen(-1, TRIV.unit)
    with pytest.raises(ValueError, match="beyond depth"):
        VermaModule(TRIV, hw_c(1, 0), 2).act_on_vphi(lower, 2, {((2, 0),): ONE})
    target, res = VermaModule(TRIV, hw_c(1, 0), 3).act_on_vphi(lower, 2, {((2, 0),): ONE})
    assert target == 3 and res


def test_deeper_build_keeps_lower_levels():
    # Kac (1,2) at t = 2: the radical starts at level 2, so the radicals compared are not empty
    shallow = VermaModule(TRIV, hw_c("1/8", "-2"), 2)
    deep = VermaModule(TRIV, hw_c("1/8", "-2"), 4)
    assert deep.depth == 4 and len(deep.pbw_basis(4)) == 5
    assert shallow.radical_dim(2) == 1
    for k in range(3):
        assert deep.gram(k) == shallow.gram(k)
        assert deep.radical_basis(k) == shallow.radical_basis(k)


WORKLIST_CASES = [
    ("trivial", 4, ["1/2"], ["1/3"]),
    ("trivial", 4, ["1/8"], ["-2"]),  # Kac (1,2) at t = 2: radical from level 2
    ("split 2", 3, ["0", "1"], ["0", "0"]),
    ("split 2", 3, ["1/2", "i"], ["1", "-2"]),
    ("truncated-poly 3", 3, ["1", "1/2", "0"], ["2", "0", "1/3"]),
    ("cyclic-group 3", 3, ["1/2", "1", "-1"], ["1/3", "0", "1"]),
]


@pytest.mark.parametrize("name,depth,d0,c", WORKLIST_CASES)
def test_engine_matches_worklist_oracle(name, depth, d0, c):
    algebra = builtin_algebra(name)
    hw = HighestWeight(algebra, d0, c)
    vm = VermaModule(algebra, hw, depth)
    for k in range(depth + 1):
        assert vm.gram(k) == worklist_gram(hw, k), k
    gens = [Generator(KIND_C, 0, algebra.unit), d_gen(-1, algebra.unit)]
    gens += [
        d_gen(n, algebra.basis_elem(j))
        for n in range(-depth, depth + 1)
        for j in range(algebra.dim)
    ]
    for k in range(depth + 1):
        for mono in vm.pbw_basis(k):
            for gen in gens:
                target = k - gen.degree
                if target < 0 or target > depth:
                    continue
                want = vm.vphi_reduce(target, worklist_act(hw, gen, mono))
                assert vm.act_on_vphi(gen, k, {mono: ONE}) == (target, want), (k, mono, gen)


@pytest.mark.parametrize(
    "name,depth,d0,c",
    WORKLIST_CASES + [("trivial", 8, ["-3/8"], ["-2"])],  # Kac (2,2) at t = 2: nullity 1-5 at levels 4-8
)
def test_radical_basis_equals_incremental_span_of_kernel(name, depth, d0, c):
    algebra = builtin_algebra(name)
    vm = VermaModule(algebra, HighestWeight(algebra, d0, c), depth)
    for k in range(depth + 1):
        monos = vm.pbw_basis(k)
        span = SpanBasis()
        for ker in nullspace(vm.gram(k)):
            span.add({monos[i]: x for i, x in enumerate(ker) if x})
        assert vm.radical_basis(k) == span.vectors(), k
        assert vm.quotient_monomials(k) == [m for m in monos if m not in span.pivots()], k


def _whole_rref(m):
    """RREF rows and pivots from one elimination of the unsplit scaled matrix."""
    ncols = len(m[0])
    re_rows, im_rows, pivots, d = linalg._echelon(*linalg._scaled(m), ncols)
    rows = [[linalg._entry(re_rows, im_rows, r, c, d) for c in range(ncols)] for r in range(len(pivots))]
    return rows, pivots


@pytest.mark.parametrize(
    "d0,c,depth",
    [
        (["-3/8", "-3/8"], ["-2", "-2"], 7),  # both idempotents on the Kac (2,2) line
        (["-3/8", "0"], ["-2", "-7"], 8),  # one factor degenerate at level 4, the other at level 1
    ],
)
def test_split2_kac_radical_equals_whole_matrix_elimination(d0, c, depth):
    algebra = builtin_algebra("split 2")
    vm = VermaModule(algebra, HighestWeight(algebra, d0, c), depth)
    for k in range(depth + 1):
        gram, monos = vm.gram(k), vm.pbw_basis(k)
        rows, pivots = _whole_rref(gram)
        kernel = []
        for f in (f for f in range(len(monos)) if f not in pivots):
            vec = [ZERO] * len(monos)
            vec[f] = ONE
            for r, p in enumerate(pivots):
                vec[p] = -rows[r][f]
            kernel.append(vec)
        assert nullspace(gram) == kernel, k
        radical = _whole_rref(kernel)[0] if kernel else []
        assert vm.radical_basis(k) == [{monos[i]: x for i, x in enumerate(row) if x} for row in radical], k


I = scalar("i")


@pytest.mark.parametrize(
    "name, depth, chi, h, c",
    [
        ("truncated-poly 3", 4, [1, 0, 0], "-1/8", "-2"),  # h_{1,2} at t = 2
        ("truncated-poly 3", 3, [1, 0, 0], "-1/3", "-7"),  # h_{1,3} at t = 3
        ("cyclic-group 3", 4, [1, 1, 1], "3/8", "-2"),  # h_{2,2} at t = 2
        ("cyclic-group 3", 3, [1, 1, 1], "1", "-2"),  # h_{2,1} at t = 2
        ("cyclic-group 4", 4, [ONE, I, -ONE, -I], "1", "-2"),  # a Q(i) character: complex Bareiss
    ],
    ids=["truncated-poly-3-h12", "truncated-poly-3-h13", "cyclic-group-3-h22", "cyclic-group-3-h21", "cyclic-group-4-qi"],
)
def test_radical_basis_is_rref_of_gram_kernel_across_families(name, depth, chi, h, c):
    # φ = (c, −h) composed with the character chi of B, as in the levels
    # benchmark's Kac jobs: V(φ) is the Virasoro irreducible V(c, h), so
    # almost every monomial lies in the radical
    algebra = builtin_algebra(name)
    d0, cc = [-scalar(h) * x for x in chi], [scalar(c) * x for x in chi]
    vm = VermaModule(algebra, HighestWeight(algebra, d0, cc), depth)
    for k in range(depth + 1):
        kernel = oracle_rref.nullspace(vm.gram(k))
        rows = oracle_rref.rref(kernel)[0] if kernel else []
        monos = vm.pbw_basis(k)
        assert vm.radical_basis(k) == [{monos[i]: x for i, x in enumerate(row) if x} for row in rows], k


def test_upper_triangle_gram_matches_dense_oracle_split2():
    algebra = builtin_algebra("split 2")
    d0, c = ["1/2", "3"], ["1", "-2"]
    vm = VermaModule(algebra, HighestWeight(algebra, d0, c), 4)
    oracle = DenseOracle(algebra, d0, c)
    for k in range(5):
        monos, g = oracle.gram(k)
        assert vm.pbw_basis(k) == monos
        assert vm.gram(k) == g


def _kac_h(r, s, t):
    """h_{r,s}(t) = (r²-1)t/4 + (s²-1)/(4t) - (rs-1)/2, with c = 13 - 6(t + 1/t)."""
    return Fraction(r * r - 1) * t / 4 + Fraction(s * s - 1) / (4 * t) - Fraction(r * s - 1, 2)


KAC_T = Fraction(2)
KAC_C = 13 - 6 * (KAC_T + 1 / KAC_T)


@pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (2, 1), (3, 1), (2, 2)])
def test_kac_degenerate_radical_first_appears_at_rs(r, s):
    # d_n = -L_n, so φ(d_0) = -h and φ(C) = c
    hw = hw_c(str(-_kac_h(r, s, KAC_T)), str(KAC_C))
    vm = VermaModule(TRIV, hw, 8)
    for k in range(r * s):
        assert vm.radical_dim(k) == 0, k
    assert vm.radical_dim(r * s) > 0


def test_kac_generic_weight_has_no_radical_through_level_8():
    h = Fraction(-1, 2)
    kac_zeros = {_kac_h(r, s, KAC_T) for r in range(1, 9) for s in range(1, 9 // r + 1)}
    assert h not in kac_zeros
    vm = VermaModule(TRIV, hw_c(str(-h), str(KAC_C)), 8)
    assert [vm.radical_dim(k) for k in range(9)] == [0] * 9


def _first_kac_level(h, t, depth):
    """Smallest rs <= depth with h_{r,s}(t) = h: the first level where the Kac determinant vanishes."""
    zeros = [r * s for r in range(1, depth + 1) for s in range(1, depth // r + 1) if _kac_h(r, s, t) == h]
    return min(zeros, default=None)


WIDE_T = Fraction(3)
WIDE_C = 13 - 6 * (WIDE_T + 1 / WIDE_T)


@pytest.mark.parametrize("r,s", [(1, 9), (3, 3), (5, 2), (10, 1)])
def test_kac_radical_first_appears_at_rs_depth_10(r, s):
    h = _kac_h(r, s, WIDE_T)
    assert _first_kac_level(h, WIDE_T, 10) == r * s
    vm = VermaModule(TRIV, hw_c(str(-h), str(WIDE_C)), 10)
    radical = [vm.radical_dim(k) for k in range(11)]
    assert radical[: r * s] == [0] * (r * s)
    assert radical[r * s] > 0


def test_split2_quotient_dims_are_convolution_of_virasoro_factors():
    # V(φ) for split 2 is the tensor product of one Virasoro quotient per idempotent
    factors = [(-_kac_h(1, 2, KAC_T), KAC_C), (-_kac_h(3, 1, WIDE_T), WIDE_C)]
    assert _first_kac_level(-factors[0][0], KAC_T, 6) == 2
    assert _first_kac_level(-factors[1][0], WIDE_T, 6) == 3
    per_factor = [
        [VermaModule(TRIV, hw_c(str(d0), str(c)), 6).vphi_dim(k) for k in range(7)]
        for d0, c in factors
    ]
    split = builtin_algebra("split 2")
    hw = HighestWeight(split, [str(d0) for d0, _ in factors], [str(c) for _, c in factors])
    vm = VermaModule(split, hw, 6)
    expected = [sum(per_factor[0][a] * per_factor[1][k - a] for a in range(k + 1)) for k in range(7)]
    assert [vm.vphi_dim(k) for k in range(7)] == expected
    assert expected != [len(pbw_monomials(2, k)) for k in range(7)]  # both factors degenerate


def test_quotient_irreducibility_generic():
    vm = VermaModule(TRIV, hw_c(1, 0), 3)
    assert vm.quotient_irreducibility_check()


def test_quotient_irreducibility_degenerate_phi():
    # φ = 0: V(φ) is the trivial module; the check is vacuous above level 0
    vm = VermaModule(TRIV, hw_c(0, 0), 3)
    for k in range(1, 4):
        assert vm.vphi_dim(k) == 0
    assert vm.quotient_irreducibility_check()


# -- the two-sided radical certificate on constructed defects -------------------------


def _set_radical(vm, k, vectors):
    """Replace level k's radical by the given echelon rows, and its quotient basis to match."""
    lv = vm._levels[k]
    lv.radical = SpanBasis.from_echelon(vectors)
    lv.quotient_monomials = [m for m in lv.monomials if m not in lv.radical.pivots()]


def test_quotient_irreducibility_fails_with_every_radical_emptied():
    # h_{1,2} at c = -2: the level-2 singular vector is a combination of monomials,
    # each of which alone still generates the top
    vm = VermaModule(TRIV, hw_c(-1, -2), 4)
    assert [vm.radical_dim(k) for k in range(5)] == [0, 0, 1, 1, 2]
    assert vm.quotient_irreducibility_check()
    for k in range(5):
        _set_radical(vm, k, [])
    assert not vm.quotient_irreducibility_check()


def test_quotient_irreducibility_fails_with_a_spurious_radical_vector():
    vm = VermaModule(TRIV, hw_c("1/2", "1/3"), 4)
    assert vm.radical_dim(3) == 0
    _set_radical(vm, 3, [{vm.pbw_basis(3)[1]: ONE}])
    assert not vm.quotient_irreducibility_check()


def test_quotient_irreducibility_fails_with_a_radical_vector_dropped():
    # Kac (2,2) at t = 2: the radical first appears at level 4, one vector wide
    vm = VermaModule(TRIV, hw_c("-3/8", "-2"), 6)
    assert [vm.radical_dim(k) for k in range(7)] == [0, 0, 0, 0, 1, 1, 2]
    _set_radical(vm, 4, [])
    assert not vm.quotient_irreducibility_check()


# -- closed forms beyond the dense oracle, each with a passing certificate ----------------


@pytest.mark.parametrize(
    "d0_t, c_w, radical",
    [
        ("0", "6", [0, 1, 3, 6, 13, 25, 46]),
        ("3/2", "12", [0, 0, 1, 2, 5, 10, 20]),
        ("4", "12", [0, 0, 0, 1, 2, 5, 10]),
    ],
)
def test_w22_radical_first_appears_at_zhang_dong_level(d0_t, c_w, radical):
    # truncated-poly 2 is W(2,2) (Zhang-Dong, Commun. Math. Phys. 285, 2009): with
    # h_W = -φ(d_0⊗t) and c_W = φ(C⊗t) != 0, the radical first appears at the least
    # p >= 1 with 2 h_W + (p² - 1) c_W / 12 = 0
    h_w, c = -Fraction(d0_t), Fraction(c_w)
    p = next(p for p in range(1, 7) if 2 * h_w + (p * p - 1) * c / 12 == 0)
    assert radical.index(next(d for d in radical if d)) == p
    algebra = truncated_poly(2)
    vm = VermaModule(algebra, HighestWeight(algebra, ["1/2", d0_t], ["1/3", c_w]), 6)
    assert [vm.radical_dim(k) for k in range(7)] == radical
    assert vm.quotient_irreducibility_check()


def test_kac_22_certificate_at_depth_12():
    vm = VermaModule(TRIV, hw_c("-3/8", "-2"), 12)
    assert [vm.radical_dim(k) for k in range(13)] == [0, 0, 0, 0, 1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert vm.quotient_irreducibility_check()


def test_cyclic_group2_certificate_and_convolution_at_depth_7():
    # on the idempotents (1 ± g)/2 this φ is Kac (2,2) at t = 2 twice, so V(φ) is
    # that Virasoro quotient tensored with itself
    factor = [VermaModule(TRIV, hw_c("-3/8", "-2"), 7).vphi_dim(k) for k in range(8)]
    algebra = builtin_algebra("cyclic-group 2")
    vm = VermaModule(algebra, HighestWeight(algebra, ["-3/4", "0"], ["-4", "0"]), 7)
    assert [vm.vphi_dim(k) for k in range(8)] == [
        sum(factor[a] * factor[k - a] for a in range(k + 1)) for k in range(8)
    ]
    assert vm.radical_dim(4) > 0
    assert vm.quotient_irreducibility_check()


def test_omega_word_reverses_and_raises():
    mono = ((2, 1), (1, 0))
    B = truncated_poly(2)
    w = omega_word(B, mono)
    assert [g.degree for g in w] == [1, 2]
    assert [g.bcoef for g in w] == [B.basis_elem(0), B.basis_elem(1)]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_word_grouping_consistency(data):
    # normal ordering is independent of how a product was grouped
    hw = hw_c("1/2", "1/3")
    degrees = data.draw(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3)
    )
    u, v, w = (word(TRIV, n) for n in degrees)
    left = (u * v) * w
    right = u * (v * w)
    assert left.words == right.words
    assert normal_order(left, hw) == normal_order(right, hw)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_normal_order_matches_oracle_random_words(data):
    hw = hw_c("2/3", "1/5")
    oracle = DenseOracle(TRIV, ["2/3"], ["1/5"])
    degrees = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
    got = normal_order(word(TRIV, *degrees), hw)
    want = oracle.apply_word([(n, 0) for n in degrees], {(): ONE})
    assert got == want
