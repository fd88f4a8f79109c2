"""Probe certificates: separating operators, depth reduction, ladders, isomorphism."""

import hashlib
import json
import math
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from virloop.coeff_algebra import (
    CharacterPsi,
    cyclic_group_algebra,
    split_algebra,
    trivial_algebra,
    truncated_poly,
)
from virloop import probes
from virloop.intermediate import IntModule, IntParams, prime_module
from virloop.probes import (
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_UNSATISFIABLE,
    depth_reduction_probe,
    dump_json,
    endo_operator,
    endo_probe,
    find_probe_n,
    iso_check,
    iso_differences,
    iso_poly_coeffs,
    iso_poly_identity_check,
    iso_signature,
    psi_separation,
    pure_tensor_ladder_check,
    replay_certificate,
    separating_vector,
)
from virloop.scalars import ONE, ZERO, scalar
from virloop.tensor_product import TensorModule
from virloop.verma import HighestWeight, VermaModule


def tensor_over_c(h, c, alpha, beta, depth):
    algebra = trivial_algebra()
    hw = HighestWeight(algebra, [h], [c])
    vm = VermaModule(algebra, hw, depth)
    psi = CharacterPsi(algebra, [1])
    inter = IntModule(IntParams(scalar(alpha), scalar(beta), psi))
    return TensorModule(vm, inter)


def tensor_over_split2(phi_d0, phi_c, psi_vals, alpha, beta, depth):
    algebra = split_algebra(2)
    hw = HighestWeight(algebra, phi_d0, phi_c)
    vm = VermaModule(algebra, hw, depth)
    psi = CharacterPsi(algebra, psi_vals)
    inter = IntModule(IntParams(scalar(alpha), scalar(beta), psi))
    return TensorModule(vm, inter)


# -- find_probe_n ------------------------------------------------------------------


def test_find_probe_n_k0():
    assert find_probe_n(Fraction(1, 2), 2, 0, 0) == 1


def test_find_probe_n_degenerate():
    assert find_probe_n(0, 0, 0, 0) is None


def test_find_probe_n_beta_one_scan():
    # with beta = 1 every condition holds at every n, so the scan returns k+1
    assert find_probe_n(Fraction(1, 3), 1, 0, 2) == 3


def test_find_probe_n_nonzero_targets():
    # alpha = beta = 0, m = -5, k = 1: n = 2 passes the coefficient conditions
    # but sends level 1 to intermediate index m+1+2n = 0; the flagged scan
    # must skip to n = 3
    assert find_probe_n(0, 0, -5, 1) == 2
    assert find_probe_n(0, 0, -5, 1, require_nonzero_targets=True) == 3


def test_find_probe_n_degenerate_comparison():
    # alpha = beta = 0 and i = -m makes the i-th comparison an identity in n
    assert find_probe_n(0, 0, -1, 1) is None


# -- endo_probe --------------------------------------------------------------------


def test_endo_operator_kills_seed_exactly():
    tensor = tensor_over_c(1, 0, Fraction(1, 2), 2, 2)
    w = endo_operator(tensor.algebra, Fraction(1, 2), 2, 0, 3)
    assert not tensor.act_words(w, tensor.seed(0))


def test_endo_image_matches_closed_formula():
    # for n > i the image of x (x) v_{m+i} is x (x) v_{m+i+2n} scaled by
    # (a+m+i+2nb) - (a+m+2nb)(a+m+i+nb)(a+m+i+n+nb)/((a+m+nb)(a+m+n+nb))
    alpha, beta, m = scalar(Fraction(1, 2)), scalar(2), 0
    tensor = tensor_over_c(1, 0, alpha, beta, 2)
    n = find_probe_n(alpha, beta, m, 2)
    w = endo_operator(tensor.algebra, alpha, beta, m, n)
    base = (alpha + m + n * beta) * (alpha + m + n + n * beta)
    for i in (1, 2):
        expect_c = (alpha + m + i + 2 * n * beta) - (
            (alpha + m + 2 * n * beta)
            * (alpha + m + i + n * beta)
            * (alpha + m + i + n + n * beta)
        ) / base
        for mono in tensor.verma.quotient_monomials(i):
            got = tensor.act_words(w, {(i, mono, m + i): ONE})
            assert got == {(i, mono, m + i + 2 * n): expect_c}
        assert expect_c


def test_endo_probe_rank_over_c():
    tensor = tensor_over_c(1, 0, Fraction(1, 2), 2, 2)
    cert = endo_probe(tensor, 0, 2)
    assert cert.status == STATUS_PASS
    assert cert.facts["independence_rank"] == 3
    assert cert.facts["expected_rank"] == 3
    assert cert.facts["seed_annihilated"] is True


def test_endo_probe_vacuous_depth_zero():
    tensor = tensor_over_c(1, 0, Fraction(1, 2), 2, 0)
    cert = endo_probe(tensor, 4, 0)
    assert cert.status == STATUS_PASS
    assert cert.facts["independence_rank"] == 0


def test_endo_probe_rejects_excluded_index():
    algebra = trivial_algebra()
    hw = HighestWeight(algebra, [1], [0])
    vm = VermaModule(algebra, hw, 1)
    inter = prime_module(0, 0, CharacterPsi(algebra, [1]))
    tensor = TensorModule(vm, inter)
    cert = endo_probe(tensor, 0, 1)
    assert cert.status == STATUS_UNSATISFIABLE
    assert "outside" in cert.reasons[0]


def test_endo_probe_degenerate_parameters():
    algebra = trivial_algebra()
    hw = HighestWeight(algebra, [1], [0])
    vm = VermaModule(algebra, hw, 1)
    inter = prime_module(0, 0, CharacterPsi(algebra, [1]))
    tensor = TensorModule(vm, inter)
    cert = endo_probe(tensor, -1, 1)
    assert cert.status == STATUS_UNSATISFIABLE
    assert "degenerate" in cert.reasons[0]


def test_endo_probe_replay_and_tamper():
    tensor = tensor_over_c(1, 0, Fraction(1, 2), 2, 2)
    cert = endo_probe(tensor, 0, 2)
    assert replay_certificate(cert, tensor)
    data = json.loads(cert.to_json())
    assert replay_certificate(data, tensor)
    data["applications"][1]["output"][0][3] = "7"
    assert not replay_certificate(data, tensor)


def test_endo_probe_split_algebra():
    tensor = tensor_over_split2([1, 2], [0, 0], [1, 0], Fraction(1, 3), 3, 2)
    cert = endo_probe(tensor, -1, 2)
    assert cert.status == STATUS_PASS
    expected = tensor.verma.vphi_dim(1) + tensor.verma.vphi_dim(2)
    assert cert.facts["independence_rank"] == expected


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(
        lambda f: f.denominator != 1
    ),
    beta=st.sampled_from([2, 3, Fraction(1, 2), Fraction(-1, 3)]),
    m=st.integers(min_value=-3, max_value=3),
    k=st.integers(min_value=0, max_value=2),
)
def test_endo_probe_generic_pass(alpha, beta, m, k):
    tensor = tensor_over_c(1, 0, alpha, beta, 2)
    cert = endo_probe(tensor, m, k)
    assert cert.status == STATUS_PASS
    assert cert.facts["independence_rank"] == cert.facts["expected_rank"]


# -- depth_reduction_probe ---------------------------------------------------------


def test_depth_reduction_case1_frozen():
    # h=1, alpha=1/2, beta=2, w = (d_{-1} v_phi) (x) v_1: the first scanned
    # degree l=3 gives X.w = (330/91) v_phi (x) v_3, derived by hand from
    # d_1 d_{-1} v_phi = -2 v_phi and the two ladder coefficients
    tensor = tensor_over_c(1, 0, Fraction(1, 2), 2, 1)
    w_vec = tensor.vector({(1, ((1, 0),), 1): 1})
    cert = depth_reduction_probe(tensor, "I", [1], 0, 1, w_vec)
    assert cert.status == STATUS_PASS
    assert cert.facts["l"] == 3
    assert cert.facts["top_depth_out"] == 0
    assert cert.applications[1]["output"] == [[0, [], 3, "330/91"]]
    assert replay_certificate(cert, tensor)


def test_depth_reduction_case2_frozen():
    # beta=0, alpha=1/2, h=1: l=3 gives X.w = (14/15) v_phi (x) v_6
    tensor = tensor_over_c(1, 0, Fraction(1, 2), 0, 1)
    w_vec = tensor.vector({(1, ((1, 0),), 1): 1})
    cert = depth_reduction_probe(tensor, "II", [1], 0, 1, w_vec)
    assert cert.status == STATUS_PASS
    assert cert.facts["l"] == 3
    assert cert.applications[1]["output"] == [[0, [], 6, "14/15"]]


def test_depth_reduction_mixed_depths():
    # w with components at levels 0, 1, 2 and top depth 2
    tensor = tensor_over_c(1, 0, Fraction(1, 2), 2, 2)
    w_vec = tensor.vector(
        {
            (0, (), -1): 1,
            (1, ((1, 0),), 0): 2,
            (2, ((2, 0),), 1): 1,
        }
    )
    cert = depth_reduction_probe(tensor, "I", [1], -1, 2, w_vec)
    assert cert.status == STATUS_PASS
    assert cert.facts["top_depth_out"] < 2
    assert replay_certificate(cert, tensor)


def test_depth_reduction_case_hypotheses():
    tensor_b2 = tensor_over_c(1, 0, Fraction(1, 2), 2, 1)
    w_vec = tensor_b2.vector({(1, ((1, 0),), 1): 1})
    cert = depth_reduction_probe(tensor_b2, "II", [1], 0, 1, w_vec)
    assert cert.status == STATUS_UNSATISFIABLE
    assert any("beta == 0" in r for r in cert.reasons)

    tensor_b0 = tensor_over_c(1, 0, Fraction(1, 2), 0, 1)
    w0 = tensor_b0.vector({(1, ((1, 0),), 1): 1})
    cert = depth_reduction_probe(tensor_b0, "I", [1], 0, 1, w0)
    assert cert.status == STATUS_UNSATISFIABLE

    tensor_int = tensor_over_c(1, 0, 2, 0, 1)
    wi = tensor_int.vector({(1, ((1, 0),), 1): 1})
    cert = depth_reduction_probe(tensor_int, "II", [1], 0, 1, wi)
    assert cert.status == STATUS_UNSATISFIABLE
    assert any("integer" in r for r in cert.reasons)


def test_depth_reduction_input_validation():
    tensor = tensor_over_c(1, 0, Fraction(1, 2), 2, 1)
    # not a weight vector: offsets 0 and 2 mixed
    mixed = tensor.vector({(1, ((1, 0),), 1): 1, (0, (), 2): 1})
    cert = depth_reduction_probe(tensor, "I", [1], 0, 1, mixed)
    assert cert.status == STATUS_UNSATISFIABLE
    assert any("weight vector" in r for r in cert.reasons)
    # top depth mismatch
    shallow = tensor.vector({(0, (), 0): 1})
    cert = depth_reduction_probe(tensor, "I", [1], 0, 1, shallow)
    assert cert.status == STATUS_UNSATISFIABLE
    # zero vector
    cert = depth_reduction_probe(tensor, "I", [1], 0, 1, {})
    assert cert.status == STATUS_UNSATISFIABLE


def test_depth_reduction_dichotomy_rejection():
    # x = (3 d_{-1}^2 - 2 d_{-2}) v~ at h=1 satisfies d_1 x = 0, d_2 x = 26 v~,
    # so the d_1-route hypothesis fails while the mirrored route stays open
    tensor = tensor_over_c(1, 0, Fraction(1, 2), 2, 2)
    w_vec = tensor.vector({(2, ((1, 0), (1, 0)), 2): 3, (2, ((2, 0),), 2): -2})
    assert w_vec
    cert = depth_reduction_probe(tensor, "I", [1], 0, 2, w_vec)
    assert cert.status == STATUS_UNSATISFIABLE
    assert any("d_1" in r and "d_2" in r for r in cert.reasons)


# -- ladder certificate ------------------------------------------------------------


def ladder_scenario(depth=1, alpha=Fraction(1, 2), beta=Fraction(1, 3), phi_d0=(0, 1)):
    return tensor_over_split2(list(phi_d0), [0, 0], [1, 0], alpha, beta, depth)


def test_ladder_pass_split_scenario():
    tensor = ladder_scenario()
    b = tensor.algebra.basis_elem(0)
    cert = pure_tensor_ladder_check(tensor, b, -2, 2)
    assert cert.status == STATUS_PASS
    assert cert.facts["stage_a"]["in_radical"] is True
    assert cert.facts["stage_a"]["killed_by_degree_1_and_2"] is True
    assert cert.facts["stage_a"]["radical_dim_level_1"] == 1
    assert cert.facts["stage_b"]["identities_hold"] is True
    assert cert.facts["stage_b"]["coefficients_up"][0] == "5/6"
    assert cert.facts["stage_c"]["spans_coincide"] is True
    assert replay_certificate(cert, tensor)


def test_ladder_hypothesis_psi_zero():
    tensor = ladder_scenario()
    b = tensor.algebra.basis_elem(1)
    cert = pure_tensor_ladder_check(tensor, b, -2, 2)
    assert cert.status == STATUS_UNSATISFIABLE
    assert any("psi(b) = 0" in r for r in cert.reasons)


def test_ladder_hypothesis_integrality():
    tensor = ladder_scenario(alpha=Fraction(2, 3))
    b = tensor.algebra.basis_elem(0)
    cert = pure_tensor_ladder_check(tensor, b, -2, 2)
    assert cert.status == STATUS_UNSATISFIABLE
    assert any("alpha+beta" in r for r in cert.reasons)


def test_ladder_hypothesis_ideal_vanishing():
    tensor = ladder_scenario(phi_d0=(1, 1))
    b = tensor.algebra.basis_elem(0)
    cert = pure_tensor_ladder_check(tensor, b, -2, 2)
    assert cert.status == STATUS_UNSATISFIABLE
    assert any("does not kill" in r for r in cert.reasons)


def test_ladder_truncated_poly_forced_psi():
    # over C[t]/(t^2) the only character kills t, so b = t can never work
    algebra = truncated_poly(2)
    hw = HighestWeight(algebra, [1, 0], [0, 0])
    vm = VermaModule(algebra, hw, 1)
    psi = CharacterPsi(algebra, [1, 0])
    inter = IntModule(IntParams(scalar(Fraction(1, 2)), scalar(Fraction(1, 3)), psi))
    tensor = TensorModule(vm, inter)
    cert = pure_tensor_ladder_check(tensor, algebra.basis_elem(1), -1, 1)
    assert cert.status == STATUS_UNSATISFIABLE
    assert any("psi(b) = 0" in r for r in cert.reasons)


# -- psi separation ----------------------------------------------------------------


def test_separating_vector_projections():
    algebra = split_algebra(2)
    psi1 = CharacterPsi(algebra, [1, 0])
    psi2 = CharacterPsi(algebra, [0, 1])
    b, direction = separating_vector(algebra, psi1, psi2)
    assert direction == 1
    assert psi1.of(b) == ZERO and psi2.of(b) != ZERO


def test_separating_vector_equal():
    algebra = split_algebra(2)
    psi1 = CharacterPsi(algebra, [1, 0])
    assert separating_vector(algebra, psi1, psi1) is None


def test_separating_vector_group_characters():
    algebra = cyclic_group_algebra(4)
    psi1 = CharacterPsi(algebra, [1, 1, 1, 1])
    psi2 = CharacterPsi(algebra, ["1", "i", "-1", "-i"])
    assert psi1.check() and psi2.check()
    b, _direction = separating_vector(algebra, psi1, psi2)
    assert (psi1.of(b) == ZERO) != (psi2.of(b) == ZERO)


def test_psi_separation_equal():
    t1 = tensor_over_split2([1, 0], [0, 0], [1, 0], Fraction(1, 2), 2, 1)
    t2 = tensor_over_split2([0, 1], [0, 0], [1, 0], Fraction(1, 3), 3, 1)
    cert = psi_separation(t1, t2, (-1, 1))
    assert cert.status == STATUS_PASS
    assert cert.facts["equal"] is True


def test_psi_separation_projections():
    t1 = tensor_over_split2([1, 2], [0, 0], [1, 0], Fraction(1, 2), Fraction(1, 3), 1)
    t2 = tensor_over_split2([1, 2], [0, 0], [0, 1], Fraction(1, 3), 2, 1)
    cert = psi_separation(t1, t2, (-2, 2), num_l=5)
    assert cert.status == STATUS_PASS
    assert cert.facts["witness"] == ["0", "1"]
    assert cert.facts["killed_module"] == 1
    assert cert.facts["degrees"] == [2, 3, 4, 5, 6]
    assert cert.facts["annihilation"] is True
    assert cert.facts["nonannihilation"] is True
    # 3 quotient vectors (levels 0..1) x 5 window indices x 5 degrees
    assert cert.facts["killed_vectors_checked"] == 75
    assert replay_certificate(cert, t1, t2)


def test_psi_separation_beta_zero_live_side():
    # live module has beta=0; the nonvanishing uses alpha+k != 0
    t1 = tensor_over_split2([1, 0], [0, 0], [1, 0], Fraction(1, 2), 2, 1)
    t2 = tensor_over_split2([1, 0], [0, 0], [0, 1], Fraction(1, 3), 0, 1)
    cert = psi_separation(t1, t2, (-1, 1), k=2)
    assert cert.status == STATUS_PASS
    assert cert.facts["seed_index"] == 2


# -- isomorphism classification -----------------------------------------------------


def test_iso_poly_coeffs_equal_parameters():
    coeffs = iso_poly_coeffs(Fraction(1, 2), 3, Fraction(1, 2), 3)
    assert all(c == ZERO for c in coeffs)


def test_iso_poly_coeffs_frozen_samples():
    c_mnsum, c_lin, c_mn, c_sq, c_const = iso_poly_coeffs(1, 2, 1, 3)
    assert c_mnsum == scalar(-6)
    coeffs = iso_poly_coeffs(1, 0, 2, 0)
    assert [str(c) for c in coeffs] == ["0", "0", "0", "0", "2"]


def test_iso_identity_independent_spot_check():
    # A=1, Q=2, b1=b2=0, m=n=1: lhs = A(A+1)Q = 4, rhs = A*Q*(Q+1) = 6,
    # so the difference is 2 = c_const, evaluated longhand
    A, Q = scalar(1), scalar(2)
    lhs = A * (A + 1) * Q
    rhs = A * Q * (Q + 1)
    assert rhs - lhs == scalar(2)
    assert rhs - lhs == iso_poly_coeffs(A, 0, Q, 0)[4]
    assert iso_poly_identity_check(1, 0, 2, 0)


def test_iso_identity_check_true_and_perturbed():
    samples = [
        (Fraction(1, 2), 2, Fraction(1, 3), 3),
        (1, Fraction(-1, 2), 2, Fraction(5, 3)),
        ("1/2+i", 2, "i", "1-i"),
        (0, 0, 0, 0),
    ]
    for A, b1, Q, b2 in samples:
        assert iso_poly_identity_check(A, b1, Q, b2)
        assert not iso_poly_identity_check(A, b1, Q, b2, perturbed=True)


@settings(max_examples=60, deadline=None)
@given(
    A=st.fractions(min_value=-4, max_value=4, max_denominator=8),
    b1=st.fractions(min_value=-4, max_value=4, max_denominator=8),
    Q=st.fractions(min_value=-4, max_value=4, max_denominator=8),
    b2=st.fractions(min_value=-4, max_value=4, max_denominator=8),
)
def test_iso_identity_check_property(A, b1, Q, b2):
    assert iso_poly_identity_check(A, b1, Q, b2)


def test_iso_signature_normalization():
    algebra = split_algebra(2)
    hw = HighestWeight(algebra, [1, 2], [0, 0])
    psi = CharacterPsi(algebra, [1, 0])
    s1 = iso_signature(algebra, hw, Fraction(7, 3), 1, psi)
    s2 = iso_signature(algebra, hw, Fraction(1, 3), 0, psi)
    assert iso_check(s1, s2)
    assert s1.alpha == scalar(Fraction(1, 3))
    assert s1.beta == ZERO


def test_iso_check_detects_differences():
    algebra = split_algebra(2)
    hw1 = HighestWeight(algebra, [1, 2], [0, 0])
    hw2 = HighestWeight(algebra, [1, 3], [0, 0])
    psi1 = CharacterPsi(algebra, [1, 0])
    psi2 = CharacterPsi(algebra, [0, 1])
    base = iso_signature(algebra, hw1, Fraction(1, 2), 2, psi1)
    assert not iso_check(base, iso_signature(algebra, hw2, Fraction(1, 2), 2, psi1))
    assert iso_differences(base, iso_signature(algebra, hw2, Fraction(1, 2), 2, psi2)) == [
        "psi",
        "phi_d0",
    ]
    assert iso_differences(base, iso_signature(algebra, hw1, Fraction(1, 2), 0, psi1)) == [
        "beta"
    ]


def test_certificate_json_deterministic():
    tensor = tensor_over_c(1, 0, Fraction(1, 2), 2, 1)
    cert1 = endo_probe(tensor, 0, 1)
    cert2 = endo_probe(tensor, 0, 1)
    assert cert1.to_json() == cert2.to_json()
    parsed = json.loads(cert1.to_json())
    assert parsed["status"] == "pass"


# -- the JSON writer and the operator cache ---------------------------------------


class _Str(str):
    pass


class _List(list):
    pass


_TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "a\x00\x1f\n\t\x7f", "é€𝄞", "\u2028\ud800"])
_INTS = st.integers() | st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1, 10**40, -(10**40)])
_FLOATS = st.floats() | st.sampled_from([-0.0, 1e-7, 1e22, math.inf, -math.inf, math.nan])
_LEAVES = st.one_of(_TEXT, _TEXT.map(_Str), _INTS, _FLOATS, st.booleans(), st.none())
# one key family per dict sorts; mixing str with another family raises TypeError in both writers
_KEY_FAMILIES = st.sampled_from(
    [
        _TEXT | _TEXT.map(_Str),
        _INTS | st.booleans(),
        _FLOATS | _INTS,
        st.none(),
        st.one_of(_TEXT, _INTS, st.none()),
    ]
)


def _containers(children):
    items = st.lists(children, max_size=4)
    return st.one_of(
        items,
        items.map(tuple),
        items.map(_List),
        _KEY_FAMILIES.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
        st.dictionaries(_TEXT, children, max_size=4).map(lambda d: OrderedDict(reversed(d.items()))),
    )


@settings(max_examples=400, deadline=None)
@given(st.recursive(_LEAVES, _containers, max_leaves=24))
def test_dump_json_equals_stdlib_indented_sorted_dump(tree):
    try:
        expected = json.dumps(tree, indent=2, sort_keys=True)
    except TypeError:
        with pytest.raises(TypeError):
            dump_json(tree)
    else:
        assert dump_json(tree) == expected


@pytest.mark.parametrize(
    "tree",
    [ONE, [1, {"a": scalar(2)}], {scalar(1): 0}, {(1, 2): 0}, {"a": {1, 2}}],
    ids=["leaf", "nested", "scalar-key", "tuple-key", "set"],
)
def test_dump_json_rejects_what_stdlib_rejects(tree):
    with pytest.raises(TypeError):
        json.dumps(tree, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        dump_json(tree)


def test_each_probe_operator_is_serialized_once(monkeypatch):
    calls = []

    def counting(words):
        calls.append(words)
        return serialize_words(words)

    serialize_words = probes.serialize_words
    monkeypatch.setattr(probes, "serialize_words", counting)
    tensor = tensor_over_c(1, 0, Fraction(1, 2), 2, 3)
    cert = endo_probe(tensor, 0, 3)
    # w is applied to the seed and to every quotient monomial of levels 1..3
    assert cert.status == STATUS_PASS
    assert len(cert.applications) == 7
    assert len(calls) == 1
    # the bytes the certificate printed before operators were shared
    text = cert.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0273de29818f982fd2ca7b784577d0d9a059af314cb5ef8302b688151b903a65"
    )
    assert replay_certificate(cert, tensor)
    assert replay_certificate(json.loads(text), tensor)
