"""End-to-end acceptance gate: ten criteria, one printed verdict line each.

Every criterion runs at exact arithmetic (zero tolerance) and carries a
wall-clock budget.  The verdict line is printed before the asserts so a
failing run still reports which criterion broke.
"""

import random
import time
from fractions import Fraction

from virloop.cli import EXIT_PASS, main
from virloop.coeff_algebra import CharacterPsi, split_algebra, trivial_algebra, truncated_poly
from virloop.config import default_weight_vector
from virloop.intermediate import INDEX_ALL, IntModule, IntParams, is_irreducible_int
from virloop.probes import (
    STATUS_PASS,
    depth_reduction_probe,
    endo_probe,
    iso_poly_identity_check,
    psi_separation,
    pure_tensor_ladder_check,
)
from virloop.scalars import GaussianRational, ONE, ZERO, scalar
from virloop.tensor_product import TensorModule
from virloop.verma import HighestWeight, VermaModule, normal_order
from virloop.virasoro import WordSum, d_gen

from oracle_dense import DenseOracle
from oracle_lie import LieElement, act_lie, submodule_closure
from oracle_worklist import form_value, monomial_word

TRIV = trivial_algebra()
SPLIT2 = split_algebra(2)

_DEGREES = list(range(-6, 7))


def _criterion(number, limit, body):
    start = time.perf_counter()
    ok, err = False, None
    try:
        ok = bool(body())
    except Exception as exc:
        err = exc
    elapsed = time.perf_counter() - start
    verdict = ok and err is None and elapsed < limit
    print(f"ACCEPTANCE {number}: {'PASS' if verdict else 'FAIL'} ({elapsed:.2f}s)")
    if err is not None:
        raise err
    assert ok
    assert elapsed < limit, f"runtime {elapsed:.2f}s exceeded budget {limit}s"


def _rand_scalar(rng):
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if rng.random() < 0.25:
        return GaussianRational(re, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return GaussianRational(re)


def _rand_lie(rng, alg, nterms=2):
    x = LieElement.zero(alg)
    for _ in range(nterms):
        j = rng.randrange(alg.dim)
        c = _rand_scalar(rng)
        if rng.random() < 0.25:
            x = x + LieElement.central(alg, j, c)
        else:
            x = x + LieElement.d(alg, rng.choice(_DEGREES), j, c)
    return x


def _vec_sub(u, v):
    out = dict(u)
    for key, c in v.items():
        s = out.get(key, ZERO) - c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def test_acceptance_01_bracket_axioms():
    def body():
        rng = random.Random(101)
        algebras = [TRIV, truncated_poly(3), SPLIT2]
        for t in range(500):
            alg = algebras[t % 3]
            x = _rand_lie(rng, alg)
            y = _rand_lie(rng, alg)
            z = _rand_lie(rng, alg)
            if x.bracket(y) != -(y.bracket(x)):
                return False
            jac = (
                x.bracket(y.bracket(z))
                + y.bracket(z.bracket(x))
                + z.bracket(x.bracket(y))
            )
            if not jac.is_zero():
                return False
        return True

    _criterion(1, 5.0, body)


def test_acceptance_02_intermediate_representation_and_closure():
    def body():
        rng = random.Random(202)
        setups = [
            (TRIV, ["1"]),
            (truncated_poly(3), ["1", "0", "0"]),
            (SPLIT2, ["1", "0"]),
        ]
        for alg, psi_vals in setups:
            psi = CharacterPsi(alg, psi_vals)
            mod = IntModule(IntParams(scalar("1/2"), scalar("1/3"), psi))
            for _ in range(500):
                x = _rand_lie(rng, alg)
                y = _rand_lie(rng, alg)
                vec = {}
                for _ in range(2):
                    c = _rand_scalar(rng)
                    if c:
                        vec[rng.randint(-5, 5)] = c
                lhs = _vec_sub(act_lie(mod, x, act_lie(mod, y, vec)),
                               act_lie(mod, y, act_lie(mod, x, vec)))
                if lhs != act_lie(mod, x.bracket(y), vec):
                    return False
        # closure scan over the degenerate-candidate grid
        alphas = [scalar(0), scalar("1/2"), scalar("1/3"), scalar("i")]
        betas = [scalar(0), scalar(1), scalar(2), scalar("1/2")]
        for a in alphas:
            for b in betas:
                mod = IntModule(IntParams(a, b, None), INDEX_ALL)
                if mod.closure_is_full(-12, 12, 6) != is_irreducible_int(a, b):
                    return False
        # the two reducible points carry the expected submodule shapes
        mod00 = IntModule(IntParams(scalar(0), scalar(0), None), INDEX_ALL)
        basis, support = submodule_closure(mod00, [{0: ONE}], -12, 12, 6)
        if len(basis) != 1 or support != {0}:
            return False
        mod01 = IntModule(IntParams(scalar(0), scalar(1), None), INDEX_ALL)
        basis, support = submodule_closure(mod01, [{1: ONE}], -12, 12, 6)
        if len(basis) != 24 or 0 in support:
            return False
        return True

    _criterion(2, 30.0, body)


def test_acceptance_03_shapovalov_against_dense_oracle():
    def body():
        samples = [
            ("0", "0"),
            ("1", "0"),
            ("0", "1"),
            ("1", "1"),
            ("1/2", "0"),
            ("1/2", "1/2"),
            ("2", "1"),
            ("-1", "1/3"),
            ("1/3", "-1/2"),
        ]
        for h, c in samples:
            hw = HighestWeight(TRIV, [h], [c])
            vm = VermaModule(TRIV, hw, 4)
            oracle = DenseOracle(TRIV, [h], [c])
            for k in range(5):
                monos, g = oracle.gram(k)
                if vm.pbw_basis(k) != monos or vm.gram(k) != g:
                    return False
            if vm.gram(1)[0][0] != -scalar(2) * scalar(h):
                return False
            if (vm.radical_dim(1) > 0) != (scalar(h) == ZERO):
                return False
            # contravariance: <d_{-n} u, v> = <u, d_n v> on all basis pairs
            for n in (1, 2):
                for k in range(0, 5 - n):
                    for u in vm.pbw_basis(k):
                        for v in vm.pbw_basis(k + n):
                            lowered = normal_order(
                                WordSum(
                                    TRIV,
                                    {(d_gen(-n, TRIV.unit),) + monomial_word(TRIV, u): ONE},
                                ),
                                hw,
                            )
                            raised = normal_order(
                                WordSum(
                                    TRIV,
                                    {(d_gen(n, TRIV.unit),) + monomial_word(TRIV, v): ONE},
                                ),
                                hw,
                            )
                            lhs = form_value(vm, k + n, lowered, {v: ONE})
                            rhs = form_value(vm, k, {u: ONE}, raised)
                            if lhs != rhs:
                                return False
            # radical stability under the raising degrees 1 and 2
            for k in range(1, 5):
                for rad in vm.radical_basis(k):
                    for n in (1, 2):
                        if k - n < 0:
                            continue
                        lowered = {}
                        for mono, coeff in rad.items():
                            w = WordSum(
                                TRIV, {(d_gen(n, TRIV.unit),) + monomial_word(TRIV, mono): coeff}
                            )
                            for m2, c2 in normal_order(w, hw).items():
                                s = lowered.get(m2, ZERO) + c2
                                if s:
                                    lowered[m2] = s
                                else:
                                    lowered.pop(m2, None)
                        if not vm.is_radical(k - n, lowered):
                            return False
        return True

    _criterion(3, 120.0, body)


def test_acceptance_04_quotient_irreducibility_generic_sample():
    def body():
        vm = VermaModule(TRIV, HighestWeight(TRIV, ["1"], ["0"]), 3)
        return vm.quotient_irreducibility_check()

    _criterion(4, 60.0, body)


def test_acceptance_05_annihilating_operator_probe_sampled():
    def body():
        rng = random.Random(505)
        alpha_pool = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(-1, 2), Fraction(5, 3)]
        beta_pool = [2, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(5, 2)]
        for t in range(20):
            if t % 2 == 0:
                alg, psi_vals = TRIV, ["1"]
            else:
                alg, psi_vals = SPLIT2, ["1", "0"]
            k = rng.randint(0, 3)
            m = rng.randint(-3, 3)
            alpha = scalar(rng.choice(alpha_pool) + rng.randint(-2, 2))
            beta = scalar(rng.choice(beta_pool))
            h = rng.randint(1, 3)
            d0_vals = [h] if alg.dim == 1 else [h, h + 1]
            hw = HighestWeight(alg, d0_vals, [0] * alg.dim)
            vm = VermaModule(alg, hw, k)
            psi = CharacterPsi(alg, psi_vals)
            tensor = TensorModule(vm, IntModule(IntParams(alpha, beta, psi)))
            cert = endo_probe(tensor, m, k)
            if cert.status != STATUS_PASS:
                return False
            expected = sum(vm.vphi_dim(i) for i in range(1, k + 1))
            if cert.facts["independence_rank"] != expected:
                return False
            if cert.facts["expected_rank"] != expected:
                return False
        return True

    _criterion(5, 120.0, body)


def test_acceptance_06_depth_reduction_probe_sampled():
    def body():
        rng = random.Random(606)
        case1_alphas = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(-1, 2)]
        case1_betas = [2, 3, Fraction(1, 3), Fraction(-1, 3)]
        case2_alphas = [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(-2, 5)]
        tuples = []
        for _ in range(10):
            tuples.append(("I", rng.choice(case1_alphas), rng.choice(case1_betas)))
        for _ in range(10):
            tuples.append(("II", rng.choice(case2_alphas) + rng.randint(-2, 2), 0))
        for t, (case, alpha, beta) in enumerate(tuples):
            if t % 2 == 0:
                alg, psi_vals, b = TRIV, ["1"], TRIV.unit
            else:
                alg, psi_vals, b = SPLIT2, ["1", "0"], SPLIT2.basis_elem(0)
            n = rng.randint(1, 2)
            m = rng.randint(-3, 3)
            d0_vals = [1] if alg.dim == 1 else [1, 2]
            hw = HighestWeight(alg, d0_vals, [0] * alg.dim)
            vm = VermaModule(alg, hw, n)
            psi = CharacterPsi(alg, psi_vals)
            tensor = TensorModule(vm, IntModule(IntParams(scalar(alpha), scalar(beta), psi)))
            w_vec = default_weight_vector(tensor, m, n)
            cert = depth_reduction_probe(tensor, case, b, m, n, w_vec)
            if cert.status != STATUS_PASS:
                return False
            if cert.facts["l"] > 50 + 10 * vm.depth:
                return False
            if cert.facts["top_depth_out"] >= cert.facts["top_depth_in"]:
                return False
            if cert.applications[0]["output"] != []:
                return False
            if cert.applications[1]["output"] == []:
                return False
        return True

    _criterion(6, 120.0, body)


def test_acceptance_07_ideal_direction_ladder_end_to_end():
    def body():
        hw = HighestWeight(SPLIT2, ["0", "1"], ["0", "0"])
        vm = VermaModule(SPLIT2, hw, 1)
        psi = CharacterPsi(SPLIT2, ["1", "0"])
        tensor = TensorModule(vm, IntModule(IntParams(scalar("1/2"), scalar("1/3"), psi)))
        cert = pure_tensor_ladder_check(tensor, SPLIT2.basis_elem(0), -8, 8)
        if cert.status != STATUS_PASS:
            return False
        facts = cert.facts
        return (
            facts["stage_a"]["in_radical"]
            and facts["stage_a"]["killed_by_degree_1_and_2"]
            and facts["stage_b"]["identities_hold"]
            and facts["stage_c"]["spans_coincide"]
        )

    _criterion(7, 60.0, body)


def test_acceptance_08_character_separation_dichotomy():
    def body():
        hw = HighestWeight(SPLIT2, ["1", "2"], ["0", "0"])
        vm1 = VermaModule(SPLIT2, hw, 1)
        vm2 = VermaModule(SPLIT2, hw, 1)
        alpha, beta = scalar("1/2"), scalar("1/3")
        t1 = TensorModule(vm1, IntModule(IntParams(alpha, beta, CharacterPsi(SPLIT2, ["1", "0"]))))
        t2 = TensorModule(vm2, IntModule(IntParams(alpha, beta, CharacterPsi(SPLIT2, ["0", "1"]))))
        cert = psi_separation(t1, t2, (-2, 2))
        if cert.status != STATUS_PASS:
            return False
        facts = cert.facts
        return (
            facts["witness"] is not None
            and len(facts["degrees"]) == 5
            and facts["annihilation"]
            and facts["nonannihilation"]
        )

    _criterion(8, 30.0, body)


def test_acceptance_09_isomorphism_polynomial_identity_sampled():
    def body():
        rng = random.Random(909)
        for _ in range(50):
            vals = []
            for _ in range(4):
                re = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                if rng.random() < 0.2:
                    vals.append(GaussianRational(re, Fraction(rng.randint(-3, 3), 2)))
                else:
                    vals.append(GaussianRational(re))
            a, b1, q, b2 = vals
            if not iso_poly_identity_check(a, b1, q, b2):
                return False
            if iso_poly_identity_check(a, b1, q, b2, perturbed=True):
                return False
        return True

    _criterion(9, 10.0, body)


def test_acceptance_10_demo_report_determinism(tmp_path):
    def body():
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        if main(["run", "cor31-split", "--output", str(first)]) != EXIT_PASS:
            return False
        if main(["run", "cor31-split", "--output", str(second)]) != EXIT_PASS:
            return False
        return first.read_bytes() == second.read_bytes()

    _criterion(10, 60.0, body)
