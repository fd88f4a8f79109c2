"""Replayable certificates for the structure theory of tensor modules.

Each probe builds an explicit operator in the enveloping algebra, applies
it to concrete vectors with exact arithmetic, and records the operator,
the inputs, and the outputs.  A passing certificate is therefore
re-checkable: `replay_certificate` re-executes every recorded application
and confirms the stored outputs bit for bit.

The probes:

* `endo_probe`: a degree-2n operator w = d_{2n} - r d_n d_n that kills the
  pure tensor v_phi (x) v_m while staying injective on the deeper summands
  of the same weight space.  This separates the pure tensors inside their
  (infinite-dimensional) weight spaces and pins the endomorphism algebra
  down to scalars.
* `depth_reduction_probe`: an operator X that annihilates v_phi (x) v_{m+n}
  and strictly lowers the top quotient depth of any admissible weight
  vector, the induction step for cyclicity of submodules.
* `pure_tensor_ladder_check`: a three-stage irreducibility certificate for
  modules whose highest weight vanishes on d_0 tensor an ideal.
* `psi_separation`: an exact separating witness for distinct characters,
  together with the annihilation dichotomy that makes it module-theoretic.
* `iso_poly_coeffs` / `iso_poly_identity_check`: the grouped coefficient
  system extracted from the intertwining constraint, certified as a
  polynomial identity on an integer grid (`iso_coeffs_cert` for one
  parameter tuple, `iso_identity_cert` for seeded random ones).
* `iso_signature` / `iso_check`: the complete isomorphism invariant
  (character, highest weight, normalized alpha and beta).

Every certificate is built by one kernel, `ProbeRun`.  A probe opens a run
with its kind, its parameters and the modules it acts on, applies its
operators through `ProbeRun.apply` (which records each application), and
closes the run with `unsatisfiable` when its hypotheses exclude the
parameters, or with `verdict` on its claims: the status is "fail" exactly
when some claim failed, and the failed claims become the reasons.  A probe
therefore holds only its operators and its claims.

Every JSON document virloop prints or writes is written by `dump_json`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .coeff_algebra import AlgebraB, CharacterPsi
from .linalg import SpanBasis, nullspace
from .scalars import GaussianRational, ONE, ZERO, normalize_alpha, scalar
from .tensor_product import TensorModule, TensorVector
from .verma import HighestWeight
from .virasoro import Generator, WordSum, d_gen

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_UNSATISFIABLE = "hypothesis-unsatisfiable"

# endo_probe and depth_reduction_probe assume an irreducible intermediate factor
_REDUCIBLE_FACTOR = "intermediate factor is reducible: alpha is an integer and beta is 0 or 1"


# -- certificates ----------------------------------------------------------------


@dataclass
class ProbeCertificate:
    """Outcome of one probe run, with enough data to replay it.

    `operator` is the serialized main operator (w or X) when the probe has
    one; `applications` is the list of recorded operator applications, each
    carrying its own operator, input and output; `facts` are the verified
    claims (ranks, coefficients, stage results); `reasons` explain a
    non-pass status.
    """

    kind: str
    status: str
    params: dict
    operator: list | None = None
    facts: dict = field(default_factory=dict)
    applications: list = field(default_factory=list)
    reasons: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return dump_json(self.to_dict())


def dump_json(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, in one pass.

    The stdlib runs its pure-Python encoder whenever `indent` is set.  Here
    each entry prefix (separator, indent, key) is one string, and `str` and
    exact `int` leaves are encoded directly; every other leaf or non-str key
    goes through `json.dumps`, so bool, None, float and TypeError are the stdlib's.
    """
    chunks = []

    def write(value, newline, emit=chunks.append, encode=encode_basestring_ascii):
        if isinstance(value, str):
            emit(encode(value))
        elif type(value) is int:
            emit(int.__repr__(value))
        elif isinstance(value, dict):
            if not value:
                emit("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key, item in sorted(value.items()):
                if isinstance(key, str):
                    emit(sep + encode(key) + ": ")
                elif isinstance(key, (int, float)) or key is None:
                    emit(sep + encode(json.dumps(key)) + ": ")
                else:
                    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
                write(item, inner)
                sep = "," + inner
            emit(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                emit("[]")
                return
            inner = newline + "  "
            sep = "[" + inner
            for item in value:
                emit(sep)
                write(item, inner)
                sep = "," + inner
            emit(newline + "]")
        else:
            emit(json.dumps(value))

    write(obj, "\n")
    return "".join(chunks)


def _ser_belem(b) -> list[str]:
    return [str(c) for c in b]


def serialize_words(words: WordSum) -> list:
    items = []
    for factors, coeff in words.words.items():
        items.append(
            {
                "coeff": str(coeff),
                "factors": [
                    {"kind": g.kind, "degree": g.degree, "b": _ser_belem(g.bcoef)}
                    for g in factors
                ],
            }
        )
    items.sort(key=lambda t: json.dumps(t, sort_keys=True))
    return items


def deserialize_words(algebra: AlgebraB, data) -> WordSum:
    out = WordSum(algebra)
    for item in data:
        factors = tuple(
            Generator(
                f["kind"], int(f["degree"]), algebra.elem([scalar(x) for x in f["b"]])
            )
            for f in item["factors"]
        )
        out.add_word(factors, scalar(item["coeff"]))
    return out


def serialize_tensor(vec: TensorVector) -> list:
    items = sorted(vec.items())
    return [[i, [list(p) for p in mono], k, str(c)] for (i, mono, k), c in items]


def deserialize_tensor(data) -> TensorVector:
    out: TensorVector = {}
    for i, mono, k, c in data:
        key = (int(i), tuple((int(d), int(j)) for d, j in mono), int(k))
        out[key] = scalar(c)
    return out


class ProbeRun:
    """The one place a probe certificate is recorded, decided and explained.

    `tensors` are the modules the probe acts on; an application on the
    second one is tagged "module": 2 so `replay_certificate` can route it.
    """

    def __init__(self, kind: str, params: dict, *tensors: TensorModule):
        self.kind = kind
        self.params = params
        self.tensors = tensors
        self.applications = []
        # keyed on the operator itself: a WordSum hashes by identity
        self._serialized = {}

    def _words(self, op: WordSum) -> list:
        """op serialized once per run; applications of one operator share the list."""
        words = self._serialized.get(op)
        if words is None:
            words = self._serialized[op] = serialize_words(op)
        return words

    def apply(self, op: WordSum, x: TensorVector, module: int = 1) -> TensorVector:
        """Act with op on x in the named module, record the application, return the output."""
        out = self.tensors[module - 1].act_words(op, x)
        self.record(op, x, out, module)
        return out

    def record(self, op: WordSum, x: TensorVector, out: TensorVector, module: int = 1) -> None:
        """Record an application computed outside `apply`, for a probe that keeps only some."""
        app = {
            "operator": self._words(op),
            "input": serialize_tensor(x),
            "output": serialize_tensor(out),
        }
        if module != 1:
            app["module"] = module
        self.applications.append(app)

    def unsatisfiable(self, reasons: list[str]) -> ProbeCertificate:
        """The stated hypotheses exclude the parameters: nothing was applied."""
        return ProbeCertificate(self.kind, STATUS_UNSATISFIABLE, self.params, reasons=reasons)

    def verdict(
        self, facts: dict, failed: dict[str, bool], operator: WordSum | None = None
    ) -> ProbeCertificate:
        """The final certificate, failing exactly when some claim failed.

        `failed` maps each claim, worded as its failure, to whether it
        failed; the failed ones become the reasons, in order.
        """
        reasons = [claim for claim, bad in failed.items() if bad]
        return ProbeCertificate(
            self.kind,
            STATUS_FAIL if reasons else STATUS_PASS,
            self.params,
            operator=None if operator is None else self._words(operator),
            facts=facts,
            applications=self.applications,
            reasons=reasons,
        )


def replay_certificate(cert, tensor: TensorModule, tensor2: TensorModule | None = None) -> bool:
    """Re-run every recorded application; True iff all outputs match.

    Applications tagged with "module": 2 (two-module probes) are replayed
    on `tensor2`.
    """
    data = cert.to_dict() if isinstance(cert, ProbeCertificate) else dict(cert)
    for app in data.get("applications", []):
        target = tensor if app.get("module", 1) == 1 else tensor2
        if target is None:
            return False
        words = deserialize_words(target.algebra, app["operator"])
        invec = deserialize_tensor(app["input"])
        expect = deserialize_tensor(app["output"])
        if target.act_words(words, invec) != expect:
            return False
    return True


# -- separating operator w ------------------------------------------------------


def find_probe_n(
    alpha, beta, m: int, k: int, require_nonzero_targets: bool = False
) -> int | None:
    """Smallest degree n > k whose separating operator has invertible coefficients.

    Candidate n must satisfy one base condition,

        (alpha+m+n*beta)(alpha+m+n+n*beta) != 0,

    and, for each 1 <= i <= k, the comparison condition

        (alpha+i+m+2n*beta)(alpha+m+n*beta)(alpha+m+n+n*beta)
            != (alpha+m+2n*beta)(alpha+i+m+n*beta)(alpha+i+m+n+n*beta),

    whose two sides differ by a polynomial of degree <= 3 in n.  The base
    condition rules out at most 2 values of n, each comparison at most 3,
    and with `require_nonzero_targets` (used when the intermediate index
    set omits 0) each target index m+i+2n != 0 rules out at most 1 more.
    A nondegenerate parameter set therefore violates the conditions at no
    more than 4k+2 values of n, and scanning 4k+3 consecutive candidates
    either finds one or proves that some condition vanishes identically;
    in the latter case the parameters are degenerate and None is returned.
    """
    alpha = scalar(alpha)
    beta = scalar(beta)
    for n in range(k + 1, 5 * k + 4):
        if not _probe_conditions_hold(alpha, beta, m, k, n):
            continue
        if require_nonzero_targets and any(
            m + i + 2 * n == 0 for i in range(1, k + 1)
        ):
            continue
        return n
    return None


def _lin(alpha, beta, shift: int, nb: int) -> GaussianRational:
    # alpha + shift + nb*beta
    return alpha + shift + beta * nb


def _probe_conditions_hold(alpha, beta, m: int, k: int, n: int) -> bool:
    f1 = _lin(alpha, beta, m, n)
    f2 = _lin(alpha, beta, m + n, n)
    if not f1 or not f2:
        return False
    for i in range(1, k + 1):
        lhs = _lin(alpha, beta, i + m, 2 * n) * f1 * f2
        rhs = (
            _lin(alpha, beta, m, 2 * n)
            * _lin(alpha, beta, i + m, n)
            * _lin(alpha, beta, i + m + n, n)
        )
        if lhs == rhs:
            return False
    return True


def endo_operator(algebra: AlgebraB, alpha, beta, m: int, n: int) -> WordSum:
    """w = d_{2n} - ((alpha+m+2n*beta)/((alpha+m+n*beta)(alpha+m+n+n*beta))) d_n d_n.

    The ratio is chosen so that w kills v_phi (x) v_m exactly.  Both factors
    carry the unit of B.
    """
    alpha = scalar(alpha)
    beta = scalar(beta)
    ratio = _lin(alpha, beta, m, 2 * n) / (
        _lin(alpha, beta, m, n) * _lin(alpha, beta, m + n, n)
    )
    single = WordSum.single(algebra, d_gen(n, algebra.unit))
    return WordSum.single(algebra, d_gen(2 * n, algebra.unit)) - (single * single).scale(
        ratio
    )


def endo_probe(tensor: TensorModule, m: int, k: int) -> ProbeCertificate:
    """Certify that w separates v_phi (x) v_m from the depth <= k summands.

    Verifies (a) w annihilates v_phi (x) v_m; (b) w is nonzero on x (x) v_{m+i}
    for every quotient-basis vector x at each level 1 <= i <= k; (c) those
    images are jointly linearly independent, with rank equal to the sum of
    the quotient dimensions.  Any weight vector of the same weight as
    v_phi (x) v_m with a deeper component is therefore moved off its line
    by w, which forces equivariant endomorphisms to act by scalars there.
    """
    alpha = tensor.intermediate.params.alpha
    beta = tensor.intermediate.params.beta
    params = {"m": m, "k": k, "alpha": str(alpha), "beta": str(beta)}
    if k < 0:
        raise ValueError("depth bound k must be nonnegative")
    if tensor.verma.depth < k:
        raise ValueError(f"quotient computed to depth {tensor.verma.depth} < k = {k}")
    run = ProbeRun("endo", params, tensor)
    if not tensor.intermediate.irreducible:
        return run.unsatisfiable([_REDUCIBLE_FACTOR])
    if not tensor.intermediate.allowed_index(m):
        return run.unsatisfiable([f"index {m} lies outside the intermediate module's basis"])
    exclude_zero = not tensor.intermediate.allowed_index(0)
    n = find_probe_n(alpha, beta, m, k, require_nonzero_targets=exclude_zero)
    if n is None:
        return run.unsatisfiable(
            ["degenerate parameters: a separating-operator condition vanishes identically in n"]
        )
    w = endo_operator(tensor.algebra, alpha, beta, m, n)
    annihilated = not run.apply(w, tensor.seed(m))

    span = SpanBasis()
    expected = 0
    nonzero = True
    skipped = []
    for i in range(1, k + 1):
        if not tensor.intermediate.allowed_index(m + i):
            skipped.append(i)
            continue
        expected += tensor.verma.vphi_dim(i)
        for mono in tensor.verma.quotient_monomials(i):
            out = run.apply(w, {(i, mono, m + i): ONE})
            if not out:
                nonzero = False
            else:
                span.add(dict(out))
    rank = len(span)
    facts = {
        "n": n,
        "seed_annihilated": annihilated,
        "all_images_nonzero": nonzero,
        "independence_rank": rank,
        "expected_rank": expected,
        "skipped_levels": skipped,
    }
    failed = {
        f"w does not annihilate the seed v_phi (x) v_{m}": not annihilated,
        "w sends a quotient-basis vector of a deeper summand to zero": not nonzero,
        f"the images have rank {rank}, short of the expected rank {expected}": rank != expected,
    }
    return run.verdict(facts, failed, operator=w)


# -- depth reduction X ----------------------------------------------------------


def _top_level(vec: TensorVector) -> int:
    return max(i for (i, _mono, _k) in vec)


def depth_reduction_probe(
    tensor: TensorModule,
    case: str,
    b,
    m: int,
    n: int,
    w_vec: TensorVector,
    l_max: int | None = None,
) -> ProbeCertificate:
    """Certify the cyclicity induction step on a weight vector of top depth n.

    The input must be a weight vector w = sum_{i<=n} x_{-i} (x) v_{m+i} with
    x_{-n} != 0 and d_1 (x) b . x_{-n} != 0.  The probe constructs, for a
    scanned degree l,

        case I  (beta != 0):  X = d_l (x) b - r d_{l-1} d_1 (x) b,
            r = (alpha+m+n+l beta) / ((alpha+m+n+beta)(alpha+m+n+1+(l-1)beta)),
        case II (beta == 0, alpha not an integer):
            X = d_{2l} (x) b - r d_l d_{l-1} d_1 (x) b,
            r = 1 / ((alpha+m+n+1)(alpha+m+n+l)),

    verifies X.(v_phi (x) v_{m+n}) = 0 exactly, and checks that X.w is
    nonzero with top depth strictly below n.  Degrees failing either check
    are recorded and the scan continues up to l_max (finitely many degrees
    can fail); the first success is certified.  An l_max below n + 2 leaves
    no degree to scan and is reported as hypothesis-unsatisfiable.
    """
    algebra = tensor.algebra
    alpha = tensor.intermediate.params.alpha
    beta = tensor.intermediate.params.beta
    b = algebra.elem(b)
    if case not in ("I", "II"):
        raise ValueError("case must be 'I' or 'II'")
    if l_max is None:
        l_max = 50 + 10 * tensor.verma.depth
    params = {
        "case": case,
        "b": _ser_belem(b),
        "m": m,
        "n": n,
        "alpha": str(alpha),
        "beta": str(beta),
        "l_max": l_max,
    }

    reasons = []
    if case == "I":
        if not beta:
            reasons.append("case I requires beta != 0")
        elif not _lin(alpha, beta, m + n, 1):
            reasons.append("denominator alpha+m+n+beta vanishes")
    else:
        if beta:
            reasons.append("case II requires beta == 0")
        if alpha.is_integer():
            reasons.append("case II requires alpha not an integer")
    if n <= 0:
        reasons.append("top depth n must be positive")
    if l_max < n + 2:
        reasons.append(f"l_max = {l_max} is below n + 2 = {n + 2}, so no degree l is scanned")
    if not tensor.intermediate.allowed_index(m + n):
        reasons.append(f"index {m + n} lies outside the intermediate module's basis")
    if not tensor.intermediate.irreducible:
        reasons.append(_REDUCIBLE_FACTOR)
    run = ProbeRun("depth-reduction", params, tensor)
    if reasons:
        return run.unsatisfiable(reasons)

    # the input must be a nonzero weight vector of offset m and top depth n;
    # then the dichotomy on its deepest component: a depth-n vector killed by
    # both d_1 (x) b and d_2 (x) b would be a singular vector of the
    # irreducible quotient below the top line, and none exist
    offsets = {k - i for (i, _mono, k) in w_vec}
    x_top = {mono: c for (i, mono, _k), c in w_vec.items() if i == n}
    if not w_vec:
        reasons.append("input vector is zero")
    elif offsets != {m}:
        reasons.append(f"input is not a weight vector of offset {m}; offsets {sorted(offsets)}")
    elif (top := _top_level(w_vec)) != n:
        reasons.append(f"top quotient depth of the input is {top}, not n = {n}")
    elif not tensor.verma.act_on_vphi(d_gen(1, b), n, x_top)[1]:
        reason = "d_1 (x) b kills the deepest component x_{-n}"
        if tensor.verma.act_on_vphi(d_gen(2, b), n, x_top)[1]:
            reason += "; d_2 (x) b does not, and this probe implements only the d_1 route"
        else:
            reason += " and so does d_2 (x) b"
        reasons.append(reason)
    if reasons:
        return run.unsatisfiable(reasons)

    seed = tensor.seed(m + n)
    attempts = []
    for l in range(n + 2, l_max + 1):
        if case == "I":
            den2 = _lin(alpha, beta, m + n + 1, l - 1)
            if not den2:
                attempts.append({"l": l, "outcome": "denominator vanishes"})
                continue
            ratio = _lin(alpha, beta, m + n, l) / (_lin(alpha, beta, m + n, 1) * den2)
            x_op = WordSum.single(algebra, d_gen(l, b)) - (
                WordSum.single(algebra, d_gen(l - 1, algebra.unit))
                * WordSum.single(algebra, d_gen(1, b))
            ).scale(ratio)
        else:
            ratio = ONE / (_lin(alpha, beta, m + n + 1, 0) * _lin(alpha, beta, m + n + l, 0))
            x_op = WordSum.single(algebra, d_gen(2 * l, b)) - (
                WordSum.single(algebra, d_gen(l, algebra.unit))
                * WordSum.single(algebra, d_gen(l - 1, algebra.unit))
                * WordSum.single(algebra, d_gen(1, b))
            ).scale(ratio)
        kill = tensor.act_words(x_op, seed)
        if kill:
            attempts.append({"l": l, "outcome": "seed not annihilated"})
            continue
        image = tensor.act_words(x_op, w_vec)
        if not image:
            attempts.append({"l": l, "outcome": "image vanishes"})
            continue
        top_out = _top_level(image)
        if top_out >= n:
            attempts.append({"l": l, "outcome": f"top depth {top_out} not reduced"})
            continue
        facts = {
            "l": l,
            "ratio": str(ratio),
            "seed_annihilated": True,
            "image_nonzero": True,
            "top_depth_in": n,
            "top_depth_out": top_out,
            "attempts": attempts,
        }
        # only the degree that succeeds is recorded
        run.record(x_op, seed, kill)
        run.record(x_op, w_vec, image)
        return run.verdict(facts, {}, operator=x_op)
    return run.verdict(
        {"attempts": attempts},
        {f"no degree l <= {l_max} produced a nonzero depth-reduced image": True},
    )


# -- ladder certificate ----------------------------------------------------------


def pure_tensor_ladder_check(
    tensor: TensorModule, b, kmin: int, kmax: int
) -> ProbeCertificate:
    """Three-stage irreducibility certificate driven by an ideal-vanishing weight.

    Hypotheses: alpha+beta and alpha-beta are not integers, psi(b) != 0, and
    the highest weight kills d_0 (x) a for every a in the ideal generated
    by b.  Stages:

    (a) the level-1 vector d_{-1} (x) b . v~_phi lies in the form radical,
        so d_{-1} (x) b kills v_phi in the quotient;
    (b) the two ladder identities

            d_{-1} (x) b . (v_phi (x) v_{n+1}) = psi(b)(alpha+n+1-beta) v_phi (x) v_n,
            d_1  (x) b . (v_phi (x) v_n)     = psi(b)(alpha+n+beta) v_phi (x) v_{n+1},

        hold exactly on the window with nonvanishing coefficients;
    (c) iterating the ladders connects every pure tensor in the window to
        every other, so the cyclic submodules they generate coincide.

    Stage a reads level 1, so a Verma factor of depth 0 raises
    DepthExceededError.
    """
    algebra = tensor.algebra
    vm = tensor.verma
    alpha = tensor.intermediate.params.alpha
    beta = tensor.intermediate.params.beta
    psi = tensor.intermediate.params.psi
    b = algebra.elem(b)
    if kmax <= kmin:
        raise ValueError("window must contain at least two indices")
    params = {
        "b": _ser_belem(b),
        "kmin": kmin,
        "kmax": kmax,
        "alpha": str(alpha),
        "beta": str(beta),
        "psi_b": str(psi.of(b)),
    }

    reasons = []
    if (alpha + beta).is_integer():
        reasons.append("alpha+beta is an integer")
    if (alpha - beta).is_integer():
        reasons.append("alpha-beta is an integer")
    if not psi.of(b):
        reasons.append("psi(b) = 0")
    ideal = algebra.ideal_generated(b)
    bad = [a for a in ideal if vm.hw.of_d0(a)]
    if bad:
        reasons.append(
            "highest weight does not kill d_0 (x) a for a = "
            + ", ".join(algebra.format_elem(a) for a in bad)
        )
    run = ProbeRun("ladder", params, tensor)
    if reasons:
        return run.unsatisfiable(reasons)

    # stage a: radical membership at level 1
    lvl1 = {((1, j),): c for j, c in enumerate(b) if c}
    in_radical = vm.is_radical(1, lvl1)
    killers_zero = not any(
        vm.act_on_vphi(d_gen(deg, algebra.basis_elem(j)), 1, lvl1)[1]
        for j in range(algebra.dim)
        for deg in (1, 2)
    )
    stage_a = {
        "vector": [[list(mono), str(c)] for mono, c in sorted(lvl1.items())],
        "in_radical": in_radical,
        "killed_by_degree_1_and_2": killers_zero,
        "radical_dim_level_1": vm.radical_dim(1),
    }

    # stage b: both ladder identities on every adjacent pair in the window
    ladder_ok = True
    coeffs_down = {}
    coeffs_up = {}
    down_op = WordSum.single(algebra, d_gen(-1, b))
    up_op = WordSum.single(algebra, d_gen(1, b))
    for nn in range(kmin, kmax):
        if not (
            tensor.intermediate.allowed_index(nn)
            and tensor.intermediate.allowed_index(nn + 1)
        ):
            ladder_ok = False
            break
        c_down = psi.of(b) * _lin(alpha, beta, nn + 1, -1)
        c_up = psi.of(b) * _lin(alpha, beta, nn, 1)
        coeffs_down[nn + 1] = str(c_down)
        coeffs_up[nn] = str(c_up)
        got_down = run.apply(down_op, tensor.seed(nn + 1))
        if got_down != {(0, (), nn): c_down} or not c_down:
            ladder_ok = False
        got_up = run.apply(up_op, tensor.seed(nn))
        if got_up != {(0, (), nn + 1): c_up} or not c_up:
            ladder_ok = False
    stage_b = {
        "identities_hold": ladder_ok,
        "coefficients_down": coeffs_down,
        "coefficients_up": coeffs_up,
    }

    # stage c: composite climbs reproduce scaled seeds across the whole window
    chain_ok = ladder_ok
    stage_c = {}
    if ladder_ok:
        chains = (("up", up_op, kmin, kmax, 1), ("down", down_op, kmax, kmin, -1))
        for name, op, start, end, step in chains:
            vec, expect = tensor.seed(start), ONE
            for nn in range(start, end, step):
                vec = tensor.act_words(op, vec)
                expect = expect * psi.of(b) * _lin(alpha, beta, nn, step)
            if vec != {(0, (), end): expect} or not expect:
                chain_ok = False
            stage_c[f"{name}_chain_product"] = str(expect)
    stage_c["spans_coincide"] = chain_ok

    facts = {"stage_a": stage_a, "stage_b": stage_b, "stage_c": stage_c}
    failed = {
        "stage a: d_{-1} (x) b . v~_phi is not in the form radical": not in_radical,
        "stage a: d_1 or d_2 (x) e_j does not kill d_{-1} (x) b . v~_phi": not killers_zero,
        "stage b: a ladder identity fails on the window": not ladder_ok,
        "stage c: the ladder chains do not connect the window": not chain_ok,
    }
    return run.verdict(facts, failed)


# -- character separation --------------------------------------------------------


def separating_vector(algebra: AlgebraB, psi1: CharacterPsi, psi2: CharacterPsi):
    """A basis element of ker(psi_a) not killed by psi_b, or None if psi1 == psi2.

    Returns (b, direction) with direction 1 when psi1(b) = 0 != psi2(b) and
    2 for the swapped roles.  Distinct unital characters always separate:
    equal kernels force proportionality, and psi(1) = 1 fixes the scale.
    """
    if psi1.values == psi2.values:
        return None
    for direction, (pa, pb) in enumerate(((psi1, psi2), (psi2, psi1)), start=1):
        for coords in nullspace([list(pa.values)]):
            cand = algebra.elem(coords)
            if pb.of(cand):
                return cand, direction
    raise AssertionError("distinct unital characters must have distinct kernels")


def psi_separation(
    tensor1: TensorModule,
    tensor2: TensorModule,
    window: tuple[int, int],
    k: int | None = None,
    num_l: int = 5,
) -> ProbeCertificate:
    """Separate two tensor modules through their characters.

    If the characters agree on the basis the certificate reports "equal".
    Otherwise it finds b with psi(b) = 0 on one side and psi(b) != 0 on the
    other, then verifies for `num_l` degrees l (each larger than the killed
    module's computed depth) that d_l (x) b annihilates every basis vector
    of the killed module's truncation over `window` while sending the other
    module's pure tensor v_phi (x) v_k to a nonzero multiple of
    v_phi (x) v_{k+l}.  With beta = 0 and alpha + k = 0 on the other module
    every d_l (x) b kills v_phi (x) v_k, so no degree can show that and the
    certificate is hypothesis-unsatisfiable.
    """
    algebra = tensor1.algebra
    psi1 = tensor1.intermediate.params.psi
    psi2 = tensor2.intermediate.params.psi
    kmin, kmax = window
    params = {
        "psi1": [str(v) for v in psi1.values],
        "psi2": [str(v) for v in psi2.values],
        "kmin": kmin,
        "kmax": kmax,
    }
    run = ProbeRun("psi-separation", params, tensor1, tensor2)
    found = separating_vector(algebra, psi1, psi2)
    if found is None:
        return run.verdict({"equal": True}, {})
    b, direction = found
    # b's character vanishes on module `direction` only
    killed_tag, live_tag = direction, 3 - direction
    killed, live = run.tensors[killed_tag - 1], run.tensors[live_tag - 1]
    alpha = live.intermediate.params.alpha
    beta = live.intermediate.params.beta
    psi_live = live.intermediate.params.psi

    if k is None:
        k = 0 if live.intermediate.allowed_index(0) else 1
    if not live.intermediate.allowed_index(k):
        raise ValueError(f"index {k} lies outside the live module's basis")

    if not beta and not (alpha + k):
        return run.unsatisfiable([
            f"beta = 0 and alpha + k = 0 at seed index k = {k} on module {live_tag}:"
            " d_l (x) b kills v_phi (x) v_k there for every l"
        ])

    depth = killed.verma.depth
    ls = []
    l = depth + 1
    while len(ls) < num_l:
        if _lin(alpha, beta, k, l):
            ls.append(l)
        l += 1

    kill_ok = True
    live_ok = True
    checked = 0
    for l in ls:
        op = WordSum.single(algebra, d_gen(l, b))
        for i in range(depth + 1):
            for mono in killed.verma.quotient_monomials(i):
                for kk in killed.intermediate.window_indices(kmin, kmax):
                    out = run.apply(op, {(i, mono, kk): ONE}, module=killed_tag)
                    checked += 1
                    if out:
                        kill_ok = False
        expected = {(0, (), k + l): psi_live.of(b) * _lin(alpha, beta, k, l)}
        got = run.apply(op, live.seed(k), module=live_tag)
        if got != expected or not got:
            live_ok = False

    facts = {
        "equal": False,
        "witness": _ser_belem(b),
        "witness_label": algebra.format_elem(b),
        "killed_module": direction,
        "degrees": ls,
        "seed_index": k,
        "killed_vectors_checked": checked,
        "annihilation": kill_ok,
        "nonannihilation": live_ok,
    }
    failed = {
        f"annihilation: d_l (x) b does not kill module {killed_tag}'s truncation": not kill_ok,
        f"nonannihilation: d_l (x) b does not send module {live_tag}'s v_phi (x) v_{k}"
        " to the expected nonzero multiple": not live_ok,
    }
    return run.verdict(facts, failed)


# -- isomorphism classification ---------------------------------------------------


def iso_poly_coeffs(A, b1, Q, b2) -> tuple[GaussianRational, ...]:
    """The five grouped coefficients of the intertwining constraint.

    For weight parameters A (first module) and Q (second module) and the
    respective slopes b1, b2, returns

        c_mnsum = b1 b2 (b1 - b2),
        c_lin   = A Q (b2 - b1) + b1 Q^2 - b2 A^2,
        c_mn    = A b2 (b2 - 1 - 2 b1) + b1 Q (1 + 2 b2 - b1),
        c_sq    = b1 b2 (Q - A),
        c_const = A (Q - A) Q.

    Their simultaneous vanishing over all integer pairs is equivalent to
    the intertwining constraint holding for all m, n, and drives the
    classification down to (A, b1) = (Q, b2).
    """
    A, b1, Q, b2 = map(scalar, (A, b1, Q, b2))
    two = scalar(2)
    c_mnsum = b1 * b2 * (b1 - b2)
    c_lin = A * Q * (b2 - b1) + b1 * Q * Q - b2 * A * A
    c_mn = A * b2 * (b2 - ONE - two * b1) + b1 * Q * (ONE + two * b2 - b1)
    c_sq = b1 * b2 * (Q - A)
    c_const = A * (Q - A) * Q
    return c_mnsum, c_lin, c_mn, c_sq, c_const


def iso_poly_identity_check(A, b1, Q, b2, perturbed: bool = False) -> bool:
    """Certify the grouped form of the intertwining constraint on the 4x4 grid.

    At each grid point the difference of the two triple products

        lhs = (A+n b1)(A+n+m b1)(Q+(m+n) b2),
        rhs = (A+(m+n) b1)(Q+n b2)(Q+n+m b2),

    is compared with the grouped evaluation

        -c_mnsum mn(m+n) + c_lin (m+n) + c_mn mn + c_sq (m^2+n^2) + c_const.

    The mn(m+n) term enters through the negative of the first grouped
    coefficient: rhs - lhs expands with mn(m+n) coefficient b1 b2 (b2 - b1),
    the mirror of c_mnsum, while the other four coefficients enter directly.
    The vanishing conditions c_* = 0 are insensitive to that orientation.
    Both sides have degree <= 3 in each of m and n, so agreement on the grid
    1 <= m, n <= 4 certifies the polynomial identity; `perturbed` shifts
    c_const by 1 as an identity-breaking control.
    """
    A, b1, Q, b2 = map(scalar, (A, b1, Q, b2))
    c_mnsum, c_lin, c_mn, c_sq, c_const = iso_poly_coeffs(A, b1, Q, b2)
    if perturbed:
        c_const = c_const + ONE
    for m in range(1, 5):
        for n in range(1, 5):
            lhs = (A + n + m * b1) * (A + n * b1) * (Q + (m + n) * b2)
            rhs = (A + (m + n) * b1) * (Q + n * b2) * (Q + n + m * b2)
            grouped = (
                c_lin * (m + n)
                + c_mn * (m * n)
                + c_sq * (m * m + n * n)
                + c_const
                - c_mnsum * (m * n * (m + n))
            )
            if rhs - lhs != grouped:
                return False
    return True


_ISO_PARAMS = ("A", "beta1", "Q", "beta2")


def _identity_checks(tuples, where: str) -> tuple[list[tuple[bool, bool]], dict[str, bool]]:
    """The grouped identity and its perturbed control on each (A, b1, Q, b2) tuple.

    Returns (identity holds, perturbation caught) for every tuple, and the
    two claims over all tuples, worded as their failures.
    """
    checks = [
        (iso_poly_identity_check(*t), not iso_poly_identity_check(*t, perturbed=True))
        for t in tuples
    ]
    failed = {
        f"grouped identity failed {where}": not all(holds for holds, _ in checks),
        "perturbed constant term went undetected": not all(caught for _, caught in checks),
    }
    return checks, failed


def iso_identity_cert(seed: int, index: int, samples: int) -> ProbeCertificate:
    """Seeded random instances of the coefficient-grouping identity.

    Each sample must satisfy the grouped identity on the default grid and
    must be flagged when the constant coefficient is perturbed by one.
    """
    rng = random.Random(f"{seed}:{index}:iso-identity")
    tuples = [
        tuple(scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(4))
        for _ in range(samples)
    ]
    checks, failed = _identity_checks(tuples, "on a sampled parameter tuple")
    rows = [
        {**dict(zip(_ISO_PARAMS, map(str, t))), "identity": holds, "perturbation_caught": caught}
        for t, (holds, caught) in zip(tuples, checks)
    ]
    facts = {
        "all_identities_hold": all(holds for holds, _ in checks),
        "perturbation_always_detected": all(caught for _, caught in checks),
        "samples": rows,
    }
    return ProbeRun("iso-identity", {"samples": samples, "seed": seed}).verdict(facts, failed)


def iso_coeffs_cert(a, b1, q, b2) -> ProbeCertificate:
    """Coefficient extraction plus the grouped-identity check on the default grid."""
    t = (scalar(a), scalar(b1), scalar(q), scalar(b2))
    names = ("mn_times_sum", "linear", "mn", "squares", "constant")
    coefficients = {name: str(c) for name, c in zip(names, iso_poly_coeffs(*t))}
    [(holds, caught)], failed = _identity_checks([t], "on the default grid")
    facts = {
        "coefficients": coefficients,
        "identity_on_grid": holds,
        "perturbation_detected": caught,
    }
    return ProbeRun("iso-coeffs", dict(zip(_ISO_PARAMS, map(str, t)))).verdict(facts, failed)


@dataclass(frozen=True)
class IsoSignature:
    """Complete isomorphism invariant of a tensor module.

    Two modules over the same coefficient algebra are isomorphic exactly
    when their signatures agree componentwise: the character, the highest
    weight on d_0 (x) e_j and C (x) e_j, and the normalized alpha and beta.
    """

    psi_values: tuple
    phi_d0_values: tuple
    phi_c_values: tuple
    alpha: GaussianRational
    beta: GaussianRational

    def to_dict(self) -> dict:
        return {
            "psi": [str(v) for v in self.psi_values],
            "phi_d0": [str(v) for v in self.phi_d0_values],
            "phi_c": [str(v) for v in self.phi_c_values],
            "alpha": str(self.alpha),
            "beta": str(self.beta),
        }


def iso_signature(
    algebra: AlgebraB, hw: HighestWeight, alpha, beta, psi: CharacterPsi
) -> IsoSignature:
    """Normalize parameters and collect the isomorphism invariant."""
    a0, _shift = normalize_alpha(scalar(alpha))
    beta = scalar(beta)
    if beta == ONE:
        beta = ZERO
    basis = [algebra.basis_elem(j) for j in range(algebra.dim)]
    return IsoSignature(
        psi_values=tuple(psi.of(e) for e in basis),
        phi_d0_values=tuple(hw.of_d0(e) for e in basis),
        phi_c_values=tuple(hw.of_c(e) for e in basis),
        alpha=a0,
        beta=beta,
    )


def iso_check(s1: IsoSignature, s2: IsoSignature) -> bool:
    """Componentwise equality of signatures, the complete isomorphism test."""
    return not iso_differences(s1, s2)


def iso_differences(s1: IsoSignature, s2: IsoSignature) -> list[str]:
    """Names of the signature components where s1 and s2 differ."""
    return [
        f.name.removesuffix("_values")
        for f in fields(IsoSignature)
        if getattr(s1, f.name) != getattr(s2, f.name)
    ]
