"""Set-up, timed call and correctness gate for each workload.

The timed call touches only public engine names that are meant to stay:
`VermaModule` and its level queries (levels), `linalg.nullspace`
(radical) and `cli.main(argv)` with stdout captured (certify).  Gates run
outside the timer and compare against references that do not share the
code being timed (see reference.py); `probes.replay_certificate` is the
one engine call a gate makes, because replaying is what the certify
workload promises.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
from types import SimpleNamespace

import jobs as joblib
import reference as ref

ENGINE_MODULES = (
    "scalars", "linalg", "coeff_algebra", "verma", "intermediate",
    "tensor_product", "probes", "config", "cli",
)

class Verdict(SimpleNamespace):
    """ok, reason, known (a failure that matches a documented engine defect)."""


PASS = Verdict(ok=True, reason="", known=False)


def fail(reason: str, known: bool = False) -> Verdict:
    return Verdict(ok=False, reason=reason, known=known)


def load_engine(root: str) -> SimpleNamespace:
    """Import the engine from <root>/src and the oracle from <root>/tests."""
    src, tests = os.path.join(root, "src"), os.path.join(root, "tests")
    for path in (tests, src):
        if path not in sys.path:
            sys.path.insert(0, path)
    mods = {name: importlib.import_module(f"virloop.{name}") for name in ENGINE_MODULES}
    here = os.path.realpath(src)
    if not os.path.realpath(mods["cli"].__file__).startswith(here + os.sep):
        raise ImportError(f"virloop was not imported from {src}")
    mods["oracle"] = importlib.import_module("oracle_dense")
    return SimpleNamespace(**mods)


def _levels_dims_ok(table, dim_b: int) -> str | None:
    counts = ref.colored_partition_counts(dim_b, len(table) - 1)
    for k, (dim, rank, rad, qdim) in enumerate(table):
        if dim != counts[k]:
            return f"level {k}: dim {dim}, expected colored partition count {counts[k]}"
        if rank + rad != dim:
            return f"level {k}: gram_rank {rank} + radical_dim {rad} != dim {dim}"
        if qdim != dim - rad:
            return f"level {k}: quotient_dim {qdim} != dim - radical_dim {dim - rad}"
    return None


def _kac_ok(kac: dict | None, table) -> str | None:
    """The radical pattern Kac's determinant predicts for the job's weight."""
    if kac is None:
        return None
    rads = [row[2] for row in table]
    depth = len(table) - 1
    if kac["mode"] == "generic":
        if any(rads):
            return f"generic weight but radical dims {rads}"
        return None
    first = kac["first"]
    if first > depth:
        return None
    if kac["mode"] == "first-radical":
        if any(rads[:first]) or rads[first] != kac["count"]:
            return f"radical dims {rads}: expected 0 below level {first} and {kac['count']} at it"
        return None
    # virasoro-quotient: V(phi) is the Virasoro irreducible V(c, h)
    p = ref.colored_partition_counts(1, depth)
    qdims = [row[3] for row in table]
    want = p[:first] + [p[first] - 1]
    if qdims[: first + 1] != want:
        return f"quotient dims {qdims[: first + 1]}, expected Virasoro irreducible {want}"
    return None


# -- levels ---------------------------------------------------------------------------


class Levels:
    """Each job builds a VermaModule and reads its level table."""

    def __init__(self, eng, seed: int):
        self.eng = eng
        self.rounds = joblib.levels_rounds(seed)
        self.inputs = {}
        for job in (j for rnd in self.rounds for j in rnd):
            algebra = eng.coeff_algebra.builtin_algebra(job.spec["algebra"])
            hw = eng.verma.HighestWeight(algebra, job.spec["d0"], job.spec["c"])
            self.inputs[job.id] = (algebra, hw)
        self._oracle = {}

    def execute(self, job):
        algebra, hw = self.inputs[job.id]
        depth = job.spec["depth"]
        vm = self.eng.verma.VermaModule(algebra, hw, depth)
        table = [
            (len(vm.pbw_basis(k)), vm.gram_rank(k), vm.radical_dim(k), vm.vphi_dim(k))
            for k in range(depth + 1)
        ]
        return vm, table

    def gate(self, job, result) -> Verdict:
        vm, table = result
        algebra, _hw = self.inputs[job.id]
        reason = _levels_dims_ok(table, algebra.dim) or _kac_ok(job.spec["kac"], table)
        if reason:
            return fail(reason)
        if job.id not in self._oracle:
            oracle = self.eng.oracle.DenseOracle(algebra, job.spec["d0"], job.spec["c"])
            grams = [oracle.gram(k) for k in range(job.spec["depth"] + 1)]
            self._oracle[job.id] = [(m, g, len(m) - ref.rank_lower_bound(g)) for m, g in grams]
        for k, (monos, gram, nullity) in enumerate(self._oracle[job.id]):
            if vm.pbw_basis(k) != monos:
                return fail(f"level {k}: monomial order differs from the dense oracle")
            if vm.gram(k) != gram:
                return fail(f"level {k}: Gram matrix differs from DenseOracle.gram({k})")
            if table[k][2] != nullity:
                return fail(f"level {k}: radical_dim {table[k][2]}, modular rank gives {nullity}")
        return PASS


# -- radical ------------------------------------------------------------------------


class Radical:
    """Each job runs linalg.nullspace on one dense-oracle Gram matrix."""

    def __init__(self, eng, seed: int):
        self.eng = eng
        self.rounds = joblib.radical_rounds(seed)
        self.inputs = {}
        oracles = {}
        for job in sorted(self.rounds[0], key=lambda j: j.spec["level"]):
            key = (job.spec["algebra"], tuple(job.spec["d0"]), tuple(job.spec["c"]))
            if key not in oracles:
                algebra = eng.coeff_algebra.builtin_algebra(job.spec["algebra"])
                oracles[key] = eng.oracle.DenseOracle(algebra, job.spec["d0"], job.spec["c"])
            self.inputs[job.id] = oracles[key].gram(job.spec["level"])[1]
        self._verified = {}

    def execute(self, job):
        return self.eng.linalg.nullspace(self.inputs[job.id])

    def gate(self, job, result) -> Verdict:
        if self._verified.get(job.id) == result:
            return PASS
        reason = ref.check_kernel(self.inputs[job.id], result)
        if reason:
            return fail(reason)
        self._verified[job.id] = result
        return PASS


# -- certify ------------------------------------------------------------------------


class Certify:
    """Each job is one virloop subcommand run through cli.main, stdout captured."""

    def __init__(self, eng, seed: int, config_dir: str = ".bench_out/configs"):
        self.eng = eng
        self.rounds = joblib.certify_rounds(seed, config_dir)
        os.makedirs(config_dir, exist_ok=True)
        for job in (j for rnd in self.rounds for j in rnd):
            if "config" in job.spec:
                with open(job.spec["config_path"], "w", encoding="utf-8") as fh:
                    json.dump(job.spec["config"], fh, sort_keys=True)
        self.tracer = None
        self._cache = {}
        self._tensors = {}
        self._brute = {}

    def execute(self, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.eng.cli.main(job.spec["argv"])
        return code, out.getvalue(), err.getvalue()

    def gate(self, job, result) -> Verdict:
        key = (job.id, result[0], result[1])
        if key not in self._cache:
            try:
                self._cache[key] = self._gate(job, *result)
            except Exception as exc:  # a malformed output is a failed job
                self._cache[key] = fail(f"gate could not read the output: {exc!r}")
        return self._cache[key]

    # -- helpers ----------------------------------------------------------------

    def _tensor(self, spec: dict):
        key = json.dumps(spec, sort_keys=True)
        if key not in self._tensors:
            e = self.eng
            algebra = e.coeff_algebra.builtin_algebra(spec["algebra"])
            hw = e.verma.HighestWeight(algebra, spec["d0"], spec["c"])
            vm = e.verma.VermaModule(algebra, hw, spec["depth"])
            psi = e.coeff_algebra.CharacterPsi(algebra, spec["psi"])
            params = e.intermediate.IntParams(
                e.scalars.scalar(spec["alpha"]), e.scalars.scalar(spec["beta"]), psi
            )
            self._tensors[key] = e.tensor_product.TensorModule(vm, e.intermediate.IntModule(params))
        return self._tensors[key]

    def _replay(self, cert: dict, tensor, tensor2=None) -> bool:
        if self.tracer is not None:
            self.tracer.active = True
        try:
            return self.eng.probes.replay_certificate(cert, tensor, tensor2)
        finally:
            if self.tracer is not None:
                self.tracer.active = False

    def _cert_ok(self, cert: dict, spec: dict, spec2: dict | None = None) -> Verdict:
        if cert.get("status") != "pass":
            return fail(f"certificate status {cert.get('status')!r}: {cert.get('reasons')}")
        t1 = self._tensor(spec)
        t2 = self._tensor(spec2) if spec2 else None
        if not cert.get("applications"):
            return fail("certificate records no applications to replay")
        if not self._replay(cert, t1, t2):
            return fail("certificate does not replay")
        return PASS

    def _brute_force(self, spec: dict):
        key = json.dumps(spec, sort_keys=True)
        if key not in self._brute:
            algebra = self.eng.coeff_algebra.builtin_algebra(spec["algebra"])
            self._brute[key] = ref.tensor_generated(self.eng.oracle, algebra, spec)
        return self._brute[key]

    # -- per-kind gates ------------------------------------------------------------

    def _gate(self, job, code: int, out: str, err: str) -> Verdict:
        spec = job.spec
        kind = job.kind.split("/")[0]
        if kind == "tensor":
            generated, qdims = self._brute_force(spec["tensor"])
            data = json.loads(out)
            if data["generated_by_pure_tensors"] != generated or code != (0 if generated else 1):
                known = job.kind == "tensor/reproducer" and generated and code == 1
                return fail(
                    f"generated_by_pure_tensors={data['generated_by_pure_tensors']} (exit {code}),"
                    f" brute-force span says {generated}"
                    + ("; generation_check false negative, ROADMAP direction 4" if known else ""),
                    known=known,
                )
            total = sum(qdims.values())
            bad = {n: d for n, d in data["weight_space_dims"].items() if d != total}
            if bad:
                return fail(f"weight-space dims {bad}, expected {total} from the reference radical")
            return PASS
        if code != spec["expect"]:
            return fail(f"exit code {code}, expected {spec['expect']}; stderr: {err.strip()[-200:]}")
        data = json.loads(out)
        if kind == "int-module":
            want = spec["irreducible"]
            if data["irreducible"] != want or data["closure_full"] != want:
                return fail(f"irreducible={data['irreducible']} closure_full={data['closure_full']}, expected {want}")
            if not (data["consistent"] and data["normalized"]["closure_full"]):
                return fail("normalized module closure is not full")
            return PASS
        if kind == "verma":
            table = [
                (lv["dim"], lv["gram_rank"], lv["radical_dim"], lv["quotient_dim"])
                for _k, lv in sorted(data["levels"].items(), key=lambda kv: int(kv[0]))
            ]
            reason = _levels_dims_ok(table, 1 if spec["algebra"] == "trivial" else 2)
            reason = reason or _kac_ok({"mode": "generic"}, table)
            if reason:
                return fail(reason)
            if data.get("quotient_generates_top") is not True:
                return fail("quotient irreducibility check did not pass")
            return PASS
        if kind in ("endo-probe", "x-probe", "cor31", "psi-sep"):
            return self._cert_ok(data, spec["tensor"], spec.get("tensor2"))
        if kind == "iso-coeffs":
            facts = data["facts"]
            if data["status"] != "pass" or not (facts["identity_on_grid"] and facts["perturbation_detected"]):
                return fail(f"iso-coeffs status {data['status']}")
            return PASS
        if kind == "iso-check":
            if data["facts"]["isomorphic"] != spec["isomorphic"]:
                return fail(f"isomorphic={data['facts']['isomorphic']}, expected {spec['isomorphic']}")
            if spec["isomorphic"]:
                return PASS
            if "psi" not in data["facts"]["differences"]:
                return fail(f"differences {data['facts']['differences']} omit the character")
            return self._cert_ok(data["facts"]["separation"], spec["tensor"], spec["tensor2"])
        if kind == "run":
            if data["status"] != "pass":
                return fail(f"report status {data['status']!r}")
            cfg = data["config"]
            tspec = {
                "algebra": cfg["algebra"], "d0": cfg["phi"]["d0"],
                "c": cfg["phi"].get("c", ["0"] * len(cfg["phi"]["d0"])), "psi": cfg["psi"],
                "alpha": cfg["alpha"], "beta": cfg["beta"], "depth": cfg["depth"],
            }
            for cert in data["results"]["probes"]:
                if cert["status"] != "pass":
                    return fail(f"{cert['kind']} certificate status {cert['status']!r}")
                if cert.get("applications") and not self._replay(cert, self._tensor(tspec)):
                    return fail(f"{cert['kind']} certificate does not replay")
            return PASS
        return fail(f"no gate for job kind {job.kind!r}")


WORKLOADS = {"levels": Levels, "radical": Radical, "certify": Certify}
