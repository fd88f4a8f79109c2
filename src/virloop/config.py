"""Module specs, the module builder, the probe executor, reports and fixtures.

A run configuration is a plain JSON object that declares one coefficient
algebra, one highest weight, optionally an intermediate-factor parameter
set (psi, alpha, beta), and a list of probe descriptors.  `load_config`
validates the document field by field and raises `ConfigError` with the
offending JSON path, so a caller can refuse bad input before any module
is built.  The resulting `RunConfig` is the one module spec of the
package: `build_modules` is the only place that turns parameters into
modules and `execute_probe` the only place that runs a probe descriptor,
for `run` and the command line alike.  `run_config` executes the declared
computations and returns a report dictionary whose JSON serialization is
byte-stable: reports carry no timestamps unless timing is requested
explicitly, every dict is dumped with sorted keys, and all sampled probes
draw from a generator seeded by the config.

Scalars in configs are strings or integers ("1/2", "3+2i", 4).  Floats
are rejected: the engine is exact and a float would smuggle in a rounding
the arithmetic cannot represent honestly.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field, replace

from . import __version__
from .coeff_algebra import AlgebraB, BElem, CharacterPsi, builtin_algebra
from .intermediate import int_module, is_irreducible_int
from .probes import (
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_UNSATISFIABLE,
    ProbeCertificate,
    depth_reduction_probe,
    deserialize_tensor,
    dump_json,
    endo_probe,
    iso_coeffs_cert,
    iso_identity_cert,
    psi_separation,
    pure_tensor_ladder_check,
    separating_vector,
)
from .scalars import ZERO, GaussianRational, scalar
from .tensor_product import TensorModule
from .verma import HighestWeight, VermaModule
from .virasoro import KIND_D, Generator


class ConfigError(Exception):
    """A malformed run configuration, tagged with the JSON field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


# -- field parsers ---------------------------------------------------------


def _scalar_field(value, path: str) -> GaussianRational:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(path, "expected an exact scalar (string or integer)")
    try:
        return scalar(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(path, str(exc))


def _scalar_list(value, path: str, expected_len: int | None = None) -> list[GaussianRational]:
    if not isinstance(value, list):
        raise ConfigError(path, "expected a list of exact scalars")
    if expected_len is not None and len(value) != expected_len:
        raise ConfigError(path, f"expected {expected_len} values, got {len(value)}")
    return [_scalar_field(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _int_field(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return value


def algebra_field(value, path: str = "algebra") -> AlgebraB:
    """Resolve a builtin name or a structure-constant table, fully validated."""
    if isinstance(value, str):
        try:
            algebra = builtin_algebra(value)
        except ValueError as exc:
            raise ConfigError(path, str(exc))
    elif isinstance(value, dict):
        unknown = sorted(set(value) - {"table", "unit", "labels", "name"})
        if unknown:
            raise ConfigError(path, f"unknown keys: {', '.join(unknown)}")
        if "table" not in value or "unit" not in value:
            raise ConfigError(path, "a custom algebra needs 'table' and 'unit'")
        try:
            algebra = AlgebraB(
                table=value["table"],
                unit=value["unit"],
                labels=value.get("labels"),
                name=value.get("name", "custom"),
            )
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise ConfigError(path, str(exc))
    else:
        raise ConfigError(path, "expected a builtin name or a structure-constant table")
    try:
        algebra.validate()
    except ValueError as exc:
        raise ConfigError(path, str(exc))
    return algebra


def belem_field(algebra: AlgebraB, value, path: str) -> BElem:
    """An element of B given as a basis label or a coordinate list."""
    if isinstance(value, str):
        label = value.strip()
        for j, name in enumerate(algebra.labels):
            if label == name:
                return algebra.basis_elem(j)
        if label.startswith("e") and label[1:].isdigit():
            j = int(label[1:])
            if 0 <= j < algebra.dim:
                return algebra.basis_elem(j)
        raise ConfigError(path, f"unknown basis label {value!r}")
    if isinstance(value, list):
        return algebra.elem(_scalar_list(value, path, expected_len=algebra.dim))
    raise ConfigError(path, "expected a basis label or a coordinate list")


def hw_field(algebra: AlgebraB, d0, c, d0_path: str, c_path: str) -> HighestWeight:
    """A highest weight from its values on d_0 and on C; C defaults to zeros."""
    d0_values = _scalar_list(d0, d0_path, expected_len=algebra.dim)
    if c is None:
        c_values = [ZERO] * algebra.dim
    else:
        c_values = _scalar_list(c, c_path, expected_len=algebra.dim)
    return HighestWeight(algebra, d0_values, c_values)


def psi_field(algebra: AlgebraB, value, path: str) -> CharacterPsi:
    psi = CharacterPsi(algebra, _scalar_list(value, path, expected_len=algebra.dim))
    if not psi.check():
        raise ConfigError(path, "values do not define a unital character of the algebra")
    return psi


_PROBE_KINDS = ("endo", "depth-reduction", "ladder", "psi-separation", "iso-identity", "iso-coeffs")
_TENSOR_KINDS = {"endo", "depth-reduction", "ladder", "psi-separation"}

_PROBE_FIELDS = {
    "endo": {"m", "k"},
    "depth-reduction": {"case", "b", "m", "n", "l_max", "vector"},
    "ladder": {"b"},
    "psi-separation": {"psi2", "alpha2", "beta2", "phi2", "depth2", "k", "degrees"},
    "iso-identity": {"samples"},
    "iso-coeffs": {"A", "b1", "Q", "b2"},
}


@dataclass
class RunConfig:
    """A module spec (algebra, hw, psi, alpha, beta, depth, window) plus run fields.

    The command line leaves the run fields at their defaults; `raw` keeps
    a config's original JSON for echoing.
    """

    algebra: AlgebraB
    hw: HighestWeight
    psi: CharacterPsi | None
    alpha: GaussianRational | None
    beta: GaussianRational | None
    depth: int
    window: tuple[int, int] = (-6, 6)
    seed: int = 0
    probes: list[dict] = field(default_factory=list)
    output: str | None = None
    raw: dict = field(default_factory=dict)


_TOP_KEYS = {
    "algebra",
    "phi",
    "psi",
    "alpha",
    "beta",
    "depth",
    "window",
    "seed",
    "probes",
    "output",
}


def _phi_field(algebra, phi, path: str):
    """A highest weight given as {"d0": [...], "c": [...]}, with "c" optional and no other key."""
    if not isinstance(phi, dict):
        raise ConfigError(path, "expected an object with 'd0' and optional 'c'")
    unknown = sorted(set(phi) - {"d0", "c"})
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown field")
    if "d0" not in phi:
        raise ConfigError(f"{path}.d0", "required field is missing")
    return hw_field(algebra, phi["d0"], phi.get("c"), f"{path}.d0", f"{path}.c")


def load_config(data: dict) -> RunConfig:
    """Validate a JSON document into a RunConfig, or raise ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a JSON object")
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        raise ConfigError(unknown[0], "unknown field")
    if "algebra" not in data:
        raise ConfigError("algebra", "required field is missing")
    algebra = algebra_field(data["algebra"], "algebra")

    if "phi" not in data:
        raise ConfigError("phi", "required field is missing")
    hw = _phi_field(algebra, data["phi"], "phi")

    psi = None
    if data.get("psi") is not None:
        psi = psi_field(algebra, data["psi"], "psi")

    alpha = beta = None
    if psi is not None:
        for name in ("alpha", "beta"):
            if data.get(name) is None:
                raise ConfigError(name, "required when psi is given")
        alpha = _scalar_field(data["alpha"], "alpha")
        beta = _scalar_field(data["beta"], "beta")
    else:
        for name in ("alpha", "beta"):
            if data.get(name) is not None:
                raise ConfigError(name, "needs psi to define the intermediate factor")

    depth = _int_field(data.get("depth", 2), "depth", minimum=0)

    window_raw = data.get("window", [-6, 6])
    if not isinstance(window_raw, list) or len(window_raw) != 2:
        raise ConfigError("window", "expected [kmin, kmax]")
    kmin = _int_field(window_raw[0], "window[0]")
    kmax = _int_field(window_raw[1], "window[1]")
    if kmin > kmax:
        raise ConfigError("window", f"kmin {kmin} exceeds kmax {kmax}")

    seed = _int_field(data.get("seed", 0), "seed")

    probes_raw = data.get("probes", [])
    if not isinstance(probes_raw, list):
        raise ConfigError("probes", "expected a list of probe descriptors")
    probes = []
    for i, desc in enumerate(probes_raw):
        probes.append(_validate_probe(algebra, desc, f"probes[{i}]", psi is not None, depth))

    output = data.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output", "expected a file path string")

    return RunConfig(
        algebra=algebra,
        hw=hw,
        psi=psi,
        alpha=alpha,
        beta=beta,
        depth=depth,
        window=(kmin, kmax),
        seed=seed,
        probes=probes,
        output=output,
        raw=data,
    )


def _optional(desc: dict, name: str, path: str, parse, default=None, **kwargs):
    """desc[name] parsed at its JSON path, or the default when the field is absent."""
    return parse(desc[name], f"{path}.{name}", **kwargs) if name in desc else default


def _validate_probe(algebra, desc, path: str, have_psi: bool, depth: int) -> dict:
    if not isinstance(desc, dict):
        raise ConfigError(path, "expected an object with a 'kind' field")
    kind = desc.get("kind")
    if kind not in _PROBE_KINDS:
        raise ConfigError(f"{path}.kind", f"expected one of {', '.join(_PROBE_KINDS)}")
    unknown = sorted(set(desc) - _PROBE_FIELDS[kind] - {"kind"})
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}", "unknown field")
    if kind in _TENSOR_KINDS and not have_psi:
        raise ConfigError(path, f"probe kind {kind!r} needs psi, alpha and beta")

    out = {"kind": kind}
    if kind == "endo":
        out["m"] = _int_field(desc.get("m", 0), f"{path}.m")
        if "k" not in desc:
            raise ConfigError(f"{path}.k", "required field is missing")
        out["k"] = _int_field(desc["k"], f"{path}.k", minimum=0)
        if out["k"] > depth:
            raise ConfigError(f"{path}.k", f"exceeds the configured depth {depth}")
    elif kind == "depth-reduction":
        case = desc.get("case")
        if case not in ("I", "II"):
            raise ConfigError(f"{path}.case", "expected 'I' or 'II'")
        out["case"] = case
        if "b" not in desc:
            raise ConfigError(f"{path}.b", "required field is missing")
        out["b"] = belem_field(algebra, desc["b"], f"{path}.b")
        out["m"] = _int_field(desc.get("m", 0), f"{path}.m")
        if "n" not in desc:
            raise ConfigError(f"{path}.n", "required field is missing")
        out["n"] = _int_field(desc["n"], f"{path}.n", minimum=1)
        if out["n"] > depth:
            raise ConfigError(f"{path}.n", f"exceeds the configured depth {depth}")
        out["l_max"] = _optional(desc, "l_max", path, _int_field, minimum=1)
        out["vector"] = desc.get("vector")
    elif kind == "ladder":
        if depth < 1:
            raise ConfigError(path, "probe kind 'ladder' needs depth >= 1")
        if "b" not in desc:
            raise ConfigError(f"{path}.b", "required field is missing")
        out["b"] = belem_field(algebra, desc["b"], f"{path}.b")
    elif kind == "psi-separation":
        if "psi2" not in desc:
            raise ConfigError(f"{path}.psi2", "required field is missing")
        out["psi2"] = psi_field(algebra, desc["psi2"], f"{path}.psi2")
        out["alpha2"] = _optional(desc, "alpha2", path, _scalar_field)
        out["beta2"] = _optional(desc, "beta2", path, _scalar_field)
        out["phi2"] = _phi_field(algebra, desc["phi2"], f"{path}.phi2") if "phi2" in desc else None
        out["depth2"] = _optional(desc, "depth2", path, _int_field, minimum=0)
        out["k"] = _optional(desc, "k", path, _int_field)
        out["degrees"] = _optional(desc, "degrees", path, _int_field, 5, minimum=1)
    elif kind == "iso-identity":
        out["samples"] = _optional(desc, "samples", path, _int_field, 25, minimum=1)
    elif kind == "iso-coeffs":
        for name in ("A", "b1", "Q", "b2"):
            if name not in desc:
                raise ConfigError(f"{path}.{name}", "required field is missing")
            out[name] = _scalar_field(desc[name], f"{path}.{name}")
    return out


# -- execution ---------------------------------------------------------------


def build_modules(cfg: RunConfig) -> tuple[VermaModule, TensorModule | None]:
    """Construct the truncated Verma module and, when psi is given, the tensor."""
    vm = VermaModule(cfg.algebra, cfg.hw, cfg.depth)
    if cfg.psi is None:
        return vm, None
    return vm, TensorModule(vm, int_module(cfg.alpha, cfg.beta, cfg.psi))


def level_table(vm: VermaModule) -> dict:
    """Dimension, form rank, radical and quotient dimension of every level."""
    return {
        str(k): {
            "dim": len(vm.pbw_basis(k)),
            "gram_rank": vm.gram_rank(k),
            "radical_dim": vm.radical_dim(k),
            "quotient_dim": vm.vphi_dim(k),
        }
        for k in range(vm.depth + 1)
    }


def weight_space_dims(tensor: TensorModule, window: tuple[int, int]) -> dict:
    """Weight-space dimension of every offset in the window."""
    kmin, kmax = window
    return {str(n): tensor.weight_space_dim(n) for n in range(kmin, kmax + 1)}


def default_weight_vector(tensor: TensorModule, m: int, n: int):
    """Sum of all quotient-basis pure tensors at levels 0..n with index offset m."""
    entries = {}
    for i in range(n + 1):
        if not tensor.intermediate.allowed_index(m + i):
            continue
        for mono in tensor.verma.quotient_monomials(i):
            entries[(i, mono, m + i)] = 1
    return tensor.vector(entries)


def execute_probe(cfg: RunConfig, tensor, index: int, desc: dict) -> ProbeCertificate:
    """Run one validated probe descriptor (as `load_config` returns it) on cfg's modules."""
    kind = desc["kind"]
    if kind == "endo":
        return endo_probe(tensor, desc["m"], desc["k"])
    if kind == "depth-reduction":
        if desc.get("vector") is not None:
            try:
                w_vec = tensor.vector(deserialize_tensor(desc["vector"]))
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"probes[{index}].vector", str(exc))
        else:
            w_vec = default_weight_vector(tensor, desc["m"], desc["n"])
        return depth_reduction_probe(
            tensor, desc["case"], desc["b"], desc["m"], desc["n"], w_vec, l_max=desc["l_max"]
        )
    if kind == "ladder":
        kmin, kmax = cfg.window
        if kmax <= kmin:
            raise ConfigError("window", "probe kind 'ladder' needs at least two indices")
        return pure_tensor_ladder_check(tensor, desc["b"], kmin, kmax)
    if kind == "psi-separation":
        # the second module is the first with every given field replaced
        second = {"hw": desc["phi2"], "psi": desc["psi2"], "alpha": desc["alpha2"],
                  "beta": desc["beta2"], "depth": desc["depth2"]}
        _, tensor2 = build_modules(replace(cfg, **{k: v for k, v in second.items() if v is not None}))
        k = desc["k"]
        # the seed index lives on the module whose character does not vanish at the witness
        found = k is not None and separating_vector(cfg.algebra, cfg.psi, tensor2.intermediate.params.psi)
        if found and not (tensor2, tensor)[found[1] - 1].intermediate.allowed_index(k):
            raise ConfigError(f"probes[{index}].k", f"index {k} lies outside the live module's basis")
        return psi_separation(tensor, tensor2, cfg.window, k=k, num_l=desc["degrees"])
    if kind == "iso-identity":
        return iso_identity_cert(cfg.seed, index, desc["samples"])
    if kind == "iso-coeffs":
        return iso_coeffs_cert(desc["A"], desc["b1"], desc["Q"], desc["b2"])
    raise ConfigError(f"probes[{index}].kind", f"unhandled kind {kind!r}")


def aggregate_status(statuses) -> str:
    """Worst status wins: fail over hypothesis-unsatisfiable over pass."""
    statuses = list(statuses)
    if STATUS_FAIL in statuses:
        return STATUS_FAIL
    if STATUS_UNSATISFIABLE in statuses:
        return STATUS_UNSATISFIABLE
    return STATUS_PASS


def run_config(cfg: RunConfig, with_timing: bool = False) -> dict:
    """Execute a validated config and assemble the report dictionary.

    The report is deterministic: identical configs produce byte-identical
    JSON.  Timing is attached only on request because wall-clock readings
    would break that guarantee.
    """
    start = time.perf_counter()
    vm, tensor = build_modules(cfg)
    results = {
        "verma": {
            "algebra": cfg.algebra.name or "custom",
            "depth": cfg.depth,
            "levels": level_table(vm),
        }
    }

    if tensor is not None:
        results["intermediate"] = {
            "alpha": str(cfg.alpha),
            "beta": str(cfg.beta),
            "index_set": tensor.intermediate.index_set,
            "irreducible": is_irreducible_int(cfg.alpha, cfg.beta),
            "psi": [str(v) for v in cfg.psi.values],
        }
        results["tensor"] = {
            "window": list(cfg.window),
            "weight_space_dims": weight_space_dims(tensor, cfg.window),
        }

    certs = [execute_probe(cfg, tensor, index, desc) for index, desc in enumerate(cfg.probes)]
    results["probes"] = [c.to_dict() for c in certs]

    report = {
        "artifact": {"name": "virloop", "version": __version__},
        "config": cfg.raw,
        "results": results,
        "status": aggregate_status(c.status for c in certs),
    }
    if with_timing:
        report["timing"] = {"seconds": round(time.perf_counter() - start, 6)}
    return report


def report_json(report: dict) -> str:
    return dump_json(report) + "\n"


# -- fixtures ----------------------------------------------------------------


def _mono_label(algebra: AlgebraB, mono) -> str:
    if not mono:
        return "vphi"
    return " ".join(f"d[-{d}]*{algebra.labels[j]}" for d, j in mono)


def fixture_dump(cfg: RunConfig, outdir: str) -> list[str]:
    """Write Gram matrices, radical bases, and action tables as exact CSV.

    File contents are pure functions of the config: orderings follow the
    canonical monomial bases, fractions are serialized exactly, and no
    timestamps appear, so re-running a dump is byte-identical.  At depth 0
    there is nothing below the highest weight vector and the action table
    is header-only.
    """
    os.makedirs(outdir, exist_ok=True)
    vm, _ = build_modules(cfg)
    algebra = cfg.algebra
    written = []

    def _open(name):
        written.append(name)
        return open(os.path.join(outdir, name), "w", newline="")

    for k in range(1, cfg.depth + 1):
        basis = vm.pbw_basis(k)
        labels = [_mono_label(algebra, mono) for mono in basis]
        with _open(f"gram_level_{k}.csv") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["monomial"] + labels)
            gram = vm.gram(k)
            for label, row in zip(labels, gram):
                writer.writerow([label] + [str(c) for c in row])
        with _open(f"radical_level_{k}.csv") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["vector"] + labels)
            for r, vec in enumerate(vm.radical_basis(k)):
                coords = [str(vec.get(mono, ZERO)) for mono in basis]
                writer.writerow([f"r{r}"] + coords)

    with _open("actions.csv") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["level", "degree", "bindex", "source", "target", "coefficient"])
        for k in range(1, cfg.depth + 1):
            for n in range(1, k + 1):
                for j in range(algebra.dim):
                    gen = Generator(KIND_D, n, algebra.basis_elem(j))
                    for mono in vm.quotient_monomials(k):
                        target, reduced = vm.act_on_vphi(gen, k, {mono: scalar(1)})
                        order = vm.monomial_index(target)
                        for tmono in sorted(reduced, key=lambda m: order[m]):
                            writer.writerow(
                                [
                                    k,
                                    n,
                                    j,
                                    _mono_label(algebra, mono),
                                    _mono_label(algebra, tmono),
                                    str(reduced[tmono]),
                                ]
                            )

    manifest = {
        "artifact": {"name": "virloop", "version": __version__},
        "algebra": algebra.name or "custom",
        "depth": cfg.depth,
        "files": sorted(written),
    }
    with _open("manifest.json") as fh:
        fh.write(dump_json(manifest) + "\n")
    return [os.path.join(outdir, name) for name in sorted(written)]
