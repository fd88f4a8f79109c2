"""Command-line front end for the exact loop-Virasoro engine.

Subcommands fall into three groups: module inspectors (`int-module`,
`verma`, `tensor`) that print dimension and closure tables, probe runners
(`endo-probe`, `x-probe`, `cor31`, `psi-sep`, `iso-coeffs`, `iso-check`)
that emit one JSON certificate each, and batch plumbing (`run`,
`fixtures`) driven by a JSON config file.  The layer is thin: a handler
turns its flags into the `RunConfig` and probe descriptor a config would
hold, and `virloop.config` builds the modules and runs the probe, so a
probe subcommand prints exactly the certificate of the matching one-probe
`run`.

Exit codes: 0 every check passed, 1 a verified claim failed, 2 the stated
hypotheses exclude the given parameters, 3 the input itself was invalid,
4 an internal error (any other exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from dataclasses import replace
from importlib import resources

from .config import (
    ConfigError,
    RunConfig,
    _int_field,
    _scalar_field,
    _validate_probe,
    algebra_field,
    build_modules,
    execute_probe,
    fixture_dump,
    hw_field,
    level_table,
    load_config,
    psi_field,
    report_json,
    run_config,
    weight_space_dims,
    window_field,
)
from .intermediate import INDEX_ALL, IntModule, IntParams, is_irreducible_int, prime_module
from .probes import (
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_UNSATISFIABLE,
    ProbeCertificate,
    ProbeRun,
    dump_json,
    iso_check,
    iso_differences,
    iso_signature,
    psi_separation,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNSATISFIABLE = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4

_STATUS_EXIT = {
    STATUS_PASS: EXIT_PASS,
    STATUS_FAIL: EXIT_FAIL,
    STATUS_UNSATISFIABLE: EXIT_UNSATISFIABLE,
}

BUILTIN_CONFIGS = {"cor31-split": "cor31_split.json"}


class _Parser(argparse.ArgumentParser):
    """Argument errors become ConfigError so exit code 3 stays reserved for them."""

    def error(self, message):
        raise ConfigError("arguments", message)


# -- shared argument groups ---------------------------------------------------


def _add_algebra(p):
    p.add_argument(
        "--algebra",
        default="trivial",
        metavar="SPEC",
        help="builtin coefficient algebra: trivial, 'split k', 'truncated-poly d', 'cyclic-group n'",
    )


def _add_phi(p):
    p.add_argument(
        "--phi-d0",
        nargs="+",
        required=True,
        metavar="VAL",
        help="highest-weight values on d_0 tensor each basis element of B",
    )
    p.add_argument(
        "--phi-c",
        nargs="+",
        default=None,
        metavar="VAL",
        help="highest-weight values on the central element (default: zeros)",
    )


def _add_int_factor(p):
    p.add_argument("--psi", nargs="+", required=True, metavar="VAL", help="character values on the basis of B")
    p.add_argument("--alpha", required=True, help="index offset of the intermediate factor")
    p.add_argument("--beta", required=True, help="degree weight of the intermediate factor")


def _add_depth(p, default=2):
    p.add_argument(
        "--depth", type=int, default=default, help="truncation depth of the Verma factor (≥ 0)"
    )


def _belem_text(text: str):
    """A basis label, or comma-separated coordinates as the list a config would hold."""
    return text.split(",") if "," in text else text


def _add_window(p, default=(-6, 6)):
    p.add_argument(
        "--window",
        nargs=2,
        type=int,
        default=list(default),
        metavar=("KMIN", "KMAX"),
        help="index window of the intermediate factor",
    )


# -- construction helpers ------------------------------------------------------


def _spec(args) -> RunConfig:
    """The module spec the shared flags declare; `--psi` adds the intermediate factor."""
    algebra = algebra_field(args.algebra, "--algebra")
    hw = hw_field(algebra, args.phi_d0, args.phi_c, "--phi-d0", "--phi-c")
    cfg = RunConfig(algebra, hw, None, None, None, _int_field(args.depth, "--depth", minimum=0))
    if "psi" in args:
        cfg.psi = psi_field(algebra, args.psi, "--psi")
        cfg.alpha = _scalar_field(args.alpha, "--alpha")
        cfg.beta = _scalar_field(args.beta, "--beta")
    if "window" in args:
        cfg.window = window_field(args.window, "--window")
    return cfg


def _emit(obj) -> None:
    print(dump_json(obj))


def _emit_cert(cert: ProbeCertificate) -> int:
    print(cert.to_json())
    return _STATUS_EXIT[cert.status]


def _run_probe(cfg: RunConfig, raw: dict, path: str) -> int:
    """Validate raw flag values as `run` validates a probe descriptor, then run it as `run` would.

    A flag left at None is absent from the descriptor.
    """
    raw = {name: value for name, value in raw.items() if value is not None}
    desc = _validate_probe(cfg.algebra, raw, path, cfg.psi is not None, cfg.depth)
    _, tensor = build_modules(cfg)
    return _emit_cert(execute_probe(cfg, tensor, 0, desc))


# -- subcommand handlers -------------------------------------------------------


def _cmd_int_module(args) -> int:
    alpha = _scalar_field(args.alpha, "--alpha")
    beta = _scalar_field(args.beta, "--beta")
    kmin, kmax = window_field(args.window, "--window")
    degree = _int_field(args.degree, "--degree", minimum=1)
    raw = IntModule(IntParams(alpha, beta, None), INDEX_ALL)
    prime = prime_module(alpha, beta)
    # the normalized module's indices are a subset of the raw module's
    if len(prime.window_indices(kmin, kmax)) < 2:
        raise ConfigError("--window", f"[{kmin}, {kmax}] holds fewer than 2 allowed indices")
    predicate = is_irreducible_int(alpha, beta)
    raw_full = raw.closure_is_full(kmin, kmax, degree)
    prime_full = prime.closure_is_full(kmin, kmax, degree)
    consistent = (raw_full == predicate) and prime_full
    _emit(
        {
            "alpha": str(alpha),
            "beta": str(beta),
            "irreducible": predicate,
            "closure_full": raw_full,
            "normalized": {
                "alpha": str(prime.params.alpha),
                "beta": str(prime.params.beta),
                "index_set": prime.index_set,
                "closure_full": prime_full,
            },
            "window": [kmin, kmax],
            "degree": degree,
            "consistent": consistent,
        }
    )
    return EXIT_PASS if consistent else EXIT_FAIL


def _cmd_verma(args) -> int:
    cfg = _spec(args)
    vm, _ = build_modules(cfg)
    out = {"algebra": cfg.algebra.name or "custom", "depth": args.depth, "levels": level_table(vm)}
    code = EXIT_PASS
    if args.irreducibility:
        ok = vm.quotient_irreducibility_check()
        out["quotient_generates_top"] = ok
        code = EXIT_PASS if ok else EXIT_FAIL
    _emit(out)
    return code


def _cmd_tensor(args) -> int:
    cfg = _spec(args)
    _, tensor = build_modules(cfg)
    dims = weight_space_dims(tensor, cfg.window)
    generated = tensor.generation_check(*cfg.window)
    _emit(
        {
            "alpha": str(cfg.alpha),
            "beta": str(cfg.beta),
            "depth": args.depth,
            "window": list(cfg.window),
            "weight_space_dims": dims,
            "generated_by_pure_tensors": generated,
        }
    )
    return EXIT_PASS if generated else EXIT_FAIL


def _cmd_endo_probe(args) -> int:
    return _run_probe(_spec(args), {"kind": "endo", "m": args.m, "k": args.k}, args.command)


def _cmd_x_probe(args) -> int:
    raw = {"kind": "depth-reduction", "case": args.case, "b": args.b, "m": args.m, "n": args.n,
           "l_max": args.l_max}
    return _run_probe(_spec(args), raw, args.command)


def _cmd_cor31(args) -> int:
    return _run_probe(_spec(args), {"kind": "ladder", "b": args.b}, args.command)


def _cmd_psi_sep(args) -> int:
    cfg = _spec(args)
    cfg.psi = psi_field(cfg.algebra, args.psi1, "--psi1")
    cfg.alpha = _scalar_field(args.alpha, "--alpha")
    cfg.beta = _scalar_field(args.beta, "--beta")
    phi2 = {name: v for name, v in (("d0", args.phi2_d0), ("c", args.phi2_c)) if v is not None} or None
    raw = {"kind": "psi-separation", "psi2": args.psi2, "alpha2": args.alpha2, "beta2": args.beta2,
           "phi2": phi2, "depth2": args.depth2, "k": args.k, "degrees": args.degrees}
    return _run_probe(cfg, raw, args.command)


def _cmd_iso_coeffs(args) -> int:
    raw = {"kind": "iso-coeffs", **{name: getattr(args, name) for name in ("A", "b1", "Q", "b2")}}
    # the coefficient system involves no module, so there is nothing to build
    return _emit_cert(execute_probe(None, None, 0, _validate_probe(None, raw, args.command, False, 0)))


def _cmd_iso_check(args) -> int:
    algebra = algebra_field(args.algebra, "--algebra")
    hw1 = hw_field(algebra, args.phi1_d0, args.phi1_c, "--phi1-d0", "--phi1-c")
    hw2 = hw_field(algebra, args.phi2_d0, args.phi2_c, "--phi2-d0", "--phi2-c")
    psi1 = psi_field(algebra, args.psi1, "--psi1")
    psi2 = psi_field(algebra, args.psi2, "--psi2")
    names = ("alpha1", "beta1", "alpha2", "beta2")
    params = {name: _scalar_field(getattr(args, name), f"--{name}") for name in names}
    depth = _int_field(args.depth, "--depth", minimum=0)
    window = window_field(args.window, "--window")
    alpha1, beta1, alpha2, beta2 = params.values()
    s1 = iso_signature(algebra, hw1, alpha1, beta1, psi1)
    s2 = iso_signature(algebra, hw2, alpha2, beta2, psi2)
    equal = iso_check(s1, s2)
    diffs = iso_differences(s1, s2)
    facts = {
        "isomorphic": equal,
        "signature1": s1.to_dict(),
        "signature2": s2.to_dict(),
        "differences": diffs,
    }
    if not equal and args.refute:
        cfg = RunConfig(algebra, hw1, psi1, alpha1, beta1, depth, window)
        _, t1 = build_modules(cfg)
        _, t2 = build_modules(replace(cfg, hw=hw2, psi=psi2, alpha=alpha2, beta=beta2))
        facts["weight_space_dims"] = {
            "first": weight_space_dims(t1, cfg.window),
            "second": weight_space_dims(t2, cfg.window),
        }
        if psi1.values != psi2.values:
            facts["separation"] = psi_separation(t1, t2, cfg.window).to_dict()
    failed = {f"signatures differ in: {', '.join(diffs)}": not equal}
    run = ProbeRun("iso-signature", {name: str(v) for name, v in params.items()})
    return _emit_cert(run.verdict(facts, failed))


def load_config_data(source: str) -> dict:
    """Read a config JSON document from a file path or a builtin name."""
    if source in BUILTIN_CONFIGS:
        text = resources.files("virloop").joinpath("configs", BUILTIN_CONFIGS[source]).read_text()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("config", str(exc))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    return data


def _cmd_run(args) -> int:
    cfg = load_config(load_config_data(args.config))
    report = run_config(cfg, with_timing=args.timing)
    text = report_json(report)
    outpath = args.output or cfg.output
    if outpath:
        with open(outpath, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {outpath}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return _STATUS_EXIT[report["status"]]


def _cmd_fixtures(args) -> int:
    cfg = load_config(load_config_data(args.config))
    for path in fixture_dump(cfg, args.out):
        print(path)
    return EXIT_PASS


# -- parser assembly -----------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (handlers resolve globals when called)."""
    parser = _Parser(prog="virloop", description="exact computations in loop-Virasoro modules")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("int-module", help="intermediate-module irreducibility and closure table")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    _add_window(p, default=(-8, 8))
    p.add_argument("--degree", type=int, default=4, help="degree bound for the closure scan (≥ 1)")
    p.set_defaults(func=_cmd_int_module)

    p = sub.add_parser("verma", help="truncated Verma module: dimensions, form ranks, radicals")
    _add_algebra(p)
    _add_phi(p)
    _add_depth(p)
    p.add_argument(
        "--irreducibility",
        action="store_true",
        help="also certify every radical: the Gram matrix kills it, and no nonzero quotient vector "
        "is killed by every d_1 and d_2 tensor a basis element of B",
    )
    p.set_defaults(func=_cmd_verma)

    p = sub.add_parser("tensor", help="tensor module: weight-space table and generation check")
    _add_algebra(p)
    _add_phi(p)
    _add_int_factor(p)
    _add_depth(p)
    _add_window(p)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("endo-probe", help="degree-2n annihilation and independence certificate")
    _add_algebra(p)
    _add_phi(p)
    _add_int_factor(p)
    _add_depth(p)
    p.add_argument("--m", type=int, help="index of the seed pure tensor (default 0)")
    p.add_argument("--k", type=int, required=True, help="depth window the certificate covers")
    p.set_defaults(func=_cmd_endo_probe)

    p = sub.add_parser("x-probe", help="depth-reduction operator certificate")
    _add_algebra(p)
    _add_phi(p)
    _add_int_factor(p)
    _add_depth(p)
    p.add_argument("--case", required=True, help="I (beta != 0) or II (beta == 0)")
    p.add_argument(
        "--b", type=_belem_text, required=True, help="basis label or comma-separated coordinates in B"
    )
    p.add_argument("--m", type=int, help="weight offset of the probed vector (default 0)")
    p.add_argument("--n", type=int, required=True, help="top depth of the probed vector")
    p.add_argument("--l-max", type=int, help="scan bound for the operator degree")
    p.set_defaults(func=_cmd_x_probe)

    p = sub.add_parser("cor31", help="pure-tensor ladder certificate for an ideal direction")
    _add_algebra(p)
    _add_phi(p)
    _add_int_factor(p)
    _add_depth(p)
    _add_window(p)
    p.add_argument(
        "--b", type=_belem_text, required=True, help="basis label or comma-separated coordinates in B"
    )
    p.set_defaults(func=_cmd_cor31)

    p = sub.add_parser("psi-sep", help="separating-element certificate for two characters")
    _add_algebra(p)
    _add_phi(p)
    p.add_argument("--psi1", nargs="+", required=True, metavar="VAL")
    p.add_argument("--psi2", nargs="+", required=True, metavar="VAL")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--alpha2", default=None)
    p.add_argument("--beta2", default=None)
    p.add_argument("--phi2-d0", nargs="+", default=None, metavar="VAL")
    p.add_argument("--phi2-c", nargs="+", default=None, metavar="VAL")
    _add_depth(p, default=1)
    p.add_argument("--depth2", type=int)
    _add_window(p, default=(-4, 4))
    p.add_argument("--k", type=int, default=None, help="seed index on the live side")
    p.add_argument("--degrees", type=int, help="number of operator degrees to verify (default 5)")
    p.set_defaults(func=_cmd_psi_sep)

    p = sub.add_parser("iso-coeffs", help="coefficients of the grouped isomorphism polynomial")
    p.add_argument("--A", required=True)
    p.add_argument("--b1", required=True)
    p.add_argument("--Q", required=True)
    p.add_argument("--b2", required=True)
    p.set_defaults(func=_cmd_iso_coeffs)

    p = sub.add_parser("iso-check", help="compare isomorphism signatures of two tensor modules")
    _add_algebra(p)
    p.add_argument("--phi1-d0", nargs="+", required=True, metavar="VAL")
    p.add_argument("--phi1-c", nargs="+", default=None, metavar="VAL")
    p.add_argument("--psi1", nargs="+", required=True, metavar="VAL")
    p.add_argument("--alpha1", required=True)
    p.add_argument("--beta1", required=True)
    p.add_argument("--phi2-d0", nargs="+", required=True, metavar="VAL")
    p.add_argument("--phi2-c", nargs="+", default=None, metavar="VAL")
    p.add_argument("--psi2", nargs="+", required=True, metavar="VAL")
    p.add_argument("--alpha2", required=True)
    p.add_argument("--beta2", required=True)
    p.add_argument("--refute", action="store_true", help="attach concrete non-isomorphism evidence")
    _add_depth(p, default=1)
    _add_window(p, default=(-4, 4))
    p.set_defaults(func=_cmd_iso_check)

    p = sub.add_parser("run", help="execute a JSON run config and write its report")
    p.add_argument("config", help=f"config file path or builtin name: {', '.join(sorted(BUILTIN_CONFIGS))}")
    p.add_argument("--output", default=None, help="report path (overrides the config's own)")
    p.add_argument("--timing", action="store_true", help="attach wall-clock timing to the report")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("fixtures", help="dump Gram, radical, and action tables as exact CSV")
    p.add_argument("config", help="config file path or builtin name")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
