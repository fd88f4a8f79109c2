"""Spans and counters around the engine's public functions.

The wrappers live here, in the benchmark, and are installed only for the
traced pass.  A span records (name, start, end, parent span, job id);
self time is a span's duration minus the time its child spans cover.
Counters count calls without spans, for functions too small to time
(scalar arithmetic).  A target that a later version of the engine no
longer has is reported as absent and its metrics read zero.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute path, layer name): timed spans
SPAN_TARGETS = [
    ("virloop.verma", "VermaModule.__init__", "verma.build"),
    ("virloop.verma", "normal_order", "verma.normal_order"),
    ("virloop.verma", "VermaModule.act_on_vphi", "verma.act_on_vphi"),
    ("virloop.verma", "VermaModule.cyclic_closure_contains_top", "verma.closure"),
    ("virloop.linalg", "nullspace", "linalg.nullspace"),
    ("virloop.linalg", "SpanBasis.add", "linalg.span_add"),
    ("virloop.linalg", "SpanBasis.reduce", "linalg.span_reduce"),
    ("virloop.intermediate", "IntModule.closure_is_full", "intermediate.closure"),
    ("virloop.tensor_product", "TensorModule.act", "tensor_product.act"),
    ("virloop.tensor_product", "TensorModule.generation_check", "tensor_product.generation_check"),
    ("virloop.probes", "endo_probe", "probes.endo"),
    ("virloop.probes", "depth_reduction_probe", "probes.depth_reduction"),
    ("virloop.probes", "pure_tensor_ladder_check", "probes.ladder"),
    ("virloop.probes", "psi_separation", "probes.psi_separation"),
    ("virloop.probes", "iso_signature", "probes.iso"),
    ("virloop.probes", "iso_check", "probes.iso"),
    ("virloop.probes", "iso_poly_coeffs", "probes.iso"),
    ("virloop.probes", "iso_poly_identity_check", "probes.iso"),
    ("virloop.probes", "replay_certificate", "probes.replay"),
    ("virloop.config", "run_config", "config.run_config"),
    ("virloop.config", "report_json", "config.report_json"),
    ("virloop.cli", "main", "cli.main"),
]

# (module, attribute path, counter name): call counts only
COUNT_TARGETS = [
    ("virloop.scalars", "GaussianRational.__mul__", "scalars.mul_calls"),
    ("virloop.scalars", "GaussianRational.__rmul__", "scalars.mul_calls"),
    ("virloop.scalars", "GaussianRational.__add__", "scalars.add_calls"),
    ("virloop.scalars", "GaussianRational.__radd__", "scalars.add_calls"),
    ("virloop.scalars", "GaussianRational.__sub__", "scalars.add_calls"),
    ("virloop.scalars", "GaussianRational.__truediv__", "scalars.div_calls"),
    ("virloop.scalars", "GaussianRational.__rtruediv__", "scalars.div_calls"),
    ("virloop.coeff_algebra", "AlgebraB.mult", "coeff_algebra.mult_calls"),
    ("virloop.intermediate", "IntModule.act_d", "intermediate.act_d_calls"),
]

# every per-layer metric, in report order: (name, unit)
PER_LAYER = [
    ("scalars.mul_calls", "count"),
    ("scalars.add_calls", "count"),
    ("scalars.div_calls", "count"),
    ("coeff_algebra.mult_calls", "count"),
    ("verma.build_s", "s"),
    ("verma.gram_entries", "count"),
    ("verma.normal_order_s", "s"),
    ("verma.normal_order_calls", "count"),
    ("verma.act_on_vphi_s", "s"),
    ("verma.act_on_vphi_calls", "count"),
    ("verma.closure_s", "s"),
    ("linalg.nullspace_s", "s"),
    ("linalg.nullspace_calls", "count"),
    ("linalg.nullspace_max_n", "count"),
    ("linalg.entry_bits_max", "bits"),
    ("linalg.span_add_s", "s"),
    ("linalg.span_add_calls", "count"),
    ("linalg.span_add_useful_ratio", "ratio"),
    ("linalg.span_reduce_s", "s"),
    ("intermediate.closure_s", "s"),
    ("intermediate.act_d_calls", "count"),
    ("tensor_product.act_s", "s"),
    ("tensor_product.act_calls", "count"),
    ("tensor_product.generation_check_s", "s"),
    ("probes.endo_s", "s"),
    ("probes.depth_reduction_s", "s"),
    ("probes.ladder_s", "s"),
    ("probes.psi_separation_s", "s"),
    ("probes.iso_s", "s"),
    ("probes.replay_s", "s"),
    ("config.run_config_s", "s"),
    ("config.report_json_s", "s"),
    ("cli.main_s", "s"),
]


def _entry_bits(values) -> int:
    """Largest numerator or denominator bit length among engine scalars."""
    best = 0
    for x in values:
        for part in (getattr(x, "re", None), getattr(x, "im", None)):
            if part is not None:
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


class Tracer:
    """In-memory spans and counters; `active` gates recording."""

    def __init__(self):
        self.active = False
        self.job = None
        self.spans: list[list] = []
        self._stack: list[list] = []  # [span index, child time]
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.extra = defaultdict(int)
        self.absent: list[str] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        self.self_time[span[0]] += dur - child
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def _hidden(self, start: float) -> None:
        """Charge bookkeeping done inside the tracer to no layer."""
        if self._stack:
            self._stack[-1][1] += time.perf_counter() - start

    def span(self, name: str, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if post is not None:
                start = time.perf_counter()
                tracer.active = False
                try:
                    post(tracer, args, result)
                finally:
                    tracer.active = True
                    tracer._hidden(start)
            return result

        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.extra[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        posts = {
            "verma.build": _post_build,
            "linalg.nullspace": _post_nullspace,
            "linalg.span_add": _post_span_add,
        }
        for module, path, name in SPAN_TARGETS:
            self._patch(module, path, lambda fn, name=name: self.span(name, fn, posts.get(name)))
        for module, path, name in COUNT_TARGETS:
            self._patch(module, path, lambda fn, name=name: self.counter(name, fn))

    def _patch(self, module: str, path: str, make) -> None:
        mod = sys.modules.get(module)
        owner_path, _, attr = path.rpartition(".")
        owner = mod
        for part in owner_path.split(".") if owner_path else []:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{module}.{path}")
            return
        wrapped = make(original)
        if owner_path:
            # a class attribute: every caller sees the wrapper
            if attr not in vars(owner):
                self.absent.append(f"{module}.{path} (inherited)")
                return
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))
            return
        # a function: rebind it wherever the package imported it by name
        for name, m in list(sys.modules.items()):
            if (name == "virloop" or name.startswith("virloop.")) and m is not None:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict:
        values = {}
        for name, unit in PER_LAYER:
            if name.endswith("_s"):
                v = self.self_time.get(name[:-2], 0.0)
            elif name.endswith("_calls") and name[:-6] in self.calls:
                v = self.calls[name[:-6]]
            elif name == "linalg.span_add_useful_ratio":
                attempts = self.calls.get("linalg.span_add", 0)
                v = self.extra["linalg.span_add_useful"] / attempts if attempts else 0.0
            else:
                v = self.extra.get(name, 0)
            values[name] = {"value": v, "unit": unit}
        return values

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


def _post_build(tracer: Tracer, args, _result) -> None:
    vm = args[0]
    try:
        entries = sum(len(vm.pbw_basis(k)) ** 2 for k in range(vm.depth + 1))
    except AttributeError:
        return
    tracer.extra["verma.gram_entries"] += entries


def _post_nullspace(tracer: Tracer, args, result) -> None:
    matrix = args[0]
    n = len(matrix[0]) if matrix else 0
    tracer.extra["linalg.nullspace_max_n"] = max(tracer.extra["linalg.nullspace_max_n"], n)
    bits = max(_entry_bits(x for row in matrix for x in row), _entry_bits(x for v in result for x in v))
    tracer.extra["linalg.entry_bits_max"] = max(tracer.extra["linalg.entry_bits_max"], bits)


def _post_span_add(tracer: Tracer, _args, result) -> None:
    if result:
        tracer.extra["linalg.span_add_useful"] += 1
