"""Tensor modules: a highest-weight quotient tensored with an intermediate module.

Vectors live in V(φ)⊗V', encoded sparsely by keys (i, mono, k): level i of
V(φ), a quotient-basis monomial at that level, and the intermediate index
k.  A generator acts by the Leibniz rule,

    g.(x⊗v) = (g.x)⊗v + x⊗(g.v),

with central generators acting by φ(C⊗b) on the first factor and by zero
on the second.  The action is exact: each generator maps a basis pair to
finitely many basis pairs, and the only resource bound is the computed
depth of V(φ).  Exceeding it raises ValueError rather than
truncating, because downstream probe certificates rely on exactness.

Weight bookkeeping: the summand (i, mono, k) has weight φ(d_0)+α+(k-i),
so homogeneous vectors of offset n are supported on pairs with k-i = n.
"""

from __future__ import annotations

from .intermediate import IntModule
from .linalg import SpanBasis, deposit
from .scalars import ONE, ZERO, scalar
from .verma import VermaModule
from .virasoro import Generator, KIND_D, WordSum

TensorVector = dict


class TensorModule:
    """V(φ)⊗V'_{α,β,ψ} with exact generator action on sparse vectors."""

    def __init__(self, verma: VermaModule, intermediate: IntModule):
        if intermediate.params.psi is None:
            raise ValueError("tensor factor needs a concrete character psi")
        if intermediate.params.psi.algebra.table != verma.algebra.table:
            raise ValueError("both factors must share one coefficient algebra")
        self.verma = verma
        self.intermediate = intermediate
        self.algebra = verma.algebra

    # -- vectors ---------------------------------------------------------------

    def seed(self, m: int) -> TensorVector:
        """The generator candidate v_φ⊗v_m."""
        if not self.intermediate.allowed_index(m):
            raise ValueError(f"index {m} is outside the intermediate module's basis")
        return {(0, (), m): ONE}

    def vector(self, entries) -> TensorVector:
        """Validate and canonicalize: reduce each level piece modulo the radical."""
        grouped: dict = {}
        for (i, mono, k), c in dict(entries).items():
            c = scalar(c)
            if not c:
                continue
            if not self.intermediate.allowed_index(k):
                raise ValueError(f"index {k} outside the intermediate basis")
            if i > self.verma.depth:
                raise ValueError(f"level {i} lies beyond depth {self.verma.depth}")
            mono = tuple(mono)
            if mono not in self.verma.monomial_index(i):
                raise ValueError(f"unknown level-{i} monomial {mono!r}")
            cell = grouped.setdefault((i, int(k)), {})
            cell[mono] = cell.get(mono, ZERO) + c
        out: TensorVector = {}
        for (i, k), vec in grouped.items():
            for mono, c in self.verma.vphi_reduce(i, vec).items():
                deposit(out, (i, mono, k), c)
        return out

    # -- action ------------------------------------------------------------------

    def act(self, gen: Generator, x: TensorVector) -> TensorVector:
        out: TensorVector = {}
        by_level_k: dict = {}
        for (i, mono, k), c in x.items():
            by_level_k.setdefault((i, k), {})[mono] = c
        for (i, k), vec in by_level_k.items():
            # first Leibniz term: act on the highest-weight factor
            target, res = self.verma.act_on_vphi(gen, i, vec)
            for mono2, c2 in res.items():
                deposit(out, (target, mono2, k), c2)
            # second Leibniz term: act on the intermediate factor
            for k2, c2 in self.intermediate.act(gen, {k: ONE}).items():
                for mono, c in vec.items():
                    deposit(out, (i, mono, k2), c * c2)
        return out

    def act_words(self, words: WordSum, vec: TensorVector) -> TensorVector:
        """Apply a sum of factor sequences, each rightmost factor first."""
        out: TensorVector = {}
        for factors, coeff in words.words.items():
            part = vec
            for gen in reversed(factors):
                part = self.act(gen, part)
            for key, c in part.items():
                deposit(out, key, coeff * c)
        return out

    # -- weights ----------------------------------------------------------------------

    def weight_space_dim(self, n: int) -> int:
        """Dimension of the offset-n weight space, truncated at the Verma depth."""
        total = 0
        for i in range(self.verma.depth + 1):
            if self.intermediate.allowed_index(n + i):
                total += self.verma.vphi_dim(i)
        return total

    # -- generation oracle -------------------------------------------------------------

    def generation_check(self, kmin: int, kmax: int) -> bool:
        """Span-generation test on the truncation at the Verma depth D.

        Verifies that every basis vector (level i ≤ D, quotient monomial,
        index k in [kmin, kmax]) lies in the span of the negative-degree
        words of total degree ≤ D applied to the seeds v_φ⊗v_m.  A
        degree-D' word applied to v_φ⊗v_m has components (i, k) with
        k = m - (D' - i), so isolating a target at index k needs companion
        pure tensors with indices down to k - D; seeds with m in
        [kmin-D, kmax+D] cover every such chain.

        The span is built in budget layers: layer b is a basis of the span
        of all words of total degree exactly b applied to the seeds, which
        is the sum over n ≤ b and j of d_{-n}⊗e_j applied to layer b-n.
        Every layer is expanded in full, so an image already in the span of
        lower layers still carries its own remaining budget.
        """
        depth = self.verma.depth
        layers = [[
            self.seed(m)
            for m in range(kmin - depth, kmax + depth + 1)
            if self.intermediate.allowed_index(m)
        ]]
        gens = {
            n: [Generator(KIND_D, -n, self.algebra.basis_elem(j)) for j in range(self.algebra.dim)]
            for n in range(1, depth + 1)
        }
        for b in range(1, depth + 1):
            layer_span = SpanBasis()
            layer = []
            for n in range(1, b + 1):
                for vec in layers[b - n]:
                    for gen in gens[n]:
                        img = self.act(gen, vec)
                        if img and layer_span.add(img):
                            layer.append(img)
            layers.append(layer)
        span = SpanBasis()
        for layer in layers:
            for vec in layer:
                span.add(vec)
        for i in range(depth + 1):
            for mono in self.verma.quotient_monomials(i):
                for k in range(kmin, kmax + 1):
                    if not self.intermediate.allowed_index(k):
                        continue
                    if not span.contains({(i, mono, k): ONE}):
                        return False
        return True
