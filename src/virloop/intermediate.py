"""Intermediate-series modules over the loop-Virasoro algebra.

V_{α,β,ψ} has basis {v_k : k ∈ Z} with the action

    d_n⊗b . v_k = ψ(b) (α + k + nβ) v_{k+n},      C⊗b . v_k = 0.

The reducible locus among these is exactly α ∈ Z together with β ∈ {0,1}.
Each isomorphism class of the irreducible versions V' has one canonical
realization here: α is shifted into 0 ≤ Re α < 1, β = 1 is re-expressed
as β = 0 (the two irreducible quotients are isomorphic), and for the
remaining degenerate pair (α,β) = (0,0) the module keeps index set
Z - {0}, discarding any v_0 component an action produces.

Vectors are sparse dicts {k: coefficient}.  Actions are exact and
unwindowed.  Finite windows appear only in `closure_is_full`, which
decides by reachability on window indices whether the submodule each
single v_k generates fills the window.  The tests check it against a
span-elimination closure (tests/oracle_lie.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff_algebra import CharacterPsi
from .linalg import deposit
from .scalars import GaussianRational, ONE, ZERO, normalize_alpha, scalar
from .virasoro import Generator, KIND_C

IntVector = dict


@dataclass(frozen=True)
class IntParams:
    """Parameters (α, β, ψ) of an intermediate-series module.

    psi may be None for abstract-coefficient mode, where callers supply the
    scalar ψ(b) per generator instead of a finite-dimensional algebra.
    """

    alpha: GaussianRational
    beta: GaussianRational
    psi: CharacterPsi | None = None


INDEX_ALL = "Z"
INDEX_NONZERO = "Z-0"


def is_irreducible_int(alpha, beta) -> bool:
    """Irreducibility of V_{α,β}: fails exactly when α ∈ Z and β ∈ {0,1}.

    Cross-validated against the submodule-closure oracle on finite windows.
    """
    alpha, beta = scalar(alpha), scalar(beta)
    return not (alpha.is_integer() and (beta == ZERO or beta == ONE))


class IntModule:
    """One intermediate-series module with a fixed index set.

    index_set INDEX_NONZERO realizes the irreducible version at the
    degenerate pair (0,0): v_0 spans a submodule there (d_n.v_0 has
    coefficient 0), so excluding index 0 and dropping any v_0 component an
    action produces is exactly the quotient by C·v_0.
    """

    def __init__(self, params: IntParams, index_set: str = INDEX_ALL):
        if index_set not in (INDEX_ALL, INDEX_NONZERO):
            raise ValueError(f"unknown index set {index_set!r}")
        self.params = params
        self.index_set = index_set

    # -- basis ------------------------------------------------------------------

    def allowed_index(self, k: int) -> bool:
        return self.index_set == INDEX_ALL or k != 0

    @property
    def irreducible(self) -> bool:
        """Irreducible as built: off the reducible locus, or Z - {0} at (0,0)."""
        p = self.params
        at_origin = self.index_set == INDEX_NONZERO and not p.alpha and not p.beta
        return at_origin or is_irreducible_int(p.alpha, p.beta)

    # -- actions -----------------------------------------------------------------

    def act_d(self, n: int, psi_b: GaussianRational, vec: IntVector) -> IntVector:
        """Apply d_n⊗b given the scalar ψ(b); exact, no window."""
        p = self.params
        out: IntVector = {}
        if not psi_b:
            return out
        for k, c in vec.items():
            if self.allowed_index(k + n):
                deposit(out, k + n, psi_b * (p.alpha + scalar(k) + scalar(n) * p.beta) * c)
        return out

    def act(self, gen: Generator, vec: IntVector) -> IntVector:
        if gen.kind == KIND_C:
            return {}
        if self.params.psi is None:
            raise ValueError("module has abstract coefficients; use act_d with psi(b)")
        return self.act_d(gen.degree, self.params.psi.of(gen.bcoef), vec)

    # -- finite window -------------------------------------------------------------

    def window_indices(self, kmin: int, kmax: int) -> list[int]:
        return [k for k in range(kmin, kmax + 1) if self.allowed_index(k)]

    def closure_is_full(self, kmin: int, kmax: int, max_degree: int) -> bool:
        """True iff the closure of every single v_k fills the whole window.

        Decided by reachability on indices, not by span elimination: d_n
        maps v_k to (α + k + nβ)·v_{k+n}, a multiple of one basis vector, so
        the span of the basis vectors reachable from v_k is invariant and
        any invariant span containing v_k contains each of them.  The
        closure of v_k under the window-truncated action is therefore
        spanned by the v_j that v_k reaches along edges k → k+n with
        0 < |n| ≤ max_degree, α + k + nβ ≠ 0 and k+n an allowed index in
        the window.  The window is full when every index reaches every
        other, i.e. when one index reaches all and is reached by all.
        """
        indices = self.window_indices(kmin, kmax)
        if len(indices) < 2:
            raise ValueError(
                f"window [{kmin}, {kmax}] holds fewer than 2 allowed indices"
            )
        p = self.params
        inside = set(indices)
        forward: dict[int, list[int]] = {k: [] for k in indices}
        backward: dict[int, list[int]] = {k: [] for k in indices}
        for k in indices:
            for n in range(-max_degree, max_degree + 1):
                if n and k + n in inside and p.alpha + scalar(k) + scalar(n) * p.beta:
                    forward[k].append(k + n)
                    backward[k + n].append(k)
        return all(
            len(_reachable(indices[0], edges)) == len(indices)
            for edges in (forward, backward)
        )


def _reachable(start: int, edges: dict[int, list[int]]) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for j in edges[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def prime_module(alpha, beta, psi: CharacterPsi | None = None) -> IntModule:
    """Canonical realization of the irreducible version V'_{α,β,ψ}.

    Shifts α into 0 ≤ Re α < 1, replaces β = 1 by the isomorphic β = 0
    realization, and excludes index 0 exactly at the remaining degenerate
    pair (0,0).
    """
    alpha, beta = scalar(alpha), scalar(beta)
    a0, _ = normalize_alpha(alpha)
    if beta == ONE:
        beta = ZERO
    return int_module(a0, beta, psi)


def int_module(alpha, beta, psi: CharacterPsi | None = None) -> IntModule:
    """V_{α,β,ψ} as given (reducible or not), on index set Z - {0} exactly at (0,0)."""
    alpha, beta = scalar(alpha), scalar(beta)
    index_set = INDEX_NONZERO if (alpha == ZERO and beta == ZERO) else INDEX_ALL
    return IntModule(IntParams(alpha, beta, psi), index_set)
