"""Finite-dimensional commutative unital coefficient algebras and their characters.

An algebra B is stored by structure constants over a fixed basis
e_0, ..., e_{dim-1}; elements are dense coordinate tuples of Gaussian
rationals.  The module provides the handful of operations the
representation layer needs: products, characters (one-dimensional
representations), and exact ideal generation.
"""

from __future__ import annotations

from .linalg import SpanBasis
from .scalars import GaussianRational, ONE, ZERO, scalar

BElem = tuple[GaussianRational, ...]


class AlgebraB:
    """Commutative associative unital algebra given by structure constants.

    table[i][j] is the coordinate tuple of the basis product e_i e_j.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, table, unit, labels=None, name=None):
        self.dim = len(table)
        self.table = tuple(
            tuple(tuple(scalar(c) for c in cell) for cell in row) for row in table
        )
        self.unit: BElem = tuple(scalar(c) for c in unit)
        if labels is None:
            labels = tuple(f"e{j}" for j in range(self.dim))
        self.labels = tuple(labels)
        self.name = name
        if len(self.unit) != self.dim or any(len(r) != self.dim for r in self.table):
            raise ValueError("structure table and unit must match the declared dimension")
        for row in self.table:
            for cell in row:
                if len(cell) != self.dim:
                    raise ValueError("structure constants must be dim-length vectors")

    # -- element helpers -----------------------------------------------------

    def basis_elem(self, j: int) -> BElem:
        if not 0 <= j < self.dim:
            raise ValueError(f"basis index {j} out of range for dim {self.dim}")
        return tuple(ONE if k == j else ZERO for k in range(self.dim))

    def elem(self, coords) -> BElem:
        out = tuple(scalar(c) for c in coords)
        if len(out) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(out)}")
        return out

    def mult(self, a: BElem, b: BElem) -> BElem:
        if len(a) != self.dim or len(b) != self.dim:
            raise ValueError("element dimension mismatch")
        out = [ZERO] * self.dim
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                f = ai * bj
                for k, c in enumerate(self.table[i][j]):
                    if c:
                        out[k] = out[k] + f * c
        return tuple(out)

    def format_elem(self, a: BElem) -> str:
        terms = [f"({c})*{self.labels[j]}" for j, c in enumerate(a) if c]
        return " + ".join(terms) if terms else "0"

    # -- axioms ---------------------------------------------------------------

    def validate(self) -> None:
        """Check commutativity, associativity, and the unit law exactly.

        Raises ValueError naming the first violated basis pair or triple.
        """
        basis = [self.basis_elem(j) for j in range(self.dim)]
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.table[i][j] != self.table[j][i]:
                    raise ValueError(
                        f"commutativity fails: {self.labels[i]}*{self.labels[j]} "
                        f"!= {self.labels[j]}*{self.labels[i]}"
                    )
        for i in range(self.dim):
            for j in range(self.dim):
                left_ij = self.mult(basis[i], basis[j])
                for k in range(self.dim):
                    lhs = self.mult(left_ij, basis[k])
                    rhs = self.mult(basis[i], self.mult(basis[j], basis[k]))
                    if lhs != rhs:
                        raise ValueError(
                            f"associativity fails at ({self.labels[i]}*{self.labels[j]})"
                            f"*{self.labels[k]}"
                        )
        for i in range(self.dim):
            if self.mult(self.unit, basis[i]) != basis[i]:
                raise ValueError(f"unit law fails: 1*{self.labels[i]} != {self.labels[i]}")

    # -- ideals ---------------------------------------------------------------

    def ideal_generated(self, b: BElem) -> list[BElem]:
        """Echelonized basis of the smallest ideal of B containing b.

        Closes span{b} under multiplication by all basis elements until the
        dimension stabilizes; deterministic because pivots are leftmost.
        """
        span = SpanBasis()
        queue = [tuple(b)]
        span.add({j: c for j, c in enumerate(b) if c})
        while queue:
            cur = queue.pop()
            for j in range(self.dim):
                prod = self.mult(cur, self.basis_elem(j))
                if span.add({k: c for k, c in enumerate(prod) if c}):
                    queue.append(prod)
        out = []
        for row in span.vectors():
            out.append(tuple(row.get(j, ZERO) for j in range(self.dim)))
        return out

    def __repr__(self):
        tag = self.name or "custom"
        return f"AlgebraB({tag}, dim={self.dim})"


class CharacterPsi:
    """Algebra homomorphism B -> Q(i) with psi(1) = 1, stored by basis values."""

    def __init__(self, algebra: AlgebraB, values):
        self.algebra = algebra
        self.values = tuple(scalar(v) for v in values)
        if len(self.values) != algebra.dim:
            raise ValueError(f"expected {algebra.dim} character values")

    def of(self, b: BElem) -> GaussianRational:
        acc = ZERO
        for c, v in zip(b, self.values):
            if c and v:
                acc = acc + c * v
        return acc

    def check(self) -> bool:
        """True iff psi is multiplicative on all basis pairs and psi(1) = 1."""
        B = self.algebra
        if self.of(B.unit) != ONE:
            return False
        for i in range(B.dim):
            for j in range(i, B.dim):
                prod = B.mult(B.basis_elem(i), B.basis_elem(j))
                if self.of(prod) != self.values[i] * self.values[j]:
                    return False
        return True


# -- builtin algebras -----------------------------------------------------------


def trivial_algebra() -> AlgebraB:
    """B = Q(i) itself, one-dimensional with basis {1}."""
    return AlgebraB(table=[[[1]]], unit=[1], labels=("1",), name="trivial")


def truncated_poly(d: int) -> AlgebraB:
    """B = Q(i)[t]/(t^d) with basis 1, t, ..., t^(d-1)."""
    if d < 1:
        raise ValueError("truncated-poly degree must be >= 1")
    table = [
        [[1 if k == i + j else 0 for k in range(d)] for j in range(d)] for i in range(d)
    ]
    labels = tuple("1" if i == 0 else (f"t^{i}" if i > 1 else "t") for i in range(d))
    unit = [1] + [0] * (d - 1)
    return AlgebraB(table=table, unit=unit, labels=labels, name=f"truncated-poly {d}")


def split_algebra(k: int) -> AlgebraB:
    """B = Q(i)^k componentwise, with orthogonal idempotent basis."""
    if k < 1:
        raise ValueError("split dimension must be >= 1")
    table = [
        [[1 if (i == j and m == i) else 0 for m in range(k)] for j in range(k)]
        for i in range(k)
    ]
    return AlgebraB(table=table, unit=[1] * k, name=f"split {k}")


def cyclic_group_algebra(n: int) -> AlgebraB:
    """Group algebra of Z/nZ with basis g^0, ..., g^(n-1)."""
    if n < 1:
        raise ValueError("cyclic-group order must be >= 1")
    table = [
        [[1 if k == (i + j) % n else 0 for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    labels = tuple("1" if i == 0 else (f"g^{i}" if i > 1 else "g") for i in range(n))
    return AlgebraB(table=table, unit=[1] + [0] * (n - 1), labels=labels, name=f"cyclic-group {n}")


_BUILTIN_PARAMETRIC = {
    "truncated-poly": truncated_poly,
    "split": split_algebra,
    "cyclic-group": cyclic_group_algebra,
}


def builtin_algebra(spec: str) -> AlgebraB:
    """Resolve a builtin name: "trivial", "truncated-poly d", "split k", "cyclic-group n"."""
    parts = spec.strip().split()
    if parts == ["trivial"]:
        return trivial_algebra()
    if len(parts) == 2 and parts[0] in _BUILTIN_PARAMETRIC:
        try:
            arg = int(parts[1])
        except ValueError:
            raise ValueError(f"builtin algebra parameter must be an integer: {spec!r}")
        return _BUILTIN_PARAMETRIC[parts[0]](arg)
    raise ValueError(
        f"unknown builtin algebra {spec!r}; expected 'trivial', "
        "'truncated-poly d', 'split k', or 'cyclic-group n'"
    )
