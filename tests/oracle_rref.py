"""Independent Fraction Gauss–Jordan oracle for exact elimination over Q(i).

This is the package's former `rref`, `rank`, `nullspace` and `solve`,
kept unchanged so the fraction-free engine in `virloop.linalg` can be
checked against it: every step divides in Q(i) through `GaussianRational`,
pivots are chosen leftmost, and the nullspace basis has a 1 at each free
column.  It is slow on large Gram matrices; use it at small sizes.

`full_rank_mod_p` is the package's former list-based modular certificate,
one residue per list entry, kept unchanged as the reference for the packed
`virloop.linalg._full_rank_mod_p`.
"""

from virloop.linalg import CERT_PRIME, CERT_SQRT_MINUS_ONE
from virloop.scalars import GaussianRational, ONE, ZERO

Matrix = list[list[GaussianRational]]


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1]) if matrix else 0


def nullspace(matrix: Matrix) -> list[list[GaussianRational]]:
    """Basis of {x : A x = 0}, echelonized with one vector per free column.

    The vector for free column f has entry 1 at f and 0 at every other
    free column, so the output is canonical given the column order.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for r, p in enumerate(pivots):
            vec[p] = -rows[r][f]
        basis.append(vec)
    return basis


def solve(matrix: Matrix, target: list[GaussianRational]):
    """One exact solution of A x = target, or None if the system is inconsistent."""
    if not matrix:
        return None
    ncols = len(matrix[0])
    aug = [list(row) + [t] for row, t in zip(matrix, target)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][ncols]
    return x


def full_rank_mod_p(re_rows, im_rows, ncols: int) -> bool:
    """True when the scaled matrix has rank ncols modulo CERT_PRIME."""
    p, root = CERT_PRIME, CERT_SQRT_MINUS_ONE
    if im_rows is None:
        rows = [[a % p for a in r] for r in re_rows]
    else:
        rows = [[(a + root * b) % p for a, b in zip(r, s)] for r, s in zip(re_rows, im_rows)]
    for _ in range(ncols):  # eliminate the leading column, then drop it
        piv = next((i for i, row in enumerate(rows) if row[0]), None)
        if piv is None:
            return False
        prow = rows.pop(piv)
        inv = pow(prow[0], -1, p)
        tail = prow[1:]
        rows = [
            [(a - f * b) % p for a, b in zip(row[1:], tail)] if (f := row[0] * inv % p) else row[1:]
            for row in rows
        ]
    return True
