"""Exact dense and sparse linear algebra over the Gaussian rationals.

Two flavours are used throughout the package:

* dense matrices as lists of lists, for Gram matrices and their kernels;
* sparse vectors as dicts keyed by arbitrary orderable coordinates, for
  span closures (ideal generation, radicals, generation checks); every
  module action sums into them through `deposit`.

Dense elimination (`nullspace`) runs on one fraction-free engine over
the Gaussian integers Z[i]:

* Each row is multiplied by the lcm of its denominators.  Scaling a row
  by a nonzero number changes neither the kernel nor the reduced row
  echelon form, and every entry becomes a pair of Python ints.
* One-step Bareiss (1968) Gauss–Jordan elimination: with pivot p in row
  r and the previous pivot d, every other row becomes
  (p·row_i − row_i[c]·row_r) / d.  By Sylvester's identity each entry is
  then a minor of the scaled matrix, so the division is exact in Z[i] and
  no fraction is formed.  All pivots end equal to the last one, D, and
  the reduced echelon form is the integer rows divided by D; only those
  quotients become `GaussianRational` values.  Real matrices, the usual
  case, run the same recurrence on plain ints.
* The scaled rows are split into the connected blocks of their nonzero
  pattern (row i and column c joined when entry (i, c) is nonzero), and
  each block is eliminated on its own.  Columns of different blocks have
  disjoint row supports, so the column space is the direct sum of the
  blocks' column spaces: column c is a leftmost pivot, that is, outside
  the span of the columns before it, exactly when it is one inside its
  own block.  The pivot set is the union of the blocks' pivot sets, and
  each kernel vector lives in one block; sorted by free column they are
  the whole-matrix kernel.  Gram matrices over orthogonal idempotents
  (`split k`) are block-diagonal by multi-level, so this turns one dense
  elimination into several small ones; a matrix that is one block is
  eliminated as a whole, in place.
* Each square or tall block first tries a modular certificate: the
  scaled block is reduced modulo the prime `CERT_PRIME`
  (p ≡ 1 mod 4), with i sent to the square root `CERT_SQRT_MINUS_ONE`
  of −1 mod p.  That is a ring map Z[i] → F_p, so it maps the determinant
  of any maximal minor to the same minor mod p; full column rank mod p
  therefore proves full column rank over Q(i): the block's kernel is {0},
  with no exact elimination.  A lower rank
  mod p proves nothing (p may divide a nonzero minor), so the exact path
  decides every nonzero nullity.
* The certificate packs a row's residues into one int, a 96-bit slot
  per column (Dumas, Fousse and Salvy, J. Symb. Comput. 46, 2011), so a
  column is eliminated by one big-int multiply-add per row, row +
  g·pivot_row, and a shift.  A row's slots are reduced mod p only when
  it becomes the pivot (delayed reduction, as in FFLAS-FFPACK): each
  update adds less than p² < 2^62 to a slot, so below 2^34 columns no
  slot reaches 2^96 and no carry crosses slots.  Python runs O(n²) steps.

Pivots are always chosen leftmost in the declared coordinate order, which
makes every echelon basis deterministic and regression-friendly; the
reduced echelon form, and with it the canonical kernel basis (1 at each
free column), is unique, so it does not depend on how it was computed.
There is no `rref`: the one the package needs, of a kernel, is `nullspace`
with the columns reversed (`VermaModule._compute_level`).
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter

from .scalars import GaussianRational, ONE, ZERO, from_parts, parts

Matrix = list[list[GaussianRational]]
SparseVec = dict

CERT_PRIME = 2147483629  # the largest prime below 2^31 that is 1 mod 4
# p = 5 (mod 8) makes 2 a non-residue, so 2^((p-1)/4) squares to 2^((p-1)/2) = -1
CERT_SQRT_MINUS_ONE = pow(2, (CERT_PRIME - 1) // 4, CERT_PRIME)
_SLOT_BYTES = 12  # one packed residue: 96 bits, see the module docstring for the bound
_SLOT_BITS, _SLOT_MASK = 8 * _SLOT_BYTES, (1 << 8 * _SLOT_BYTES) - 1


def _scaled(matrix: Matrix) -> tuple[list[list[int]], list[list[int]] | None]:
    """Rows times the lcm of their denominators: (real parts, imaginary parts or None if all real)."""
    re_rows, im_rows = [], []
    for row in matrix:
        triples = [parts(x) for x in row]
        den = lcm(*(d for _, _, d in triples))
        re_rows.append([a * (den // d) for a, _, d in triples])
        im_rows.append([b * (den // d) for _, b, d in triples])
    return re_rows, (im_rows if any(any(r) for r in im_rows) else None)


def _pack(residues) -> int:
    """One int holding the c-th residue in bits [_SLOT_BITS·c, _SLOT_BITS·(c + 1))."""
    return int.from_bytes(b"".join(x.to_bytes(_SLOT_BYTES, "little") for x in residues), "little")


def _full_rank_mod_p(re_rows, im_rows, ncols: int) -> bool:
    """True when the scaled matrix has rank ncols modulo CERT_PRIME; slot 0 is the leading column."""
    p, root = CERT_PRIME, CERT_SQRT_MINUS_ONE
    if im_rows is None:
        rows = [_pack(a % p for a in r) for r in re_rows]
    else:
        rows = [_pack((a + root * b) % p for a, b in zip(r, s)) for r, s in zip(re_rows, im_rows)]
    for width in range(ncols, 0, -1):
        lead = [(row & _SLOT_MASK) % p for row in rows]
        piv = next((i for i, f in enumerate(lead) if f), None)
        if piv is None:
            return False
        del lead[piv]
        raw = rows.pop(piv).to_bytes(_SLOT_BYTES * width, "little")
        slots = (raw[j : j + _SLOT_BYTES] for j in range(0, len(raw), _SLOT_BYTES))
        prow = _pack(int.from_bytes(x, "little") % p for x in slots)
        neg_inv = p - pow(prow & _SLOT_MASK, -1, p)
        rows = [(row + f * neg_inv % p * prow if f else row) >> _SLOT_BITS for row, f in zip(rows, lead)]
    return True


def _echelon(re_rows, im_rows, ncols: int):
    """Fraction-free Gauss–Jordan, in place, on rows scaled by `_scaled`.

    Returns (re_rows, im_rows, pivots, D): the reduced row echelon form is
    (re_rows + i·im_rows) / D, rows past len(pivots) are zero, and im_rows
    is None when the matrix is real.
    """
    nrows = len(re_rows)
    pivots: list[int] = []
    d_re, d_im = 1, 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next(
            (i for i in range(r, nrows) if re_rows[i][c] or (im_rows and im_rows[i][c])), None
        )
        if piv is None:
            continue
        re_rows[r], re_rows[piv] = re_rows[piv], re_rows[r]
        pr_row = re_rows[r]
        p_re = pr_row[c]
        if im_rows is None:
            for i in range(nrows):
                if i != r:
                    f, row = re_rows[i][c], re_rows[i]
                    re_rows[i] = [(p_re * a - f * b) // d_re for a, b in zip(row, pr_row)]
            d_re = p_re
        else:
            im_rows[r], im_rows[piv] = im_rows[piv], im_rows[r]
            pi_row = im_rows[r]
            p_im = pi_row[c]
            norm = d_re * d_re + d_im * d_im
            for i in range(nrows):
                if i == r:
                    continue
                a_re, a_im = re_rows[i], im_rows[i]
                f_re, f_im = a_re[c], a_im[c]
                x_re = [
                    p_re * ar - p_im * ai - f_re * br + f_im * bi
                    for ar, ai, br, bi in zip(a_re, a_im, pr_row, pi_row)
                ]
                x_im = [
                    p_re * ai + p_im * ar - f_re * bi - f_im * br
                    for ar, ai, br, bi in zip(a_re, a_im, pr_row, pi_row)
                ]
                # exact division by d: multiply by conj(d), divide by |d|^2
                re_rows[i] = [(xr * d_re + xi * d_im) // norm for xr, xi in zip(x_re, x_im)]
                im_rows[i] = [(xi * d_re - xr * d_im) // norm for xr, xi in zip(x_re, x_im)]
            d_re, d_im = p_re, p_im
        pivots.append(c)
        r += 1
    return re_rows, im_rows, pivots, (d_re, d_im)


def _entry(re_rows, im_rows, r: int, c: int, d) -> GaussianRational:
    """Entry (r, c) of the reduced row echelon form: row entry / D, with D = d = (re, im)."""
    n_re, n_im = re_rows[r][c], im_rows[r][c] if im_rows else 0
    d_re, d_im = d
    if not d_im:
        return from_parts(n_re, n_im, d_re)
    return from_parts(n_re * d_re + n_im * d_im, n_im * d_re - n_re * d_im, d_re * d_re + d_im * d_im)


def _blocks(re_rows, im_rows, ncols: int) -> list[tuple[list[int], list[int]]] | None:
    """Connected blocks of the nonzero pattern as (row indices, column indices), or None for one block.

    Row i and column c are joined when entry (i, c) is nonzero.  A row with
    no nonzero entry belongs to no block, and a column that no row touches
    is a block of its own with no rows.  Indices ascend inside each block,
    and blocks come in the order of their first column.  The scan stops as
    soon as all columns are joined, which for a dense matrix is its first row.
    """
    label = list(range(ncols))
    members = {c: [c] for c in range(ncols)}
    supports = []
    for i, row in enumerate(re_rows):
        if im_rows is None:
            support = [c for c, a in enumerate(row) if a]
        else:
            support = [c for c, (a, b) in enumerate(zip(row, im_rows[i])) if a or b]
        supports.append(support)
        found = {label[c] for c in support}
        if len(found) > 1:
            keep = max(found, key=lambda k: len(members[k]))
            found.discard(keep)
            for k in found:
                for c in members[k]:
                    label[c] = keep
                members[keep] += members.pop(k)
            if len(members) == 1:
                return None
    if len(members) == 1:
        return None
    blocks = {k: ([], sorted(cols)) for k, cols in sorted(members.items(), key=lambda kv: min(kv[1]))}
    for i, support in enumerate(supports):
        if support:
            blocks[label[support[0]]][0].append(i)
    return list(blocks.values())


def _block_echelon(re_rows, im_rows, ncols: int):
    """`_echelon` of one block, skipped when the block has no rows or is certified full rank."""
    if not re_rows:
        return re_rows, None, [], (1, 0)
    if len(re_rows) >= ncols and _full_rank_mod_p(re_rows, im_rows, ncols):
        return [], None, list(range(ncols)), (1, 0)  # no free column, so no row is read
    return _echelon(re_rows, im_rows, ncols)


def _eliminate(matrix: Matrix) -> list:
    """Echelon form of each connected block: (columns, re_rows, im_rows, pivots, D) in block indices.

    Rows are scaled by `_scaled` once; a matrix that is one block is
    eliminated in place, with its zero rows, as a whole.
    """
    ncols = len(matrix[0])
    re_rows, im_rows = _scaled(matrix)
    blocks = _blocks(re_rows, im_rows, ncols)
    if blocks is None:
        return [(range(ncols), *_block_echelon(re_rows, im_rows, ncols))]
    out = []
    for rows, cols in blocks:
        sub_re = [[re_rows[i][c] for c in cols] for i in rows]
        sub_im = [[im_rows[i][c] for c in cols] for i in rows] if im_rows else None
        if sub_im is not None and not any(map(any, sub_im)):
            sub_im = None
        out.append((cols, *_block_echelon(sub_re, sub_im, len(cols))))
    return out


def nullspace(matrix: Matrix) -> list[list[GaussianRational]]:
    """Basis of {x : A x = 0}, echelonized with one vector per free column.

    The vector for free column f has entry 1 at f and 0 at every other
    free column, so the output is canonical given the column order.  A
    square or tall block of full rank modulo CERT_PRIME has no free column
    and runs no exact elimination.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    found = []
    for cols, re_rows, im_rows, pivots, d in _eliminate(matrix):
        pivot_set = set(pivots)
        for f in range(len(cols)):
            if f in pivot_set:
                continue
            vec = [ZERO] * ncols
            vec[cols[f]] = ONE
            for r, p in enumerate(pivots):
                vec[cols[p]] = -_entry(re_rows, im_rows, r, f, d)
            found.append((cols[f], vec))
    found.sort(key=itemgetter(0))
    return [vec for _, vec in found]


class SpanBasis:
    """Incrementally maintained reduced echelon basis of sparse vectors.

    Vectors are dicts mapping orderable coordinate keys to nonzero scalars.
    The pivot of each stored vector is its smallest coordinate; stored
    vectors are fully reduced against each other and pivot-normalized, so
    the basis is canonical for the span regardless of insertion order.
    """

    def __init__(self):
        self._rows: dict[object, SparseVec] = {}

    @classmethod
    def from_echelon(cls, rows: list[SparseVec]) -> "SpanBasis":
        """A basis of rows that are already canonical, stored without eliminating again.

        Each row's pivot is its smallest coordinate, with coefficient 1 and
        absent from every other row: the nonzero rows of a reduced row
        echelon form whose columns follow the coordinate order.
        """
        basis = cls()
        for row in rows:
            basis._rows[min(row)] = row
        return basis

    def __len__(self) -> int:
        return len(self._rows)

    def reduce(self, vec: SparseVec) -> SparseVec:
        """Remainder of vec after eliminating every stored pivot."""
        out = {k: v for k, v in vec.items() if v}
        while True:
            hit = None
            for coord in out:
                if coord in self._rows:
                    hit = coord
                    break
            if hit is None:
                return out
            factor = out[hit]
            for c, v in self._rows[hit].items():
                acc = out.get(c, ZERO) - factor * v
                if acc:
                    out[c] = acc
                else:
                    out.pop(c, None)

    def add(self, vec: SparseVec) -> bool:
        """Insert vec's residue; returns True when the span grew."""
        rem = self.reduce(vec)
        if not rem:
            return False
        pivot = min(rem)
        inv = ONE / rem[pivot]
        row = {c: v * inv for c, v in rem.items()}
        for other in self._rows.values():
            if pivot in other:
                f = other[pivot]
                for c, v in row.items():
                    acc = other.get(c, ZERO) - f * v
                    if acc:
                        other[c] = acc
                    else:
                        other.pop(c, None)
        self._rows[pivot] = row
        return True

    def contains(self, vec: SparseVec) -> bool:
        return not self.reduce(vec)

    def pivots(self) -> set:
        return set(self._rows)

    def vectors(self) -> list[SparseVec]:
        """Echelon basis sorted by pivot coordinate."""
        return [dict(self._rows[k]) for k in sorted(self._rows)]


def deposit(acc: SparseVec, key, coeff: GaussianRational) -> None:
    """acc[key] += coeff, dropping the entry when it cancels to zero."""
    s = acc.get(key, ZERO) + coeff
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)
