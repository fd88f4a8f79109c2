"""Independent dense oracle for highest-weight module computations.

Single generators act on canonical monomials by structural recursion
(commute one factor at a time, in the style of a textbook PBW
straightening), and Gram matrices are assembled dense, level by level,
each entry by applying the whole raising word.  The package's engine uses
the same single-generator recursion but builds Gram rows from lower
levels and only the upper triangle; tests/oracle_worklist.py is the
word-level path that shares no recursion with either.  The oracle itself
is validated on hand-derived small cases.

Monomial encoding: a tuple of (depth, bindex) pairs, depth >= 1, sorted by
(-depth, bindex); the empty tuple is the highest weight vector.
"""

from fractions import Fraction

from virloop.scalars import GaussianRational, ONE, ZERO, scalar


def partitions(k, largest=None):
    """Non-increasing integer partitions of k."""
    if k == 0:
        yield ()
        return
    if largest is None:
        largest = k
    for first in range(min(k, largest), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


def colored_multisets(count, ncolors):
    """Non-decreasing color tuples of the given length."""
    if count == 0:
        yield ()
        return
    def rec(remaining, start):
        if remaining == 0:
            yield ()
            return
        for c in range(start, ncolors):
            for rest in rec(remaining - 1, c):
                yield (c,) + rest
    yield from rec(count, 0)


def oracle_monomials(dim_b, k):
    """All canonical depth-k monomials over a dim_b-dimensional algebra."""
    out = []
    for part in partitions(k):
        runs = []
        i = 0
        while i < len(part):
            j = i
            while j < len(part) and part[j] == part[i]:
                j += 1
            runs.append((part[i], j - i))
            i = j
        def expand(idx):
            if idx == len(runs):
                yield ()
                return
            depth, count = runs[idx]
            for colors in colored_multisets(count, dim_b):
                for rest in expand(idx + 1):
                    yield tuple((depth, c) for c in colors) + rest
        out.extend(expand(0))
    return sorted(out)


def _add_into(acc, mono, coeff):
    if not coeff:
        return
    s = acc.get(mono, ZERO) + coeff
    if s:
        acc[mono] = s
    else:
        acc.pop(mono, None)


class DenseOracle:
    """Recursive single-generator action on a highest-weight module over B."""

    def __init__(self, algebra, phi_d0, phi_c):
        self.algebra = algebra
        self.phi_d0 = tuple(scalar(v) for v in phi_d0)
        self.phi_c = tuple(scalar(v) for v in phi_c)
        self._neg_cache = {}
        self._gen_cache = {}

    def phi_d0_of(self, belem):
        return sum((c * v for c, v in zip(belem, self.phi_d0)), ZERO)

    def phi_c_of(self, belem):
        return sum((c * v for c, v in zip(belem, self.phi_c)), ZERO)

    def multiply_neg(self, m, j, mono):
        """(d_{-m} tensor e_j) . mono, straightened to canonical monomials."""
        key = (m, j, mono)
        hit = self._neg_cache.get(key)
        if hit is not None:
            return hit
        if not mono or (-m, j) <= (-mono[0][0], mono[0][1]):
            out = {((m, j),) + mono: ONE}
            self._neg_cache[key] = out
            return out
        (n1, j1), rest = mono[0], mono[1:]
        out = {}
        # swapped term: d_{-n1} e_{j1} then d_{-m} e_j deeper inside
        for mono2, c2 in self.multiply_neg(m, j, rest).items():
            for mono3, c3 in self.multiply_neg(n1, j1, mono2).items():
                _add_into(out, mono3, c2 * c3)
        # bracket correction: (m - n1) d_{-(m+n1)} tensor e_j e_{j1}
        if m != n1:
            factor = scalar(m - n1)
            bb = self.algebra.mult(
                self.algebra.basis_elem(j), self.algebra.basis_elem(j1)
            )
            for kdx, c in enumerate(bb):
                if c:
                    for mono2, c2 in self.multiply_neg(m + n1, kdx, rest).items():
                        _add_into(out, mono2, factor * c * c2)
        self._neg_cache[key] = out
        return out

    def apply_gen(self, n, j, mono):
        """(d_n tensor e_j) . mono for any integer degree n."""
        if n < 0:
            return self.multiply_neg(-n, j, mono)
        key = (n, j, mono)
        hit = self._gen_cache.get(key)
        if hit is not None:
            return hit
        if not mono:
            if n > 0:
                out = {}
            else:
                out = {(): self.phi_d0[j]} if self.phi_d0[j] else {}
            self._gen_cache[key] = out
            return out
        (n1, j1), rest = mono[0], mono[1:]
        out = {}
        # commute past the first factor
        for mono2, c2 in self.apply_gen(n, j, rest).items():
            for mono3, c3 in self.multiply_neg(n1, j1, mono2).items():
                _add_into(out, mono3, c2 * c3)
        # bracket [d_n e_j, d_{-n1} e_{j1}] = (-n1-n) d_{n-n1} e_j e_{j1} + central
        bb = self.algebra.mult(self.algebra.basis_elem(j), self.algebra.basis_elem(j1))
        if n != -n1:
            factor = scalar(-n1 - n)
            for kdx, c in enumerate(bb):
                if c:
                    for mono2, c2 in self.apply_gen(n - n1, kdx, rest).items():
                        _add_into(out, mono2, factor * c * c2)
        if n == n1:
            central = GaussianRational(Fraction(n**3 - n, 12), Fraction(0))
            if central:
                for kdx, c in enumerate(bb):
                    if c and self.phi_c[kdx]:
                        _add_into(out, rest, central * c * self.phi_c[kdx])
        self._gen_cache[key] = out
        return out

    def apply_to_vec(self, n, j, vec):
        out = {}
        for mono, c in vec.items():
            for mono2, c2 in self.apply_gen(n, j, mono).items():
                _add_into(out, mono2, c * c2)
        return out

    def apply_word(self, word, vec):
        """word = sequence of (n, j); rightmost entry acts first."""
        for n, j in reversed(word):
            vec = self.apply_to_vec(n, j, vec)
        return vec

    def omega_word(self, mono):
        """Image of the monomial under the product-reversing involution."""
        return tuple((n, j) for (n, j) in reversed(mono))

    def gram(self, k):
        """Dense contravariant-form matrix at level k, rows/cols in monomial order."""
        monos = oracle_monomials(self.algebra.dim, k)
        mat = []
        for u in monos:
            raising = self.omega_word(u)
            row = []
            for v in monos:
                res = self.apply_word(raising, {v: ONE})
                row.append(res.get((), ZERO))
            mat.append(row)
        return monos, mat
