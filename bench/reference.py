"""Independent references for the correctness gates.

None of this calls the engine's linear algebra, Gram construction or tensor
action.  Exact arithmetic is done on `fractions.Fraction` pairs (re, im);
the dense oracle in tests/oracle_dense.py supplies PBW straightening where
a reference needs it.
"""

from __future__ import annotations

from fractions import Fraction

# primes p = 1 (mod 4), so that i maps to a square root of -1 mod p
PRIMES = (1000000009, 998244353)


def colored_partition_counts(dim_b: int, depth: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^n)^(-dim_b) up to q^depth."""
    counts = [1] + [0] * depth
    for n in range(1, depth + 1):
        for _ in range(dim_b):
            for k in range(n, depth + 1):
                counts[k] += counts[k - n]
    return counts


def pair(x) -> tuple[Fraction, Fraction]:
    """(re, im) of an engine scalar, a Fraction, an int or a text literal."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    if isinstance(x, str):
        if "i" in x:
            raise ValueError(f"complex literal {x!r} not supported by the reference")
        return Fraction(x), Fraction(0)
    return Fraction(x.re), Fraction(x.im)


def _sqrt_minus_one(p: int) -> int:
    for g in range(2, p):
        r = pow(g, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return r
    raise ValueError("p is not 1 mod 4")


_ROOTS = {p: _sqrt_minus_one(p) for p in PRIMES}


def _mod(x: tuple[Fraction, Fraction], p: int) -> int | None:
    re, im = x
    if re.denominator % p == 0 or im.denominator % p == 0:
        return None
    a = re.numerator * pow(re.denominator, -1, p)
    b = im.numerator * pow(im.denominator, -1, p)
    return (a + _ROOTS[p] * b) % p


def rank_mod_p(matrix, p: int) -> int | None:
    """Rank of the image of a Q(i) matrix in F_p, or None if a denominator vanishes."""
    rows = []
    for row in matrix:
        out = []
        for x in row:
            v = _mod(pair(x), p)
            if v is None:
                return None
            out.append(v)
        rows.append(out)
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rank_lower_bound(matrix) -> int:
    """max over PRIMES of the rank mod p; never exceeds the rank over Q(i)."""
    ranks = [r for p in PRIMES if (r := rank_mod_p(matrix, p)) is not None]
    if not ranks:
        raise ValueError("every reference prime divides a denominator")
    return max(ranks)


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def check_kernel(matrix, vectors) -> str | None:
    """None when `vectors` is the canonical kernel basis of `matrix`, else a reason.

    Checks G x = 0 for each vector, then the echelon shape nullspace
    promises (each vector has a 1 at its own free column f, its last
    nonzero entry, and 0 at every other vector's free column; free
    columns increase), then that the count equals n - rank, with the rank
    pinned from below by a modular rank and from above by the independent
    kernel vectors just checked.
    """
    n = len(matrix[0]) if matrix else 0
    G = [[pair(x) for x in row] for row in matrix]
    V = [[pair(x) for x in vec] for vec in vectors]
    zero = (Fraction(0), Fraction(0))
    one = (Fraction(1), Fraction(0))
    for idx, vec in enumerate(V):
        if len(vec) != n:
            return f"kernel vector {idx} has length {len(vec)}, expected {n}"
        for r, row in enumerate(G):
            acc_re = acc_im = Fraction(0)
            for a, b in zip(row, vec):
                if (a[0] or a[1]) and (b[0] or b[1]):
                    m = cmul(a, b)
                    acc_re += m[0]
                    acc_im += m[1]
            if acc_re or acc_im:
                return f"G x != 0 for kernel vector {idx} at row {r}"
    free = []
    for idx, vec in enumerate(V):
        nz = [c for c, x in enumerate(vec) if x != zero]
        if not nz:
            return f"kernel vector {idx} is zero"
        f = nz[-1]
        if vec[f] != one:
            return f"kernel vector {idx} is not normalized at its free column {f}"
        free.append(f)
    if any(a >= b for a, b in zip(free, free[1:])):
        return "free columns are not increasing"
    for idx, vec in enumerate(V):
        for j, f in enumerate(free):
            if j != idx and vec[f] != zero:
                return f"kernel vector {idx} is nonzero at free column {f} of vector {j}"
    rank = rank_lower_bound(matrix)
    if len(V) != n - rank:
        return f"nullity {len(V)} but the modular rank gives {n - rank}"
    return None


class FractionSpan:
    """Row echelon span of sparse vectors {coord: (re, im)} over Q(i)."""

    def __init__(self):
        self.rows: dict = {}

    def _reduce(self, vec: dict) -> dict:
        out = {k: v for k, v in vec.items() if v[0] or v[1]}
        for piv in sorted(self.rows):
            if piv in out:
                f = out[piv]
                for k, v in self.rows[piv].items():
                    m = cmul(f, v)
                    s = (out.get(k, (0, 0))[0] - m[0], out.get(k, (0, 0))[1] - m[1])
                    if s[0] or s[1]:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return out

    def add(self, vec: dict) -> bool:
        rem = self._reduce(vec)
        if not rem:
            return False
        piv = min(rem)
        a, b = rem[piv]
        norm = a * a + b * b
        inv = (a / norm, -b / norm)
        self.rows[piv] = {k: cmul(v, inv) for k, v in rem.items()}
        return True

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)


def _gram_radical(monos, gram) -> list[dict]:
    """Kernel of a Gram matrix as sparse {mono: pair} vectors (reference elimination)."""
    n = len(monos)
    rows = [[pair(x) for x in row] for row in gram]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c][0] or rows[i][c][1]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        a, b = rows[r][c]
        norm = a * a + b * b
        inv = (a / norm, -b / norm)
        rows[r] = [cmul(x, inv) for x in rows[r]]
        for i in range(n):
            if i != r and (rows[i][c][0] or rows[i][c][1]):
                f = rows[i][c]
                rows[i] = [(x[0] - cmul(f, y)[0], x[1] - cmul(f, y)[1]) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    out = []
    for f in (c for c in range(n) if c not in pivots):
        vec = {monos[f]: (Fraction(1), Fraction(0))}
        for row_idx, p in enumerate(pivots):
            x = rows[row_idx][f]
            if x[0] or x[1]:
                vec[monos[p]] = (-x[0], -x[1])
        out.append(vec)
    return out


def tensor_generated(oracle_mod, algebra, spec: dict) -> tuple[bool, dict]:
    """Brute-force generation verdict for V(phi) (x) V'_{alpha,beta,psi}.

    Applies every ordered word of negative generators d_{-n} (x) e_j with
    total depth <= D to the seeds v_phi (x) v_m, m in [kmin-D, kmax+D],
    acting by the Leibniz rule in M(phi) (x) V' (straightening from the
    dense oracle), and adds N(phi) (x) v_k for the form radical N(phi)
    of each level.  The truncation is generated when every monomial at
    level <= D tensored with every v_k, k in the window, lies in that
    span.  Also returns the quotient dimension per level.
    """
    D = spec["depth"]
    kmin, kmax = spec["window"]
    dim = algebra.dim
    oracle = oracle_mod.DenseOracle(algebra, spec["d0"], spec["c"])
    psi = [pair(x) for x in spec["psi"]]
    alpha, beta = pair(spec["alpha"]), pair(spec["beta"])
    if alpha == (0, 0) and beta == (0, 0):
        raise ValueError("the reference does not model the index set without v_0")

    def act(n, j, vec):
        out: dict = {}

        def put(key, val):
            s = out.get(key, (Fraction(0), Fraction(0)))
            s = (s[0] + val[0], s[1] + val[1])
            if s[0] or s[1]:
                out[key] = s
            else:
                out.pop(key, None)

        for (mono, k), cval in vec.items():
            for mono2, c2 in oracle.multiply_neg(n, j, mono).items():
                put((mono2, k), cmul(cval, pair(c2)))
            coef = cmul(psi[j], (alpha[0] + k - n * beta[0], alpha[1] - n * beta[1]))
            if coef[0] or coef[1]:
                put((mono, k - n), cmul(cval, coef))
        return out

    span = FractionSpan()
    ks = set()

    def walk(vec, used):
        span.add(vec)
        ks.update(k for _, k in vec)
        for n in range(1, D - used + 1):
            for j in range(dim):
                img = act(n, j, vec)
                if img:
                    walk(img, used + n)

    one = (Fraction(1), Fraction(0))
    for m in range(kmin - D, kmax + D + 1):
        walk({((), m): one}, 0)
    ks.update(range(kmin, kmax + 1))
    qdims = {}
    for level in range(D + 1):
        monos, gram = oracle.gram(level)
        radical = _gram_radical(monos, gram)
        qdims[level] = len(monos) - len(radical)
        for vec in radical:
            for k in ks:
                span.add({(mono, k): v for mono, v in vec.items()})
    generated = all(
        span.contains({(mono, k): one})
        for level in range(D + 1)
        for mono in oracle_mod.oracle_monomials(dim, level)
        for k in range(kmin, kmax + 1)
    )
    return generated, qdims

