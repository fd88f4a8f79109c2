"""Exact elimination: nullspace, the modular certificate, and the incremental span basis."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_rref
from oracle_dense import DenseOracle
from virloop import linalg
from virloop.coeff_algebra import trivial_algebra
from virloop.linalg import (
    CERT_PRIME,
    CERT_SQRT_MINUS_ONE,
    SpanBasis,
    nullspace,
)
from virloop.scalars import ONE, ZERO, GaussianRational, scalar


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def parse_matrix(rows):
    return [[scalar(x) for x in row] for row in rows]


def kernel_rref(m):
    """Reduced echelon form of the kernel, as VermaModule builds it: nullspace with rows and columns reversed."""
    return [vec[::-1] for vec in reversed(nullspace([row[::-1] for row in reversed(m)]))]


def oracle_kernel_rref(m):
    kernel = oracle_rref.nullspace(m)
    return oracle_rref.rref(kernel)[0] if kernel else []


def test_nullspace_of_identity_is_empty():
    m = parse_matrix([[1, 0], [0, 1]])
    assert nullspace(m) == [] == kernel_rref(m)


def test_nullspace_rank_deficient():
    m = parse_matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    basis = nullspace(m)
    assert basis == oracle_rref.nullspace(m)
    assert len(basis) == 3 - oracle_rref.rank(m) == 1
    assert basis[0][2] == ONE  # column 2 is the free one
    assert kernel_rref(m) == oracle_kernel_rref(m) == basis


def test_nullspace_matches_kernel():
    m = parse_matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    for row in m:
        assert sum((a * b for a, b in zip(row, v)), ZERO) == ZERO


def test_nullspace_full_rank_is_empty():
    assert nullspace(parse_matrix([[1, 1], [1, -1]])) == []


def test_nullspace_gaussian_entries():
    m = [[scalar("i"), scalar(1)]]
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    assert m[0][0] * v[0] + m[0][1] * v[1] == ZERO


def test_span_basis_growth_and_membership():
    sb = SpanBasis()
    assert sb.add({"a": ONE, "b": gr(2)})
    assert sb.add({"b": ONE})
    assert not sb.add({"a": gr(3), "b": gr(-1)})
    assert len(sb) == 2
    assert sb.contains({"a": gr(5)})
    assert not sb.contains({"c": ONE})


def test_span_basis_canonical_under_insertion_order():
    vecs = [{"x": ONE, "y": gr(1)}, {"y": gr(2), "z": gr(1)}, {"x": gr(1), "z": gr(-3)}]
    sb1 = SpanBasis()
    sb2 = SpanBasis()
    for v in vecs:
        sb1.add(dict(v))
    for v in reversed(vecs):
        sb2.add(dict(v))
    assert sb1.vectors() == sb2.vectors()


coords = st.lists(
    st.tuples(st.integers(0, 5), st.fractions(min_value=-20, max_value=20, max_denominator=5)),
    min_size=1,
    max_size=4,
)


@given(st.lists(coords, min_size=1, max_size=6))
def test_span_basis_idempotent_and_closed(raw):
    sb = SpanBasis()
    vecs = []
    for entries in raw:
        v = {}
        for c, q in entries:
            s = v.get(c, ZERO) + GaussianRational(q, Fraction(0))
            if s:
                v[c] = s
            else:
                v.pop(c, None)
        vecs.append(v)
        sb.add(dict(v))
    for v in vecs:
        assert sb.contains(v)
        assert not sb.add(dict(v))
    for row in sb.vectors():
        assert sb.contains(row)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_nullspace_vectors_annihilate(nr, nc, data):
    m = [
        [
            GaussianRational(
                Fraction(data.draw(st.integers(-4, 4))),
                Fraction(data.draw(st.integers(-2, 2))),
            )
            for _ in range(nc)
        ]
        for _ in range(nr)
    ]
    basis = nullspace(m)
    assert len(basis) == nc - oracle_rref.rank(m)
    for v in basis:
        for row in m:
            assert sum((a * b for a, b in zip(row, v)), ZERO) == ZERO


# -- the fraction-free engine against the Fraction Gauss–Jordan oracle ---------------

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def qi_matrices(draw):
    """A random Q(i) matrix; some rows or columns zeroed, or a row a copy of another."""
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    complex_entries = draw(st.booleans())
    entry = st.builds(GaussianRational, rationals, rationals if complex_entries else st.just(0))
    m = [[draw(entry) for _ in range(nc)] for _ in range(nr)]
    for r in draw(st.sets(st.integers(0, nr - 1), max_size=2)):
        m[r] = [ZERO] * nc
    for c in draw(st.sets(st.integers(0, nc - 1), max_size=2)):
        for row in m:
            row[c] = ZERO
    if nr > 1 and draw(st.booleans()):  # a multiple of another row
        src, dst = draw(st.integers(0, nr - 1)), draw(st.integers(0, nr - 1))
        factor = draw(entry)
        m[dst] = [factor * x for x in m[src]]
    return m


@settings(max_examples=300)
@given(qi_matrices())
def test_elimination_equals_fraction_oracle(m):
    assert nullspace(m) == oracle_rref.nullspace(m)
    assert len(nullspace(m)) == len(m[0]) - oracle_rref.rank(m)
    assert kernel_rref(m) == oracle_kernel_rref(m)


@st.composite
def permuted_block_matrices(draw):
    """A block-diagonal Q(i) matrix with zero rows and columns, its rows and columns permuted.

    Some block repeats a row, and a 2x2 block can have determinant CERT_PRIME
    times a unit, so it is invertible but singular mod p.
    """
    complex_entries = draw(st.booleans())
    entry = st.builds(GaussianRational, rationals, rationals if complex_entries else st.just(0))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        nr, nc = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        block = [[draw(entry) for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and draw(st.booleans()):
            block[-1] = list(block[0])
        blocks.append(block)
    if draw(st.booleans()):
        unit = draw(st.sampled_from([ONE, -ONE, scalar("i"), scalar("-i")]))
        blocks.append([[unit, scalar(2)], [scalar(3) * unit, scalar(6 + CERT_PRIME)]])
    blocks += [[[]] for _ in range(draw(st.integers(0, 2)))]  # zero rows
    blocks += [[[ZERO]] for _ in range(draw(st.integers(0, 2)))]  # zero columns, with a zero row
    nrows, ncols = sum(len(b) for b in blocks), sum(len(b[0]) for b in blocks)
    m, r0, c0 = [[ZERO] * ncols for _ in range(nrows)], 0, 0
    for block in blocks:
        for i, row in enumerate(block):
            m[r0 + i][c0 : c0 + len(row)] = row
        r0, c0 = r0 + len(block), c0 + len(block[0])
    row_order = draw(st.permutations(range(nrows)))
    col_order = draw(st.permutations(range(ncols)))
    return [[m[r][c] for c in col_order] for r in row_order]


@settings(max_examples=150, deadline=None)
@given(permuted_block_matrices())
def test_block_split_elimination_equals_fraction_oracle(m):
    assert nullspace(m) == oracle_rref.nullspace(m)
    assert len(nullspace(m)) == len(m[0]) - oracle_rref.rank(m)
    assert kernel_rref(m) == oracle_kernel_rref(m)


@pytest.mark.parametrize(
    "d0, c, nullity",
    [
        ("1/2", "1/3", 0),  # generic: the certificate decides
        ("-3/8", "-2", 7),  # h = h_{2,2}(t) = 3/8 at t = 2, c = -2: the exact path
    ],
)
def test_level_9_gram_kernel_equals_fraction_oracle(d0, c, nullity):
    _monos, gram = DenseOracle(trivial_algebra(), [d0], [c]).gram(9)
    expected = oracle_rref.nullspace(gram)
    assert len(expected) == nullity
    assert nullspace(gram) == expected
    assert kernel_rref(gram) == (oracle_rref.rref(expected)[0] if expected else [])


# -- the modular certificate never decides a nonzero nullity -------------------------


def test_certificate_prime_is_one_mod_four_with_sqrt_minus_one():
    assert CERT_PRIME % 4 == 1
    assert all(CERT_PRIME % q for q in range(2, 46341))  # 46341² > CERT_PRIME
    assert CERT_SQRT_MINUS_ONE**2 % CERT_PRIME == CERT_PRIME - 1


# -- the packed certificate against the list-based reference ------------------------

P = CERT_PRIME
CERT_SPECIALS = [P - 1, -1, P, -P, 2 * P, P + 1]  # p − 1 and multiples of p


@st.composite
def scaled_blocks(draw):
    """(re_rows, im_rows, ncols) as `_scaled` gives them: square or tall, real or Z[i].

    Entries mix small ints, p − 1, multiples of p and 80-bit ints (scaled
    rows carry large entries); they come from a drawn `Random`, which keeps
    the 1-288 entries of an example cheap to generate.
    """
    nc = draw(st.integers(1, 12))
    nr = draw(st.integers(nc, 12))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(-9, 9)
        return rng.choice(CERT_SPECIALS) if kind == 1 else rng.randint(-(2**80), 2**80)

    re_rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    im_rows = [[entry() for _ in range(nc)] for _ in range(nr)] if draw(st.booleans()) else None
    for r in draw(st.sets(st.integers(0, nr - 1), max_size=3)):  # residues all p − 1
        re_rows[r] = [P - 1] * nc
        if im_rows:
            im_rows[r] = [0] * nc
    if nc > 1 and draw(st.booleans()):  # rank at most n − 1: the last column depends on the others
        coeffs = [rng.randint(-3, 3) for _ in range(nc - 1)]
        for row in re_rows + (im_rows or []):
            row[-1] = sum(c * x for c, x in zip(coeffs, row))
    return re_rows, im_rows, nc


@settings(max_examples=120, deadline=None)
@given(scaled_blocks())
def test_packed_certificate_equals_list_reference(block):
    assert linalg._full_rank_mod_p(*block) == oracle_rref.full_rank_mod_p(*block)


@pytest.mark.parametrize("diag, full", [(1, True), (59, False)])
def test_packed_certificate_with_every_update_near_p_squared(diag, full):
    """60 × 60, p − 1 off the diagonal: the residues are −J + (diag + 1)·I, singular when diag = n − 1.

    At this size a multiplier left unreduced (below p² instead of p) makes
    the slots overflow 96 bits.
    """
    n = 60
    rows = [[diag if r == c else P - 1 for c in range(n)] for r in range(n)]
    assert linalg._full_rank_mod_p(rows, None, n) is full
    assert oracle_rref.full_rank_mod_p(rows, None, n) is full


@pytest.fixture
def exact_path_calls(monkeypatch):
    """Row counts of the blocks that reach exact elimination in nullspace."""
    calls = []
    echelon = linalg._echelon

    def spy(*args):
        calls.append(len(args[0]))
        return echelon(*args)

    monkeypatch.setattr(linalg, "_echelon", spy)
    return calls


def _det_p_times_one_plus_i():
    """A 3x3 over Q(i) with det = CERT_PRIME * (1+i) / 3, invertible but singular mod p."""
    p, i = CERT_PRIME, scalar("i")
    upper = [[ONE, scalar(2), i], [ZERO, ONE + i, scalar(3)], [ZERO, ZERO, scalar(p)]]
    lower = [[ONE, ZERO, ZERO], [scalar(2), ONE, ZERO], [scalar(-1), i, ONE]]  # det 1
    m = [[sum((lower[r][k] * upper[k][c] for k in range(3)), ZERO) for c in range(3)] for r in range(3)]
    m[1] = [x / 3 for x in m[1]]  # row scaling must not hide the prime
    return m


@pytest.mark.parametrize(
    "m, calls",
    [
        (parse_matrix([[1, 0], [0, CERT_PRIME]]), [1]),  # only the block [p] is singular mod p
        (_det_p_times_one_plus_i(), [3]),
    ],
    ids=["diag(1,p)", "det=p(1+i)/3"],
)
def test_invertible_matrix_singular_mod_p_takes_exact_path(m, calls, exact_path_calls):
    assert oracle_rref.rank(m) == len(m)
    assert nullspace(m) == []
    assert exact_path_calls == calls


def test_generic_invertible_matrix_is_decided_by_the_certificate(exact_path_calls):
    assert nullspace(parse_matrix([[2, 1], [1, 3]])) == []
    assert exact_path_calls == []


@pytest.mark.parametrize(
    "rows, calls",
    [
        ([[1, 2, 3], [2, 4, 6], [1, 1, 1]], [3]),  # square, nullity 1
        ([[1, 2, 3], [2, 4, 6], [3, 6, 9], [0, 0, 0]], [4]),  # tall, nullity 2
        ([[CERT_PRIME, 1], [CERT_PRIME * 2, 2]], [2]),  # singular with a multiple of p
        ([[0, 0], [0, 0]], []),  # zero matrix, nullity 2: its blocks have no rows
    ],
    ids=["rows0", "rows1", "rows2", "rows3"],
)
def test_singular_matrix_returns_its_full_kernel(rows, calls, exact_path_calls):
    m = parse_matrix(rows)
    basis = nullspace(m)
    assert basis == oracle_rref.nullspace(m)
    assert len(basis) == len(m[0]) - oracle_rref.rank(m) > 0
    assert exact_path_calls == calls
