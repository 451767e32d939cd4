"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive (plain Gaussian elimination over
Fraction, direct enumerations) and kept separate from the library code
paths it is used to check.
"""

from fractions import Fraction
from math import comb, gcd, lcm


def gauss_rank_rational(dense) -> int:
    """Plain Gaussian elimination rank over Q with Fraction arithmetic."""
    a = [[Fraction(v) for v in row] for row in dense]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return r


def gauss_rank_mod_p(dense, p: int) -> int:
    """Plain Gaussian elimination rank over F_p."""
    a = [[int(v) % p for v in row] for row in dense]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return r


def nullspace(matrix, fieldspec):
    """Basis of the right nullspace of a SparseMatrix: the K-perp basis of
    :func:`canonical_subspace` of its rows."""
    return canonical_subspace(matrix.to_dense_rows(), fieldspec, matrix.ncols)[2]


def rref(dense, fieldspec):
    """Reduced row echelon form over Q (Fractions) or F_p (a value num/den read as
    num * den^-1 mod p), by plain Gauss-Jordan elimination.  Returns (nonzero rows,
    pivot columns)."""
    p = getattr(fieldspec, "p", None)
    if p:
        a = [[Fraction(v).numerator * pow(Fraction(v).denominator, -1, p) % p for v in row] for row in dense]
    else:
        a = [[Fraction(v) for v in row] for row in dense]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p) if p else 1 / a[r][c]
        a[r] = [v * inv % p if p else v * inv for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def integer_scaled(vector):
    """A rational vector scaled to integers with content 1 and its first nonzero entry
    positive."""
    den = lcm(*(Fraction(v).denominator for v in vector))
    ints = [int(Fraction(v) * den) for v in vector]
    g = gcd(*ints)
    if g and next(v for v in ints if v) < 0:
        g = -g
    return [v // g for v in ints] if g else ints


def canonical_subspace(rows, fieldspec, width):
    """(integer basis, pivot columns, K-perp basis) of the span of some rows of the
    given width, read off the reduced echelon form: over Q each row and each K-perp
    vector scaled by :func:`integer_scaled`, over F_p as they are (entries in [0, p)).
    K-perp has one vector per free column c, 1 at c and minus column c of the reduced
    form at the pivot columns."""
    p = getattr(fieldspec, "p", None)
    echelon, pivots = rref(rows, fieldspec)
    kperp = []
    for c in (c for c in range(width) if c not in pivots):
        vec = [0] * width
        vec[c] = 1
        for row, pc in zip(echelon, pivots):
            vec[pc] = -row[c] % p if p else -row[c]
        kperp.append(vec if p else integer_scaled(vec))
    basis = tuple(tuple(row) if p else tuple(integer_scaled(row)) for row in echelon)
    return basis, pivots, kperp


def block_diagonal(blocks, rng):
    """(nrows, ncols, triplets) of the block-diagonal matrix of some (nrows, ncols,
    dense) blocks, its rows and columns shuffled by ``rng``."""
    nrows, ncols = sum(b[0] for b in blocks), sum(b[1] for b in blocks)
    rows, cols = rng.sample(range(nrows), nrows), rng.sample(range(ncols), ncols)
    triplets, r0, c0 = [], 0, 0
    for n, m, dense in blocks:
        triplets += [(rows[r0 + i], cols[c0 + j], v) for i, row in enumerate(dense) for j, v in enumerate(row) if v]
        r0, c0 = r0 + n, c0 + m
    return nrows, ncols, triplets


def mat_vec(dense, vec):
    return [sum(row[j] * vec[j] for j in range(len(vec))) for row in dense]


def union_find_components(rows, cols, nrows):
    """Component label of each (row, col) entry of a nonzero pattern by dict
    union-find, components numbered by their smallest node (row r is node r,
    column c is node nrows + c)."""
    parent = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for r, c in zip(rows, cols):
        a, b = find(r), find(nrows + c)
        if a != b:
            parent[max(a, b)] = min(a, b)
    roots = [find(r) for r in rows]
    number = {root: k for k, root in enumerate(sorted(set(roots)))}
    return [number[root] for root in roots]


def decomposable_search(subspace, p: int):
    """Projective scan of K-perp over F_p for a 2-form w with w ^ w = 0 mod p.

    Points are taken pivot-first (first nonzero coordinate 1, the tail counting
    up), so the first find is deterministic.  Returns None, or the first find as
    (lift, lifted): ``lift`` is its combination of the rational K-perp basis with
    centred coefficients, and ``lifted`` says that the lift is decomposable over Q
    and annihilates K, a genuine point of the resonance cone.  A find that does
    not lift is evidence mod p only.
    """
    from itertools import product

    from koszul.resonance import kperp_basis, pairs_with, wedge_square

    basis = kperp_basis(subspace)
    dim, n = len(basis), subspace.n
    for pivot in range(dim):
        for tail in product(range(p), repeat=dim - 1 - pivot):
            coeffs = [0] * pivot + [1] + list(tail)
            centred = [c if c <= p // 2 else c - p for c in coeffs]
            lift = [sum(c * row[idx] for c, row in zip(centred, basis)) for idx in range(len(basis[0]))]
            if all(v % p == 0 for v in lift) or any(v % p for v in wedge_square(lift, n)):
                continue
            return lift, not any(wedge_square(lift, n)) and pairs_with(subspace, lift)
    return None


def reversal_maps(subspace, q):
    """The index reversal on the rows and columns of ``restricted_delta2(subspace, q)``
    as (row map, column map, column signs), or None, by the plain row-by-row loop: each
    integer basis vector of a rational K flipped, negated, and looked up with both signs."""
    import numpy as np

    from koszul.bases import pair_rank, pair_unrank, reverse_rank_table
    from koszul.linalg import Rational

    if not isinstance(subspace.field, Rational):
        return None
    n = subspace.n
    flipped = [pair_rank(n - 1 - j, n - 1 - i) for i, j in (pair_unrank(n, t) for t in range(comb(n, 2)))]
    index = {kvec: s for s, kvec in enumerate(subspace.int_basis)}
    target, sign = [], []
    for kvec in subspace.int_basis:
        image = [0] * len(kvec)
        for t, c in enumerate(kvec):
            image[flipped[t]] = -c
        for eps in (1, -1):
            s = index.get(tuple(eps * c for c in image))
            if s is not None:
                target.append(s)
                sign.append(eps)
                break
        else:
            return None
    rev_q, rev_1 = reverse_rank_table(n, q), reverse_rank_table(n, q + 1)
    symq, sym1 = rev_q.size, rev_1.size
    rows = ((n - 1 - np.arange(n))[:, None] * sym1 + rev_1).ravel()
    cols = (np.array(target, dtype=np.int64)[:, None] * symq + rev_q).ravel()
    return rows, cols, np.repeat(np.array(sign, dtype=np.int64), symq)
