"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive (plain Gaussian elimination over
Fraction, direct enumerations) and kept separate from the library code
paths it is used to check.
"""

from fractions import Fraction
from math import gcd, lcm


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
    """Basis of the right nullspace of a SparseMatrix by plain Gauss-Jordan
    elimination, one vector per free column (1 there, minus that column of the
    reduced form at the pivot columns).  Over F_p the entries lie in [0, p);
    over Q each vector is scaled to integers with content 1 and its first
    nonzero entry positive."""
    p = getattr(fieldspec, "p", None)
    ncols = matrix.ncols
    a = [[int(v) % p if p else Fraction(v) for v in row] for row in matrix.to_dense_rows()]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p) if p else 1 / a[r][c]
        a[r] = [v * inv % p if p else v * inv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    basis = []
    for c in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[c] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -a[r][c] % p if p else -a[r][c]
        if not p:
            den = lcm(*(Fraction(v).denominator for v in vec))
            ints = [int(Fraction(v) * den) for v in vec]
            g = gcd(*ints) * (-1 if next(v for v in ints if v) < 0 else 1)
            vec = [v // g for v in ints]
        basis.append(vec)
    return basis


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
