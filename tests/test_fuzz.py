"""Seeded fuzz of the rank escalation: certified ranks are true ranks.

Each block is a product B C of small random integer factors, some of its
entries then multiplied by 7, 11 or 77 so that the small primes lose rank;
its true rank comes from the plain rational elimination of the oracle
module.  A case puts 1 to 5 such blocks side by side on shuffled rows and
columns, draws 1 to 3 primes and a bound (none, a valid one, or in 15 % of
the cases a false one, below the true rank), and may attach a lying
``spare`` mask or ``mirror`` candidate.  The invariants:

- with no bound or a valid one, the rank is certified exact and true;
- a false bound raises InvalidInputError or returns a rank no larger than
  the bound (a modular rank that reaches a false bound is trusted by
  design);
- nothing raises anything else.
"""

import random

import numpy as np

from _oracles import block_diagonal, gauss_rank_rational
from koszul.errors import InvalidInputError
from koszul.linalg import DEFAULT_PRIMES, SparseMatrix, certified_rank

PRIMES = (7, 11, 13, 65537, 2**31 - 1)


def draw(rng):
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    r = rng.randint(0, min(nrows, ncols))
    b = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(nrows)]
    c = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(r)]
    dense = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]
    factor = rng.choice((1, 7, 11, 77))
    if factor > 1:
        if rng.random() < 0.5:
            scaled = rng.sample(range(nrows), rng.randint(1, nrows))
            dense = [[v * factor for v in row] if i in scaled else row for i, row in enumerate(dense)]
        else:
            dense = [[v * factor if rng.random() < 0.3 else v for v in row] for row in dense]
    return nrows, ncols, dense


def involution(rng, n):
    """A random involution of range(n): some disjoint transpositions."""
    image, order = list(range(n)), rng.sample(range(n), n)
    for a, b in zip(order[::2], order[1::2]):
        if rng.random() < 0.7:
            image[a], image[b] = b, a
    return np.array(image, dtype=np.int64)


def lie(rng, matrix):
    """Attach nothing, a random ``spare`` mask, or a random ``mirror`` candidate that
    passes the shape checks (involutions, signs constant on the column orbits)."""
    kind = rng.randrange(3)
    if kind == 1:
        matrix.spare = np.array([rng.random() < 0.4 for _ in range(matrix.nrows)], dtype=bool)
    elif kind == 2:
        tau = involution(rng, matrix.ncols)
        eps = np.array([rng.choice((1, -1)) for _ in range(matrix.ncols)], dtype=np.int64)
        matrix.mirror = (involution(rng, matrix.nrows), tau, np.where(tau < np.arange(matrix.ncols), eps[tau], eps))


def draw_case(rng, blocks):
    """(matrix, true rank, primes, bound) of one case of ``blocks`` blocks."""
    parts = [draw(rng) for _ in range(blocks)]
    true = sum(gauss_rank_rational(dense) for _, _, dense in parts)
    matrix = SparseMatrix(*block_diagonal(parts, rng))
    primes = rng.sample(PRIMES, rng.randint(1, 3))
    if true and rng.random() < 0.15:
        bound = rng.randrange(true)
    else:
        bound = rng.choice((None, rng.randint(true, min(matrix.shape))))
    lie(rng, matrix)
    return matrix, true, primes, bound


def check(matrix, true, primes, bound):
    """certified_rank on one case, checked against the invariants above."""
    case = (matrix.to_dense_rows(), primes, bound)
    valid = bound is None or bound >= true
    try:
        cert = certified_rank(matrix, bound, primes)
    except InvalidInputError:  # any other exception fails the test
        assert not valid, case
        return
    if valid:
        assert cert.rank == true and cert.certified_exact, case
    else:
        assert cert.rank <= bound, case


def test_certified_rank_fuzz():
    rng = random.Random(20261018)
    for _ in range(400):
        check(*draw_case(rng, 1))


def test_block_diagonal_fuzz():
    # every deficient block is lifted and checked beside the others
    rng = random.Random(20261019)
    for _ in range(150):
        check(*draw_case(rng, rng.randint(2, 5)))


def from_dense(dense):
    return SparseMatrix(len(dense), len(dense[0]), [(i, j, v) for i, row in enumerate(dense) for j, v in enumerate(row) if v])


def test_fuzz_found_cases():
    # rank 2 with column 1 = column 0 + 13 w: pivot columns {0, 2} mod 13 and
    # {0, 1} over Q, so a later prime's earlier set becomes the reference
    u, w = [1, 2, -1, 3, 0, 1, 2, -2], [2, -1, 1, 0, 3, -2, 1, 1]
    mix = [(1, 0), (1, 13), (0, 1), (2, 3), (-1, 4), (3, -2), (1, 1), (2, -5)]
    spread = [[a * u[i] + b * w[i] for a, b in mix] for i in range(8)]
    # rank 1, every entry divisible by 7: a later prime's larger rank is kept
    sevens = [[7 * x * y for y in (1, -2, 3, 1, 4, -1, 2, 5, -3)] for x in (1, 2, -1)]
    # rank 2, row 0 = 7 row 2, entries near 10^12: mod 7 the pivot rows come in
    # another order than mod the later primes, but the pivot set is the same,
    # so the residues join by CRT
    big = 10**12 + 39
    reordered = [[0, 7, 7 * big], [1, 0, 3 * 10**11 + 7], [0, 1, big]]
    for dense, prime, true in ((spread, 13, 2), (sevens, 7, 1), (reordered, 7, 2)):
        assert gauss_rank_rational(dense) == true
        cert = certified_rank(from_dense(dense), None, [prime])
        assert cert.mode == "kernel-verified" and cert.rank == true, dense
        assert cert.primes[:2] == (prime, DEFAULT_PRIMES[0])
