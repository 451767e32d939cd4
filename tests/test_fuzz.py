"""Seeded fuzz of the rank escalation: certified ranks are true ranks.

Each case is a product B C of small random integer factors, some of its
entries then multiplied by 7, 11 or 77 so that the small primes lose rank;
its true rank comes from the plain rational elimination of the oracle
module.  Further cases put 2 to 5 such products side by side on shuffled
rows and columns.  The primes, the bound and the oracle cap vary from case
to case.
"""

import random

from _oracles import block_diagonal, gauss_rank_rational
from koszul.errors import KoszulError
from koszul.linalg import DEFAULT_ORACLE_CAP, SparseMatrix, certified_rank

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


def certify(rng, matrix, true):
    """certified_rank under drawn primes, bound and oracle cap, checked against the
    true rank; whether it certified."""
    primes = rng.sample(PRIMES, rng.randint(1, 3))
    bound = rng.choice((None, rng.randint(true, min(matrix.shape))))
    cap = rng.choice((0, DEFAULT_ORACLE_CAP))
    case = (matrix.to_dense_rows(), primes, bound, cap)
    try:
        cert = certified_rank(matrix, bound, primes, oracle_cap=cap)
    except KoszulError:  # any other exception fails the test
        return False
    assert cert.rank <= true, case
    assert cert.rank == true or not cert.certified_exact, case
    return cert.certified_exact


def test_certified_rank_fuzz():
    rng = random.Random(20261018)
    certified = 0
    for _ in range(400):
        nrows, ncols, dense = draw(rng)
        matrix = SparseMatrix(nrows, ncols, [(i, j, v) for i, row in enumerate(dense) for j, v in enumerate(row) if v])
        certified += certify(rng, matrix, gauss_rank_rational(dense))
    assert certified > 300


def test_block_diagonal_fuzz():
    # every deficient block is lifted and checked beside the others
    rng = random.Random(20261019)
    certified = 0
    for _ in range(150):
        blocks = [draw(rng) for _ in range(rng.randint(2, 5))]
        true = sum(gauss_rank_rational(dense) for _, _, dense in blocks)
        certified += certify(rng, SparseMatrix(*block_diagonal(blocks, rng)), true)
    assert certified > 100
