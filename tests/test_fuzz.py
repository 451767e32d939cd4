"""Seeded fuzz of the rank escalation: certified ranks are true ranks.

Each case is a product B C of small random integer factors, some of its
entries then multiplied by 7, 11 or 77 so that the small primes lose rank;
its true rank comes from the plain rational elimination of the oracle
module.  The primes, the bound and the oracle cap vary from case to case.
"""

import random

from _oracles import gauss_rank_rational
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


def test_certified_rank_fuzz():
    rng = random.Random(20261018)
    certified = 0
    for _ in range(400):
        nrows, ncols, dense = draw(rng)
        true = gauss_rank_rational(dense)
        matrix = SparseMatrix(nrows, ncols, [(i, j, v) for i, row in enumerate(dense) for j, v in enumerate(row) if v])
        primes = rng.sample(PRIMES, rng.randint(1, 3))
        bound = rng.choice((None, rng.randint(true, min(nrows, ncols))))
        cap = rng.choice((0, DEFAULT_ORACLE_CAP))
        case = (dense, primes, bound, cap)
        try:
            cert = certified_rank(matrix, bound, primes, oracle_cap=cap)
        except KoszulError:  # any other exception fails the test
            continue
        assert cert.rank <= true, case
        if cert.certified_exact:
            certified += 1
            assert cert.rank == true, case
    assert certified > 300
