"""Exact linear algebra: certificates, modular vs rational ranks, nullspaces."""

import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from _oracles import gauss_rank_mod_p, gauss_rank_rational, mat_vec, union_find_components
from koszul.errors import InvalidInputError, ResourceLimitError
from koszul.linalg import (
    DEFAULT_PRIMES,
    PrimeField,
    RankCache,
    RankCertificate,
    Rational,
    SparseMatrix,
    _components,
    annihilates,
    bareiss_rank,
    certified_rank,
    is_prime,
    nullspace,
    rank,
    rational_rank,
)


def random_sparse(nrows, ncols, density, seed, lo=-9, hi=9):
    rng = random.Random(seed)
    triplets = []
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                v = 0
                while v == 0:
                    v = rng.randint(lo, hi)
                triplets.append((r, c, v))
    return SparseMatrix(nrows, ncols, triplets)


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**31 - 2)
    for p in DEFAULT_PRIMES:
        assert is_prime(p)


def test_field_validation():
    with pytest.raises(InvalidInputError):
        PrimeField(2)  # odd primes only
    with pytest.raises(InvalidInputError):
        PrimeField(9)
    with pytest.raises(InvalidInputError):
        PrimeField(2**31 + 11)
    assert PrimeField(101).token() == "prime:101"
    assert Rational().token() == "rational"


def test_sparse_matrix_validation():
    with pytest.raises(InvalidInputError):
        SparseMatrix(2, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(InvalidInputError):
        SparseMatrix(2, 2, [(0, 2, 1)])
    with pytest.raises(InvalidInputError):
        SparseMatrix(2, 2, [(0, 0, 0)])
    for r, c in ((10**30, 0), (0.5, 1), (0, 1.0)):  # past int64, or no integer: never truncated
        with pytest.raises(InvalidInputError):
            SparseMatrix(2, 2, [(r, c, 1)])
    with pytest.raises(InvalidInputError):
        SparseMatrix.from_arrays(2, 2, np.array([2**63], dtype=np.uint64), [0], [1])
    with pytest.raises(InvalidInputError):
        SparseMatrix.from_arrays(2, 2, [0, 1], [0], [1, 1])


def test_zero_matrix_rank():
    m = SparseMatrix(5, 7, [])
    for f in (Rational(), PrimeField(DEFAULT_PRIMES[0])):
        cert = rank(m, f)
        assert cert.rank == 0
        assert cert.certified_exact  # structurally empty matrices certify rank 0
    # an explicit structural bound also certifies
    cert = rank(m, PrimeField(101), structural_bound=0)
    assert cert.rank == 0 and cert.certified_exact


def test_identity_pattern_rank():
    m = SparseMatrix(4, 4, [(i, i, 1) for i in range(4)])
    for f in (Rational(), PrimeField(DEFAULT_PRIMES[0])):
        cert = rank(m, f)
        assert cert.rank == 4
        assert cert.certified_exact  # rank attains min(nrows, ncols)


def test_rank_against_oracle_both_fields():
    p = DEFAULT_PRIMES[1]
    for seed in range(12):
        nrows, ncols = 5 + seed % 7, 4 + (seed * 3) % 9
        m = random_sparse(nrows, ncols, 0.4, seed)
        dense = m.to_dense_rows()
        expected_q = gauss_rank_rational(dense)
        expected_p = gauss_rank_mod_p(dense, p)
        assert rank(m, Rational()).rank == expected_q
        assert rank(m, PrimeField(p)).rank == expected_p
        assert rank(m.transpose(), Rational()).rank == expected_q


def test_modular_rank_matches_oracle_sparse():
    # sparse patterns: many components of every size, small ones stacked
    p = DEFAULT_PRIMES[0]
    for seed in range(8):
        m = random_sparse(30, 40, 0.15, seed + 100)
        assert rank(m, PrimeField(p)).rank == gauss_rank_mod_p(m.to_dense_rows(), p)


def test_modular_rank_matches_oracle_many_panels():
    # one component whose shorter side spans two panels of the blocked engine
    p = DEFAULT_PRIMES[0]
    m = random_sparse(150, 140, 0.25, 7)
    assert rank(m, PrimeField(p)).rank == gauss_rank_mod_p(m.to_dense_rows(), p)


def extreme_matrix(p, nrows, ncols, seed):
    """Every entry +-(p-1)/2, the largest balanced residue mod p."""
    rng = random.Random(seed)
    h = (p - 1) // 2
    return [[rng.choice((h, -h)) for _ in range(ncols)] for _ in range(nrows)]


def shuffled(dense, seed):
    rng = random.Random(seed)
    rows = [row[:] for row in dense]
    rng.shuffle(rows)
    perm = list(range(len(rows[0])))
    rng.shuffle(perm)
    return [[row[j] for j in perm] for row in rows]


def from_dense(dense):
    return SparseMatrix(
        len(dense), len(dense[0]), [(i, j, v) for i, row in enumerate(dense) for j, v in enumerate(row) if v]
    )


@pytest.mark.parametrize("p", [2**31 - 1, 2147483629])
def test_modular_rank_extreme_residues(p):
    # against the oracle: dependent rows are negated copies, so the
    # elimination meets (p-1)/2 magnitudes throughout
    dense = extreme_matrix(p, 60, 80, 1)
    dense += [[-v for v in dense[i]] for i in range(0, 60, 4)]
    dense = shuffled(dense, 2)
    assert rank(from_dense(dense), PrimeField(p)).rank == gauss_rank_mod_p(dense, p)
    # several full panels, rank known by construction: upper triangular
    # rows with (p-1)/2 on the diagonal, 20 rows cleared, 40 negated copies
    n, h = 300, (p - 1) // 2
    upper = extreme_matrix(p, n, n, 3)
    for i in range(n):
        upper[i][:i] = [0] * i
        upper[i][i] = h
    for i in range(0, n, 15):
        upper[i] = [0] * n
    upper += [[-v for v in upper[i]] for i in range(1, 2 * 40, 2)]
    assert rank(from_dense(shuffled(upper, 4)), PrimeField(p)).rank == n - 20


@pytest.mark.parametrize("p", [2**31 - 1, 2147483629, 65537, 3])
def test_update_exact_at_worst_case_magnitudes(p):
    import koszul.linalg as linalg

    # one update with _PANEL identical pivot rows, so every output is a
    # sum of _PANEL equal terms: multipliers c near (p-1)/2 whose shifted
    # copy 2^16*c mod p is also near +-(p-1)/2, against entries whose
    # split halves take every low residue mod 2^16
    def bal(x):
        x %= p
        return x - p if x > p // 2 else x

    h = (p - 1) // 2
    coefs = {h, -h}
    for sign in (1, -1):
        best = max(range(h, max(h - 70_000, 0), -1), key=lambda c: sign * bal(c << 16))
        coefs |= {best, -best}
    entries = sorted({bal(h - j) for j in range(0, 65_536, 257)} | {bal(j - h) for j in range(0, 65_536, 257)})
    k = linalg._PANEL
    c = np.array([[v] * k for v in sorted(coefs)], dtype=np.float64)
    e = np.array([entries] * k, dtype=np.float64)
    t = np.zeros((len(coefs), len(entries)))
    linalg._update(t, c, linalg._split(e), p)
    assert np.abs(t).max() <= (p + 3) // 2
    expected = [[-k * a * b % p for b in entries] for a in sorted(coefs)]
    assert [[int(v) % p for v in row] for row in t.tolist()] == expected


@pytest.mark.parametrize("p", [3, 65521, 65537])
def test_modular_rank_small_and_16bit_primes(p):
    for seed in range(4):
        m = random_sparse(40, 50, 0.3, seed + 600, lo=-10**6, hi=10**6)
        assert rank(m, PrimeField(p)).rank == gauss_rank_mod_p(m.to_dense_rows(), p)


def test_modular_rank_deficient_with_zero_columns():
    rng = random.Random(11)
    x = [[rng.randint(-5, 5) for _ in range(12)] for _ in range(50)]
    y = [[rng.randint(-5, 5) for _ in range(45)] for _ in range(12)]
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]
    # zero columns and a zero row interleaved with the product's
    dense = [[v for j, v in enumerate(row) for v in ((v, 0) if j % 5 == 0 else (v,))] for row in product]
    dense.insert(7, [0] * len(dense[0]))
    for p in (DEFAULT_PRIMES[0], 65537, 3):
        got = rank(from_dense(dense), PrimeField(p)).rank
        assert got == gauss_rank_mod_p(dense, p) and got <= 12


def test_false_structural_bound_raises(monkeypatch):
    import koszul.linalg as linalg

    # a random 200 x 200 matrix has rank 200: a bound of 128 is false, and the
    # full elimination exposes it through rank and certified_rank alike
    rng = random.Random(4)
    m = from_dense([[rng.randint(-9, 9) for _ in range(200)] for _ in range(200)])
    assert rank(m, PrimeField(2**31 - 1)).rank == 200
    with pytest.raises(InvalidInputError):
        rank(m, PrimeField(2**31 - 1), structural_bound=128)
    with pytest.raises(InvalidInputError):
        certified_rank(m, 128, DEFAULT_PRIMES)
    # a true bound certifies the rank and stops no elimination early: rank 100
    # by construction, independent triangular rows first, then negated copies,
    # so the first panel already reaches the rank
    rng = random.Random(5)
    n, r = 300, 100
    top = [[0] * i + [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(n - i - 1)] for i in range(r)]
    m = from_dense(top + [[-v for v in top[i % r]] for i in range(n - r)])
    calls = []
    inner = linalg._jordan

    def counting(t, p):
        calls.append(t.shape[0])
        return inner(t, p)

    monkeypatch.setattr(linalg, "_jordan", counting)
    field = PrimeField(DEFAULT_PRIMES[0])
    bounded = rank(m, field, structural_bound=r)
    bounded_calls = len(calls)
    full = rank(m, field)
    assert bounded.rank == full.rank == r
    assert bounded.certified_exact and not full.certified_exact
    assert 0 < bounded_calls == len(calls) - bounded_calls


def test_modular_rank_many_components():
    # block diagonal, shuffled: stacked small blocks of equal shape, single
    # rows and columns, and blocks large enough for the panel engine
    rng = random.Random(21)
    p = DEFAULT_PRIMES[1]
    shapes = [(1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (8, 9), (9, 8), (8, 8), (12, 15), (15, 12), (30, 20)]
    blocks = []
    for shape in shapes * 3:
        dense = random_sparse(*shape, 0.7, rng.randrange(10**6)).to_dense_rows()
        if any(any(row) for row in dense):
            blocks.append(dense)
    nrows = sum(len(b) for b in blocks) + 3  # plus empty rows and columns
    ncols = sum(len(b[0]) for b in blocks) + 4
    rperm, cperm = rng.sample(range(nrows), nrows), rng.sample(range(ncols), ncols)
    triplets, r0, c0 = [], 0, 0
    for b in blocks:
        triplets += [(rperm[r0 + i], cperm[c0 + j], v) for i, row in enumerate(b) for j, v in enumerate(row) if v]
        r0, c0 = r0 + len(b), c0 + len(b[0])
    expected = sum(gauss_rank_mod_p(b, p) for b in blocks)
    assert rank(SparseMatrix(nrows, ncols, triplets), PrimeField(p)).rank == expected


def test_over_budget_component_fails_fast():
    import tracemalloc

    # arrow: one full row and one full column make a single n x n component
    # with 2n - 1 nonzeros, whose dense block would need over 3 GB
    n = 20_000
    idx = np.arange(1, n)
    rows = np.concatenate(([0], np.zeros(n - 1, dtype=np.int64), idx))
    cols = np.concatenate(([0], idx, np.zeros(n - 1, dtype=np.int64)))
    m = SparseMatrix.from_arrays(n, n, rows, cols, np.ones(2 * n - 1, dtype=np.int64))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceLimitError):
            rank(m, PrimeField(DEFAULT_PRIMES[0]))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 50 * 2**20


def test_modular_rank_is_lower_bound():
    for seed in range(25):
        m = random_sparse(10, 12, 0.5, seed + 50)
        rq = rank(m, Rational()).rank
        for p in DEFAULT_PRIMES:
            assert rank(m, PrimeField(p)).rank <= rq


def test_seven_divisible_demonstrates_lower_bound_only():
    m = SparseMatrix(1, 1, [(0, 0, 7)])
    cert = rank(m, PrimeField(7))
    assert cert.rank == 0
    assert cert.certified_lower_bound and not cert.certified_exact
    assert rank(m, Rational()).rank == 1
    # with no oracle: one prime dividing the entry certifies nothing, a second one does
    cert = certified_rank(m, None, [7], oracle_cap=0)
    assert cert.rank == 0 and not cert.certified_exact
    cert = certified_rank(m, None, [7, 11], oracle_cap=0)
    assert cert.rank == 1 and cert.certified_exact and cert.primes == (11,)


def test_multi_prime_single_matches_rank():
    # certified_rank over one prime reports that prime's rank, certified or not
    p = DEFAULT_PRIMES[2]
    for seed in range(6):
        m = random_sparse(8, 9, 0.4, seed + 200)
        single = rank(m, PrimeField(p))
        cert = certified_rank(m, None, [p], oracle_cap=0)
        assert cert.rank == single.rank and cert.primes[0] == p
        assert single.mode == "single-prime" and cert.mode in ("single-prime", "kernel-verified")


def test_multi_prime_matches_rational_on_randoms():
    for seed in range(30):
        m = random_sparse(12, 10, 0.45, seed + 300)
        rq = rank(m, Rational()).rank
        cert = certified_rank(m, None, DEFAULT_PRIMES, oracle_cap=0)
        assert cert.rank == rq and cert.certified_exact


def test_rank_determinism():
    m = random_sparse(25, 30, 0.3, 4242)
    certs = [rank(m, PrimeField(DEFAULT_PRIMES[0])) for _ in range(3)]
    assert certs[0] == certs[1] == certs[2]


def test_nullspace_identity():
    m = SparseMatrix(3, 3, [(i, i, 1) for i in range(3)])
    assert nullspace(m, Rational()) == []


def test_nullspace_ones_row():
    m = SparseMatrix(1, 3, [(0, 0, 1), (0, 1, 1), (0, 2, 1)])
    basis = nullspace(m, Rational())
    assert len(basis) == 2
    dense = m.to_dense_rows()
    for vec in basis:
        assert mat_vec(dense, vec) == [0]
        g = 0
        for v in vec:
            g = gcd(g, v)
        assert g == 1


def test_rank_nullity_random():
    p = DEFAULT_PRIMES[0]
    for seed in range(20):
        m = random_sparse(9, 11, 0.4, seed + 400)
        dense = m.to_dense_rows()
        for f in (Rational(), PrimeField(p)):
            basis = nullspace(m, f)
            assert rank(m, f).rank + len(basis) == m.ncols
            for vec in basis:
                image = mat_vec(dense, vec)
                if isinstance(f, PrimeField):
                    assert all(x % f.p == 0 for x in image)
                else:
                    assert all(x == 0 for x in image)


def test_non_integer_entries_rejected():
    # both matrices have rank 2; they used to rank 1, the first because 0.5 was
    # truncated to a stored 0, the second because 0.5 was never scaled
    with pytest.raises(InvalidInputError):
        SparseMatrix.from_arrays(2, 2, [0, 1], [0, 1], np.array([0.5, 1.0]))
    with pytest.raises(InvalidInputError):
        SparseMatrix(2, 2, [(0, 0, 0.5), (1, 1, 1.0)])
    for bad in (Fraction(1, 2), 1.0, "3", None, 1j):
        with pytest.raises(InvalidInputError):
            SparseMatrix(1, 1, [(0, 0, bad)])
        with pytest.raises(InvalidInputError):
            SparseMatrix.from_arrays(1, 1, [0], [0], np.array([bad], dtype=object))
    with pytest.raises(InvalidInputError):
        SparseMatrix.from_arrays(1, 1, [0], [0], np.array([0], dtype=object))
    # integral Fractions and numpy integers are integers
    m = SparseMatrix(2, 2, [(0, 0, Fraction(4, 2)), (1, 1, np.int64(-3))])
    assert m.coeffs == (-3, 2) and all(type(c) is int for c in m.coeffs)
    assert rank(m, Rational()).rank == rank(m, PrimeField(101)).rank == 2
    # a palette: indices inside it, no zero value, no non-integer value, and
    # sorted, distinct and fully used, so that equal matrices hash equal
    for idx, coeffs in (([0, 2], (-1, 1)), ([0, -1], (-1, 1)), ([0.0, 1.0], (-1, 1)),
                        ([0, 1], (0, 1)), ([1, 1], (0, 1)), ([0, 1], (Fraction(1, 2), 1)),
                        ([0, 1], (1, -1)), ([0, 1], (1, 1)), ([0, 0], (-1, 1))):
        with pytest.raises(InvalidInputError):
            SparseMatrix.from_arrays(2, 2, [0, 1], [0, 1], idx, coeffs)
    a = SparseMatrix.from_arrays(2, 2, [0, 1], [0, 1], np.array([0, 1], dtype=np.int32), (-3, Fraction(5)))
    b = SparseMatrix(2, 2, [(0, 0, -3), (1, 1, 5)])
    assert a.coeffs == b.coeffs == (-3, 5) and a.canonical_key() == b.canonical_key()
    assert a.to_dense_rows() == [[-3, 0], [0, 5]]


def test_bareiss_agrees_with_plain_gauss():
    for seed in range(15):
        m = random_sparse(8, 8, 0.6, seed + 500)
        dense = [[int(v) for v in row] for row in m.to_dense_rows()]
        assert bareiss_rank(dense) == gauss_rank_rational(dense)


def test_rational_cap():
    m = random_sparse(3, 10, 0.5, 1)
    with pytest.raises(ResourceLimitError):
        rational_rank(m, oracle_cap=5)


def test_canonical_key_stability():
    t = [(0, 1, 3), (2, 0, -1), (1, 1, 5)]
    a = SparseMatrix(3, 2, t)
    b = SparseMatrix(3, 2, list(reversed(t)))
    assert a.canonical_key() == b.canonical_key()
    assert a.canonical_key(Rational()) != a.canonical_key(PrimeField(101))


def test_rank_cache_two_writers(tmp_path):
    certs = {f"k{i}": RankCertificate(i, "single-prime", (7,), True, i == 5, 5) for i in range(6)}
    writers = RankCache(str(tmp_path)), RankCache(str(tmp_path))
    for i, (key, cert) in enumerate(certs.items()):
        writers[i % 2].put(key, cert)  # alternately, each unaware of the other's records
    fresh = RankCache(str(tmp_path))
    assert {key: fresh.get(key) for key in certs} == certs


def test_rank_cache_put_after_torn_tail(tmp_path):
    first = RankCertificate(3, "kernel-verified", (7, 11), True, True, 5, verified_vectors=2)
    second = RankCertificate(4, "rational-exact", (), True, True, 4)
    RankCache(str(tmp_path)).put("a", first)
    path = tmp_path / RankCache.FILENAME
    path.write_bytes(path.read_bytes()[:-20])  # a killed run leaves a torn last line
    RankCache(str(tmp_path)).put("b", second)
    fresh = RankCache(str(tmp_path))
    assert fresh.get("a") is None and fresh.get("b") == second


def test_certificate_invariants():
    with pytest.raises(InvalidInputError):
        RankCertificate(1, "rational-exact", (), True, False)
    with pytest.raises(InvalidInputError):
        RankCertificate(1, "single-prime", ())
    with pytest.raises(InvalidInputError):
        RankCertificate(3, "bogus", (7,), True, False)
    cert = RankCertificate(3, "single-prime", (7, 11), True, False)
    assert RankCertificate.from_json(cert.to_json()) == cert
    assert "verified_vectors" not in cert.to_json() and "lift_failed" not in cert.to_json()
    kernel = RankCertificate(3, "kernel-verified", (7, 11), True, True, 5, verified_vectors=2)
    assert kernel.to_json()["verified_vectors"] == 2
    assert RankCertificate.from_json(kernel.to_json()) == kernel
    failed = RankCertificate(3, "single-prime", (7,), lift_failed=True)
    assert failed.to_json()["lift_failed"] is True
    assert RankCertificate.from_json(failed.to_json()) == failed
    with pytest.raises(InvalidInputError):
        RankCertificate(3, "kernel-verified", (7,), True, False, verified_vectors=2)
    with pytest.raises(InvalidInputError):
        RankCertificate(3, "single-prime", (7,), verified_vectors=2)


def test_multiply_exact():
    a = SparseMatrix(2, 3, [(0, 0, 1), (0, 2, 2), (1, 1, -3)])
    b = SparseMatrix(3, 2, [(0, 0, 4), (2, 0, 1), (1, 1, 5)])
    prod = a.multiply(b)
    assert prod.to_dense_rows() == [[6, 0], [0, -15]]
    with pytest.raises(InvalidInputError):
        b.multiply(a.transpose())


def test_invalid_structural_bound_detected():
    # connected matrix of true rank 3: the lie surfaces and must raise
    m = SparseMatrix(3, 3, [(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1)])
    with pytest.raises(InvalidInputError):
        rank(m, PrimeField(DEFAULT_PRIMES[0]), structural_bound=1)


def test_transpose_rank_medium():
    p = DEFAULT_PRIMES[1]
    m = random_sparse(150, 200, 0.3, 77)
    assert rank(m, PrimeField(p)).rank == rank(m.transpose(), PrimeField(p)).rank


def test_multi_prime_50x50():
    m = random_sparse(50, 50, 0.5, 4096)
    cert = certified_rank(m, None, DEFAULT_PRIMES, oracle_cap=0)
    assert cert.rank == rank(m, Rational()).rank and cert.certified_exact


def low_rank(rng, nrows, ncols, r, lo, hi):
    """Dense integer product of an nrows x r and an r x ncols factor."""
    x = [[rng.randint(lo, hi) for _ in range(r)] for _ in range(nrows)]
    y = [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(r)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def test_kernel_certificate_matches_oracle():
    # deficient blocks of both orientations, one of them two panels high,
    # entries up to 10^12 and a row divisible by the first prime
    rng = random.Random(31)
    p = DEFAULT_PRIMES[0]
    divisible = low_rank(rng, 10, 12, 6, -9, 9)
    divisible[3] = [v * p for v in divisible[3]]
    cases = [low_rank(rng, 9, 14, 5, -9, 9), low_rank(rng, 14, 9, 6, -9, 9),
             low_rank(rng, 12, 12, 7, -10**6, 10**6), divisible]
    for dense in cases:
        cert = certified_rank(from_dense(dense), None, DEFAULT_PRIMES, oracle_cap=0)
        assert cert.mode == "kernel-verified" and cert.certified_exact and not cert.lift_failed
        assert cert.rank == gauss_rank_rational(dense) and cert.verified_vectors > 0
        assert cert.primes[0] == p
    # two panels with pivot rows in both: the first panel's rows need the
    # second's columns cleared (rank 80 + 20 by construction, too large for
    # the test oracle)
    x = [[rng.randint(-3, 3) if i >= 128 or k < 80 else 0 for k in range(100)] for i in range(150)]
    y = [[rng.randint(-3, 3) for _ in range(160)] for _ in range(100)]
    dense = [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]
    cert = certified_rank(from_dense(dense), None, DEFAULT_PRIMES, oracle_cap=0)
    assert cert.mode == "kernel-verified" and cert.rank == 100 and cert.verified_vectors == 60


def test_kernel_certificate_uses_more_primes_for_large_entries():
    rng = random.Random(32)
    dense = low_rank(rng, 10, 12, 7, -10**20, 10**20)
    cert = certified_rank(from_dense(dense), None, DEFAULT_PRIMES, oracle_cap=0)
    assert cert.mode == "kernel-verified" and cert.rank == 7
    assert len(cert.primes) > len(DEFAULT_PRIMES)
    assert cert.primes[:3] == DEFAULT_PRIMES and len(set(cert.primes)) == len(cert.primes)


def test_tampered_kernel_vector_is_rejected(monkeypatch):
    import koszul.linalg as linalg

    m = from_dense([[1, 2, 3], [2, 4, 6]])
    assert annihilates(m, [[1, 1, -1], [2, -1, 0]])
    assert not annihilates(m, [[1, 1, -1], [2, 0, 0]])
    assert not annihilates(from_dense([[10**30, 1]]), [[1, -(10**30) + 1]])

    # one entry of one lifted vector changed: the exact check refuses it on
    # every attempt, so the certificate falls back and says so
    lift = linalg._lift

    def tampered(residues, modulus):
        out = lift(residues, modulus)
        if out is not None:
            out[1][0, 0] += 1
        return out

    monkeypatch.setattr(linalg, "_lift", tampered)
    rng = random.Random(33)
    dense = low_rank(rng, 8, 11, 4, -5, 5)
    cert = certified_rank(from_dense(dense), None, DEFAULT_PRIMES)
    assert cert.mode == "rational-exact" and cert.lift_failed and cert.rank == 4
    cert = certified_rank(from_dense(dense), None, DEFAULT_PRIMES, oracle_cap=0)
    assert cert.mode == "single-prime" and cert.lift_failed and not cert.certified_exact


def test_seven_divisible_never_certifies_falsely():
    m = SparseMatrix(1, 1, [(0, 0, 7)])
    cert = certified_rank(m, None, [7], oracle_cap=0)
    assert cert.rank == 0 and not cert.certified_exact and cert.lift_failed
    cert = certified_rank(m, None, [7])
    assert cert.rank == 1 and cert.mode == "rational-exact" and cert.lift_failed
    cert = certified_rank(m, None, [7, DEFAULT_PRIMES[0]], oracle_cap=0)
    assert cert.rank == 1 and cert.certified_exact and cert.primes == (DEFAULT_PRIMES[0],)
    # a zero block mod 7 beside a regular one
    m = SparseMatrix(2, 3, [(0, 0, 7), (0, 1, 14), (1, 2, 1)])
    cert = certified_rank(m, None, [7, 11], oracle_cap=0)
    assert not (cert.certified_exact and cert.rank != 2)


def test_unlucky_first_prime_is_retried():
    # rank 2 over Q (row 3 = row 1 + row 2) but 1 mod 7: the lift with 7 as the
    # reference meets 11's larger rank, restarts with 11 and certifies rank 2
    dense = [[1, 1, 1], [1, 8, 1], [2, 9, 2]]
    assert gauss_rank_rational(dense) == 2 and gauss_rank_mod_p(dense, 7) == 1
    cert = certified_rank(from_dense(dense), 3, (7, 11), oracle_cap=0)
    assert cert.mode == "kernel-verified" and cert.certified_exact and not cert.lift_failed
    assert cert.rank == 2 and cert.primes[0] == 11 and cert.verified_vectors == 1
    # a larger rank found by a prime that was not given still gives up
    cert = certified_rank(from_dense(dense), 3, (7,), oracle_cap=0)
    assert cert.rank == 1 and not cert.certified_exact and cert.lift_failed


def assert_labels_match_union_find(rows, cols, nrows):
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    labels = _components(rows, cols, nrows)
    assert labels.shape == rows.shape
    assert labels.tolist() == union_find_components(rows.tolist(), cols.tolist(), nrows)


def test_component_labels_match_union_find():
    from koszul.hilbert import restricted_delta2
    from koszul.subspaces import random_K, weyman_K

    for m in (restricted_delta2(weyman_K(7), 3), restricted_delta2(random_K(5, 6, 3), 2),
              random_sparse(40, 50, 0.03, 8), random_sparse(30, 20, 0.2, 9)):
        assert_labels_match_union_find(m.rows, m.cols, m.nrows)
    # a bipartite path of 20,000 nodes numbered in reverse: row i meets columns
    # i and i - 1, so the smallest label starts at the far end
    n = 10000
    rows = np.concatenate([np.arange(n), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(n - 1)])
    assert_labels_match_union_find(n - 1 - rows, n - 1 - cols, n)
    assert _components(n - 1 - rows, n - 1 - cols, n).max() == 0
    # a star on one column and on one row, isolated entries, an empty pattern
    assert_labels_match_union_find(np.arange(500), np.full(500, 7), 500)
    assert_labels_match_union_find(np.full(500, 3), np.arange(500)[::-1], 4)
    assert_labels_match_union_find([5, 0, 3, 9], [2, 7, 0, 1], 10)
    assert _components(np.array([5, 0, 3]), np.array([2, 7, 0]), 10).tolist() == [2, 0, 1]
    assert _components(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 6).size == 0


def test_canonical_key_object_values_and_order():
    big = [(0, 1, 10**30), (2, 0, -1), (1, 1, 5)]
    a, b = SparseMatrix(3, 2, big), SparseMatrix(3, 2, list(reversed(big)))
    assert a.canonical_key() == b.canonical_key()
    assert a.canonical_key() != SparseMatrix(3, 2, [(0, 1, 10**30 + 1), (2, 0, -1), (1, 1, 5)]).canonical_key()
    small = SparseMatrix(3, 2, [(0, 1, 3), (2, 0, -1), (1, 1, 5)])
    for other in (SparseMatrix(3, 2, [(0, 1, 3), (2, 0, -1), (1, 1, 6)]),
                  SparseMatrix(3, 2, [(0, 1, 3), (2, 1, -1), (1, 1, 5)]),
                  SparseMatrix(2, 3, [(0, 1, 3), (1, 0, -1), (1, 1, 5)]),
                  small.transpose()):
        assert small.canonical_key() != other.canonical_key()
    assert len(small.canonical_key(PrimeField(101))) == 64
