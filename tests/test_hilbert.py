"""Koszul differentials and graded dimensions of W(V,K)."""

import json
from math import comb

import pytest

from _oracles import gauss_rank_rational
from koszul.bases import monomial_rank, pair_rank, sym_dim
from koszul.errors import InvalidInputError
from koszul.hilbert import (
    DegreeRecord,
    KoszulProfile,
    divisorial_defect,
    hilbert_bound,
    hilbert_profile,
    im_delta2_dim,
    koszul_differential,
    restricted_delta2,
    verify_im_delta2_dim,
    w_dim,
    w_dim_alt,
)
from koszul.linalg import DEFAULT_ORACLE_CAP, DEFAULT_PRIMES, PrimeField, RankCache, Rational
from koszul.subspaces import (
    full_K,
    heisenberg_K,
    random_K,
    subspace_from_rows,
    weyman_K,
    zero_K,
)


def entries_of(matrix, col):
    return sorted(
        (int(r), int(v))
        for r, c, v in zip(matrix.rows, matrix.cols, matrix.value_list())
        if c == col
    )


def test_delta2_sign_rule():
    # delta_2(e_0 ^ e_1 (x) 1) = e_1 (x) x_0 - e_0 (x) x_1 for n = 3
    d = koszul_differential(2, 3, 0)
    assert d.shape == (9, 3)
    row_plus = 1 * sym_dim(3, 1) + monomial_rank((1, 0, 0))
    row_minus = 0 * sym_dim(3, 1) + monomial_rank((0, 1, 0))
    assert entries_of(d, 0) == sorted([(row_plus, 1), (row_minus, -1)])


def test_delta_column_counts():
    for n, q in [(3, 0), (4, 2), (5, 1)]:
        d2 = koszul_differential(2, n, q)
        per_col = {}
        for c, v in zip(d2.cols.tolist(), d2.value_list()):
            per_col.setdefault(c, []).append(v)
        assert all(sorted(vs) == [-1, 1] for vs in per_col.values())
        d3 = koszul_differential(3, n, q)
        counts = {}
        for c in d3.cols.tolist():
            counts[c] = counts.get(c, 0) + 1
        assert set(counts.values()) == {3}


def test_koszul_complex_property():
    # delta_{1,q+1} . delta_{2,q} = 0 and delta_{2,q+1} . delta_{3,q} = 0
    for n in range(2, 6):
        for q in range(0, 4):
            d2 = koszul_differential(2, n, q)
            d1 = koszul_differential(1, n, q + 1)
            assert d1.multiply(d2).nnz == 0
            if n >= 3:
                d3 = koszul_differential(3, n, q)
                d2next = koszul_differential(2, n, q + 1)
                assert d2next.multiply(d3).nnz == 0


def test_delta_validation():
    with pytest.raises(InvalidInputError):
        koszul_differential(4, 3, 0)
    with pytest.raises(InvalidInputError):
        koszul_differential(2, 3, -1)


def test_im_delta2_dim_values():
    assert im_delta2_dim(3, 0) == 3
    assert im_delta2_dim(5, 1) == 40
    assert im_delta2_dim(5, 2) == 105 == 7 * sym_dim(5, 2)


def test_im_delta2_dim_matches_rational_oracle():
    for n, q in [(3, 0), (3, 1), (4, 0), (4, 1), (5, 0)]:
        dense = koszul_differential(2, n, q).to_dense_rows()
        assert gauss_rank_rational(dense) == im_delta2_dim(n, q)


def test_verify_im_delta2_dim():
    for field in (Rational(), PrimeField(DEFAULT_PRIMES[0])):
        cert = verify_im_delta2_dim(4, 2, field)
        assert cert.rank == im_delta2_dim(4, 2)
        assert cert.certified_exact


def test_hilbert_bound_tables():
    assert [hilbert_bound(5, q) for q in range(3)] == [3, 5, 0]
    assert [hilbert_bound(6, q) for q in range(4)] == [6, 16, 21, 0]
    assert [hilbert_bound(7, q) for q in range(5)] == [10, 35, 70, 84, 0]
    assert hilbert_bound(3, 0) == 0
    assert hilbert_bound(9, 12) == 0


def test_hilbert_bound_integrality_and_errors():
    for n in range(3, 14):
        for q in range(0, n):
            hilbert_bound(n, q)  # must not raise (always an integer)
    with pytest.raises(InvalidInputError):
        hilbert_bound(2, 0)
    with pytest.raises(InvalidInputError):
        hilbert_bound(5, -1)


def test_divisorial_defect():
    for n in range(3, 9):
        m = 2 * n - 3
        assert divisorial_defect(n, m, n - 3) == 0
        for q in range(0, max(n - 3, 0)):
            assert divisorial_defect(n, m, q) == hilbert_bound(n, q)
            assert divisorial_defect(n, m, q) > 0
    assert divisorial_defect(5, 7, 0) == 3
    assert divisorial_defect(5, 7, 1) == 5


def test_restricted_full_K_has_delta2_rank():
    for n, q in [(3, 1), (4, 1)]:
        K = full_K(n)
        restricted = restricted_delta2(K, q)
        assert restricted.shape == koszul_differential(2, n, q).shape
        assert gauss_rank_rational(restricted.to_dense_rows()) == im_delta2_dim(n, q)


def test_restricted_zero_K_is_empty():
    restricted = restricted_delta2(zero_K(4), 2)
    assert restricted.shape == (4 * sym_dim(4, 3), 0)
    assert restricted.nnz == 0


def test_w_dim_degree_zero_anchor():
    for n, m, seed in [(4, 3, 0), (5, 6, 1), (6, 9, 2)]:
        K = random_K(n, m, seed)
        res = w_dim(K, 0)
        assert res.dim == comb(n, 2) - m
        assert res.certified


def test_w_dim_weyman_five():
    K = weyman_K(5)
    dims = [w_dim(K, q).dim for q in range(3)]
    assert dims == [3, 5, 0]
    assert all(w_dim(K, q).certified for q in range(3))


def test_w_dim_zero_K_n3():
    res = w_dim(zero_K(3), 1, Rational())
    assert res.dim == 8 == im_delta2_dim(3, 1)
    assert res.certificate.mode == "rational-exact"


def test_w_dim_full_K_vanishes():
    for q in range(3):
        res = w_dim(full_K(4), q)
        assert res.dim == 0 and res.certified


def boundary_K(c):
    """A K whose integer basis holds the coefficients 1, c - 1 and c."""
    return subspace_from_rows(4, [[1, 0, 0, 0, c, 1], [0, 1, 0, c - 1, 0, c]])


@pytest.mark.parametrize("c", [2**62 - 1, 2**62, 2**63, 10**30])
def test_coefficients_across_the_int64_range(c):
    from koszul.linalg import SparseMatrix

    # values on both sides of 2^62 and of the int64 range stay exact
    K = boundary_K(c)
    assert {abs(v) for row in K.int_basis for v in row} == {0, 1, c - 1, c}
    for q in range(3):
        matrix = restricted_delta2(K, q)
        res = w_dim(K, q)
        assert res.certified and res.dim == im_delta2_dim(4, q) - gauss_rank_rational(matrix.to_dense_rows()), q
    matrix = restricted_delta2(K, 1)
    dense = matrix.to_dense_rows()
    assert {v for row in dense for v in row} == {0, 1, -1, c - 1, 1 - c, c, -c}
    assert all(type(v) is int for row in dense for v in row)
    assert matrix.transpose().to_dense_rows() == [list(col) for col in zip(*dense)]
    assert matrix.transpose().transpose().to_dense_rows() == dense
    rebuilt = SparseMatrix(*matrix.shape, [(r, j, v) for r, row in enumerate(dense) for j, v in enumerate(row) if v])
    assert rebuilt.canonical_key() == matrix.canonical_key()
    # neighbouring values get different keys
    for other in (boundary_K(c - 1), boundary_K(c + 1)):
        assert restricted_delta2(other, 1).canonical_key() != matrix.canonical_key()
    keys = {SparseMatrix(2, 2, [(0, 0, 1), (1, 1, v)]).canonical_key() for v in (c - 1, c, c + 1, -c)}
    assert len(keys) == 4


def test_heisenberg_injective_at_zero():
    K = heisenberg_K(2)
    restricted = restricted_delta2(K, 0)
    assert restricted.shape == (4 * sym_dim(4, 1), 5)
    assert gauss_rank_rational(restricted.to_dense_rows()) == 5


def test_w_dim_alt_agrees_small():
    assert w_dim_alt(full_K(4), 1) == 0
    assert w_dim_alt(zero_K(3), 2, Rational()) == w_dim(zero_K(3), 2, Rational()).dim
    for seed in range(12):
        n = 3 + seed % 3
        m = seed % (comb(n, 2) + 1)
        K = random_K(n, m, seed + 10)
        q = seed % 3
        assert w_dim_alt(K, q, Rational()) == w_dim(K, q, Rational()).dim


def test_w_dim_alt_degree_zero():
    K = random_K(5, 4, 3)
    assert w_dim_alt(K, 0) == comb(5, 2) - 4


def test_monotone_under_inclusion():
    # adding generators can only shrink the module
    for seed in range(8):
        n = 4 + seed % 2
        small = random_K(n, 3, seed + 20)
        extra = random_K(n, 2, seed + 120)
        big = subspace_from_rows(n, [list(r) for r in small.basis] + [list(r) for r in extra.basis])
        for q in range(3):
            assert w_dim(small, q).dim >= w_dim(big, q).dim


def test_profile_weyman_six():
    prof = hilbert_profile(weyman_K(6))
    assert prof.dims() == [6, 16, 21, 0]
    assert prof.vanishing_degree == 3
    assert all(r.certified for r in prof.records)
    assert all(r.bound_attained for r in prof.records)
    assert not prof.model_only


def test_profile_zero_K_no_vanishing():
    prof = hilbert_profile(zero_K(4), q_max=3)
    assert prof.dims() == [6, 20, 45, 84]
    assert prof.vanishing_degree is None
    assert all(r.bound_attained is False for r in prof.records[:1])


def test_profile_heisenberg_truncates():
    prof = hilbert_profile(heisenberg_K(2), q_max=4)
    assert prof.dims() == [1, 0, 0, 0, 0]
    assert prof.vanishing_degree == 1
    assert [r.derived_from for r in prof.records] == [None, None, 1, 1, 1]
    assert all(r.certified for r in prof.records)


def test_profile_json():
    prof = hilbert_profile(weyman_K(4))
    data = prof.to_json()
    assert data["n"] == 4 and data["m"] == 5
    assert [r["dim"] for r in data["records"]] == [1, 0]
    assert data["records"][1]["certificate"]["certified_exact"] is True


def test_prime_defined_subspace_is_model_only():
    K = random_K(4, 5, 7, PrimeField(DEFAULT_PRIMES[1]))
    prof = hilbert_profile(K, q_max=1)
    assert prof.model_only
    with pytest.raises(InvalidInputError):
        w_dim(K, 0, Rational())
    with pytest.raises(InvalidInputError):
        w_dim(K, 0, PrimeField(DEFAULT_PRIMES[0]))


def test_w_dim_verify_mode():
    res = w_dim(weyman_K(4), 1)
    assert res.dim == 0 and res.certified
    cert = verify_im_delta2_dim(4, 1)
    assert cert.rank == im_delta2_dim(4, 1) and cert.certified_exact


def hyperplane_K(n):
    """The hyperplane K with K-perp = <e0^e1>: dim W_q = q + 1 in every degree."""
    skip = pair_rank(0, 1)
    width = comb(n, 2)
    return subspace_from_rows(n, [[int(i == j) for i in range(width)] for j in range(width) if j != skip])


def count_oracle_calls(monkeypatch):
    import koszul.linalg

    calls = []
    inner = koszul.linalg.rational_rank

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return inner(*args, **kwargs)

    monkeypatch.setattr(koszul.linalg, "rational_rank", counting)
    return calls


@pytest.mark.parametrize("n", [6, 7])
def test_hyperplane_profile_kernel_certified(monkeypatch, n):
    calls = count_oracle_calls(monkeypatch)
    prof = hilbert_profile(hyperplane_K(n))
    assert prof.dims() == [q + 1 for q in range(n - 2)] and prof.vanishing_degree is None
    assert all(r.certified for r in prof.records)
    modes = [r.certificate.mode for r in prof.records]
    assert modes == ["single-prime"] + ["kernel-verified"] * (n - 3)
    assert all(r.certificate.primes == DEFAULT_PRIMES[:1] for r in prof.records)
    assert calls == []


def test_random_K_certified_without_oracle(monkeypatch):
    # large coefficients of random_K need the CRT lift; the oracle stays idle
    calls = count_oracle_calls(monkeypatch)
    for seed in range(6):
        n = 4 + seed % 2
        K = random_K(n, 2 + seed, seed + 700)
        for q in range(3):
            res = w_dim(K, q)
            assert res.certified and res.dim == w_dim_alt(K, q)
    assert calls == []


def test_cache_key_separates_requests():
    from koszul.hilbert import _cache_key

    K, p = hyperplane_K(6), DEFAULT_PRIMES[0]
    rows = [list(kvec) for kvec in K.int_basis]
    base = _cache_key(K, 3, None, DEFAULT_PRIMES, 2000)
    assert base == _cache_key(subspace_from_rows(6, rows[::-1]), 3, None, DEFAULT_PRIMES, 2000)
    others = [
        _cache_key(random_K(6, 14, 1), 3, None, DEFAULT_PRIMES, 2000),  # another K of the same size
        _cache_key(subspace_from_rows(6, rows, PrimeField(101)), 3, None, DEFAULT_PRIMES, 2000),  # K over F_101
        _cache_key(K, 2, None, DEFAULT_PRIMES, 2000),
        _cache_key(K, 3, Rational(), DEFAULT_PRIMES, 2000),
        _cache_key(K, 3, PrimeField(p), DEFAULT_PRIMES, 2000),
        _cache_key(K, 3, None, DEFAULT_PRIMES[:1], 2000),
        _cache_key(K, 3, None, DEFAULT_PRIMES[::-1], 2000),
        _cache_key(K, 3, None, DEFAULT_PRIMES, 0),
    ]
    assert len({base, *others}) == len(others) + 1


def test_warm_profile_builds_no_matrix(tmp_path, monkeypatch):
    import koszul.hilbert

    cold = [hilbert_profile(K, cache=RankCache(str(tmp_path))) for K in (weyman_K(6), hyperplane_K(6))]
    path = tmp_path / RankCache.FILENAME
    size = path.stat().st_size

    def refuse(*args):
        raise AssertionError("a warm hit built a matrix")

    monkeypatch.setattr(koszul.hilbert, "restricted_delta2", refuse)
    warm = [hilbert_profile(K, cache=RankCache(str(tmp_path))) for K in (weyman_K(6), hyperplane_K(6))]
    assert warm == cold and path.stat().st_size == size
    assert cold[1].records[3].certificate.mode == "kernel-verified"


def write_record(directory, key, cert, *, version=RankCache.VERSION, digest=None):
    """One cache line by hand; the digest is the right one unless given."""
    record = {"v": version, "key": key, "cert": cert, "digest": digest or RankCache._digest(key, cert)}
    (directory / RankCache.FILENAME).write_text(json.dumps(record) + "\n")


def test_cache_misses_are_recomputed(tmp_path, monkeypatch):
    import koszul.hilbert
    from koszul.hilbert import _cache_key

    K, p = hyperplane_K(6), DEFAULT_PRIMES[0]
    inner, builds = koszul.hilbert.restricted_delta2, []
    monkeypatch.setattr(koszul.hilbert, "restricted_delta2", lambda *args: builds.append(args) or inner(*args))

    def misses(q, fieldspec, lines):
        """Each line alone in a cache file: w_dim recomputes, and a fresh cache then holds the truth."""
        truth = w_dim(K, q, fieldspec)
        key = _cache_key(K, q, fieldspec, DEFAULT_PRIMES, DEFAULT_ORACLE_CAP)
        write_record(tmp_path, key, truth.certificate.to_json())  # the honest line is a hit
        before = len(builds)
        assert w_dim(K, q, fieldspec, cache=RankCache(str(tmp_path))) == truth and len(builds) == before
        for i, line in enumerate(lines):
            directory = tmp_path / f"{q}-{fieldspec}-{i}"
            directory.mkdir()
            line(directory, key, truth.certificate.to_json())
            before = len(builds)
            assert w_dim(K, q, fieldspec, cache=RankCache(str(directory))) == truth, i
            assert len(builds) == before + 1, i
            assert RankCache(str(directory)).get(key) == truth.certificate, i
        return truth

    def text(s):
        return lambda directory, key, cert: (directory / RankCache.FILENAME).write_text(s)

    def signed(**change):
        return lambda directory, key, cert: write_record(directory, key, {**cert, **change})

    def forged(directory, key, cert):  # the bound in place of the rank, with the honest digest
        write_record(directory, key, {**cert, "rank": 504, "mode": "single-prime"}, digest=RankCache._digest(key, cert))

    truth = misses(3, None, [
        text(""),
        text("\n\n"),
        lambda directory, key, cert: write_record(directory, key, cert, version=1),
        lambda directory, key, cert: (directory / RankCache.FILENAME).write_text(
            json.dumps({"key": key, "rank": 504}) + "\n"),  # the format before certificates
        lambda directory, key, cert: (directory / RankCache.FILENAME).write_text(
            json.dumps({"v": 2, "key": key, "cert": cert, "digest": RankCache._digest(key, cert)})[:-30]),  # torn
        forged,
        signed(certified_exact=False),  # a kernel-verified certificate is exact: rejected
        signed(primes=[]),
        signed(rank=505),
        signed(rank=-1),
        signed(structural_bound=784),
        signed(primes=[101, p]),
    ])
    assert truth.dim == 4 and truth.certificate.mode == "kernel-verified"
    # a forced prime takes only a single-prime certificate over exactly that prime
    misses(3, PrimeField(p), [signed(primes=[p, DEFAULT_PRIMES[1]]), signed(primes=[DEFAULT_PRIMES[1]]),
                              signed(mode="kernel-verified", certified_exact=True, verified_vectors=4)])
    # forced Q takes only the oracle's certificate
    misses(1, Rational(), [signed(mode="single-prime", primes=[p])])


def full_rank(matrix, p):
    """The engine's rank with the matrix's mirror candidate and spare rows taken away:
    every full block eliminated."""
    from koszul.linalg import _rank_mod_p

    hints, matrix.mirror, matrix.spare = (matrix.mirror, matrix.spare), None, None
    try:
        return _rank_mod_p(matrix, p)
    finally:
        matrix.mirror, matrix.spare = hints


def full_layout(matrix, p):
    """The engine's components of the matrix's full pattern mod p, and their blocks."""
    from koszul.linalg import _components, _layout

    rows, cols, _ = matrix.reduced_mod(p)
    return _layout(rows, cols, _components(rows, cols, matrix.nrows))


def orbit_weights(matrix, p):
    """The engine's per-component weights for the matrix's mirror candidate (None: refused)."""
    from koszul.linalg import _orbit_weights

    rows, cols, vals = matrix.reduced_mod(p)
    return _orbit_weights(matrix, rows, cols, vals, p, full_layout(matrix, p).comp)


@pytest.mark.parametrize("p, n_max", [(DEFAULT_PRIMES[0], 8), (DEFAULT_PRIMES[1], 7), (DEFAULT_PRIMES[2], 7), (65537, 7)])
def test_weyman_mirrored_ranks_match_full_elimination(p, n_max):
    from koszul.linalg import _rank_mod_p

    # every degree q <= n-3 of n = 4..n_max, except n = 8, q = 5 (see
    # test_weyman_mirror_eliminates_half_the_blocks): larger cases cost
    # seconds each
    for n in range(4, n_max + 1):
        K = weyman_K(n)
        for q in range(n - 2 if n < 8 else n - 3):
            matrix = restricted_delta2(K, q)
            assert matrix.mirror is not None, (n, q)
            weights = orbit_weights(matrix, p)
            assert weights is not None and 2 in weights.tolist(), (n, q)
            expected = im_delta2_dim(n, q) - hilbert_bound(n, q)
            assert _rank_mod_p(matrix, p) == full_rank(matrix, p) == expected, (n, q)


def test_weyman_mirror_eliminates_half_the_blocks(monkeypatch):
    import koszul.linalg as linalg

    n, q, p = 8, 5, DEFAULT_PRIMES[0]
    matrix = restricted_delta2(weyman_K(n), q)
    large = int((full_layout(matrix, p).h > linalg._BASE).sum())
    calls = []
    inner = linalg._block_rank

    def counting(block, *args, **kwargs):
        calls.append(block.shape)
        return inner(block, *args, **kwargs)

    monkeypatch.setattr(linalg, "_block_rank", counting)
    res = w_dim(weyman_K(n), q)
    assert res.dim == 0 and res.certified and res.certificate.mode == "single-prime"
    assert large > 20 and 0 < len(calls) <= large // 2 + 1
    # n = 9, q = 4 has a middle block the reversal maps onto itself
    calls.clear()
    matrix = restricted_delta2(weyman_K(9), 4)
    weights = orbit_weights(matrix, p)
    assert weights.tolist().count(1) == 1
    assert w_dim(weyman_K(9), 4).dim == hilbert_bound(9, 4)
    assert 0 < len(calls) <= int((full_layout(matrix, p).h > linalg._BASE).sum()) // 2 + 1


def test_tampered_mirror_is_refused():
    import numpy as np

    from koszul.linalg import SparseMatrix, rank

    p = DEFAULT_PRIMES[0]
    field = PrimeField(p)
    matrix = restricted_delta2(weyman_K(6), 2)
    truth = rank(matrix, field).rank
    assert orbit_weights(matrix, p) is not None and truth == full_rank(matrix, p)
    pi, tau, eps = matrix.mirror
    fixed = int(np.flatnonzero((tau == np.arange(tau.size)) & np.isin(np.arange(tau.size), matrix.cols))[0])
    flipped = eps.copy()
    flipped[fixed] *= -1  # still an involution, but one column's sign is wrong
    moved = pi.copy()
    moved[0] = pi[1]  # not an involution (nor a permutation)
    swapped = tau.copy()  # an involution that pairs the wrong columns
    moving = np.flatnonzero(tau != np.arange(tau.size))
    a = int(moving[0])
    b = int(next(c for c in moving if c not in (a, tau[a])))
    swapped[a], swapped[tau[b]], swapped[b], swapped[tau[a]] = tau[b], a, tau[a], b
    assert np.array_equal(swapped[swapped], np.arange(tau.size))
    for candidate in ((pi, tau, flipped), (moved, tau, eps), (pi, swapped, eps), (pi, tau[:-1], eps),
                      (pi.astype(float), tau, eps)):
        matrix.mirror = candidate
        assert orbit_weights(matrix, p) is None
        assert rank(matrix, field).rank == truth
    # the true map on a matrix with one value changed
    vals = matrix.vals.copy()
    vals[5] *= 3
    tampered = SparseMatrix.from_arrays(matrix.nrows, matrix.ncols, matrix.rows, matrix.cols, vals)
    tampered.mirror = (pi, tau, eps)
    assert orbit_weights(tampered, p) is None
    assert rank(tampered, field).rank == full_rank(tampered, p)


def test_no_mirror_without_reversal_symmetry():
    assert restricted_delta2(hyperplane_K(6), 2).mirror is None
    for seed in range(3):
        assert restricted_delta2(random_K(5, 6, seed), 2).mirror is None
    modular = subspace_from_rows(4, [[1, 0, 0, 0, 0, 1]], PrimeField(101))
    assert restricted_delta2(modular, 1).mirror is None
    assert restricted_delta2(subspace_from_rows(4, [[1, 0, 0, 0, 0, 1]]), 1).mirror is not None
    assert restricted_delta2(weyman_K(5), 1).transpose().mirror is None


def test_spare_rows_one_per_monomial():
    from koszul.bases import monomial_unrank

    for K, q in [(weyman_K(5), 1), (random_K(4, 3, 5), 2), (hyperplane_K(5), 0), (full_K(3), 3)]:
        n = K.n
        matrix = restricted_delta2(K, q)
        sym1 = sym_dim(n, q + 1)
        spare = matrix.spare
        assert spare.dtype == bool and spare.shape == (matrix.nrows,)
        assert int(spare.sum()) == sym_dim(n, q + 2) and matrix.nrows - int(spare.sum()) == im_delta2_dim(n, q)
        # row (j, b) is spare iff x_j is the smallest variable of x_j*b, once per product
        products = []
        for row in range(matrix.nrows):
            j, b = divmod(row, sym1)
            alpha = list(monomial_unrank(n, q + 1, b))
            smallest = next(i for i, e in enumerate(alpha) if e)
            assert bool(spare[row]) == (j <= smallest), (n, q, row)
            if spare[row]:
                alpha[j] += 1
                products.append(monomial_rank(tuple(alpha)))
        assert sorted(products) == list(range(sym_dim(n, q + 2)))
        assert matrix.transpose().spare is None


@pytest.mark.parametrize("p", DEFAULT_PRIMES + (65537, 3))
def test_projected_ranks_match_full_elimination(p):
    from koszul.linalg import _rank_mod_p

    # (K, dim W_q): Weyman's K and random borderline K attain the bound, the hyperplane K has q + 1
    cases = [(weyman_K(n), hilbert_bound) for n in range(4, 8)]
    cases += [(random_K(n, 2 * n - 3, seed), hilbert_bound) for n, seed in ((5, 1), (6, 2))]
    cases += [(hyperplane_K(n), lambda n, q: q + 1) for n in range(5, 8)]
    for K, dim in cases:
        n = K.n
        for q in range(n - 2):
            matrix = restricted_delta2(K, q)
            expected = im_delta2_dim(n, q) - dim(n, q)
            projected = _rank_mod_p(matrix, p)
            assert projected == full_rank(matrix, p), (n, q)
            # mod 3 the rank of Weyman's and the random K falls below the rational rank
            assert projected == expected if p != 3 else projected <= expected, (n, q)


def test_lying_spare_cannot_change_certified_dim(monkeypatch):
    import numpy as np

    import koszul.hilbert

    inner = koszul.hilbert.restricted_delta2
    cases = [(weyman_K(6), 2), (weyman_K(6), 3), (hyperplane_K(6), 2), (random_K(5, 7, 3), 2)]
    truths = [w_dim(K, q) for K, q in cases]
    rng = np.random.default_rng(7)
    for lie in ("all", "random", "shape", "dtype"):
        def lying(subspace, q):
            matrix = inner(subspace, q)
            matrix.spare = {"all": np.ones(matrix.nrows, dtype=bool),
                            "random": rng.random(matrix.nrows) < 0.5,
                            "shape": np.zeros(matrix.nrows + 1, dtype=bool),
                            "dtype": np.ones(matrix.nrows, dtype=np.int64)}[lie]
            return matrix

        monkeypatch.setattr(koszul.hilbert, "restricted_delta2", lying)
        for (K, q), truth in zip(cases, truths):
            res = w_dim(K, q)
            assert res.certified and res.dim == truth.dim, (lie, K.n, q)


def test_budget_is_checked_on_projected_blocks(monkeypatch):
    import koszul.linalg as linalg
    from koszul.errors import ResourceLimitError

    p = DEFAULT_PRIMES[0]
    matrix = restricted_delta2(random_K(6, 9, 2), 3)  # one 756x504 component, 504x504 projected
    assert full_layout(matrix, p).h.size == 1
    calls = []
    inner = linalg._block_rank

    def counting(block, *args, **kwargs):
        calls.append(block.shape)
        return inner(block, *args, **kwargs)

    monkeypatch.setattr(linalg, "_block_rank", counting)
    need = 8 * 504 * (504 + 6 * linalg._PANEL)  # the projected block and its workspace
    monkeypatch.setattr(linalg, "_DENSE_BYTES", need)
    with pytest.raises(ResourceLimitError):
        full_rank(matrix, p)
    assert calls == []
    assert linalg.rank(matrix, PrimeField(p)).rank == 504 and calls == [(504, 504)]
    calls.clear()
    monkeypatch.setattr(linalg, "_DENSE_BYTES", need - 1)
    with pytest.raises(ResourceLimitError):
        linalg.rank(matrix, PrimeField(p))
    assert calls == []
