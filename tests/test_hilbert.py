"""Koszul differentials and graded dimensions of W(V,K)."""

import json
from math import comb

import pytest

from _oracles import gauss_rank_mod_p, gauss_rank_rational, reversal_maps
from koszul.bases import monomial_rank, pair_rank, sym_dim
from koszul.errors import InvalidInputError, ResourceLimitError
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
from koszul.linalg import DEFAULT_PRIMES, PrimeField, RankCache, Rational
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
        big = subspace_from_rows(n, [list(r) for r in small.int_basis] + [list(r) for r in extra.int_basis])
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


def test_reversal_matches_the_row_loop():
    import numpy as np

    # Weyman's K maps onto itself, the hyperplane K and a K with a coefficient past int64
    # too; random K and one over F_p have no mirror
    cases = [(weyman_K(n), q) for n in range(3, 13) for q in (0, 1, 3)]
    cases += [(hyperplane_K(n), q) for n in (4, 5, 7) for q in (0, 2)]
    cases += [(random_K(n, m, seed), 1) for n, m, seed in ((5, 7, 1), (6, 9, 2), (7, 11, 3))]
    cases += [(subspace_from_rows(3, [[1, 2**70, 1]]), 2), (random_K(5, 3, 1, PrimeField(101)), 1)]
    found = 0
    for K, q in cases:
        got, want = restricted_delta2(K, q).mirror, reversal_maps(K, q)
        assert (got is None) == (want is None), (K.n, q)
        if want is not None:
            found += 1
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want)), (K.n, q)
    assert found >= 30


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


def test_kernel_check_once_per_lift_round(monkeypatch):
    import koszul.linalg

    # 912 components, most of them short of full rank: all lifted in one
    # round with the reference prime and checked by one exact pass per slot
    calls = {"_lift": 0, "_annihilates": 0}
    for name in calls:
        inner = getattr(koszul.linalg, name)

        def counted(*args, name=name, inner=inner):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(koszul.linalg, name, counted)
    res = w_dim(hyperplane_K(7), 4)
    assert res.dim == 5 and res.certified
    cert = res.certificate
    assert cert.mode == "kernel-verified" and cert.primes == DEFAULT_PRIMES[:1] and cert.verified_vectors == 1895
    assert calls == {"_lift": 1, "_annihilates": 1}


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


def test_cache_key_is_stable():
    from koszul.hilbert import _cache_key

    # literal keys, so that a cache written by an earlier version still answers
    primes = ",".join(map(str, DEFAULT_PRIMES))
    assert _cache_key(weyman_K(5), 2, None, DEFAULT_PRIMES) == (
        f"54ece69adc5444f955bed9762f3815dcccede493472116c90cab5e25ee8d947e;q=2;auto;{primes}")
    assert _cache_key(random_K(5, 6, 1, PrimeField(101)), 3, None, DEFAULT_PRIMES) == (
        f"dce05161851e8b1dcc4f680cac80a47b306db7130dcbf40aa3ddfe2a0863b618;q=3;auto;{primes}")


def test_cache_key_separates_requests(tmp_path):
    from koszul.hilbert import _cache_key

    K, p = hyperplane_K(6), DEFAULT_PRIMES[0]
    rows = [list(kvec) for kvec in K.int_basis]
    base = _cache_key(K, 3, None, DEFAULT_PRIMES)
    assert base == _cache_key(subspace_from_rows(6, rows[::-1]), 3, None, DEFAULT_PRIMES)
    others = [
        _cache_key(random_K(6, 14, 1), 3, None, DEFAULT_PRIMES),  # another K of the same size
        _cache_key(subspace_from_rows(6, rows, PrimeField(101)), 3, None, DEFAULT_PRIMES),  # K over F_101
        _cache_key(K, 2, None, DEFAULT_PRIMES),
        _cache_key(K, 3, Rational(), DEFAULT_PRIMES),
        _cache_key(K, 3, PrimeField(p), DEFAULT_PRIMES),
        _cache_key(K, 3, None, DEFAULT_PRIMES[:1]),
        _cache_key(K, 3, None, DEFAULT_PRIMES[::-1]),
    ]
    assert len({base, *others}) == len(others) + 1
    # a forced field's rank reads no prime beyond its own: lists sharing the first prime share a key
    for field in (Rational(), PrimeField(p)):
        assert _cache_key(K, 3, field, DEFAULT_PRIMES) == _cache_key(K, 3, field, (p, 7)) == _cache_key(K, 3, field, (p,))
    # the oracle cap is no part of the key: it bounds the oracle's work, and a hit does none
    cold = w_dim(K, 1, Rational(), cache=RankCache(str(tmp_path)))
    with pytest.raises(ResourceLimitError):
        w_dim(K, 1, Rational(), oracle_cap=0)
    assert w_dim(K, 1, Rational(), oracle_cap=0, cache=RankCache(str(tmp_path))) == cold


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
        key = _cache_key(K, q, fieldspec, DEFAULT_PRIMES)
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


def test_auto_cache_takes_only_strict_exact_records(tmp_path, monkeypatch):
    import koszul.hilbert
    from koszul.hilbert import _cache_key

    # the hyperplane K at q = 3: rank 500 under the bound 504, kernel-verified;
    # each signed record alone in a cache file, and whether it must miss
    K = hyperplane_K(6)
    truth = w_dim(K, 3)
    key = _cache_key(K, 3, None, DEFAULT_PRIMES)
    cert = truth.certificate.to_json()
    low = {**{k: v for k, v in cert.items() if k != "verified_vectors"}, "mode": "single-prime", "rank": 499}
    records = [
        ({**low, "certified_exact": False}, True),  # uncertified, as an oracle cap of 0 once left it
        ({**low, "certified_exact": "false"}, True),  # a string flag, once read as true
        ({**low, "rank": 500, "mode": "rational-exact", "primes": []}, True),  # the oracle's, not this request's
        ({**cert, "lift_failed": True}, False),  # a legacy key beside an exact certificate is ignored
    ]
    inner, builds = koszul.hilbert.restricted_delta2, []
    monkeypatch.setattr(koszul.hilbert, "restricted_delta2", lambda *args: builds.append(args) or inner(*args))
    for i, (record, miss) in enumerate(records):
        directory = tmp_path / str(i)
        directory.mkdir()
        write_record(directory, key, record)
        before = len(builds)
        assert w_dim(K, 3, cache=RankCache(str(directory))) == truth, i
        assert len(builds) == before + miss, i


def labels(matrix):
    """The engine's components of the matrix's exact pattern, as rank labels them."""
    from koszul.linalg import _components

    return _components(matrix.rows, matrix.cols, matrix.nrows)


def projected_rank(matrix, p):
    """The engine's rank mod p with the matrix's mirror candidate and spare rows: the
    blocks the mirror selects eliminated without the spare rows."""
    from koszul.linalg import rank

    return rank(matrix, PrimeField(p)).rank


def full_rank(matrix, p):
    """The engine's rank mod p with the matrix's mirror candidate and spare rows taken
    away: every full block eliminated."""
    hints, matrix.mirror, matrix.spare = (matrix.mirror, matrix.spare), None, None
    try:
        return projected_rank(matrix, p)
    finally:
        matrix.mirror, matrix.spare = hints


def full_layout(matrix, p):
    """The engine's components of the matrix's full pattern, and their blocks (none budgeted)."""
    import numpy as np

    from koszul.linalg import _layout

    comp = labels(matrix)
    return _layout(matrix.rows, matrix.cols, comp, np.zeros(int(comp.max()) + 1, dtype=bool))


def orbit_weights(matrix, p):
    """How many components take each component's rank under the matrix's mirror candidate
    (None: refused)."""
    import numpy as np

    from koszul.linalg import _orbit_representatives

    rep = _orbit_representatives(matrix, matrix.residues(p), p, labels(matrix))
    return None if rep is None else np.bincount(rep, minlength=rep.size)


@pytest.mark.parametrize("p, n_max", [(DEFAULT_PRIMES[0], 8), (DEFAULT_PRIMES[1], 7), (DEFAULT_PRIMES[2], 7), (65537, 7)])
def test_weyman_mirrored_ranks_match_full_elimination(p, n_max):
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
            assert projected_rank(matrix, p) == full_rank(matrix, p) == expected, (n, q)


def test_weyman_mirror_eliminates_half_the_blocks(monkeypatch):
    import koszul.linalg as linalg

    # the large components the pass selects, those it pre-eliminates and hands on to the
    # dense engine: the Schur round takes some of them whole, so no _block_rank call counts
    n, q, p = 8, 5, DEFAULT_PRIMES[0]
    matrix = restricted_delta2(weyman_K(n), q)
    large = int((full_layout(matrix, p).h > linalg._BASE).sum())
    selected = []
    inner = linalg._schur

    def counting(rows, cols, residues, owner, big, p):
        selected.append(int(big.sum()))
        return inner(rows, cols, residues, owner, big, p)

    monkeypatch.setattr(linalg, "_schur", counting)
    res = w_dim(weyman_K(n), q)
    assert res.dim == 0 and res.certified and res.certificate.mode == "single-prime"
    assert large > 20 and selected and 0 < selected[0] <= large // 2 + 1
    # without the mirror every large component is selected
    selected.clear()
    assert full_rank(matrix, p) == im_delta2_dim(n, q) - hilbert_bound(n, q) and selected == [large]
    # n = 9, q = 4 has a middle block the reversal maps onto itself
    selected.clear()
    matrix = restricted_delta2(weyman_K(9), 4)
    weights = orbit_weights(matrix, p)
    assert weights.tolist().count(1) == 1
    assert w_dim(weyman_K(9), 4).dim == hilbert_bound(9, 4)
    assert selected and 0 < selected[0] <= int((full_layout(matrix, p).h > linalg._BASE).sum()) // 2 + 1


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
    # the true map where entries vanish mod the prime (Weyman's K at n = 6 has 5, 15
    # and 20): their zero residues map to zeros, so the map is still accepted
    small = 5
    matrix = restricted_delta2(weyman_K(6), 1)
    assert (matrix.residues(small) == 0).any()
    weights = orbit_weights(matrix, small)
    assert weights is not None and 2 in weights.tolist()
    truth = gauss_rank_mod_p(matrix.to_dense_rows(), small)
    assert rank(matrix, PrimeField(small)).rank == full_rank(matrix, small) == truth


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
    # (K, dim W_q): Weyman's K and random borderline K attain the bound, the hyperplane K has q + 1
    cases = [(weyman_K(n), hilbert_bound) for n in range(4, 8)]
    cases += [(random_K(n, 2 * n - 3, seed), hilbert_bound) for n, seed in ((5, 1), (6, 2))]
    cases += [(hyperplane_K(n), lambda n, q: q + 1) for n in range(5, 8)]
    for K, dim in cases:
        n = K.n
        for q in range(n - 2):
            matrix = restricted_delta2(K, q)
            expected = im_delta2_dim(n, q) - dim(n, q)
            projected = projected_rank(matrix, p)
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
    import numpy as np

    import koszul.linalg as linalg
    from koszul.errors import ResourceLimitError

    p = DEFAULT_PRIMES[0]
    # one 756x504 component, 504x504 projected, 297x297 once 207 sparse pivots are taken,
    # and 174x174 once the Schur round takes 123 structural pivots: only that complement
    # is budgeted and eliminated
    matrix = restricted_delta2(random_K(6, 9, 2), 3)
    assert full_layout(matrix, p).h.size == 1
    calls = []
    inner = linalg._block_rank

    def counting(block, *args, **kwargs):
        calls.append(block.shape)
        return inner(block, *args, **kwargs)

    monkeypatch.setattr(linalg, "_block_rank", counting)
    need = 8 * 174 * (174 + 6 * linalg._PANEL)  # the projected block's complement and its workspace
    monkeypatch.setattr(linalg, "_DENSE_BYTES", need)
    with pytest.raises(ResourceLimitError):
        full_rank(matrix, p)
    assert calls == []
    assert linalg.rank(matrix, PrimeField(p)).rank == 504 and calls == [(174, 174)]
    calls.clear()
    monkeypatch.setattr(linalg, "_DENSE_BYTES", need - 1)
    with pytest.raises(ResourceLimitError, match=f"needs {need} bytes, over the budget of {need - 1}"):
        linalg.rank(matrix, PrimeField(p))
    assert calls == []
    # a 2x2 all-ones block beside it, the spare mask kept: the big block is of full
    # rank, so only the small one goes to the kernel certificate, which lays out and
    # budgets no other full block
    n, m = matrix.shape
    ones = [(n, m, 1), (n, m + 1, 1), (n + 1, m, 1), (n + 1, m + 1, 1)]
    both = linalg.SparseMatrix.from_arrays(n + 2, m + 2, np.r_[matrix.rows, [t[0] for t in ones]],
                                           np.r_[matrix.cols, [t[1] for t in ones]], np.r_[matrix.vals, [1] * 4])
    both.spare = np.r_[matrix.spare, [False, False]]
    monkeypatch.setattr(linalg, "_DENSE_BYTES", need)
    cert = linalg.rank(both, None)
    assert cert.mode == "kernel-verified" and cert.rank == 505 and cert.verified_vectors == 1
    assert calls == [(174, 174)]
    calls.clear()
    monkeypatch.setattr(linalg, "_DENSE_BYTES", need - 1)
    with pytest.raises(ResourceLimitError, match=f"needs {need} bytes, over the budget of {need - 1}"):
        linalg.rank(both, None)
    assert calls == []


def test_koszul_matrix_is_budgeted(monkeypatch):
    import koszul.linalg as linalg

    # the matrix's index tables: n C(n+q, q+1) cells, all of the matrix of the zero K
    need = 8 * 6 * comb(9, 4)
    monkeypatch.setattr(linalg, "_DENSE_BYTES", need)
    assert w_dim(zero_K(6), 3).dim == im_delta2_dim(6, 3)
    monkeypatch.setattr(linalg, "_DENSE_BYTES", need - 1)
    with pytest.raises(ResourceLimitError, match=f"needs {need} bytes, over the budget of {need - 1}"):
        w_dim(zero_K(6), 3)
    # its triplets: 6 nnz(K) C(n+q-1, q) cells, more than any of its blocks needs
    K = weyman_K(5)
    need = 8 * 6 * sum(len(k) - k.count(0) for k in K.int_basis) * comb(6, 2)
    monkeypatch.setattr(linalg, "_DENSE_BYTES", need)
    assert w_dim(K, 2).dim == 0
    monkeypatch.setattr(linalg, "_DENSE_BYTES", need - 1)
    with pytest.raises(ResourceLimitError, match=f"W_2 at n = 5 needs {need} bytes, over the budget of {need - 1}"):
        w_dim(K, 2)


def test_one_elimination_per_block_at_the_reference_prime(monkeypatch):
    from collections import Counter

    import koszul.linalg as linalg

    # every block of the hyperplane K is short of its rows, so each goes to the kernel
    # certificate; it starts from the pass at the first prime, which eliminated it once
    K, q = hyperplane_K(6), 3
    primes, seen = [], Counter()
    residues, stacks = linalg.SparseMatrix.residues, linalg._stacks

    def noting(matrix, p):
        primes.append(p)
        return residues(matrix, p)

    def counting(*args):
        for batch, stack in stacks(*args):
            seen.update((primes[-1], c) for c in batch.tolist())
            yield batch, stack

    monkeypatch.setattr(linalg.SparseMatrix, "residues", noting)
    monkeypatch.setattr(linalg, "_stacks", counting)
    res = w_dim(K, q)
    assert res.dim == q + 1 and res.certificate.mode == "kernel-verified"
    first = [c for p, c in seen if p == DEFAULT_PRIMES[0]]
    assert len(first) == int(labels(restricted_delta2(K, q)).max()) + 1
    assert max(seen.values()) == 1


def noting_pivots(monkeypatch):
    """The sparse pivots each _pre_eliminate call takes, in a list that grows as they are taken."""
    import koszul.linalg as linalg

    pivots, inner = [], linalg._pre_eliminate

    def noting(*args):
        left, taken = inner(*args)
        pivots.append(int(taken.sum()))
        return left, taken

    monkeypatch.setattr(linalg, "_pre_eliminate", noting)
    return pivots


def test_peeled_ranks_match_unpeeled_elimination(monkeypatch):
    import koszul.linalg as linalg

    # Weyman's K at n = 8 has 7, 14, 35, 175 and 189 among its coefficients, so mod 7
    # some entries vanish, and are no pivots; the rank with the sparse pass, which merges
    # rows as well as taking single entries, equals the ranks with the pass switched off,
    # on the projected blocks and on the full ones
    pivots = noting_pivots(monkeypatch)
    for n in range(6, 9):
        K = weyman_K(n)
        for q in range(n - 2):
            matrix = restricted_delta2(K, q)
            for p in (7, DEFAULT_PRIMES[0]):
                del pivots[:]
                merged = projected_rank(matrix, p)
                assert pivots[0] > 0 or full_layout(matrix, p).h.max() <= linalg._BASE, (n, q, p)
                with monkeypatch.context() as bypass:
                    bypass.setattr(linalg, "_ROUNDS", 0)
                    del pivots[:]
                    assert merged == projected_rank(matrix, p) == full_rank(matrix, p), (n, q, p)
                    assert not any(pivots)
    assert (restricted_delta2(weyman_K(8), 5).residues(7) == 0).any()
    # every block of the hyperplane K has at most _BASE rows, so none is pre-eliminated
    K, q = hyperplane_K(6), 3
    assert full_layout(restricted_delta2(K, q), DEFAULT_PRIMES[0]).h.max() <= linalg._BASE
    del pivots[:]
    assert w_dim(K, q).dim == q + 1 and pivots and not any(pivots)


def test_merges_shrink_the_dense_blocks(monkeypatch):
    import koszul.linalg as linalg

    # at n = 9, q = 5 the largest block left by single-entry pivots alone had 810 rows;
    # merges leave every block at most half of that
    calls, inner = [], linalg._block_rank

    def counting(block, *args):
        calls.append(block.shape)
        return inner(block, *args)

    monkeypatch.setattr(linalg, "_block_rank", counting)
    res = w_dim(weyman_K(9), 5)
    assert res.dim == hilbert_bound(9, 5) and res.certified
    assert calls and max(h for h, _ in calls) <= 810 // 2


def test_peeled_blocks_get_no_sweep(monkeypatch):
    import koszul.linalg as linalg

    # every block of Weyman's K at n = 8, q = 5 is of full rank; a pre-eliminated one is no
    # start of the kernel certificate, so it gets no target, hence no backward sweep
    pivots, sweeps, inner = noting_pivots(monkeypatch), [], linalg._block_rank

    def noting(block, p, target):
        piv = inner(block, p, target)
        sweeps.append(int((piv >= 0).sum()) < target)
        return piv

    monkeypatch.setattr(linalg, "_block_rank", noting)
    res = w_dim(weyman_K(8), 5)
    assert res.dim == 0 and res.certificate.mode == "single-prime"
    assert sum(pivots) > 0 and sweeps and not any(sweeps)


def test_kernel_vectors_are_budgeted(monkeypatch):
    import koszul.linalg as linalg

    # mod 7 the Weyman n=8 blocks of degree 4 are short: the largest needs 3,041,472 bytes,
    # and their kernel vectors 418,412 entries of 24 bytes, about 10 MB
    K = weyman_K(8)
    res = w_dim(K, 4, primes=[7])
    assert res.dim == 330 and res.certificate.mode == "kernel-verified" and res.certificate.certified_exact
    monkeypatch.setattr(linalg, "_DENSE_BYTES", 6_000_000)
    message = "kernel vectors of 260472 entries needs 6251328 bytes, over the budget of 6000000"
    with pytest.raises(ResourceLimitError, match=message):
        w_dim(K, 4, primes=[7])


def test_schur_round_changes_no_certificate(monkeypatch):
    import numpy as np

    import koszul.linalg as linalg

    # the certificate JSON of every case, with the Schur round on and with it returning its
    # input untouched, under primes [7], [65537] and the defaults: mod 7 Weyman's K and
    # the random K fall short and go to the kernel certificate
    cases = [(weyman_K(n), q) for n in range(4, 9) for q in range(n - 2)]
    cases += [(hyperplane_K(n), q) for n in range(5, 8) for q in range(n - 2)]
    cases += [(random_K(7, 11, s), 4) for s in (1, 2)]
    pivots, inner = [], linalg._schur

    def noting(*args):
        left, taken = inner(*args)
        pivots.append(int(taken.sum()))
        return left, taken

    def certificates():
        return [json.dumps(w_dim(K, q, primes=primes).certificate.to_json(), sort_keys=True)
                for primes in ([7], [65537], None) for K, q in cases]

    monkeypatch.setattr(linalg, "_schur", noting)
    on = certificates()
    assert sum(pivots) > 0
    monkeypatch.setattr(linalg, "_schur", lambda rows, cols, residues, owner, big, p: (
        (rows, cols, residues), np.zeros(big.size, dtype=np.int64)))
    assert certificates() == on
    assert any('"kernel-verified"' in cert for cert in on) and any('"single-prime"' in cert for cert in on)
