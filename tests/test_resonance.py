"""Resonance verdicts, decomposability oracles, transversality."""

from fractions import Fraction
from math import comb

import pytest

from _oracles import decomposable_search, nullspace
from koszul.bases import pair_rank, sym_dim
from koszul.errors import InvalidInputError
from koszul.hilbert import w_dim
from koszul.linalg import PrimeField, Rational, SparseMatrix
from koszul.resonance import (
    kperp_basis,
    pairs_with,
    pencil_decomposable,
    resonance_vanishes,
    split_decomposable,
    wedge_square,
)
from koszul.subspaces import (
    full_K,
    heisenberg_K,
    heisenberg_symplectic_form,
    random_K,
    subspace_from_rows,
    weyman_K,
    zero_K,
)


def bad_borderline_K(n):
    """Borderline subspace (m = 2n-3) whose annihilator contains pure dual
    forms: span of all pair vectors except the first C(n,2) - (2n-3)."""
    width = comb(n, 2)
    dropped = width - (2 * n - 3)
    rows = []
    for idx in range(dropped, width):
        row = [0] * width
        row[idx] = 1
        rows.append(row)
    K = subspace_from_rows(n, rows)
    assert K.effective_m == 2 * n - 3
    return K


def test_kperp_zero_K_is_everything():
    basis = kperp_basis(zero_K(4))
    assert len(basis) == 6
    assert sorted(basis) == sorted([[int(i == j) for i in range(6)] for j in range(6)])


def test_kperp_heisenberg_is_symplectic_line():
    for k in (2, 3):
        basis = kperp_basis(heisenberg_K(k))
        assert len(basis) == 1
        omega = heisenberg_symplectic_form(k)
        vec = basis[0]
        # proportional to the symplectic form
        assert vec == omega or vec == [-v for v in omega]


def test_kperp_pairing_random():
    # kperp_basis, read off K's reduced basis, equals the oracle's nullspace of
    # K's integer basis element for element, and each vector annihilates K
    cases = [zero_K(4), full_K(5), heisenberg_K(2), heisenberg_K(3), weyman_K(6), weyman_K(8)]
    cases += [random_K(5, 4, seed + 30) for seed in range(8)]
    for seed in range(20):
        n = 3 + seed % 6
        for field in (Rational(), PrimeField(101), PrimeField(2**31 - 1)):
            cases.append(random_K(n, seed * 7 % (comb(n, 2) + 1), seed + 900, field))
    for K in cases:
        integer_basis = SparseMatrix(K.effective_m, K.pair_count,
                                     [(s, t, c) for s, kvec in enumerate(K.int_basis) for t, c in enumerate(kvec) if c])
        perp = kperp_basis(K)
        assert perp == nullspace(integer_basis, K.field), (K.n, K.effective_m, K.field)
        for phi in perp:
            assert pairs_with(K, phi)


def test_wedge_square_decomposable_is_zero():
    omega = [0] * comb(5, 2)
    omega[pair_rank(0, 1)] = 1
    assert not any(wedge_square(omega, 5))


def test_wedge_square_symplectic():
    # (e0^e1 + e2^e3)^2 = 2 e0^e1^e2^e3
    omega = [0] * 6
    omega[pair_rank(0, 1)] = 1
    omega[pair_rank(2, 3)] = 1
    assert wedge_square(omega, 4) == [2]
    assert [v % 5 for v in wedge_square(omega, 4)] == [2]
    assert [v % 2 for v in wedge_square(omega, 4)] == [0]  # characteristic 2 degenerates


def test_wedge_square_heisenberg_not_decomposable():
    for k in (2, 3):
        omega = heisenberg_symplectic_form(k)
        assert any(wedge_square(omega, 2 * k))


def test_wedge_square_small_n_trivial():
    assert wedge_square([1, 2, 3], 3) == []


def test_split_decomposable_roundtrip():
    n = 5
    for a, b in [((1, 0, 2, 0, 0), (0, 1, 0, 3, 0)), ((2, 1, 0, 0, 1), (1, 1, 1, 1, 1))]:
        omega = [0] * comb(n, 2)
        for j in range(1, n):
            for i in range(j):
                omega[pair_rank(i, j)] = a[i] * b[j] - a[j] * b[i]
        ra, rb = split_decomposable(omega, n)
        rebuilt = [0] * comb(n, 2)
        for j in range(1, n):
            for i in range(j):
                rebuilt[pair_rank(i, j)] = ra[i] * rb[j] - ra[j] * rb[i]
        assert [Fraction(x) for x in rebuilt] == [Fraction(x) for x in omega]
    with pytest.raises(InvalidInputError):
        split_decomposable([0] * comb(n, 2), n)
    sympl = heisenberg_symplectic_form(2)
    with pytest.raises(InvalidInputError):
        split_decomposable(sympl, 4)


def test_resonance_weyman_vanishes():
    for n in range(4, 8):
        verdict = resonance_vanishes(weyman_K(n))
        assert verdict.vanishes and not verdict.heuristic
        assert verdict.method == "main-theorem"
        assert verdict.degree == n - 3 and verdict.dim == 0


def test_resonance_zero_K_never_vanishes():
    for n in (3, 4, 5):
        verdict = resonance_vanishes(zero_K(n))
        assert not verdict.vanishes and not verdict.heuristic
        assert verdict.dim > 0


def test_resonance_heisenberg_vanishes():
    for k in (2, 3):
        verdict = resonance_vanishes(heisenberg_K(k))
        assert verdict.vanishes and not verdict.heuristic


def test_resonance_full_K():
    verdict = resonance_vanishes(full_K(4))
    assert verdict.vanishes


def test_resonance_scope():
    with pytest.raises(InvalidInputError):
        resonance_vanishes(zero_K(2))


def test_witness_certifies_negative_verdict():
    # hyperplane K with K-perp = <e0^e1>: W_4 has 4200 columns, over the
    # rational oracle's cap, yet verified kernel vectors certify its rank,
    # and the exactly checked witness e0^e1 proves nonvanishing on its own
    n = 7
    skip = pair_rank(0, 1)
    rows = [[int(i == j) for i in range(comb(n, 2))] for j in range(comb(n, 2)) if j != skip]
    verdict = resonance_vanishes(subspace_from_rows(n, rows))
    assert not verdict.vanishes and verdict.dim == 5
    assert verdict.certificate.certified_exact and verdict.certificate.mode == "kernel-verified"
    assert verdict.witness is not None and verdict.witness.lifted
    assert not verdict.heuristic


def test_resonance_bad_borderline_with_witness():
    K = bad_borderline_K(4)
    verdict = resonance_vanishes(K)
    assert not verdict.vanishes and not verdict.heuristic
    # dim K-perp = 1, so the pencil oracle attaches a rational witness
    assert verdict.witness is not None
    w = verdict.witness
    omega = [0] * 6
    for j in range(1, 4):
        for i in range(j):
            omega[pair_rank(i, j)] = w.a[i] * w.b[j] - w.a[j] * w.b[i]
    assert any(omega)
    assert pairs_with(K, omega)


def test_pencil_heisenberg_complete_no_solution():
    for k in (2, 3):
        analysis = pencil_decomposable(heisenberg_K(k))
        assert analysis is not None
        assert not analysis.exists_over_C


def test_pencil_full_and_wide():
    assert pencil_decomposable(full_K(4)).exists_over_C is False
    assert pencil_decomposable(zero_K(4)) is None  # dim K-perp = 6 > 2


def test_pencil_two_dimensional_rational_root():
    # K-perp spanned by e0^e1 and e2^e3 in n=4: the pencil meets the
    # decomposable locus in the two coordinate points
    width = comb(4, 2)
    keep = {pair_rank(0, 1), pair_rank(2, 3)}
    rows = []
    for idx in range(width):
        if idx not in keep:
            row = [0] * width
            row[idx] = 1
            rows.append(row)
    K = subspace_from_rows(4, rows)
    analysis = pencil_decomposable(K)
    assert analysis.exists_over_C and analysis.witness is not None
    assert pairs_with(K, analysis.witness.omega)


def test_pencil_two_dimensional_irrational_root():
    # K-perp spanned by w1 = e0^e1 - e2^e3 and w2 = e0^e2 + e1^e3:
    # (l w1 + u w2)^2 = 0 forces l^2 + u^2 = 0, no real (hence no
    # rational) solutions, but roots exist over C
    width = comb(4, 2)
    w1 = [0] * width
    w1[pair_rank(0, 1)] = 1
    w1[pair_rank(2, 3)] = -1
    w2 = [0] * width
    w2[pair_rank(0, 2)] = 1
    w2[pair_rank(1, 3)] = 1
    pairing = SparseMatrix(
        2, width, [(0, i, v) for i, v in enumerate(w1) if v] + [(1, i, v) for i, v in enumerate(w2) if v]
    )
    K = subspace_from_rows(4, nullspace(pairing, Rational()))
    assert K.effective_m == width - 2
    analysis = pencil_decomposable(K)
    assert analysis.exists_over_C and analysis.witness is None
    # the main-theorem route must agree that resonance does not vanish
    assert not resonance_vanishes(K).vanishes


def test_decomposable_search_zero_K_finds_first_point():
    lift, lifted = decomposable_search(zero_K(4), 3)
    assert lifted
    # first projective point of the scan is the dual of e_0 ^ e_1
    expected = [0] * 6
    expected[pair_rank(0, 1)] = 1
    assert lift == expected


def test_decomposable_search_heisenberg_no_witness():
    for p in (3, 5, 7):
        assert decomposable_search(heisenberg_K(2), p) is None


def test_decomposable_search_weyman_none():
    assert decomposable_search(weyman_K(5), 5) is None
    assert decomposable_search(weyman_K(5), 3) is None


def test_oracle_consistency_with_main_theorem():
    # on instances where an oracle is complete, it must agree with the
    # certified main-theorem verdict
    cases = [weyman_K(4), weyman_K(5), heisenberg_K(2), heisenberg_K(3), bad_borderline_K(4), bad_borderline_K(5)]
    for K in cases:
        verdict = resonance_vanishes(K)
        dim_perp = K.pair_count - K.effective_m
        if dim_perp <= 2:
            analysis = pencil_decomposable(K)
            assert analysis.exists_over_C == (not verdict.vanishes)
        for p in (3, 5):
            if p ** dim_perp <= 10**6:
                found = decomposable_search(K, p)
                if found is not None and found[1]:
                    # a lifted find is a genuine point of the resonance cone
                    assert not verdict.vanishes


def injective(K, q):
    """Whether K (x) Sym^q meets the kernel of delta_{2,q} trivially: the
    restricted matrix has full column rank, certified."""
    res = w_dim(K, q, None)
    assert res.certified
    return res.certificate.rank == K.effective_m * sym_dim(K.n, q)


def test_transversality_weyman():
    for n in (4, 5):
        K = weyman_K(n)
        for q in range(n - 2):
            assert injective(K, q)


def test_transversality_bad_borderline():
    K = bad_borderline_K(4)
    assert injective(K, 0)  # independent basis: always at q=0
    assert not injective(K, 1)  # fails at q = n-3


def test_transversality_lemma_equivalence():
    # for a borderline K (m = 2n-3): full column rank at q = n-3 iff at
    # every q <= n-3 iff resonance vanishes (certified)
    for K in (weyman_K(4), weyman_K(5), bad_borderline_K(4), bad_borderline_K(5)):
        n = K.n
        assert K.effective_m == 2 * n - 3
        at_top = injective(K, n - 3)
        everywhere = all(injective(K, q) for q in range(n - 2))
        verdict = resonance_vanishes(K)
        assert at_top == everywhere == (verdict.vanishes and not verdict.heuristic)


def test_verdict_json():
    verdict = resonance_vanishes(heisenberg_K(2))
    data = verdict.to_json()
    assert data["vanishes"] is True
    assert data["certificate"]["certified_exact"] is True
    assert data["witness"] is None
    bad = resonance_vanishes(bad_borderline_K(4)).to_json()
    assert bad["vanishes"] is False and bad["witness"] is not None


def test_small_m_never_vanishes():
    # a decomposable-free projective K-perp forces m >= 2n-3, so smaller
    # subspaces always resonate
    for seed in range(6):
        K = random_K(4, 4, seed + 900)
        verdict = resonance_vanishes(K)
        assert not verdict.vanishes


def test_generic_borderline_majority_vanishes():
    vanished = 0
    for seed in range(20):
        verdict = resonance_vanishes(random_K(5, 7, 3000 + seed))
        if verdict.vanishes and not verdict.heuristic:
            vanished += 1
    assert vanished > 10
