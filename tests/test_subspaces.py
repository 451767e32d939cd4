"""Subspace canonicalization and the distinguished constructions."""

import json
from fractions import Fraction
from math import comb

import pytest

from koszul.errors import InvalidInputError
from koszul.linalg import PrimeField, Rational
from koszul.subspaces import (
    CupProductData,
    SplitMix64,
    SubspaceK,
    canonicalize,
    from_cup_data,
    full_K,
    heisenberg_K,
    heisenberg_cup_data,
    heisenberg_symplectic_form,
    random_K,
    subspace_from_rows,
    weyman_K,
    weyman_orbit_vectors,
    zero_K,
)


def test_splitmix_determinism():
    a = [SplitMix64(7).randint(-9, 9) for _ in range(20)]
    b = [SplitMix64(7).randint(-9, 9) for _ in range(20)]
    assert a == b
    assert all(-9 <= x <= 9 for x in a)
    rng = SplitMix64(1)
    assert len(set(rng.next64() for _ in range(100))) == 100


def test_canonicalize_duplicate_rows():
    v = [1, 2, 0, 0, 0, 0]
    K = subspace_from_rows(4, [v, v])
    assert K.effective_m == 1


def test_canonicalize_idempotent():
    for seed in range(10):
        K = random_K(5, 4, seed)
        again = canonicalize(K)
        assert again == K


def test_canonicalize_preserves_span():
    rows = [[2, 4, 6, 0, 0, 2], [1, 1, 1, 1, 1, 1], [3, 5, 7, 1, 1, 3]]
    K = subspace_from_rows(4, rows)
    # original rows must reduce to zero against the canonical basis
    for row in rows:
        vec = [Fraction(v) for v in row]
        for brow in K.int_basis:
            piv = next(j for j, x in enumerate(brow) if x != 0)
            if vec[piv]:
                f = vec[piv] / brow[piv]
                vec = [a - f * b for a, b in zip(vec, brow)]
        assert all(v == 0 for v in vec)


def test_zero_and_full():
    assert zero_K(3).effective_m == 0
    assert full_K(4).effective_m == comb(4, 2)
    assert zero_K(5).pair_count == 10


def test_weyman_n3_is_full():
    K = weyman_K(3)
    assert K.effective_m == 3 == comb(3, 2)
    assert K == full_K(3)


def test_weyman_orbit_hand_computed():
    # raising m_1 ^ m_2 for n=3: E(m1^m2) = m0^m2, E(m0^m2) = 2 m0^m1
    orbit = weyman_orbit_vectors(3)
    assert orbit[0] == {(1, 2): 1}
    assert orbit[1] == {(0, 2): 1}
    assert orbit[2] == {(0, 1): 2}


def test_weyman_dimension_range():
    for n in range(3, 11):
        assert weyman_K(n).effective_m == 2 * n - 3


def test_weyman_weight_homogeneity():
    # the k-th orbit vector is supported on pairs with i + j = 2d - 1 - k
    for n in (4, 5, 7):
        d = n - 1
        for k, vec in enumerate(weyman_orbit_vectors(n)):
            assert vec, "orbit vector vanished"
            assert all(i + j == 2 * d - 1 - k for (i, j) in vec)


def test_heisenberg_dimensions():
    for k in (2, 3, 4):
        K = heisenberg_K(k)
        assert K.n == 2 * k
        assert K.effective_m == comb(2 * k, 2) - 1


def test_heisenberg_annihilates_symplectic_form():
    for k in (2, 3):
        K = heisenberg_K(k)
        omega = heisenberg_symplectic_form(k)
        for row in K.int_basis:
            assert sum(a * b for a, b in zip(row, omega)) == 0


def test_heisenberg_k1_rejected():
    with pytest.raises(InvalidInputError):
        heisenberg_K(1)


def test_cup_data_zero_constants_gives_zero_K():
    data = CupProductData.build(3, 2, {(0, 1): [0, 0], (0, 2): [0, 0]})
    assert from_cup_data(data) == zero_K(3)


def test_cup_data_identity_gives_full_K():
    n = 4
    width = comb(n, 2)
    constants = {}
    idx = 0
    for j in range(n):
        for i in range(j):
            vals = [0] * width
            vals[idx] = 1
            constants[(i, j)] = vals
            idx += 1
    data = CupProductData.build(n, width, constants)
    assert from_cup_data(data) == full_K(n)


def test_heisenberg_cup_data_matches_construction():
    for k in (2, 3):
        assert from_cup_data(heisenberg_cup_data(k)) == heisenberg_K(k)


def test_cup_data_validation():
    with pytest.raises(InvalidInputError):
        CupProductData.build(3, 2, {(1, 1): [0, 0]})
    with pytest.raises(InvalidInputError):
        CupProductData.build(3, 2, {(0, 1): [1]})


# valid; each change in test_cup_data_json_validation makes it invalid
GOOD_CUP = {"n": 3, "h2": 1, "constants": [{"pair": [0, 1], "values": ["1/2"]}]}


def test_cup_data_json_roundtrip():
    data = CupProductData.build(3, 1, {(0, 1): [Fraction(1, 2)], (1, 2): [3]})
    assert CupProductData.from_json(data.to_json()) == data
    data = CupProductData.build(3, 1, {(0, 2): [Fraction(-7, 3)]})
    assert CupProductData.from_json(json.loads(json.dumps(data.to_json()))) == data
    data = heisenberg_cup_data(2)
    assert CupProductData.from_json(json.loads(json.dumps(data.to_json()))) == data
    assert CupProductData.from_json(GOOD_CUP) == CupProductData.build(3, 1, {(0, 1): [Fraction(1, 2)]})


@pytest.mark.parametrize("change", [
    {"n": 4.9},
    {"h2": True},
    {"n": "3"},
    {"constants": [{"pair": [0, 1, 2], "values": [1]}]},
    {"constants": [{"pair": [0], "values": [1]}]},
    {"constants": [{"pair": (0, 1), "values": [1]}]},
    {"constants": [{"pair": [0.0, 1], "values": [1]}]},
    {"constants": [{"values": [1]}]},
    {"constants": [{"pair": [0, 1]}]},
    {"constants": [{"pair": [0, 1], "values": ["x"]}]},
    {"constants": [{"pair": [0, 1], "values": [0.5]}]},
    {"constants": [{"pair": [0, 1], "values": [False]}]},
    {"constants": [{"pair": [0, 1], "values": ["1/0"]}]},
    {"constants": [{"pair": [0, 1], "values": ["0.5"]}]},
    {"constants": [{"pair": [0, 1], "values": [" 1/2"]}]},
    {"constants": [{"pair": [0, 1], "values": 1}]},
    {"constants": ["pair"]},
    {"constants": None},
])
def test_cup_data_json_validation(change):
    with pytest.raises(InvalidInputError):
        CupProductData.from_json({**GOOD_CUP, **change})


def test_random_K_deterministic():
    a = random_K(5, 7, 42)
    b = random_K(5, 7, 42)
    assert a == b
    assert a.effective_m == 7
    assert random_K(5, 7, 43) != a


def test_random_K_prime_field():
    K = random_K(4, 3, 11, PrimeField(101))
    assert K.effective_m == 3
    assert all(0 <= v < 101 for row in K.int_basis for v in row)


def test_random_K_bad_m():
    with pytest.raises(InvalidInputError):
        random_K(4, 7, 0)


def test_subspace_json_roundtrip():
    for K in (weyman_K(5), heisenberg_K(2), zero_K(4)):
        assert SubspaceK.from_json(K.to_json()) == K
    frac = subspace_from_rows(3, [[Fraction(1, 2), Fraction(1, 3), 0]])
    assert SubspaceK.from_json(frac.to_json()) == frac


def test_subspace_json_validation():
    with pytest.raises(InvalidInputError):
        SubspaceK.from_json({"n": 3, "field": "rational", "basis": [[{"pair": [2, 1], "num": 1}]]})
    with pytest.raises(InvalidInputError):
        SubspaceK.from_json({"n": 3, "field": "bogus", "basis": []})


def test_json_field_spec():
    K = random_K(4, 2, 5, PrimeField(97))
    data = K.to_json()
    assert data["field"] == {"prime": 97}
    assert SubspaceK.from_json(data) == K


def test_cup_data_dual_to_kperp():
    # the annihilator of the cup subspace spans the kernel of the cup map
    from _oracles import nullspace, rref
    from koszul.linalg import Rational, SparseMatrix
    from koszul.resonance import kperp_basis

    data = heisenberg_cup_data(2)
    K = from_cup_data(data)
    table = {pair: vals for pair, vals in data.constants}
    width = comb(data.n, 2)
    rows = []
    for s in range(data.h2):
        rows.append([table.get(pair_key, [0] * data.h2)[s] for pair_key in _pairs(data.n)])
    cup_matrix = SparseMatrix(
        data.h2, width, [(r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row) if v]
    )
    kernel = nullspace(cup_matrix, Rational())
    perp = kperp_basis(K)
    echelon_a, _ = rref(kernel, Rational())
    echelon_b, _ = rref(perp, Rational())
    assert echelon_a == echelon_b


def _pairs(n):
    from koszul.bases import pair_unrank

    return [pair_unrank(n, idx) for idx in range(comb(n, 2))]


def test_canonicalize_pairing_check():
    from koszul.resonance import kperp_basis

    rows = [[2, 4, 6, 0, 0, 2], [1, 1, 1, 1, 1, 1]]
    K = subspace_from_rows(4, rows)
    for phi in kperp_basis(K):
        for row in rows:
            assert sum(a * b for a, b in zip(row, phi)) == 0


def _random_rows(rng, kind, n, m, p):
    """m rows of width C(n,2), drawn as ``kind`` says; ``p`` is the field's prime (7
    over Q)."""
    width = comb(n, 2)
    draw = {
        "dense": lambda: rng.randint(-9, 9),
        "sparse": lambda: rng.randint(-5, 5) if rng.random() < 0.2 else 0,
        "multiple": lambda: p * rng.randint(-3, 3) if rng.random() < 0.6 else rng.randint(-3, 3),
        "huge": lambda: 10**30 + rng.randint(-9, 9) if rng.random() < 0.5 else rng.randint(-9, 9),
        "fraction": lambda: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 6, 9, 12])),
    }[kind if kind != "duplicate" else "dense"]
    rows = [[draw() for _ in range(width)] for _ in range(m)]
    if kind == "duplicate" and rows:
        rows += [list(rows[0]), [a + b for a, b in zip(rows[0], rows[-1])]]
    return rows


def test_canonical_basis_matches_oracle(monkeypatch):
    # the integer basis, pivot columns and K-perp basis of each K equal those read off
    # the plain Fraction (or mod p) reduced echelon form of the rows it was built from
    import random

    import koszul.subspaces as subspaces
    from _oracles import canonical_subspace
    from koszul.bases import pair_rank
    from koszul.resonance import kperp_basis

    given = []
    inner = subspaces.subspace_from_rows

    def recording(n, rows, fieldspec=Rational()):
        given.append((n, [list(row) for row in rows], fieldspec))
        return inner(n, rows, fieldspec)

    monkeypatch.setattr(subspaces, "subspace_from_rows", recording)
    build = subspaces.subspace_from_rows
    fields = [Rational(), PrimeField(7), PrimeField(101), PrimeField(2**31 - 1)]
    built = [from_cup_data(heisenberg_cup_data(k)) for k in (2, 3)] + [heisenberg_K(k) for k in (2, 3)]
    built += [weyman_K(n) for n in range(3, 11)]
    rng = random.Random(20201)
    for fieldspec in fields:
        p = getattr(fieldspec, "p", 7)
        built += [zero_K(n, fieldspec) for n in (2, 4)] + [full_K(n, fieldspec) for n in (2, 4, 5)]
        for n in range(3, 11):
            orbit = [[vec.get((i, j), 0) for j in range(n) for i in range(j)] for vec in weyman_orbit_vectors(n)]
            built.append(build(n, orbit, fieldspec))
        for n in (4, 6):
            identity = [[int(i == j) for i in range(comb(n, 2))] for j in range(comb(n, 2))]
            built.append(build(n, identity[:pair_rank(0, 1)] + identity[pair_rank(0, 1) + 1:], fieldspec))
        kinds = ["dense", "sparse", "duplicate", "multiple", "huge", "fraction"]
        for t in range(66):
            n = rng.randint(2, 6)
            rows = _random_rows(rng, kinds[t % 6], n, rng.randint(0, comb(n, 2) + 1), p)
            built.append(build(n, rows, fieldspec))
    assert len(built) == len(given) >= 300
    for K, (n, rows, fieldspec) in zip(built, given):
        basis, pivots, kperp = canonical_subspace(rows, fieldspec, comb(n, 2))
        assert K.int_basis == basis and K.effective_m == len(basis), (n, rows, fieldspec)
        assert K.pivot_columns() == pivots
        assert kperp_basis(K) == kperp
    assert any(row[pc] > 1 for K in built if K.field == Rational() for row, pc in zip(K.int_basis, K.pivot_columns()))
    with pytest.raises(InvalidInputError):
        inner(3, [[Fraction(1, 14), 1, 0]], PrimeField(7))


def test_constructors_refuse_oversized_K(monkeypatch):
    # each constructor checks 8 * m * C(n,2) against the dense budget before building a row
    import koszul.linalg as linalg
    from koszul.errors import ResourceLimitError

    data = heisenberg_cup_data(2)
    constructors = [
        (6 * 6, lambda: full_K(4)),
        (7 * 10, lambda: weyman_K(5)),
        (14 * 15, lambda: heisenberg_K(3)),
        (3 * 10, lambda: random_K(5, 3, 1)),
        (data.h2 * 6, lambda: from_cup_data(data)),
        (2 * 6, lambda: subspace_from_rows(4, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])),
        (1 * 6, lambda: SubspaceK.from_json({"n": 4, "field": "rational", "basis": [[{"pair": [0, 1], "num": 1}]]})),
    ]
    for cells, make in constructors:
        monkeypatch.setattr(linalg, "_DENSE_BYTES", 8 * cells)
        make()
        monkeypatch.setattr(linalg, "_DENSE_BYTES", 8 * cells - 1)
        with pytest.raises(ResourceLimitError, match=f"needs {8 * cells} bytes, over the budget of {8 * cells - 1}"):
            make()
