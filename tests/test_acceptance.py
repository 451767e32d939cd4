"""Acceptance suite: one test per criterion, exact tolerances, PASS lines.

Every numeric comparison here is exact integer equality (the arithmetic
is exact by construction).  Certified statements mean certified-exact
rank certificates over the stated field.  Run with ``pytest -s`` to see
the per-criterion PASS lines.
"""

import time
from fractions import Fraction
from math import comb

from koszul.bases import schur_dim_two_row
from koszul.groups import (
    bounds_from_b1,
    chen_upper_bound,
    out_free_b1,
    preset_group_invariants,
    torelli_b1,
)
from koszul.hilbert import (
    hilbert_bound,
    hilbert_profile,
    koszul_differential,
    verify_im_delta2_dim,
    w_dim,
    w_dim_alt,
)
from koszul.linalg import (
    DEFAULT_PRIMES,
    PrimeField,
    SparseMatrix,
    rank,
    rational_rank,
)
from koszul.resonance import pencil_decomposable, wedge_square
from koszul.subspaces import (
    SplitMix64,
    canonicalize,
    heisenberg_K,
    heisenberg_symplectic_form,
    random_K,
    subspace_from_rows,
    weyman_K,
    zero_K,
)

P0 = PrimeField(DEFAULT_PRIMES[0])


def ok(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def closed_form_bound(n, q):
    """The sharp bound, recomputed here independently of the library."""
    value = Fraction(comb(n + q - 1, q) * (n - 2) * (n - q - 3), q + 2)
    assert value.denominator == 1
    return int(value)


def test_criterion_1_borderline_hilbert_function():
    timings = []
    for n in range(4, 9):
        start = time.monotonic()
        profile = hilbert_profile(weyman_K(n), fieldspec=P0)
        elapsed = time.monotonic() - start
        expected = [closed_form_bound(n, q) for q in range(n - 3)] + [0]
        assert profile.dims() == expected
        assert profile.vanishing_degree == n - 3
        assert all(r.certified for r in profile.records)
        assert profile.m == 2 * n - 3
        assert elapsed <= 60.0, f"n={n} took {elapsed:.1f}s"
        timings.append(f"n={n}: {elapsed:.1f}s")
    ok(1, f"Weyman profiles n=4..8 match the closed form, certified ({', '.join(timings)})")


def crit2_instances():
    out = []
    idx = 0
    for n, count in ((4, 40), (5, 40), (6, 20)):
        width = comb(n, 2)
        for i in range(count):
            m = min(2 * n - 3 + i % 3, width)
            out.append((idx, n, m, 20_000 + idx))
            idx += 1
    return out


def test_criterion_2_main_theorem_consistency():
    instances = crit2_instances()
    assert len(instances) == 100
    certified_vanishing = 0
    borderline_closed_form = 0
    direct_tail_checks = 0
    for idx, n, m, seed in instances:
        subspace = random_K(n, m, seed)
        profile = hilbert_profile(subspace, q_max=n, fieldspec=P0)
        top = profile.records[n - 3]
        if not (top.dim == 0 and top.certified):
            continue
        certified_vanishing += 1
        # certified W_{n-3} = 0 forces W_q = 0 for all q up to n
        for record in profile.records[n - 3 :]:
            assert record.dim == 0 and record.certified, (n, m, seed, record.q)
        if m == 2 * n - 3:
            # borderline with certified vanishing: full profile equals the
            # closed form, and the sub-top degrees are genuinely computed
            borderline_closed_form += 1
            for q in range(n - 2):
                assert profile.records[q].dim == closed_form_bound(n, q), (n, seed, q)
                assert profile.records[q].certificate is not None
        # brute-force tail verification on a deterministic subsample:
        # recompute the ranks directly instead of deriving from generation
        if n == 4:
            direct_degrees = range(n - 2, n + 1)
        elif n == 5:
            direct_degrees = range(n - 2, n + 1) if idx % 4 == 0 else ()
        else:
            direct_degrees = []
            local = idx - 80  # n=6 instances start at index 80
            if local % 4 == 0:
                direct_degrees.append(4)
            if local % 10 == 0:
                direct_degrees.extend([5, 6])
        for q in direct_degrees:
            res = w_dim(subspace, q, P0)
            assert res.dim == 0 and res.certified, (n, m, seed, q)
            direct_tail_checks += 1
    assert certified_vanishing >= 90, certified_vanishing
    assert borderline_closed_form >= 25
    ok(
        2,
        f"{certified_vanishing}/100 instances certified vanishing at n-3; "
        f"tails zero up to q=n ({direct_tail_checks} ranks recomputed directly); "
        f"{borderline_closed_form} borderline profiles equal the closed form",
    )


def test_criterion_3_extremal_zero_subspace():
    for n in range(2, 7):
        for q in range(6):
            expected = n * comb(n + q, q + 1) - comb(n + q + 1, q + 2)
            res = w_dim(zero_K(n), q, P0)
            assert res.dim == expected
            assert res.dim == schur_dim_two_row(q + 1, 1, n)
            # non-circularity: the image dimension used above is itself
            # certified against an explicit rank computation
            verify_im_delta2_dim(n, q, P0)
    ok(3, "zero-subspace dimensions equal the two-row Schur dimension, n<=6, q<=5")


def test_criterion_4_free_group_chen_ranks():
    for n in (2, 3, 4):
        for q in range(2, 7):
            expected = (q - 1) * comb(q + n - 2, q)
            assert w_dim(zero_K(n), q - 2, P0).dim == expected
    ok(4, "free-group Chen ranks reproduced through the degree-2 shift, n<=4, q<=6")


def test_criterion_5_heisenberg():
    for k in (2, 3, 4):
        subspace = heisenberg_K(k)
        profile = hilbert_profile(subspace, q_max=1, fieldspec=P0)
        assert profile.dims() == [1, 0]
        assert all(r.certified for r in profile.records)
        omega = heisenberg_symplectic_form(k)
        assert any(wedge_square(omega, 2 * k)), k
        analysis = pencil_decomposable(subspace)  # complete: dim K-perp = 1
        assert analysis is not None and not analysis.exists_over_C
    ok(5, "Heisenberg k=2,3,4: dim W_0 = 1, certified W_1 = 0, wedge-square oracle agrees")


def test_criterion_6_structural_properties():
    for n in range(2, 7):
        for q in range(6):
            d2 = koszul_differential(2, n, q)
            assert koszul_differential(1, n, q + 1).multiply(d2).nnz == 0
            if n >= 3:
                d3 = koszul_differential(3, n, q)
                assert koszul_differential(2, n, q + 1).multiply(d3).nnz == 0

    rng = SplitMix64(777)
    agreements = 0
    for _ in range(50):
        n = 3 + rng.randint(0, 2)
        m = rng.randint(0, comb(n, 2))
        q = rng.randint(0, 3)
        subspace = random_K(n, m, rng.randint(0, 10**9))
        assert w_dim_alt(subspace, q) == w_dim(subspace, q).dim
        agreements += 1

    nested = 0
    for _ in range(30):
        n = 4 + rng.randint(0, 1)
        small = random_K(n, rng.randint(1, 3), rng.randint(0, 10**9))
        extra = random_K(n, rng.randint(1, 3), rng.randint(0, 10**9))
        big = subspace_from_rows(
            n, [list(r) for r in small.int_basis] + [list(r) for r in extra.int_basis]
        )
        for q in range(3):
            assert w_dim(small, q).dim >= w_dim(big, q).dim
        nested += 1

    for _ in range(20):
        subspace = random_K(5, rng.randint(0, 10), rng.randint(0, 10**9))
        assert canonicalize(subspace) == subspace
    ok(
        6,
        f"complex property n<=6 q<=5; dual constructions agree on {agreements} instances; "
        f"monotone on {nested} nested pairs; canonicalization idempotent",
    )


def random_integer_matrix(rng, nrows, ncols, density_pct=40):
    triplets = []
    for r in range(nrows):
        for c in range(ncols):
            if rng.randint(0, 99) < density_pct:
                v = 0
                while v == 0:
                    v = rng.randint(-9, 9)
                triplets.append((r, c, v))
    return SparseMatrix(nrows, ncols, triplets)


def test_criterion_7_oracle_agreement():
    rng = SplitMix64(4242)
    checked = 0
    for i in range(100):
        bucket = i % 10
        if bucket < 7:
            nrows, ncols = rng.randint(5, 40), rng.randint(5, 40)
        elif bucket < 9:
            nrows, ncols = rng.randint(40, 100), rng.randint(40, 100)
        else:
            nrows, ncols = rng.randint(80, 150), rng.randint(120, 200)
        matrix = random_integer_matrix(rng, nrows, ncols)
        expected = rational_rank(matrix)
        for p in DEFAULT_PRIMES:
            assert rank(matrix, PrimeField(p)).rank == expected, (i, p)
        checked += 1
    # disagreement is possible in principle: one prime's rank is flagged as a lower
    # bound, and the escalation certifies the rational rank through a later prime
    divisible = SparseMatrix(1, 1, [(0, 0, 7)])
    cert = rank(divisible, PrimeField(7))
    assert cert.rank == 0 and cert.certified_lower_bound and not cert.certified_exact
    assert rational_rank(divisible) == 1
    for primes in ([7], [7, DEFAULT_PRIMES[0]]):
        cert = rank(divisible, None, primes=primes)
        assert cert.rank == 1 and cert.certified_exact and cert.primes == (7, DEFAULT_PRIMES[0])
    ok(7, f"modular rank = rational rank on {checked} matrices x 3 primes; deficits flagged")


def test_criterion_8_group_bound_tables():
    assert torelli_b1(3) == 14
    assert torelli_b1(12) == 2000
    torelli12 = preset_group_invariants("torelli", 12)
    assert torelli12.vnc_bound == 1998
    assert preset_group_invariants("torelli", 4).alexander_stabilization_degree == 45
    assert out_free_b1(4) == 20
    oa4 = preset_group_invariants("out_free", 4)
    assert oa4.b1 == 20 and oa4.vnc_bound == 18
    assert bounds_from_b1(5).growth_bound == 26
    assert bounds_from_b1(4).growth_bound == 6
    schoen = preset_group_invariants("kahler", 4)
    assert schoen.vnc_bound == 6 and schoen.b1 == 8
    ok(8, "Torelli, outer-free, growth and Kahler tables reproduce exactly")


def test_criterion_9_combinatorial_identities():
    for n in range(3, 13):
        for q in range(2, n - 1):
            assert chen_upper_bound(n, q) == hilbert_bound(n, q - 2)
        total = n + sum((q + 2) * hilbert_bound(n, q) for q in range(max(n - 3, 0)))
        assert bounds_from_b1(n).growth_bound == total
    ok(9, "Chen-bound shift and growth summation identities exact for 3<=n<=12")


def test_criterion_10_hypothesis_gating():
    # large-scale topology is out of desk-scale reach; what is checked is
    # that conditional claims stay conditional
    for g in range(4, 12):
        tags = preset_group_invariants("torelli", g).condition_map()["vnc_bound"]
        assert any("conditional" in t for t in tags), g
    for g in (12, 13, 20):
        tags = preset_group_invariants("torelli", g).condition_map()["vnc_bound"]
        assert not any("conditional" in t for t in tags), g
        assert any("g >= 12" in t for t in tags)
    out_free_tags = preset_group_invariants("out_free", 5).notes
    assert any("1-formality is open" in t for t in out_free_tags)
    ok(10, "Torelli nilpotence gate at g=12 and out-free 1-formality caveat enforced")
