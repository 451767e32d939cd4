"""Resonance vanishing and an exact decomposability oracle.

The resonance variety of (V, K) is the cone of covectors a admitting b
with a ^ b in K-perp \\ {0}; it reduces to {0} exactly when the degree
n-3 piece of W(V,K) vanishes, which is how :func:`resonance_vanishes`
decides it.  Independently, resonance is nontrivial iff the projective
span of K-perp meets the locus of decomposable 2-forms, and a 2-form w
is decomposable iff w ^ w = 0; :func:`pencil_decomposable` exploits that
with an exact analysis when dim K-perp <= 2, and attaches a witness to
negative verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from .bases import pair_rank, pair_unrank
from .errors import InvalidInputError
from .hilbert import w_dim
from .linalg import PrimeField, RankCache, RankCertificate
from .subspaces import SubspaceK, kperp_basis


def wedge_square(omega, n: int) -> list:
    """Coefficients of w ^ w on the 4-form basis (colex order).

    For n < 4 the target space is zero and the empty vector is returned:
    every 2-form in at most 3 variables is decomposable.
    """
    if len(omega) != comb(n, 2):
        raise InvalidInputError(f"2-form has {len(omega)} coefficients, expected C({n},2)")
    out = []
    for l in range(3, n):
        for k in range(2, l):
            for j in range(1, k):
                for i in range(j):
                    val = (
                        omega[pair_rank(i, j)] * omega[pair_rank(k, l)]
                        - omega[pair_rank(i, k)] * omega[pair_rank(j, l)]
                        + omega[pair_rank(i, l)] * omega[pair_rank(j, k)]
                    )
                    out.append(2 * val)
    return out


def split_decomposable(omega, n: int) -> tuple[list, list]:
    """Factor a decomposable 2-form as a ^ b (requires w ^ w = 0, w != 0).

    The skew matrix of w has rank 2; two independent columns span the
    plane, and rescaling recovers an exact factorization.
    """
    mat = [[0] * n for _ in range(n)]
    for idx, v in enumerate(omega):
        if v:
            i, j = pair_unrank(n, idx)
            mat[i][j] = v
            mat[j][i] = -v
    first = next(
        ((i, j) for j in range(n) for i in range(j) if mat[i][j] != 0), None
    )
    if first is None:
        raise InvalidInputError("cannot factor the zero 2-form")
    i0, j0 = first
    a = [row[j0] for row in mat]
    scale = Fraction(-1) / Fraction(mat[i0][j0])
    b = [Fraction(row[i0]) * scale for row in mat]
    check = [a[i] * b[j] - a[j] * b[i] for j in range(1, n) for i in range(j)]
    if any(x != y for x, y in zip(check, omega)):
        raise InvalidInputError("2-form is not decomposable")
    return a, b


def pairs_with(subspace: SubspaceK, omega) -> bool:
    """True when the 2-form annihilates every basis vector of K."""
    modulus = subspace.field.p if isinstance(subspace.field, PrimeField) else None
    for row in subspace.int_basis:
        val = sum(x * y for x, y in zip(row, omega))
        if (val % modulus if modulus else val) != 0:
            return False
    return True


@dataclass(frozen=True)
class DecomposableWitness:
    """A decomposable 2-form found inside K-perp."""

    a: tuple
    b: tuple
    omega: tuple
    field: str  # field over which the witness is verified
    lifted: bool  # True when a mod-p find was re-verified over Q

    def to_json(self) -> dict:
        def fmt(x):
            f = Fraction(x)
            return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

        return {
            "a": [fmt(x) for x in self.a],
            "b": [fmt(x) for x in self.b],
            "field": self.field,
            "lifted": self.lifted,
        }


@dataclass(frozen=True)
class ResonanceVerdict:
    """Outcome of the resonance decision for one subspace."""

    n: int
    m: int
    vanishes: bool
    method: str  # "main-theorem"
    degree: int  # the decisive degree n-3
    dim: int  # computed dim W_{n-3}
    certificate: RankCertificate
    heuristic: bool  # True when no certified-exact answer was reached
    model_only: bool  # subspace defined over a prime field
    witness: DecomposableWitness | None = None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "vanishes": self.vanishes,
            "method": self.method,
            "degree": self.degree,
            "dim": self.dim,
            "heuristic": self.heuristic,
            "model_only": self.model_only,
            "certificate": self.certificate.to_json(),
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def resonance_vanishes(
    subspace: SubspaceK,
    *,
    primes=None,
    cache: RankCache | None = None,
) -> ResonanceVerdict:
    """Decide whether the resonance of (V, K) reduces to {0}.

    Computes dim W_{n-3} with :func:`koszul.hilbert.w_dim` in its automatic
    mode: a certified zero proves vanishing, a certified nonzero refutes it.
    A nonzero dimension is certified by kernel vectors verified over Z
    (:func:`koszul.linalg.rank` with no field); the rational oracle never runs,
    so no oracle cap applies.  Should that certificate be missing, the
    verdict is flagged heuristic.  For n >= 4 and a small
    annihilator the exact pencil oracle is consulted to attach a witness to
    negative verdicts; the witness, a decomposable form in K-perp checked
    exactly, proves nonvanishing on its own.
    """
    n = subspace.n
    if n < 3:
        raise InvalidInputError(f"resonance decision needs n >= 3, got n={n}")
    res = w_dim(subspace, n - 3, None, primes=primes, cache=cache)
    vanishes = res.dim == 0
    witness = None
    if not vanishes and not isinstance(subspace.field, PrimeField):
        if subspace.pair_count - subspace.effective_m <= 2:
            found = pencil_decomposable(subspace)
            if found is not None and found.witness is not None:
                witness = found.witness
    return ResonanceVerdict(
        n,
        subspace.effective_m,
        vanishes,
        "main-theorem",
        n - 3,
        res.dim,
        res.certificate,
        heuristic=not res.certified and witness is None,
        model_only=isinstance(subspace.field, PrimeField),
        witness=witness,
    )


def _is_rational_square(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class PencilAnalysis:
    """Exact decomposability analysis of a K-perp of dimension at most 2."""

    exists_over_C: bool
    witness: DecomposableWitness | None  # present iff a rational point exists

    @property
    def lifted(self) -> bool:
        return self.witness is not None


def pencil_decomposable(subspace: SubspaceK) -> PencilAnalysis | None:
    """Complete search for decomposable forms when dim K-perp <= 2.

    For a pencil l w1 + u w2 the condition w ^ w = 0 is a system of
    binary quadratics in (l, u); a common projective root over C exists
    iff the gcd of the nonzero forms is nonconstant.  Returns None when
    dim K-perp exceeds 2 (the analysis would be incomplete).
    """
    if isinstance(subspace.field, PrimeField):
        raise InvalidInputError("pencil analysis runs over Q-defined subspaces")
    n = subspace.n
    basis = kperp_basis(subspace)
    dim = len(basis)
    if dim > 2:
        return None
    if dim == 0:
        return PencilAnalysis(False, None)
    if dim == 1:
        omega = basis[0]
        if any(wedge_square(omega, n)):
            return PencilAnalysis(False, None)
        return PencilAnalysis(True, _make_witness(subspace, omega))
    w1, w2 = basis
    sq1 = wedge_square(w1, n)
    sq2 = wedge_square(w2, n)
    mixed = wedge_square([x + y for x, y in zip(w1, w2)], n)
    polys = []  # value at [l : 1] as a polynomial in l, coefficients low to high
    for t in range(len(sq1)):
        a, c = Fraction(sq1[t]), Fraction(sq2[t])
        b = Fraction(mixed[t]) - a - c
        if a or b or c:
            polys.append([c, b, a])
    if not polys:
        # the wedge square vanishes identically on the pencil
        return PencilAnalysis(True, _make_witness(subspace, w1))
    if all(poly[2] == 0 for poly in polys):
        # common root at [1 : 0], which is w1 itself
        return PencilAnalysis(True, _make_witness(subspace, w1))
    g = polys[0]
    for poly in polys[1:]:
        g = _poly_gcd(g, poly)
        if len(g) == 1:
            return PencilAnalysis(False, None)
    if len(g) == 1:
        return PencilAnalysis(False, None)
    if len(g) == 2:
        root = -g[0] / g[1]
        return PencilAnalysis(True, _pencil_witness(subspace, w1, w2, root))
    disc = g[1] * g[1] - 4 * g[2] * g[0]
    sqrt_disc = _is_rational_square(disc)
    if sqrt_disc is not None:
        root = (-g[1] + sqrt_disc) / (2 * g[2])
        return PencilAnalysis(True, _pencil_witness(subspace, w1, w2, root))
    return PencilAnalysis(True, None)  # roots exist over C but are irrational


def _poly_gcd(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """Monic gcd of univariate polynomials (coefficients low to high)."""

    def trimmed(p):
        p = list(p)
        while len(p) > 1 and p[-1] == 0:
            p.pop()
        return p

    f, g = trimmed(f), trimmed(g)
    while g != [Fraction(0)] and any(g):
        # f mod g
        f = trimmed(f)
        while len(f) >= len(g) and any(f):
            coef = f[-1] / g[-1]
            shift = len(f) - len(g)
            for i, gv in enumerate(g):
                f[shift + i] -= coef * gv
            f = trimmed(f)
            if not any(f):
                break
        f, g = g, f if any(f) else [Fraction(0)]
    lead = f[-1]
    return [v / lead for v in f]


def _pencil_witness(subspace, w1, w2, root: Fraction) -> DecomposableWitness:
    omega = [Fraction(root) * x + y for x, y in zip(w1, w2)]
    return _make_witness(subspace, omega)


def _make_witness(subspace: SubspaceK, omega) -> DecomposableWitness:
    a, b = split_decomposable(omega, subspace.n)
    witness = DecomposableWitness(tuple(a), tuple(b), tuple(omega), "rational", True)
    if not pairs_with(subspace, omega):
        raise InvalidInputError("witness escaped K-perp; inconsistent basis")
    return witness
