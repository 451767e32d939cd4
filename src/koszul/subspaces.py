"""Subspaces of the wedge square and their distinguished constructions.

A :class:`SubspaceK` is a subspace of ``Wedge^2 V`` given by coefficient
vectors on the pair basis ``e_i ^ e_j`` (colex order).  Instances are
always canonical: the stored basis is the reduced row echelon form over
the coefficient field, so ``effective_m`` equals the number of stored
rows and equality of subspaces is equality of bases.  An integer-scaled
copy of the basis is kept alongside so that every derived matrix has
integer entries.

The named constructions are the standard test-bed subspaces: the two
extremes, the borderline (2n-3)-dimensional subspace realized by the
raising-operator orbit inside ``Wedge^2 Sym^{n-1}(C^2)``, the symplectic
corank-one subspace attached to Heisenberg nilmanifold groups, subspaces
read off from cup-product structure constants, and seeded random draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bases import pair_rank, pair_unrank
from .errors import InvalidInputError, ResourceLimitError
from .linalg import (
    FieldSpec,
    PrimeField,
    Rational,
    field_from_json,
    integer_scaled,
    json_int,
    rref,
)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic generator so seeded draws never depend on
    interpreter version."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled (no modulo bias)."""
        span = hi - lo + 1
        threshold = (1 << 64) - ((1 << 64) % span)
        while True:
            x = self.next64()
            if x < threshold:
                return lo + x % span


@dataclass(frozen=True)
class SubspaceK:
    """Canonical subspace of Wedge^2 of an n-dimensional space."""

    n: int
    field: FieldSpec
    basis: tuple[tuple, ...]  # RREF rows over the field
    int_basis: tuple[tuple[int, ...], ...]  # integer-scaled rows, same span

    @property
    def effective_m(self) -> int:
        return len(self.basis)

    @property
    def pair_count(self) -> int:
        return comb(self.n, 2)

    def pivot_columns(self) -> list[int]:
        return [next(j for j, v in enumerate(row) if v != 0) for row in self.basis]

    def to_json(self) -> dict:
        vectors = []
        for row in self.int_basis:
            entries = []
            for idx, v in enumerate(row):
                if v:
                    i, j = pair_unrank(self.n, idx)
                    entries.append({"pair": [i, j], "num": int(v)})
            vectors.append(entries)
        return {"n": self.n, "field": self.field.to_json(), "basis": vectors}

    @staticmethod
    def from_json(data: dict) -> "SubspaceK":
        try:
            n = json_int(data["n"], "n")
            if n < 2:
                raise InvalidInputError(f"need n >= 2, got n={n}")
            fieldspec = field_from_json(data["field"])
            rows = []
            for entries in data["basis"]:
                row = [Fraction(0)] * comb(n, 2)
                for entry in entries:
                    pair = entry["pair"]
                    if not (isinstance(pair, list) and len(pair) == 2):
                        raise InvalidInputError(f"pair must be two integers, got {pair!r}")
                    i, j = (json_int(v, "pair index") for v in pair)
                    if not 0 <= i < j < n:
                        raise InvalidInputError(f"pair [{i}, {j}] invalid for n={n}")
                    num = json_int(entry["num"], "num")
                    den = json_int(entry.get("den", 1), "den")
                    if den == 0:
                        raise InvalidInputError("zero denominator")
                    row[pair_rank(i, j)] += Fraction(num, den)
                rows.append(row)
        except (KeyError, TypeError, AttributeError) as exc:
            raise InvalidInputError(f"malformed subspace JSON: {exc!r}") from exc
        return subspace_from_rows(n, rows, fieldspec)


def subspace_from_rows(n: int, rows, fieldspec: FieldSpec = Rational()) -> SubspaceK:
    """Canonicalize raw coefficient rows into a SubspaceK."""
    if n < 2:
        raise InvalidInputError(f"need n >= 2, got n={n}")
    width = comb(n, 2)
    for row in rows:
        if len(row) != width:
            raise InvalidInputError(f"basis row of length {len(row)}, expected {width}")
    echelon, _ = rref(list(rows), fieldspec)
    if isinstance(fieldspec, PrimeField):
        basis = tuple(tuple(int(v) for v in row) for row in echelon)
        int_basis = basis
    else:
        basis = tuple(tuple(Fraction(v) for v in row) for row in echelon)
        int_basis = tuple(tuple(integer_scaled(row)) for row in echelon)
    return SubspaceK(n, fieldspec, basis, int_basis)


def canonicalize(subspace: SubspaceK) -> SubspaceK:
    """Idempotent re-canonicalization."""
    return subspace_from_rows(subspace.n, [list(r) for r in subspace.basis], subspace.field)


def zero_K(n: int, fieldspec: FieldSpec = Rational()) -> SubspaceK:
    return subspace_from_rows(n, [], fieldspec)


def full_K(n: int, fieldspec: FieldSpec = Rational()) -> SubspaceK:
    width = comb(n, 2)
    rows = []
    for r in range(width):
        row = [0] * width
        row[r] = 1
        rows.append(row)
    return subspace_from_rows(n, rows, fieldspec)


def _raise_derivation(vec: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Apply the raising operator E(m_i) = i m_{i-1} as a derivation on pairs."""
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in vec.items():
        if i >= 1:
            key = (i - 1, j)
            out[key] = out.get(key, 0) + i * c
        if j - 1 > i:
            key = (i, j - 1)
            out[key] = out.get(key, 0) + j * c
    return {k: v for k, v in out.items() if v}


def weyman_K(n: int) -> SubspaceK:
    """Borderline subspace of dimension 2n-3 carved from Wedge^2 Sym^{n-1}(C^2).

    With weight basis m_0..m_{n-1} the top isotypic component of the wedge
    square is the orbit of the extreme vector m_{n-2} ^ m_{n-1} under the
    raising operator; its 2n-3 iterates span the subspace.  Whether the
    construction really kills resonance is asserted by rank certificates
    in the test suite, never assumed.
    """
    if n < 3:
        raise InvalidInputError(f"need n >= 3, got n={n}")
    d = n - 1
    vec: dict[tuple[int, int], int] = {(d - 1, d): 1}
    rows = []
    width = comb(n, 2)
    for _ in range(2 * d - 1):
        row = [0] * width
        for (i, j), c in vec.items():
            row[pair_rank(i, j)] = c
        rows.append(row)
        vec = _raise_derivation(vec)
    return subspace_from_rows(n, rows, Rational())


def weyman_orbit_vectors(n: int) -> list[dict[tuple[int, int], int]]:
    """Raw raising-operator orbit (pre-canonicalization), for weight checks."""
    d = n - 1
    vec: dict[tuple[int, int], int] = {(d - 1, d): 1}
    out = []
    for _ in range(2 * d - 1):
        out.append(dict(vec))
        vec = _raise_derivation(vec)
    return out


def heisenberg_pairs(k: int) -> list[tuple[int, int]]:
    """Symplectic coordinate pairs (a_t, b_t) = (2t, 2t+1)."""
    return [(2 * t, 2 * t + 1) for t in range(k)]


def heisenberg_symplectic_form(k: int) -> list[int]:
    """Coefficient vector of sum_t a_t ^ b_t on the pair basis of C^{2k}."""
    omega = [0] * comb(2 * k, 2)
    for i, j in heisenberg_pairs(k):
        omega[pair_rank(i, j)] = 1
    return omega


def heisenberg_K(k: int) -> SubspaceK:
    """Corank-one subspace whose annihilator is the symplectic 2-form.

    This is the cup-product subspace of the fundamental group of the
    (2k+1)-dimensional Heisenberg nilmanifold.  k = 1 gives n = 2, below
    the scope of the vanishing theory, and is rejected.
    """
    if k < 2:
        raise InvalidInputError(
            f"need k >= 2 (k=1 gives n=2, outside the n >= 3 theory), got k={k}"
        )
    n = 2 * k
    width = comb(n, 2)
    sympl = {pair_rank(i, j) for i, j in heisenberg_pairs(k)}
    rows = []
    for idx in range(width):
        if idx not in sympl:
            row = [0] * width
            row[idx] = 1
            rows.append(row)
    ordered = [pair_rank(i, j) for i, j in heisenberg_pairs(k)]
    for t in range(k - 1):
        row = [0] * width
        row[ordered[t]] = 1
        row[ordered[t + 1]] = -1
        rows.append(row)
    return subspace_from_rows(n, rows, Rational())


@dataclass(frozen=True)
class CupProductData:
    """Structure constants of a cup product Wedge^2 H^1 -> H^2.

    ``constants[(i, j)]`` is the length-h2 coefficient vector of the cup
    product of the i-th and j-th basis covectors (0 <= i < j < n); absent
    pairs cup to zero.
    """

    n: int
    h2: int
    constants: tuple[tuple[tuple[int, int], tuple], ...]

    @staticmethod
    def build(n: int, h2: int, constants: dict) -> "CupProductData":
        items = []
        for (i, j), values in sorted(constants.items()):
            if not 0 <= i < j < n:
                raise InvalidInputError(f"pair ({i}, {j}) invalid for n={n}")
            vals = tuple(Fraction(v) for v in values)
            if len(vals) != h2:
                raise InvalidInputError(
                    f"pair ({i}, {j}) has {len(vals)} values, expected h2={h2}"
                )
            items.append(((i, j), vals))
        return CupProductData(n, h2, tuple(items))

    def to_json(self) -> dict:
        out = []
        for (i, j), vals in self.constants:
            out.append(
                {
                    "pair": [i, j],
                    "values": [
                        int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
                        for v in vals
                    ],
                }
            )
        return {"n": self.n, "h2": self.h2, "constants": out}

    @staticmethod
    def from_json(data: dict) -> "CupProductData":
        try:
            n, h2 = int(data["n"]), int(data["h2"])
            raw = data["constants"]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed cup-product JSON: {exc}") from exc
        constants = {}
        for item in raw:
            i, j = item["pair"]
            constants[(i, j)] = [Fraction(v) for v in item["values"]]
        return CupProductData.build(n, h2, constants)


def from_cup_data(data: CupProductData) -> SubspaceK:
    """Dual image of the cup product inside Wedge^2 H_1.

    Each H^2 coordinate s contributes the row (c_ij^s)_(i<j); the span of
    those rows is the subspace, and its annihilator is the kernel of the
    cup product.
    """
    width = comb(data.n, 2)
    table = {pair: vals for pair, vals in data.constants}
    rows = []
    for s in range(data.h2):
        row = [Fraction(0)] * width
        for (i, j), vals in table.items():
            row[pair_rank(i, j)] = vals[s]
        rows.append(row)
    return subspace_from_rows(data.n, rows, Rational())


def heisenberg_cup_data(k: int) -> CupProductData:
    """Cup-product constants of the Heisenberg group H_k.

    The cup product is the projection of Wedge^2 H^1 onto its quotient by
    the symplectic form, written in the basis of all pair classes except
    the first symplectic one.
    """
    if k < 2:
        raise InvalidInputError(f"need k >= 2, got k={k}")
    n = 2 * k
    width = comb(n, 2)
    sympl_ranks = [pair_rank(i, j) for i, j in heisenberg_pairs(k)]
    kept = [idx for idx in range(width) if idx != sympl_ranks[0]]
    position = {idx: s for s, idx in enumerate(kept)}
    constants = {}
    for idx in range(width):
        i, j = pair_unrank(n, idx)
        values = [0] * (width - 1)
        if idx == sympl_ranks[0]:
            # the first symplectic class equals minus the sum of the others
            for other in sympl_ranks[1:]:
                values[position[other]] = -1
        else:
            values[position[idx]] = 1
        constants[(i, j)] = values
    return CupProductData.build(n, width - 1, constants)


def random_K(n: int, m: int, seed: int, fieldspec: FieldSpec = Rational()) -> SubspaceK:
    """Seeded random subspace of exact dimension m.

    Rational draws use integer coefficients in [-9, 9] (keeps the exact
    oracle's integer growth tame); prime-field draws are uniform.  The
    draw is repeated until the vectors are independent; exhausting 100
    attempts is reported as a resource failure.
    """
    width = comb(n, 2)
    if not 0 <= m <= width:
        raise InvalidInputError(f"need 0 <= m <= C(n,2) = {width}, got m={m}")
    rng = SplitMix64(seed)
    for _ in range(100):
        if isinstance(fieldspec, PrimeField):
            rows = [[rng.randint(0, fieldspec.p - 1) for _ in range(width)] for _ in range(m)]
        else:
            rows = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(m)]
        candidate = subspace_from_rows(n, rows, fieldspec)
        if candidate.effective_m == m:
            return candidate
    raise ResourceLimitError(f"could not draw an independent {m}-dimensional subspace in 100 tries")
