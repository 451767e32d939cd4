"""Subspaces of the wedge square and their distinguished constructions.

A :class:`SubspaceK` is a subspace of ``Wedge^2 V`` given by coefficient
vectors on the pair basis ``e_i ^ e_j`` (colex order).  Instances are
always canonical: the one stored basis, ``int_basis``, is the reduced row
echelon form over the coefficient field (over Q each row scaled to integers
with content 1 and a positive pivot), so ``effective_m`` equals the number of
stored rows and equality of subspaces is equality of bases.  It comes from
:func:`koszul.linalg.echelon`, the one exact integer elimination, which the
rational oracle runs too, here with its back pass: fraction-free Gauss-Jordan
elimination, in which pivot[c]*row - row[c]*pivot clears column c above and
below the pivot, then the row is divided by its content (over F_p reduced,
each pivot scaled to 1).  Each row stays, up to its content, the one vector in
the span of its input row and the pivot rows so far that vanishes at the
pivot columns cleared in it, so its entries are bounded by minors (Cramer's
rule); the oracle's forward pass, which clears below the pivot only, keeps
the same bound.  A K's m dense rows of C(n,2) cells go to
:func:`koszul.linalg.check_budget` before any row is built.

The named constructions are the standard test-bed subspaces: the two
extremes, the borderline (2n-3)-dimensional subspace realized by the
raising-operator orbit inside ``Wedge^2 Sym^{n-1}(C^2)``, the symplectic
corank-one subspace attached to Heisenberg nilmanifold groups, subspaces
read off from cup-product structure constants, and seeded random draws.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .bases import pair_rank, pair_unrank
from .errors import InvalidInputError, ResourceLimitError
from .linalg import FieldSpec, PrimeField, Rational, check_budget, echelon, field_from_json, json_int, primitive

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
    int_basis: tuple[tuple[int, ...], ...]  # canonical integer rows (see the module docstring)

    @property
    def effective_m(self) -> int:
        return len(self.int_basis)

    @property
    def pair_count(self) -> int:
        return comb(self.n, 2)

    def pivot_columns(self) -> list[int]:
        return [next(j for j, v in enumerate(row) if v != 0) for row in self.int_basis]

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
            fieldspec = field_from_json(data["field"])
            _check_size(n, len(data["basis"]))
            rows = []
            for entries in data["basis"]:
                row = [0] * comb(n, 2)
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
                    if isinstance(fieldspec, PrimeField) and den % fieldspec.p == 0:
                        raise InvalidInputError(f"denominator {den} is not invertible mod {fieldspec.p}")
                    row[pair_rank(i, j)] += num if den == 1 else Fraction(num, den)
                rows.append(row)
        except (KeyError, TypeError, AttributeError) as exc:
            raise InvalidInputError(f"malformed subspace JSON: {exc!r}") from exc
        return subspace_from_rows(n, rows, fieldspec)


def _check_size(n: int, m: int) -> None:
    """InvalidInputError unless n >= 2; then K's m dense rows of C(n,2) cells go to
    check_budget."""
    if n < 2:
        raise InvalidInputError(f"need n >= 2, got n={n}")
    check_budget(m * comb(n, 2), f"a K of {m} dense rows of C({n},2) cells")


def subspace_from_rows(n: int, rows, fieldspec: FieldSpec = Rational()) -> SubspaceK:
    """Canonicalize raw coefficient rows (integers or Fractions) into a SubspaceK."""
    _check_size(n, len(rows))
    width = comb(n, 2)
    for row in rows:
        if len(row) != width:
            raise InvalidInputError(f"basis row of length {len(row)}, expected {width}")
    p = fieldspec.p if isinstance(fieldspec, PrimeField) else None
    return SubspaceK(n, fieldspec, echelon([_integral(row, p) for row in rows], p))


def _integral(row, p: int | None) -> list[int]:
    """The row as ints spanning the same line: over Q times the lcm of its
    denominators, over F_p each value num/den as num * den^-1 mod p."""
    if set(map(type, row)) == {int}:
        return row
    values = [Fraction(v) for v in row]
    if p is None:
        den = lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values]
    if any(v.denominator % p == 0 for v in values):
        raise InvalidInputError(f"a denominator is not invertible mod {p}")
    return [v.numerator * pow(v.denominator, -1, p) for v in values]


def kperp_basis(subspace: SubspaceK) -> list[list[int]]:
    """Basis of the annihilator K-perp of K under the dual-basis pairing on Wedge^2,
    read off K's canonical basis: free column c gives the vector with L at c and
    -row[c] * L / row[pivot] at each row's pivot column, L the lcm of the pivots of
    the rows with an entry at c (1 over F_p, where every pivot is 1).

    Integer vectors with content 1 and first nonzero entry positive over Q, entries
    in [0, p) over F_p; always C(n,2) - m of them, in the order of their free columns.
    """
    pivots = subspace.pivot_columns()
    modulus = subspace.field.p if isinstance(subspace.field, PrimeField) else None
    out = []
    for c in sorted(set(range(subspace.pair_count)) - set(pivots)):
        vec = [0] * subspace.pair_count
        vec[c] = lcm(*(row[pc] for row, pc in zip(subspace.int_basis, pivots) if row[c]))
        for row, pc in zip(subspace.int_basis, pivots):
            vec[pc] = -row[c] * vec[c] // row[pc]
        out.append([v % modulus for v in vec] if modulus else primitive(vec))
    return out


def canonicalize(subspace: SubspaceK) -> SubspaceK:
    """Idempotent re-canonicalization."""
    return subspace_from_rows(subspace.n, [list(r) for r in subspace.int_basis], subspace.field)


def zero_K(n: int, fieldspec: FieldSpec = Rational()) -> SubspaceK:
    return subspace_from_rows(n, [], fieldspec)


def full_K(n: int, fieldspec: FieldSpec = Rational()) -> SubspaceK:
    width = comb(max(n, 0), 2)
    _check_size(n, width)
    return subspace_from_rows(n, [[int(c == r) for c in range(width)] for r in range(width)], fieldspec)


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
    _check_size(n, 2 * n - 3)
    rows = []
    for vec in weyman_orbit_vectors(n):
        row = [0] * comb(n, 2)
        for (i, j), c in vec.items():
            row[pair_rank(i, j)] = c
        rows.append(row)
    return subspace_from_rows(n, rows, Rational())


def weyman_orbit_vectors(n: int) -> list[dict[tuple[int, int], int]]:
    """The 2n-3 iterates of m_{n-2} ^ m_{n-1} under the raising operator, as
    {(i, j): coefficient} (before canonicalization)."""
    d = n - 1
    vec: dict[tuple[int, int], int] = {(d - 1, d): 1}
    out = []
    for _ in range(2 * d - 1):
        out.append(vec)
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
    _check_size(n, width - 1)
    sympl = {pair_rank(i, j) for i, j in heisenberg_pairs(k)}
    rows = [[int(c == idx) for c in range(width)] for idx in range(width) if idx not in sympl]
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
            n, h2 = json_int(data["n"], "n"), json_int(data["h2"], "h2")
            constants = {}
            for item in data["constants"]:
                pair = item["pair"]
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise InvalidInputError(f"pair must be two integers, got {pair!r}")
                i, j = (json_int(v, "pair index") for v in pair)
                constants[(i, j)] = [_json_fraction(v) for v in item["values"]]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed cup-product JSON: {exc!r}") from exc
        return CupProductData.build(n, h2, constants)


def _json_fraction(value) -> Fraction:
    """A JSON integer or an "n/d" string with d > 0, as CupProductData.to_json writes them."""
    if isinstance(value, str):
        match = re.fullmatch(r"(-?[0-9]+)/([0-9]+)", value)
        if match is None or int(match[2]) == 0:
            raise InvalidInputError(f'value must be an integer or "n/d", got {value!r}')
        return Fraction(int(match[1]), int(match[2]))
    return Fraction(json_int(value, "value"))


def from_cup_data(data: CupProductData) -> SubspaceK:
    """Dual image of the cup product inside Wedge^2 H_1.

    Each H^2 coordinate s contributes the row (c_ij^s)_(i<j); the span of
    those rows is the subspace, and its annihilator is the kernel of the
    cup product.
    """
    _check_size(data.n, data.h2)
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
    width = comb(max(n, 0), 2)
    if not 0 <= m <= width:
        raise InvalidInputError(f"need 0 <= m <= C(n,2) = {width}, got m={m}")
    _check_size(n, m)
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
