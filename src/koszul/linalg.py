"""Exact sparse linear algebra with certification semantics.

Rank and nullspace are computed either over the rationals (fraction-free
elimination on a dense copy, the ground-truth oracle) or over a prime
field F_p with p an odd prime below 2^31.

Matrices are integral.  A :class:`SparseMatrix` stores each distinct value
once, in a palette of exact Python ints, and one int64 palette index per
entry: reduction mod p, the content hash and the Hadamard bound work on the
palette and gather by index, so no consumer depends on how large the values
are.  Exact values are gathered only for the kernel check and the dense
exact routines (the oracle, nullspace, multiply).

Certification: for an integer matrix, the rank mod p never exceeds the
rational rank (a nonzero minor mod p is nonzero over Z), so modular ranks
are certified lower bounds.  They become certified exact when they attain
a structural upper bound -- either min(nrows, ncols) or a bound supplied by
the caller.  Every elimination runs to completion, so a modular rank above
a bound proves the bound invalid.  Rational ranks are exact by
construction.  When the modular rank r falls short of the bound,
:func:`certified_rank`, the one escalation policy, proves the matching
upper bound instead: it lifts one kernel vector per free column of the
reduced echelon form mod p to Z (rational reconstruction, CRT over more
primes while the Hadamard bound allows) and checks each exactly against
the integer triplets.  The vectors are independent (the identity on the
free columns), so r <= rank over Q <= r.

The modular engine eliminates each connected component of the bipartite
nonzero pattern on a dense float64 block of balanced residues: blocks of
at most _BASE rows stacked by shape, larger ones panel by panel (recursive
Gauss-Jordan of the panel, then elimination from the rows below, and for
the reduced echelon form from the pivot rows above).  Components are
labelled by min-label hooking and pointer jumping in numpy.

Reduction x - rint(x/p)*p leaves |x| <= (p+3)/2 <= 2^30 + 1 (the rounded
quotient may be off by one).  Each update t <- t - C*E (mod p), C with
k <= _PANEL columns, is one GEMM [C | 2^16*C mod p] @ [E_lo ; E_hi] with
E = E_lo + 2^16*E_hi, |E_lo| <= 2^15, |E_hi| <= 2^14, so every partial
sum, and the rint(x/p)*p that reduces it, is an integer below

    (2^30 + 1) * (1 + 3 * k * 2^14) + 2^30  <  2^53     for k <= 170,

exact in float64 for every prime PrimeField accepts.  A component whose
block and workspace exceed _DENSE_BYTES raises ResourceLimitError first.

A matrix may carry a candidate symmetry ``mirror`` = (row map pi, column
map tau, column signs eps); :func:`koszul.hilbert.restricted_delta2` sets
one when the index reversal maps K onto itself.  The rank mod p trusts
nothing it is given: it checks exactly that pi and tau are involutions,
that eps is +-1 with eps[tau] = eps, and that the triplets mod p,
relabelled to (pi r, tau c, eps_c v), are the matrix's own triplets.  The
map is then an automorphism of the matrix mod p, so the two components of
a swapped pair have blocks equal up to permutation and signs, hence equal
rank: one of them is eliminated and counted twice.  A candidate that fails
the check is ignored and every component is eliminated.

A matrix may also carry ``spare``, a boolean mask of rows expected to be
combinations of the others; :func:`koszul.hilbert.restricted_delta2` marks
one Koszul-redundant row per monomial of degree q+2.  The rank mod p labels
the components and checks the mirror on the full pattern, then builds the
block of each selected component from its non-spare triplets only, and
checks _DENSE_BYTES on these projected blocks, the ones it allocates.  This
is sound whatever the mask says: writing S A for A without its spare rows,
a row submatrix's rank never exceeds the matrix's, and a swapped pair C, C'
counts 2 rank(S A_C) <= rank(A_C) + rank(A_C'), so every result is still
a certified lower bound.  When the spare rows really are redundant,
rank(S A) = rank(A) summed over the components, and since rank(S A_C) <=
rank(A_C) for each C, equality holds block by block.  Upper bounds do not
change: the structural bound does not depend on the mask, and the kernel
certificate never reads it; it always eliminates every full block and
checks its vectors against every exact triplet.

No rank function reads a cache.  :class:`RankCache` stores whole certificates
for its one caller, :func:`koszul.hilbert.w_dim`, which keys them by K.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt, lcm, log2
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidInputError, KoszulError, ResourceLimitError

DEFAULT_PRIMES: tuple[int, ...] = (2147483647, 2147483629, 2147483587)
DEFAULT_ORACLE_CAP = 2000  # max columns for dense rational elimination

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# mod-p engine tuning (see the module docstring for the exactness bound)
_PANEL = 128                # pivot rows per update; the bound allows up to 170
_BASE = 8                   # recursion leaves, eliminated one row at a time
_DENSE_BYTES = 400_000_000  # one component's float64 block plus its workspace


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 64-bit range."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Rational:
    """Field marker: exact arithmetic over Q."""

    def token(self) -> str:
        return "rational"

    def to_json(self):
        return "rational"


@dataclass(frozen=True)
class PrimeField:
    """Field marker: F_p for an odd prime p < 2^31."""

    p: int

    def __post_init__(self):
        if not 2 < self.p < 2**31:
            raise InvalidInputError(f"prime must satisfy 2 < p < 2^31, got {self.p}")
        if not is_prime(self.p):
            raise InvalidInputError(f"{self.p} is not prime")

    def token(self) -> str:
        return f"prime:{self.p}"

    def to_json(self):
        return {"prime": self.p}


FieldSpec = Union[Rational, PrimeField]


def json_int(value, what: str) -> int:
    """A JSON integer (not a bool, not a float), else InvalidInputError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InvalidInputError(f"{what} must be an integer, got {value!r}")


def field_from_json(data) -> FieldSpec:
    if data == "rational":
        return Rational()
    if isinstance(data, dict) and set(data) == {"prime"}:
        return PrimeField(json_int(data["prime"], "prime"))
    raise InvalidInputError(f"unrecognized field spec: {data!r}")


@dataclass(frozen=True)
class RankCertificate:
    """A rank value together with how it was obtained and what it proves.

    A "kernel-verified" rank is a modular rank whose upper bound is proved
    by ``verified_vectors`` kernel vectors checked exactly over Z; its
    primes are the reference prime followed by those the lift used.
    ``lift_failed`` marks a certificate reached after such a lift failed.
    """

    rank: int
    mode: str  # one of MODES
    primes: tuple[int, ...] = ()
    certified_lower_bound: bool = True
    certified_exact: bool = False
    structural_bound: int | None = None
    verified_vectors: int = 0
    lift_failed: bool = False

    MODES = ("rational-exact", "single-prime", "kernel-verified")

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise InvalidInputError(f"unknown certificate mode {self.mode!r}")
        if self.mode == "rational-exact" and not self.certified_exact:
            raise InvalidInputError("rational-exact certificates are always exact")
        if self.certified_exact and not self.certified_lower_bound:
            raise InvalidInputError("exact implies lower bound")
        if self.mode != "rational-exact" and not self.primes:
            raise InvalidInputError("modular certificate without primes")
        if self.verified_vectors and self.mode != "kernel-verified":
            raise InvalidInputError("verified kernel vectors belong to kernel-verified certificates")
        if self.mode == "kernel-verified" and not self.certified_exact:
            raise InvalidInputError("kernel-verified certificates are always exact")

    def to_json(self) -> dict:
        out = {
            "rank": self.rank,
            "mode": self.mode,
            "primes": list(self.primes),
            "certified_lower_bound": self.certified_lower_bound,
            "certified_exact": self.certified_exact,
            "structural_bound": self.structural_bound,
        }
        if self.mode == "kernel-verified":
            out["verified_vectors"] = self.verified_vectors
        if self.lift_failed:
            out["lift_failed"] = True
        return out

    @staticmethod
    def from_json(data: dict) -> "RankCertificate":
        return RankCertificate(
            rank=int(data["rank"]),
            mode=data["mode"],
            primes=tuple(int(p) for p in data.get("primes", [])),
            certified_lower_bound=bool(data["certified_lower_bound"]),
            certified_exact=bool(data["certified_exact"]),
            structural_bound=data.get("structural_bound"),
            verified_vectors=int(data.get("verified_vectors", 0)),
            lift_failed=bool(data.get("lift_failed", False)),
        )


def _palette(values: list) -> tuple[np.ndarray, tuple[int, ...]]:
    """Palette indices of some integers (an integral Fraction counts as one), and the
    palette: their sorted distinct values as Python ints."""
    for v in values:
        if not (isinstance(v, numbers.Integral) or (isinstance(v, Fraction) and v.denominator == 1)):
            raise InvalidInputError(f"non-integer entry {v!r}")
    ints = [int(v) for v in values]
    coeffs = tuple(sorted(set(ints)))
    pos = {c: i for i, c in enumerate(coeffs)}
    return np.fromiter((pos[v] for v in ints), dtype=np.int64, count=len(ints)), coeffs


def _validated(nrows: int, ncols: int, rows, cols, vals, coeffs: Sequence[int] | None = None):
    """(rows, cols, idx, coeffs) of the matrix given by parallel arrays, after checking
    that its entries are in range, distinct and nonzero integers."""
    rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals)
    if any(a.size and a.dtype.kind not in "iu" for a in (rows, cols)):
        raise InvalidInputError("row and column indices must be int64 integers")
    rows, cols = rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)
    if not rows.shape == cols.shape == vals.shape:
        raise InvalidInputError("rows, columns and values differ in length")
    if rows.size and (rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols):
        raise InvalidInputError("entry out of range")
    order = np.lexsort((rows, cols))
    if np.any((np.diff(rows[order]) == 0) & (np.diff(cols[order]) == 0)):
        raise InvalidInputError("duplicate (row, col) entry")
    if coeffs is not None:
        if vals.dtype.kind not in "iu" or (vals.size and (vals.min() < 0 or vals.max() >= len(coeffs))):
            raise InvalidInputError("palette index out of range")
        idx, canon = vals.astype(np.int64, copy=False), _palette(list(coeffs))[1]
        if canon != tuple(coeffs) or not np.bincount(idx, minlength=len(canon)).all():
            raise InvalidInputError("the palette must be sorted, distinct and fully used")
        coeffs = canon
    elif vals.dtype.kind in "biu":
        uniq, idx = np.unique(vals, return_inverse=True)
        coeffs = tuple(uniq.tolist())
    else:
        idx, coeffs = _palette(vals.tolist())
    if 0 in coeffs:
        raise InvalidInputError("explicit zero entry")
    return rows, cols, idx.astype(np.int64, copy=False), coeffs


class SparseMatrix:
    """Immutable sparse integer matrix in triplet form, its values in a palette.

    Entry k sits at (rows[k], cols[k]) and has the value coeffs[idx[k]]:
    ``coeffs`` is the sorted tuple of the distinct nonzero values as exact
    Python ints, ``idx`` an int64 array of indices into it.  Every value
    must be an integer (an integral Fraction counts as one).  Instances
    should not be mutated after creation, except to attach the untrusted
    hints ``mirror``, a candidate symmetry, and ``spare``, a boolean mask of
    candidate redundant rows (see the module docstring).  :meth:`transpose`
    drops both.
    """

    __slots__ = ("nrows", "ncols", "rows", "cols", "idx", "coeffs", "mirror", "spare")

    def __init__(self, nrows: int, ncols: int, triplets: Iterable[tuple] = (), *, _raw=None):
        if nrows < 0 or ncols < 0:
            raise InvalidInputError("negative matrix extent")
        self.nrows = nrows
        self.ncols = ncols
        # a candidate symmetry (row map, column map, column signs), trusted by
        # nobody: the modular engine checks it before use (_orbit_weights)
        self.mirror = None
        # candidate redundant rows, left out of the modular blocks (_rank_mod_p)
        self.spare = None
        if _raw is None:
            triplets = list(triplets)
            _raw = _validated(nrows, ncols, [t[0] for t in triplets], [t[1] for t in triplets],
                              np.fromiter((t[2] for t in triplets), dtype=object, count=len(triplets)))
        self.rows, self.cols, self.idx, self.coeffs = _raw

    @staticmethod
    def from_arrays(nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                    coeffs: Sequence[int] | None = None) -> "SparseMatrix":
        """Fast construction from parallel arrays (still validated): ``vals`` holds the
        values (an integer dtype, or integers in an object array), or with a palette
        ``coeffs`` (sorted, distinct, every value used) the indices into it."""
        return SparseMatrix(nrows, ncols, _raw=_validated(nrows, ncols, rows, cols, vals, coeffs))

    @property
    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    @property
    def nnz(self) -> int:
        return len(self.rows)

    @property
    def vals(self) -> np.ndarray:
        """Each entry's exact value: int64 while every value is below 2^62 in size,
        else Python ints in an object array."""
        small = not self.coeffs or max(-self.coeffs[0], self.coeffs[-1]) < 2**62
        return np.array(self.coeffs, dtype=np.int64 if small else object)[self.idx]

    def value_list(self) -> list[int]:
        return self.vals.tolist()

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.ncols, self.nrows, _raw=(self.cols.copy(), self.rows.copy(), self.idx.copy(), self.coeffs))

    def to_dense_rows(self) -> list[list[int]]:
        dense = [[0] * self.ncols for _ in range(self.nrows)]
        for r, c, v in zip(self.rows.tolist(), self.cols.tolist(), self.value_list()):
            dense[r][c] = v
        return dense

    def multiply(self, other: "SparseMatrix") -> "SparseMatrix":
        """Exact matrix product (intended for modest sizes)."""
        if self.ncols != other.nrows:
            raise InvalidInputError("shape mismatch in multiply")
        by_row: dict[int, list[tuple[int, int]]] = {}
        for r, c, v in zip(other.rows.tolist(), other.cols.tolist(), other.value_list()):
            by_row.setdefault(r, []).append((c, v))
        acc: dict[tuple[int, int], int] = {}
        for r, c, v in zip(self.rows.tolist(), self.cols.tolist(), self.value_list()):
            for c2, v2 in by_row.get(c, ()):
                key = (r, c2)
                acc[key] = acc.get(key, 0) + v * v2
        triplets = [(r, c, v) for (r, c), v in sorted(acc.items()) if v != 0]
        return SparseMatrix(self.nrows, other.ncols, triplets)

    def canonical_key(self, fieldspec: FieldSpec | None = None) -> str:
        """Content hash of the shape, the field token, the palette as text and the
        rows, columns and palette indices sorted by (column, row), as little-endian
        int64 bytes."""
        order = np.lexsort((self.rows, self.cols))
        token = "" if fieldspec is None else fieldspec.token()
        palette = ",".join(map(str, self.coeffs))
        digest = hashlib.sha256(f"{self.nrows}x{self.ncols};{token};{palette};".encode())
        for part in (self.rows, self.cols, self.idx):
            digest.update(part[order].astype("<i8").tobytes())
        return digest.hexdigest()

    def residues(self, p: int) -> np.ndarray:
        """Each entry's value reduced into [0, p), zeros kept."""
        return np.array([c % p for c in self.coeffs], dtype=np.int64)[self.idx]

    def reduced_mod(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries reduced into [0, p), zeros dropped."""
        vals = self.residues(p)
        keep = vals != 0
        return self.rows[keep], self.cols[keep], vals[keep]


# ---------------------------------------------------------------------------
# dense kernels


def bareiss_rank(dense: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination rank of an integer matrix."""
    a = [row[:] for row in dense]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv_row is None:
            continue
        if piv_row != r:
            a[r], a[piv_row] = a[piv_row], a[r]
        piv = a[r][c]
        for i in range(r + 1, nrows):
            aic = a[i][c]
            rowi = a[i]
            rowr = a[r]
            if aic == 0:
                for j in range(c + 1, ncols):
                    rowi[j] = rowi[j] * piv // prev
            else:
                for j in range(c + 1, ncols):
                    rowi[j] = (rowi[j] * piv - aic * rowr[j]) // prev
                rowi[c] = 0
        prev = piv
        r += 1
    return r


def rref(dense: Sequence[Sequence], fieldspec: FieldSpec) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over Q (Fractions) or F_p.

    Returns (nonzero rows, pivot columns).  Dense input; meant for the
    modest sizes that arise from subspace bases and dual pairings.
    """
    if isinstance(fieldspec, PrimeField):
        p = fieldspec.p
        a = [[int(v) % p for v in row] for row in dense]
    else:
        a = [[Fraction(v) for v in row] for row in dense]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv_row is None:
            continue
        a[r], a[piv_row] = a[piv_row], a[r]
        if isinstance(fieldspec, PrimeField):
            inv = pow(a[r][c], fieldspec.p - 2, fieldspec.p)
            a[r] = [v * inv % fieldspec.p for v in a[r]]
        else:
            inv = 1 / a[r][c]
            a[r] = [v * inv for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                if isinstance(fieldspec, PrimeField):
                    a[i] = [(v - f * w) % fieldspec.p for v, w in zip(a[i], a[r])]
                else:
                    a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def integer_scaled(vector: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to integers with content 1, leading entry > 0."""
    denoms = lcm(*(Fraction(v).denominator for v in vector)) if len(vector) else 1
    ints = [int(Fraction(v) * denoms) for v in vector]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return ints


# ---------------------------------------------------------------------------
# modular engine


def _components(rows: np.ndarray, cols: np.ndarray, nrows: int) -> np.ndarray:
    """Label of each triplet's connected component of the nonzero pattern, components
    numbered by their smallest node (row r is node r, column c node nrows + c).

    Min-label hooking and pointer jumping (Shiloach and Vishkin, 1982): every root
    hooks onto the smallest root across its edges, then every node jumps to its
    root, until no edge joins two roots.  Parents only decrease, so each root is
    the smallest node of its tree."""
    u, v = rows, cols + nrows
    parent = np.arange(nrows + (int(cols.max()) + 1 if cols.size else 0))
    while True:
        pu, pv = parent[u], parent[v]
        if np.array_equal(pu, pv):
            return np.unique(pu, return_inverse=True)[1]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def _local_index(ids: np.ndarray, comp: np.ndarray, ncomp: int) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's row (or column) position within its component, and the count per
    component (ncomp of them)."""
    uniq, inverse = np.unique(ids, return_inverse=True)
    owner = np.empty(uniq.size, dtype=np.int64)
    owner[inverse] = comp
    order = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=ncomp)
    local = np.empty(uniq.size, dtype=np.int64)
    local[order] = np.arange(uniq.size) - (np.cumsum(counts) - counts)[owner[order]]
    return local[inverse], counts


def _reduce(x: np.ndarray, p: int, tmp: np.ndarray) -> None:
    """x <- x - rint(x/p)*p in place, for integers |x| < 2^53; tmp is scratch shaped like x."""
    np.multiply(x, 1.0 / p, out=tmp)
    np.rint(tmp, out=tmp)
    tmp *= p
    x -= tmp


def _split(e: np.ndarray) -> np.ndarray:
    """[E_lo ; E_hi] stacked along the rows, E = E_lo + 2^16*E_hi."""
    hi = np.rint(e * 2.0**-16)
    return np.concatenate((e - hi * 2.0**16, hi), axis=-2)


def _update(t: np.ndarray, c: np.ndarray, es: np.ndarray, p: int) -> None:
    """t <- t - c @ e (mod p) in place with one GEMM; es = _split(e), c has at most _PANEL columns."""
    if not c.any():
        return  # t is already reduced
    c2 = c * 2.0**16
    _reduce(c2, p, np.empty_like(c2))
    prod = np.concatenate((c, c2), axis=-1) @ es
    t -= prod
    _reduce(t, p, prod)


def _jordan_base(t: np.ndarray, p: int) -> np.ndarray:
    """Gauss-Jordan, in place, of each block of the stack t (nb x h x n, h <= _BASE);
    returns each row's pivot column, -1 for a zero row.  The h rank-one updates
    each add under 3*2^45 to an entry, so reduction waits until the end."""
    nb, h, _ = t.shape
    blocks = np.arange(nb)
    piv = np.empty((nb, h), dtype=np.int64)
    for i in range(h):
        row = t[:, i]
        _reduce(row, p, np.empty_like(row))
        c = (row != 0).argmax(axis=1)
        lead = row[blocks, c]
        coef = []
        for col, x in zip(t[blocks, :, c].tolist(), lead.tolist()):
            inv = pow(int(x), -1, p) if x else 0
            f = [int(y) * inv % p for y in col]
            f[i] = (1 - inv) % p  # row i itself becomes inv*row
            coef.extend((y, (y << 16) % p) for y in f)
        t -= np.array(coef, dtype=np.float64).reshape(nb, h, 2) @ _split(t[:, i:i + 1])
        piv[:, i] = np.where(lead != 0, c, -1)
    _reduce(t, p, np.empty_like(t))
    return piv


def _jordan(t: np.ndarray, p: int) -> tuple[int, list[int]]:
    """Recursive Gauss-Jordan of t in place, each half reduced against the other's echelon
    rows: returns (r, pivot columns), t[:r] in reduced echelon form, later rows undefined."""
    if t.shape[0] <= _BASE:
        piv = _jordan_base(t[None], p)[0]
        keep = np.flatnonzero(piv >= 0)
        t[:keep.size] = t[keep]
        return keep.size, piv[keep].tolist()
    top, bot = np.split(t, [t.shape[0] // 2])
    ra, ca = _jordan(top, p)
    _update(bot, bot[:, ca], _split(top[:ra]), p)
    rb, cb = _jordan(bot, p)
    _update(top[:ra], top[:ra, cb], _split(bot[:rb]), p)
    t[ra:ra + rb] = bot[:rb]
    return ra + rb, ca + cb


def _eliminate(rows: np.ndarray, cols: list[int], es: np.ndarray, p: int) -> None:
    """Clear the pivot columns cols from rows, 2*_PANEL rows per update; es = _split(pivot rows)."""
    for j in range(0, rows.shape[0], 2 * _PANEL):
        t = rows[j:j + 2 * _PANEL]
        _update(t, t[:, cols], es, p)


def _block_rank(block: np.ndarray, p: int, reduced: bool = False) -> tuple[int, list[int]]:
    """Rank and pivot columns of one component's block, every panel eliminated: each
    panel is put in reduced echelon form, then eliminated from the rows below.  With
    ``reduced`` the pivot rows are gathered in block[:rank] and each panel is eliminated
    from the pivot rows above too, which leaves block[:rank] in reduced echelon form."""
    rank, pivots = 0, []
    for i0 in range(0, block.shape[0], _PANEL):
        r, cols = _jordan(block[i0:i0 + _PANEL], p)
        top = i0  # where the panel's pivot rows sit
        if reduced:  # gather them, then clear their columns above
            top = rank
            block[top:top + r] = block[i0:i0 + r]
            _eliminate(block[:top], cols, _split(block[top:top + r]), p)
        rank += r
        pivots += cols
        # named so that it lives through the next panel: freed at once, it made the
        # later _split calls 40 % slower on one large component (the allocator)
        es = _split(block[top:top + r])
        _eliminate(block[i0 + _PANEL:], cols, es, p)
    return rank, pivots


@dataclass(frozen=True)
class _Layout:
    """Where each triplet sits in the dense block of its connected component.

    A block's rows run along its component's shorter side, so the block of
    a component with more rows than columns is its transpose.
    """

    comp: np.ndarray  # component of each triplet
    li: np.ndarray  # block row of each triplet
    lj: np.ndarray  # block column of each triplet
    h: np.ndarray  # block rows per component
    w: np.ndarray  # block columns per component


def _layout(rows: np.ndarray, cols: np.ndarray, comp: np.ndarray, select: np.ndarray | None = None) -> _Layout:
    """Blocks of the components labelled ``comp`` (see _components) built from the
    triplets at (rows, cols); raises ResourceLimitError before any allocation when one
    block that ``select`` keeps (a mask over the labels; all by default) and its
    workspace would exceed _DENSE_BYTES."""
    if select is None:
        select = np.ones(int(comp.max()) + 1, dtype=bool)
    lr, nr = _local_index(rows, comp, select.size)
    lc, nc = _local_index(cols, comp, select.size)
    h, w = np.minimum(nr, nc), np.maximum(nr, nc)
    need = 8 * w * (h + 6 * _PANEL * (h > _BASE)) * select  # block, and for big ones panel split and update scratch
    if need.max() > _DENSE_BYTES:
        k = int(need.argmax())
        raise ResourceLimitError(f"component of shape {nr[k]}x{nc[k]} needs {need[k]} bytes "
                                 f"for dense elimination, over the budget of {_DENSE_BYTES}")
    flip = (nr > nc)[comp]
    return _Layout(comp, np.where(flip, lc, lr), np.where(flip, lr, lc), h, w)


def _stacks(lay: _Layout, values: np.ndarray, select: np.ndarray | None = None):
    """Yield (components, stack) for the selected components (all by default): small
    blocks stacked by shape, each block of more than _BASE rows alone.  Every stack
    lives in one reused buffer, so it is valid only until the next one is yielded."""
    comp, li, lj, h, w = lay.comp, lay.li, lay.lj, lay.h, lay.w
    present = np.arange(h.size)
    if select is not None:
        keep = select[comp]
        comp, li, lj, values = comp[keep], li[keep], lj[keep], values[keep]
        present = np.flatnonzero(select)
    if not comp.size:
        return
    ckey = np.where(h > _BASE, np.arange(h.size) - h.size, h * (int(w.max()) + 1) + w)
    _, first, count = np.unique(ckey[present], return_index=True, return_counts=True)
    first = present[first]
    buf = np.empty(int((count * h[first] * w[first]).max()))  # reused: no heap churn
    order = np.argsort(ckey[comp], kind="stable")
    for sel in np.split(order, np.flatnonzero(np.diff(ckey[comp[order]])) + 1):
        batch, slot = np.unique(comp[sel], return_inverse=True)
        shape = (batch.size, h[batch[0]], w[batch[0]])
        stack = buf[:np.prod(shape)].reshape(shape)
        stack.fill(0)
        stack[slot, li[sel], lj[sel]] = values[sel]
        yield batch, stack


def _balanced(vals: np.ndarray, p: int) -> np.ndarray:
    """Residues in [0, p) as float64 balanced residues."""
    return (vals - p * (vals > p // 2)).astype(np.float64)


def _orbit_weights(matrix: SparseMatrix, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   p: int, comp: np.ndarray) -> np.ndarray | None:
    """How often each component's rank counts under the matrix's candidate ``mirror``:
    1 for a component it fixes, 2 for the first and 0 for the second of two it swaps.

    Used only after an exact check that the candidate (row map pi, column map tau,
    column signs eps) is an involution and that the triplets mod p, relabelled
    (pi r, tau c, eps_c v), are the same triplets; then the map is an automorphism
    of the matrix mod p, and blocks it swaps have equal rank.  None when there is
    no candidate or the check fails."""
    if matrix.mirror is None:
        return None
    pi, tau, eps = (np.asarray(a) for a in matrix.mirror)
    nrows, ncols = matrix.shape
    if not (pi.shape == (nrows,) and tau.shape == eps.shape == (ncols,)
            and all(a.dtype.kind == "i" for a in (pi, tau, eps))
            and ((pi >= 0) & (pi < nrows)).all() and ((tau >= 0) & (tau < ncols)).all()
            and np.array_equal(pi[pi], np.arange(nrows)) and np.array_equal(tau[tau], np.arange(ncols))
            and (np.abs(eps) == 1).all() and np.array_equal(eps[tau], eps)):
        return None
    key, image = rows * ncols + cols, pi[rows] * ncols + tau[cols]
    order = np.argsort(key)
    match = order[np.minimum(np.searchsorted(key, image, sorter=order), key.size - 1)]
    # the relabelling is injective, so meeting every key once makes it a bijection
    if not (np.array_equal(key[match], image) and np.array_equal(vals[match], np.where(eps[cols] < 0, p - vals, vals))):
        return None
    ids = np.arange(int(comp.max()) + 1)
    swap = np.empty(ids.size, dtype=np.int64)
    swap[comp] = comp[match]
    return np.where(swap == ids, 1, np.where(ids < swap, 2, 0))


def _rank_mod_p(matrix: SparseMatrix, p: int) -> int:
    """A lower bound on the rank mod p that reaches it when the candidate ``spare`` rows
    are redundant: the mirror is checked on the full pattern, then every block it
    selects is eliminated to completion without the spare rows."""
    rows, cols, vals = matrix.reduced_mod(p)
    if rows.size == 0:
        return 0
    comp = _components(rows, cols, matrix.nrows)
    weight = _orbit_weights(matrix, rows, cols, vals, p, comp)
    if weight is None:
        weight = np.ones(int(comp.max()) + 1, dtype=np.int64)
    select = weight > 0
    spare = np.asarray(matrix.spare)
    if spare.dtype == bool and spare.shape == (matrix.nrows,):
        keep = ~spare[rows]
        rows, cols, vals, comp = rows[keep], cols[keep], vals[keep], comp[keep]
    lay = _layout(rows, cols, comp, select)
    total = 0
    for batch, stack in _stacks(lay, _balanced(vals, p), select):
        if stack.shape[1] > _BASE:
            total += int(weight[batch[0]]) * _block_rank(stack[0], p)[0]
        else:
            total += int(weight[batch] @ np.count_nonzero(_jordan_base(stack, p) >= 0, axis=1))
    return total


# ---------------------------------------------------------------------------
# kernel certificate


def _lift_primes(given: Sequence[int]):
    """The given primes, then the remaining primes below 2^31 in descending order."""
    seen = []
    for p in given:
        if p not in seen:
            seen.append(p)
            yield p
    for p in range(2**31 - 1, 2, -2):
        if p not in seen and is_prime(p):
            yield p


def _echelons(lay: _Layout, residues: np.ndarray, p: int, select: np.ndarray | None = None) -> dict:
    """Per selected component: the pivot columns of its block's reduced echelon form mod p
    and, when they are fewer than the block's rows, its pivot rows as residues in [0, p);
    ``residues`` holds each triplet's value in [0, p)."""
    out = {}
    for batch, stack in _stacks(lay, _balanced(residues, p), select):
        if stack.shape[1] > _BASE:
            r, piv = _block_rank(stack[0], p, reduced=True)
            found = [(batch[0], piv, stack[0, :r])]
        else:
            piv = _jordan_base(stack, p)
            found = [(c, piv[b][piv[b] >= 0].tolist(), stack[b][piv[b] >= 0]) for b, c in enumerate(batch)]
        for c, cols, rows in found:
            deficient = len(cols) < stack.shape[1]
            out[int(c)] = (tuple(cols), rows.astype(np.int64) % p if deficient else None)
    return out


def _ratrecon(u: int, m: int, bound: int) -> int | None:
    """Denominator d <= bound of a fraction n/d = u (mod m) with |n| <= bound, or None;
    unique when 2*bound^2 < m (the extended Euclidean algorithm stopped at bound)."""
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return abs(s1) if 0 < abs(s1) <= bound else None


def _lift(residues: np.ndarray, modulus: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Integer vectors from rational ones known mod ``modulus``, one per column of
    ``residues``: a common denominator ``den`` per column and the numerators
    residues*den (mod modulus), all at most sqrt(modulus/2) in size, or None when
    rational reconstruction finds no such fractions."""
    bound = isqrt((modulus - 1) // 2)
    half = modulus // 2
    den = [1] * residues.shape[1]
    for i, k in zip(*np.nonzero(np.abs(np.where(residues > half, residues - modulus, residues)) > bound)):
        x = int(residues[i, k]) * den[k] % modulus
        if min(x, modulus - x) <= bound:
            continue
        d = _ratrecon(x, modulus, bound)
        if d is None or den[k] * d > bound:
            return None
        den[k] *= d
    den = np.array(den, dtype=object)
    num = residues.astype(object) * den % modulus
    num = np.where(num > half, num - modulus, num)
    if num.size and np.abs(num).max() > bound:
        return None
    return den, num


def _annihilates(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, nrows: int, vectors: np.ndarray) -> bool:
    """Whether the nrows-row integer matrix with entries vals at (rows, cols) maps every
    row of ``vectors`` to zero, exactly over Z (int64 only where no sum can overflow)."""
    if not vectors.size or not vals.size:
        return True
    worst = int(np.abs(vals).max()) * int(np.abs(vectors).max()) * int(np.bincount(rows).max())
    dtype = np.int64 if worst < 2**63 else object
    prod = vals.astype(dtype)[:, None] * vectors.astype(dtype).T[cols]
    out = np.zeros((nrows, vectors.shape[0]), dtype=dtype)
    np.add.at(out, rows, prod)
    return not out.any()


def _hadamard_log2(lay: _Layout, matrix: SparseMatrix) -> np.ndarray:
    """Per component of the matrix's exact pattern, log2 of a bound on every minor of its
    block: the product over the block's rows of sqrt(number of entries) * largest magnitude."""
    mag = np.array([log2(abs(c)) for c in matrix.coeffs])[matrix.idx]
    _, row, count = np.unique(lay.comp * int(lay.h.max()) + lay.li, return_inverse=True, return_counts=True)
    widest = np.zeros(count.size)
    np.maximum.at(widest, row, mag)
    row_comp = np.empty(count.size, dtype=np.int64)
    row_comp[row] = lay.comp
    return np.bincount(row_comp, weights=0.5 * np.log2(count) + widest, minlength=lay.h.size)


class _KernelLift:
    """The kernel vectors of one rank-deficient block, known modulo a growing product of
    primes: per free column, its entries at the pivot columns (minus the reduced echelon
    form's column) as residues."""

    def __init__(self, cols: tuple, rows: np.ndarray, width: int, p: int):
        self.cols, self.width = cols, width
        free = np.ones(width, dtype=bool)
        free[list(cols)] = False
        self.free = np.flatnonzero(free)
        self.residues = (-rows[:, self.free]) % p
        self.modulus = p
        self.skipped = 0  # primes whose pivot columns differ
        self.last = None  # the previous lift

    def basis(self) -> np.ndarray | None:
        """Integer kernel candidates, one row per free column, or None while rational
        reconstruction fails; the free columns carry the common denominators."""
        lifted = _lift(self.residues, self.modulus)
        if lifted is None:
            return None
        out = np.zeros((self.free.size, self.width), dtype=object)
        out[:, list(self.cols)] = lifted[1].T
        out[np.arange(self.free.size), self.free] = lifted[0]
        return out

    def absorb(self, cols: tuple, rows: np.ndarray, p: int) -> bool:
        """Combine by CRT with the reduced echelon form mod p; False (and the prime is
        skipped) when its pivot columns differ."""
        if cols != self.cols:
            self.skipped += 1
            return False
        new = (-rows[:, self.free]) % p
        old = self.residues
        t = (new - np.asarray(old % p, dtype=np.int64)) % p * pow(self.modulus % p, -1, p) % p
        self.residues = old.astype(object) + t.astype(object) * self.modulus
        self.modulus *= p
        return True


def _kernel_certificate(matrix: SparseMatrix, bound: int | None, primes: Sequence[int]) -> RankCertificate | None:
    """Rank certified by kernel vectors verified over Z, or None when the lift fails.

    Blocks come from the exact nonzero pattern, so an entry that vanishes mod p
    stays in its block as a zero.  Each block short of full row rank mod the
    reference prime gets one kernel vector per free column of its reduced echelon
    form; the entries are lifted by rational reconstruction, adding primes by CRT,
    until the vectors annihilate the block's exact triplets.  The lift fails when
    several primes disagree on the pivot columns, when the lifted vectors stop
    changing, or when the modulus passes twice the square of the block's Hadamard
    bound.  A later prime that finds a larger rank shows the reference prime
    unlucky: when it is one of the given primes, the certificate starts again with
    it as the reference (so at most once per given prime), else it fails.
    """
    if matrix.nnz == 0:
        return RankCertificate(0, "kernel-verified", (primes[0],), True, True, bound, 0)
    lay = _layout(matrix.rows, matrix.cols, _components(matrix.rows, matrix.cols, matrix.nrows))
    hadamard = _hadamard_log2(lay, matrix)
    vals = matrix.vals
    given, tried = list(dict.fromkeys(primes)), []
    reference = given[0]
    while True:
        tried.append(reference)
        cert, better = _kernel_attempt(matrix, lay, vals, hadamard, bound, [reference] + given)
        if better not in given or better in tried:
            return cert
        reference = better


def _kernel_attempt(matrix: SparseMatrix, lay: _Layout, vals: np.ndarray, hadamard: np.ndarray,
                    bound: int | None, primes: list[int]) -> tuple[RankCertificate | None, int | None]:
    """One kernel certificate with primes[0] as the reference prime: (the certificate
    or None, and the prime that found a larger rank than the reference, if one did)."""
    gen = _lift_primes(primes)
    used = [next(gen)]
    found = _echelons(lay, matrix.residues(used[0]), used[0])
    total = sum(len(cols) for cols, _ in found.values())
    if bound is not None and total > bound:
        raise InvalidInputError(f"computed rank {total} exceeds declared structural bound "
                                f"{bound}; the bound is invalid")
    cert = _certify(total, PrimeField(used[0]), matrix, bound)
    if cert.certified_exact:
        return cert, None
    order = np.argsort(lay.comp, kind="stable")
    starts = np.searchsorted(lay.comp[order], np.arange(lay.h.size + 1))
    pending = {c: _KernelLift(cols, rows, lay.w[c], used[0]) for c, (cols, rows) in found.items() if rows is not None}
    fresh, vectors = set(pending), 0
    while pending:
        for c in sorted(fresh):
            lift = pending[c]
            basis = lift.basis()
            if basis is not None:
                idx = order[starts[c]:starts[c + 1]]
                if _annihilates(lay.li[idx], lay.lj[idx], vals[idx], lay.h[c], basis):
                    vectors += basis.shape[0]
                    del pending[c]
                    continue
                if lift.last is not None and np.array_equal(lift.last, basis):
                    return None, None
                lift.last = basis
            if log2(lift.modulus) > 2 * hadamard[c] + 1:
                return None, None
        if not pending:
            break
        p = next(gen)
        used.append(p)
        select = np.zeros(lay.h.size, dtype=bool)
        select[list(pending)] = True
        fresh = set()
        for c, (cols, rows) in _echelons(lay, matrix.residues(p), p, select).items():
            if len(cols) > len(pending[c].cols):
                return None, p  # the reference prime undercounts this block's rank
            if pending[c].absorb(cols, rows, p):
                fresh.add(c)
            elif pending[c].skipped > 2:
                return None, None
    return RankCertificate(total, "kernel-verified", tuple(used), True, True, bound, vectors), None


# ---------------------------------------------------------------------------
# public operations


def rational_rank(matrix: SparseMatrix, oracle_cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Exact rank over Q by fraction-free elimination on a dense copy."""
    if matrix.ncols > oracle_cap:
        raise ResourceLimitError(
            f"rational elimination capped at {oracle_cap} columns, matrix has {matrix.ncols}"
        )
    return bareiss_rank(matrix.to_dense_rows())


def rank(
    matrix: SparseMatrix,
    fieldspec: FieldSpec,
    *,
    structural_bound: int | None = None,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> RankCertificate:
    """Rank certificate for ``matrix`` over the given field.

    ``structural_bound`` is a caller-known upper bound on the rational
    rank; a modular rank attaining it (or min(nrows, ncols)) is promoted
    to certified-exact.  The elimination always runs to completion, so an
    invalid bound raises whenever the computed rank exceeds it.
    """
    if matrix.nnz == 0 and structural_bound is None:
        structural_bound = 0  # structurally empty: rank 0 over every field
    if isinstance(fieldspec, Rational):
        value = rational_rank(matrix, oracle_cap)
    else:
        value = _rank_mod_p(matrix, fieldspec.p)
    if structural_bound is not None and value > structural_bound:
        raise InvalidInputError(
            f"computed rank {value} exceeds declared structural bound "
            f"{structural_bound}; the bound is invalid"
        )
    return _certify(value, fieldspec, matrix, structural_bound)


def _certify(value: int, fieldspec: FieldSpec, matrix: SparseMatrix, structural_bound: int | None) -> RankCertificate:
    if isinstance(fieldspec, Rational):
        return RankCertificate(value, "rational-exact", (), True, True, structural_bound)
    bound = min(matrix.shape + (() if structural_bound is None else (structural_bound,)))
    return RankCertificate(value, "single-prime", (fieldspec.p,), True, value >= bound, structural_bound)


def certified_rank(
    matrix: SparseMatrix,
    bound: int | None,
    primes: Sequence[int],
    *,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> RankCertificate:
    """Rank of an integer matrix, certified exact whenever a proof is in reach.

    ``bound`` is an upper bound on the rational rank, as for :func:`rank`.

    1. The rank mod ``primes[0]``, returned as it is when it reaches the bound.
    2. Short of the bound, the kernel certificate: verified kernel vectors
       prove the modular rank exact ("kernel-verified").
    3. If the lift fails: the rank mod each further prime, until one reaches
       the bound;
    4. then the rational oracle while ncols <= ``oracle_cap`` (0: never);
    5. else the best modular rank, uncertified.

    A certificate reached after a failed lift says so (``lift_failed``).
    """
    if not primes:
        raise InvalidInputError("certified_rank needs at least one prime")
    best = rank(matrix, PrimeField(primes[0]), structural_bound=bound)
    if best.certified_exact:
        return best
    kernel = _kernel_certificate(matrix, bound, primes)
    if kernel is not None:
        return kernel
    for p in primes[1:]:
        cert = rank(matrix, PrimeField(p), structural_bound=bound)
        if cert.rank >= best.rank:
            best = cert
        if cert.certified_exact:
            break
    else:
        if matrix.ncols <= oracle_cap:
            best = rank(matrix, Rational(), structural_bound=bound, oracle_cap=oracle_cap)
    return replace(best, lift_failed=True)


def annihilates(matrix: SparseMatrix, vectors: Sequence[Sequence[int]]) -> bool:
    """Whether matrix @ v = 0 for every integer vector v, checked exactly over Z."""
    basis = np.array([[int(x) for x in v] for v in vectors], dtype=object).reshape(-1, matrix.ncols)
    return _annihilates(matrix.rows, matrix.cols, matrix.vals, matrix.nrows, basis)


def nullspace(
    matrix: SparseMatrix,
    fieldspec: FieldSpec,
    *,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> list[list[int]]:
    """Basis of the right nullspace (dense elimination; modest sizes).

    Over Q the vectors are integer-scaled with content 1; over F_p entries
    lie in [0, p).
    """
    if matrix.ncols > oracle_cap:
        raise ResourceLimitError(
            f"nullspace elimination capped at {oracle_cap} columns, matrix has {matrix.ncols}"
        )
    dense = matrix.to_dense_rows()
    echelon, pivots = rref(dense, fieldspec)
    free = [c for c in range(matrix.ncols) if c not in pivots]
    basis = []
    for c in free:
        if isinstance(fieldspec, PrimeField):
            vec = [0] * matrix.ncols
            vec[c] = 1
            for r, pc in enumerate(pivots):
                vec[pc] = (-echelon[r][c]) % fieldspec.p
            basis.append(vec)
        else:
            vec = [Fraction(0)] * matrix.ncols
            vec[c] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -echelon[r][c]
            basis.append(integer_scaled(vec))
    return basis


class RankCache:
    """Line-delimited JSON file of records {"v": 2, "key", "cert", "digest"}: ``cert``
    is :meth:`RankCertificate.to_json`, ``digest`` the SHA-256 of (version, key, cert).
    A torn line, another version (older {key, rank} lines), a bad digest or a
    certificate RankCertificate rejects is a miss.  A put is one ``os.write`` on an
    O_APPEND descriptor of a record that starts with a newline, so it never glues
    onto another.  The digest stops corruption, not a deliberate writer."""

    FILENAME = "rank-cache.jsonl"
    VERSION = 2

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, self.FILENAME)
        self._mem: dict[str, RankCertificate] | None = None

    @classmethod
    def _digest(cls, key: str, cert: dict) -> str:
        return hashlib.sha256(json.dumps([cls.VERSION, key, cert], sort_keys=True).encode()).hexdigest()

    def _load(self) -> dict[str, RankCertificate]:
        if self._mem is None:
            self._mem = {}
            if os.path.exists(self.path):
                with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
                    for line in fh:
                        try:
                            record = json.loads(line)
                            if record["v"] == self.VERSION and record["digest"] == self._digest(record["key"], record["cert"]):
                                self._mem[record["key"]] = RankCertificate.from_json(record["cert"])
                        except (ValueError, KeyError, TypeError, KoszulError):
                            continue  # a torn, foreign or rejected line is a miss
        return self._mem

    def get(self, key: str) -> RankCertificate | None:
        return self._load().get(key)

    def put(self, key: str, cert: RankCertificate) -> None:
        self._load()[key] = cert
        data = cert.to_json()
        record = {"v": self.VERSION, "key": key, "cert": data, "digest": self._digest(key, data)}
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, ("\n" + json.dumps(record, sort_keys=True)).encode())
        finally:
            os.close(fd)
