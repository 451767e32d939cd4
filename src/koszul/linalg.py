"""Exact sparse linear algebra with certification semantics.

Ranks are computed either over the rationals (the ground-truth oracle:
:func:`echelon`, the one exact integer elimination, which also gives K's
canonical basis, run without its back pass on a dense copy of the rows
that hold an entry) or over a prime field F_p with p an odd prime below 2^31.

Matrices are integral.  A :class:`SparseMatrix` stores each distinct value
once, in a palette of exact Python ints, and one int64 palette index per
entry: reduction mod p, the content hash and the Hadamard bound work on the
palette and gather by index, so no consumer depends on how large the values
are.  Exact values are gathered only for the kernel check and the dense
exact routines (the oracle, multiply).

Certification: for an integer matrix, the rank mod p never exceeds the
rational rank (a nonzero minor mod p is nonzero over Z), so modular ranks
are certified lower bounds.  They become certified exact when they attain
a structural upper bound -- either min(nrows, ncols) or a bound supplied by
the caller.  Every elimination runs to completion, so a modular rank above
a bound proves the bound invalid.  Rational ranks are exact by
construction.  :func:`rank` is the one entry point: a forced field gives
the oracle rank or the rank mod p, and the automatic mode (no field), the
one escalation policy, proves the matching upper bound when the rank r mod
the first prime falls short of the bound: one kernel vector per free column
of the reduced echelon form mod p, lifted to Z and checked exactly against
the integer triplets.  The vectors are independent (the identity on the
free columns), so r <= rank over Q <= r; a later prime that shows a
component more rank, or an earlier pivot set, is its new reference, so
every lift ends in a certificate (_kernel_certificate).

The modular engine, _echelons, eliminates each connected component of the
bipartite pattern of the exact entries once, on a dense float64 block of
balanced residues, an entry that vanishes mod p kept as a zero: blocks of
at most _BASE rows stacked by shape, larger ones panel by panel (recursive
Gauss-Jordan of the panel, then elimination from the rows below, and for a
block short of its full block's rows one backward sweep to reduced echelon
form).  Components are labelled once per matrix, whatever the prime, by
min-label hooking and pointer jumping in numpy.

Reduction x - rint(x/p)*p leaves |x| <= (p+3)/2 <= 2^30 + 1 (the rounded
quotient may be off by one).  Each update t <- t - C*E (mod p), C with
k <= _PANEL columns, is one GEMM [C | 2^16*C mod p] @ [E_lo ; E_hi] with
E = E_lo + 2^16*E_hi, |E_lo| <= 2^15, |E_hi| <= 2^14, so every partial
sum, and the rint(x/p)*p that reduces it, is an integer below

    (2^30 + 1) * (1 + 3 * k * 2^14) + 2^30  <  2^53     for k <= 170,

exact in float64 for every prime PrimeField accepts.  A component whose
block (once pre-eliminated, see below) and workspace exceed _DENSE_BYTES
is refused first by :func:`check_budget`, the one gate of every size refusal.

A matrix may carry a candidate symmetry ``mirror`` = (row map pi, column
map tau, column signs eps); :func:`koszul.hilbert.restricted_delta2` sets
one when the index reversal maps K onto itself.  The rank mod p trusts
nothing it is given: it checks exactly that pi and tau are involutions,
that eps is +-1 with eps[tau] = eps, and that the triplets mod p (zeros
kept), relabelled to (pi r, tau c, eps_c v), are the matrix's own triplets.  The
map is then an automorphism of the matrix mod p, so the two components of
a swapped pair have blocks equal up to permutation and signs, hence equal
rank: one of them is eliminated, and the other takes its rank.  A candidate that fails
the check is ignored and every component is eliminated.

A matrix may also carry ``spare``, a boolean mask of rows expected to be
combinations of the others; :func:`koszul.hilbert.restricted_delta2` marks
one Koszul-redundant row per monomial of degree q+2.  The pass at the
first prime (_reference) checks the mirror on the full pattern, then
builds each selected block from its non-spare triplets only and checks
_DENSE_BYTES on these projected blocks, the ones it allocates.  This is
sound whatever the mask says: writing S A for A without its spare rows, a
row submatrix's rank never exceeds the matrix's, and a swapped pair C, C'
counts 2 rank(S A_C) <= rank(A_C) + rank(A_C'), so every result is still a
certified lower bound.  When the spare rows really are redundant, rank(S A)
= rank(A), and as no block can gain rank, each keeps its own.  No upper
bound rests on the mask (see _kernel_certificate).

Before the dense engine, the pass pre-eliminates each selected component
whose full block has more than _BASE rows (_pre_eliminate): rounds of
sparse pivots mod p on the live entries, as in structured Gaussian
elimination (LaMacchia and Odlyzko, CRYPTO 1990; Bouillaguet and Delaplace,
CASC 2016).  A pivot is an entry (r, c) with a nonzero residue a and a
Markowitz cost (row weight - 1) * (column weight - 1) of at most
_MARKOWITZ; a residue 0 is never a pivot, but its entry counts among the
live ones until a merge rewrites its row.  A merge makes every other row x
of column c into x - (a_x / a) * (row r) mod p, the fill summed by sort and
reduce and a sum that vanishes mod p dropped; column operations then clear
the rest of row r, leaving a beside what is left without row r and column
c.  Row operations mod p are invertible, so a component's rank mod p is its
pivots plus the rank mod p of what is left, and only what is left is
budgeted against _DENSE_BYTES and eliminated.  A singleton is the cost-0
case: alone in its column it rewrites no row, alone in its row it rewrites
only entries of its own column, which goes.  A round orders its candidates
by cost, then position, keeps the first of each column, then of each row,
and of two of which one, a merge, would rewrite the other's pivot row,
drops the later.  So no pivot of a round changes another's row, or its
column but for a column that goes with its row singleton, and taking them
at once is taking them one after another.  Among singletons the rule is one
pivot per row and per column, so a first round takes every pivot that a
round of single entries alone would.  A component stops on a round that
takes fewer than 1/_FEW of its live rows (so on one that takes none), or
once its live entries have more than doubled; the pass stops after _ROUNDS
rounds.  Each pivot narrows a block, so, like a block the projection
narrowed, a pre-eliminated one is no start of the kernel certificate: its
echelon form is that of what is left, not of its full block.  A short one
is eliminated again on its full rows.  Smaller blocks are stacked many to a
call and are not pre-eliminated, so each keeps its start.

What the pass leaves of those components then meets one round of structural
pivots (_schur; Faugere and Lachartre, PASCO 2010, with the Schur complement
of SpaSM: Bouillaguet and Delaplace, CASC 2016) on its entries of nonzero
residue.  The columns are ordered by their count of such entries, ties by
index; a row's leading column is its first in that order, and each leading
column takes the lightest of its rows, then the first.  With its k pivots in
the order of their leading columns, the block A they cut out is upper
triangular (a pivot row has no entry before its leading column) with nonzero
residues on its diagonal, so A is invertible mod p.  Writing a component as
[[A, B], [C, D]], the other rows and columns after the pivots', the row
operations that clear C leave [[A, B], [0, S]], S = D - C X, X = A^-1 B, so
its rank mod p is k + rank S; only S is kept, budgeted and eliminated.  X is
solved by levels, X_i = (B_i - sum_j A_ij X_j) / A_ii over the pivots j that
i depends on (A_ij != 0, j != i), a pivot's level being 1 + the largest of
theirs.  A pivot still at depth _ROUNDS - 1 goes back to the complement,
and with it everything that depends on it, which is deeper; so the pivots
kept are closed under dependency, a principal block of A, still triangular
with a nonzero diagonal.  A component with no entry in B or in C needs no X
(its complement is D) and no cap, so a chain is taken whole.  Every residue
is below p < 2^31, so each product a*x is below p^2 < 2^62 and is reduced
before it is summed: int64 is exact.  X and S are summed a chunk of rows at
a time, so that no chunk expands to more products than the round's input,
each chunk charged to check_budget with the entries kept beside it, three
cells an entry.  A component that takes structural pivots counts as
pre-eliminated: it is no start of the kernel certificate.

No rank function reads a cache.  :class:`RankCache` stores whole certificates
for its one caller, :func:`koszul.hilbert.w_dim`, which keys them by K.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, log2
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidInputError, KoszulError, ResourceLimitError

DEFAULT_PRIMES: tuple[int, ...] = (2147483647, 2147483629, 2147483587)
DEFAULT_ORACLE_CAP = 2000  # max columns for dense rational elimination

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# mod-p engine tuning (see the module docstring for the exactness bound)
_PANEL = 128                # pivot rows per update; the bound allows up to 170
_BASE = 8                   # recursion leaves, eliminated one row at a time
_MARKOWITZ = 64             # largest Markowitz cost of a sparse pivot
_ROUNDS = 64                # rounds of sparse pivots per pass (Weyman K up to n = 10 takes at most 44)
_FEW = 32                   # a component stops on a round that takes under 1/_FEW of its live rows
_DENSE_BYTES = 400_000_000  # one component's float64 block plus its workspace


def check_budget(cells: int, what: str) -> None:
    """ResourceLimitError when ``what``, ``cells`` cells of 8 bytes, would exceed
    _DENSE_BYTES (read at each call): the one size refusal, made before it is built."""
    if 8 * cells > _DENSE_BYTES:
        raise ResourceLimitError(f"{what} needs {8 * cells} bytes, over the budget of {_DENSE_BYTES}")


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
    primes are those the certificate consulted, the first given prime first.
    """

    rank: int
    mode: str  # one of MODES
    primes: tuple[int, ...] = ()
    certified_lower_bound: bool = True
    certified_exact: bool = False
    structural_bound: int | None = None
    verified_vectors: int = 0

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
        return out

    @staticmethod
    def from_json(data: dict) -> "RankCertificate":
        """Integers read by :func:`json_int`, flags only as JSON booleans; other keys ignored."""
        flags = [data["certified_lower_bound"], data["certified_exact"]]
        if not all(isinstance(flag, bool) for flag in flags):
            raise InvalidInputError(f"certificate flags must be booleans, got {flags!r}")
        bound = data.get("structural_bound")
        return RankCertificate(
            rank=json_int(data["rank"], "rank"),
            mode=data["mode"],
            primes=tuple(json_int(p, "prime") for p in data.get("primes", [])),
            certified_lower_bound=flags[0],
            certified_exact=flags[1],
            structural_bound=None if bound is None else json_int(bound, "structural bound"),
            verified_vectors=json_int(data.get("verified_vectors", 0), "verified vectors"),
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
        # nobody: the modular engine checks it before use (_orbit_representatives)
        self.mirror = None
        # candidate redundant rows, left out of the modular blocks (_reference)
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


# ---------------------------------------------------------------------------
# dense kernels


def primitive(row: list[int]) -> list[int]:
    """The row divided by its content, its first nonzero entry made positive."""
    g = gcd(*row)
    if g and next(filter(None, row)) < 0:
        g = -g
    return row if g in (0, 1) else [v // g for v in row]


def echelon(rows: list[list[int]], p: int | None, reduced: bool = True) -> tuple[tuple[int, ...], ...]:
    """The one exact elimination: an echelon basis of the span of some integer rows over
    Q (p None) or F_p.  pivot[c]*row - row[c]*pivot clears column c in the rows below
    the pivot, and with ``reduced`` in those above it too; each rewritten row is divided
    by its content (over F_p reduced, each pivot scaled to 1).  Up to its content, each
    row stays the one vector in the span of its input row and the pivot rows so far
    that vanishes at the pivot columns cleared in it, so its entries are bounded by
    minors (Cramer's rule), with or without ``reduced``.  With it the result is the
    canonical basis of :mod:`koszul.subspaces`; without, the forward pass alone, its
    length is the rank."""
    reduce = primitive if p is None else (lambda row: [v % p for v in row])
    a = [row for row in map(reduce, rows) if any(row)]
    r = 0
    for c in range(len(a[0]) if a else 0):
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        if p is not None:
            inv = pow(a[r][c], -1, p)
            a[r] = [v * inv % p for v in a[r]]
        prow, pc = a[r], a[r][c]
        for i in range(0 if reduced else r + 1, len(a)):
            f = a[i][c]
            if f and i != r:
                a[i] = reduce([pc * x - f * y for x, y in zip(a[i], prow)])
        r += 1
    return tuple(map(tuple, a[:r]))


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


def _block_rank(block: np.ndarray, p: int, target: int) -> np.ndarray:
    """Pivot column of each row of one component's block (-1 for a row without one), each
    panel put in reduced echelon form, then eliminated from the rows below, its pivot rows
    gathered in block[:rank] as it goes.  A block left with fewer than ``target`` pivots is
    then reduced by one backward sweep: each panel's pivot rows, the last panel's first,
    cleared from the pivot rows above them."""
    piv, panels, rank = np.full(block.shape[0], -1, dtype=np.int64), [], 0
    for i0 in range(0, block.shape[0], _PANEL):
        r, cols = _jordan(block[i0:i0 + _PANEL], p)
        block[rank:rank + r], piv[rank:rank + r] = block[i0:i0 + r], cols
        panels.append((r, cols))
        # named so that it lives through the next panel: freed at once, it made the
        # later _split calls 40 % slower on one large component (the allocator)
        es = _split(block[rank:rank + r])
        _eliminate(block[i0 + _PANEL:], cols, es, p)
        rank += r
    if rank < target:
        for r, cols in reversed(panels):
            rank -= r
            _eliminate(block[:rank], cols, _split(block[rank:rank + r]), p)
    return piv


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


def _layout(rows: np.ndarray, cols: np.ndarray, comp: np.ndarray, select: np.ndarray) -> _Layout:
    """Blocks of the components labelled ``comp`` (see _components) built from the
    triplets at (rows, cols); before any allocation, the largest block that ``select``
    keeps (a mask over the labels) goes to check_budget with its workspace,
    w (h + 6 _PANEL) cells for a block of more than _BASE rows, else w h."""
    lr, nr = _local_index(rows, comp, select.size)
    lc, nc = _local_index(cols, comp, select.size)
    h, w = np.minimum(nr, nc), np.maximum(nr, nc)
    cells = w * (h + 6 * _PANEL * (h > _BASE)) * select  # block, and for big ones panel split and update scratch
    k = int(cells.argmax())
    check_budget(int(cells[k]), f"the dense block of a {nr[k]}x{nc[k]} component")
    flip = (nr > nc)[comp]
    return _Layout(comp, np.where(flip, lc, lr), np.where(flip, lr, lc), h, w)


def _stacks(lay: _Layout, values: np.ndarray, select: np.ndarray):
    """Yield (components, stack) for the selected components: small blocks stacked by
    shape, each block of more than _BASE rows alone.  Every stack lives in one reused
    buffer, so it is valid only until the next one is yielded."""
    keep, h, w, present = select[lay.comp], lay.h, lay.w, np.flatnonzero(select)
    comp, li, lj, values = lay.comp[keep], lay.li[keep], lay.lj[keep], values[keep]
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


def _pre_eliminate(rows: np.ndarray, cols: np.ndarray, residues: np.ndarray, owner: np.ndarray,
                   big: np.ndarray, p: int):
    """Sparse pivots mod p on the triplets of the components ``big`` marks, ``owner`` giving
    the component of each row, in at most _ROUNDS rounds (see the module docstring).  Returns
    the triplets (rows, cols, residues) left, those of a component that took no pivot as
    given, and the pivots taken in each component."""
    ncomp, width, work = big.size, int(cols.max(initial=0)) + 1, big[owner[rows]]
    taken, nnz = np.zeros(ncomp, dtype=np.int64), np.bincount(owner[rows[work]], minlength=ncomp)
    live, done = [rows[work], cols[work], residues[work]], []
    for _ in range(_ROUNDS):
        if not live[0].size:
            break
        r, c, v = live
        nr, nc = np.bincount(r), np.bincount(c)
        cost = (nr[r] - 1) * (nc[c] - 1)
        # priority by cost, then position: a candidate comes first in its column, then in its row
        none = (_MARKOWITZ + 1) * r.size  # above every candidate's priority
        prio = np.where((v != 0) & (cost <= _MARKOWITZ), cost * r.size + np.arange(r.size), none)
        first_c, first_r = np.full(nc.size, none), np.full(nr.size, none)
        np.minimum.at(first_c, c, prio)
        i = np.flatnonzero((prio == first_c[c]) & (prio < none))
        np.minimum.at(first_r, r[i], prio[i])
        i = i[prio[i] == first_r[r[i]]]
        # a merge rewrites the other rows of its column: of two candidates one of which
        # would rewrite the other's pivot row, the later one waits
        merge = (nr[r[i]] > 1) & (nc[c[i]] > 1)
        by_col, by_row = np.full(nc.size, -1), np.full(nr.size, -1)
        by_col[c[i[merge]]], by_row[r[i]] = np.flatnonzero(merge), np.arange(i.size)
        e = np.flatnonzero(by_col[c] >= 0)
        a, b = by_col[c[e]], by_row[r[e]]
        a, b = a[(b >= 0) & (a != b)], b[(b >= 0) & (a != b)]
        ok = np.ones(i.size, dtype=bool)
        ok[np.where(prio[i[a]] > prio[i[b]], a, b)] = False
        piv, m = i[ok], i[ok & merge]
        # each other row x of a merge's column becomes x - (a_x / a) * (pivot row)
        by_col[:], by_row[:] = -1, -1
        by_col[c[m]] = by_row[r[m]] = np.arange(m.size)
        jc, jr = by_col[c], by_row[r]
        u, w = np.flatnonzero((jc >= 0) & (jr < 0)), np.flatnonzero((jr >= 0) & (jc < 0))
        # the fill: each rewritten entry x times each other entry of its merge's pivot row
        w = w[np.argsort(jr[w], kind="stable")]
        count = np.bincount(jr[w], minlength=m.size)
        each = count[jc[u]]
        at = np.repeat((np.cumsum(count) - count)[jc[u]] - (np.cumsum(each) - each), each) + np.arange(each.sum())
        inv = np.array([pow(x, -1, p) for x in v[m].tolist()], dtype=np.int64)
        factor = np.repeat(v[u] * inv[jc[u]] % p, each)
        fill = [np.repeat(r[u], each), c[w][at], -factor * v[w][at] % p]
        # drop the pivots' rows and columns, and sum each rewritten row with its fill
        (dead_r, moved), dead_c = np.zeros((2, nr.size), dtype=bool), np.zeros(nc.size, dtype=bool)
        dead_r[r[piv]] = dead_c[c[piv]] = moved[r[u]] = True
        stay = ~(dead_r[r] | dead_c[c])
        same, new, alive = stay & ~moved[r], stay & moved[r], ~dead_c[fill[1]]
        mixed = [np.concatenate((x[new], y[alive])) for x, y in zip(live, fill)]
        key = mixed[0] * width + mixed[1]
        order = np.argsort(key)
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        total = np.add.reduceat(mixed[2][order], first) % p
        pick = order[first[total != 0]]
        live = [np.concatenate((x[same], y)) for x, y in zip(live, (mixed[0][pick], mixed[1][pick], total[total != 0]))]
        # a component stops on a round that takes few pivots for its rows, or once its
        # entries have more than doubled
        now = np.bincount(owner[r[piv]], minlength=ncomp)
        taken += now
        k = owner[live[0]]
        stop = now * _FEW < np.bincount(owner[np.flatnonzero(nr)], minlength=ncomp)
        stop |= np.bincount(k, minlength=ncomp) > 2 * nnz
        done.append([x[stop[k]] for x in live])
        live = [x[~stop[k]] for x in live]
    left, hit = [np.concatenate(x) for x in zip(*done, live)], taken > 0
    keep, fresh = ~hit[owner[rows]], hit[owner[left[0]]]
    return [np.concatenate((x[keep], y[fresh])) for x, y in zip((rows, cols, residues), left)], taken


def _sums(direct, terms, x, limit: int, p: int, width: int, live: int):
    """Sparse rows mod p: row r is the sum of its ``direct`` entries (r, c, v) and, for each
    of its ``terms`` (r, k, a), of a times row k of ``x`` = (start, count, col, val), x's
    entries sorted by row; direct and terms sorted by row.  The rows are summed a chunk at a
    time, cut between rows so that a chunk holds at most ``limit`` entries and products (or
    one row), so each chunk's sums are final; before a chunk is expanded, its products and
    the ``live`` entries kept beside them, with the sums so far, go to check_budget at three
    cells an entry.  Returns the nonzero sums as triplets sorted by row, then column."""
    (dr, dc, dv), (tr, tk, ta), (start, count, xc, xv) = direct, terms, x
    each = count[tk]
    height = int(max(dr.max(initial=-1), tr.max(initial=-1))) + 1
    bound = np.cumsum(np.bincount(dr, minlength=height) + np.bincount(tr, each, height).astype(np.int64))
    out, lo = [np.zeros((3, 0), dtype=np.int64)], 0
    while lo < height:
        hi = max(int(np.searchsorted(bound, (bound[lo - 1] if lo else 0) + limit, "right")), lo + 1)
        (d0, d1), (t0, t1) = np.searchsorted(dr, (lo, hi)), np.searchsorted(tr, (lo, hi))
        n = each[t0:t1]
        total, kept = int(n.sum()), live + sum(part.shape[1] for part in out)
        check_budget(3 * (kept + total), f"a Schur chunk of {total} products beside {kept} entries")
        at = np.repeat(start[tk[t0:t1]] - (np.cumsum(n) - n), n) + np.arange(total)
        r = np.concatenate((dr[d0:d1], np.repeat(tr[t0:t1], n)))
        c = np.concatenate((dc[d0:d1], xc[at]))
        v = np.concatenate((dv[d0:d1], np.repeat(ta[t0:t1], n) * xv[at] % p))  # each product below p^2 < 2^62
        key = r * width + c
        order = np.argsort(key)
        first = np.flatnonzero(np.diff(key[order], prepend=-1))
        s = np.add.reduceat(v[order], first) % p if first.size else v
        at = order[first[s != 0]]
        out.append(np.stack((r[at], c[at], s[s != 0])))
        lo = hi
    return np.concatenate(out, axis=1)


def _schur(rows: np.ndarray, cols: np.ndarray, residues: np.ndarray, owner: np.ndarray, big: np.ndarray, p: int):
    """One round of structural pivots mod p on the triplets of the components ``big`` marks,
    ``owner`` giving the component of each row (see the module docstring): a triangular A,
    X = A^-1 B level by level, and the complement S = D - C X, each summed by _sums.
    Returns the triplets (rows, cols, residues) left, the complement of a component that
    took pivots and those of any other as given, and the pivots taken in each component."""
    ncomp, width = big.size, int(cols.max(initial=0)) + 1
    work = big[owner[rows]] & (residues != 0)
    r, c, v = rows[work], cols[work], residues[work]
    if not r.size:
        return (rows, cols, residues), np.zeros(ncomp, dtype=np.int64)
    height, limit = int(r.max()) + 1, r.size

    def index(piv):
        """Each entry's pivot among piv by its row, and by its column; -1 for none."""
        krow, kcol = np.full(height, -1), np.full(width, -1)
        krow[r[piv]] = kcol[c[piv]] = np.arange(piv.size)
        return krow[r], kcol[c]

    # columns by weight, ties stable; each row's leading entry is its first in that order,
    # and each leading column takes the lightest of its rows, then the first
    pos = np.empty(width, dtype=np.int64)
    pos[np.argsort(np.bincount(c, minlength=width), kind="stable")] = np.arange(width)
    order = np.lexsort((pos[c], r))
    head = order[np.flatnonzero(np.diff(r[order], prepend=-1))]
    head = head[np.lexsort((r[head], np.bincount(r)[r[head]], c[head]))]
    piv = head[np.flatnonzero(np.diff(c[head], prepend=-1))]
    # only where both B and C hold entries is X needed; there a pivot's level is 1 + the
    # largest level among those it depends on, and one at depth _ROUNDS - 1 returns
    kr, kc = index(piv)
    need = [np.bincount(owner[r[part]], minlength=ncomp) > 0 for part in ((kr >= 0) & (kc < 0), (kr < 0) & (kc >= 0))]
    capped = (need[0] & need[1])[owner[r[piv]]]
    dep = np.flatnonzero((kr >= 0) & (kc >= 0) & (kr != kc))
    dep = dep[capped[kr[dep]]]
    dep = dep[np.argsort(kr[dep], kind="stable")]
    i, j, level = kr[dep], kc[dep], np.zeros(piv.size, dtype=np.int64)
    first = np.flatnonzero(np.diff(i, prepend=-1))
    for _ in range(_ROUNDS - 1 if i.size else 0):
        deeper = np.maximum.reduceat(level[j] + 1, first)
        if np.array_equal(deeper, level[i[first]]):
            break
        level[i[first]] = deeper
    keep = ~capped | (level < _ROUNDS - 1)
    # the pivots kept, those that need X first and in level order
    order = np.argsort(np.where(capped, level, _ROUNDS)[keep], kind="stable")
    piv, level, nx = piv[keep][order], level[keep][order], int((capped & keep).sum())
    kr, kc = index(piv)
    taken = np.bincount(owner[r[piv]], minlength=ncomp)
    # X_i = (B_i - sum_j A[i, j] X_j) / A[i, i], one level at a time
    empty = np.zeros(0, dtype=np.int64)
    x = (np.zeros(piv.size, dtype=np.int64), np.zeros(piv.size, dtype=np.int64), empty, empty)  # start, count, col, val
    inv = np.array([pow(y, -1, p) for y in v[piv[:nx]].tolist()], dtype=np.int64)
    rows_x = np.flatnonzero((kr >= 0) & (kr < nx) & (kc != kr))  # B and A off its diagonal, where X is needed
    rows_x = rows_x[np.argsort(kr[rows_x], kind="stable")]
    k_x = kr[rows_x]
    ends = np.searchsorted(level[:nx], np.arange(int(level[:nx].max(initial=-1)) + 1), "right")
    for lo, hi in zip(np.r_[0, ends[:-1]], ends):
        s, e = np.searchsorted(k_x, (lo, hi))
        here = rows_x[s:e]
        a = kc[here] >= 0
        k, col, val = _sums((kr[here[~a]], c[here[~a]], v[here[~a]]), (kr[here[a]], kc[here[a]], -v[here[a]] % p),
                            x, limit, p, width, x[2].size)
        count = x[1].copy()
        count[lo:hi] = np.bincount(k - lo, minlength=hi - lo)
        x = (np.cumsum(count) - count, count, np.concatenate((x[2], col)), np.concatenate((x[3], val * inv[k] % p)))
    # S = D - C X on the other rows of the components that took pivots
    rest = np.flatnonzero((kr < 0) & (taken > 0)[owner[r]])
    rest = rest[np.argsort(r[rest], kind="stable")]
    a = kc[rest] >= 0
    left = _sums((r[rest[~a]], c[rest[~a]], v[rest[~a]]), (r[rest[a]], kc[rest[a]], -v[rest[a]] % p),
                 x, limit, p, width, x[2].size)
    keep = (taken == 0)[owner[rows]]
    return [np.concatenate((y[keep], z)) for y, z in zip((rows, cols, residues), left)], taken


def _orbit_representatives(matrix: SparseMatrix, vals: np.ndarray, p: int, comp: np.ndarray) -> np.ndarray | None:
    """The component whose rank each component takes under the matrix's candidate
    ``mirror``: itself when the mirror fixes it, the first of two it swaps; None when
    there is no candidate or it fails the exact check of the module docstring, run on
    ``vals``, each triplet's residue in [0, p), zeros kept."""
    if matrix.mirror is None:
        return None
    pi, tau, eps = (np.asarray(a) for a in matrix.mirror)
    (nrows, ncols), rows, cols = matrix.shape, matrix.rows, matrix.cols
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
    if not (np.array_equal(key[match], image) and np.array_equal(vals[match], np.where(eps[cols] < 0, -vals % p, vals))):
        return None
    swap = np.empty(int(comp.max()) + 1, dtype=np.int64)
    swap[comp] = comp[match]
    return np.minimum(swap, np.arange(swap.size))


def _echelons(lay: _Layout, residues: np.ndarray, p: int, frame: tuple, select: np.ndarray):
    """The one modular pass: each selected block eliminated once mod p, ``residues`` holding
    each triplet's value in [0, p).  ``frame`` = (h, w) gives each component's full block, no
    smaller than its block here; a block with fewer than h pivots is short, and only a short
    one is put in reduced echelon form.  Returns each component's rank (0 unless selected),
    and among the full blocks' columns side by side (offsets cumsum(w) - w) the short blocks'
    pivot mask and kernel vectors mod p, as entries (column, slot, residue) sorted by column,
    then slot: slot k holds the vector of the block's k-th free column, 1 there and minus that
    column of the reduced echelon form at the pivot columns (so it depends on the pivot set).
    Before building a stack's vectors, all the vectors so far go to check_budget, three
    cells an entry."""
    h, w = frame
    offset = np.cumsum(w) - w
    rank, pivot = np.zeros(h.size, dtype=np.int64), np.zeros(int(w.sum()), dtype=bool)
    found, entries = [np.zeros((3, 0), dtype=np.int64)], 0
    for batch, stack in _stacks(lay, (residues - p * (residues > p // 2)).astype(np.float64), select):
        # small blocks together by Gauss-Jordan, a big one alone panel by panel
        piv = _jordan_base(stack, p) if stack.shape[1] <= _BASE else _block_rank(stack[0], p, int(h[batch[0]]))[None]
        rank[batch] = np.count_nonzero(piv >= 0, axis=1)
        short = rank[batch] < h[batch]
        if not short.any():
            continue
        # a short block's vectors: rank + 1 entries of three int64 cells per free column
        entries += int(((stack.shape[2] - rank[batch]) * (rank[batch] + 1))[short].sum())
        check_budget(3 * entries, f"kernel vectors of {entries} entries")
        b, i = np.nonzero((piv >= 0) & short[:, None])  # the pivot rows of the short blocks
        start = offset[batch]
        pivot[start[b] + piv[b, i]] = True
        free = np.repeat(short[:, None], stack.shape[2], axis=1)
        free[b, piv[b, i]] = False
        slot = np.cumsum(free, axis=1) - 1
        fb, fc = np.nonzero(free)
        t, f = np.nonzero(free[b])  # each pivot row's entries at the free columns
        found.append([np.concatenate((start[fb] + fc, start[b[t]] + piv[b[t], i[t]])),
                      np.concatenate((slot[fb, fc], slot[b[t], f])),
                      np.concatenate((np.ones(fb.size, dtype=np.int64), (-stack[b[t], i[t], f]).astype(np.int64) % p))])
    col, slot, val = np.concatenate(found, axis=1)
    order = np.lexsort((slot, col))
    return rank, pivot, (col[order], slot[order], val[order])


def _reference(matrix: SparseMatrix, p: int, comp: np.ndarray, certify: bool):
    """The one elimination at the reference prime p: the mirror checked on the full
    pattern, then each block it selects eliminated once without the spare rows, a block of
    more than _BASE rows once pre-eliminated, then reduced to its Schur complement (see
    the module docstring); ``comp`` labels the components of the exact pattern.  Returns
    (rank, short, kept, trial, pivot, vectors): each component's rank mod p, its sparse and
    structural pivots included (a skipped one takes its partner's); the short ones, below
    their full block's rows; those eliminated, with no pivot of either kind, as their
    full block minus some rows, where the kernel certificate
    starts, and of these the ones that lost rows; with ``certify``, those short blocks'
    pivots and vectors (_echelons) among the full blocks' columns, else nothing."""
    vals, ncomp = matrix.residues(p), int(comp.max()) + 1
    rep = _orbit_representatives(matrix, vals, p, comp)
    if rep is None:
        rep = np.arange(ncomp)
    select = rep == np.arange(ncomp)
    node = np.full(matrix.nrows + matrix.ncols, ncomp)  # the component of each row, then column
    node[matrix.rows], node[matrix.nrows + matrix.cols] = comp, comp
    nr, nc = (np.bincount(part, minlength=ncomp + 1)[:ncomp] for part in np.split(node, [matrix.nrows]))
    h, w = np.minimum(nr, nc), np.maximum(nr, nc)  # each component's full block
    keep = np.asarray(matrix.spare)  # the triplets of the rows not spare (all if the mask is malformed)
    keep = ~keep[matrix.rows] if keep.dtype == bool and keep.shape == (matrix.nrows,) else np.ones(comp.size, dtype=bool)
    big = select & (h > _BASE)
    (rows, cols, left), taken = _pre_eliminate(matrix.rows[keep], matrix.cols[keep], vals[keep], node[:matrix.nrows], big, p)
    (rows, cols, left), more = _schur(rows, cols, left, node[:matrix.nrows], big, p)
    taken = taken + more
    lay = _layout(rows, cols, node[rows], select)
    # a pre-eliminated block is never a start, so it needs neither the sweep nor vectors
    rank, pivot, vectors = _echelons(lay, left, p, (h * (certify & (taken == 0)), w), select)
    rank = (rank + taken)[rep]
    # dropping rows keeps a block's width, and then leaves the full block minus those
    # rows, or narrows it (a flipped block's width is its row count); a pivot narrows it
    kept = select & (rank < h) & (lay.w == w)
    return rank, rank < h, kept, kept & (lay.h < h), pivot, vectors


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


def _ratrecon(u: int, m: int, bound: int) -> int | None:
    """Denominator d <= bound of a fraction n/d = u (mod m) with |n| <= bound, or None;
    unique when 2*bound^2 < m (the extended Euclidean algorithm stopped at bound)."""
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return abs(s1) if 0 < abs(s1) <= bound else None


def _lift(residues: np.ndarray, modulus: np.ndarray, owner: np.ndarray,
          slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer vectors from rational ones known mod the modulus of each component, given by
    their entries: ``residues`` in [0, modulus), each in the vector ``slot`` of the component
    ``owner``.  Each vector gets a common denominator den and the numerators residues*den
    (mod its modulus), all at most sqrt(modulus/2) in size.  Returns whether each
    component's vectors were found this way and the numerators (0 for a component whose
    were not): int64 while every modulus is below 2^31, else Python ints, computed in place
    of ``residues`` when it has that dtype."""
    present = np.bincount(owner, minlength=modulus.size) > 0
    moduli = modulus[present].tolist()
    dtype = np.int64 if max(moduli, default=0) < 2**31 else object
    mod, bound = np.ones(modulus.size, dtype=dtype), np.zeros(modulus.size, dtype=dtype)
    mod[present], bound[present] = moduli, [isqrt((m - 1) // 2) for m in moduli]
    each = owner if len(set(moduli)) > 1 else owner[:1]  # per entry, or one for all
    m, b, num = mod[each], bound[each], residues.astype(dtype, copy=False)
    den = np.ones((modulus.size, int(slot.max(initial=-1)) + 1), dtype=dtype)
    lifted = np.ones(modulus.size, dtype=bool)
    for i in np.flatnonzero((num > b) & (num < m - b)):  # balanced residue above the bound
        c, k = owner[i], slot[i]
        mi, bi = int(mod[c]), int(bound[c])
        if not lifted[c]:
            continue
        x = int(num[i]) * int(den[c, k]) % mi
        if min(x, mi - x) <= bi:
            continue
        d = _ratrecon(x, mi, bi)
        if d is None or den[c, k] * d > bi:
            lifted[c] = False
        else:
            den[c, k] *= d
    if (den != 1).any():
        num *= den[owner, slot]
        num %= m
    np.subtract(num, m, out=num, where=num > m // 2)
    lifted &= np.bincount(owner[(num > b) | (num < -b)], minlength=modulus.size) == 0
    num[~lifted[owner]] = 0
    return lifted, num


def _annihilates(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, nrows: int, vectors: tuple) -> np.ndarray:
    """Mask of the rows of the nrows-row integer matrix with entries vals at (rows, cols) that
    map some vector to nonzero, exactly over Z (int64 only where no sum can overflow); the
    vectors are given by their entries (column, vector, value), and each takes one pass over
    the matrix entries."""
    at, which, value = vectors
    out = np.zeros(nrows, dtype=bool)
    if not value.size or not vals.size:
        return out
    worst = int(max(-vals.min(), vals.max())) * int(max(-value.min(), value.max())) * int(np.bincount(rows).max())
    dtype = np.int64 if worst < 2**63 else object
    vals, size = vals.astype(dtype, copy=False), int(max(cols.max(), at.max())) + 1
    for k in range(int(which.max()) + 1):
        here, vector = which == k, np.zeros(size, dtype=dtype)
        vector[at[here]] = value[here]
        image = np.zeros(nrows, dtype=dtype)
        np.add.at(image, rows, vals * vector[cols])
        out |= image != 0
    return out


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


def _kernel_certificate(matrix: SparseMatrix, comp: np.ndarray, bound: int | None,
                        primes: list[int], start: tuple) -> RankCertificate | None:
    """Rank certified by kernel vectors verified over Z, primes drawn from
    _lift_primes(primes); None only if the guard below fires.

    ``comp`` labels the components of the exact pattern (_components), so an entry that
    vanishes mod p stays in its block as a zero; ``start`` is what _reference left at
    primes[0].  Only the short components' full blocks are laid out and budgeted: no other
    block is eliminated here.  Each block short of full row rank mod its reference prime
    (at first primes[0]) gets one kernel vector per free column of its reduced echelon
    form (see _echelons), lifted by rational reconstruction and checked against the
    block's exact triplets; all such blocks together, so a round is one _lift and one
    _annihilates.  A block whose vectors fail meets the next prime p under one rule: a
    larger rank, or the same rank with a lexicographically earlier pivot set, makes p its
    reference (modulus p); the same rank and set joins p's residues by CRT; anything else
    skips p for the block.

    A block starts from its projected block when that is its full block minus some rows:
    rows of the full rank mod p span the same row space, so give the same vectors; rows of
    a lower rank r' give w - r' > w - rank_Q independent vectors, which cannot all pass.  A
    failed trial start (one that lost rows) and every other short block (skipped by the
    mirror, or narrowed) is eliminated on its full rows at primes[0] before a later prime.

    The guard -- a modulus past 2 H^2, H the block's Hadamard bound, while its vectors
    still fail (H from _hadamard_log2) -- cannot fire; a failed trial start meets it only
    once its full rows are eliminated.  Mod p each leading range of columns has at most
    its rational rank, so a prime shows at most the rational rank r and, at rank r, an
    i-th pivot column no earlier than the rational one: the rational (rank, pivot set) is
    the best.  A prime showing less divides a nonzero minor (every r x r one, or
    every k x k one of the columns up to the k-th rational pivot, the first it misses),
    so the primes of one such outcome multiply to at most H: an unlucky reference and its
    CRT partners have a modulus of at most H, and after finitely many primes a lucky one
    becomes the reference for good.  Its reduced echelon form, and each partner's, is the
    rational one mod p, whose kernel vectors are minors over a common minor, at most H;
    reconstruction finds them once the modulus passes 2 H^2.

    A rank sum above ``bound`` proves the bound invalid and raises.  The certificate's
    primes are those consulted, in order.
    """
    rank, pending, fresh, trial, pivot, (col, slot, res) = start
    lay, vals = _layout(matrix.rows, matrix.cols, comp, pending), matrix.vals
    hadamard = _hadamard_log2(lay, matrix)
    gen = _lift_primes(primes)
    used = [next(gen)]
    ncomp = lay.h.size
    owner, howner = np.repeat(np.arange(ncomp), lay.w), np.repeat(np.arange(ncomp), lay.h)
    # each triplet's row and column among the blocks laid side by side
    brow, bcol = (np.cumsum(lay.h) - lay.h)[lay.comp] + lay.li, (np.cumsum(lay.w) - lay.w)[lay.comp] + lay.lj
    modulus = np.full(ncomp, used[0], dtype=object)
    none, vectors = np.zeros(ncomp, dtype=bool), 0
    p, elim = used[0], pending & ~fresh  # to eliminate on full rows at primes[0], with failed trials
    while True:
        total = _within(int(rank.sum()), bound)
        entry = owner[col]  # the component of each kernel vector entry
        if fresh.any():
            live = np.flatnonzero(fresh[entry])  # the entries of the fresh components
            lifted, num = _lift(res[live], modulus, entry[live], slot[live])
            check = fresh & lifted
            mask, sure = check[lay.comp], check[entry[live]]
            at = live[sure]
            bad = _annihilates(brow[mask], bcol[mask], vals[mask], howner.size, (col[at], slot[at], num[sure]))
            done = check & (np.bincount(howner[bad], minlength=ncomp) == 0)
            vectors += int((lay.w - rank)[done].sum())
            pending = pending & ~done
            over = fresh & ~done & ~trial
            if any(log2(m) > 2 * h + 1 for m, h in zip(modulus[over].tolist(), hadamard[over].tolist())):
                return None
            elim, trial = elim | (fresh & ~done & trial), none
        if not elim.any():
            if not pending.any():
                return RankCertificate(total, "kernel-verified", tuple(used), True, True, bound, vectors)
            p, elim = next(gen), pending
            used.append(p)
        if p == used[0]:  # again, on full rows: the rank they show replaces the start's
            rank[elim] = -1
        later, pivots, (column, place, new) = _echelons(lay, matrix.residues(p), p, (lay.h, lay.w), elim)
        # a block's first column in one pivot set but not the other decides which set is earlier
        differ = np.flatnonzero((pivots != pivot) & elim[owner])
        blocks, first = np.unique(owner[differ], return_index=True)
        earlier, moved = np.zeros(ncomp, dtype=bool), np.zeros(ncomp, dtype=bool)
        earlier[blocks], moved[blocks] = pivots[differ[first]], True
        better = elim & ((later > rank) | ((later == rank) & earlier))
        same = elim & (later == rank) & ~moved
        if same.any():
            live = np.flatnonzero(same[entry])  # the same entries as same[owner[column]], in order
            inv = np.zeros(ncomp, dtype=np.int64)
            inv[same] = [pow(m % p, -1, p) for m in modulus[same].tolist()]
            t = (new[same[owner[column]]] - (res[live] % p).astype(np.int64)) % p * inv[entry[live]] % p
            res = res.astype(object)
            res[live] += t.astype(object) * modulus[entry[live]]
            modulus[same] *= p
        if better.any():
            rank[better], modulus[better], pivot[better[owner]] = later[better], p, pivots[better[owner]]
            keep, take = ~better[entry], better[owner[column]]
            col, slot = np.concatenate((col[keep], column[take])), np.concatenate((slot[keep], place[take]))
            res = np.concatenate((res[keep], new[take].astype(res.dtype)))
            order = np.lexsort((slot, col))
            col, slot, res = col[order], slot[order], res[order]
            pending = pending & (rank < lay.h)
        fresh, elim = (same | better) & pending, none


# ---------------------------------------------------------------------------
# public operations


def rational_rank(matrix: SparseMatrix, oracle_cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Exact rank over Q: the number of rows that :func:`echelon`, without its back pass,
    leaves of a dense copy of the rows that hold an entry.  Raises ResourceLimitError
    over ``oracle_cap`` columns; before anything is copied, the copy, held rows times
    columns cells, goes to check_budget."""
    if matrix.ncols > oracle_cap:
        raise ResourceLimitError(
            f"rational elimination capped at {oracle_cap} columns, matrix has {matrix.ncols}"
        )
    held, local = np.unique(matrix.rows, return_inverse=True)
    check_budget(held.size * matrix.ncols, f"the oracle's copy of {held.size} dense rows of {matrix.ncols} cells")
    copy = SparseMatrix(held.size, matrix.ncols, _raw=(local, matrix.cols, matrix.idx, matrix.coeffs))
    return len(echelon(copy.to_dense_rows(), None, reduced=False))


def _within(value: int, bound: int | None) -> int:
    """The rank, once checked against the caller's bound: a rank above it proves it invalid."""
    if bound is not None and value > bound:
        raise InvalidInputError(f"computed rank {value} exceeds declared structural bound {bound}; "
                                "the bound is invalid")
    return value


def rank(
    matrix: SparseMatrix,
    fieldspec: FieldSpec | None,
    *,
    structural_bound: int | None = None,
    primes: Sequence[int] = DEFAULT_PRIMES,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> RankCertificate:
    """Rank certificate for ``matrix``: over Q by the oracle under ``oracle_cap``, over
    F_p for ``PrimeField(p)``, and with ``fieldspec=None`` certified exact over Q.

    ``structural_bound`` is a caller-known upper bound on the rational rank; a modular
    rank attaining it (or min(nrows, ncols)) is certified exact.  The elimination always
    runs to completion, so an invalid bound raises whenever the computed rank exceeds it.

    With ``fieldspec=None`` every given prime must be valid (see :class:`PrimeField`).
    The rank mod primes[0] is returned when it reaches the bound.  Short of it, the
    kernel certificate, with the further given primes as its first lift primes, proves
    the rational rank ("kernel-verified"), which a later prime may show larger than the
    rank mod primes[0].  Only if its guard fires, which the argument in
    :func:`_kernel_certificate` rules out, is the rank mod primes[0] returned uncertified.
    """
    if matrix.nnz == 0 and structural_bound is None:
        structural_bound = 0  # structurally empty: rank 0 over every field
    if isinstance(fieldspec, Rational):
        value = _within(rational_rank(matrix, oracle_cap), structural_bound)
        return RankCertificate(value, "rational-exact", (), True, True, structural_bound)
    if fieldspec is None and not primes:
        raise InvalidInputError("the automatic rank needs at least one prime")
    given = [fieldspec.p] if fieldspec is not None else [PrimeField(p).p for p in primes]
    comp = _components(matrix.rows, matrix.cols, matrix.nrows)
    start = _reference(matrix, given[0], comp, fieldspec is None) if comp.size else None
    value = _within(int(start[0].sum()) if comp.size else 0, structural_bound)
    exact = value >= min(matrix.shape + (() if structural_bound is None else (structural_bound,)))
    cert = RankCertificate(value, "single-prime", (given[0],), True, exact, structural_bound)
    if fieldspec is not None or exact:
        return cert
    if not comp.size:  # no entry, so every vector is in the kernel
        return RankCertificate(0, "kernel-verified", cert.primes, True, True, structural_bound)
    return _kernel_certificate(matrix, comp, structural_bound, given, start) or cert


def annihilates(matrix: SparseMatrix, vectors: Sequence[Sequence[int]]) -> bool:
    """Whether matrix @ v = 0 for every integer vector v, checked exactly over Z."""
    basis = np.array([[int(x) for x in v] for v in vectors], dtype=object).reshape(-1, matrix.ncols)
    which, at = np.nonzero(basis)
    return not _annihilates(matrix.rows, matrix.cols, matrix.vals, matrix.nrows, (at, which, basis[which, at])).any()


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
