"""Exact sparse linear algebra with certification semantics.

Rank and nullspace are computed either over the rationals (fraction-free
elimination on a dense copy, the ground-truth oracle) or over a prime
field F_p with p an odd prime below 2^31.

Certification: for an integer matrix, the rank mod p never exceeds the
rational rank (a nonzero minor mod p is nonzero over Z), so modular ranks
are certified lower bounds.  They become certified exact when they attain
a structural upper bound -- either min(nrows, ncols) or a cap supplied by
the caller.  Rational ranks are exact by construction.

The modular engine eliminates each connected component of the bipartite
nonzero pattern on a dense float64 block of balanced residues: blocks of
at most _BASE rows stacked by shape, larger ones panel by panel (recursive
Gauss-Jordan of the panel, then elimination from the rows below).
Reduction x - rint(x/p)*p leaves |x| <= (p+3)/2 <= 2^30 + 1 (the rounded
quotient may be off by one).  Each update t <- t - C*E (mod p), C with
k <= _PANEL columns, is one GEMM [C | 2^16*C mod p] @ [E_lo ; E_hi] with
E = E_lo + 2^16*E_hi, |E_lo| <= 2^15, |E_hi| <= 2^14, so every partial
sum, and the rint(x/p)*p that reduces it, is an integer below

    (2^30 + 1) * (1 + 3 * k * 2^14) + 2^30  <  2^53     for k <= 170,

exact in float64 for every prime PrimeField accepts.  A component whose
block and workspace exceed _DENSE_BYTES raises ResourceLimitError first.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidInputError, ResourceLimitError

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


def field_from_json(data) -> FieldSpec:
    if data == "rational":
        return Rational()
    if isinstance(data, dict) and set(data) == {"prime"}:
        return PrimeField(int(data["prime"]))
    raise InvalidInputError(f"unrecognized field spec: {data!r}")


@dataclass(frozen=True)
class RankCertificate:
    """A rank value together with how it was obtained and what it proves."""

    rank: int
    mode: str  # "rational-exact" | "single-prime" | "multi-prime"
    primes: tuple[int, ...] = ()
    certified_lower_bound: bool = True
    certified_exact: bool = False
    structural_bound: int | None = None

    def __post_init__(self):
        if self.mode == "rational-exact" and not self.certified_exact:
            raise InvalidInputError("rational-exact certificates are always exact")
        if self.certified_exact and not self.certified_lower_bound:
            raise InvalidInputError("exact implies lower bound")
        if self.mode in ("single-prime", "multi-prime") and not self.primes:
            raise InvalidInputError("modular certificate without primes")

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "mode": self.mode,
            "primes": list(self.primes),
            "certified_lower_bound": self.certified_lower_bound,
            "certified_exact": self.certified_exact,
            "structural_bound": self.structural_bound,
        }

    @staticmethod
    def from_json(data: dict) -> "RankCertificate":
        return RankCertificate(
            rank=int(data["rank"]),
            mode=data["mode"],
            primes=tuple(int(p) for p in data.get("primes", [])),
            certified_lower_bound=bool(data["certified_lower_bound"]),
            certified_exact=bool(data["certified_exact"]),
            structural_bound=data.get("structural_bound"),
        )


class SparseMatrix:
    """Immutable sparse matrix in triplet form with a compiled column view.

    Values are exact: Python ints or Fractions.  Integer matrices with
    entries fitting int64 are carried as numpy arrays; anything else stays
    in object storage.  Instances should not be mutated after creation.
    """

    __slots__ = ("nrows", "ncols", "rows", "cols", "vals")

    def __init__(self, nrows: int, ncols: int, triplets: Iterable[tuple] = (), *, _raw=None):
        if nrows < 0 or ncols < 0:
            raise InvalidInputError("negative matrix extent")
        self.nrows = nrows
        self.ncols = ncols
        if _raw is not None:
            self.rows, self.cols, self.vals = _raw
            return
        rows, cols, vals = [], [], []
        for r, c, v in triplets:
            if v == 0:
                raise InvalidInputError(f"explicit zero entry at ({r}, {c})")
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise InvalidInputError(f"entry ({r}, {c}) out of range")
            rows.append(r)
            cols.append(c)
            vals.append(v)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        if all(isinstance(v, int) and abs(v) < 2**62 for v in vals):
            self.vals = np.asarray(vals, dtype=np.int64)
        else:
            self.vals = list(vals)
        self._check_duplicates()

    @staticmethod
    def from_arrays(nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "SparseMatrix":
        """Fast construction from parallel int64 arrays (still validated)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.int64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols:
                raise InvalidInputError("entry out of range")
            if not vals.all():
                raise InvalidInputError("explicit zero entry")
        m = SparseMatrix(nrows, ncols, _raw=(rows, cols, vals))
        m._check_duplicates()
        return m

    def _check_duplicates(self):
        if len(self.rows) < 2:
            return
        order = np.lexsort((self.rows, self.cols))
        r, c = self.rows[order], self.cols[order]
        if np.any((r[1:] == r[:-1]) & (c[1:] == c[:-1])):
            raise InvalidInputError("duplicate (row, col) entry")

    @property
    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    @property
    def nnz(self) -> int:
        return len(self.rows)

    def is_integer(self) -> bool:
        return isinstance(self.vals, np.ndarray) or all(
            isinstance(v, int) or (isinstance(v, Fraction) and v.denominator == 1) for v in self.vals
        )

    def value_list(self) -> list:
        return self.vals.tolist() if isinstance(self.vals, np.ndarray) else list(self.vals)

    def transpose(self) -> "SparseMatrix":
        vals = self.vals.copy() if isinstance(self.vals, np.ndarray) else list(self.vals)
        return SparseMatrix(self.ncols, self.nrows, _raw=(self.cols.copy(), self.rows.copy(), vals))

    def to_dense_rows(self) -> list[list]:
        dense = [[0] * self.ncols for _ in range(self.nrows)]
        for r, c, v in zip(self.rows.tolist(), self.cols.tolist(), self.value_list()):
            dense[r][c] = v
        return dense

    def cleared_to_integers(self) -> "SparseMatrix":
        """Scale each column by the lcm of its denominators (rank-preserving)."""
        if self.is_integer():
            vals = self.vals if isinstance(self.vals, np.ndarray) else [int(v) for v in self.vals]
            if isinstance(vals, np.ndarray):
                return self
            return SparseMatrix(self.nrows, self.ncols, _raw=(self.rows, self.cols, vals))
        scale: dict[int, int] = {}
        for c, v in zip(self.cols.tolist(), self.vals):
            f = Fraction(v)
            scale[c] = lcm(scale.get(c, 1), f.denominator)
        vals = [int(Fraction(v) * scale[c]) for c, v in zip(self.cols.tolist(), self.vals)]
        out = SparseMatrix(self.nrows, self.ncols, _raw=(self.rows, self.cols, vals))
        if all(abs(v) < 2**62 for v in vals):
            out.vals = np.asarray(vals, dtype=np.int64)
        return out

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
        """Content hash of the canonically sorted triplet serialization."""
        order = np.lexsort((self.rows, self.cols))
        vals = self.value_list()
        parts = [f"{self.nrows}x{self.ncols}"]
        parts.extend(
            f"{self.rows[i]},{self.cols[i]},{vals[i]}" for i in order.tolist()
        )
        if fieldspec is not None:
            parts.append(fieldspec.token())
        return hashlib.sha256(";".join(parts).encode()).hexdigest()

    def reduced_mod(self, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer-cleared entries reduced into [0, p), zeros dropped."""
        m = self.cleared_to_integers()
        if isinstance(m.vals, np.ndarray):
            vals = m.vals % p
        else:
            vals = np.asarray([v % p for v in m.vals], dtype=np.int64)
        keep = vals != 0
        return m.rows[keep], m.cols[keep], vals[keep]


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


def _clear_columns(dense: list[list]) -> list[list[int]]:
    """Column-wise denominator clearing of a dense rational matrix."""
    if not dense:
        return []
    ncols = len(dense[0])
    scale = [1] * ncols
    for row in dense:
        for j, v in enumerate(row):
            if isinstance(v, Fraction) and v.denominator != 1:
                scale[j] = lcm(scale[j], v.denominator)
    return [[int(Fraction(v) * scale[j]) for j, v in enumerate(row)] for row in dense]


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
    """Label of each triplet's connected component of the nonzero pattern."""
    parent = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for r, c in zip(rows.tolist(), cols.tolist()):
        a, b = find(r), find(nrows + c)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return np.unique([find(r) for r in rows.tolist()], return_inverse=True)[1]


def _local_index(ids: np.ndarray, comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's row (or column) position within its component, and the count per component."""
    uniq, inverse = np.unique(ids, return_inverse=True)
    owner = np.empty(uniq.size, dtype=np.int64)
    owner[inverse] = comp
    order = np.argsort(owner, kind="stable")
    counts = np.bincount(owner)
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


def _block_rank(block: np.ndarray, p: int, cap: int) -> int:
    """Rank of one component's block, stopping once it reaches cap: each panel is put in
    reduced echelon form, then eliminated from the rows below, 2*_PANEL at a time."""
    rank = 0
    for i0 in range(0, block.shape[0], _PANEL):
        panel = block[i0:i0 + _PANEL]
        r, cols = _jordan(panel, p)
        rank += r
        if rank >= cap:
            break
        es = _split(panel[:r])
        for j in range(i0 + _PANEL, block.shape[0], 2 * _PANEL):
            rows = block[j:j + 2 * _PANEL]
            _update(rows, rows[:, cols], es, p)
    return rank


def _rank_mod_p(matrix: SparseMatrix, p: int, cap: int) -> int:
    rows, cols, vals = matrix.reduced_mod(p)
    if rows.size == 0:
        return 0
    comp = _components(rows, cols, matrix.nrows)
    lr, nr = _local_index(rows, comp)
    lc, nc = _local_index(cols, comp)
    flip = (nr > nc)[comp]  # a block's rows run along its component's shorter side
    li, lj = np.where(flip, lc, lr), np.where(flip, lr, lc)
    h, w = np.minimum(nr, nc), np.maximum(nr, nc)
    big = h > _BASE
    need = 8 * w * (h + 6 * _PANEL * big)  # block, and for big ones panel split and update scratch
    if need.max() > _DENSE_BYTES:
        k = int(need.argmax())
        raise ResourceLimitError(f"component of shape {nr[k]}x{nc[k]} needs {need[k]} bytes "
                                 f"for dense elimination, over the budget of {_DENSE_BYTES}")
    values = (vals - p * (vals > p // 2)).astype(np.float64)
    # small components are stacked by shape; each large one is eliminated alone
    ckey = np.where(big, np.arange(h.size) - h.size, h * (int(w.max()) + 1) + w)
    _, first, count = np.unique(ckey, return_index=True, return_counts=True)
    buf = np.empty(int((count * h[first] * w[first]).max()))  # reused: no heap churn
    order = np.argsort(ckey[comp], kind="stable")
    total = 0
    for sel in np.split(order, np.flatnonzero(np.diff(ckey[comp[order]])) + 1):
        if total >= cap:
            break
        batch, slot = np.unique(comp[sel], return_inverse=True)
        shape = (batch.size, h[batch[0]], w[batch[0]])
        stack = buf[:np.prod(shape)].reshape(shape)
        stack.fill(0)
        stack[slot, li[sel], lj[sel]] = values[sel]
        if big[batch[0]]:
            total += _block_rank(stack[0], p, cap - total)
        else:
            total += int(np.count_nonzero(_jordan_base(stack, p) >= 0))
    return total


# ---------------------------------------------------------------------------
# public operations


def rational_rank(matrix: SparseMatrix, oracle_cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Exact rank over Q by fraction-free elimination on a dense copy."""
    if matrix.ncols > oracle_cap:
        raise ResourceLimitError(
            f"rational elimination capped at {oracle_cap} columns, matrix has {matrix.ncols}"
        )
    dense = matrix.to_dense_rows()
    if not matrix.is_integer():
        dense = _clear_columns(dense)
    else:
        dense = [[int(v) for v in row] for row in dense]
    return bareiss_rank(dense)


def rank(
    matrix: SparseMatrix,
    fieldspec: FieldSpec,
    *,
    structural_bound: int | None = None,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    cache: "RankCache | None" = None,
) -> RankCertificate:
    """Rank certificate for ``matrix`` over the given field.

    ``structural_bound`` is a caller-known upper bound on the rational
    rank; a modular rank attaining it (or min(nrows, ncols)) is promoted
    to certified-exact.  The bound must genuinely hold: it doubles as an
    early-exit cap, so an invalid bound is only detected (and raised)
    when the elimination happens to contradict it.
    """
    if matrix.nnz == 0 and structural_bound is None:
        structural_bound = 0  # structurally empty: rank 0 over every field
    key = None
    if cache is not None:
        key = matrix.canonical_key(fieldspec)
        hit = cache.get(key)
        if hit is not None:
            return _certify(hit, fieldspec, matrix, structural_bound)
    if isinstance(fieldspec, Rational):
        value = rational_rank(matrix, oracle_cap)
    else:
        cap = min(matrix.nrows, matrix.ncols)
        if structural_bound is not None:
            cap = min(cap, structural_bound)
        value = _rank_mod_p(matrix, fieldspec.p, cap)
    if structural_bound is not None and value > structural_bound:
        raise InvalidInputError(
            f"computed rank {value} exceeds declared structural bound "
            f"{structural_bound}; the bound is invalid"
        )
    if cache is not None:
        cache.put(key, value)
    return _certify(value, fieldspec, matrix, structural_bound)


def _certify(value: int, fieldspec: FieldSpec, matrix: SparseMatrix, structural_bound: int | None) -> RankCertificate:
    if isinstance(fieldspec, Rational):
        return RankCertificate(value, "rational-exact", (), True, True, structural_bound)
    bound = min(matrix.nrows, matrix.ncols)
    if structural_bound is not None:
        bound = min(bound, structural_bound)
    return RankCertificate(
        value,
        "single-prime",
        (fieldspec.p,),
        True,
        value >= bound,
        structural_bound,
    )


def multi_prime_rank(
    matrix: SparseMatrix,
    primes: Sequence[int],
    *,
    structural_bound: int | None = None,
    cache: "RankCache | None" = None,
) -> RankCertificate:
    """Best modular lower bound over several primes (early exit on exactness)."""
    if not primes:
        raise InvalidInputError("multi_prime_rank needs at least one prime")
    best = -1
    used: list[int] = []
    bound = min(matrix.nrows, matrix.ncols)
    if structural_bound is not None:
        bound = min(bound, structural_bound)
    for p in primes:
        cert = rank(matrix, PrimeField(p), structural_bound=structural_bound, cache=cache)
        used.append(p)
        best = max(best, cert.rank)
        if best >= bound:
            break
    return RankCertificate(
        best,
        "multi-prime",
        tuple(used),
        True,
        best >= bound,
        structural_bound,
    )


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
    """Line-delimited JSON cache of rank values keyed by matrix content hash."""

    FILENAME = "rank-cache.jsonl"

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, self.FILENAME)
        self._mem: dict[str, int] | None = None

    def _load(self) -> dict[str, int]:
        if self._mem is None:
            self._mem = {}
            if os.path.exists(self.path):
                with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
                    for line in fh:
                        try:
                            record = json.loads(line)
                            self._mem[record["key"]] = int(record["rank"])
                        except (ValueError, KeyError, TypeError):
                            continue  # a torn or foreign line is a miss
        return self._mem

    def get(self, key: str) -> int | None:
        return self._load().get(key)

    def put(self, key: str, value: int) -> None:
        mem = self._load()
        if mem.get(key) == value:
            return
        mem[key] = value
        record = json.dumps({"key": key, "rank": value}) + "\n"
        with open(self.path, "ab+") as fh:
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    record = "\n" + record  # never glue onto a torn last line
            fh.write(record.encode())
