"""Koszul differentials and graded dimensions of the modules W(V,K).

For a subspace K of Wedge^2 V the module W(V,K) is the cokernel of the
composite Wedge^3 V (x) Sym -> (Wedge^2 V / K) (x) Sym of the Koszul
differential with the quotient projection; it is generated in degree 0.
Exactness of the Koszul complex turns its degree-q dimension into a
single rank:

    dim W_q = dim Im(delta_{2,q}) - rank(delta_{2,q} restricted to K),

where dim Im(delta_{2,q}) = n C(n+q, q+1) - C(n+q+1, q+2) in closed form.
The restricted matrix is the only input-dependent object, and the closed
form holds over every coefficient field, so a modular rank that attains
min(#columns, dim Im) certifies the dimension exactly over Q (hence over
C for rationally defined K); in particular certified zeros are rigorous.
A modular rank short of that bound is certified by kernel vectors of the
restricted matrix verified over Z (:func:`koszul.linalg.rank` with no field).

The differentials follow the sign rule

    delta_p(v_1 ^ ... ^ v_p (x) f) =
        sum_j (-1)^(j-1) v_1 ^ ... v_j-hat ... ^ v_p (x) v_j f,

so e.g. delta_2(e_i ^ e_j (x) f) = e_j (x) x_i f - e_i (x) x_j f.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb

import numpy as np

from .bases import multiply_rank_table, pair_rank, pair_unrank, reverse_rank_table, sym_dim, triple_unrank
from .errors import InvalidInputError, KoszulError
from .linalg import (
    DEFAULT_ORACLE_CAP,
    DEFAULT_PRIMES,
    FieldSpec,
    PrimeField,
    RankCache,
    RankCertificate,
    Rational,
    SparseMatrix,
    check_budget,
    rank,
)
from .subspaces import SubspaceK, kperp_basis


def koszul_differential(p: int, n: int, q: int) -> SparseMatrix:
    """Matrix of delta_{p,q}: Wedge^p V (x) Sym^q V -> Wedge^{p-1} V (x) Sym^{q+1} V.

    Bases are ordered blockwise: column (w, a) sits at w * sym_dim(n, q) + a
    with w the colex rank of the wedge factor, and likewise for rows.
    Columns carry exactly p nonzeros with values +-1.
    """
    if p not in (1, 2, 3):
        raise InvalidInputError(f"p must be 1, 2 or 3, got {p}")
    if n < 2 or q < 0:
        raise InvalidInputError(f"need n >= 2 and q >= 0, got (n, q) = ({n}, {q})")
    symq = sym_dim(n, q)
    sym1 = sym_dim(n, q + 1)
    mult = multiply_rank_table(n, q)
    span = np.arange(symq, dtype=np.int64)
    rows, cols, vals = [], [], []

    def emit(row_block: int, col_block: int, j_var: int, sign: int):
        rows.append(row_block * sym1 + mult[j_var])
        cols.append(col_block * symq + span)
        vals.append(np.full(symq, sign, dtype=np.int64))

    if p == 1:
        for i in range(n):
            emit(0, i, i, 1)
        nrows = sym1
        ncols = n * symq
    elif p == 2:
        for w in range(comb(n, 2)):
            i, j = pair_unrank(n, w)
            emit(j, w, i, 1)
            emit(i, w, j, -1)
        nrows = n * sym1
        ncols = comb(n, 2) * symq
    else:
        for w in range(comb(n, 3)):
            i, j, k = triple_unrank(n, w)
            emit(pair_rank(j, k), w, i, 1)
            emit(pair_rank(i, k), w, j, -1)
            emit(pair_rank(i, j), w, k, 1)
        nrows = comb(n, 2) * sym1
        ncols = comb(n, 3) * symq
    if not rows:
        return SparseMatrix(nrows, ncols, [])
    return SparseMatrix.from_arrays(
        nrows, ncols, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )


def im_delta2_dim(n: int, q: int) -> int:
    """Closed-form dimension of the image of delta_{2,q}: by exactness it
    equals dim(V (x) Sym^{q+1}) - dim Sym^{q+2}."""
    if n < 2 or q < 0:
        raise InvalidInputError(f"need n >= 2 and q >= 0, got (n, q) = ({n}, {q})")
    return n * comb(n + q, q + 1) - comb(n + q + 1, q + 2)


def verify_im_delta2_dim(n: int, q: int, fieldspec: FieldSpec | None = None) -> RankCertificate:
    """Recompute rank(delta_{2,q}) over the field (None: automatic, as for :func:`w_dim`)
    and check it against the closed form."""
    expected = im_delta2_dim(n, q)
    cert = rank(koszul_differential(2, n, q), fieldspec, structural_bound=expected)
    if cert.rank != expected:
        raise KoszulError(
            f"rank(delta_2) = {cert.rank} ({cert.mode}) disagrees "
            f"with the closed form {expected} at (n, q) = ({n}, {q})"
        )
    return cert


def hilbert_bound(n: int, q: int) -> int:
    """Sharp upper bound for dim W_q under vanishing resonance.

    C(n+q-1, q) (n-2)(n-q-3) / (q+2) for q <= n-4, zero from q = n-3 on;
    equality holds in the borderline case m = 2n-3.  Always an integer.
    """
    if n < 3:
        raise InvalidInputError(f"need n >= 3, got n={n}")
    if q < 0:
        raise InvalidInputError(f"need q >= 0, got q={q}")
    if q >= n - 3:
        return 0
    num = comb(n + q - 1, q) * (n - 2) * (n - q - 3)
    if num % (q + 2):
        raise KoszulError(f"bound formula not integral at (n, q) = ({n}, {q})")
    return num // (q + 2)


def divisorial_defect(n: int, m: int, q: int) -> int:
    """dim Im(delta_{2,q}) - m * dim Sym^q: source/target size gap of the
    restricted map.  Zero iff the map is square (the divisorial case)."""
    return im_delta2_dim(n, q) - m * sym_dim(n, q)


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of each pair e_i ^ e_j, i < j, at its colex rank i + C(j, 2)."""
    j = np.repeat(np.arange(n), np.arange(n))
    return np.arange(j.size) - j * (j - 1) // 2, j


def _entries(subspace: SubspaceK) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of K's integer basis in row order: (basis vector, pair rank,
    value), the values Python ints in an object array."""
    width = comb(subspace.n, 2)
    cells = np.fromiter(chain.from_iterable(subspace.int_basis), dtype=object, count=subspace.effective_m * width)
    at = np.flatnonzero(cells)
    return (*np.divmod(at, width), cells[at])


def _reversal(subspace: SubspaceK, q: int, entries: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The index reversal e_i -> e_{n-1-i} on the rows and columns of the restricted
    matrix, when it maps every integer basis vector of a rational K, given by its
    ``entries`` (_entries), to +- another one (checked exactly): (row map, column map,
    column signs), else None."""
    if not isinstance(subspace.field, Rational):
        return None
    n, (s, t, vals) = subspace.n, entries
    # e_i ^ e_j -> e_{n-1-i} ^ e_{n-1-j} = -(e_{n-1-j} ^ e_{n-1-i})
    i, j = _pairs(n)
    flipped = n - 1 - j + (n - 1 - i) * (n - 2 - i) // 2
    bounds = np.cumsum(np.bincount(s, minlength=subspace.effective_m))[:-1]

    def vectors(cols, values):  # each vector as its columns and its values, in column order
        return zip(map(tuple, np.split(cols, bounds)), map(tuple, np.split(values, bounds)))

    # a canonical basis vector leads with a positive entry, so the sign that makes an
    # image's leading entry positive is the only one that can make it a basis vector
    order = np.lexsort((flipped[t], s))
    sign = np.where(vals[order[np.r_[0, bounds]]] < 0, 1, -1)
    index = {key: k for k, key in enumerate(vectors(t, vals))}
    target = [index.get(key, -1) for key in vectors(flipped[t[order]], -vals[order] * sign[s[order]])]
    if -1 in target:
        return None
    rev_q, rev_1 = reverse_rank_table(n, q), reverse_rank_table(n, q + 1)
    symq, sym1 = rev_q.size, rev_1.size
    rows = ((n - 1 - np.arange(n))[:, None] * sym1 + rev_1).ravel()
    cols = (np.array(target, dtype=np.int64)[:, None] * symq + rev_q).ravel()
    return rows, cols, np.repeat(sign.astype(np.int64), symq)


def restricted_delta2(subspace: SubspaceK, q: int) -> SparseMatrix:
    """Matrix of delta_{2,q} restricted to K (x) Sym^q V.

    Column (s, a) is the image of the s-th basis vector of K times the
    degree-q monomial of rank a; entries are integers for every canonical
    subspace (its one basis, ``int_basis``, is integral).

    When the index reversal e_i -> e_{n-1-i} maps each integer basis vector
    k_s of a rational K to eps_s k_s' (eps_s = +-1), as it does for Weyman's
    K, the matrix carries the induced candidate map as ``mirror``: row
    (j, b) -> (n-1-j, rev b), column (s, a) -> (s', rev a) with sign eps_s,
    rev the reversal of monomials.  Delta_2 commutes with the reversal, so
    the map sends the matrix onto itself; the modular engine still checks
    that exactly before it uses the map (:mod:`koszul.linalg`).

    Every matrix also carries the row mask ``spare``: row (j, b) is spare
    iff j <= min var(b), i.e. x_j is the smallest variable of x_j b, so
    there is one spare row per monomial M of degree q+2 and
    im_delta2_dim(n, q) rows are kept.  By exactness the columns lie in
    ker(delta_1 : V (x) Sym^{q+1} -> Sym^{q+2}), on which the projection
    onto the kept rows is injective over every field: a vector of
    ker delta_1 that vanishes off the spare rows has delta_1(v)_M =
    v_(j(M), M/x_j(M)) = 0 for every M.  The modular engine leaves the spare
    rows out of its blocks but never trusts the mask for an upper bound.
    The mask is not stable under the reversal (which sends the smallest
    variable to the largest), which is why it masks rows of the full
    matrix rather than leaving them out of it.
    """
    n = subspace.n
    if q < 0:
        raise InvalidInputError(f"need q >= 0, got q={q}")
    symq = sym_dim(n, q)
    sym1 = sym_dim(n, q + 1)
    mult = multiply_rank_table(n, q)
    span = np.arange(symq, dtype=np.int64)
    nrows, ncols = n * sym1, subspace.effective_m * symq
    s, t, vals = entries = _entries(subspace)
    if not s.size:
        return SparseMatrix(nrows, ncols, [])
    # an entry c of k_s at e_i ^ e_j puts c at row (j, x_i a) and -c at row (i, x_j a) of column (s, a)
    i, j = (part[t] for part in _pairs(n))
    coeffs = sorted(set(vals.tolist()) | set((-vals).tolist()))
    pos = {c: k for k, c in enumerate(coeffs)}
    rows = np.stack((j[:, None] * sym1 + mult[i], i[:, None] * sym1 + mult[j]), axis=1)
    cols = np.broadcast_to((s * symq)[:, None, None] + span, rows.shape)
    idx = np.broadcast_to(np.array([[pos[c], pos[-c]] for c in vals.tolist()])[:, :, None], rows.shape)
    matrix = SparseMatrix.from_arrays(nrows, ncols, rows.ravel(), cols.ravel(), idx.ravel(), coeffs)
    matrix.mirror = _reversal(subspace, q, entries)
    low = np.full(sym1, n)  # the smallest variable of each degree-(q+1) monomial
    for j in range(n - 1, -1, -1):
        low[mult[j]] = j
    matrix.spare = (np.arange(n)[:, None] <= low).ravel()
    return matrix


@dataclass(frozen=True)
class WDimension:
    """Graded dimension of W(V,K) in one degree, with its rank certificate."""

    q: int
    dim: int
    certificate: RankCertificate

    @property
    def certified(self) -> bool:
        return self.certificate.certified_exact

    def to_json(self) -> dict:
        return {"q": self.q, "dim": self.dim, "certificate": self.certificate.to_json()}


def _field(subspace: SubspaceK, fieldspec: FieldSpec | None) -> FieldSpec | None:
    """The field of a rank over K: K's own prime field, else the caller's (None: automatic)."""
    if isinstance(subspace.field, PrimeField) and fieldspec not in (None, subspace.field):
        raise InvalidInputError(
            f"subspace is defined over {subspace.field.token()}, cannot compute over {fieldspec.token()}"
        )
    return subspace.field if isinstance(subspace.field, PrimeField) else fieldspec


def _cache_key(subspace: SubspaceK, q: int, fieldspec: FieldSpec | None, primes) -> str:
    """What a degree's certificate depends on: the content hash of K's m x C(n,2)
    integer basis over K's field, q, and the field: "auto" with the primes, or the
    forced field's token alone (its rank reads no further prime, and the oracle cap
    only bounds work, which a hit does not do)."""
    basis = SparseMatrix.from_arrays(subspace.effective_m, comb(subspace.n, 2), *_entries(subspace))
    field = f"auto;{','.join(map(str, primes))}" if fieldspec is None else fieldspec.token()
    return f"{basis.canonical_key(subspace.field)};q={q};{field}"


def _answers(cert: RankCertificate, bound: int, fieldspec: FieldSpec | None, primes) -> bool:
    """Whether a cached certificate can answer this request: a rank in [0, bound] for this
    bound, from the forced prime alone, the oracle if Q is forced, else certified exact
    from the first requested prime, as the automatic :func:`koszul.linalg.rank` returns it."""
    if not (0 <= cert.rank <= bound and cert.structural_bound == bound):
        return False
    if isinstance(fieldspec, Rational):
        return cert.mode == "rational-exact"
    if isinstance(fieldspec, PrimeField):
        return cert.mode == "single-prime" and cert.primes == (fieldspec.p,)
    return cert.certified_exact and cert.primes[:1] == tuple(primes[:1])


def w_dim(
    subspace: SubspaceK,
    q: int,
    fieldspec: FieldSpec | None = None,
    *,
    primes=None,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    cache: RankCache | None = None,
) -> WDimension:
    """Dimension of W_q(V, K) via the exactness shortcut.

    The rank is :func:`koszul.linalg.rank` over the field: with
    ``fieldspec=None`` (and K defined over Q) the automatic mode, the rank
    mod the first prime, certified when it reaches min(#columns, dim Im
    delta_2), else by kernel vectors verified over Z, with the further primes
    as the first lift primes; the rational oracle does not run.  An explicit
    ``fieldspec`` computes one rank over that field (over Q, by the oracle
    under ``oracle_cap``, the only rank the cap bounds).

    The one user of ``cache``: a hit under :func:`_cache_key` that passes
    :func:`_answers` builds no matrix and runs no oracle, so it answers
    under any ``oracle_cap``; a miss is computed and stored.  Before either,
    the matrix goes to :func:`koszul.linalg.check_budget` as the larger of its
    index tables (n C(n+q, q+1) cells) and its 2 nnz(K) C(n+q-1, q) triplets
    (three cells each).
    """
    n = subspace.n
    fieldspec = _field(subspace, fieldspec)
    primes = tuple(primes or DEFAULT_PRIMES)
    image_dim = im_delta2_dim(n, q)
    bound = min(subspace.effective_m * sym_dim(n, q), image_dim)
    # restricted_delta2's index tables, and its triplets at three int64 cells each
    cells = max(n * comb(n + q, q + 1), 6 * sum(len(k) - k.count(0) for k in subspace.int_basis) * comb(n + q - 1, q))
    check_budget(cells, f"the index tables or triplets of W_{q} at n = {n}")
    key = None if cache is None else _cache_key(subspace, q, fieldspec, primes)
    cert = None if cache is None else cache.get(key)
    if cert is None or not _answers(cert, bound, fieldspec, primes):
        cert = rank(restricted_delta2(subspace, q), fieldspec, structural_bound=bound, primes=primes,
                    oracle_cap=oracle_cap)
        if cache is not None:
            cache.put(key, cert)
    return WDimension(q, image_dim - cert.rank, cert)


def w_dim_alt(
    subspace: SubspaceK,
    q: int,
    fieldspec: FieldSpec | None = None,
    *,
    primes=None,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> int:
    """Dimension of W_q computed from the defining presentation.

    Builds the composite Wedge^3 V (x) Sym^{q-1} -> (Wedge^2 V / K) (x) Sym^q
    (quotient projection after delta_3) and returns the codimension of its
    column space.  Must agree with :func:`w_dim` on every instance.
    """
    n = subspace.n
    if q < 0:
        raise InvalidInputError(f"need q >= 0, got q={q}")
    width = comb(n, 2)
    m = subspace.effective_m
    symq = sym_dim(n, q)
    target_dim = (width - m) * symq
    if q == 0:
        return target_dim  # Sym^{-1} source is the zero space
    d3 = koszul_differential(3, n, q - 1)
    # the rows of K-perp, whose common kernel is K, map Wedge^2 V onto the quotient
    projection = SparseMatrix(target_dim, d3.nrows, [
        (u * symq + a, t * symq + a, c)
        for u, phi in enumerate(kperp_basis(subspace)) for t, c in enumerate(phi) if c for a in range(symq)
    ])
    composite = projection.multiply(d3)
    bound = min(composite.ncols, target_dim)
    cert = rank(composite, _field(subspace, fieldspec), structural_bound=bound, primes=primes or DEFAULT_PRIMES,
                oracle_cap=oracle_cap)
    return target_dim - cert.rank


@dataclass(frozen=True)
class DegreeRecord:
    """One degree of a Koszul profile."""

    q: int
    dim: int
    certificate: RankCertificate | None  # None when derived, see below
    bound: int | None
    bound_attained: bool | None
    derived_from: int | None = None  # certified zero degree that forces this one

    @property
    def certified(self) -> bool:
        if self.derived_from is not None:
            return True
        return self.certificate is not None and self.certificate.certified_exact

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "dim": self.dim,
            "bound": self.bound,
            "bound_attained": self.bound_attained,
            "certified": self.certified,
            "derived_from": self.derived_from,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
        }


@dataclass(frozen=True)
class KoszulProfile:
    """Hilbert function of W(V,K) with per-degree certificates.

    ``vanishing_degree`` is the least certified-zero degree; generation in
    degree 0 makes every later dimension zero, so records beyond it are
    derived rather than recomputed.  ``model_only`` flags subspaces defined
    over a prime field, where the complex-geometric reading does not
    literally apply.
    """

    n: int
    m: int
    field: str
    records: tuple[DegreeRecord, ...]
    vanishing_degree: int | None
    model_only: bool

    def dims(self) -> list[int]:
        return [r.dim for r in self.records]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "field": self.field,
            "records": [r.to_json() for r in self.records],
            "vanishing_degree": self.vanishing_degree,
            "model_only": self.model_only,
        }


def hilbert_profile(
    subspace: SubspaceK,
    q_max: int | None = None,
    fieldspec: FieldSpec | None = None,
    *,
    primes=None,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    cache: RankCache | None = None,
) -> KoszulProfile:
    """Graded dimensions of W(V,K) for q = 0..q_max with certificates.

    The default q_max is n-3 (further degrees are redundant once a zero
    is certified).  Degrees are computed in order, and computation stops
    at the first certified zero; later records are derived from
    generation in degree 0.
    """
    n = subspace.n
    if q_max is None:
        q_max = max(n - 3, 0)
    if q_max < 0:
        raise InvalidInputError(f"need q_max >= 0, got {q_max}")
    records: list[DegreeRecord] = []
    vanishing: int | None = None
    for q in range(q_max + 1):
        bound = hilbert_bound(n, q) if n >= 3 else None
        if vanishing is not None:
            records.append(
                DegreeRecord(q, 0, None, bound, None if bound is None else bound == 0, vanishing)
            )
            continue
        res = w_dim(subspace, q, fieldspec, primes=primes, oracle_cap=oracle_cap, cache=cache)
        attained = None if bound is None else res.dim == bound
        records.append(DegreeRecord(q, res.dim, res.certificate, bound, attained))
        if res.dim == 0 and res.certified:
            vanishing = q
    return KoszulProfile(
        n,
        subspace.effective_m,
        subspace.field.token(),
        tuple(records),
        vanishing,
        isinstance(subspace.field, PrimeField),
    )
