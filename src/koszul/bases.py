"""Deterministic bases for symmetric and exterior powers.

Monomials of ``Sym^q V`` (``dim V = n``) are multidegrees: tuples of n
non-negative integers summing to q.  Basis elements of wedge powers are
strictly increasing index tuples.  Both are identified with 0-based ranks
in a fixed colexicographic order so that rank/unrank run in O(n + q)
without lookup tables; matrix builders elsewhere rely on these bijections
being stable.

Conventions: indices are 0-based everywhere, and a negative degree names
the zero space (dimension 0).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import InvalidInputError


def sym_dim(n: int, q: int) -> int:
    """Dimension of ``Sym^q`` of an n-dimensional space: C(n+q-1, q)."""
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got n={n}")
    if q < 0:
        return 0
    return comb(n + q - 1, q)


def wedge_dim(n: int, p: int) -> int:
    """Dimension of ``Wedge^p`` of an n-dimensional space: C(n, p)."""
    if n < 0:
        raise InvalidInputError(f"need n >= 0, got n={n}")
    if p < 0:
        return 0
    return comb(n, p)


def monomial_rank(alpha: tuple[int, ...]) -> int:
    """Colex rank of a multidegree among all of the same total degree.

    The multidegree is read as a sorted multiset of variable indices and
    ranked through the combinatorial number system.
    """
    rank = 0
    t = 0
    for var, mult in enumerate(alpha):
        if mult < 0:
            raise InvalidInputError(f"negative exponent in {alpha}")
        for _ in range(mult):
            rank += comb(var + t, t + 1)
            t += 1
    return rank


def monomial_unrank(n: int, q: int, index: int) -> tuple[int, ...]:
    """Inverse of :func:`monomial_rank` for degree q in n variables."""
    total = sym_dim(n, q)
    if not 0 <= index < total:
        raise InvalidInputError(f"monomial index {index} out of range [0, {total})")
    alpha = [0] * n
    r = index
    for t in range(q - 1, -1, -1):
        # largest b with C(b, t+1) <= r; variable index is b - t
        b = t  # C(t, t+1) = 0 always fits
        while comb(b + 1, t + 1) <= r:
            b += 1
        r -= comb(b, t + 1)
        alpha[b - t] += 1
    return tuple(alpha)


def pair_rank(i: int, j: int) -> int:
    """Colex rank of the wedge basis element ``e_i ^ e_j`` (i < j)."""
    if not 0 <= i < j:
        raise InvalidInputError(f"need 0 <= i < j, got ({i}, {j})")
    return i + comb(j, 2)


def pair_unrank(n: int, index: int) -> tuple[int, int]:
    total = comb(n, 2)
    if not 0 <= index < total:
        raise InvalidInputError(f"pair index {index} out of range [0, {total})")
    j = 1
    while comb(j + 1, 2) <= index:
        j += 1
    return index - comb(j, 2), j


def triple_rank(i: int, j: int, k: int) -> int:
    """Colex rank of ``e_i ^ e_j ^ e_k`` (i < j < k)."""
    if not 0 <= i < j < k:
        raise InvalidInputError(f"need 0 <= i < j < k, got ({i}, {j}, {k})")
    return i + comb(j, 2) + comb(k, 3)


def triple_unrank(n: int, index: int) -> tuple[int, int, int]:
    total = comb(n, 3)
    if not 0 <= index < total:
        raise InvalidInputError(f"triple index {index} out of range [0, {total})")
    k = 2
    while comb(k + 1, 3) <= index:
        k += 1
    rest = index - comb(k, 3)
    i, j = pair_unrank(k, rest)
    return i, j, k


def enumerate_monomials(n: int, q: int) -> list[tuple[int, ...]]:
    """All degree-q multidegrees in n variables, in rank order."""
    if q < 0:
        return []
    return [monomial_unrank(n, q, r) for r in range(sym_dim(n, q))]


@lru_cache(maxsize=None)
def multiply_rank_table(n: int, q: int) -> np.ndarray:
    """Table of variable multiplication on monomial ranks.

    Entry ``[j, r]`` is the degree-(q+1) rank of ``x_j * m`` where m is the
    degree-q monomial of rank r.  Shape (n, sym_dim(n, q)), dtype int64.
    """
    table = np.empty((n, sym_dim(n, q)), dtype=np.int64)
    for r, alpha in enumerate(enumerate_monomials(n, q)):
        for j in range(n):
            bumped = alpha[:j] + (alpha[j] + 1,) + alpha[j + 1 :]
            table[j, r] = monomial_rank(bumped)
    return table


@lru_cache(maxsize=None)
def reverse_rank_table(n: int, d: int) -> np.ndarray:
    """Table of the index reversal x_i -> x_{n-1-i} on monomial ranks.

    Entry ``r`` is the rank of the reversed degree-d monomial of rank r;
    the table is an involution.  Shape (sym_dim(n, d),), dtype int64.
    """
    return np.array([monomial_rank(alpha[::-1]) for alpha in enumerate_monomials(n, d)], dtype=np.int64)


def schur_dim_two_row(a: int, b: int, n: int) -> int:
    """Dimension of the two-row Schur functor S_(a,b) applied to C^n.

    Evaluated by the Jacobi-Trudi determinant ``h_a h_b - h_{a+1} h_{b-1}``
    where h_k is the complete homogeneous dimension C(n+k-1, k) and
    ``h_{-1} = 0``.
    """
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got n={n}")
    if not a >= b >= 0:
        raise InvalidInputError(f"need a >= b >= 0, got (a, b) = ({a}, {b})")

    def h(k: int) -> int:
        return comb(n + k - 1, k) if k >= 0 else 0

    return h(a) * h(b) - h(a + 1) * h(b - 1)
