"""Answer checks for the benchmark, made apart from the program.

Nothing here imports ``koszul``: every expected value is recomputed from
the closed forms of the paper or from first principles, and none of the
checks compares against a stored copy of an earlier run's output.

Each check returns one status per operation:

- ``OK``: the answer is right and certified;
- ``FAILED``: the answer is right but the program did not certify it,
  or the call raised (counted in the benchmark's ``failed``);
- ``WRONG``: the answer disagrees with the independent value (the run
  is reported as incorrect).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

OK = "ok"
FAILED = "failed"
WRONG = "wrong"


def weyman_dim(n: int, q: int) -> int:
    """dim W_q for a borderline K (dim K = 2n-3) with vanishing resonance.

    C(n+q-1, q)(n-2)(n-q-3)/(q+2) for q <= n-4 and 0 from q = n-3 on,
    evaluated with exact fractions so that a non-integer value shows.
    """
    if q >= n - 3:
        return 0
    value = Fraction(comb(n + q - 1, q) * (n - 2) * (n - q - 3), q + 2)
    if value.denominator != 1:
        raise ValueError(f"closed form not integral at (n, q) = ({n}, {q})")
    return int(value)


def pencil_dim(q: int) -> int:
    """dim W_q(C^2, 0) = q + 1: the Hilbert function of W for the hyperplane
    K whose annihilator is spanned by the decomposable form e0^e1."""
    return q + 1


def _status(right: bool, certified: bool) -> str:
    if not right:
        return WRONG
    return OK if certified else FAILED


def check_degree(expected: int, dim: int, certified: bool) -> str:
    """One degree of a profile, or one ``w_dim`` call."""
    return _status(dim == expected, certified)


def weyman_vanishing(n: int, q_max: int):
    """Least certified-zero degree of a borderline profile through q_max:
    n-3 once the profile reaches it, else none."""
    return n - 3 if q_max >= n - 3 else None


def wedge_pairs(a, b) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, where the 2-form a^b has a nonzero coefficient."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    return [
        (i, j)
        for j in range(len(a))
        for i in range(j)
        if a[i] * b[j] - a[j] * b[i] != 0
    ]


def check_verdict(vanishes: bool, heuristic: bool, witness) -> str:
    """Resonance verdict for the hyperplane K with K-perp = <e0^e1>.

    Resonance does not vanish, and the witness a^b must be a multiple of
    e0^e1: (0, 1) is its only nonzero pair.  ``witness`` is ``(a, b)`` or
    None.
    """
    right = (not vanishes) and witness is not None and wedge_pairs(*witness) == [(0, 1)]
    return _status(right, not heuristic)


def check_cli_stdout(stdout: str, reference: str, n: int) -> str:
    """One ``koszul hilbert --weyman n --format json`` call.

    The output must be byte-identical to the first call of the run, and
    its JSON must hold the closed-form dimensions with vanishing at n-3.
    """
    if stdout != reference:
        return WRONG
    try:
        data = json.loads(stdout)
        records = data["records"]
        dims = [r["dim"] for r in records]
        certified = all(r["certified"] is True for r in records)
        vanishing = data["vanishing_degree"]
    except (ValueError, KeyError, TypeError):
        return WRONG
    right = dims == [weyman_dim(n, q) for q in range(n - 2)] and vanishing == n - 3
    return _status(right, certified)


def check_cache_size(after_cold: int, after_call: int) -> bool:
    """The cold call writes the rank cache; a warm call must not grow it."""
    return after_cold > 0 and after_call == after_cold
