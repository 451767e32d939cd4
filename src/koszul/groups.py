"""Group invariants bounded through Koszul module dimensions.

For a finitely generated group G with first Betti number n, the graded
pieces of the metabelian quotient (the Chen ranks theta_q) are bounded by
the graded dimensions of the Koszul module of its cup product, with the
fixed degree shift theta_{q+2} <= dim W_q (equality for 1-formal groups).
Vanishing resonance therefore caps everything in sight: Chen ranks vanish
from degree n-1 on, the I-adic filtration of the Alexander invariant
stabilizes from degree n-3, the metabelian quotient has virtual
nilpotency class at most n-2, and (through the Bass-Guivarc'h formula)
polynomial growth degree at most n + (n-2) C(2n-3, n-4).

Every bound is conditional; reports carry their hypotheses as structured
tags so that nothing reads as an unconditional claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, lgamma, log
from typing import Sequence

from .errors import InvalidInputError, KoszulError, ResourceLimitError
from .hilbert import WDimension, hilbert_bound, w_dim
from .linalg import FieldSpec, RankCache
from .subspaces import SubspaceK

THETA_DEGREE_SHIFT = 2  # theta_{q+2} versus dim W_q, used everywhere below
# the most decimal digits a report's growth bound may have: CPython's default limit
# on converting an int to text, fixed here so that no interpreter setting changes it
MAX_DIGITS = 4300


def _comb0(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def chen_free(n_gens: int, q: int) -> int:
    """Chen ranks of the free group on n_gens generators.

    theta_1 = n_gens and theta_q = (q-1) C(q+n_gens-2, q) for q >= 2.
    """
    if n_gens < 2:
        raise InvalidInputError(f"need at least 2 generators, got {n_gens}")
    if q < 1:
        raise InvalidInputError(f"Chen ranks start at q = 1, got q={q}")
    if q == 1:
        return n_gens
    return (q - 1) * comb(q + n_gens - 2, q)


def chen_free_nilpotent(n_gens: int, k: int, q: int) -> int:
    """Chen ranks of the free nilpotent quotient F_n / Gamma_k.

    They agree with the free group below the truncation and vanish from
    it on.  Only k >= 3 keeps the resonance of the quotient equal to that
    of the free group.
    """
    if k < 3:
        raise InvalidInputError(f"need k >= 3, got k={k}")
    if q < 1:
        raise InvalidInputError(f"Chen ranks start at q = 1, got q={q}")
    return chen_free(n_gens, q) if q < k else 0


def chen_upper_bound(n: int, q: int) -> int:
    """Upper bound for theta_q of a group with b_1 = n and vanishing
    resonance: C(n+q-3, n-1) (n-2)(n-1-q) / q for 2 <= q <= n-2, zero
    from q = n-1 on.  Coincides with the degree-shifted Hilbert bound."""
    if n < 3:
        raise InvalidInputError(f"need n >= 3, got n={n}")
    if q < 2:
        raise InvalidInputError(f"the bound applies for q >= 2, got q={q}")
    if q >= n - 1:
        return 0
    num = comb(n + q - 3, n - 1) * (n - 2) * (n - 1 - q)
    if num % q:
        raise KoszulError(f"Chen bound not integral at (n, q) = ({n}, {q})")
    value = num // q
    shifted = hilbert_bound(n, q - THETA_DEGREE_SHIFT)
    if value != shifted:
        raise KoszulError(
            f"Chen bound {value} disagrees with shifted Hilbert bound {shifted}"
        )
    return value


def bass_guivarch(phis: Sequence[int]) -> int:
    """Degree of polynomial growth of a nilpotent group from its lower
    central series ranks: sum of q * phi_q (q starting at 1)."""
    return sum((i + 1) * phi for i, phi in enumerate(phis))


def arrangement_chen(h: Sequence[int], q: int) -> int:
    """Asymptotic Chen ranks of an arrangement group from the component
    counts h_r of its resonance variety: sum of h_r theta_q(F_{r+1}).

    Valid for q >> 0 only; callers should label it accordingly.
    """
    if q < 2:
        raise InvalidInputError(f"the asymptotic formula needs q >= 2, got q={q}")
    total = 0
    for r, count in enumerate(h, start=1):
        if count < 0:
            raise InvalidInputError("component counts must be non-negative")
        if count:
            total += count * chen_free(r + 1, q)
    return total


def torelli_b1(g: int) -> int:
    """First Betti number of the genus-g Torelli group: C(2g, 3) - 2g."""
    if g < 2:
        raise InvalidInputError(f"need g >= 2, got g={g}")
    return comb(2 * g, 3) - 2 * g


def out_free_b1(g: int) -> int:
    """First Betti number of the Torelli group of the free group F_g."""
    if g < 3:
        raise InvalidInputError(f"need g >= 3, got g={g}")
    return g * (g + 1) * (g - 2) // 2


@dataclass(frozen=True)
class GroupInvariantReport:
    """Derived thresholds for a group with first Betti number b1.

    Every numeric field is a bound valid only under the hypotheses listed
    for it in ``conditions``; ``notes`` carry free-form caveats.  The
    materialized Chen table stops after ``CHEN_TABLE_ROWS`` degrees (the
    full table for a Torelli-sized b1 would hold thousands of huge
    binomials); :meth:`chen_bound_at` evaluates any degree on demand.  The
    growth bound too is evaluated on demand, and refused beyond MAX_DIGITS.
    """

    CHEN_TABLE_ROWS = 64

    name: str
    parameter: int | None
    b1: int
    chen_vanish_degree: int  # theta_q = 0 for q >= this
    w_vanish_degree: int  # W_q = 0 for q >= this
    vnc_bound: int  # virtual nilpotency class of G/G''
    alexander_stabilization_degree: int  # I-adic filtration stabilizes here
    chen_upper_bounds: tuple[tuple[int, int], ...]  # (q, bound), q from 2 up
    conditions: tuple[tuple[str, tuple[str, ...]], ...]
    notes: tuple[str, ...] = ()

    def condition_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.conditions)

    def chen_bound_at(self, q: int) -> int:
        """theta_q bound for any degree, beyond the materialized table."""
        return chen_upper_bound(self.b1, q)

    @property
    def growth_bound(self) -> int:
        """Polynomial growth degree of G/G'': b1 + (b1-2) C(2 b1-3, b1-4), or
        ResourceLimitError when it has more than MAX_DIGITS digits, its size estimated
        from lgamma before the binomial is computed and compared exactly near the limit."""
        n = self.b1
        log10 = (lgamma(2 * n - 2) - lgamma(n - 3) - lgamma(n + 2) + log(n - 2)) / log(10) if n > 3 else 0.0
        value = 0 if log10 > MAX_DIGITS + 1 else n + (n - 2) * _comb0(2 * n - 3, n - 4)
        if not 0 < value < 10**MAX_DIGITS:
            raise ResourceLimitError(f"the growth bound for b1 = {n} has more than {MAX_DIGITS} digits")
        return value

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "parameter": self.parameter,
            "b1": self.b1,
            "chen_vanish_degree": self.chen_vanish_degree,
            "w_vanish_degree": self.w_vanish_degree,
            "vnc_bound": self.vnc_bound,
            "alexander_stabilization_degree": self.alexander_stabilization_degree,
            "growth_bound": self.growth_bound,
            "chen_upper_bounds": [[q, v] for q, v in self.chen_upper_bounds],
            "conditions": {field: list(tags) for field, tags in self.conditions},
            "notes": list(self.notes),
        }


_RESONANCE = "vanishing resonance"
_FORMAL = "1-formal"
_NILP_META = "metabelian quotient G/G'' nilpotent (or Gamma_q finite for q >> 0)"
_NILP_ALEX = "nilpotent Alexander invariant"


def _base_conditions(
    resonance: tuple[str, ...],
    nilpotence: tuple[str, ...],
) -> tuple[tuple[str, tuple[str, ...]], ...]:
    return (
        ("chen_vanish_degree", resonance + nilpotence),
        ("w_vanish_degree", resonance),
        ("vnc_bound", resonance + nilpotence),
        ("alexander_stabilization_degree", resonance),
        ("growth_bound", resonance + nilpotence),
        ("chen_upper_bounds", resonance),
    )


def bounds_from_b1(
    n: int,
    *,
    name: str = "b1",
    parameter: int | None = None,
    conditions=None,
    notes: tuple[str, ...] = (),
) -> GroupInvariantReport:
    """All derived thresholds for a raw first Betti number n >= 3."""
    if n < 3:
        raise InvalidInputError(f"the bounds need b1 >= 3, got {n}")
    if conditions is None:
        conditions = _base_conditions(
            (f"{_RESONANCE} (e.g. {_FORMAL} with {_NILP_META})",),
            (_NILP_META,),
        )
    return GroupInvariantReport(
        name=name,
        parameter=parameter,
        b1=n,
        chen_vanish_degree=n - 1,
        w_vanish_degree=n - 3,
        vnc_bound=n - 2,
        alexander_stabilization_degree=n - 3,
        chen_upper_bounds=tuple(
            (q, chen_upper_bound(n, q))
            for q in range(2, min(n - 1, 2 + GroupInvariantReport.CHEN_TABLE_ROWS))
        ),
        conditions=tuple(conditions),
        notes=notes,
    )


def preset_group_invariants(preset: str, param: int) -> GroupInvariantReport:
    """Thresholds for the named group families, with hypothesis gating.

    Presets: ``torelli`` (mapping class Torelli group T_g, g >= 4),
    ``out_free`` (Torelli group of the free group, g >= 4), ``kahler``
    (non-fibred compact Kahler fundamental group, parameter q(X) >= 2),
    ``heisenberg`` (Heisenberg nilmanifold group H_k, k >= 2).
    """
    if preset == "torelli":
        if param < 4:
            raise InvalidInputError("the Torelli results need g >= 4")
        known = (f"{_RESONANCE} (known for g >= 4)", f"{_FORMAL} (known for g >= 4)")
        if param >= 12:
            nilp = ("T_g/T_g'' nilpotent (known for g >= 12)",)
            notes = ()
        else:
            nilp = ("conditional: nilpotence of T_g/T_g'' is open for 4 <= g < 12",)
            notes = (
                "vnc and growth bounds are conditional in this range; "
                "the Alexander and Chen bounds are not",
            )
        return bounds_from_b1(
            torelli_b1(param),
            name="torelli",
            parameter=param,
            conditions=_base_conditions(known, nilp),
            notes=notes
            + (
                "Alexander invariant is a nilpotent module for g >= 4, so the "
                "stabilization degree is an I-adic vanishing degree",
            ),
        )
    if preset == "out_free":
        if param < 4:
            raise InvalidInputError("the outer-free Torelli results need g >= 4")
        known = (f"{_RESONANCE} (known for g >= 4)",)
        nilp = ("metabelian quotient nilpotent (known for g >= 4)",)
        return bounds_from_b1(
            out_free_b1(param),
            name="out_free",
            parameter=param,
            conditions=_base_conditions(known, nilp),
            notes=("1-formality is open for this family; only the inequality "
                   "route through the Koszul module is used",),
        )
    if preset == "kahler":
        if param < 2:
            raise InvalidInputError("need irregularity q(X) >= 2 so that b1 >= 3")
        known = ("X non-fibred (cup product nonvanishing on decomposables)",
                 f"{_FORMAL} (automatic for Kahler groups)")
        nilp = ("pi_1(X)/pi_1(X)'' nilpotent",)
        notes = ()
        if param == 4:
            notes = (
                "matches the Schoen surfaces: q(X) = 4, p_g(X) = 5 = 2q(X) - 3 "
                "(divisorial), K^2 = 16, h^{1,1} = 12; they are non-fibred, so "
                "the bound vnc <= 6 = b1 - 2 applies if the metabelian "
                "quotient is nilpotent",
            )
        return bounds_from_b1(
            2 * param,
            name="kahler",
            parameter=param,
            conditions=_base_conditions(known, nilp),
            notes=notes,
        )
    if preset == "heisenberg":
        if param < 2:
            raise InvalidInputError("need k >= 2 (k = 1 gives b1 = 2, out of scope)")
        known = (f"{_RESONANCE} (known for k >= 2)", f"{_FORMAL} (known for k >= 2)")
        nilp = ("nilpotent of class 2",)
        return bounds_from_b1(
            2 * param,
            name="heisenberg",
            parameter=param,
            conditions=_base_conditions(known, nilp),
            notes=("sharper than the generic thresholds: W_1 = 0 already, so "
                   "theta_q = 0 for q >= 3",),
        )
    raise InvalidInputError(f"unknown preset {preset!r}")


@dataclass(frozen=True)
class ChenEstimate:
    """A Chen rank value or upper bound obtained from a Koszul module."""

    q: int
    value: int
    equals_chen: bool  # True only under a caller-asserted 1-formality
    label: str
    w: WDimension

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "value": self.value,
            "equals_chen": self.equals_chen,
            "label": self.label,
            "w": self.w.to_json(),
        }


def chen_from_koszul(
    subspace: SubspaceK,
    q: int,
    fieldspec: FieldSpec | None = None,
    *,
    formal: bool = False,
    cache: RankCache | None = None,
) -> ChenEstimate:
    """theta_q bound (or value, if 1-formality is asserted) from dim W_{q-2}.

    The degree shift is the Massey identification of the I-adic graded
    pieces of the Alexander invariant with the Chen ranks two steps up.
    """
    if q < THETA_DEGREE_SHIFT:
        raise InvalidInputError(f"the correspondence starts at q = 2, got q={q}")
    res = w_dim(subspace, q - THETA_DEGREE_SHIFT, fieldspec, cache=cache)
    label = "= theta_q (1-formal)" if formal else ">= theta_q (upper bound)"
    return ChenEstimate(q, res.dim, formal, label, res)
