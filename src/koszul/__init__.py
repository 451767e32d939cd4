"""Certified computation of Koszul module Hilbert functions, resonance
vanishing, and the group-theoretic bounds they control."""

from .bases import (
    monomial_rank,
    monomial_unrank,
    pair_rank,
    pair_unrank,
    schur_dim_two_row,
    sym_dim,
    triple_rank,
    triple_unrank,
    wedge_dim,
)
from .errors import InvalidInputError, KoszulError, ResourceLimitError
from .groups import (
    ChenEstimate,
    GroupInvariantReport,
    arrangement_chen,
    bass_guivarch,
    bounds_from_b1,
    chen_free,
    chen_free_nilpotent,
    chen_from_koszul,
    chen_upper_bound,
    out_free_b1,
    preset_group_invariants,
    torelli_b1,
)
from .hilbert import (
    DegreeRecord,
    KoszulProfile,
    WDimension,
    divisorial_defect,
    hilbert_bound,
    hilbert_profile,
    im_delta2_dim,
    koszul_differential,
    restricted_delta2,
    verify_im_delta2_dim,
    w_dim,
    w_dim_alt,
)
from .linalg import (
    DEFAULT_PRIMES,
    FieldSpec,
    PrimeField,
    RankCache,
    RankCertificate,
    Rational,
    SparseMatrix,
    annihilates,
    is_prime,
    rank,
)
from .resonance import (
    DecomposableWitness,
    PencilAnalysis,
    ResonanceVerdict,
    pencil_decomposable,
    resonance_vanishes,
    split_decomposable,
    wedge_square,
)
from .subspaces import (
    CupProductData,
    SplitMix64,
    SubspaceK,
    canonicalize,
    from_cup_data,
    full_K,
    heisenberg_K,
    heisenberg_cup_data,
    heisenberg_symplectic_form,
    kperp_basis,
    random_K,
    subspace_from_rows,
    weyman_K,
    zero_K,
)

__version__ = "0.1.0"
