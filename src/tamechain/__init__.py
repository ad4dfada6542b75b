"""Exact computational engine for functors from finite posets (and
realizations of dimension-<=1 posets) to chain complexes of F_p vector
spaces: minimal projective covers and resolutions, minimal cofibrant
replacements, sphere/disk structure decompositions, and
indecomposability certificates.
"""

from .errors import (
    BadCoordinateError,
    BadCoverError,
    BudgetExceededError,
    CycleDetectedError,
    DimensionTooHighError,
    FieldMismatchError,
    HomologyNotResolvableError,
    InputError,
    KernelNotProjectiveError,
    MathError,
    NoSolutionError,
    NotClosedError,
    NotIdempotentError,
    ParseError,
    TamechainError,
    TransferUndefinedError,
    UnknownExampleError,
    ValidationError,
    ZeroObjectError,
)
from .field import Mat, kernel, rref, solve, solve_or_none
from .posets import Edge, FinPoset, PosetDim, RealizedPoset, Vertex, alpha_v_formula, realize, transfer_point
from .functors import (
    Colimit,
    Cover,
    NatMap,
    Resolution,
    VectFunctor,
    colim_over,
    common_discretization,
    free_functor,
    is_projective,
    kan_extend,
    ker_functor,
    coker_functor,
    local_homology,
    minimal_cover,
    minimal_resolution,
    radical,
)
from .chains import (
    ChainFunctor,
    ChainMap,
    Decomposition,
    SummandLabel,
    chain_projective_resolution,
    classify_morphism,
    cofibrant_replacement,
    homology_functor,
    is_cofibrant,
    minimal_cofibrant_factorization,
    minimal_projective_cover_ch,
    reassemble,
    standard_complex,
    structure_decompose,
)
from .morphisms import (
    EndRing,
    GluingReport,
    IndecResult,
    end_ring,
    fitting_idempotent,
    gluing_check,
    hom_space,
    indecomposable,
    split_by_idempotent,
)
from .examples import builtin_example

__version__ = "0.1.0"
