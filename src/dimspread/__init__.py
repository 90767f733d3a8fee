"""Exact verifiers for dimension-spreading and dimension-expanding families
of linear maps over prime fields, and certified rank bounds for the order-3
tensors their matrices form as slices.

Everything is exact integer arithmetic; every verdict is either exhaustive
(a certificate) or explicitly labeled as sampled.
"""

from .certify import (
    LowerBoundCertificate,
    RefutationTrace,
    certify_lower_bound,
    check_trace,
    family_tensor,
    rank_bound,
    refute_spreading,
)
from .errors import (
    BudgetExceeded,
    ClosureViolation,
    DecompositionMismatch,
    MonotonicityViolation,
    NotSpreading,
    SpanFailure,
    TooManyTerms,
    TraceInvariantViolation,
)
from .families import (
    ExpansionReport,
    LargeExpansionRecord,
    LargeExpansionResult,
    MapFamily,
    Matching,
    SpreadingParams,
    SpreadingResult,
    dyadic_matchings,
    matching_maps,
    measure_expansion,
    shift_matchings,
    spreading_profile,
    symmetrize,
    verify_expander,
    verify_large_expansion,
    verify_spreading,
    word_length_for,
    words,
)
from .gfp import GF2, FieldSpec, Matrix, kernel_basis, rref, solve
from .subspace import (
    Subspace,
    apply_map,
    enumerate_subspaces,
    grassmann_count,
    kernel,
    sample_subspace,
    span_of,
)
from .tensor import (
    Decomposition,
    RankOneTerm,
    Tensor3,
    eval_decomposition,
    min_spanning_rank_ones,
    reconstruct_decomposition,
    slice_tensor,
    tensor_rank,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # fields and matrices
    "FieldSpec", "GF2", "Matrix", "rref", "kernel_basis", "solve",
    # subspaces
    "Subspace", "span_of", "apply_map", "kernel",
    "grassmann_count", "enumerate_subspaces", "sample_subspace",
    # families
    "MapFamily", "SpreadingParams", "SpreadingResult", "ExpansionReport",
    "LargeExpansionRecord", "LargeExpansionResult", "Matching",
    "symmetrize", "words", "word_length_for", "matching_maps",
    "shift_matchings", "dyadic_matchings", "verify_spreading",
    "verify_expander", "measure_expansion", "verify_large_expansion",
    "spreading_profile",
    # tensors
    "Tensor3", "RankOneTerm", "Decomposition", "slice_tensor",
    "eval_decomposition", "min_spanning_rank_ones",
    "reconstruct_decomposition", "tensor_rank",
    # certification
    "rank_bound", "LowerBoundCertificate", "certify_lower_bound",
    "RefutationTrace", "refute_spreading", "check_trace", "family_tensor",
    # errors
    "BudgetExceeded", "NotSpreading", "ClosureViolation",
    "DecompositionMismatch", "TooManyTerms", "SpanFailure",
    "MonotonicityViolation", "TraceInvariantViolation",
]
