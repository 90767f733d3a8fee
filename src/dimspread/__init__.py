"""Exact verifiers for dimension-spreading and dimension-expanding families
of linear maps over prime fields, and certified rank bounds for the order-3
tensors their matrices form as slices.

Everything is exact integer arithmetic; every verdict is either exhaustive
(a certificate) or explicitly labeled as sampled.
"""

from types import ModuleType as _ModuleType

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

# The names imported above, without the submodules the imports bind.
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType))
