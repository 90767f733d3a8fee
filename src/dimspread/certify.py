"""Certified tensor-rank lower bounds from dimension-spreading families,
and the converse refutation: a small decomposition of the family's tensor
is replayed into an explicit subspace witnessing that spreading fails.

A family of D maps on GF(p)^n stacks into a D x n x n tensor whose i-th
slice is the i-th map.  If the family is (s, t)-spreading with t >= 1, that
tensor has rank at least n + t - s; the functions here either verify the
hypothesis and issue the bound, or take a decomposition with fewer terms
and produce the violating subspace it implies.  t = 0 is rejected: the
spreading condition is then vacuous and the bound is false (the zero family
gives rank 0, not n - s).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DecompositionMismatch, NotSpreading, TooManyTerms, TraceInvariantViolation
from .families import MapFamily, SpreadingParams, verify_spreading
from .gfp import Matrix
from .subspace import DEFAULT_ENUMERATION_CAP, Subspace, apply_map, kernel, span_of
from .tensor import Decomposition, Tensor3, eval_decomposition, slice_tensor

__all__ = [
    "rank_bound",
    "LowerBoundCertificate",
    "certify_lower_bound",
    "RefutationTrace",
    "refute_spreading",
    "check_trace",
    "family_tensor",
]


def family_tensor(fam: MapFamily) -> Tensor3:
    """The D x n x n tensor whose i-th slice is the family's i-th map."""
    return slice_tensor(fam.maps)


def rank_bound(n: int, params: SpreadingParams) -> int:
    """The rank lower bound n + t - s implied by (s, t)-spreading."""
    if params.t < 1:
        raise ValueError("rank bounds require t >= 1; (s, 0)-spreading is vacuous")
    if params.s > n:
        raise ValueError(f"s={params.s} exceeds the ambient dimension {n}")
    return n + params.t - params.s


@dataclass(frozen=True)
class LowerBoundCertificate:
    """A verified spreading hypothesis together with the bound it implies.

    `conclusive` is False when the hypothesis was only spot-checked by
    sampling; the bound then rests on an unverified premise.
    """

    family: MapFamily
    params: SpreadingParams
    exhaustive: bool
    bound: int

    def __post_init__(self) -> None:
        if self.bound != rank_bound(self.family.n, self.params):
            raise ValueError("stated bound does not match the parameters")

    @property
    def conclusive(self) -> bool:
        return self.exhaustive


def certify_lower_bound(
    fam: MapFamily,
    params: SpreadingParams,
    *,
    samples: int | None = None,
    seed: int | None = None,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> LowerBoundCertificate:
    """Verify (s, t)-spreading and certify rank(tensor) >= n + t - s.

    Raises NotSpreading (with the counterexample subspace) if verification
    finds a violation, and ValueError for t < 1, where no bound follows.
    """
    bound = rank_bound(fam.n, params)  # validates t >= 1 before any scanning
    res = verify_spreading(
        fam, params, samples=samples, seed=seed, enumeration_cap=enumeration_cap,
    )
    if not res.verified:
        raise NotSpreading(res.counterexample, res.achieved)
    return LowerBoundCertificate(fam, params, res.exhaustive, bound)


@dataclass(frozen=True)
class RefutationTrace:
    """Spreading counterexample extracted from a small decomposition.

    s_indices are the 1-based decomposition terms whose kernels were
    intersected; `kernel` is that intersection (dimension at least s),
    `image_span` the span of the remaining terms' images, and `violating`
    the counterexample subspace itself — the kernel — whose image sum
    achieves only dimension `achieved` < t.
    """

    s_indices: tuple[int, ...]
    kernel: Subspace
    image_span: Subspace
    violating: Subspace
    achieved: int
    terms: int


def refute_spreading(
    fam: MapFamily, params: SpreadingParams, dec: Decomposition
) -> RefutationTrace:
    """Turn a decomposition with fewer than n + t - s terms into a spreading
    counterexample.

    Splits the terms into a head S (the first min(n - s, r) of them) and a
    tail; vectors killed by every head term are mapped by each family member
    into the span of the tail images, which has dimension below t.  All the
    intermediate claims are re-checked exactly and any failure raises
    TraceInvariantViolation, so a returned trace is internally consistent;
    `check_trace` re-derives the verdict from scratch.
    """
    n = fam.n
    bound = rank_bound(n, params)  # checks t >= 1 and s <= n
    if params.t > n:
        raise ValueError(f"t={params.t} exceeds n={n}")
    if dec.field != fam.field:
        raise DecompositionMismatch("decomposition field does not match the family")
    if dec.dims != (len(fam.maps), n, n):
        raise DecompositionMismatch(
            f"decomposition dims {dec.dims} do not match the family tensor "
            f"{(len(fam.maps), n, n)}"
        )
    if eval_decomposition(dec) != family_tensor(fam):
        raise DecompositionMismatch("decomposition does not evaluate to the family tensor")
    r = len(dec.terms)
    if r >= bound:
        raise TooManyTerms(
            f"{r} terms cannot refute ({params.s}, {params.t})-spreading on "
            f"dimension {n}: refutation needs fewer than {bound}"
        )

    head = min(n - params.s, r)
    s_indices = tuple(range(1, head + 1))
    tail = dec.terms[head:]

    # The matrix g h^T of a term has kernel h^⊥ and image <g>, or is zero
    # when g or h is; no head terms leave the whole space as kernel.
    k_s = kernel(Matrix.from_rows(
        fam.field, [t.h for t in dec.terms[:head] if any(t.g)], cols=n))
    i_tail = span_of(Matrix.from_rows(fam.field, [t.g for t in tail if any(t.h)], cols=n))

    if len(tail) != max(0, r - (n - params.s)):
        raise TraceInvariantViolation("head/tail split does not add up")
    if k_s.dim < n - head or k_s.dim < params.s:
        raise TraceInvariantViolation(
            f"kernel dimension {k_s.dim} fell below the guaranteed {max(params.s, n - head)}"
        )
    if i_tail.dim > r - head:
        raise TraceInvariantViolation(
            f"tail image span has dimension {i_tail.dim} > {r - head} terms"
        )
    total = _image_sum(fam, k_s)
    if not total <= i_tail:
        raise TraceInvariantViolation("kernel images escape the tail image span")
    achieved = total.dim
    if achieved >= params.t:
        raise TraceInvariantViolation(
            f"violating subspace reaches dimension {achieved} >= t={params.t}"
        )
    return RefutationTrace(s_indices, k_s, i_tail, k_s, achieved, r)


def check_trace(fam: MapFamily, params: SpreadingParams, trace: RefutationTrace) -> bool:
    """Re-derive a trace's verdict from scratch: does `violating` really
    witness that the family is not (s, t)-spreading?

    Uses the subspace-arithmetic route end to end, independent of how the
    trace was produced.
    """
    if trace.violating.field != fam.field or trace.violating.ambient != fam.n:
        return False
    if trace.violating.dim < params.s:
        return False
    return _image_sum(fam, trace.violating).dim < params.t


def _image_sum(fam: MapFamily, sub: Subspace) -> Subspace:
    """A_1 sub + ... + A_D sub, by subspace arithmetic."""
    total = Subspace.zero(fam.field, fam.n)
    for m in fam.maps:
        total = total + apply_map(m, sub)
    return total
