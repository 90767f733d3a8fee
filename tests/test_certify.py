"""Rank lower bounds from spreading, and decomposition-driven refutations."""

import builtins
import random

import pytest

from dimspread import certify
from dimspread.certify import (
    LowerBoundCertificate,
    RefutationTrace,
    certify_lower_bound,
    check_trace,
    family_tensor,
    rank_bound,
    refute_spreading,
)
from dimspread.errors import (
    DecompositionMismatch,
    NotSpreading,
    TooManyTerms,
    TraceInvariantViolation,
)
from dimspread.families import MapFamily, SpreadingParams, symmetrize
from dimspread.gfp import GF2, FieldSpec, Matrix
from dimspread.subspace import Subspace, span_of
from dimspread.tensor import Decomposition, RankOneTerm, tensor_rank
from oracles import rand_family

F3 = FieldSpec(3)

I2 = Matrix.identity(GF2, 2)
N2 = Matrix.from_rows(GF2, [[0, 1], [0, 0]])
NT2 = N2.transpose()
I3 = Matrix.identity(GF2, 3)
C3 = Matrix.from_rows(GF2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

SYM2 = MapFamily(GF2, 2, (I2, N2, NT2))


def test_family_tensor_layout():
    t = family_tensor(SYM2)
    assert t.dims == (3, 2, 2)
    assert t.slices() == SYM2.maps


def test_rank_bound_values():
    assert rank_bound(100, SpreadingParams(10, 90)) == 180
    assert rank_bound(2, SpreadingParams(1, 2)) == 3
    assert rank_bound(5, SpreadingParams(5, 1)) == 1


def test_rank_bound_rejects_vacuous_t():
    with pytest.raises(ValueError):
        rank_bound(4, SpreadingParams(1, 0))
    with pytest.raises(ValueError):
        rank_bound(2, SpreadingParams(3, 1))  # s > n


def test_certify_example():
    cert = certify_lower_bound(SYM2, SpreadingParams(1, 2))
    assert cert.bound == 3
    assert cert.exhaustive and cert.conclusive
    # the bound is genuinely attained here
    assert tensor_rank(family_tensor(SYM2), 4)[0] == 3


def test_certify_rejects_non_spreading():
    fam = MapFamily(GF2, 3, (I3, C3))
    with pytest.raises(NotSpreading) as exc:
        certify_lower_bound(fam, SpreadingParams(1, 2))
    assert exc.value.counterexample.basis.entries == (1, 1, 1)
    assert exc.value.achieved == 1


def test_certify_rejects_vacuous_t():
    with pytest.raises(ValueError):
        certify_lower_bound(SYM2, SpreadingParams(1, 0))


def test_certify_sampled_is_inconclusive():
    cert = certify_lower_bound(SYM2, SpreadingParams(1, 2), samples=10, seed=5)
    assert not cert.exhaustive and not cert.conclusive
    assert cert.bound == 3


def test_certificate_validates_bound():
    with pytest.raises(ValueError):
        LowerBoundCertificate(SYM2, SpreadingParams(1, 2), True, 7)


def diagonal_decomposition():
    """I = e1 e1^T + e2 e2^T for the one-map family {I} on GF(2)^2."""
    return Decomposition(
        GF2,
        (1, 2, 2),
        (
            RankOneTerm((1,), (1, 0), (1, 0)),
            RankOneTerm((1,), (0, 1), (0, 1)),
        ),
    )


def test_refute_identity_family():
    # {I} is not (1, 2)-spreading: no single map can grow a line.  The
    # two-term diagonal split exposes the witness span{e2}.
    fam = MapFamily(GF2, 2, (I2,))
    trace = refute_spreading(fam, SpreadingParams(1, 2), diagonal_decomposition())
    assert trace.s_indices == (1,)
    assert trace.terms == 2
    assert trace.kernel.basis.entries == (0, 1)
    assert trace.violating == trace.kernel
    assert trace.image_span.basis.entries == (0, 1)
    assert trace.achieved == 1
    assert check_trace(fam, SpreadingParams(1, 2), trace)
    # and the verification engine agrees the family is not spreading
    from dimspread.families import verify_spreading

    assert not verify_spreading(fam, SpreadingParams(1, 2)).verified


def test_refute_empty_head():
    # n - s = 0: every term lands in the tail and the kernel is everything.
    # {N} has a one-term decomposition, and the full plane only reaches
    # N(plane) = span{e1}.
    fam = MapFamily(GF2, 2, (N2,))
    dec = Decomposition(GF2, (1, 2, 2), (RankOneTerm((1,), (1, 0), (0, 1)),))
    trace = refute_spreading(fam, SpreadingParams(2, 2), dec)
    assert trace.s_indices == ()
    assert trace.kernel == Subspace.full(GF2, 2)
    assert trace.violating == trace.kernel
    assert trace.image_span.basis.entries == (1, 0)
    assert trace.achieved == 1
    assert check_trace(fam, SpreadingParams(2, 2), trace)


def test_refute_empty_tail():
    # r <= n - s: every term lands in the head and the tail image span is
    # the zero subspace.  {N} has a one-term decomposition whose kernel
    # span{e1} is killed by N, so it is not (1, 1)-spreading.
    fam = MapFamily(GF2, 2, (N2,))
    dec = Decomposition(GF2, (1, 2, 2), (RankOneTerm((1,), (1, 0), (0, 1)),))
    trace = refute_spreading(fam, SpreadingParams(1, 1), dec)
    assert trace.s_indices == (1,)
    assert trace.kernel.basis.entries == (1, 0)
    assert trace.image_span == Subspace.zero(GF2, 2)
    assert trace.achieved == 0
    assert check_trace(fam, SpreadingParams(1, 1), trace)
    # No terms at all: the head and the tail are both empty.
    zero = MapFamily(GF2, 2, (Matrix.zeros(GF2, 2, 2),))
    trace = refute_spreading(zero, SpreadingParams(1, 1), Decomposition(GF2, (1, 2, 2), ()))
    assert (trace.s_indices, trace.terms, trace.achieved) == ((), 0, 0)
    assert trace.kernel == Subspace.full(GF2, 2)
    assert trace.image_span == Subspace.zero(GF2, 2)
    assert check_trace(zero, SpreadingParams(1, 1), trace)


def test_refute_shift_family_end_to_end():
    # {I, C} on GF(2)^3 fixes the all-ones line, so it cannot be
    # (1, 3)-spreading.  The stacked tensor has rank 4, below the
    # would-be bound 3 + 3 - 1 = 5, and the trace pins that line.
    fam = MapFamily(GF2, 3, (I3, C3))
    got = tensor_rank(family_tensor(fam), 4)
    assert got is not None
    r, dec = got
    assert r == 4
    params = SpreadingParams(1, 3)
    trace = refute_spreading(fam, params, dec)
    assert trace.s_indices == (1, 2)
    assert trace.terms == 4
    assert trace.violating.basis.entries == (1, 1, 1)
    assert trace.achieved == 1
    assert check_trace(fam, params, trace)


def test_refute_argument_validation():
    fam = MapFamily(GF2, 2, (I2,))
    dec = diagonal_decomposition()
    with pytest.raises(ValueError):
        refute_spreading(fam, SpreadingParams(1, 0), dec)
    with pytest.raises(ValueError):
        refute_spreading(fam, SpreadingParams(3, 1), dec)
    with pytest.raises(ValueError):
        refute_spreading(fam, SpreadingParams(1, 3), dec)


def test_refute_rejects_wrong_decomposition():
    fam = MapFamily(GF2, 2, (I2,))
    params = SpreadingParams(1, 2)
    wrong_field = Decomposition(F3, (1, 2, 2), ())
    with pytest.raises(DecompositionMismatch):
        refute_spreading(fam, params, wrong_field)
    wrong_dims = Decomposition(GF2, (2, 2, 2), ())
    with pytest.raises(DecompositionMismatch):
        refute_spreading(fam, params, wrong_dims)
    wrong_value = Decomposition(
        GF2, (1, 2, 2), (RankOneTerm((1,), (1, 0), (1, 0)),)
    )
    with pytest.raises(DecompositionMismatch):
        refute_spreading(fam, params, wrong_value)


def test_refute_rejects_large_decompositions():
    # {I, N, N^T} is (1, 2)-spreading, so its tensor has rank >= 3 and any
    # genuine decomposition has too many terms to refute anything.
    t = family_tensor(SYM2)
    _, dec = tensor_rank(t, 4)
    with pytest.raises(TooManyTerms):
        refute_spreading(SYM2, SpreadingParams(1, 2), dec)


# Each fault breaks one step of the refutation of {I, C} at (1, 3) from its
# rank-4 decomposition (head 2 terms, tail 2).  The split and the final
# dimension check follow from the others, so no wrong space reaches them:
# a head one term short and a bound one too high break them instead.
_REFUTE_FAULTS = [
    ("min", lambda a, b: builtins.min(a, b) - 1, "head/tail split"),
    ("kernel", lambda m: Subspace.zero(GF2, 3), "kernel dimension 0 fell below"),
    ("span_of", lambda m: Subspace.full(GF2, 3), "tail image span has dimension 3 > 2"),
    ("_image_sum", lambda fam, sub: Subspace.full(GF2, 3), "escape the tail image span"),
]


@pytest.mark.parametrize("name, fault, message", _REFUTE_FAULTS)
def test_refute_guards_catch_a_wrong_space(monkeypatch, name, fault, message):
    fam = MapFamily(GF2, 3, (I3, C3))
    _, dec = tensor_rank(family_tensor(fam), 4)
    monkeypatch.setattr(certify, name, fault, raising=False)
    with pytest.raises(TraceInvariantViolation, match=message):
        refute_spreading(fam, SpreadingParams(1, 3), dec)


def test_refute_guard_catches_images_that_reach_t(monkeypatch):
    # {I, N, N^T} is (1, 2)-spreading and its tensor has rank 3.  A bound of
    # 4 admits the rank-3 decomposition, whose kernel images reach t = 2.
    _, dec = tensor_rank(family_tensor(SYM2), 4)
    monkeypatch.setattr(certify, "rank_bound", lambda n, params: 4)
    with pytest.raises(TraceInvariantViolation, match="reaches dimension 2 >= t=2"):
        refute_spreading(SYM2, SpreadingParams(1, 2), dec)


def test_refutation_traces_on_random_families():
    # wherever the tensor rank drops below n + t - s, refutation must work
    # and its output must replay through the independent checker
    rng = random.Random(79)
    found = 0
    for _ in range(40):
        n = rng.choice((2, 3))
        fam = rand_family(GF2, n, rng.choice((1, 2)), rng)
        t = family_tensor(fam)
        got = tensor_rank(t, n + n - 1)
        if got is None:
            continue
        r, dec = got
        for s in range(1, n + 1):
            for tt in range(1, n + 1):
                if r >= rank_bound(n, SpreadingParams(s, tt)):
                    continue
                params = SpreadingParams(s, tt)
                trace = refute_spreading(fam, params, dec)
                assert check_trace(fam, params, trace)
                assert trace.achieved < tt
                assert trace.violating.dim >= s
                found += 1
    assert found > 30  # the loop actually exercised refutations


def test_check_trace_independent_route():
    # hand-built trace: the diagonal line is invariant under {I, C}
    fam = MapFamily(GF2, 3, (I3, C3))
    diag = span_of(Matrix.from_rows(GF2, [[1, 1, 1]]))
    trace = RefutationTrace(
        s_indices=(),
        kernel=diag,
        image_span=diag,
        violating=diag,
        achieved=1,
        terms=0,
    )
    assert check_trace(fam, SpreadingParams(1, 2), trace)
    # but it cannot refute t = 1: the images do reach dimension 1
    assert not check_trace(fam, SpreadingParams(1, 1), trace)


def test_check_trace_rejects_bad_witnesses():
    fam = MapFamily(GF2, 2, (I2,))
    full = Subspace.full(GF2, 2)
    bad = RefutationTrace((), full, full, full, 0, 0)
    # the full space maps onto itself: dimension 2 >= t for any t <= 2
    assert not check_trace(fam, SpreadingParams(1, 2), bad)
    line = span_of(Matrix.from_rows(GF2, [[1, 0]]))
    small = RefutationTrace((), line, line, line, 1, 0)
    # witness dimension below s
    assert not check_trace(fam, SpreadingParams(2, 2), small)
    # mismatched ambient space
    wrong = span_of(Matrix.from_rows(GF2, [[1, 0, 0]]))
    assert not check_trace(
        fam, SpreadingParams(1, 2), RefutationTrace((), wrong, wrong, wrong, 1, 0)
    )
    # mismatched field
    f3_line = span_of(Matrix.from_rows(F3, [[1, 0]]))
    assert not check_trace(
        fam, SpreadingParams(1, 2), RefutationTrace((), f3_line, f3_line, f3_line, 1, 0)
    )


def test_certified_bound_never_contradicted():
    # the two routes may never disagree: a certified bound with a smaller
    # witnessed rank would be a soundness hole, so this aborts loudly.
    rng = random.Random(83)
    for _ in range(25):
        n = rng.choice((2, 3))
        fam = symmetrize(rand_family(GF2, n, rng.choice((1, 2)), rng))
        profile_t = None
        for tt in range(n, 0, -1):
            try:
                cert = certify_lower_bound(fam, SpreadingParams(1, tt))
            except NotSpreading:
                continue
            profile_t = tt
            break
        if profile_t is None:
            continue
        bound = cert.bound
        got = tensor_rank(family_tensor(fam), bound - 1)
        if got is not None:
            pytest.fail(
                f"certified rank >= {bound} but found a {got[0]}-term "
                f"decomposition for {fam}"
            )
