"""Exception types shared across the library, and the one format of a
budget's need."""

from __future__ import annotations

__all__ = [
    "BudgetExceeded",
    "ClosureViolation",
    "DecompositionMismatch",
    "MonotonicityViolation",
    "NotSpreading",
    "SpanFailure",
    "TooManyTerms",
    "TraceInvariantViolation",
    "format_need",
]


def format_need(needed: int) -> str:
    """`needed` in decimal, or `at least 2^k` (k = bit length - 1) once it
    has more than 4300 digits, the most CPython writes in decimal by default."""
    if needed < 10**4300:
        return str(needed)
    return f"at least 2^{needed.bit_length() - 1}"


class BudgetExceeded(RuntimeError):
    """A configured enumeration or search budget would be exceeded.

    Raised before any silent truncation can happen; carries the stage name,
    the work the stage would need, and the configured cap.
    """

    def __init__(self, stage: str, needed: int, cap: int):
        super().__init__(f"{stage}: needs {format_need(needed)} > cap {cap}")
        self.stage = stage
        self.needed = needed
        self.cap = cap


class NotSpreading(Exception):
    """A spreading certificate was requested but a counterexample exists."""

    def __init__(self, counterexample, achieved: int):
        super().__init__(
            f"subspace of dimension {counterexample.dim} reaches image-sum "
            f"dimension {achieved}"
        )
        self.counterexample = counterexample
        self.achieved = achieved


class ClosureViolation(ValueError):
    """A family that must contain the identity and all transposes does not."""


class DecompositionMismatch(ValueError):
    """A decomposition does not evaluate to the tensor it claims to decompose."""


class TooManyTerms(ValueError):
    """A refutation needs strictly fewer terms than the certified bound."""


class SpanFailure(ValueError):
    """The supplied rank-one matrices do not span every slice."""


class MonotonicityViolation(ValueError):
    """Two matching pairs are ordered inconsistently (i1 < i2 but f(i1) >= f(i2))."""

    def __init__(self, pair_a: tuple[int, int], pair_b: tuple[int, int]):
        super().__init__(f"pairs {pair_a} and {pair_b} violate monotonicity")
        self.pair_a = pair_a
        self.pair_b = pair_b


class TraceInvariantViolation(RuntimeError):
    """An internally generated refutation trace failed its own validity checks.

    This cannot happen for well-formed inputs; it indicates a library bug.
    """
