"""Exception hierarchy shared by all sprank modules."""


class SprankError(Exception):
    """Base class for all sprank errors."""


class OutOfRangeError(SprankError):
    """A coordinate or node index falls outside the declared grid."""


class ShapeError(SprankError):
    """Pattern/graph dimensions violate the m >= n convention or mismatch."""


class InvalidKError(SprankError):
    """A resilience target or matching count is outside its valid range."""


class NotDisjointError(SprankError):
    """Two edge sets expected to be disjoint share edges."""

    def __init__(self, shared):
        self.shared = sorted(shared)
        super().__init__(f"edge sets are not disjoint; shared edges: {self.shared}")


class NotDecomposableError(SprankError):
    """The graph does not satisfy the degree conditions for decomposition."""


class PreconditionFailedError(SprankError):
    """An operation's structural precondition does not hold."""


class NotMaximalError(SprankError):
    """A flow passed where a maximum flow is required is not maximal."""


class VerificationError(SprankError):
    """A computed result failed its own consistency check (a solver fault, not bad input)."""


class NotSubsetError(SprankError):
    """A matching contains edges outside the host graph."""


class ParseError(SprankError):
    """Malformed input document."""

    def __init__(self, reason, line=None, column=None):
        self.reason = reason
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{reason}{loc}")


class BudgetExceededError(SprankError):
    """An exhaustive search ran out of its work budget.

    ``lower_bound`` carries the value certified before the budget ran out
    (meaningful for resilience searches; None otherwise).
    """

    def __init__(self, message, lower_bound=None):
        self.lower_bound = lower_bound
        super().__init__(message)
