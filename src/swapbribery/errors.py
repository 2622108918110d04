"""Exception types shared across the workbench."""


class SwapBriberyError(Exception):
    """Base class for all workbench errors."""


class DomainError(SwapBriberyError):
    """Malformed value or an argument outside an operation's domain."""


class RankingError(DomainError):
    """A vote's ranking is not a permutation of the roster; ``vote`` is the vote's position."""

    def __init__(self, vote: int, message: str):
        super().__init__(message)
        self.vote = vote


class PreconditionError(SwapBriberyError):
    """A solver-specific precondition on the instance does not hold."""


class ResourceCapError(SwapBriberyError):
    """An enumeration would exceed its configured size cap."""


class UnsupportedRuleError(SwapBriberyError):
    """The requested operation is undefined for this voting rule."""


class ParseError(SwapBriberyError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
