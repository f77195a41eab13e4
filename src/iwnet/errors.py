"""Exception types shared across the package; ``iwnet.oracle`` defines its own two."""


class IWNError(Exception):
    """Base class for all iwnet errors."""


class InvalidInterval(IWNError):
    """Interval endpoints are not finite reals with lo <= hi."""


class DivisorContainsZero(IWNError):
    """Interval division by a divisor that contains zero."""


class NegativeWeight(IWNError):
    """Edge weight with a negative endpoint."""


class DuplicateEdge(IWNError):
    """The same directed (or undirected) record appears twice in the input."""


class ZeroTotalWeight(IWNError):
    """Network total weight is zero; expectations are undefined."""


class EmptyNetwork(IWNError):
    """Operation requires at least one vertex."""


class IterationLimit(IWNError):
    """Optimization sweep cap exceeded (suspected float cycling)."""


class ParseError(IWNError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
