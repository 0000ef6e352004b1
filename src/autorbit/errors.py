"""Exception types shared across the package."""


class AutorbitError(Exception):
    """Base class for all package errors."""


class SelfLoopError(AutorbitError, ValueError):
    """A pair (v, v) was supplied where a simple-graph edge is required."""


class VertexRangeError(AutorbitError, ValueError):
    """A vertex index lies outside 0..n-1."""


class NotASubsetError(AutorbitError, ValueError):
    """An edge set was required to be contained in another but is not."""


class EmptyEdgeSetError(AutorbitError, ValueError):
    """A nonempty edge set is required."""


class Graph6FormatError(AutorbitError, ValueError):
    """Malformed graph6 input."""


class CapExceededError(AutorbitError, ValueError):
    """An exhaustive operation was asked to run beyond its configured cap."""


class DegreeMismatchError(AutorbitError, ValueError):
    """Permutation degree does not match the object it is applied to."""


class EdgeCountRangeError(AutorbitError, ValueError):
    """Requested edge count m lies outside 0..C(n,2)."""


class ParameterRangeError(AutorbitError, ValueError):
    """Numeric parameters violate the documented range constraints."""


class NotDivisibleError(AutorbitError, ValueError):
    """An exact integer division was required but the operands do not divide."""


class PreconditionError(AutorbitError, ValueError):
    """Input violates a documented structural precondition."""
