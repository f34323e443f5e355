"""Exception types shared across the package.

Partial operations signal typed errors instead of returning sentinels, so
every implicit composability assumption becomes an explicit contract.
"""


class CubicalError(Exception):
    """Base class for all errors raised by this package."""


class IndexOutOfRange(CubicalError):
    """A direction index is outside the range valid for the element's dimension."""

    def __init__(self, op, index, dim):
        super().__init__(f"{op}: direction {index} invalid at dimension {dim}")
        self.op = op
        self.index = index
        self.dim = dim


class NotComposable(CubicalError):
    """Two elements were composed in a direction where their faces disagree."""

    def __init__(self, direction, left_face, right_face, where=""):
        prefix = f"{where}: " if where else ""
        super().__init__(
            f"{prefix}not composable in direction {direction}: "
            f"upper face {left_face!r} != lower face {right_face!r}"
        )
        self.direction = direction
        self.left_face = left_face
        self.right_face = right_face


class DimensionTooLarge(CubicalError):
    """An operation or enumeration exceeded the model's configured dimension cap."""


class InterchangeViolation(CubicalError):
    """Row-first and column-first evaluation of an array disagree (broken model)."""


class BadTiling(CubicalError):
    """Partition rectangles fail to tile the bounding rectangle."""


class BoundaryMismatch(CubicalError):
    """Two cubes expected to share a boundary do not."""


class NotThin(CubicalError):
    """The element fails the thinness test required by the operation."""


class NotCommutative(CubicalError):
    """The shell fails the commutativity test required by the operation."""


class PreconditionFailed(CubicalError):
    """A stated precondition of a constructive operation does not hold."""


class PostconditionViolated(CubicalError):
    """A constructive operation re-checked its own output and found it wrong.

    Only a law-breaking model can trigger this; it is never user error.
    """


class UnknownLaw(CubicalError):
    """No registered law carries the requested id."""


class MalformedSample(CubicalError):
    """A user-supplied sample does not fit the law's binding shape."""


class ParseError(CubicalError):
    """A document (category, cube, or expression) is not well formed."""


class CategoryLawViolation(CubicalError):
    """A finite category presentation breaks unit, associativity, or closure."""


class MorphismViolation(CubicalError):
    """A would-be thin structure does not preserve the required operations."""
