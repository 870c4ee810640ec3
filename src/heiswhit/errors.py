"""Exception types shared across the package."""


class HeisWhitError(Exception):
    """Base class for every error this package raises on purpose."""


class RootBudgetError(HeisWhitError):
    """A root bracket did not close within its step budget."""


class ZeroDilationError(HeisWhitError):
    """Dilation by r = 0 is not a group automorphism."""


class LengthMismatchError(HeisWhitError):
    """Inputs that must match in count or length do not."""


class DuplicateNodeError(HeisWhitError):
    """Nodes must be pairwise distinct."""


class QuadratureBudgetError(HeisWhitError):
    """Adaptive quadrature ran out of refinement budget before converging."""


class TooFewNodesError(HeisWhitError):
    """The operation needs more nodes than the input provides."""


class NodeNotFoundError(HeisWhitError):
    """A parameter value is not a node of the sampled object."""


class OrderViolationError(HeisWhitError):
    """Endpoints coincide or break a < b where it is required, or jets fall short of the order."""


class BadSubsetError(HeisWhitError):
    """The node subset does not match the required shape."""


class SynthesisDefectError(HeisWhitError):
    """The synthesized curve failed its audit."""


class ParseError(HeisWhitError):
    """The input file, a flag or an environment value is malformed."""


class NonFiniteError(HeisWhitError):
    """Input values must be finite."""


class ScanTooLargeError(HeisWhitError):
    """A scan's subset table would not fit in physical memory."""
