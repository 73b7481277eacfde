"""Exception hierarchy shared across the library.

Three coarse classes matter to callers (and fix the CLI exit codes):
bad input (``UserError``, exit 1), a configured resource cap being hit
(``CapError``, exit 2) and an internal invariant violation that signals a
bug rather than bad input (``InternalError``, exit 3).
"""


class CrepantError(Exception):
    """Base class for all library errors."""


class UserError(CrepantError):
    """Malformed or invalid input supplied by the caller."""


class GroupParseError(UserError):
    """The group spec text does not match the grammar."""


class GroupValidationError(UserError):
    """Parsed group data violates the SL(3) / faithfulness conditions."""


class DegenerateEdgeError(UserError):
    """An operation requiring an interior edge was given a boundary edge."""


class InvalidFlipError(UserError):
    """Attempt to flip an edge whose curve is not a (-1,-1)-curve."""


class PreconditionError(UserError):
    """An operation's documented precondition does not hold."""


class CapError(CrepantError):
    """A resource cap (fan count, chamber count, LP solves, group order) was
    hit."""


class InternalError(CrepantError):
    """An internal invariant failed; indicates a bug, not bad input."""


class TypeIIWallError(InternalError):
    """A wall classified as type II, which is proven impossible."""


class EmptyChamberError(InternalError):
    """An inequality system that should cut out a chamber has empty interior."""


class AmbiguousSplittingError(InternalError):
    """A type-0 wall crossing could not recover a unique sub/quotient split."""
