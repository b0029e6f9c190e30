"""Exception types shared across the package.

The CLI maps these onto exit codes: input/validation problems exit 1,
internal faults exit 2, audit failures exit 3, capacity caps exit 4.
"""


class LatfreeError(Exception):
    """Base class for all package-specific errors."""


class ExprSyntaxError(LatfreeError):
    """Raised when expression text cannot be parsed; carries a position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(LatfreeError):
    """A variable index exceeds the declared arity, or arities disagree."""


class DimensionError(LatfreeError):
    """Vector or matrix dimensions do not match the declared ambient space."""


class UnsupportedSpaceError(LatfreeError):
    """The requested operation needs a polyhedral space kind."""


class CapacityError(LatfreeError):
    """An input needs more work than a fixed cap admits; not a bug."""

    def __init__(self, what, cap, measured):
        super().__init__(
            f"{what}: {measured} exceeds the cap of {cap}; input is beyond desk scale"
        )
        self.cap = cap
        self.measured = measured


class InternalFaultError(LatfreeError):
    """A checked internal invariant failed; indicates a bug, not bad input."""
