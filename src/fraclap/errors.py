"""Exception types shared across the package."""


class FracLapError(Exception):
    """Base class for all package-specific errors."""


class GammaPole(FracLapError, ValueError):
    """A gamma-function argument hit (or came too close to) a pole."""

    def __init__(self, argument, context=""):
        self.argument = argument
        msg = f"gamma pole at argument {argument!r}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class MissingBoundaryData(FracLapError, ValueError):
    """Boundary-augmented evaluation without boundary data, or traces that are not finite."""


class NotSymmetric(FracLapError, ValueError):
    """Matrix input violates the symmetry contract."""


class NotPositiveDefinite(FracLapError, ValueError):
    """Matrix input is symmetric but not positive definite."""
