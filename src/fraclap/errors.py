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


class DegenerateExponent(GammaPole):
    """The kernel exponent d-2+s vanished, degenerating the normalization."""


class MissingBoundaryData(FracLapError, ValueError):
    """Boundary-augmented evaluation requested without full trace coverage."""


class NotSymmetric(FracLapError, ValueError):
    """Matrix input violates the symmetry contract."""


class NotPositiveDefinite(FracLapError, ValueError):
    """Matrix input is symmetric but not positive definite."""
