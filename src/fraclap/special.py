"""Gamma with pole checks, Riesz normalization constants, and the radial
kernel identity.

Gamma values come from the standard library (``math.gamma``,
``math.lgamma``); the wrappers here only reject arguments at or near the
poles, where the normalization constants blow up.

The Riesz potential of order ``sigma`` carries the constant

    c(d, sigma) = Gamma((d-sigma)/2) / (pi^p 2^sigma Gamma(sigma/2))

where the pi exponent ``p`` depends on the normalization convention: the
as-printed convention uses ``p = sigma/2`` while the classical one uses
``p = d/2``.  Both ship behind :class:`ConstantMode`; they agree when
``sigma = d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import GammaPole

__all__ = [
    "ConstantMode",
    "FractionalOrder",
    "gamma_ln",
    "gamma_value",
    "riesz_constant",
    "fraclap_constant",
    "h_constant",
    "radial_laplacian",
]

_POLE_TOL = 1e-8


class ConstantMode(Enum):
    """Which pi exponent the Riesz normalization uses."""

    PAPER = "paper"        # pi^(sigma/2)
    STANDARD = "standard"  # pi^(d/2), the classical convention

    @classmethod
    def parse(cls, name):
        return cls(str(name).lower())


def gamma_ln(x: float) -> float:
    """Natural log of the gamma function for positive real x."""
    if not x > 0.0:
        raise ValueError(f"gamma_ln requires x > 0, got {x!r}")
    return math.lgamma(x)


def _near_nonpositive_integer(x):
    return x < _POLE_TOL and abs(x - round(x)) < _POLE_TOL


def gamma_value(x: float, context: str = "") -> float:
    """Gamma(x) for any real x away from the poles, with correct sign.

    Arguments within ``1e-8`` of a non-positive integer raise
    :class:`GammaPole` (the constants overflow before the exact pole).
    """
    if _near_nonpositive_integer(x):
        raise GammaPole(x, context)
    return math.gamma(x)


@dataclass(frozen=True)
class FractionalOrder:
    """Validated fractional order s, strictly inside (0, 2)."""

    s: float

    def __post_init__(self):
        if not 0.0 < self.s < 2.0:
            raise ValueError(f"fractional order must satisfy 0 < s < 2, got {self.s!r}")

    def check_pole(self, d: int) -> "FractionalOrder":
        """Reject (d, s) combinations where (d-2+s)/2 hits a gamma pole."""
        arg = (d - 2.0 + self.s) / 2.0
        if _near_nonpositive_integer(arg):
            raise GammaPole(arg, f"(d-2+s)/2 with d={d}, s={self.s}")
        return self


def _riesz_constant(d, sigma, half_gap, mode):
    """c(d, sigma), given its Gamma argument ``half_gap`` = (d - sigma)/2."""
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d!r}")
    if not 0.0 < sigma < 2.0:
        raise ValueError(f"potential order must satisfy 0 < sigma < 2, got {sigma!r}")
    num = gamma_value(half_gap, f"(d-sigma)/2 with d={d}, sigma={sigma}")
    p = sigma / 2.0 if mode is ConstantMode.PAPER else d / 2.0
    den = math.pi ** p * 2.0 ** sigma * gamma_value(sigma / 2.0)
    return num / den


def riesz_constant(d: int, sigma: float, mode: ConstantMode = ConstantMode.PAPER) -> float:
    """Normalization c(d, sigma) of the Riesz potential of order sigma."""
    return _riesz_constant(d, sigma, (d - sigma) / 2.0, mode)


def fraclap_constant(d: int, s: float, mode: ConstantMode = ConstantMode.PAPER) -> float:
    """c(d, 2-s), the constant of the fractional Laplacian of order s.

    Gamma((d-2+s)/2) is taken from s itself, as in ``h_constant``: through the
    rounded sigma = 2 - s, the pole at d - 2 + s = 0 (s = 1 in 1D) would
    amplify that rounding by 1/|s - 1|.
    """
    return _riesz_constant(d, 2.0 - s, (d - 2.0 + s) / 2.0, mode)


def h_constant(d: int, s: float, mode: ConstantMode = ConstantMode.PAPER) -> float:
    """The surface-term constant h; satisfies 1/h = c(d, 2-s) (d-2+s) s."""
    FractionalOrder(s).check_pole(d)  # also rejects d - 2 + s = 0, at the pole of (d-2+s)/2
    num_gamma = gamma_value((2.0 - s) / 2.0)
    p = (2.0 - s) / 2.0 if mode is ConstantMode.PAPER else d / 2.0
    num = math.pi ** p * 2.0 ** (2.0 - s) * num_gamma
    den = (d - 2.0 + s) * s * gamma_value((d - 2.0 + s) / 2.0)
    return num / den


def radial_laplacian(f, r: float, d: int, df=None, d2f=None) -> float:
    """Laplacian of a radial function: f''(r) + (d-1)/r f'(r).

    Derivatives are taken from ``df``/``d2f`` when supplied, otherwise by
    second-order central differences with step 1e-5 * max(r, 1).
    """
    if not r > 0.0:
        raise ValueError(f"radial_laplacian requires r > 0, got {r!r}")
    if df is not None and d2f is not None:
        fp, fpp = df(r), d2f(r)
    else:
        h = 1e-5 * max(r, 1.0)
        fm, f0, fp_ = f(r - h), f(r), f(r + h)
        fp = (fp_ - fm) / (2.0 * h)
        fpp = (fp_ - 2.0 * f0 + fm) / (h * h)
    return fpp + (d - 1.0) / r * fp
