"""Characteristic quasi-polynomials of arrangements over Z and quadratic orders."""

from .charquasi import (
    Arrangement,
    constituents,
    evaluate,
    lcm_period,
    localize,
    minimality_certificate,
)
from .layers import (
    layer_poset,
    whitney_characteristic_polynomial,
)
from .oracle import brute_count_complement, brute_count_kernel
from .quasipoly import QuasiPolynomial
from .ring import Ideal, Ring, quadratic, rational_integers
from .rootsys import builtin

__all__ = [
    "Arrangement",
    "Ideal",
    "QuasiPolynomial",
    "Ring",
    "brute_count_complement",
    "brute_count_kernel",
    "builtin",
    "constituents",
    "evaluate",
    "layer_poset",
    "lcm_period",
    "localize",
    "minimality_certificate",
    "quadratic",
    "rational_integers",
    "whitney_characteristic_polynomial",
]

__version__ = "0.1.0"
