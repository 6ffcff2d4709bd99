"""Numerical lab for degenerate planar Beltrami equations.

Builds approximate solutions by truncating the dilatation to uniformly
elliptic levels, solves each truncated equation spectrally, and checks the
outputs against closed-form maps, modulus inequalities, and continuity
bounds.
"""

__version__ = "0.1.0"

from .numerics import (
    ComplexField,
    GridSpec,
    QuadratureConfig,
    QuadratureNonConvergence,
    adaptive_integral_1d,
    wirtinger_derivatives,
)
from .dilatation import MuSpec, K_mu, l1_norm, truncate_mu
from .radial import (
    RadialWeight,
    inverse_poletsky_check,
    lehto_integral,
)

__all__ = [
    "__version__",
    "ComplexField",
    "GridSpec",
    "QuadratureConfig",
    "QuadratureNonConvergence",
    "adaptive_integral_1d",
    "wirtinger_derivatives",
    "MuSpec",
    "K_mu",
    "l1_norm",
    "truncate_mu",
    "RadialWeight",
    "inverse_poletsky_check",
    "lehto_integral",
]
