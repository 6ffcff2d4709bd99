"""Numerical lab for degenerate planar Beltrami equations.

Builds approximate solutions by truncating the dilatation to uniformly
elliptic levels, solves each truncated equation spectrally, and checks the
outputs against closed-form maps, modulus inequalities, and continuity
bounds.
"""

__version__ = "0.1.0"
