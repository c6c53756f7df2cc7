"""agmonlab: a numerical laboratory for exponential decay of semiclassical
eigenfunctions in classically forbidden regions.

The package verifies, at desk scale, the constructive machinery behind
two-sided tunneling-decay estimates: exact half-plane Poisson multipliers,
complex-phase Hamilton-Jacobi parametrices, semiclassical quantization with
tailored cutoffs, Helffer-Sjostrand functional calculus, and exterior-mass
estimates, all validated against discrete eigenfunction and boundary-value
solves on closed-form model potentials.
"""

from agmonlab.models import ModelProblem, make_model

__version__ = "0.1.0"

__all__ = [
    "ModelProblem",
    "make_model",
    "__version__",
]
