"""Exception types shared across the package.

Every expected numerical failure derives from :class:`FungibleError`, so
callers (and the CLI) can separate domain conditions from plain bugs.
"""

from __future__ import annotations


class FungibleError(Exception):
    """Base class for domain errors raised by this package."""


class SingularStructure(FungibleError):
    """(I - A) is numerically singular at the requested parameter vector.

    Signals an improper parameter vector, e.g. a structural loop with unit
    gain.
    """


class NotPositiveDefinite(FungibleError):
    """A matrix that must be positive definite failed its Cholesky test.

    ``which`` names the offending matrix: ``"s"`` for an analyzed covariance,
    ``"sigma_pop"`` for a population covariance, ``"sigma"`` for a Wishart
    scale matrix, ``"sigma_theta"`` for a model-implied covariance,
    ``"focal_hessian"`` for the focal block of a Hessian.
    """

    def __init__(self, which: str, message: str | None = None):
        self.which = which
        super().__init__(message or f"matrix {which!r} is not positive definite")


class NoConvergence(FungibleError):
    """The optimizer exhausted its iteration budget."""

    def __init__(self, iterations: int, grad_norm: float):
        self.iterations = iterations
        self.grad_norm = grad_norm
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(gradient max-norm {grad_norm:.3e})"
        )


class TargetUnreachable(FungibleError):
    """No perturbation magnitude attains the requested population misfit
    while the perturbed covariance stays positive definite."""


class ContourEscapesDomain(FungibleError):
    """The discrepancy never reaches the target level along a search ray.

    Either positive definiteness fails first or the discrepancy stays flat;
    both signal a fungible direction that is unbounded as far as the search
    can see.
    """


class RootAboveTolerance(FungibleError):
    """A bracketed root search ended with its residual above the tolerance:
    the function jumps over the target inside the bracket."""


class DegenerateSample(FungibleError):
    """A sampled covariance matrix failed its positive-definiteness check."""
