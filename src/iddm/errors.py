"""Exception types shared across the package.

Everything derives from IDDMError so callers can catch the package's own
failures separately from generic ones.  InvalidParameterError (and its
subclasses) mark bad inputs; ConvergenceFailureError marks a solver that ran
out of budget and is reported separately by the command-line tool.
"""


class IDDMError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(IDDMError, ValueError):
    """An input violates a documented constraint."""


class NonPositiveF1Error(InvalidParameterError):
    """Effective photon frequency f1 = omega + xi1*delta is not positive."""


class ZeroDetuningError(InvalidParameterError):
    """Impurity drive detuning is zero; the dispersive couplings diverge."""


class ZeroKappaError(InvalidParameterError):
    """kappa = xi1 = 0: the impurity population cannot drive the transition."""


class ChiUnsupportedError(InvalidParameterError):
    """Mean-field routines require the nonlinear atomic coupling chi = 0."""


class DomainError(InvalidParameterError):
    """A spin amplitude left the physical domain (|beta| <= 1)."""


class UnboundedPhaseError(InvalidParameterError):
    """nu <= -1: the scaled energy has no minimum inside the spin sphere."""


class DimensionTooLargeError(InvalidParameterError):
    """Requested Hilbert-space dimension exceeds the configured cap."""


class UnreachableTargetError(InvalidParameterError):
    """Requested impurity population |delta| exceeds the Werner parameter z."""


class UnstableEquilibriumError(IDDMError):
    """Fluctuation Hessian is not positive semidefinite at the equilibrium."""


class ConvergenceFailureError(IDDMError):
    """An iterative solver failed to reach its tolerance within budget."""
