"""Measurement-based preparation of the impurity population.

The impurity qubit A is entangled with an auxiliary qubit B in a Werner state

    rho = (1 - z)/4 * I + z |Phi><Phi|,    |Phi> = (|00> + |11>)/sqrt(2),

and B is measured projectively in a rotated basis.  Sign conventions, fixed
here once for the whole package: the qubit basis is ordered (|0>, |1>) with
|0> the upper state (the one that couples to the condensate), so

    sigma_z = |0><0| - |1><1|,

and the measurement basis at angle theta is the orthonormal pair

    |plus>  = cos(theta) |0> + sin(theta) |1>,
    |minus> = cos(theta) |1> - sin(theta) |0>,

i.e. |minus> is the orthogonal complement of |plus>, so the two projectors
sum to the identity.  With these choices both outcomes occur with probability
exactly 1/2, the collapsed impurity state is (1-z)/2 * I + z |psi><psi| with
|psi> the outcome state carried over to A, and the post-measurement impurity
population is

    delta_pm = +- z cos(2 theta),

continuously tunable over [-z, z] through (theta, outcome sign).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, UnreachableTargetError, ZeroProbabilityOutcomeError

__all__ = [
    "Sign",
    "WernerState",
    "ProjectiveMeasurement",
    "CollapsedImpurity",
    "SIGMA_Z",
    "BELL_STATE",
    "unmeasured_population",
    "measure",
    "angle_for_target_delta",
]

KET_UPPER = np.array([1.0, 0.0])  # |0>
KET_LOWER = np.array([0.0, 1.0])  # |1>
SIGMA_Z = np.diag([1.0, -1.0])
BELL_STATE = (np.kron(KET_UPPER, KET_UPPER) + np.kron(KET_LOWER, KET_LOWER)) / math.sqrt(2.0)


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value}")


class Sign(Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class WernerState:
    """Two-qubit Werner state with mixing parameter z in [0, 1]."""

    z: float

    def __post_init__(self):
        if not 0.0 <= self.z <= 1.0:
            raise InvalidParameterError(f"Werner parameter z must lie in [0, 1], got {self.z}")

    def density_matrix(self) -> np.ndarray:
        rho = (1.0 - self.z) / 4.0 * np.eye(4) + self.z * np.outer(BELL_STATE, BELL_STATE)
        return rho.astype(complex)


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """One outcome of the rotated-basis measurement on the auxiliary qubit.

    theta must be finite.
    """

    theta: float
    sign: Sign

    def __post_init__(self):
        _check_finite("theta", self.theta)

    def state_vector(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        if self.sign is Sign.PLUS:
            return c * KET_UPPER + s * KET_LOWER
        return c * KET_LOWER - s * KET_UPPER

    def projector(self) -> np.ndarray:
        v = self.state_vector()
        return np.outer(v, v).astype(complex)


@dataclass(frozen=True)
class CollapsedImpurity:
    """Post-measurement impurity state, its population and outcome probability."""

    density_matrix: np.ndarray
    delta: float
    probability: float


def unmeasured_population(state: WernerState) -> float:
    """Impurity population before any measurement; zero for every Werner state."""
    rho = state.density_matrix()
    return float(np.real(np.trace(rho @ np.kron(SIGMA_Z, np.eye(2)))))


def measure(state: WernerState, measurement: ProjectiveMeasurement) -> CollapsedImpurity:
    """Collapse the impurity by measuring the auxiliary qubit.

    Applies (I x P) rho (I x P), normalizes, and traces out the auxiliary
    qubit.  The outcome probability is 1/2 for every Werner state and
    measurement angle; the zero-probability guard protects only degenerate
    non-Werner uses.
    """
    rho = state.density_matrix()
    proj = np.kron(np.eye(2), measurement.projector())
    unnormalized = proj @ rho @ proj
    probability = float(np.real(np.trace(unnormalized)))
    if probability < 1e-15:
        raise ZeroProbabilityOutcomeError("outcome has vanishing probability")
    reduced = np.einsum("ibjb->ij", unnormalized.reshape(2, 2, 2, 2)) / probability
    delta = float(np.real(np.trace(reduced @ SIGMA_Z)))
    return CollapsedImpurity(density_matrix=reduced, delta=delta, probability=probability)


def angle_for_target_delta(z: float, target: float) -> tuple[float, Sign]:
    """Measurement angle and outcome sign steering the population to target.

    Inverts delta = +- z cos(2 theta); a finite |target| <= z is required.
    target = 0 with z = 0 returns the balanced angle pi/4.
    """
    if not 0.0 <= z <= 1.0:
        raise InvalidParameterError(f"Werner parameter z must lie in [0, 1], got {z}")
    _check_finite("target", target)
    if abs(target) > z:
        raise UnreachableTargetError(f"|target| = {abs(target)} exceeds z = {z}")
    if z == 0.0:
        return math.pi / 4.0, Sign.PLUS
    theta = 0.5 * math.acos(min(1.0, abs(target) / z))
    sign = Sign.PLUS if target >= 0 else Sign.MINUS
    return theta, sign
