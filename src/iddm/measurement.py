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
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, UnreachableTargetError
from .model import _checked, _floats, check_finite

__all__ = [
    "Sign",
    "WernerState",
    "ProjectiveMeasurement",
    "CollapsedImpurity",
    "measure",
    "angle_for_target_delta",
]

# |Phi><Phi| as 16 floats, entry (i, j) at 4i + j, written from its exact entries 1/2
_BELL_OUTER = [0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.5]


class Sign(Enum):
    PLUS = "plus"
    MINUS = "minus"


@_floats
class WernerState(NamedTuple):
    """Two-qubit Werner state with mixing parameter z in [0, 1]."""

    z: float

    def _check(self):
        if not 0.0 <= self.z <= 1.0:
            raise InvalidParameterError(f"Werner parameter z must lie in [0, 1], got {self.z}")

    def _entries(self) -> list[float]:
        """The 4x4 density matrix as 16 floats, row 2a + b for A in a, B in b; i % 5 == 0 on the diagonal."""
        mixed = (1.0 - self.z) / 4.0
        return [self.z * x + (mixed if i % 5 == 0 else 0.0) for i, x in enumerate(_BELL_OUTER)]


@_checked
class ProjectiveMeasurement(NamedTuple):
    """One outcome of the rotated-basis measurement on the auxiliary qubit.

    theta must be finite and sign a Sign.
    """

    theta: float
    sign: Sign

    def _check(self):
        check_finite("theta", self.theta)
        if not isinstance(self.sign, Sign):
            raise InvalidParameterError(f"sign must be a Sign, got {self.sign!r}")

    def _components(self) -> tuple[float, float]:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return (c, s) if self.sign is Sign.PLUS else (-s, c)


class CollapsedImpurity(NamedTuple):
    """Post-measurement impurity state, its population and outcome probability."""

    density_matrix: np.ndarray
    delta: float
    probability: float


def measure(state: WernerState, measurement: ProjectiveMeasurement) -> CollapsedImpurity:
    """Collapse the impurity by measuring the auxiliary qubit.

    Applies (I x P) rho (I x P), P = |v><v|, and traces out the auxiliary
    qubit, as the float contraction sum_kl rho[(i, k), (j, l)] v_k v_l; its
    trace is the outcome probability, 1/2 up to roundoff for every Werner
    state and measurement angle, so the division never meets a vanishing
    outcome.
    """
    v0, v1 = measurement._components()
    w = state._entries()
    half = [(w[r] * v0 + w[r + 1] * v1, w[r + 2] * v0 + w[r + 3] * v1) for r in (0, 4, 8, 12)]
    rho = [[v0 * half[2 * i][j] + v1 * half[2 * i + 1][j] for j in (0, 1)] for i in (0, 1)]
    probability = rho[0][0] + rho[1][1]
    reduced = np.array(rho, dtype=complex) / probability
    delta = (rho[0][0] - rho[1][1]) / probability
    return CollapsedImpurity(density_matrix=reduced, delta=delta, probability=probability)


def angle_for_target_delta(z: float, target: float) -> tuple[float, Sign]:
    """Measurement angle and outcome sign steering the population to target.

    Inverts delta = +- z cos(2 theta); a finite |target| <= z is required.
    target = 0 with z = 0 returns the balanced angle pi/4.
    """
    WernerState(z)  # refuses z outside [0, 1]
    check_finite("target", target)
    if abs(target) > z:
        raise UnreachableTargetError(f"|target| = {abs(target)} exceeds z = {z}")
    z, target = float(z), float(target)  # numpy float32 would run in single precision
    if z == 0.0:
        return math.pi / 4.0, Sign.PLUS
    theta = 0.5 * math.acos(min(1.0, abs(target) / z))
    sign = Sign.PLUS if target >= 0 else Sign.MINUS
    return theta, sign
