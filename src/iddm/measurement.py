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
    """The collapsed impurity state (real and symmetric: rho01 = rho10), its population and probability."""

    rho00: float
    rho01: float
    rho11: float
    delta: float
    probability: float

    @property
    def density_matrix(self):
        """The state as a complex 2x2 numpy array, built anew on each read (measure needs no numpy)."""
        import numpy as np
        return np.array([[self.rho00, self.rho01], [self.rho01, self.rho11]], dtype=complex)


def measure(state: WernerState, measurement: ProjectiveMeasurement) -> CollapsedImpurity:
    """Collapse the impurity by measuring the auxiliary qubit.

    Tr_B[(I x P) rho (I x P)], P = |v><v|, in closed form with mixed = (1 - z)/4
    and half = z/2: rho00 = v0 (half + mixed) v0 + v1 mixed v1, rho11 = v0 mixed
    v0 + v1 (half + mixed) v1 and rho01 = rho10 = v0 half v1 (+ 0.0, never -0).
    Its trace p is the outcome probability, 1/2 up to roundoff for every Werner
    state and angle, so no outcome vanishes.  The entries are scaled by 1/p,
    as numpy's complex division by p scaled them ((a + 0 * 0) * (1/p)), so
    that they keep those digits; delta is (rho00 - rho11)/p.
    """
    v0, v1 = measurement._components()
    mixed, half = (1.0 - state.z) / 4.0, state.z * 0.5
    rho00 = v0 * ((half + mixed) * v0) + v1 * (mixed * v1)
    rho11 = v0 * (mixed * v0) + v1 * ((half + mixed) * v1)
    rho01 = v0 * (half * v1) + 0.0
    probability = rho00 + rho11
    scale = 1.0 / probability
    return CollapsedImpurity(rho00 * scale, rho01 * scale, rho11 * scale,
                             (rho00 - rho11) / probability, probability)


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
