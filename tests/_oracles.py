"""numpy oracles that the tests hold the package's float kernels against.

Each is written from its own formula and reads none of the entries that the
kernel under test contracts:
  * werner_density_matrix: rho = (1 - z)/4 * I + z |Phi><Phi| as a 4x4 complex
    array, |Phi><Phi| written from its exact entries 1/2
  * measurement_vector and projector: v = (cos theta, sin theta) on the plus
    outcome and (-sin theta, cos theta) on the minus one, and |v><v|
  * energy_derivatives: the gradient (4,) and Hessian (4, 4) of
    meanfield.energy in a = (Re alpha, Im alpha, Re beta, Im beta), assembled
    from meanfield._derivatives for the finite-difference tests
"""

import math

import numpy as np

from iddm import Sign
from iddm.meanfield import _derivatives, _frequencies

# |Phi><Phi|, |Phi> = (|00> + |11>)/sqrt(2)
_BELL_PROJECTOR = np.array([
    [0.5, 0.0, 0.0, 0.5],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.5, 0.0, 0.0, 0.5],
])


def werner_density_matrix(z: float) -> np.ndarray:
    return ((1.0 - z) / 4.0 * np.eye(4) + z * _BELL_PROJECTOR).astype(complex)


def measurement_vector(theta: float, sign: Sign) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c, s] if sign is Sign.PLUS else [-s, c])


def projector(theta: float, sign: Sign) -> np.ndarray:
    v = measurement_vector(theta, sign)
    return np.outer(v, v).astype(complex)


def energy_derivatives(params, delta: float, a) -> tuple[np.ndarray, np.ndarray]:
    """Refuses chi != 0 and |beta| >= 1 as meanfield.energy refuses chi and |beta| > 1."""
    grad, (h00, h02, h03, h22, h23, h33) = _derivatives(*_frequencies(params, delta), params.lam, a)
    hess = np.array([
        [h00, 0.0, h02, h03],
        [0.0, h00, 0.0, 0.0],
        [h02, 0.0, h22, h23],
        [h03, 0.0, h23, h33],
    ])
    return np.array(grad), hess
