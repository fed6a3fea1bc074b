"""Model parameters of the impurity-doped Dicke Hamiltonian.

The Hamiltonian couples a single cavity mode to N two-level atoms and to one
impurity qubit.  After the impurity is frozen to a fixed population
delta = <sigma_z> in [-1, 1], the whole delta dependence enters through two
effective frequencies,

    f1 = omega + xi1 * delta          (photon branch)
    f2 = omega0 + kappa * (1 + delta) (atomic branch)

and the dimensionless combination nu = f1 * f2 / (4 lambda^2), which equals 1
on the phase boundary (nu itself is computed and checked in `meanfield`).
This module holds the parameter containers, the input checks shared by the
package, the (f1, f2) helper, and the reductions from microscopic cavity-BEC
and impurity-drive parameters to the model coefficients.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import InvalidParameterError, NonPositiveF1Error, ZeroDetuningError

__all__ = [
    "ModelParams",
    "CavityMicroParams",
    "ImpurityMicroParams",
    "effective_frequencies",
    "derive_cavity_params",
    "derive_impurity_couplings",
]


def _checked(record: type, floats: bool = False) -> type:
    """Make construction, _make and _replace of the NamedTuple record run its _check.

    With floats, the record then stores float(x) of each field.
    """
    new = record.__new__

    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        # an exact-size tuple: one built from the map object is resized, which fills the tuple free list
        return tuple.__new__(cls, (*map(float, self),)) if floats else self

    record.__new__ = __new__
    record._make = classmethod(lambda cls, iterable: cls(*iterable))  # what _replace calls
    return record


def _floats(record: type) -> type:
    """_checked for an all-float record, stored as float(x): numpy float32 would run in single precision."""
    return _checked(record, floats=True)


@_floats
class ModelParams(NamedTuple):
    """Coefficients of the single-mode Hamiltonian.

    All energies are quoted in units of the atomic transition frequency, so
    omega0 = 1 in typical use.  lam is the collective atom-photon coupling
    (written lambda in the math; `lambda` is reserved in Python).  Every
    float field must be finite, and 4 lam^2 must neither underflow to 0
    (for lam > 0) nor overflow.
    """

    omega: float            # cavity frequency, > 0
    lam: float              # collective coupling, >= 0
    kappa: float = 0.0      # impurity-condensate coupling, any sign
    omega0: float = 1.0     # atomic transition frequency, > 0
    chi: float = 0.0        # atomic nonlinearity; mean-field routines need 0
    xi1: float = 0.0        # dispersive impurity shift of the cavity
    xi2: float = 0.0        # impurity-induced cavity displacement
    omega_q_prime: float = 0.0  # shifted impurity splitting (constant offset)

    def _check(self):
        if not all(map(math.isfinite, self)):  # name the first field that is not
            for name, value in zip(self._fields, self):
                check_finite("lambda" if name == "lam" else name, value)
        if not self.omega > 0:
            raise InvalidParameterError(f"omega must be > 0, got {self.omega}")
        if not self.omega0 > 0:
            raise InvalidParameterError(f"omega0 must be > 0, got {self.omega0}")
        check_lambda(self.lam)


def check_finite(name: str, value: float) -> None:
    """Validate a finite float."""
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value}")


def check_count(name: str, value: int, minimum: int = 1) -> None:
    """Validate a count: an int or numpy integer, never a bool or a float, of at least minimum."""
    numpy = sys.modules.get("numpy")  # a numpy integer exists only once numpy is loaded
    if isinstance(value, bool) or not (isinstance(value, int) or numpy and isinstance(value, numpy.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}")


def check_lambda(lam: float) -> float:
    """Validate a finite coupling lam >= 0 whose 4 lam^2 neither underflows to 0 nor overflows."""
    if lam < 0:
        raise InvalidParameterError(f"lambda must be >= 0, got {lam}")
    if lam > 0 and 4.0 * lam * lam == 0:
        # nu = f1 f2 / (4 lam^2) would divide by zero
        raise InvalidParameterError(f"lambda = {lam} is too small: 4 lambda^2 underflows to 0")
    if 4.0 * lam * lam == math.inf:
        raise InvalidParameterError(f"lambda = {lam} is too large: 4 lambda^2 overflows")
    return lam


def check_population(delta: float) -> float:
    """Validate an impurity population delta = <sigma_z> in [-1, 1]."""
    if not -1.0 <= delta <= 1.0:
        raise InvalidParameterError(f"impurity population must lie in [-1, 1], got {delta}")
    return float(delta)


def effective_frequencies(params: ModelParams, delta: float) -> tuple[float, float]:
    """Return (f1, f2) at impurity population delta.

    Raises InvalidParameterError outside [-1, 1] and when f1 or f2 overflows,
    and NonPositiveF1Error when omega + xi1*delta <= 0; every ground-state
    statement downstream assumes a confining photon branch.
    """
    delta = check_population(delta)
    f1 = params.omega + params.xi1 * delta
    if f1 <= 0:
        raise NonPositiveF1Error(f"f1 = omega + xi1*delta = {f1} must be > 0")
    if f1 == math.inf:
        raise InvalidParameterError(f"f1 = omega + xi1*delta = {f1} overflows")
    f2 = params.omega0 + params.kappa * (1.0 + delta)
    if not math.isfinite(f2):
        raise InvalidParameterError(f"f2 = omega0 + kappa*(1 + delta) = {f2} overflows")
    return f1, f2


@_floats
class CavityMicroParams(NamedTuple):
    """Microscopic cavity-BEC parameters behind (omega, omega0, lam, chi).

    delta_c is the pump-cavity detuning, u0 the per-atom dispersive shift,
    omega_r the recoil frequency, (s0, s1, s01) the intra- and inter-mode
    collision strengths, g0 the single-photon coupling, omega_p the pump Rabi
    frequency and delta_a the pump-atom detuning.
    """

    delta_c: float
    u0: float
    omega_r: float
    s0: float
    s1: float
    s01: float
    g0: float
    omega_p: float
    delta_a: float

    def _check(self):
        if self.delta_a == 0:
            raise ZeroDetuningError("pump-atom detuning delta_a must be nonzero")


def derive_cavity_params(micro: CavityMicroParams, n_atoms: int) -> tuple[float, float, float, float]:
    """Reduce microscopic cavity-BEC parameters to (omega, omega0, lam, chi).

    omega  = -delta_c + N u0 / 2
    omega0 = 2 omega_r + (N - 1)(s1 - s0) / 2
    lam    = sqrt(N) g0 omega_p / (2 delta_a)
    chi    = N [ (s0 + s1)/2 - s01 ]
    """
    check_count("n_atoms", n_atoms)
    omega = -micro.delta_c + n_atoms * micro.u0 / 2.0
    omega0 = 2.0 * micro.omega_r + (n_atoms - 1) * (micro.s1 - micro.s0) / 2.0
    lam = math.sqrt(n_atoms) * micro.g0 * micro.omega_p / (2.0 * micro.delta_a)
    chi = n_atoms * ((micro.s0 + micro.s1) / 2.0 - micro.s01)
    return omega, omega0, lam, chi


@_floats
class ImpurityMicroParams(NamedTuple):
    """Microscopic impurity-drive parameters behind (xi1, xi2).

    g_q is the impurity-cavity coupling, omega_q the classical drive Rabi
    frequency and delta_q the drive detuning from the impurity transition.
    """

    g_q: float
    omega_q: float
    delta_q: float

    def _check(self):
        if self.delta_q == 0:
            raise ZeroDetuningError("impurity drive detuning delta_q must be nonzero")


def derive_impurity_couplings(micro: ImpurityMicroParams) -> tuple[float, float]:
    """Reduce impurity-drive parameters to (xi1, xi2) = (g_q^2, g_q omega_q)/delta_q."""
    xi1 = micro.g_q**2 / micro.delta_q
    xi2 = micro.g_q * micro.omega_q / micro.delta_q
    return xi1, xi2
