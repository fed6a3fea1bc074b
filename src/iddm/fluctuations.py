"""Collective excitation spectrum from quadratic fluctuations about the equilibrium.

The fluctuations live in four real quadratures q = (x1, p1, x2, p2), two per
mode, with alpha = (x1 + i p1)/sqrt(2) and beta = (x2 + i p2)/sqrt(2).  The
energy surface is the one in `meanfield.energy`, written in the amplitude
components a = q/sqrt(2); by the chain rule its quadrature Hessian is

    M = d^2E/dq^2 = (1/2) d^2E/da^2,

an exact power-of-two scale of the Hessian from `energy_derivatives`.  The
two normal-mode energies eps_- <= eps_+ are the symplectic eigenvalues of M
at the mean-field equilibrium, i.e. the positive imaginary parts of the
spectrum of J M with J the symplectic form (Emary & Brandes, PRE 67, 066203,
2003).  Working from the Hessian keeps one quadratic expansion for both
phases, and its entries are checked against finite differences of the energy.

The lower branch closes at the phase boundary (the soft mode of the
transition) and reopens on both sides; in the normal phase the spectrum also
has the closed form

    eps_pm^2 = [f1^2 + f2^2 +- sqrt((f1^2 - f2^2)^2 + 16 lam^2 f1 f2)]/2,

exposed separately as an independent check; eps_-^2 is evaluated as
2 f1 f2 (f1 f2 - 4 lam^2) / (f1^2 + f2^2 + sqrt(...)), which does not cancel
when f1 >> f2.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, UnstableEquilibriumError
from .meanfield import _frequencies, energy_derivatives, equilibrium_closed_form
from .model import ModelParams

__all__ = [
    "SpectrumResult",
    "SYMPLECTIC_FORM",
    "excitation_spectrum",
    "normal_phase_spectrum",
]

# Block-diagonal symplectic form for the ordering (x1, p1, x2, p2).
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


class SpectrumResult(NamedTuple):
    eps_minus: float
    eps_plus: float
    stable: bool


def excitation_spectrum(params: ModelParams, delta: float) -> SpectrumResult:
    """Normal-mode energies (eps_minus, eps_plus) at the mean-field equilibrium.

    The equilibrium comes from equilibrium_closed_form; the Hessian there must
    be positive semidefinite (up to 1e-9 times its scale) or
    UnstableEquilibriumError is raised.  Near nu -> 1 the rounding of M alone
    puts an error of about eps_plus^2 u / (2 eps_minus) on eps_minus (u the
    unit roundoff), which no choice of eigensolver removes.
    """
    sol = equilibrium_closed_form(params, delta)
    m = energy_derivatives(params, delta, (sol.alpha, 0.0, sol.beta, 0.0))[1] / 2.0
    scale = max(1.0, float(np.max(np.abs(m))))
    stable = bool(np.min(np.linalg.eigvalsh(m)) >= -1e-9 * scale)
    if not stable:
        raise UnstableEquilibriumError("fluctuation Hessian is not positive semidefinite")
    freqs = np.sort(np.abs(np.linalg.eigvals(SYMPLECTIC_FORM @ m).imag))
    # eigenvalues come in +-i eps pairs: [e-, e-, e+, e+] after sorting
    return SpectrumResult(eps_minus=float(freqs[1]), eps_plus=float(freqs[3]), stable=stable)


def normal_phase_spectrum(params: ModelParams, delta: float) -> tuple[float, float]:
    """Closed-form normal-phase mode energies, valid while f1 f2 >= 4 lam^2.

    Serves as an independent check on the Hessian route; the two must agree
    everywhere in the normal phase.  Both energies are homogeneous of degree
    one in (f1, f2, lam), so they are computed on the three divided by a power
    of two near max(f1, f2), where no square overflows or underflows to 0, and
    scaled back.  A ratio f2/f1 or f1/f2 beyond the float range is refused.
    """
    f1, f2 = _frequencies(params, delta)
    e = math.frexp(max(f1, f2))[1]
    if min(f1, f2) > 0.0 and math.ldexp(min(f1, f2), -e) < sys.float_info.min:
        raise InvalidParameterError("closed normal-phase spectrum: f1/f2 exceeds the float range")
    f1, f2, lam = (math.ldexp(x, -e) for x in (f1, f2, params.lam))
    if f1 * f2 < 4.0 * lam * lam:
        raise InvalidParameterError("closed normal-phase spectrum needs nu >= 1")
    a = f1 * f1 + f2 * f2
    r = math.sqrt((f1 * f1 - f2 * f2) ** 2 + 16.0 * lam * lam * f1 * f2)
    # (a - r)/2 cancels when f1 >> f2; (a - r)(a + r) = 4 f1 f2 (f1 f2 - 4 lam^2),
    # taken as two roots so that eps_-^2 ~ f2^2 cannot underflow when f2 << f1
    eps_minus = math.sqrt(2.0 * f1 * f2 / (a + r)) * math.sqrt(f1 * f2 - 4.0 * lam * lam)
    return math.ldexp(eps_minus, e), math.ldexp(math.sqrt((a + r) / 2.0), e)
