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
At the equilibrium (alpha, 0, beta, 0) M splits into X = [[m00, m02],
[m02, m22]] on (x1, x2) and diag(m00, m33) on (p1, p2), m00 = f1; eps^2 are
the eigenvalues of diag(m00, m33) X, taken in plain floats as those of its
symmetric twin [[m00^2, m02 r], [m02 r, m33 m22]], r = sqrt(m00 m33).

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

from .errors import InvalidParameterError, UnstableEquilibriumError
from .meanfield import _closed_form, _derivatives, _frequencies, _jacobi
from .model import ModelParams

__all__ = [
    "SpectrumResult",
    "excitation_spectrum",
    "normal_phase_spectrum",
]


class SpectrumResult(NamedTuple):
    """Normal-mode energies; stable is always true on a returned result.

    excitation_spectrum raises UnstableEquilibriumError (exit code 1 from
    `iddm spectrum`) at an unstable point instead of returning it.
    """

    eps_minus: float
    eps_plus: float
    stable: bool


def excitation_spectrum(params: ModelParams, delta: float) -> SpectrumResult:
    """Normal-mode energies (eps_minus, eps_plus) at the mean-field equilibrium.

    The equilibrium comes from the closed form; the Hessian there must be
    positive semidefinite (up to 1e-9 times its scale) or
    UnstableEquilibriumError is raised, and a spectrum beyond the float range
    raises InvalidParameterError.  Near nu -> 1 the rounding of M alone puts
    an error of about eps_plus^2 u / (2 eps_minus) on eps_minus (u the unit
    roundoff), which no choice of eigensolver removes.
    """
    f1, f2 = _frequencies(params, delta)
    sol = _closed_form(f1, f2, params.lam)
    # E is linear in (f1, f2, lam) at fixed amplitudes: M = H/2 is H at half of
    # each (bit for bit above the subnormals), and m00 = f1 cannot overflow.
    _, (m00, m02, _, m22, _, m33) = _derivatives(0.5 * f1, 0.5 * f2, 0.5 * params.lam,
                                                 (sol.alpha, 0.0, sol.beta, 0.0))
    top = max(m00, abs(m02), abs(m22), abs(m33))
    _, _, w0, w1 = _jacobi(m00, m02, m22)
    if min(m33, w0, w1) < -1e-9 * max(1.0, top):
        raise UnstableEquilibriumError("fluctuation Hessian is not positive semidefinite")
    e = math.frexp(top)[1]  # M over 2^e, so that no product overflows
    m00, m02, m22, m33 = (math.ldexp(x, -e) for x in (m00, m02, m22, max(m33, 0.0)))
    p, q = m00 * m00, m33 * m22
    plus = math.sqrt((p + q) / 2.0 + math.hypot((p - q) / 2.0, m02 * math.sqrt(m00 * m33)))
    # eps_-^2 = det / eps_+^2, the determinant taken as a product of roots
    minus = math.sqrt(m00) * math.sqrt(m33) * math.sqrt(max(m00 * m22 - m02 * m02, 0.0)) / plus
    eps_minus, eps_plus = math.ldexp(minus, e), math.ldexp(plus, e)
    if not (math.isfinite(eps_minus) and math.isfinite(eps_plus)):
        raise InvalidParameterError("fluctuation spectrum exceeds the float range")
    return SpectrumResult(eps_minus=eps_minus, eps_plus=eps_plus, stable=True)


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
