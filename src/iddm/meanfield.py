"""Mean-field ground states and phase structure at fixed impurity population.

In the thermodynamic limit the scaled ground-state energy per atom is a
function of the photon displacement alpha and the atomic inversion amplitude
beta.  `energy` takes them as four real amplitude components
a = (Re alpha, Im alpha, Re beta, Im beta):

    E0(a) = f1 |alpha|^2 + f2 |beta|^2 - 4 lam K Re(alpha) Re(beta),
    K = sqrt(1 - |beta|^2),

with f1, f2 the effective frequencies at population delta, and
`energy_derivatives` gives its gradient and Hessian in the same components.
This is the one place the surface is written; the fluctuation spectrum and
the numerical minimizer both use it.  The minimum is real, so on the real
slice it reads E0 = f1 alpha^2 + f2 beta^2 - 4 lam K alpha beta.  For nu =
f1 f2 / (4 lam^2) >= 1 the minimum sits at the origin (normal phase); for
-1 < nu < 1 it sits at

    beta^2 = (1 - nu)/2,   alpha = 2 lam K beta / f1,

with E0 = -(lam^2/f1)(1 - nu)^2 (superradiant phase).  For nu <= -1 the
energy has no interior minimum and the routines refuse the input.

Both the closed-form branch and an independent numerical minimizer (one
multistart damped Newton descent on the real slice) are provided; the
numerical route exists so the closed forms can be checked against something
that never saw them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    ChiUnsupportedError,
    ConvergenceFailureError,
    DomainError,
    IDDMError,
    InvalidParameterError,
    UnboundedPhaseError,
    ZeroKappaError,
)
from .model import ModelParams, check_population, effective_frequencies

__all__ = [
    "Phase",
    "MeanFieldSolution",
    "DerivativeScan",
    "CRITICAL_NU_TOL",
    "energy",
    "energy_derivatives",
    "equilibrium_closed_form",
    "equilibrium_numeric",
    "critical_delta",
    "critical_lambda",
    "observables",
    "derivative_scan",
]

# |nu - 1| at or below this tags the point Critical; the order parameters are
# exactly zero there so the normal-phase values are reported.
CRITICAL_NU_TOL = 1e-12


class Phase(Enum):
    NORMAL = "normal"
    SUPERRADIANT = "superradiant"
    CRITICAL = "critical"


@dataclass(frozen=True)
class MeanFieldSolution:
    """Equilibrium amplitudes at one (params, delta) point.

    alpha and beta are canonicalized to the nonnegative pair; the energy is
    invariant under the simultaneous sign flip.  nu is None when lam = 0.
    """

    alpha: float
    beta: float
    e0: float
    nu: float | None
    phase: Phase

    @property
    def alpha2(self) -> float:
        return self.alpha**2

    @property
    def beta2(self) -> float:
        return self.beta**2


def _frequencies(params: ModelParams, delta: float) -> tuple[float, float]:
    if params.chi != 0:
        raise ChiUnsupportedError("mean-field routines require chi = 0")
    ef = effective_frequencies(params, delta)
    return ef.f1, ef.f2


def _spin_k(b1, b2, rim: bool):
    """K = sqrt(1 - |beta|^2) for float or array components.

    Raises DomainError outside the sphere, and on its rim |beta| = 1 unless
    rim is set.
    """
    s = b1 * b1 + b2 * b2
    if isinstance(s, np.ndarray):
        inside, sqrt = (s <= 1.0 if rim else s < 1.0).all(), np.sqrt
    else:
        inside, sqrt = (s <= 1.0 if rim else s < 1.0), math.sqrt
    if not inside:
        raise DomainError("|beta| must be <= 1" if rim else "derivatives need |beta| < 1")
    return sqrt(1.0 - s)


def energy(params: ModelParams, delta: float, a) -> float | np.ndarray:
    """Scaled energy per atom at a = (Re alpha, Im alpha, Re beta, Im beta).

    The components may be floats or arrays of one shape (evaluated
    elementwise); |beta| > 1 is refused.
    """
    f1, f2 = _frequencies(params, delta)
    a1, a2, b1, b2 = a
    k = _spin_k(b1, b2, rim=True)
    return f1 * a1 * a1 + f1 * a2 * a2 + f2 * b1 * b1 + f2 * b2 * b2 - 4.0 * params.lam * k * a1 * b1


def energy_derivatives(params: ModelParams, delta: float, a) -> tuple[np.ndarray, np.ndarray]:
    """Gradient (..., 4) and Hessian (..., 4, 4) of `energy` in the components of a.

    Takes the same inputs as `energy` but needs |beta| < 1 strictly; K
    appears in denominators.
    """
    f1, f2 = _frequencies(params, delta)
    a1, a2, b1, b2 = a
    k = _spin_k(b1, b2, rim=False)
    c = 4.0 * params.lam
    h_ab1 = -c * (k - b1 * b1 / k)
    h_ab2 = c * b1 * b2 / k
    shape = np.shape(a1)
    grad = np.empty(shape + (4,))
    grad[..., 0] = 2.0 * f1 * a1 - c * k * b1
    grad[..., 1] = 2.0 * f1 * a2
    grad[..., 2] = 2.0 * f2 * b1 + a1 * h_ab1
    grad[..., 3] = 2.0 * f2 * b2 + a1 * h_ab2
    hess = np.zeros(shape + (4, 4))
    hess[..., 0, 0] = hess[..., 1, 1] = 2.0 * f1
    hess[..., 0, 2] = hess[..., 2, 0] = h_ab1
    hess[..., 0, 3] = hess[..., 3, 0] = h_ab2
    hess[..., 2, 2] = 2.0 * f2 + c * a1 * (3.0 * b1 / k + b1**3 / k**3)
    hess[..., 2, 3] = hess[..., 3, 2] = c * a1 * b2 * (1.0 / k + b1 * b1 / k**3)
    hess[..., 3, 3] = 2.0 * f2 + c * a1 * b1 * (1.0 / k + b2 * b2 / k**3)
    return grad, hess


def _classify(nu: float, critical_tol: float) -> Phase:
    if abs(nu - 1.0) <= critical_tol:
        return Phase.CRITICAL
    return Phase.NORMAL if nu > 1.0 else Phase.SUPERRADIANT


def equilibrium_closed_form(
    params: ModelParams, delta: float, *, critical_tol: float = CRITICAL_NU_TOL
) -> MeanFieldSolution:
    """Global minimum of the scaled energy from the closed-form branch rules.

    The reported e0 is the energy function evaluated at the amplitudes, not
    the superradiant identity -(lam^2/f1)(1-nu)^2; the identity is a
    consequence and is asserted in the tests.
    """
    f1, f2 = _frequencies(params, delta)
    lam = params.lam
    if lam == 0:
        if f2 < 0:
            raise UnboundedPhaseError("lam = 0 with f2 < 0: minimum sits on the |beta| = 1 boundary")
        return MeanFieldSolution(0.0, 0.0, 0.0, None, Phase.NORMAL)
    nu = f1 * f2 / (4.0 * lam * lam)
    if nu <= -1.0:
        raise UnboundedPhaseError(f"nu = {nu} <= -1: no interior minimum")
    phase = _classify(nu, critical_tol)
    if phase is not Phase.SUPERRADIANT:
        return MeanFieldSolution(0.0, 0.0, 0.0, nu, phase)
    beta = math.sqrt((1.0 - nu) / 2.0)
    k = math.sqrt((1.0 + nu) / 2.0)
    alpha = 2.0 * lam * k * beta / f1
    e0 = energy(params, delta, (alpha, 0.0, beta, 0.0))
    return MeanFieldSolution(alpha, beta, e0, nu, Phase.SUPERRADIANT)


# Keep the numeric minimizer's beta strictly inside the sphere; the gradient
# is singular at |beta| = 1.
_BETA_CAP = 1.0 - 1e-9
_SEED = 20240817
# A start stops once max|g| <= _GRAD_FLOOR * max(1, |e|), the roundoff level.
_GRAD_FLOOR = 1e-14
_HALVINGS = 40
# A candidate whose lowest Hessian eigenvalue is below -_SADDLE_TOL * max|eig|
# is a saddle; the margin keeps a flat critical-point origin in play.
_SADDLE_TOL = 1e-10


def _descend(params: ModelParams, delta: float, z: np.ndarray, max_iterations: int):
    """Damped Newton from every row of z = [[Re alpha, Re beta], ...] at once.

    The step is -|H|^-1 g, with the eigenvalues of the 2x2 Hessian made
    positive and floored, so it descends at saddles too.  A backtracking step
    is accepted when it passes Armijo or lowers max|g|; a start whose line
    search fails stops where it is.  Returns (z, e, max|g|, Hessian) per start.
    """

    def surface(z):
        zero = np.zeros(len(z))
        a = (z[:, 0], zero, z[:, 1], zero)
        g, h = energy_derivatives(params, delta, a)
        return energy(params, delta, a), g[:, ::2], h[:, ::2, ::2]

    e, g, h = surface(z)
    gmax = np.max(np.abs(g), axis=1)
    stalled = np.zeros(len(z), dtype=bool)
    for _ in range(max_iterations):
        live = ~stalled & (gmax > _GRAD_FLOOR * np.maximum(1.0, np.abs(e)))
        if not live.any():
            break
        w, v = np.linalg.eigh(h)
        w = np.abs(w)
        w = np.maximum(w, 1e-12 * w.max(axis=1, keepdims=True))
        d = -np.einsum("nij,nj->ni", v, np.einsum("nji,nj->ni", v, g) / w)
        slope = np.sum(g * d, axis=1)
        t = 1.0
        pending = np.flatnonzero(live)
        for _ in range(_HALVINGS + 1):
            trial = z[pending] + t * d[pending]
            trial[:, 1] = np.clip(trial[:, 1], -_BETA_CAP, _BETA_CAP)
            e_t, g_t, h_t = surface(trial)
            gmax_t = np.max(np.abs(g_t), axis=1)
            ok = (e_t <= e[pending] + 1e-4 * t * slope[pending]) | (gmax_t < gmax[pending])
            done = pending[ok]
            z[done], e[done], g[done], h[done], gmax[done] = trial[ok], e_t[ok], g_t[ok], h_t[ok], gmax_t[ok]
            pending = pending[~ok]
            if pending.size == 0:
                break
            t *= 0.5
        stalled[pending] = True
    return z, e, gmax, h


def equilibrium_numeric(
    params: ModelParams,
    delta: float,
    seed_count: int = 8,
    *,
    grad_tol: float = 1e-10,
    max_iterations: int = 500,
    critical_tol: float = CRITICAL_NU_TOL,
) -> MeanFieldSolution:
    """Locate the energy minimum by multistart descent, independent of the closed forms.

    All starts run one vectorized damped Newton descent on the real slice
    (Re alpha, Re beta); max_iterations (the CLI's --solver-maxiter) caps its
    Newton iterations.  The origin is always one of the starts (it is a
    stationary point, and the exact answer in the normal phase).
    Candidates whose 2x2 Hessian has a clearly negative eigenvalue are
    saddles (the origin in the superradiant phase) and are dropped.
    ConvergenceFailureError is raised when no candidate is left or when the
    lowest-energy one never reached the gradient tolerance, so an exhausted
    budget cannot silently return a saddle.
    """
    f1, f2 = _frequencies(params, delta)
    lam = params.lam
    if lam == 0 and f2 < 0:
        raise UnboundedPhaseError("lam = 0 with f2 < 0: minimum sits on the |beta| = 1 boundary")
    if lam > 0:
        nu = f1 * f2 / (4.0 * lam * lam)
        if nu <= -1.0:
            raise UnboundedPhaseError(f"nu = {nu} <= -1: no interior minimum")
    else:
        nu = None
    if seed_count < 1:
        raise InvalidParameterError("seed_count must be >= 1")

    alpha_scale = 2.0 * lam / f1 if lam > 0 else 1.0 / f1
    rng = np.random.default_rng(_SEED)
    draws = rng.uniform(-1.0, 1.0, size=(seed_count - 1, 2)) * np.array([alpha_scale, 0.98])
    z, e, gmax, h = _descend(params, delta, np.vstack([np.zeros((1, 2)), draws]), max_iterations)

    w = np.linalg.eigvalsh(h)
    keep = np.flatnonzero(w[:, 0] >= -_SADDLE_TOL * np.abs(w).max(axis=1))
    if keep.size == 0:
        raise ConvergenceFailureError("every candidate is a saddle of the energy surface")
    best = int(keep[np.argmin(e[keep])])
    gnorm = float(gmax[best])
    if gnorm > grad_tol:
        raise ConvergenceFailureError(
            f"lowest candidate has gradient norm {gnorm:.3e} above tolerance {grad_tol:.3e}"
        )
    alpha, beta = float(z[best, 0]), float(z[best, 1])
    # Canonical sign: the energy is even under (alpha, beta) -> (-alpha, -beta),
    # and for beta >= 0 it never increases under alpha -> |alpha|.
    if beta < 0:
        alpha, beta = -alpha, -beta
    alpha = abs(alpha)
    e0 = energy(params, delta, (alpha, 0.0, beta, 0.0))
    phase = Phase.NORMAL if nu is None else _classify(nu, critical_tol)
    return MeanFieldSolution(alpha, beta, e0, nu, phase)


def critical_delta(params: ModelParams) -> float | None:
    """Impurity population at which nu = 1, or None when no root lies in [-1, 1].

    For xi1 = 0 this is the closed form (4 lam^2 - omega omega0)/(omega kappa) - 1;
    otherwise the quadratic f1(d) f2(d) = 4 lam^2 is solved and the smallest
    admissible root (f1 > 0) in [-1, 1] is returned.
    """
    if params.kappa == 0:
        raise ZeroKappaError("critical_delta needs kappa != 0")
    if params.xi1 == 0:
        dc = (4.0 * params.lam**2 - params.omega * params.omega0) / (params.omega * params.kappa) - 1.0
        return dc if -1.0 <= dc <= 1.0 else None
    # (omega + xi1 d)(omega0 + kappa(1 + d)) = 4 lam^2, quadratic in d
    a = params.kappa * params.xi1
    b = params.xi1 * (params.omega0 + params.kappa) + params.omega * params.kappa
    c = params.omega * (params.omega0 + params.kappa) - 4.0 * params.lam**2
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return None
    q = -(b + math.copysign(math.sqrt(disc), b if b != 0 else 1.0)) / 2.0
    roots = []
    if q != 0:
        roots = [q / a, c / q]
    else:
        roots = [0.0]
    slack = 1e-12
    admissible = sorted(
        min(1.0, max(-1.0, r))
        for r in roots
        if -1.0 - slack <= r <= 1.0 + slack and params.omega + params.xi1 * r > 0
    )
    return admissible[0] if admissible else None


def critical_lambda(params: ModelParams, delta: float) -> float | None:
    """Coupling at which nu = 1 for fixed delta: lam_c = sqrt(f1 f2)/2.

    Returns None when f2 <= 0, where the system is superradiant at every
    lam > 0 and no finite threshold exists.
    """
    ef = effective_frequencies(params, delta)
    product = ef.f1 * ef.f2
    if product <= 0:
        return None
    return 0.5 * math.sqrt(product)


def observables(solution: MeanFieldSolution) -> tuple[float, float]:
    """Scaled inversion and photon number (Jz/N, <a+a>/N) = (beta^2 - 1/2, alpha^2)."""
    return solution.beta2 - 0.5, solution.alpha2


@dataclass(frozen=True)
class DerivativeScan:
    """Ground-state energy on a uniform grid with central first and second differences.

    d1_values and d2_values live on grid[1:-1] (both stencils need both
    neighbours).  jump_index points into d2_values at the left element of the
    largest consecutive step; jump_location is the midpoint of the two grid
    points carrying that step.
    """

    parameter_name: str
    grid: np.ndarray
    e0_values: np.ndarray
    d1_values: np.ndarray
    d2_values: np.ndarray
    step: float
    jump_index: int
    jump_location: float
    jump_size: float


def derivative_scan(
    params: ModelParams,
    parameter_name: str,
    start: float,
    stop: float,
    step: float,
    *,
    delta: float | None = None,
) -> DerivativeScan:
    """Scan E0 along delta or lambda and difference it on the grid.

    A kink in E0 shows up as a step in the second difference; the scan
    reports where the largest step sits.  Equilibrium failures at a grid
    point are re-raised with the offending point named.
    """
    if parameter_name not in ("delta", "lambda"):
        raise InvalidParameterError(f"parameter_name must be 'delta' or 'lambda', got {parameter_name!r}")
    if parameter_name == "lambda":
        if delta is None:
            raise InvalidParameterError("lambda scans need the fixed impurity population delta")
        delta = check_population(delta)
    elif delta is not None:
        raise InvalidParameterError("delta scans take no separate delta argument")
    if not step > 0:
        raise InvalidParameterError(f"step must be > 0, got {step}")
    if not stop > start:
        raise InvalidParameterError("stop must exceed start")
    count = int(round((stop - start) / step)) + 1
    if count < 3:
        raise InvalidParameterError("grid must contain at least 3 points")
    h = (stop - start) / (count - 1)
    if abs(h - step) > 1e-9 * step:
        raise InvalidParameterError("(stop - start) must be an integer multiple of step")

    grid = np.linspace(start, stop, count)
    e0 = np.empty(count)
    for i, v in enumerate(grid):
        try:
            if parameter_name == "delta":
                sol = equilibrium_closed_form(params, float(v))
            else:
                sol = equilibrium_closed_form(replace(params, lam=float(v)), delta)
        except IDDMError as exc:
            raise type(exc)(f"{parameter_name} = {v} (grid index {i}): {exc}") from exc
        e0[i] = sol.e0

    d1 = (e0[2:] - e0[:-2]) / (2.0 * h)
    d2 = (e0[2:] - 2.0 * e0[1:-1] + e0[:-2]) / (h * h)
    steps = np.abs(np.diff(d2))
    j = int(np.argmax(steps)) if steps.size else 0
    interior = grid[1:-1]
    location = 0.5 * (interior[j] + interior[j + 1]) if steps.size else float(interior[0])
    size = float(steps[j]) if steps.size else 0.0
    return DerivativeScan(
        parameter_name=parameter_name,
        grid=grid,
        e0_values=e0,
        d1_values=d1,
        d2_values=d2,
        step=h,
        jump_index=j,
        jump_location=float(location),
        jump_size=size,
    )
