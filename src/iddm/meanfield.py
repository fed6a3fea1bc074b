"""Mean-field ground states and phase structure at fixed impurity population.

In the thermodynamic limit the scaled ground-state energy per atom is a
function of the photon displacement alpha and the atomic inversion amplitude
beta.  `energy` takes them as four real amplitude components
a = (Re alpha, Im alpha, Re beta, Im beta):

    E0(a) = f1 |alpha|^2 + f2 |beta|^2 - 4 lam K Re(alpha) Re(beta),
    K = sqrt(1 - |beta|^2),

with f1, f2 the effective frequencies at population delta, and
`_derivatives` gives, from (f1, f2, lam), its gradient and the distinct
Hessian entries in the same components.  Both take plain float components,
one point per call.
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
from enum import Enum
from typing import NamedTuple

from .errors import (
    ChiUnsupportedError,
    ConvergenceFailureError,
    DomainError,
    IDDMError,
    InvalidParameterError,
    UnboundedPhaseError,
    ZeroKappaError,
)
from .model import (ModelParams, check_count, check_finite, check_lambda, check_population,
                    effective_frequencies)

__all__ = [
    "Phase",
    "MeanFieldSolution",
    "DerivativeScan",
    "CRITICAL_NU_TOL",
    "energy",
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


class MeanFieldSolution(NamedTuple):
    """Equilibrium amplitudes at one (params, delta) point.

    alpha and beta are canonicalized to the nonnegative pair; the energy is
    invariant under the simultaneous sign flip.  nu is None when lam = 0, and
    inf where f1 f2 / (4 lam^2) exceeds the float range: the phase is then
    normal and every other field is exact.
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


_CHI_REFUSAL = "mean-field routines require chi = 0"


def _frequencies(params: ModelParams, delta: float) -> tuple[float, float]:
    if params.chi != 0:
        raise ChiUnsupportedError(_CHI_REFUSAL)
    return effective_frequencies(params, delta)


def _nu(f1: float, f2: float, lam: float) -> float | None:
    """nu = f1 f2 / (4 lam^2), or None at lam = 0; inf where the quotient exceeds the float range.

    Raises UnboundedPhaseError where the energy has no interior minimum:
    nu <= -1, or lam = 0 with f2 < 0.
    """
    if lam == 0:
        if f2 < 0:
            raise UnboundedPhaseError("lam = 0 with f2 < 0: minimum sits on the |beta| = 1 boundary")
        return None
    nu = f1 * f2 / (4.0 * lam * lam)
    if nu <= -1.0:
        raise UnboundedPhaseError(f"nu = {nu} <= -1: no interior minimum")
    return nu


def _unit_scale(*values: float) -> list[float]:
    """values over the power of two that brings the largest |value| into [0.5, 1).

    The division is exact unless a quotient is subnormal, so values times any
    2^k give the same list while they stay in the normal float range.
    """
    e = math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, -e) for v in values]


def _spin_k(b1: float, b2: float, rim: bool) -> float:
    """K = sqrt(1 - |beta|^2).

    Raises DomainError outside the sphere, and on its rim |beta| = 1 unless
    rim is set.
    """
    s = b1 * b1 + b2 * b2
    if not (s <= 1.0 if rim else s < 1.0):
        raise DomainError("|beta| must be <= 1" if rim else "derivatives need |beta| < 1")
    return math.sqrt(1.0 - s)


def _energy(f1: float, f2: float, lam: float, a):
    a1, a2, b1, b2 = a
    k = _spin_k(b1, b2, rim=True)
    return f1 * a1 * a1 + f1 * a2 * a2 + f2 * b1 * b1 + f2 * b2 * b2 - 4.0 * lam * k * a1 * b1


def _derivatives(f1: float, f2: float, lam: float, a):
    """Gradient terms and Hessian entries (00, 02, 03, 22, 23, 33) of `_energy`.

    Entry (1, 1) equals (0, 0); the other entries above the diagonal are 0.
    """
    a1, a2, b1, b2 = a
    k = _spin_k(b1, b2, rim=False)
    c = 4.0 * lam
    h02 = -c * (k - b1 * b1 / k)
    h03 = c * b1 * b2 / k
    h22 = 2.0 * f2 + c * a1 * (3.0 * b1 / k + b1**3 / k**3)
    h23 = c * a1 * b2 * (1.0 / k + b1 * b1 / k**3)
    h33 = 2.0 * f2 + c * a1 * b1 * (1.0 / k + b2 * b2 / k**3)
    grad = (2.0 * f1 * a1 - c * k * b1, 2.0 * f1 * a2, 2.0 * f2 * b1 + a1 * h02, 2.0 * f2 * b2 + a1 * h03)
    return grad, (2.0 * f1, h02, h03, h22, h23, h33)


def energy(params: ModelParams, delta: float, a) -> float:
    """Scaled energy per atom at a = (Re alpha, Im alpha, Re beta, Im beta).

    The four components are floats; |beta| > 1 is refused.
    """
    return _energy(*_frequencies(params, delta), params.lam, a)


# The closed form runs once per grid point: module globals and tuple.__new__
# skip the Enum attribute lookups and the NamedTuple's Python-level __new__.
_NORMAL, _SUPERRADIANT, _CRITICAL = Phase.NORMAL, Phase.SUPERRADIANT, Phase.CRITICAL
_new_tuple = tuple.__new__


def _classify(nu: float | None) -> Phase:
    if nu is None:
        return _NORMAL
    if abs(nu - 1.0) <= CRITICAL_NU_TOL:
        return _CRITICAL
    return _NORMAL if nu > 1.0 else _SUPERRADIANT


def equilibrium_closed_form(params: ModelParams, delta: float) -> MeanFieldSolution:
    """Global minimum of the scaled energy from the closed-form branch rules.

    The reported e0 is the energy function evaluated at the amplitudes, not
    the superradiant identity -(lam^2/f1)(1-nu)^2; the identity is a
    consequence and is asserted in the tests.
    """
    f1, f2 = _frequencies(params, delta)
    return _closed_form(f1, f2, params.lam)


def _closed_form(f1: float, f2: float, lam: float) -> MeanFieldSolution:
    nu = _nu(f1, f2, lam)
    phase = _classify(nu)
    if phase is not _SUPERRADIANT:
        return _new_tuple(MeanFieldSolution, (0.0, 0.0, 0.0, nu, phase))
    beta = math.sqrt((1.0 - nu) / 2.0)
    k = math.sqrt((1.0 + nu) / 2.0)
    alpha = 2.0 * lam * k * beta / f1
    if alpha * alpha == math.inf:
        raise InvalidParameterError(f"alpha = {alpha} at f1 = {f1}: alpha^2 overflows")
    e0 = _energy(f1, f2, lam, (alpha, 0.0, beta, 0.0))
    return _new_tuple(MeanFieldSolution, (alpha, beta, e0, nu, _SUPERRADIANT))


# Keep the numeric minimizer's beta strictly inside the sphere; the gradient
# is singular at |beta| = 1.
_BETA_CAP = 1.0 - 1e-9
_SEED = 20240817
# Both gradient tests are taken on (f1, f2, lam) over `_unit_scale`'s power of two.
# A start stops once max|g| <= _GRAD_FLOOR * max(1, |e|), the roundoff level.
_GRAD_FLOOR = 1e-14
# The winning candidate must reach max|g| <= _GRAD_TOL.
_GRAD_TOL = 1e-10
_HALVINGS = 40
# A candidate whose lowest Hessian eigenvalue is below -_SADDLE_TOL * max|eig|
# is a saddle; the margin keeps a flat critical-point origin in play.
_SADDLE_TOL = 1e-10


def _jacobi(h00: float, h01: float, h11: float) -> tuple[float, float, float, float]:
    """cos and sin of theta = atan2(2 h01, h00 - h11)/2 and the eigenvalues of the symmetric 2x2 H."""
    theta = 0.5 * math.atan2(2.0 * h01, h00 - h11)
    c, s = math.cos(theta), math.sin(theta)
    return c, s, c * c * h00 + 2.0 * c * s * h01 + s * s * h11, s * s * h00 - 2.0 * c * s * h01 + c * c * h11


def _newton_step(g0: float, g1: float, h00: float, h01: float, h11: float) -> tuple[float, float]:
    """-|H|^-1 g for a symmetric 2x2 H, its eigenvalues (`_jacobi`) made positive
    and each floored at 1e-12 max|eigenvalue|."""
    c, s, w0, w1 = _jacobi(h00, h01, h11)
    w0, w1 = abs(w0), abs(w1)
    floor = 1e-12 * max(w0, w1)
    p0 = (c * g0 + s * g1) / max(w0, floor)
    p1 = (c * g1 - s * g0) / max(w1, floor)
    return s * p1 - c * p0, -s * p0 - c * p1


def _descend(f1: float, f2: float, lam: float, x: float, y: float, max_iterations: int):
    """Damped Newton on the real slice from one start (x, y) = (Re alpha, Re beta).

    Plain floats: at two unknowns numpy's per-call cost outweighs the
    arithmetic.  The step is `_newton_step`, so it descends at saddles too.
    A backtracking step is accepted when it passes Armijo or lowers max|g|;
    a start whose line search fails stops where it is.  Returns (x, y, e,
    max|g|, (h00, h01, h11)).
    """

    def surface(x, y):
        a = (x, 0.0, y, 0.0)
        (g0, _, g1, _), (h00, h01, _, h11, _, _) = _derivatives(f1, f2, lam, a)
        return _energy(f1, f2, lam, a), g0, g1, h00, h01, h11

    e, g0, g1, h00, h01, h11 = surface(x, y)
    gmax = max(abs(g0), abs(g1))
    for _ in range(max_iterations):
        if gmax <= _GRAD_FLOOR * max(1.0, abs(e)):
            break
        d0, d1 = _newton_step(g0, g1, h00, h01, h11)
        slope = g0 * d0 + g1 * d1
        t = 1.0
        for _ in range(_HALVINGS + 1):
            xt, yt = x + t * d0, min(max(y + t * d1, -_BETA_CAP), _BETA_CAP)
            trial = surface(xt, yt)
            gmax_t = max(abs(trial[1]), abs(trial[2]))
            if trial[0] <= e + 1e-4 * t * slope or gmax_t < gmax:
                x, y, gmax = xt, yt, gmax_t
                e, g0, g1, h00, h01, h11 = trial
                break
            t *= 0.5
        else:
            break
    return x, y, e, gmax, (h00, h01, h11)


def equilibrium_numeric(
    params: ModelParams,
    delta: float,
    seed_count: int = 8,
    *,
    max_iterations: int = 500,
) -> MeanFieldSolution:
    """Locate the energy minimum by multistart descent, independent of the closed forms.

    Each start runs its own damped Newton descent on the real slice
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
    nu = _nu(f1, f2, lam)
    check_count("seed_count", seed_count)
    check_count("max_iterations", max_iterations, minimum=0)

    import random

    rng = random.Random(_SEED)  # a new generator per call: the starts depend on seed_count alone
    alpha_scale = 2.0 * lam / f1 if lam > 0 else 1.0 / f1
    starts = [(0.0, 0.0), *((rng.uniform(-1.0, 1.0) * alpha_scale, rng.uniform(-1.0, 1.0) * 0.98)
                            for _ in range(seed_count - 1))]
    unit = _unit_scale(f1, f2, lam)
    runs = [_descend(*unit, x, y, max_iterations) for x, y in starts]

    eigenvalues = [_jacobi(*hess)[2:] for *_, hess in runs]
    kept = [run for run, (w0, w1) in zip(runs, eigenvalues)
            if min(w0, w1) >= -_SADDLE_TOL * max(abs(w0), abs(w1))]
    if not kept:
        raise ConvergenceFailureError("every candidate is a saddle of the energy surface")
    alpha, beta, _, gnorm, _ = min(kept, key=lambda run: run[2])
    if gnorm > _GRAD_TOL:
        raise ConvergenceFailureError(
            f"lowest candidate has gradient norm {gnorm:.3e} above tolerance {_GRAD_TOL:.3e}"
        )
    # Canonical sign: the energy is even under (alpha, beta) -> (-alpha, -beta),
    # and for beta >= 0 it never increases under alpha -> |alpha|.
    if beta < 0:
        alpha, beta = -alpha, -beta
    alpha = abs(alpha)
    e0 = _energy(f1, f2, lam, (alpha, 0.0, beta, 0.0))
    phase = _classify(nu)
    return MeanFieldSolution(alpha, beta, e0, nu, phase)


def critical_delta(params: ModelParams) -> float | None:
    """Impurity population at which nu = 1, or None when no root lies in [-1, 1].

    For xi1 = 0 this is the closed form (4 lam^2/omega - omega0)/kappa - 1;
    otherwise the quadratic f1(d) f2(d) = 4 lam^2 (linear when kappa = 0) is
    solved on the energies over a power of two near the largest of them, and
    the smallest admissible root (f1 > 0) in [-1, 1] is returned.  Raises
    ZeroKappaError when kappa = xi1 = 0.
    """
    if params.chi != 0:
        raise ChiUnsupportedError(_CHI_REFUSAL)
    if params.xi1 == 0:
        if params.kappa == 0:
            raise ZeroKappaError("critical_delta needs kappa != 0 or xi1 != 0")
        dc = (4.0 * params.lam * params.lam / params.omega - params.omega0) / params.kappa - 1.0
        return dc if -1.0 <= dc <= 1.0 else None
    omega, omega0, kappa, xi1, lam = _unit_scale(params.omega, params.omega0, params.kappa, params.xi1, params.lam)
    # (omega + xi1 d)(omega0 + kappa(1 + d)) = 4 lam^2, quadratic in d
    a = kappa * xi1
    b = xi1 * (omega0 + kappa) + omega * kappa
    c = omega * (omega0 + kappa) - 4.0 * lam * lam
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return None
    q = -(b + math.copysign(math.sqrt(disc), b if b != 0 else 1.0)) / 2.0
    # a = 0 (kappa = 0, or a kappa xi1 that underflows) leaves the linear equation and its
    # one root c/q; q = 0 (b = 0 and b^2 = 4ac) leaves the root 0 if c = 0 and none otherwise
    roots = ([0.0] if c == 0 else []) if q == 0 else [c / q] if a == 0 else [q / a, c / q]
    slack = 1e-12
    admissible = sorted(
        min(1.0, max(-1.0, r))
        for r in roots
        if -1.0 - slack <= r <= 1.0 + slack and omega + xi1 * r > 0
    )
    return admissible[0] if admissible else None


def critical_lambda(params: ModelParams, delta: float) -> float | None:
    """Coupling at which nu = 1 for fixed delta: lam_c = sqrt(f1 f2)/2.

    Returns None when f2 <= 0, where the system is superradiant at every
    lam > 0 and no finite threshold exists.  Where f1 f2 overflows or
    underflows to 0, the root is taken of each factor.
    """
    f1, f2 = _frequencies(params, delta)
    if f2 <= 0:
        return None
    product = f1 * f2
    return 0.5 * math.sqrt(product) if 0 < product < math.inf else 0.5 * math.sqrt(f1) * math.sqrt(f2)


def observables(solution: MeanFieldSolution) -> tuple[float, float]:
    """Scaled inversion and photon number (Jz/N, <a+a>/N) = (beta^2 - 1/2, alpha^2)."""
    return solution.beta2 - 0.5, solution.alpha2


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """np.linspace(lo, hi, count).tolist() bit for bit, without numpy."""
    lo, hi = float(lo), float(hi)
    span = hi - lo
    if count == 1:
        return [0.0 * span + lo]
    div = int(count) - 1  # a numpy integer count would make every point a numpy float
    step = span / div
    if step == 0:  # a subnormal span: scale i/div, as numpy does
        return [i / div * span + lo for i in range(div)] + [hi]
    return [i * step + lo for i in range(div)] + [hi]


class DerivativeScan(NamedTuple):
    """Ground-state energy on a uniform grid with central first and second differences.

    d1_values and d2_values live on grid[1:-1] (both stencils need both
    neighbours).  jump_index points into d2_values at the left element of the
    largest consecutive step (the first one, on ties); jump_location is the
    midpoint of the two grid points carrying that step.
    """

    parameter_name: str
    grid: list[float]
    e0_values: list[float]
    d1_values: list[float]
    d2_values: list[float]
    step: float
    jump_index: int
    jump_location: float
    jump_size: float


def _derivative_rows(params: ModelParams, parameter_name: str, start: float, stop: float, step: float,
                     *, delta: float | None = None):
    """Refuse a bad grid, or one that leaves the domain, then return (h, rows).

    rows() solves each grid point once and yields (value, e0, d1, d2), with d1 = d2 = None
    on the two edge rows, in constant memory; after its last row it refuses differences
    that are not finite, so that a point's own error anywhere outranks them.
    """
    if parameter_name not in ("delta", "lambda"):
        raise InvalidParameterError(f"parameter_name must be 'delta' or 'lambda', got {parameter_name!r}")
    if parameter_name == "lambda":
        if delta is None:
            raise InvalidParameterError("lambda scans need the fixed impurity population delta")
        delta = check_population(delta)
    elif delta is not None:
        raise InvalidParameterError("delta scans take no separate delta argument")
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        check_finite(name, value)
    start, stop = float(start), float(stop)  # the grid holds floats, as _linspace's does
    if not step > 0:
        raise InvalidParameterError(f"step must be > 0, got {step}")
    if not stop > start:
        raise InvalidParameterError("stop must exceed start")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise InvalidParameterError(f"(stop - start)/step = {span} overflows")
    count = int(round(span)) + 1
    if count < 3:
        raise InvalidParameterError("grid must contain at least 3 points")
    h = (stop - start) / (count - 1)
    if abs(h - step) > 1e-9 * step:
        raise InvalidParameterError("(stop - start) must be an integer multiple of step")
    if h * h == 0:
        raise InvalidParameterError(f"step = {h}: step^2 underflows to 0")

    def point(i: int) -> float:  # _linspace(start, stop, count)[i]
        return i * h + start if i < count - 1 else stop

    check = check_population if parameter_name == "delta" else check_lambda

    def inside(v: float) -> bool:
        try:
            check(v)
        except InvalidParameterError:
            return False
        return True

    # A range that leaves the domain (check_population's or check_lambda's) is refused at its first
    # point outside it, before the grid is walked: only index 0 can lie below, so bisect above it.
    lo, first = (0, count) if inside(start) else (-1, 0)
    while first - lo > 1:  # point(lo) lies inside the domain; point(first) outside it, or past the grid
        mid = (lo + first) // 2
        lo, first = (mid, first) if inside(point(mid)) else (lo, mid)

    def e0s(indices):
        frequencies = None
        for i in indices:
            v = point(i)
            try:
                if parameter_name == "delta":
                    e0 = equilibrium_closed_form(params, v).e0
                else:  # (f1, f2) once, after the first lambda's own checks
                    lam = check_lambda(v)
                    f1, f2 = frequencies = frequencies or _frequencies(params, delta)
                    e0 = _closed_form(f1, f2, lam).e0
            except IDDMError as exc:
                raise type(exc)(f"{parameter_name} = {v} (grid index {i}): {exc}") from exc
            yield v, e0

    def rows():
        points = e0s(range(count))
        (v0, a), (v, b) = next(points), next(points)
        yield v0, a, None, None
        finite = True
        for w, c in points:  # a, b, c: E0 at the left neighbour, at v and at the right one
            d1, d2 = (c - a) / (2.0 * h), (c - 2.0 * b + a) / (h * h)
            finite = finite and math.isfinite(d1) and math.isfinite(d2)
            yield v, b, d1, d2
            v, a, b = w, b, c
        yield v, b, None, None
        if not finite:
            raise InvalidParameterError(f"differences of E0 are not finite at step = {h}")

    if first < count:  # index 0's error first, then that of the first point outside the domain
        for _ in e0s((0, first)):
            pass
    return h, rows


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
    point are re-raised with the offending point named; a step whose square
    underflows to 0, or differences that are not finite, are refused; so is
    a range that leaves the parameter's domain, at its first point outside it.
    """
    h, rows = _derivative_rows(params, parameter_name, start, stop, step, delta=delta)
    grid, e0, d1, d2 = [], [], [], []
    for value, e, first, second in rows():  # four lists, without a list of the row tuples on top of them
        grid.append(value)
        e0.append(e)
        if first is not None:
            d1.append(first)
            d2.append(second)
    steps = [abs(b - a) for a, b in zip(d2, d2[1:])]
    j = max(range(len(steps)), key=steps.__getitem__, default=0)  # the first maximum, as np.argmax
    location = 0.5 * (grid[j + 1] + grid[j + 2]) if steps else grid[1]  # d2_values[j] sits at grid[j + 1]
    return DerivativeScan(
        parameter_name=parameter_name,
        grid=grid,
        e0_values=e0,
        d1_values=d1,
        d2_values=d2,
        step=h,
        jump_index=j,
        jump_location=location,
        jump_size=steps[j] if steps else 0.0,
    )
