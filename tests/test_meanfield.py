"""Mean-field equilibria, critical points and energy-derivative scans.

Checked here:
  * frozen equilibrium values at the reference parameter set (delta = 0,
    0.5, 0.75, 1) including the superradiant order parameters and energy
  * the energy's reference values, its |beta| domain and the chi refusal
  * the gradient of meanfield._derivatives (as numpy arrays from
    tests/_oracles.py) vanishes at closed-form equilibria and matches central
    finite differences of the energy in all four amplitude components
  * property: gradient and Hessian match central first and second
    differences of the energy at any parameters and amplitudes inside the
    sphere
  * closed form vs the independent multistart minimizer on random draws, and
    as a property over the draws of acceptance criterion 5: equal phases,
    nonnegative amplitudes, alpha^2, beta^2 and e0 within 1e-8
  * the minimizer's 2x2 Newton step matches one built from numpy.linalg.eigh,
    indefinite, diagonal, equal-diagonal and floored cases included
  * the superradiant energy identity E0 = -(lam^2/f1)(1 - nu)^2
  * critical_delta / critical_lambda closed forms, boundary cases, the
    general xi1 != 0 root (None for a negative discriminant), and the
    standard-Dicke reduction; the linear root
    when kappa xi1 underflows to 0 or kappa = 0 (no root where xi1 omega0
    underflows to 0 too), delta_c (xi1 = 0) where omega kappa or
    omega omega0 underflows or overflows, and lambda_c where f1 f2 overflows
    or underflows (trace_critical_curve included)
  * property: every energy times 2^k (|k| <= 300, every number normal)
    leaves alpha, beta, nu, the phase and delta_c (xi1 = 0 and xi1 != 0)
    unchanged and scales e0 (closed form and minimizer), eps_pm and
    lambda_c by 2^k, bit for bit
  * branch continuity across the phase boundary
  * for kappa < 0 (xi1 = 0) raising delta never restores the normal phase
  * second-difference scans: flat for kappa = 0, kink at the transition;
    as a property over delta and lambda scans that cross the transition or
    stay flat in the normal phase, bit for bit the scan written with numpy
    (np.linspace, slice differences, np.argmax: the first of tied steps)
  * a lambda scan refuses a negative lambda, and chi != 0, at grid index 0
    with the point named in the message; a scan refuses a parameter other
    than delta or lambda, a step <= 0, stop <= start and fewer than 3 points;
    a range past the domain's upper edge is refused with the message of its
    first point outside, or of index 0 where that point fails too, and the
    points between them are never solved
  * derivative_scan solves each grid point once (a spy on the closed form
    counts 6,001 calls on a 6,001-point lambda scan and 2,001 on a 2,001-point
    delta scan), and `iddm deriv` twice: a checking pass, then the write
  * refusal behavior: nu <= -1, chi != 0 (critical_lambda, critical_delta
    and trace_critical_curve included), |beta| out of range, zero budget,
    a lone origin start in the superradiant phase (a saddle), a negative
    budget, and a superradiant alpha whose square overflows
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from iddm import (
    ChiUnsupportedError,
    ConvergenceFailureError,
    DomainError,
    IDDMError,
    InvalidParameterError,
    ModelParams,
    Phase,
    UnboundedPhaseError,
    ZeroKappaError,
    critical_delta,
    critical_lambda,
    derivative_scan,
    energy,
    equilibrium_closed_form,
    equilibrium_numeric,
    excitation_spectrum,
    observables,
    trace_critical_curve,
)
from iddm.meanfield import _newton_step

from _oracles import energy_derivatives

FIG2 = ModelParams(omega=400.0, lam=5.0, kappa=-0.5)


# --- the energy surface and its derivatives -------------------------------

def _real(alpha, beta):
    return (alpha, 0.0, beta, 0.0)


def test_energy_zero_at_origin():
    assert energy(FIG2, 0.3, (0.0, 0.0, 0.0, 0.0)) == 0.0


def test_energy_reference_value():
    e = energy(FIG2, 1.0, _real(0.0125, math.sqrt(0.5)))
    assert math.isclose(e, -0.0625, rel_tol=0, abs_tol=1e-12)


def test_energy_decoupled_is_quadratic():
    params = ModelParams(omega=2.0, lam=0.0, kappa=-0.5)
    f2 = 1.0 - 0.5 * 1.5
    e = energy(params, 0.5, _real(0.7, -0.4))
    assert math.isclose(e, 2.0 * 0.49 + f2 * 0.16, rel_tol=0, abs_tol=1e-14)
    # |alpha|^2 and |beta|^2: the imaginary parts enter like the real ones
    e = energy(params, 0.5, (0.7, -0.3, -0.4, 0.5))
    assert math.isclose(e, 2.0 * 0.58 + f2 * 0.41, rel_tol=0, abs_tol=1e-14)


def test_energy_rejects_beta_outside_sphere():
    with pytest.raises(DomainError):
        energy(FIG2, 0.5, _real(0.1, 1.01))
    with pytest.raises(DomainError):
        energy_derivatives(FIG2, 0.5, _real(0.1, 1.0))
    assert math.isfinite(energy(FIG2, 0.5, _real(0.1, 1.0)))  # the rim is in the value's domain


def test_chi_rejected():
    params = ModelParams(omega=400.0, lam=5.0, kappa=-0.5, chi=0.1)
    with pytest.raises(ChiUnsupportedError):
        energy(params, 0.5, (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ChiUnsupportedError):
        energy_derivatives(params, 0.5, (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ChiUnsupportedError):
        equilibrium_closed_form(params, 0.5)
    # the threshold moves to sqrt(f1 (f2 - chi))/2, so the chi = 0 value would be wrong
    with pytest.raises(ChiUnsupportedError):
        critical_lambda(params, 0.2)
    with pytest.raises(ChiUnsupportedError):
        critical_delta(params)
    with pytest.raises(ChiUnsupportedError):
        trace_critical_curve(params, count=3)


def test_gradient_zero_at_origin():
    grad, _ = energy_derivatives(FIG2, 0.2, (0.0, 0.0, 0.0, 0.0))
    assert np.array_equal(grad, np.zeros(4))


def test_gradient_zero_at_superradiant_equilibrium():
    for delta in (0.6, 0.75, 0.9, 1.0):
        sol = equilibrium_closed_form(FIG2, delta)
        grad, _ = energy_derivatives(FIG2, delta, _real(sol.alpha, sol.beta))
        assert np.max(np.abs(grad)) <= 1e-10


def test_gradient_matches_finite_differences():
    # all four components, Im alpha and Im beta nonzero
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(100):
        params = ModelParams(
            omega=rng.uniform(1.0, 100.0),
            lam=rng.uniform(0.0, 10.0),
            kappa=rng.uniform(-2.0, 2.0),
        )
        delta = rng.uniform(-1.0, 1.0)
        a = np.concatenate([rng.uniform(-2.0, 2.0, size=2), rng.uniform(-0.6, 0.6, size=2)])
        grad, _ = energy_derivatives(params, delta, a)
        steps = h * np.eye(4)
        fd = np.array([energy(params, delta, a + s) - energy(params, delta, a - s) for s in steps]) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-5 * max(1.0, np.max(np.abs(grad)))


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    omega=_finite(0.5, 100.0),
    # ModelParams refuses lam below ~1.5e-162, where 4 lam^2 underflows to 0
    lam=st.one_of(st.just(0.0), _finite(1e-3, 10.0)),
    kappa=_finite(-2.0, 2.0),
    delta=_finite(-1.0, 1.0),
    alpha=st.tuples(_finite(-2.0, 2.0), _finite(-2.0, 2.0)),
    beta=st.tuples(_finite(-0.6, 0.6), _finite(-0.6, 0.6)),
)
def test_derivatives_match_finite_differences_property(omega, lam, kappa, delta, alpha, beta):
    params = ModelParams(omega=omega, lam=lam, kappa=kappa)
    a = np.array(alpha + beta)
    grad, hess = energy_derivatives(params, delta, a)
    h = 1e-4
    steps = h * np.eye(4)

    def e(x):
        # the energy at each point x[..., :] of a stack of points
        return np.apply_along_axis(lambda p: energy(params, delta, p), -1, x)

    fd_grad = (e(a + steps) - e(a - steps)) / (2 * h)
    # second differences along e_i + e_j and e_i - e_j give the mixed partials
    plus = e(a + steps[:, None] + steps[None, :])
    minus = e(a - steps[:, None] - steps[None, :])
    cross = e(a + steps[:, None] - steps[None, :])
    fd_hess = (plus + minus - cross - cross.T) / (4 * h * h)
    scale = max(1.0, omega, lam, np.max(np.abs(hess)))
    assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * scale
    assert np.max(np.abs(hess - fd_hess)) <= 1e-5 * scale


# --- closed-form equilibria ------------------------------------------------

def test_normal_phase_point():
    sol = equilibrium_closed_form(FIG2, 0.0)
    assert sol.phase is Phase.NORMAL
    assert sol.alpha == 0.0 and sol.beta == 0.0 and sol.e0 == 0.0
    assert sol.nu == 2.0


def test_critical_point_tagged():
    sol = equilibrium_closed_form(FIG2, 0.5)
    assert sol.phase is Phase.CRITICAL
    assert sol.alpha == 0.0 and sol.beta == 0.0 and sol.e0 == 0.0


def test_superradiant_point_halfway():
    sol = equilibrium_closed_form(FIG2, 0.75)
    assert sol.phase is Phase.SUPERRADIANT
    assert math.isclose(sol.nu, 0.5, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(sol.alpha2, 1.171875e-4, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(sol.beta2, 0.25, rel_tol=0, abs_tol=1e-14)
    assert math.isclose(sol.e0, -0.015625, rel_tol=0, abs_tol=1e-14)


def test_superradiant_point_full_population():
    sol = equilibrium_closed_form(FIG2, 1.0)
    assert math.isclose(sol.alpha2, 1.5625e-4, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(sol.beta2, 0.5, rel_tol=0, abs_tol=1e-14)
    assert math.isclose(sol.e0, -0.0625, rel_tol=0, abs_tol=1e-14)


def test_superradiant_energy_identity():
    rng = np.random.default_rng(23)
    found = 0
    while found < 200:
        params = ModelParams(
            omega=rng.uniform(1.0, 500.0),
            lam=rng.uniform(0.5, 30.0),
            kappa=rng.uniform(-2.0, 2.0),
        )
        delta = rng.uniform(-1.0, 1.0)
        try:
            sol = equilibrium_closed_form(params, delta)
        except UnboundedPhaseError:
            continue
        if sol.phase is not Phase.SUPERRADIANT:
            continue
        found += 1
        f1 = params.omega
        expect = -(params.lam**2 / f1) * (1.0 - sol.nu) ** 2
        assert math.isclose(sol.e0, expect, rel_tol=1e-10, abs_tol=1e-10)
        # order-parameter identities from the same stationarity conditions
        assert math.isclose(sol.alpha2, (params.lam**2 / f1**2) * (1.0 - sol.nu**2),
                            rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(sol.beta2, (1.0 - sol.nu) / 2.0, rel_tol=1e-10, abs_tol=1e-12)


def test_unbounded_phase_rejected():
    with pytest.raises(UnboundedPhaseError):
        equilibrium_closed_form(ModelParams(omega=400.0, lam=5.0, kappa=-2.0), 1.0)
    with pytest.raises(UnboundedPhaseError):
        equilibrium_closed_form(ModelParams(omega=400.0, lam=0.0, kappa=-2.0), 1.0)


def test_zero_coupling_normal_phase():
    sol = equilibrium_closed_form(ModelParams(omega=400.0, lam=0.0, kappa=-0.5), 0.5)
    assert sol.phase is Phase.NORMAL
    assert sol.nu is None


def test_branch_continuity_at_transition():
    # approach delta_c = 0.5 from both sides: nu - 1 = -+ 2h, so the order
    # parameters vanish linearly (beta^2 = h) and the energy quadratically
    for h in (1e-6, 1e-8):
        below = equilibrium_closed_form(FIG2, 0.5 - h)
        above = equilibrium_closed_form(FIG2, 0.5 + h)
        assert below.phase is Phase.NORMAL
        assert above.phase is Phase.SUPERRADIANT
        assert below.alpha2 == below.beta2 == below.e0 == 0.0
        assert math.isclose(above.beta2, h, rel_tol=1e-6)
        assert above.alpha2 <= h  # alpha^2 = (2 lam beta K / f1)^2 ~ h / 1600
        assert math.isclose(above.e0, -h * h / 4.0, rel_tol=1e-6)


def test_superradiance_monotone_in_delta_for_negative_kappa():
    rng = np.random.default_rng(31)
    for _ in range(100):
        params = ModelParams(
            omega=rng.uniform(1.0, 500.0),
            lam=rng.uniform(0.5, 20.0),
            kappa=rng.uniform(-2.0, -0.01),
        )
        d1, d2 = sorted(rng.uniform(-1.0, 1.0, size=2))
        try:
            lo = equilibrium_closed_form(params, d1)
            hi = equilibrium_closed_form(params, d2)
        except UnboundedPhaseError:
            continue
        if lo.phase is Phase.SUPERRADIANT:
            assert hi.phase is Phase.SUPERRADIANT


# --- numeric minimizer vs closed form --------------------------------------

def test_numeric_matches_closed_form_on_random_draws():
    rng = np.random.default_rng(5)
    done = 0
    while done < 150:
        params = ModelParams(
            omega=rng.uniform(1.0, 500.0),
            lam=rng.uniform(0.0, 30.0),
            kappa=rng.uniform(-2.0, 2.0),
        )
        delta = rng.uniform(-1.0, 1.0)
        try:
            closed = equilibrium_closed_form(params, delta)
        except UnboundedPhaseError:
            continue
        done += 1
        numeric = equilibrium_numeric(params, delta)
        assert abs(closed.alpha2 - numeric.alpha2) <= 1e-8
        assert abs(closed.beta2 - numeric.beta2) <= 1e-8
        assert abs(closed.e0 - numeric.e0) <= 1e-8
        assert numeric.alpha >= 0.0 and numeric.beta >= 0.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    omega=_finite(1.0, 500.0),
    lam=st.one_of(st.just(0.0), _finite(1e-3, 30.0)),
    kappa=_finite(-2.0, 2.0),
    delta=_finite(-1.0, 1.0),
)
def test_numeric_matches_closed_form_property(omega, lam, kappa, delta):
    params = ModelParams(omega=omega, lam=lam, kappa=kappa)
    try:
        closed = equilibrium_closed_form(params, delta)
    except IDDMError:
        reject()
    numeric = equilibrium_numeric(params, delta)
    assert numeric.phase is closed.phase
    assert numeric.alpha >= 0.0 and numeric.beta >= 0.0
    assert abs(closed.alpha2 - numeric.alpha2) <= 1e-8
    assert abs(closed.beta2 - numeric.beta2) <= 1e-8
    assert abs(closed.e0 - numeric.e0) <= 1e-8


def _eigh_step(g, h):
    w, v = np.linalg.eigh(h)
    w = np.abs(w)
    w = np.maximum(w, 1e-12 * w.max())
    return -v @ ((v.T @ g) / w)


def test_newton_step_matches_eigh():
    rng = np.random.default_rng(11)

    def rotated(w0, w1):
        phi = rng.uniform(-math.pi, math.pi)
        r = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        return r @ np.diag([w0, w1]) @ r.T

    cases = []
    # eigenvalue ratios where the step is well conditioned: between 1e-12 and
    # about 1e-4 any two backward-stable routes differ by eps/ratio relative
    for ratio in (1.0, 0.5, 1e-1, 1e-2, 1e-3):
        for _ in range(40):
            w0 = 10.0 ** rng.uniform(-3.0, 3.0)
            cases.append(rotated(w0, rng.choice([-1.0, 1.0]) * ratio * w0))
    for ratio in (1e-14, -1e-14, 0.0):  # the floor 1e-12 max|eig| applies
        cases += [rotated(3.0, ratio * 3.0) for _ in range(20)]
    cases += [
        np.diag([2.0, 5.0]), np.diag([5.0, -2.0]), np.diag([-2.0, -5.0]), np.diag([4.0, 0.0]),
        np.array([[3.0, 1.5], [1.5, 3.0]]), np.array([[3.0, -4.0], [-4.0, 3.0]]),
        np.array([[-1.0, 0.2], [0.2, -1.0]]), np.diag([7.0, 7.0]),
    ]
    for h in cases:
        h = (h + h.T) / 2.0
        for _ in range(3):
            g = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0)
            step = np.array(_newton_step(g[0], g[1], h[0, 0], h[0, 1], h[1, 1]))
            reference = _eigh_step(g, h)
            assert np.linalg.norm(step - reference) <= 1e-12 * np.linalg.norm(reference), h


def test_numeric_normal_phase_is_clean():
    sol = equilibrium_numeric(FIG2, 0.0)
    assert sol.phase is Phase.NORMAL
    assert abs(sol.alpha) <= 1e-8 and abs(sol.beta) <= 1e-8


def test_numeric_zero_budget_raises():
    with pytest.raises(ConvergenceFailureError):
        equilibrium_numeric(FIG2, 1.0, max_iterations=0)


def test_numeric_refuses_bad_budgets():
    with pytest.raises(InvalidParameterError):
        equilibrium_numeric(FIG2, 1.0, max_iterations=-1)


def test_closed_form_refuses_overflowing_alpha():
    # f1 = 1e-300: alpha = 2 lam K beta / f1 ~ 1e300, and alpha^2 overflows
    with pytest.raises(InvalidParameterError, match="overflows"):
        equilibrium_closed_form(ModelParams(omega=1e-300, lam=1.0), 0.0)


def test_numeric_refuses_origin_saddle():
    # superradiant at delta = 0.9: the origin has zero gradient but is a saddle
    with pytest.raises(ConvergenceFailureError):
        equilibrium_numeric(FIG2, 0.9, seed_count=1)
    # in the normal phase and at the critical point the origin is the minimum
    assert equilibrium_numeric(FIG2, 0.0, seed_count=1).e0 == 0.0
    assert equilibrium_numeric(FIG2, 0.5, seed_count=1).phase is Phase.CRITICAL


# --- critical points --------------------------------------------------------

def test_critical_delta_reference():
    assert critical_delta(FIG2) == 0.5


def test_critical_delta_boundary_value():
    assert critical_delta(ModelParams(omega=400.0, lam=10.0, kappa=-0.5)) == -1.0


def test_critical_delta_out_of_range():
    # raw formula value is -7 here, outside [-1, 1]
    assert critical_delta(ModelParams(omega=400.0, lam=20.0, kappa=-0.5)) is None


def test_critical_delta_needs_kappa():
    with pytest.raises(ZeroKappaError):
        critical_delta(ModelParams(omega=400.0, lam=5.0, kappa=0.0))


def test_critical_delta_linear_at_kappa_zero():
    # f2 = omega0 is fixed, but f1 = omega + xi1 d still crosses 4 lam^2 / omega0
    params = ModelParams(omega=400.0, lam=6.0, kappa=0.0, xi1=-300.0)
    dc = critical_delta(params)
    assert math.isclose(dc, 256.0 / 300.0, rel_tol=1e-15)
    f1 = params.omega + params.xi1 * dc
    f2 = params.omega0 + params.kappa * (1.0 + dc)
    assert math.isclose(f1 * f2, 4.0 * params.lam**2, rel_tol=1e-12)


@pytest.mark.parametrize("kappa", [0.0, 5e-324])
def test_critical_delta_where_every_coefficient_but_c_underflows(kappa):
    # over the power of two, a = kappa xi1 and b = xi1 omega0 + omega kappa are 0 while
    # c = omega omega0 - 4 lam^2 is not: nu = 25 at every delta, so no root (it read 0)
    params = ModelParams(omega=1.0, lam=1e-81, kappa=kappa, omega0=1e-160, xi1=1e-170)
    assert critical_delta(params) is None


def test_critical_delta_general_branch():
    # xi1 != 0 goes through the quadratic; the root must satisfy nu = 1
    params = ModelParams(omega=400.0, lam=5.0, kappa=-0.5, xi1=0.3)
    dc = critical_delta(params)
    assert dc is not None
    f1 = params.omega + params.xi1 * dc
    f2 = params.omega0 + params.kappa * (1.0 + dc)
    assert math.isclose(f1 * f2, 4.0 * params.lam**2, rel_tol=1e-12)
    # and it collapses to the closed form as xi1 -> 0
    small = params._replace(xi1=1e-9)
    assert abs(critical_delta(small) - 0.5) < 1e-6


def test_critical_delta_negative_discriminant():
    # f1 f2 = (1 + d)(-d) = 4 has no real root: b^2 - 4ac = 1 - 16 < 0
    assert critical_delta(ModelParams(omega=1.0, lam=1.0, kappa=-1.0, xi1=1.0)) is None


def test_critical_delta_when_kappa_xi1_underflows():
    # kappa xi1 = 5e-324 * 0.4 is 0: the equation f1 (omega0 + kappa (1 + d)) = 4 lam^2 is
    # linear, its root is (4 lam^2 - omega omega0)/(omega0 xi1) = -0.475, and q/a divided by 0
    tiny = critical_delta(ModelParams(omega=1.0, lam=0.45, kappa=5e-324, xi1=0.4))
    assert tiny == critical_delta(ModelParams(omega=1.0, lam=0.45, kappa=1e-300, xi1=0.4))
    assert math.isclose(tiny, -0.475, rel_tol=1e-15)


@pytest.mark.parametrize("omega, omega0, kappa, lam, expected", [
    (5e-324, 1.0, -0.5, 0.0, 1.0),  # omega kappa underflows to 0
    (1e-308, 1.0, 1e-308, 1.0, None),  # the same, and 4 lam^2/omega overflows: dc is far above 1
    (1e300, 1e300, -1e300, 5.0, 0.0),  # both products overflow; dc = -1e-598 rounds to 0
    (1e300, 1.0, 1e10, 5.0, None),  # omega kappa overflows; dc = -1 - 1e-10 is out of range
])
def test_critical_delta_where_a_product_leaves_the_float_range(omega, omega0, kappa, lam, expected):
    params = ModelParams(omega=omega, omega0=omega0, kappa=kappa, lam=lam)
    assert critical_delta(params) == expected


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_critical_lambda_where_f1_f2_overflows_or_underflows(scale):
    # f1 f2 = scale^2 is inf or 0; lam_c = sqrt(f1 f2)/2 = scale/2 all the same
    params = ModelParams(omega=scale, lam=1.0, omega0=scale)
    assert math.isclose(critical_lambda(params, 0.0), scale / 2.0, rel_tol=1e-15)
    for _, lc in trace_critical_curve(params, count=3):
        assert math.isclose(lc, scale / 2.0, rel_tol=1e-15)


def test_critical_lambda_reference():
    assert math.isclose(critical_lambda(FIG2, 0.0), math.sqrt(200.0) / 2.0, rel_tol=0, abs_tol=1e-14)


def test_critical_lambda_no_transition():
    assert critical_lambda(FIG2, 1.0) is None


def test_standard_dicke_reduction():
    params = ModelParams(omega=400.0, lam=1.0, kappa=0.0)
    assert abs(critical_lambda(params, 0.7) - 10.0) <= 1e-12
    # below threshold the phase is normal at every population
    sub = params._replace(lam=9.9)
    for delta in np.linspace(-1.0, 1.0, 21):
        assert equilibrium_closed_form(sub, float(delta)).phase is Phase.NORMAL


def test_critical_points_consistent():
    # lambda_c evaluated at delta_c reproduces the scan coupling
    dc = critical_delta(FIG2)
    assert math.isclose(critical_lambda(FIG2, dc), FIG2.lam, rel_tol=0, abs_tol=1e-12)


# --- energy-scale covariance --------------------------------------------------

def _outcome(f, *args):
    """f(*args), or the class of the IDDMError it raises."""
    try:
        return f(*args)
    except IDDMError as exc:
        return type(exc)


def _solves(params, delta):
    """Every mean-field answer at one point; critical_delta also at xi1 = 0."""
    return (equilibrium_closed_form(params, delta), _outcome(equilibrium_numeric, params, delta),
            _outcome(excitation_spectrum, params, delta), critical_lambda(params, delta),
            critical_delta(params), critical_delta(params._replace(xi1=0.0)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    omega=_finite(0.5, 500.0),
    omega0=_finite(0.1, 5.0),
    lam=_finite(1e-3, 30.0),
    kappa=_finite(-2.0, 2.0).filter(bool),
    xi1=_finite(-0.4, 0.4),
    delta=_finite(-1.0, 1.0),
    k=st.integers(-300, 300),
)
# omega = 400, lam = 12, kappa = -0.5 times 2^-100 and 2^20: absolute stop tests answer wrongly, then refuse
@example(omega=400.0, omega0=1.0, lam=12.0, kappa=-0.5, xi1=0.0, delta=0.5, k=-100)
@example(omega=400.0, omega0=1.0, lam=12.0, kappa=-0.5, xi1=0.0, delta=0.5, k=20)
# times 2^300, b*b of the delta_c quadratic on raw energies overflows
@example(omega=0.4238371324945841, omega0=0.7217749109097017, lam=32.06260369470957,
         kappa=0.25717778133893887, xi1=0.9533608589520433, delta=0.0, k=300)
def test_every_energy_times_a_power_of_two(omega, omega0, lam, kappa, xi1, delta, k):
    # H is linear in the energies: times 2^k, alpha, beta, nu, the phase and delta_c hold and
    # e0, eps_pm and lambda_c scale by 2^k, bit for bit while every number stays normal
    params = ModelParams(omega=omega, omega0=omega0, lam=lam, kappa=kappa, xi1=xi1)
    try:
        closed, numeric, spectrum, lam_c, dc, dc0 = _solves(params, delta)
    except IDDMError:
        reject()
    energies = [*params, closed.e0, lam_c or 0.0]
    if not isinstance(numeric, type):
        energies.append(numeric.e0)
        numeric = numeric._replace(e0=math.ldexp(numeric.e0, k))
    if not isinstance(spectrum, type):
        energies += spectrum[:2]
        spectrum = spectrum._replace(eps_minus=math.ldexp(spectrum.eps_minus, k),
                                     eps_plus=math.ldexp(spectrum.eps_plus, k))
    assume(all(x == 0 or 2.0**-1022 <= abs(math.ldexp(x, k)) < math.inf for x in energies))
    scaled = ModelParams(*(math.ldexp(x, k) for x in params))
    assert _solves(scaled, delta) == (closed._replace(e0=math.ldexp(closed.e0, k)), numeric, spectrum,
                                      lam_c and math.ldexp(lam_c, k), dc, dc0)


# --- observables ------------------------------------------------------------

def test_observables_values():
    assert observables(equilibrium_closed_form(FIG2, 0.0)) == (-0.5, 0.0)
    jz, photons = observables(equilibrium_closed_form(FIG2, 1.0))
    assert math.isclose(jz, 0.0, rel_tol=0, abs_tol=1e-14)
    assert math.isclose(photons, 1.5625e-4, rel_tol=0, abs_tol=1e-15)
    jz, photons = observables(equilibrium_closed_form(FIG2, 0.75))
    assert math.isclose(jz, -0.25, rel_tol=0, abs_tol=1e-14)


# --- derivative scans --------------------------------------------------------

def test_scan_flat_for_zero_kappa():
    params = ModelParams(omega=400.0, lam=5.0, kappa=0.0)
    scan = derivative_scan(params, "delta", 0.0, 1.0, 0.01)
    assert np.all(np.asarray(scan.e0_values) == 0.0)
    assert np.all(np.asarray(scan.d1_values) == 0.0)
    assert np.all(np.asarray(scan.d2_values) == 0.0)


def test_scan_lambda_kink_at_threshold():
    lam_c = critical_lambda(FIG2, 0.0)
    scan = derivative_scan(FIG2, "lambda", 6.5, 7.5, 1e-3, delta=0.0)
    assert abs(scan.jump_location - lam_c) <= scan.step
    # superradiant-side curvature: d2 E0/d lam2 = -(2 + 6 nu^2)/f1 -> -0.02 at nu = 1
    assert math.isclose(scan.d2_values[-1], -(2.0 + 6.0 * (50.0 / 7.5**2) ** 2) / 400.0,
                        rel_tol=1e-3)


def test_scan_grid_validation():
    with pytest.raises(Exception):
        derivative_scan(FIG2, "delta", 0.0, 1.0, 0.3)  # not commensurate
    with pytest.raises(Exception):
        derivative_scan(FIG2, "lambda", 0.0, 1.0, 0.1)  # missing fixed delta
    with pytest.raises(Exception):
        derivative_scan(FIG2, "delta", 0.0, 1.0, 0.1, delta=0.3)


@pytest.mark.parametrize("name, start, stop, step, message", [
    ("omega", 0.0, 1.0, 0.1, "parameter_name must be 'delta' or 'lambda', got 'omega'"),
    ("delta", 0.0, 1.0, 0.0, "step must be > 0, got 0.0"),
    ("delta", 0.0, 1.0, -0.1, "step must be > 0, got -0.1"),
    ("delta", 0.5, 0.5, 0.1, "stop must exceed start"),
    ("delta", 0.6, 0.4, 0.1, "stop must exceed start"),
    ("delta", 0.0, 0.1, 0.1, "grid must contain at least 3 points"),
])
def test_scan_api_refusals(name, start, stop, step, message):
    with pytest.raises(InvalidParameterError) as info:
        derivative_scan(FIG2, name, start, stop, step)
    assert str(info.value) == message


def test_scan_error_names_grid_point():
    params = ModelParams(omega=400.0, lam=5.0, kappa=-2.0)
    with pytest.raises(UnboundedPhaseError, match="grid index"):
        derivative_scan(params, "delta", 0.0, 1.0, 0.1)


def test_lambda_scan_refusals_name_the_first_point():
    with pytest.raises(InvalidParameterError) as info:
        derivative_scan(FIG2, "lambda", -0.5, 0.5, 0.25, delta=0.0)
    assert str(info.value) == "lambda = -0.5 (grid index 0): lambda must be >= 0, got -0.5"
    with pytest.raises(ChiUnsupportedError) as info:
        derivative_scan(FIG2._replace(chi=0.3), "lambda", 1.0, 2.0, 0.5, delta=0.0)
    assert str(info.value) == "lambda = 1.0 (grid index 0): mean-field routines require chi = 0"


@pytest.mark.parametrize("params, name, start, stop, step, delta, message", [
    (FIG2, "delta", 0.3, 1.3, 0.1, None,
     "delta = 1.1 (grid index 8): impurity population must lie in [-1, 1], got 1.1"),
    (FIG2, "lambda", 1e153, 9e153, 1e153, 0.0,
     "lambda = 7e+153 (grid index 6): lambda = 7e+153 is too large: 4 lambda^2 overflows"),
    (FIG2._replace(chi=0.3), "delta", 0.3, 1.3, 0.1, None,
     "delta = 0.3 (grid index 0): mean-field routines require chi = 0"),
    # index 1 (delta = 1, f1 = 0) would fail too, but it is never solved
    (FIG2._replace(xi1=-400.0), "delta", 0.5, 1.5, 0.5, None,
     "delta = 1.5 (grid index 2): impurity population must lie in [-1, 1], got 1.5"),
])
def test_scan_past_the_domain_names_what_the_full_grid_would(params, name, start, stop, step, delta, message):
    # refused before the grid is walked: index 0's own error first, else that of the first point
    # outside the domain; the points between them are not solved, so an earlier one that would
    # fail goes unnamed, where a point-by-point walk of the whole grid would stop at it
    with pytest.raises(IDDMError) as info:
        derivative_scan(params, name, start, stop, step, delta=delta)
    assert str(info.value) == message


def test_scan_solves_each_point_once_and_deriv_twice(monkeypatch, tmp_path):
    import iddm.cli
    import iddm.meanfield

    kernel, calls = iddm.meanfield._closed_form, []

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(iddm.meanfield, "_closed_form", spy)
    fig2 = ["--omega", "400", "--lambda", "5", "--kappa", "-0.5"]
    for wrt, start, stop, step, delta, count in [("lambda", 0.0, 12.0, 0.002, 0.0, 6001),
                                                 ("delta", -1.0, 1.0, 0.001, None, 2001)]:
        calls.clear()
        assert len(derivative_scan(FIG2, wrt, start, stop, step, delta=delta).grid) == count
        assert len(calls) == count
        calls.clear()
        argv = ["deriv", *fig2, "--wrt", wrt, "--from", str(start), "--to", str(stop), "--step", str(step),
                *([] if delta is None else ["--delta", str(delta)]), "--output", str(tmp_path / "scan.csv")]
        assert iddm.cli.main(argv) == 0
        assert len(calls) == 2 * count


def _numpy_scan(params, parameter_name, start, stop, step, delta):
    """derivative_scan as it was first written: np.linspace, slice arithmetic, np.argmax."""
    count = int(round((stop - start) / step)) + 1
    h = (stop - start) / (count - 1)
    grid = np.linspace(start, stop, count)
    e0 = np.array([
        equilibrium_closed_form(params, float(v)).e0 if parameter_name == "delta"
        else equilibrium_closed_form(params._replace(lam=float(v)), delta).e0
        for v in grid
    ])
    d1 = (e0[2:] - e0[:-2]) / (2.0 * h)
    d2 = (e0[2:] - 2.0 * e0[1:-1] + e0[:-2]) / (h * h)
    steps = np.abs(np.diff(d2))
    j = int(np.argmax(steps)) if steps.size else 0
    interior = grid[1:-1]
    location = 0.5 * (interior[j] + interior[j + 1]) if steps.size else interior[0]
    size = steps[j] if steps.size else 0.0
    return grid, e0, d1, d2, h, j, location, size


@st.composite
def _scans(draw):
    """A delta or lambda scan that crosses the transition, or stays flat on its normal side."""
    wrt = draw(st.sampled_from(["delta", "lambda"]))
    crosses = draw(st.booleans())
    n = draw(st.one_of(st.just(2), st.integers(2, 300)))  # intervals; n = 2: one d2 value, no step
    omega, kappa = draw(st.floats(1.0, 500.0)), draw(st.floats(-0.5, -0.05))
    delta_c = draw(st.floats(-0.8, 0.8))
    # lambda puts the transition of a delta scan at delta_c; f2 >= 0.05 for these kappa and deltas
    lam = critical_lambda(ModelParams(omega=omega, lam=1.0, kappa=kappa), delta_c)
    params = ModelParams(omega=omega, lam=lam, kappa=kappa)
    if wrt == "delta":
        transition, lo, hi, delta = critical_delta(params), -1.0, 1.0, None
    else:
        delta = draw(st.floats(-0.9, 0.9))
        transition, lo, hi = critical_lambda(params, delta), 0.0, math.inf
    if crosses:  # lo <= start < transition < stop <= hi
        step = draw(st.floats(1e-5, 0.05)) * min(transition - lo, hi - transition)
        start = transition - draw(st.floats(0.01, 0.99)) * n * step
        assume(start >= lo and start + n * step <= hi)
    else:  # normal phase on the whole grid: E0 = 0, every d2 step ties at 0
        start = lo + draw(st.floats(0.0, 0.5)) * (transition - lo)
        step = (0.99 * transition + 0.01 * lo - start) / n
    return params, wrt, start, start + n * step, step, delta


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_scans())
def test_scan_matches_numpy_reference_bit_for_bit(scan_args):
    params, wrt, start, stop, step, delta = scan_args
    try:
        scan = derivative_scan(params, wrt, start, stop, step, delta=delta)
    except InvalidParameterError:  # a span that rounds off the step's multiple
        reject()
    grid, e0, d1, d2, h, j, location, size = _numpy_scan(params, wrt, start, stop, step, delta)
    for got, expected in [(scan.grid, grid), (scan.e0_values, e0), (scan.d1_values, d1),
                          (scan.d2_values, d2)]:
        assert type(got) is list and all(type(x) is float for x in got)
        assert [x.hex() for x in got] == [x.hex() for x in expected.tolist()]
    assert (scan.jump_index, scan.step.hex(), scan.jump_location.hex(), scan.jump_size.hex()) == \
        (j, h.hex(), float(location).hex(), float(size).hex())
    if not e0.any():  # flat: every step ties and the first one wins
        assert scan.jump_index == 0
