"""Mean-field equilibria, critical points and energy-derivative scans.

Checked here:
  * frozen equilibrium values at the reference parameter set (delta = 0,
    0.5, 0.75, 1) including the superradiant order parameters and energy
  * the energy's reference values, its |beta| domain and the chi refusal
  * the gradient vanishes at closed-form equilibria and matches central
    finite differences of the energy in all four amplitude components
  * property: gradient and Hessian match central first and second
    differences of the energy at any parameters and amplitudes inside the
    sphere
  * closed form vs the independent multistart minimizer on random draws
  * the superradiant energy identity E0 = -(lam^2/f1)(1 - nu)^2
  * critical_delta / critical_lambda closed forms, boundary cases, the
    general xi1 != 0 root, and the standard-Dicke reduction
  * branch continuity across the phase boundary
  * for kappa < 0 (xi1 = 0) raising delta never restores the normal phase
  * second-difference scans: flat for kappa = 0, kink at the transition
  * refusal behavior: nu <= -1, chi != 0, |beta| out of range, zero budget,
    a lone origin start in the superradiant phase (a saddle)
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iddm import (
    ChiUnsupportedError,
    ConvergenceFailureError,
    DomainError,
    ModelParams,
    Phase,
    UnboundedPhaseError,
    ZeroKappaError,
    critical_delta,
    critical_lambda,
    derivative_scan,
    energy,
    energy_derivatives,
    equilibrium_closed_form,
    equilibrium_numeric,
    observables,
)
from dataclasses import replace

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
        energy(FIG2, 0.5, (np.zeros(2), np.zeros(2), np.array([0.1, 1.01]), np.zeros(2)))
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


def test_gradient_zero_at_origin():
    grad, _ = energy_derivatives(FIG2, 0.2, (0.0, 0.0, 0.0, 0.0))
    assert np.array_equal(grad, np.zeros(4))


def test_gradient_zero_at_superradiant_equilibrium():
    for delta in (0.6, 0.75, 0.9, 1.0):
        sol = equilibrium_closed_form(FIG2, delta)
        grad, _ = energy_derivatives(FIG2, delta, _real(sol.alpha, sol.beta))
        assert np.max(np.abs(grad)) <= 1e-10


def test_gradient_matches_finite_differences():
    # all four components, Im alpha and Im beta nonzero; arrays evaluate pointwise
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
        fd = (energy(params, delta, (a + steps).T) - energy(params, delta, (a - steps).T)) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-5 * max(1.0, np.max(np.abs(grad)))


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    omega=_finite(0.5, 100.0),
    # lam below ~1e-154 squares to 0 and divides by zero in the frequencies
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
        return energy(params, delta, x.T)

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


def test_numeric_normal_phase_is_clean():
    sol = equilibrium_numeric(FIG2, 0.0)
    assert sol.phase is Phase.NORMAL
    assert abs(sol.alpha) <= 1e-8 and abs(sol.beta) <= 1e-8


def test_numeric_zero_budget_raises():
    with pytest.raises(ConvergenceFailureError):
        equilibrium_numeric(FIG2, 1.0, max_iterations=0)


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


def test_critical_delta_general_branch():
    # xi1 != 0 goes through the quadratic; the root must satisfy nu = 1
    params = ModelParams(omega=400.0, lam=5.0, kappa=-0.5, xi1=0.3)
    dc = critical_delta(params)
    assert dc is not None
    f1 = params.omega + params.xi1 * dc
    f2 = params.omega0 + params.kappa * (1.0 + dc)
    assert math.isclose(f1 * f2, 4.0 * params.lam**2, rel_tol=1e-12)
    # and it collapses to the closed form as xi1 -> 0
    small = replace(params, xi1=1e-9)
    assert abs(critical_delta(small) - 0.5) < 1e-6


def test_critical_lambda_reference():
    assert math.isclose(critical_lambda(FIG2, 0.0), math.sqrt(200.0) / 2.0, rel_tol=0, abs_tol=1e-14)


def test_critical_lambda_no_transition():
    assert critical_lambda(FIG2, 1.0) is None


def test_standard_dicke_reduction():
    params = ModelParams(omega=400.0, lam=1.0, kappa=0.0)
    assert abs(critical_lambda(params, 0.7) - 10.0) <= 1e-12
    # below threshold the phase is normal at every population
    sub = replace(params, lam=9.9)
    for delta in np.linspace(-1.0, 1.0, 21):
        assert equilibrium_closed_form(sub, float(delta)).phase is Phase.NORMAL


def test_critical_points_consistent():
    # lambda_c evaluated at delta_c reproduces the scan coupling
    dc = critical_delta(FIG2)
    assert math.isclose(critical_lambda(FIG2, dc), FIG2.lam, rel_tol=0, abs_tol=1e-12)


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
    assert np.all(scan.e0_values == 0.0)
    assert np.all(scan.d1_values == 0.0)
    assert np.all(scan.d2_values == 0.0)


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


def test_scan_error_names_grid_point():
    params = ModelParams(omega=400.0, lam=5.0, kappa=-2.0)
    with pytest.raises(UnboundedPhaseError, match="grid index"):
        derivative_scan(params, "delta", 0.0, 1.0, 0.1)
