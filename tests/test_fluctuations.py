"""Quadratic fluctuation spectra.

Checked here:
  * lam = 0 decoupling: spectrum equals (f1, f2) sorted, machine precision
  * the analytic Hessian of meanfield._derivatives (as a numpy array from
    tests/_oracles.py) is symmetric and matches central second differences
    of the energy at random interior points (Im alpha, Im beta != 0 included)
  * normal-phase spectra from the Hessian route match the closed two-mode
    formula (eps_- within 1e-12 of itself, eps_+ within 1e-9 max(1, eps_+));
    both modes are positive above and below the transition
  * the closed formula's eps_- is within 1e-14 relative of a 60-digit
    reference where f1 >> f2, where (a - r)/2 would cancel
  * the closed formula matches the Hessian route within 1e-9 relative at
    omega = 1e100, 1e160 and 1e300, and where f1^2 underflows with f2 = 0;
    it refuses nu < 1, and an f2/f1 below the float range
  * superradiant spectra from the Hessian route match the cancellation-free
    closed form (Emary & Brandes with f2 -> f2/nu) on random draws with
    |1 - nu| >= 1e-3: eps_- within 1e-12 of itself, eps_+ within 1e-13
  * the block route matches the generic symplectic route, the dense
    eigenvalues of J M, on random draws in both phases (each energy within
    1e-14 eps_+), and a 60-digit reference on the same Hessian entries
    (each energy within 1e-15 eps_+)
  * where 2 f1 overflows the spectrum is finite: `spectrum` at
    omega = omega0 = 1.7e308, lambda = 6e153 matches the closed formula, and
    at omega = 1e308, kappa = 0 prints (1, 1e308); and where f2/f1 = 5e199
    it matches the closed formula; where M is 0 (f2 = lam = 0, f1 = 5e-324
    halved to 0) the spectrum is (0, 0), not a ZeroDivisionError
  * the oracle kernels (spectrum, measure, minimizer) run with numpy's
    eigvals, eigvalsh, kron and einsum patched to raise
  * the soft mode closes at the phase boundary and reopens on both sides
  * the Hessian is positive semidefinite at every admissible equilibrium
  * spectra are continuous across the boundary
"""

import math

import mpmath
import numpy as np
import pytest

from iddm import (
    DomainError,
    IDDMError,
    InvalidParameterError,
    ModelParams,
    Phase,
    ProjectiveMeasurement,
    Sign,
    WernerState,
    critical_lambda,
    effective_frequencies,
    energy,
    equilibrium_closed_form,
    equilibrium_numeric,
    excitation_spectrum,
    measure,
    normal_phase_spectrum,
)
from iddm.cli import main

from _oracles import energy_derivatives

FIG2 = ModelParams(omega=400.0, lam=5.0, kappa=-0.5)

# Block-diagonal symplectic form for the quadrature order (x1, p1, x2, p2).
SYMPLECTIC_FORM = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])


def _oracle_draws(seed, count):
    """(params, delta, phase, M) at `count` random admissible points, M = H/2."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        params = ModelParams(
            omega=rng.uniform(1.0, 500.0),
            lam=rng.uniform(0.0, 30.0),
            kappa=rng.uniform(-2.0, 2.0),
        )
        delta = rng.uniform(-1.0, 1.0)
        try:
            sol = equilibrium_closed_form(params, delta)
        except IDDMError:
            continue
        m = energy_derivatives(params, delta, (sol.alpha, 0.0, sol.beta, 0.0))[1] / 2.0
        out.append((params, delta, sol.phase, m))
    return out


def test_block_route_matches_dense_symplectic_eigenvalues():
    phases = set()
    for params, delta, phase, m in _oracle_draws(61, 400):
        phases.add(phase)
        freqs = np.sort(np.abs(np.linalg.eigvals(SYMPLECTIC_FORM @ m).imag))
        res = excitation_spectrum(params, delta)
        # eigenvalues come in +-i eps pairs: [e-, e-, e+, e+] after sorting
        assert abs(res.eps_minus - freqs[1]) <= 1e-14 * res.eps_plus
        assert abs(res.eps_plus - freqs[3]) <= 1e-14 * res.eps_plus
    assert {Phase.NORMAL, Phase.SUPERRADIANT} <= phases


def test_block_route_matches_high_precision_reference():
    # the program's Hessian entries are the reference's exact inputs:
    # eps^2 are the eigenvalues of diag(m00, m33) [[m00, m02], [m02, m22]]
    for params, delta, _, m in _oracle_draws(67, 400):
        m00, m02, m22, m33 = (mpmath.mpf(float(x)) for x in (m[0, 0], m[0, 2], m[2, 2], m[3, 3]))
        with mpmath.workdps(60):
            trace = m00 * m00 + m33 * m22
            det = m00 * m33 * (m00 * m22 - m02 * m02)
            root = mpmath.sqrt(trace * trace - 4 * det)
            ref_minus, ref_plus = mpmath.sqrt(2 * det / (trace + root)), mpmath.sqrt((trace + root) / 2)
            res = excitation_spectrum(params, delta)
            assert abs(res.eps_minus - ref_minus) <= 1e-15 * res.eps_plus
            assert abs(res.eps_plus - ref_plus) <= 1e-15 * res.eps_plus


@pytest.mark.parametrize("argv", [
    ["--omega", "1.7e308", "--omega0", "1.7e308", "--lambda", "6e153", "--delta", "0"],
    ["--omega", "1e308", "--kappa", "0", "--delta", "0"],
])
def test_spectrum_where_twice_f1_overflows(capsys, argv):
    # h00 = 2 f1 overflows here
    assert main(["spectrum", *argv]) == 0
    lines = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    eps = float(lines["eps_minus"]), float(lines["eps_plus"])
    if "--omega0" in argv:
        want = normal_phase_spectrum(ModelParams(omega=1.7e308, omega0=1.7e308, lam=6e153,
                                                 kappa=-0.5), 0.0)
    else:  # f2/f1 is below the float range, which the closed formula refuses
        want = 1.0, 1e308  # eps_-^2 = 1 - O(1e-306), eps_+ = f1 (1 + O(1e-614))
    assert all(math.isclose(e, w, rel_tol=1e-12) for e, w in zip(eps, want)), (eps, want)
    assert lines["stable"] == "true"


def test_spectrum_where_f2_dwarfs_f1():
    # (f2/f1)^2 = 2.5e399 overflows, so ratios to m00 = f1 would give eps_+ = inf
    params = ModelParams(omega=1e-200, lam=0.0, kappa=-0.5)
    res = excitation_spectrum(params, 0.0)
    lo, hi = normal_phase_spectrum(params, 0.0)
    assert math.isclose(res.eps_minus, lo, rel_tol=1e-12) and math.isclose(res.eps_plus, hi, rel_tol=1e-12)


def test_spectrum_where_the_hessian_is_zero():
    # f2 = lam = 0 and f1 = 5e-324, which halves to 0 in M: eps_+ = 0, and det/eps_+ must not divide by it
    res = excitation_spectrum(ModelParams(omega=5e-324, lam=0.0, kappa=-0.5), 1.0)
    assert res == (0.0, 0.0, True)  # the closed formula gives (0, 5e-324): one subnormal step off


def test_oracle_kernels_need_no_numpy_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy linear algebra called")

    for owner, name in ((np.linalg, "eigvals"), (np.linalg, "eigvalsh"), (np, "kron"), (np, "einsum")):
        monkeypatch.setattr(owner, name, refuse)
    for delta in (0.2, 0.8):  # normal, superradiant
        assert excitation_spectrum(FIG2, delta).eps_minus > 0.0
        sol = equilibrium_numeric(FIG2, delta)
        assert sol.phase is equilibrium_closed_form(FIG2, delta).phase
    out = measure(WernerState(0.6), ProjectiveMeasurement(0.3, Sign.MINUS))
    assert math.isclose(out.delta, -0.6 * math.cos(0.6), rel_tol=1e-14)


def test_decoupled_spectrum_exact():
    params = ModelParams(omega=3.7, lam=0.0, kappa=-0.5)
    res = excitation_spectrum(params, 0.2)
    f2 = 1.0 - 0.5 * 1.2
    assert math.isclose(res.eps_minus, f2, rel_tol=0, abs_tol=1e-13)
    assert math.isclose(res.eps_plus, 3.7, rel_tol=0, abs_tol=1e-13)


def test_energy_domain_guard():
    # |beta|^2 = Re^2 + Im^2: the imaginary part counts toward the sphere
    with pytest.raises(DomainError):
        energy(FIG2, 0.4, (0.0, 0.0, 0.85, 0.71))
    with pytest.raises(DomainError):
        energy_derivatives(FIG2, 0.4, (0.0, 0.0, 0.6, 0.8))


def test_hessian_symmetric_and_matches_finite_differences():
    rng = np.random.default_rng(17)
    h = 1e-4
    steps = h * np.eye(4)
    for _ in range(40):
        params = ModelParams(
            omega=rng.uniform(1.0, 50.0),
            lam=rng.uniform(0.0, 5.0),
            kappa=rng.uniform(-2.0, 2.0),
        )
        delta = rng.uniform(-1.0, 1.0)
        a = rng.uniform(-0.5, 0.5, size=4)  # |beta|^2 <= 0.5, Im alpha and Im beta nonzero
        _, m = energy_derivatives(params, delta, a)
        assert np.max(np.abs(m - m.T)) <= 1e-12
        fd = np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                corners = np.array([
                    a + steps[i] + steps[j], a + steps[i] - steps[j],
                    a - steps[i] + steps[j], a - steps[i] - steps[j],
                ])
                e_pp, e_pm, e_mp, e_mm = [energy(params, delta, c) for c in corners]
                fd[i, j] = (e_pp - e_pm - e_mp + e_mm) / (4.0 * h * h)
        assert np.max(np.abs(m - fd)) <= 1e-5 * max(1.0, np.max(np.abs(m)))


def test_normal_phase_matches_closed_formula():
    rng = np.random.default_rng(29)
    done = 0
    while done < 100:
        params = ModelParams(
            omega=rng.uniform(1.0, 500.0),
            lam=rng.uniform(0.0, 30.0),
            kappa=rng.uniform(-2.0, 2.0),
        )
        delta = rng.uniform(-1.0, 1.0)
        f1 = params.omega
        f2 = params.omega0 + params.kappa * (1.0 + delta)
        if f1 * f2 <= 4.0 * params.lam**2 * (1.0 + 1e-9):
            continue
        done += 1
        res = excitation_spectrum(params, delta)
        lo, hi = normal_phase_spectrum(params, delta)
        # eps_- relative to itself, as in the superradiant test: a cancelling
        # sqrt((a - r)/2) is off by up to 8e-11 of eps_- here
        assert abs(res.eps_minus - lo) <= 1e-12 * lo
        assert abs(res.eps_plus - hi) <= 1e-9 * max(1.0, hi)


@pytest.mark.parametrize("omega, lam, delta", [(400.0, 5.0, 0.2), (400.0, 1.0, 0.9), (4000.0, 1.0, 0.95)])
def test_normal_phase_soft_mode_matches_high_precision_reference(omega, lam, delta):
    # eps_-^2 = (a - r)/2 loses up to 8.5e-7 relative here; the program's f1, f2
    # are the reference's exact inputs
    params = FIG2._replace(omega=omega, lam=lam)
    f1, f2 = (mpmath.mpf(f) for f in effective_frequencies(params, delta))
    with mpmath.workdps(60):
        a = f1**2 + f2**2
        r = mpmath.sqrt((f1**2 - f2**2) ** 2 + 16 * mpmath.mpf(lam) ** 2 * f1 * f2)
        reference = mpmath.sqrt((a - r) / 2)
        eps_minus, _ = normal_phase_spectrum(params, delta)
        assert abs(eps_minus - reference) <= 1e-14 * reference


@pytest.mark.parametrize("params, delta", [
    (ModelParams(omega=1e100, lam=1.0), 0.0),  # was an OverflowError
    (ModelParams(omega=1e160, lam=1.0), 0.0),  # was (nan, inf)
    (ModelParams(omega=1e300, lam=1.0), 0.0),  # was (nan, inf)
    (ModelParams(omega=1e-200, lam=0.0, kappa=-0.5), 1.0),  # f1^2 underflows, f2 = 0; was a ZeroDivisionError
])
def test_normal_phase_spectrum_at_extreme_frequencies(params, delta):
    res = excitation_spectrum(params, delta)
    lo, hi = normal_phase_spectrum(params, delta)
    assert math.isclose(lo, res.eps_minus, rel_tol=1e-9)
    assert math.isclose(hi, res.eps_plus, rel_tol=1e-9)


def test_normal_phase_spectrum_refusals():
    with pytest.raises(InvalidParameterError, match="needs nu >= 1"):
        normal_phase_spectrum(FIG2, 0.8)
    # f2/f1 = 1e-616 is below the smallest float, so eps_- = f2 cannot be scaled back
    with pytest.raises(InvalidParameterError, match="exceeds the float range"):
        normal_phase_spectrum(ModelParams(omega=1e308, omega0=1e-308, lam=0.0), 0.0)


def test_superradiant_spectrum_matches_closed_formula():
    # Emary & Brandes (PRE 67, 066203, 2003) with f2 -> f2/nu, eps_-^2 written
    # without the cancellation of (a - r)/2; eps_- is compared relative to
    # itself, so an error of the size of u*eps_+ would show
    rng = np.random.default_rng(53)
    done = 0
    while done < 300:
        params = ModelParams(
            omega=rng.uniform(1.0, 500.0),
            lam=rng.uniform(0.0, 30.0),
            kappa=rng.uniform(-2.0, 2.0),
        )
        delta = rng.uniform(-1.0, 1.0)
        try:
            sol = equilibrium_closed_form(params, delta)
        except IDDMError:
            continue
        nu = sol.nu
        if sol.phase is not Phase.SUPERRADIANT or abs(1.0 - nu) < 1e-3:
            continue
        done += 1
        f1, f2 = effective_frequencies(params, delta)
        a = f1**2 + (f2 / nu) ** 2
        r = math.sqrt((f1**2 - (f2 / nu) ** 2) ** 2 + 4.0 * f1**2 * f2**2)
        eps_minus = math.sqrt(2.0 * f1**2 * f2**2 * (1.0 - nu**2) / (nu**2 * (a + r)))
        res = excitation_spectrum(params, delta)
        assert abs(res.eps_minus - eps_minus) <= 1e-12 * eps_minus
        assert abs(res.eps_plus - math.sqrt((a + r) / 2.0)) <= 1e-13 * res.eps_plus


def test_soft_mode_closes_and_reopens():
    lam_c = critical_lambda(FIG2, 0.0)
    at = excitation_spectrum(FIG2._replace(lam=lam_c), 0.0)
    below = excitation_spectrum(FIG2._replace(lam=0.9 * lam_c), 0.0)
    above = excitation_spectrum(FIG2._replace(lam=1.1 * lam_c), 0.0)
    assert at.eps_minus <= 1e-4
    assert below.eps_minus > 0.05
    assert above.eps_minus > 0.05
    near = excitation_spectrum(FIG2._replace(lam=lam_c * (1.0 + 1e-4)), 0.0)
    far = excitation_spectrum(FIG2._replace(lam=lam_c * (1.0 + 1e-2)), 0.0)
    assert near.eps_minus < far.eps_minus


def test_stable_everywhere_admissible():
    rng = np.random.default_rng(41)
    done = 0
    while done < 150:
        params = ModelParams(
            omega=rng.uniform(1.0, 500.0),
            lam=rng.uniform(0.0, 30.0),
            kappa=rng.uniform(-2.0, 2.0),
        )
        delta = rng.uniform(-1.0, 1.0)
        try:
            res = excitation_spectrum(params, delta)
        except Exception:
            continue
        done += 1
        assert res.stable
        assert res.eps_minus >= 0.0
        assert res.eps_plus >= res.eps_minus


def test_spectrum_continuous_across_boundary():
    h = 1e-7
    below = excitation_spectrum(FIG2, 0.5 - h)
    above = excitation_spectrum(FIG2, 0.5 + h)
    assert abs(below.eps_minus - above.eps_minus) <= 1e-2
    assert abs(below.eps_plus - above.eps_plus) <= 1e-2


def test_superradiant_spectrum_positive_at_negative_nu():
    # nu in (-1, 0): f2 < 0 but the equilibrium is still a true minimum
    params = ModelParams(omega=4.0, lam=2.0, kappa=-0.75)
    sol = equilibrium_closed_form(params, 1.0)
    assert sol.phase is Phase.SUPERRADIANT and sol.nu < 0
    res = excitation_spectrum(params, 1.0)
    assert res.eps_minus > 0.0 and res.stable
