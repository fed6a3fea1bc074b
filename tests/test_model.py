"""Parameter containers and effective frequencies.

Checked here:
  * frozen reference values of (f1, f2), and of nu as the closed form
    reports it, at the standard parameter set
  * the undefined-nu marker at lam = 0
  * affinity of f1, f2 in delta; constancy when kappa = xi1 = 0
  * the microscopic reductions to (omega, omega0, lam, chi) and (xi1, xi2)
  * input validation (delta range, positivity, zero detunings, a lambda whose
    4 lam^2 underflows to 0 or overflows, an f1 or f2 that overflows, a
    non-finite value of any ModelParams field); _replace and _make of the
    records run the same checks as construction
  * every count of the API (GridSpec's, trace_critical_curve's, the
    minimizer's seed_count and max_iterations, derive_cavity_params's
    n_atoms and EDConfig's three sizes) follows model.check_count: a float
    (even 8.0, or a numpy float), a bool or a string is refused as not an
    integer, a value below the minimum as too small, and a numpy integer
    passes
"""

import math

import numpy as np
import pytest

from iddm import (
    CavityMicroParams,
    EDConfig,
    GridSpec,
    ImpurityMicroParams,
    InvalidParameterError,
    ModelParams,
    NonPositiveF1Error,
    ZeroDetuningError,
    derive_cavity_params,
    derive_impurity_couplings,
    effective_frequencies,
    equilibrium_closed_form,
    equilibrium_numeric,
    trace_critical_curve,
)

FIG2 = ModelParams(omega=400.0, lam=5.0, kappa=-0.5)


def test_reference_point_frequencies():
    assert effective_frequencies(FIG2, 0.5) == (400.0, 0.25)
    assert equilibrium_closed_form(FIG2, 0.5).nu == 1.0


def test_zero_f2_at_full_population():
    assert effective_frequencies(FIG2, 1.0)[1] == 0.0
    assert equilibrium_closed_form(FIG2, 1.0).nu == 0.0


def test_decoupled_kappa_nu():
    params = ModelParams(omega=400.0, lam=5.0, kappa=0.0)
    assert effective_frequencies(params, 0.3) == (400.0, 1.0)
    assert equilibrium_closed_form(params, 0.3).nu == 4.0


def test_xi1_shifts_f1():
    f1, _ = effective_frequencies(ModelParams(omega=400.0, lam=5.0, xi1=0.04), 0.5)
    assert math.isclose(f1, 400.02, rel_tol=0, abs_tol=1e-12)


def test_nu_undefined_at_zero_coupling():
    params = ModelParams(omega=400.0, lam=0.0, kappa=-0.5)
    assert equilibrium_closed_form(params, 0.5).nu is None


def test_nonpositive_f1_rejected():
    params = ModelParams(omega=1.0, lam=5.0, xi1=-2.0)
    with pytest.raises(NonPositiveF1Error):
        effective_frequencies(params, 1.0)


@pytest.mark.parametrize("params, delta, frequency", [
    (ModelParams(omega=1e308, lam=1.0, xi1=1e308), 1.0, "f1"),
    (ModelParams(omega=1e308, lam=1.0, xi1=-1e308), -1.0, "f1"),
    (ModelParams(omega=1.0, lam=1.0, omega0=1e308, kappa=1e308), 1.0, "f2"),
    (ModelParams(omega=1.0, lam=1.0, kappa=-1e308), 1.0, "f2"),
], ids=["f1-inf", "f1-inf-negative-xi1", "f2-inf", "f2-minus-inf"])
def test_overflowing_frequency_rejected(params, delta, frequency):
    # a plain InvalidParameterError, so that a sweep tags the row invalid_parameter
    with pytest.raises(InvalidParameterError, match=f"^{frequency} = .* overflows$") as caught:
        effective_frequencies(params, delta)
    assert type(caught.value) is InvalidParameterError


def test_population_range_enforced():
    for bad in (-1.5, 1.0000001, math.nan):
        with pytest.raises(InvalidParameterError):
            effective_frequencies(FIG2, bad)


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        ModelParams(omega=0.0, lam=1.0)
    with pytest.raises(InvalidParameterError):
        ModelParams(omega=1.0, lam=1.0, omega0=-1.0)
    with pytest.raises(InvalidParameterError):
        ModelParams(omega=1.0, lam=-0.1)
    with pytest.raises(InvalidParameterError):
        ModelParams(omega=1.0, lam=1e-200)  # 4 lam^2 underflows to 0
    with pytest.raises(InvalidParameterError):
        ModelParams(omega=1.0, lam=1e154)  # 4 lam^2 overflows
    assert equilibrium_closed_form(ModelParams(omega=1.0, lam=1e-160), 0.0).nu == math.inf
    for name in ModelParams._fields:  # a field added later is covered too
        label = "lambda" if name == "lam" else name
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameterError, match=f"^{label} must be finite, got {bad}$"):
                ModelParams(**{"omega": 1.0, "lam": 1.0, name: bad})


def test_frequencies_affine_in_delta():
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = ModelParams(
            omega=rng.uniform(1.0, 500.0),
            lam=rng.uniform(0.1, 20.0),
            kappa=rng.uniform(-2.0, 2.0),
            xi1=rng.uniform(-0.2, 0.2),
        )
        a, b = sorted(rng.uniform(-1.0, 1.0, size=2))
        try:
            fa = effective_frequencies(params, a)
            fb = effective_frequencies(params, b)
            fm = effective_frequencies(params, (a + b) / 2.0)
        except NonPositiveF1Error:
            continue
        for m, fa_i, fb_i in zip(fm, fa, fb):
            assert math.isclose(m, (fa_i + fb_i) / 2.0, rel_tol=1e-12, abs_tol=1e-12)


def test_frequencies_constant_without_impurity_couplings():
    params = ModelParams(omega=123.4, lam=3.0, kappa=0.0, xi1=0.0)
    values = {effective_frequencies(params, d) for d in np.linspace(-1.0, 1.0, 17)}
    assert values == {(123.4, 1.0)}


MICRO_REFERENCE = CavityMicroParams(
    delta_c=-300.0, u0=2.0, omega_r=0.5, s0=0.0, s1=0.0, s01=0.0,
    g0=1.0, omega_p=2.0, delta_a=100.0,
)


def test_cavity_reduction_reference_values():
    omega, omega0, lam, chi = derive_cavity_params(MICRO_REFERENCE, 100)
    assert omega == 400.0
    assert omega0 == 1.0
    assert math.isclose(lam, 0.1, rel_tol=0, abs_tol=1e-15)
    assert chi == 0.0


def test_cavity_reduction_collisionless_omega0():
    # no collisions: omega0 = 2 omega_r for every N, chi = 0
    for n in (1, 2, 100):
        _, omega0, _, chi = derive_cavity_params(MICRO_REFERENCE, n)
        assert omega0 == 1.0
        assert chi == 0.0


def test_cavity_reduction_zero_coupling():
    micro = CavityMicroParams(
        delta_c=-300.0, u0=2.0, omega_r=0.5, s0=0.1, s1=0.2, s01=0.05,
        g0=0.0, omega_p=2.0, delta_a=100.0,
    )
    _, _, lam, _ = derive_cavity_params(micro, 10)
    assert lam == 0.0


def test_impurity_reduction_values():
    assert derive_impurity_couplings(ImpurityMicroParams(g_q=2.0, omega_q=3.0, delta_q=100.0)) == (0.04, 0.06)
    assert derive_impurity_couplings(ImpurityMicroParams(g_q=0.0, omega_q=5.0, delta_q=10.0)) == (0.0, 0.0)
    xi1, xi2 = derive_impurity_couplings(ImpurityMicroParams(g_q=1.0, omega_q=1.0, delta_q=-50.0))
    assert xi1 == -0.02 and xi2 == -0.02


def test_zero_detunings_rejected():
    with pytest.raises(ZeroDetuningError):
        ImpurityMicroParams(g_q=1.0, omega_q=1.0, delta_q=0.0)
    with pytest.raises(ZeroDetuningError):
        CavityMicroParams(delta_c=-300.0, u0=2.0, omega_r=0.5, s0=0.0, s1=0.0,
                          s01=0.0, g0=1.0, omega_p=2.0, delta_a=0.0)


def test_replace_refuses_what_construction_refuses():
    with pytest.raises(InvalidParameterError, match="^lambda must be >= 0, got -1.0$"):
        FIG2._replace(lam=-1.0)
    with pytest.raises(InvalidParameterError, match="^delta range must have min <= max$"):
        GridSpec(FIG2)._replace(delta_range=(1.0, -1.0, 5))
    with pytest.raises(ZeroDetuningError):
        MICRO_REFERENCE._replace(delta_a=0.0)
    with pytest.raises(ZeroDetuningError):
        ImpurityMicroParams(g_q=1.0, omega_q=1.0, delta_q=1.0)._replace(delta_q=0.0)
    with pytest.raises(InvalidParameterError, match="^omega must be > 0, got 0.0$"):
        ModelParams._make([0.0, 1.0])
    assert FIG2._replace(lam=2.0) == ModelParams(omega=400.0, lam=2.0, kappa=-0.5)


# name -> (call with the count, its minimum, an accepted numpy integer)
COUNT_SITES = {
    "GridSpec delta count": (lambda n: GridSpec(FIG2, delta_range=(-1.0, 1.0, n)), 1, np.int64(3)),
    "GridSpec lambda count": (lambda n: GridSpec(FIG2, lambda_range=(0.0, 12.0, n)), 1, np.int64(3)),
    "trace_critical_curve count": (lambda n: trace_critical_curve(FIG2, count=n), 1, np.int64(3)),
    "seed_count": (lambda n: equilibrium_numeric(FIG2, 0.0, seed_count=n), 1, np.int64(3)),
    "max_iterations": (lambda n: equilibrium_numeric(FIG2, 0.0, max_iterations=n), 0, np.int64(50)),
    "derive_cavity_params n_atoms": (lambda n: derive_cavity_params(MICRO_REFERENCE, n), 1, np.int64(3)),
    "EDConfig n_atoms": (lambda n: EDConfig(n_atoms=n), 1, np.int64(3)),
    "EDConfig photon_cutoff": (lambda n: EDConfig(n_atoms=4, photon_cutoff=n), 1, np.int32(3)),
    "EDConfig dimension_cap": (lambda n: EDConfig(n_atoms=4, dimension_cap=n), 1, np.uint32(500)),
}


@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_every_count_is_refused_the_same_way(site):
    call, minimum, accepted = COUNT_SITES[site]
    for bad in (2.5, 8.0, True, np.float64(6), "8"):
        with pytest.raises(InvalidParameterError, match=r" must be an integer, got "):
            call(bad)
    with pytest.raises(InvalidParameterError, match=f" must be >= {minimum}, got {minimum - 1}$"):
        call(minimum - 1)
    call(accepted)
