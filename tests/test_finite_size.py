"""Finite-size ED against the 1/N fluctuation theory.

The Holstein-Primakoff expansion about the mean-field equilibrium (Emary &
Brandes, PRE 67, 066203, 2003) gives the ground energy to order N^0:

    E = N (e0 - f2/2) + c1 + O(1/N),   c1 = (eps_- + eps_+ - f1 - f2~) / 2,

with f2~ = f2 in the normal phase and f2 / nu in the superradiant phase, and
in the normal phase the lowest excitation, which is odd under parity, costs
eps_-.  Checked here, at one normal and two superradiant points over
N = 16, 64, 256:
  * N (E/N - (e0 - f2/2)) tends to c1, with a residual that falls like 1/N
  * in the normal phase the parity gap sector_gap tends to eps_-, also with
    a 1/N residual
and at three normal and three superradiant points with xi1 != 0 in each
phase (xi2 = 0, all clear of nu = 1, where the law turns to N^(-1/3)):
  * the signed residual at N = 64 is about 4 times the one at N = 256; with
    f2~ = f2 in the superradiant phase the ratio would be about 1
"""

import pytest

from iddm import (
    EDConfig,
    FixedDelta,
    ModelParams,
    Phase,
    effective_frequencies,
    equilibrium_closed_form,
    excitation_spectrum,
    ground_state,
)

N_LIST = (16, 64, 256)
POINTS = [
    pytest.param(ModelParams(omega=4.0, lam=0.5, kappa=-0.5), 0.0, id="normal"),
    pytest.param(ModelParams(omega=4.0, lam=2.0, kappa=-0.5), 0.8, id="superradiant-impurity"),
    pytest.param(ModelParams(omega=2.0, lam=1.5, kappa=0.0), 0.0, id="superradiant-dicke"),
]


ZERO_POINT_CASES = [
    pytest.param(ModelParams(omega=4.0, lam=0.6, kappa=-0.5), 0.0, id="normal"),
    pytest.param(ModelParams(omega=3.0, lam=0.5, kappa=0.4, xi1=-1.0), -0.5, id="normal-xi1-neg"),
    pytest.param(ModelParams(omega=4.0, lam=0.5, kappa=-0.5, xi1=1.5), 0.2, id="normal-xi1-pos"),
    pytest.param(ModelParams(omega=4.0, lam=0.6, kappa=-0.5), 0.6, id="superradiant"),
    pytest.param(ModelParams(omega=4.0, lam=0.9, kappa=-0.5, xi1=1.5), 0.3, id="superradiant-xi1-pos"),
    pytest.param(ModelParams(omega=2.0, lam=1.0, kappa=-0.3, xi1=-0.8), 0.4, id="superradiant-xi1-neg"),
]


def _zero_point(params, delta):
    """(e0 - f2/2, c1): the mean-field energy per atom and the O(1) term of E."""
    f1, f2 = effective_frequencies(params, delta)
    sol = equilibrium_closed_form(params, delta)
    spec = excitation_spectrum(params, delta)
    f2_tilde = f2 if sol.phase is Phase.NORMAL else f2 / sol.nu
    return sol.e0 - f2 / 2.0, (spec.eps_minus + spec.eps_plus - f1 - f2_tilde) / 2.0


def _falls_like_one_over_n(residuals):
    # each step multiplies N by 4, so a 1/N residual shrinks by about 1/4
    return all(0.2 < b / a < 0.3 for a, b in zip(residuals, residuals[1:]))


@pytest.mark.parametrize("params, delta", POINTS)
def test_energy_correction_tends_to_fluctuation_coefficient(params, delta):
    e_mf, c1 = _zero_point(params, delta)
    residuals = []
    for n in N_LIST:
        res = ground_state(params, EDConfig(n_atoms=n, impurity_mode=FixedDelta(delta)))
        residual = abs(n * (res.energy_per_atom - e_mf) - c1)
        # the truncation must sit well below what is measured
        assert n * res.cutoff_shift <= 1e-2 * residual
        residuals.append(residual)
    assert _falls_like_one_over_n(residuals), residuals


def test_normal_phase_parity_gap_tends_to_soft_mode():
    params, delta = POINTS[0].values
    eps_minus = excitation_spectrum(params, delta).eps_minus
    residuals = []
    for n in N_LIST:
        res = ground_state(params, EDConfig(n_atoms=n, impurity_mode=FixedDelta(delta)))
        assert res.parity == 1.0
        residuals.append(abs(res.sector_gap - eps_minus))
    assert _falls_like_one_over_n(residuals), residuals


@pytest.mark.parametrize("params, delta", ZERO_POINT_CASES)
def test_zero_point_energy_is_the_one_over_n_term(params, delta):
    # r(N) = N (E/N - (e0 - f2/2)) - c1 = a/N + O(1/N^2): r(64)/r(256) read 3.81-4.12 over
    # these cases, and about 1.00 in the superradiant ones with f2~ = f2; N = 16 is not yet
    # asymptotic (r(16)/r(64) is 6.3 at "superradiant")
    e_mf, c1 = _zero_point(params, delta)
    residuals = []
    for n in (64, 256):
        res = ground_state(params, EDConfig(n_atoms=n, impurity_mode=FixedDelta(delta)))
        residuals.append(n * (res.energy_per_atom - e_mf) - c1)
        assert n * res.cutoff_shift <= 1e-2 * abs(residuals[-1])
    assert 3.75 < residuals[0] / residuals[1] < 4.2, residuals
