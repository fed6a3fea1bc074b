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


def _falls_like_one_over_n(residuals):
    # each step multiplies N by 4, so a 1/N residual shrinks by about 1/4
    return all(0.2 < b / a < 0.3 for a, b in zip(residuals, residuals[1:]))


@pytest.mark.parametrize("params, delta", POINTS)
def test_energy_correction_tends_to_fluctuation_coefficient(params, delta):
    ef = effective_frequencies(params, delta)
    sol = equilibrium_closed_form(params, delta)
    spec = excitation_spectrum(params, delta)
    f2_tilde = ef.f2 if sol.phase is Phase.NORMAL else ef.f2 / ef.nu
    c1 = (spec.eps_minus + spec.eps_plus - ef.f1 - f2_tilde) / 2.0
    residuals = []
    for n in N_LIST:
        res = ground_state(params, EDConfig(n_atoms=n, impurity_mode=FixedDelta(delta)))
        residual = abs(n * (res.energy_per_atom - (sol.e0 - ef.f2 / 2.0)) - c1)
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
