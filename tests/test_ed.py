"""Finite-size exact diagonalization.

Checked here:
  * hand-built 4x4 Hamiltonian for N = 1, cutoff 1 matches the sparse builder
  * lam = 0: the Hamiltonian is diagonal and the ground energy is the exact
    product-state value; with xi2 != 0 the displaced-oscillator energy is
    reproduced through order 1/N
  * hermiticity and the parity commutator vanish, with and without the
    collisional term
  * the variational bound: ED energy per atom never exceeds the coherent
    product-state value e0 - f2/2
  * deep normal phase: photon fraction is tiny and j_z/N is -1/2 + O(1/N)
  * finite-size drift toward mean field shrinks with N at a generic
    superradiant point
  * photon fraction lands near the mean-field alpha^2 at moderate N
  * the adaptive cutoff enlarges the photon space when the seed cutoff is
    too small, and results are deterministic across repeated runs
  * the full-qubit mode picks the lower of the two impurity branches
  * the basis-size cap raises DimensionTooLargeError
  * the sector solve against a dense oracle: the energy is the lowest
    eigenvalue of the full matrix, and parity is the sign of the sector that
    holds it; parity is exactly +-1 in the near-degenerate superradiant phase
  * sector energies within 1e-12 * max(1, |E|) tie, and a tie goes to Pi = +1
  * the warm-started truncation check starts from the zero-padded base
    vector and equals a cold solve of the same sector
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import iddm.ed as ed
from iddm import (
    DimensionTooLargeError,
    EDConfig,
    FixedDelta,
    FullQubit,
    ModelParams,
    build_hamiltonian,
    equilibrium_closed_form,
    finite_size_scan,
    ground_state,
    parity_operator,
    recommended_photon_cutoff,
)

FIG2 = ModelParams(omega=400.0, lam=5.0, kappa=-0.5)
SMALL = ModelParams(omega=4.0, lam=2.0, kappa=-0.5)


def _dense(params, config, cutoff):
    return build_hamiltonian(params, config, photon_cutoff=cutoff).toarray()


def test_single_atom_hamiltonian_by_hand():
    params = ModelParams(omega=2.0, lam=0.3, kappa=-0.5, n_atoms=1)
    config = EDConfig(n_atoms=1, photon_cutoff=1, impurity_mode=FixedDelta(0.5))
    h = _dense(params, config, 1)
    f1 = 2.0
    f2 = 1.0 - 0.5 * 1.5
    g = 0.3  # lam / sqrt(N) with N = 1
    # basis |n, m> ordered (0,-1/2), (0,+1/2), (1,-1/2), (1,+1/2)
    want = np.array(
        [
            [-f2 / 2.0, 0.0, 0.0, g],
            [0.0, +f2 / 2.0, g, 0.0],
            [0.0, g, f1 - f2 / 2.0, 0.0],
            [g, 0.0, 0.0, f1 + f2 / 2.0],
        ]
    )
    assert np.max(np.abs(h - want)) <= 1e-14


def test_drive_term_photon_ladder():
    params = ModelParams(omega=2.0, lam=0.0, kappa=0.0, xi2=0.7, n_atoms=1)
    config = EDConfig(n_atoms=1, photon_cutoff=3, impurity_mode=FixedDelta(1.0))
    h = _dense(params, config, 3)
    # photon block of xi2 * delta * (a + a^dagger): sqrt(n + 1) ladder
    for n in range(3):
        idx_a = 2 * n      # (n, -1/2)
        idx_b = 2 * (n + 1)
        assert math.isclose(h[idx_a, idx_b], 0.7 * math.sqrt(n + 1.0), rel_tol=1e-14)
        assert h[idx_a, idx_b] == h[idx_b, idx_a]


def test_decoupled_ground_energy_exact():
    params = ModelParams(omega=3.0, lam=0.0, kappa=-0.5, n_atoms=6)
    config = EDConfig(n_atoms=6, photon_cutoff=2, impurity_mode=FixedDelta(0.4))
    res = ground_state(params, config)
    f2 = 1.0 - 0.5 * 1.4
    assert math.isclose(res.energy_per_atom, -f2 / 2.0, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(res.jz_over_n, -0.5, rel_tol=0, abs_tol=1e-12)
    assert res.photons_over_n <= 1e-12


def test_displaced_oscillator_energy():
    # lam = 0 with a linear drive: exact energy -f2/2 - xi2^2 delta^2 / (f1 N)
    params = ModelParams(omega=2.5, lam=0.0, kappa=-0.5, xi2=0.8, n_atoms=8)
    config = EDConfig(n_atoms=8, photon_cutoff=12, impurity_mode=FixedDelta(0.6))
    res = ground_state(params, config)
    f1 = 2.5
    f2 = 1.0 - 0.5 * 1.6
    want = -f2 / 2.0 - 0.8**2 * 0.6**2 / (f1 * 8)
    assert math.isclose(res.energy_per_atom, want, rel_tol=0, abs_tol=1e-12)
    # displaced vacuum holds (xi2 delta / f1)^2 photons in total
    want_photons = (0.8 * 0.6 / 2.5) ** 2 / 8
    assert math.isclose(res.photons_over_n, want_photons, rel_tol=1e-9, abs_tol=1e-12)


def test_hermitian_and_parity_commutes():
    rng = np.random.default_rng(7)
    for include_chi in (False, True):
        params = ModelParams(
            omega=rng.uniform(1.0, 10.0),
            lam=rng.uniform(0.0, 3.0),
            kappa=rng.uniform(-1.0, 1.0),
            chi=0.4 if include_chi else 0.0,
            n_atoms=6,
        )
        config = EDConfig(
            n_atoms=6,
            photon_cutoff=8,
            impurity_mode=FixedDelta(0.3),
            include_chi=include_chi,
        )
        h = _dense(params, config, 8)
        assert np.max(np.abs(h - h.T)) <= 1e-12
        pi = parity_operator(6, 8).toarray()
        assert np.max(np.abs(h @ pi - pi @ h)) <= 1e-12


def test_ground_state_has_definite_parity():
    config = EDConfig(n_atoms=8, photon_cutoff=6, impurity_mode=FixedDelta(0.0))
    res = ground_state(FIG2, config)
    assert res.parity in (1.0, -1.0)


@pytest.mark.parametrize("n_atoms", [16, 64])
def test_superradiant_parity_is_a_sector_sign(n_atoms):
    # the two parity sectors are degenerate to roundoff here; a full-space
    # solve returned a mixture of them (parity 0.053 at N = 16), and the
    # tie rule hands the degenerate pair to Pi = +1
    config = EDConfig(n_atoms=n_atoms, impurity_mode=FixedDelta(0.8))
    assert ground_state(SMALL, config).parity == 1.0


@pytest.mark.parametrize("offset, parity", [(1e-13, 1.0), (1e-9, -1.0)])
def test_sector_tie_goes_to_first_sector(monkeypatch, offset, parity):
    # the sectors agree to ~1e-14 here; lower the Pi = -1 base solve by
    # offset * |E|: within 1e-12 * |E| it is a tie and Pi = +1 is kept,
    # beyond it Pi = -1 wins
    calls = []
    solve = ed._lowest_state

    def shifted(h, tol, v0=None):
        energy, psi = solve(h, tol, v0)
        calls.append(energy)
        return (energy - offset * abs(energy) if len(calls) == 2 else energy), psi

    monkeypatch.setattr(ed, "_lowest_state", shifted)
    config = EDConfig(n_atoms=16, impurity_mode=FixedDelta(0.8))
    assert ground_state(SMALL, config).parity == parity


def _dense_oracle_cases():
    rng = np.random.default_rng(11)
    cases = []
    for i in range(12):
        n = 2 + i % 9
        variant = ("plain", "f2_negative", "chi", "xi2", "qubit", "qubit_xi2")[i % 6]
        kwargs = dict(
            omega=rng.uniform(1.0, 6.0),
            lam=rng.uniform(0.2, 2.0),
            kappa=rng.uniform(-1.0, 1.0),
            omega_q_prime=rng.uniform(-1.0, 1.0),
            n_atoms=n,
        )
        if variant == "f2_negative":
            kwargs["kappa"] = rng.uniform(-2.0, -1.2)  # f2 < 0 at delta >= 0
        if variant == "chi":
            kwargs["chi"] = rng.uniform(-0.5, 0.5)
        if variant in ("xi2", "qubit_xi2"):
            kwargs["xi2"] = rng.uniform(0.1, 1.0)
        mode = FullQubit() if variant.startswith("qubit") else FixedDelta(rng.uniform(0.0, 1.0))
        config = EDConfig(n_atoms=n, impurity_mode=mode, include_chi=variant == "chi")
        cases.append(pytest.param(ModelParams(**kwargs), config, id=f"{variant}-N{n}"))
    return cases


@pytest.mark.parametrize("params, config", _dense_oracle_cases())
def test_sector_solve_matches_dense_oracle(params, config):
    res = ground_state(params, config)
    h = _dense(params, config, res.photon_cutoff)
    energy = res.energy_per_atom * config.n_atoms
    want = np.linalg.eigvalsh(h)[0]
    assert abs(energy - want) <= 1e-10 * max(1.0, abs(want))
    if isinstance(config.impurity_mode, FullQubit) or params.xi2 != 0:
        assert res.parity is None
        return
    signs = parity_operator(config.n_atoms, res.photon_cutoff).diagonal()
    sector = {s: np.linalg.eigvalsh(h[np.ix_(signs == s, signs == s)])[0] for s in (1.0, -1.0)}
    if abs(sector[1.0] - sector[-1.0]) > 1e-12 * max(1.0, abs(want)):
        assert res.parity == min(sector, key=sector.get)
    else:
        assert res.parity == 1.0  # a tie goes to the first sector


@pytest.mark.parametrize(
    "n_atoms, mode", [(32, FixedDelta(0.8)), (16, FullQubit())], ids=["fixed", "qubit"]
)
def test_warm_started_check_matches_cold_solve(monkeypatch, n_atoms, mode):
    calls = []
    solve = ed._lowest_state

    def spy(h, tol, v0=None):
        energy, psi = solve(h, tol, v0)
        calls.append((h, v0, energy, psi))
        return energy, psi

    monkeypatch.setattr(ed, "_lowest_state", spy)
    params = replace(SMALL, omega_q_prime=0.05)
    ground_state(params, EDConfig(n_atoms=n_atoms, impurity_mode=mode))
    assert all(v0 is None for _, v0, _, _ in calls[:-1])
    h2, start, warm, _ = calls[-1]
    # the start is a base-cutoff vector padded with zeros
    assert any(
        np.array_equal(start[: len(psi)], psi) and not start[len(psi):].any()
        for _, _, _, psi in calls[:-1]
    )
    cold, _ = solve(h2, 0.0)
    assert abs(warm - cold) / n_atoms <= 1e-12


def test_parity_not_reported_with_drive():
    params = replace(FIG2, xi2=0.5)
    config = EDConfig(n_atoms=4, photon_cutoff=6, impurity_mode=FixedDelta(0.5))
    res = ground_state(params, config)
    assert res.parity is None


def test_variational_bound_against_mean_field():
    # the coherent product state evaluates H to exactly N (e0 - f2/2), so by
    # Rayleigh-Ritz the ED ground energy per atom must not exceed e0 - f2/2
    for delta in (0.0, 0.6, 1.0):
        sol = equilibrium_closed_form(SMALL, delta)
        f2 = 1.0 - 0.5 * (1.0 + delta)
        config = EDConfig(n_atoms=12, photon_cutoff=8, impurity_mode=FixedDelta(delta))
        res = ground_state(SMALL, config)
        assert res.energy_per_atom <= sol.e0 - f2 / 2.0 + 1e-10


def test_normal_phase_observables():
    config = EDConfig(n_atoms=16, photon_cutoff=8, impurity_mode=FixedDelta(0.0))
    res = ground_state(FIG2, config)
    assert res.converged
    assert res.photons_over_n <= 1e-3
    assert abs(res.jz_over_n + 0.5) <= 1.0 / 16


def test_finite_size_drift_shrinks():
    entries = finite_size_scan(SMALL, 0.8, [8, 16, 32])
    devs = [e.mean_field_deviation for e in entries]
    assert devs[0] > devs[1] > devs[2]
    # roughly 1/N: doubling N should at least halve-ish the drift
    assert devs[1] <= 0.75 * devs[0]
    assert devs[2] <= 0.75 * devs[1]
    assert all(e.result.converged for e in entries)


def test_photon_fraction_near_mean_field():
    sol = equilibrium_closed_form(SMALL, 1.0)
    config = EDConfig(n_atoms=32, photon_cutoff=4, impurity_mode=FixedDelta(1.0))
    res = ground_state(SMALL, config)
    assert abs(res.photons_over_n - sol.alpha2) <= 0.3 * sol.alpha2


def test_cutoff_expands_when_seeded_small():
    # superradiant point with ~N alpha^2 = 8 photons: a cutoff of 1 must grow
    config = EDConfig(n_atoms=32, photon_cutoff=1, impurity_mode=FixedDelta(1.0))
    res = ground_state(SMALL, config)
    assert res.photon_cutoff > 1
    assert res.converged
    assert res.cutoff_shift <= 1e-8 * max(1.0, abs(res.energy_per_atom))


def test_recommended_cutoff_tracks_photon_number():
    normal = recommended_photon_cutoff(FIG2, EDConfig(n_atoms=16, impurity_mode=FixedDelta(0.0)))
    hot = recommended_photon_cutoff(SMALL, EDConfig(n_atoms=64, impurity_mode=FixedDelta(1.0)))
    assert normal >= 10  # floor keeps a safety margin even with no photons
    assert hot > normal  # 64 * 0.25 = 16 mean photons pushes the cutoff up


def test_deterministic_repeat():
    config = EDConfig(n_atoms=12, photon_cutoff=6, impurity_mode=FixedDelta(0.7))
    a = ground_state(SMALL, config)
    b = ground_state(SMALL, config)
    assert a.energy_per_atom == b.energy_per_atom
    assert a.jz_over_n == b.jz_over_n
    assert a.photons_over_n == b.photons_over_n


def test_full_qubit_selects_lower_branch():
    params = ModelParams(omega=4.0, lam=1.0, kappa=-0.5, omega_q_prime=3.0, n_atoms=6)
    # a common generous cutoff floor keeps the three truncations identical
    up = ground_state(
        params, EDConfig(n_atoms=6, photon_cutoff=40, impurity_mode=FixedDelta(1.0))
    )
    down = ground_state(
        params, EDConfig(n_atoms=6, photon_cutoff=40, impurity_mode=FixedDelta(-1.0))
    )
    full = ground_state(
        params, EDConfig(n_atoms=6, photon_cutoff=40, impurity_mode=FullQubit())
    )
    split = 3.0 / (2.0 * 6)  # omega_q_prime sigma_z / 2 shifts branches by N
    want = min(up.energy_per_atom + split, down.energy_per_atom - split)
    assert math.isclose(full.energy_per_atom, want, rel_tol=0, abs_tol=1e-10)
    assert full.parity is None


def test_dimension_cap():
    config = EDConfig(
        n_atoms=100,
        photon_cutoff=2000,
        impurity_mode=FixedDelta(0.0),
        dimension_cap=10_000,
    )
    with pytest.raises(DimensionTooLargeError):
        build_hamiltonian(FIG2, config, photon_cutoff=2000)
