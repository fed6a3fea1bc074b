"""Finite-size exact diagonalization.

Checked here:
  * the Fock-basis oracle: a hand-built 4x4 Hamiltonian for N = 1, cutoff 1,
    and the photon ladder of the drive term
  * the Franck-Condon matrix against its exact finite sum
  * the displaced (extended coherent-state) basis against the Fock oracle:
    the lowest eigenvalue of every sigma_z block and parity sector, and the
    ground-state <Jz> and <a^dagger a> of each sector
  * lam = 0: the Hamiltonian is diagonal and the ground energy is the exact
    product-state value; with xi2 != 0 the displaced-oscillator energy is
    exact
  * hermiticity and the parity commutator vanish, with and without the
    collisional term
  * the variational bound: ED energy per atom never exceeds the coherent
    product-state value e0 - f2/2
  * deep normal phase: photon fraction is tiny and j_z/N is -1/2 + O(1/N)
  * finite-size drift toward mean field shrinks with N at a generic
    superradiant point
  * photon fraction lands near the mean-field alpha^2 at moderate N
  * a cutoff seeded too small is raised until the check passes, the raises
    are counted, and raising stops at the dimension cap
  * the critical point omega = 1, lam = sqrt(0.5)/2, kappa = -0.5, delta = 0
    converges at N = 256
  * results are deterministic across repeated runs
  * the full-qubit mode picks the lower of the two impurity branches
  * the basis-size cap raises DimensionTooLargeError
  * the sector solve against the dense Fock oracle: the energy is the lowest
    eigenvalue of the full matrix, and parity is the sign of the Fock sector
    that holds it; parity is exactly +-1 in the near-degenerate superradiant
    phase
  * sector energies within 1e-12 * max(1, |E|) tie, and a tie goes to Pi = +1
  * the warm-started truncation check starts from the zero-padded base
    vector and equals a cold solve of the same sector
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import iddm.ed as ed
from iddm import (
    DimensionTooLargeError,
    EDConfig,
    FixedDelta,
    FullQubit,
    ModelParams,
    build_hamiltonian,
    effective_frequencies,
    equilibrium_closed_form,
    finite_size_scan,
    ground_state,
    parity_operator,
)

FIG2 = ModelParams(omega=400.0, lam=5.0, kappa=-0.5)
SMALL = ModelParams(omega=4.0, lam=2.0, kappa=-0.5)
CRITICAL = ModelParams(omega=1.0, lam=math.sqrt(0.5) / 2.0, kappa=-0.5)  # nu = 1 at delta = 0


# --- the Fock-basis oracle ---------------------------------------------------
# |n> (photon number up to the cutoff) tensor |j = N/2, m> on the Jz basis,
# index n * (N + 1) + (m + N/2); parity is (-1)^(n + m + N/2).


def _fock_block(params, config, delta, cutoff):
    n = config.n_atoms
    ef = effective_frequencies(params, delta)
    j = n / 2.0
    m = -j + np.arange(n + 1)
    jz = sp.diags(m)
    jp = sp.diags(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1.0)), -1)
    num = sp.diags(np.arange(cutoff + 1, dtype=float))
    a = sp.diags(np.sqrt(np.arange(1, cutoff + 1)), 1)
    x = a + a.T
    spin_eye = sp.identity(n + 1)
    boson_eye = sp.identity(cutoff + 1)
    h = ef.f1 * sp.kron(num, spin_eye) + ef.f2 * sp.kron(boson_eye, jz)
    h = h + (params.lam / math.sqrt(n)) * sp.kron(x, jp + jp.T)
    if params.xi2 != 0:
        h = h + params.xi2 * delta * sp.kron(x, spin_eye)
    if config.include_chi and params.chi != 0:
        h = h + (params.chi / n) * sp.kron(boson_eye, jz @ jz)
    return h.toarray()


def _fock(params, config, cutoff):
    """Dense Fock-basis Hamiltonian, block diagonal (upper, lower) for FullQubit."""
    if isinstance(config.impurity_mode, FixedDelta):
        return _fock_block(params, config, config.impurity_mode.delta, cutoff)
    shift = 0.5 * params.omega_q_prime * np.eye((cutoff + 1) * (config.n_atoms + 1))
    upper = _fock_block(params, config, 1.0, cutoff) + shift
    lower = _fock_block(params, config, -1.0, cutoff) - shift
    zero = np.zeros_like(upper)
    return np.block([[upper, zero], [zero, lower]])


def _fock_signs(n_atoms, cutoff):
    n_idx, k_idx = np.divmod(np.arange((cutoff + 1) * (n_atoms + 1)), n_atoms + 1)
    return np.where((n_idx + k_idx) % 2 == 0, 1.0, -1.0)


def _lowest_by_sector(h, signs):
    """Lowest eigenvalue of h restricted to each sign, or of h when signs is None."""
    if signs is None:
        return {None: np.linalg.eigvalsh(h)[0]}
    return {s: np.linalg.eigvalsh(h[np.ix_(signs == s, signs == s)])[0] for s in (1.0, -1.0)}


def test_single_atom_hamiltonian_by_hand():
    params = ModelParams(omega=2.0, lam=0.3, kappa=-0.5, n_atoms=1)
    config = EDConfig(n_atoms=1, photon_cutoff=1, impurity_mode=FixedDelta(0.5))
    h = _fock(params, config, 1)
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
    h = _fock(params, config, 3)
    # photon block of xi2 * delta * (a + a^dagger): sqrt(n + 1) ladder
    for n in range(3):
        idx_a = 2 * n      # (n, -1/2)
        idx_b = 2 * (n + 1)
        assert math.isclose(h[idx_a, idx_b], 0.7 * math.sqrt(n + 1.0), rel_tol=1e-14)
        assert h[idx_a, idx_b] == h[idx_b, idx_a]


# --- the displaced basis -----------------------------------------------------


@pytest.mark.parametrize("gamma", [0.0625, -1.3, 4.0, 8.0])
def test_franck_condon_matches_exact_sum(gamma):
    # <n'|D(g)|n> = sqrt(n'! n!) e^(-g^2/2) sum_k g^(n'-k) (-g)^(n-k) / (k! (n'-k)! (n-k)!),
    # with the alternating sum taken in exact rationals
    cutoff = 30
    f = ed._franck_condon(gamma, cutoff)
    fact = math.factorial
    g = Fraction(gamma)
    for row in range(cutoff + 1):
        for col in range(cutoff + 1):
            total = float(sum(
                g ** (row - k) * (-g) ** (col - k) / (fact(k) * fact(row - k) * fact(col - k))
                for k in range(min(row, col) + 1)
            ))
            want = math.sqrt(fact(row) * fact(col)) * math.exp(-gamma * gamma / 2.0) * total
            assert abs(f[row, col] - want) <= 1e-13 * max(1.0, abs(want))


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
        h = build_hamiltonian(params, config, photon_cutoff=8).toarray()
        assert np.max(np.abs(h - h.T)) <= 1e-12
        pi = parity_operator(6, 8).toarray()
        assert np.max(np.abs(pi @ pi - np.eye(len(pi)))) == 0.0
        assert np.max(np.abs(h @ pi - pi @ h)) <= 1e-12


@pytest.mark.parametrize("n_atoms", [5, 6])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sector_isometry_spans_parity_eigenspace(n_atoms, sign):
    iso = ed._sector_isometry(n_atoms, 4, sign).toarray()
    pi = parity_operator(n_atoms, 4).toarray()
    assert np.max(np.abs(iso.T @ iso - np.eye(iso.shape[1]))) <= 1e-15
    assert np.max(np.abs(pi @ iso - sign * iso)) <= 1e-15
    assert iso.shape[1] == np.sum(np.linalg.eigvalsh(pi) * sign > 0)
    # a smaller cutoff's columns are a prefix of a larger one's
    small = ed._sector_isometry(n_atoms, 2, sign).toarray()
    assert np.array_equal(iso[: len(small), : small.shape[1]], small)


def _observable_cases():
    return [
        pytest.param(SMALL, FixedDelta(0.8), id="superradiant"),
        pytest.param(ModelParams(omega=3.0, lam=0.6, kappa=-0.5), FixedDelta(0.2), id="normal"),
        pytest.param(replace(SMALL, xi2=0.4), FixedDelta(-0.6), id="xi2"),
    ]


@pytest.mark.parametrize("params, mode", _observable_cases())
def test_observables_match_fock_sector_state(params, mode):
    n = 8
    config = EDConfig(n_atoms=n, impurity_mode=mode)
    res = ground_state(params, config)
    cutoff = 60
    h = _fock(params, config, cutoff)
    keep = np.ones(len(h), dtype=bool) if res.parity is None else _fock_signs(n, cutoff) == res.parity
    vals, vecs = np.linalg.eigh(h[np.ix_(keep, keep)])
    psi = np.zeros(len(h))
    psi[keep] = vecs[:, 0]
    n_idx, k_idx = np.divmod(np.arange(len(h)), n + 1)
    assert abs(res.energy_per_atom * n - vals[0]) <= 1e-10 * max(1.0, abs(vals[0]))
    assert abs(res.jz_over_n - np.sum((k_idx - n / 2.0) * psi**2) / n) <= 1e-9
    assert abs(res.photons_over_n - np.sum(n_idx * psi**2) / n) <= 1e-9


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


# generous truncations: the Fock oracle's and the displaced basis's energies
# are converged to roundoff at every oracle case
FOCK_CUTOFF = 60
ECS_CUTOFF = 24


@pytest.mark.parametrize("params, config", _dense_oracle_cases())
def test_displaced_sectors_match_fock_oracle(params, config):
    n = config.n_atoms
    fock = _fock(params, config, FOCK_CUTOFF)
    ecs = build_hamiltonian(params, config, photon_cutoff=ECS_CUTOFF).toarray()
    parity = isinstance(config.impurity_mode, FixedDelta) and params.xi2 == 0
    fock_signs = _fock_signs(n, FOCK_CUTOFF) if parity else None
    for block in (0,) if isinstance(config.impurity_mode, FixedDelta) else (0, 1):
        fock_size = (FOCK_CUTOFF + 1) * (n + 1)
        ecs_size = (ECS_CUTOFF + 1) * (n + 1)
        want = _lowest_by_sector(
            fock[block * fock_size:(block + 1) * fock_size, block * fock_size:(block + 1) * fock_size],
            fock_signs,
        )
        sub = ecs[block * ecs_size:(block + 1) * ecs_size, block * ecs_size:(block + 1) * ecs_size]
        for sign, energy in want.items():
            if sign is not None:
                iso = ed._sector_isometry(n, ECS_CUTOFF, sign).toarray()
                got = np.linalg.eigvalsh(iso.T @ sub @ iso)[0]
            else:
                got = np.linalg.eigvalsh(sub)[0]
            assert abs(got - energy) <= 1e-10 * max(1.0, abs(energy)), (block, sign)


@pytest.mark.parametrize("params, config", _dense_oracle_cases())
def test_sector_solve_matches_dense_oracle(params, config):
    res = ground_state(params, replace(config, photon_cutoff=ECS_CUTOFF))
    fock = _fock(params, config, FOCK_CUTOFF)
    energy = res.energy_per_atom * config.n_atoms
    want = np.linalg.eigvalsh(fock)[0]
    assert abs(energy - want) <= 1e-10 * max(1.0, abs(want))
    if isinstance(config.impurity_mode, FullQubit) or params.xi2 != 0:
        assert res.parity is None and res.sector_gap is None
        return
    sector = _lowest_by_sector(fock, _fock_signs(config.n_atoms, FOCK_CUTOFF))
    assert abs(res.sector_gap - (sector[-1.0] - sector[1.0])) <= 1e-10 * max(1.0, abs(want))
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
    assert res.sector_gap is None


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
    # one displaced level cannot hold the squeezed fluctuations at this
    # superradiant point: the check fails and the cutoff doubles until it passes
    config = EDConfig(n_atoms=32, photon_cutoff=1, impurity_mode=FixedDelta(0.8))
    res = ground_state(SMALL, config)
    assert res.cutoff_raises >= 1
    assert res.photon_cutoff == 2**res.cutoff_raises
    assert res.converged
    assert res.cutoff_shift <= 1e-8 * max(1.0, abs(res.energy_per_atom))


def test_raising_stops_at_dimension_cap():
    # from cutoff 1 this point needs three raises, to cutoff 8; with
    # (cutoff + 1) * 33 states, cutoffs 1, 2 and 4 fit under 200 but the
    # enlargement to 8 does not, so the run stops unconverged at cutoff 4
    config = EDConfig(n_atoms=32, photon_cutoff=1, impurity_mode=FixedDelta(0.0))
    assert ground_state(CRITICAL, config).cutoff_raises == 3
    res = ground_state(CRITICAL, replace(config, dimension_cap=200))
    assert res.photon_cutoff == 4
    assert res.cutoff_raises == 2
    assert not res.converged
    # the reported energy is the sector's lowest at the final cutoff
    h = build_hamiltonian(CRITICAL, config, photon_cutoff=4)
    iso = ed._sector_isometry(32, 4, res.parity)
    want = np.linalg.eigvalsh((iso.T @ h @ iso).toarray())[0]
    assert abs(res.energy_per_atom * 32 - want) <= 1e-12


def test_critical_point_converges():
    # nu = 1: the mean field predicts no photons, yet the fluctuations grow
    # like N^(1/3); a Fock cutoff sized from the mean field stayed at its
    # floor and left a shift of 1e-6 here
    res = ground_state(CRITICAL, EDConfig(n_atoms=256, impurity_mode=FixedDelta(0.0)))
    assert res.converged
    assert res.cutoff_shift <= 1e-8 * max(1.0, abs(res.energy_per_atom))
    assert res.cutoff_raises == 0
    assert res.parity == 1.0 and res.sector_gap > 0


def test_deterministic_repeat():
    config = EDConfig(n_atoms=12, photon_cutoff=6, impurity_mode=FixedDelta(0.7))
    a = ground_state(SMALL, config)
    b = ground_state(SMALL, config)
    assert a == b


def test_full_qubit_selects_lower_branch():
    params = ModelParams(omega=4.0, lam=1.0, kappa=-0.5, omega_q_prime=3.0, n_atoms=6)
    # a common generous cutoff keeps the three truncations identical
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
