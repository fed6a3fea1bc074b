"""Finite-size exact diagonalization.

Checked here:
  * the Fock-basis oracle: a hand-built 4x4 Hamiltonian for N = 1, cutoff 1,
    and the photon ladder of the drive term
  * the Franck-Condon matrix against its exact finite sum; its Gauss-Hermite
    rule integrates psi_m psi_n to delta_mn within 1e-14 at cutoffs 1 ... 369
    (F(0) is that sum), entries near (369, 369) match the Laguerre closed form
    for gamma from 0.05 to 20, and cutoff 370, where an outermost weight
    falls below the normal float range, is refused
  * the matrix-free Hamiltonian against its own dense matrix (each block's
    product and the nonzero count), and the half-chain sector: scatter is an
    isometry onto each parity eigenspace on the existing coordinates, gather
    is its transpose and reads 0 on missing middle levels, and smaller
    cutoffs are prefixes
  * the thick-restart Lanczos solve against numpy.linalg.eigvalsh of every
    dense sector on random small cases (energy, and the residual on the
    existing coordinates; missing middle levels stay exactly 0); its energy is
    good to 1e-13 * |E| where ||H|| is thousands of times |E|; and an
    exhausted restart budget raises ConvergenceFailureError
  * a Hamiltonian whose norm bound squares past the float range is refused
    (lambda = 1e77), and one just inside it (1e76) solves to the mean-field
    E/N = -lambda^2/f1 without a numpy warning
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
  * the basis-size cap raises DimensionTooLargeError, and EDConfig refuses
    a zero atom number, cutoff or cap, a non-integral or boolean one
    (numpy integers pass) and an impurity mode that is neither FixedDelta nor
    FullQubit; finite_size_scan refuses a bad atom number anywhere in its
    list, and an empty list, before the first solve
  * `iddm ed --full-qubit --chi 0.3` includes the chi Jz^2 / N term: its
    energy is the Fock oracle's lowest eigenvalue with chi
  * the sector solve against the dense Fock oracle: the energy is the lowest
    eigenvalue of the full matrix, and parity is the sign of the Fock sector
    that holds it; parity is exactly +-1 in the near-degenerate superradiant
    phase
  * sector energies within 1e-12 * max(1, |E|) tie, and a tie goes to Pi = +1
  * the warm-started truncation check starts from the zero-padded base
    vector and equals a cold solve of the same sector
"""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iddm.ed as ed
from iddm import (
    ConvergenceFailureError,
    DimensionTooLargeError,
    EDConfig,
    FixedDelta,
    FullQubit,
    InvalidParameterError,
    ModelParams,
    build_hamiltonian,
    effective_frequencies,
    equilibrium_closed_form,
    finite_size_scan,
    ground_state,
)
from iddm.cli import main

FIG2 = ModelParams(omega=400.0, lam=5.0, kappa=-0.5)
SMALL = ModelParams(omega=4.0, lam=2.0, kappa=-0.5)
CRITICAL = ModelParams(omega=1.0, lam=math.sqrt(0.5) / 2.0, kappa=-0.5)  # nu = 1 at delta = 0


# --- the Fock-basis oracle ---------------------------------------------------
# |n> (photon number up to the cutoff) tensor |j = N/2, m> on the Jz basis,
# index n * (N + 1) + (m + N/2); parity is (-1)^(n + m + N/2).


def _fock_block(params, config, delta, cutoff):
    n = config.n_atoms
    f1, f2 = effective_frequencies(params, delta)
    j = n / 2.0
    m = -j + np.arange(n + 1)
    jz = np.diag(m)
    jp = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1.0)), -1)
    num = np.diag(np.arange(cutoff + 1, dtype=float))
    a = np.diag(np.sqrt(np.arange(1, cutoff + 1)), 1)
    x = a + a.T
    spin_eye = np.eye(n + 1)
    boson_eye = np.eye(cutoff + 1)
    h = f1 * np.kron(num, spin_eye) + f2 * np.kron(boson_eye, jz)
    h = h + (params.lam / math.sqrt(n)) * np.kron(x, jp + jp.T)
    if params.xi2 != 0:
        h = h + params.xi2 * delta * np.kron(x, spin_eye)
    if params.chi != 0:
        h = h + (params.chi / n) * np.kron(boson_eye, jz @ jz)
    return h


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


def _parity(n_atoms, cutoff):
    """Parity (-1)^n |n, N-k><n, k| on the FixedDelta displaced basis (xi2 = 0), dense."""
    return np.kron(np.diag((-1.0) ** np.arange(cutoff + 1)), np.eye(n_atoms + 1)[::-1])


def _sector(n_atoms, cutoff, sign):
    """The Pi = sign sector (the whole block for None) of a FixedDelta block."""
    return ed._Sector(ed.Hamiltonian(n_atoms, cutoff, []), 0, sign)


def _sector_columns(n_atoms, cutoff, sign):
    """The block vectors that scatter makes of the sector's unit vectors, one
    column per coordinate; a missing middle level's column is 0."""
    sector = _sector(n_atoms, cutoff, sign)
    return np.column_stack([sector.scatter(e).ravel() for e in np.eye(sector.shape[0])])


def _isometry(n_atoms, cutoff, sign):
    """The sector's isometry P as a dense matrix, one column per existing coordinate."""
    columns = _sector_columns(n_atoms, cutoff, sign)
    return columns[:, columns.any(axis=0)]


def _lowest_by_sector(h, signs):
    """Lowest eigenvalue of h restricted to each sign, or of h when signs is None."""
    if signs is None:
        return {None: np.linalg.eigvalsh(h)[0]}
    return {s: np.linalg.eigvalsh(h[np.ix_(signs == s, signs == s)])[0] for s in (1.0, -1.0)}


def test_single_atom_hamiltonian_by_hand():
    params = ModelParams(omega=2.0, lam=0.3, kappa=-0.5)
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
    params = ModelParams(omega=2.0, lam=0.0, kappa=0.0, xi2=0.7)
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


def test_gauss_hermite_rule_to_the_last_accepted_cutoff():
    # F(0) is the rule's sum of w psi_m psi_n, so orthonormality reads F(0) = 1
    for cutoff in (1, 8, 40, 200, 369):
        assert np.max(np.abs(ed._franck_condon(0.0, cutoff) - np.eye(cutoff + 1))) <= 1e-14, cutoff
    # <m|D(g)|n> = sqrt(n!/m!) g^(m-n) e^(-g^2/2) L_n^(m-n)(g^2) for m >= n, and F(g)^T = F(-g)
    with mpmath.workdps(40):
        for gamma in (0.05, 2.0, 20.0):
            f = ed._franck_condon(gamma, 369)
            g = mpmath.mpf(gamma)
            for row, col in [(369, 369), (369, 366), (366, 369), (368, 360)]:
                m, n = max(row, col), min(row, col)
                want = (
                    mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m)) * (g if row >= col else -g) ** (m - n)
                    * mpmath.exp(-g * g / 2) * mpmath.laguerre(n, m - n, g * g)
                )
                assert abs(f[row, col] - float(want)) <= 5e-14, (gamma, row, col)
    with pytest.raises(InvalidParameterError, match="Gauss-Hermite"):
        ed._franck_condon(2.0, 370)


def test_decoupled_ground_energy_exact():
    params = ModelParams(omega=3.0, lam=0.0, kappa=-0.5)
    config = EDConfig(n_atoms=6, photon_cutoff=2, impurity_mode=FixedDelta(0.4))
    res = ground_state(params, config)
    f2 = 1.0 - 0.5 * 1.4
    assert math.isclose(res.energy_per_atom, -f2 / 2.0, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(res.jz_over_n, -0.5, rel_tol=0, abs_tol=1e-12)
    assert res.photons_over_n <= 1e-12


def test_displaced_oscillator_energy():
    # lam = 0 with a linear drive: exact energy -f2/2 - xi2^2 delta^2 / (f1 N)
    params = ModelParams(omega=2.5, lam=0.0, kappa=-0.5, xi2=0.8)
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
    for chi in (0.0, 0.4):
        params = ModelParams(
            omega=rng.uniform(1.0, 10.0),
            lam=rng.uniform(0.0, 3.0),
            kappa=rng.uniform(-1.0, 1.0),
            chi=chi,
        )
        config = EDConfig(n_atoms=6, photon_cutoff=8, impurity_mode=FixedDelta(0.3))
        h = build_hamiltonian(params, config, photon_cutoff=8).toarray()
        assert np.max(np.abs(h - h.T)) <= 1e-12
        pi = _parity(6, 8)
        assert np.max(np.abs(pi @ pi - np.eye(len(pi)))) == 0.0
        assert np.max(np.abs(h @ pi - pi @ h)) <= 1e-12


@pytest.mark.parametrize("n_atoms", [5, 6])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sector_isometry_spans_parity_eigenspace(n_atoms, sign):
    # the half-chain sector: scatter is an isometry P onto the Pi = sign
    # eigenspace on the existing coordinates, and gather is its transpose
    iso = _isometry(n_atoms, 4, sign)
    pi = _parity(n_atoms, 4)
    assert np.max(np.abs(iso.T @ iso - np.eye(iso.shape[1]))) <= 1e-15
    assert np.max(np.abs(pi @ iso - sign * iso)) <= 1e-15
    assert iso.shape[1] == np.sum(np.linalg.eigvalsh(pi) * sign > 0)
    exists = _sector_columns(n_atoms, 4, sign).any(axis=0)
    block = np.random.default_rng(3).standard_normal(len(iso))
    gathered = _sector(n_atoms, 4, sign).gather(block)
    assert np.max(np.abs(gathered[exists] - iso.T @ block)) <= 1e-15
    assert not gathered[~exists].any()  # missing middle levels read exactly 0
    # a smaller cutoff's columns are a prefix of a larger one's
    small = _isometry(n_atoms, 2, sign)
    assert np.array_equal(iso[: len(small), : small.shape[1]], small)


def test_operator_matches_its_dense_matrix():
    rng = np.random.default_rng(9)
    for n_atoms, mode, chi in [
        (5, FixedDelta(0.3), 0.0), (6, FixedDelta(-0.7), 0.3), (4, FullQubit(), 0.3),
    ]:
        params = ModelParams(
            omega=rng.uniform(1.0, 6.0), lam=rng.uniform(0.2, 2.0), kappa=rng.uniform(-1.0, 1.0),
            chi=chi, xi2=0.4 if isinstance(mode, FullQubit) else 0.0, omega_q_prime=0.6,
        )
        config = EDConfig(n_atoms=n_atoms, impurity_mode=mode)
        h = build_hamiltonian(params, config, photon_cutoff=5)
        dense = h.toarray()
        size = h.block_size
        for b in range(len(h.blocks)):
            block = dense[b * size:(b + 1) * size, b * size:(b + 1) * size]
            x = rng.standard_normal(size)
            assert np.max(np.abs(h.apply_block(b, x) - block @ x)) <= 1e-12 * np.max(np.abs(dense))
        assert h.nnz == np.count_nonzero(dense)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_atoms=st.integers(1, 12),
    cutoff=st.integers(1, 12),
    variant=st.sampled_from(["plain", "chi", "xi2", "qubit", "qubit_chi_xi2"]),
    omega=st.floats(1.0, 6.0),
    lam=st.floats(0.1, 2.0),
    kappa=st.floats(-1.5, 1.0),
    delta=st.floats(-1.0, 1.0),
    coupling=st.floats(0.1, 1.0),
)
def test_lowest_state_matches_dense_sector(n_atoms, cutoff, variant, omega, lam, kappa, delta, coupling):
    params = ModelParams(
        omega=omega, lam=lam, kappa=kappa, omega_q_prime=coupling,
        chi=-coupling if "chi" in variant else 0.0,
        xi2=coupling if "xi2" in variant else 0.0,
    )
    mode = FullQubit() if variant.startswith("qubit") else FixedDelta(delta)
    config = EDConfig(n_atoms=n_atoms, impurity_mode=mode)
    h = build_hamiltonian(params, config, photon_cutoff=cutoff)
    dense, size = h.toarray(), h.block_size
    for block in range(len(h.blocks)):
        sub = dense[block * size:(block + 1) * size, block * size:(block + 1) * size]
        for sign in (1.0, -1.0) if params.xi2 == 0 else (None,):
            columns = _sector_columns(n_atoms, cutoff, sign)
            exists = columns.any(axis=0)
            iso = columns[:, exists]
            sector = iso.T @ sub @ iso
            eig = np.linalg.eigvalsh(sector)
            energy, psi = ed._lowest_state(ed._Sector(h, block, sign))
            assert abs(energy - eig[0]) <= 1e-12 * max(1.0, abs(eig[0])), (block, sign)
            assert not psi[~exists].any()
            psi = psi[exists]
            assert np.linalg.norm(sector @ psi - energy * psi) <= 1e-10 * np.max(np.abs(eig))


@pytest.mark.parametrize("omega, n_atoms, cutoff", [(400.0, 32, 12), (1000.0, 12, 10)])
def test_energy_resolution_is_relative_to_the_energy(omega, n_atoms, cutoff):
    # lam = 0: the sectors' lowest energies are exactly -f2 N/2 (Pi = +1) and
    # -f2 N/2 + f2 (Pi = -1), while ||H|| ~ f1 cutoff is thousands of times
    # larger; the tie rule needs the energy to 1e-12 * max(1, |E|)
    params = ModelParams(omega=omega, lam=0.0, kappa=-0.5)
    h = build_hamiltonian(params, EDConfig(n_atoms=n_atoms, impurity_mode=FixedDelta(0.4)),
                          photon_cutoff=cutoff)
    f2 = 1.0 - 0.5 * 1.4
    for sign, want in ((1.0, -f2 * n_atoms / 2.0), (-1.0, -f2 * n_atoms / 2.0 + f2)):
        energy, _ = ed._lowest_state(ed._Sector(h, 0, sign))
        assert abs(energy - want) <= 1e-13 * abs(want), sign


def test_norm_bound_whose_square_overflows_is_refused():
    # the solver's vector norms square ||H v||: at lambda = 1e77 that overflowed, and the
    # run reported E/N = -0.0861 lambda^2 as converged where mean field gives -lambda^2/4
    config = EDConfig(n_atoms=64, impurity_mode=FixedDelta(0.8))
    with pytest.raises(InvalidParameterError, match="^the Hamiltonian's norm bound .* overflows when squared$"):
        ground_state(ModelParams(omega=4.0, lam=1e77, kappa=-0.5), config)
    result = ground_state(ModelParams(omega=4.0, lam=1e76, kappa=-0.5), config)
    assert result.converged
    assert math.isclose(result.energy_per_atom, -0.25 * 1e76**2, rel_tol=1e-12)


def test_exhausted_restart_budget_raises():
    # this critical sector (dimension 293) needs more than two restarts of
    # the 20-vector basis
    h = build_hamiltonian(CRITICAL, EDConfig(n_atoms=64, impurity_mode=FixedDelta(0.0)))
    sector = ed._Sector(h, 0, 1.0)
    with pytest.raises(ConvergenceFailureError):
        ed._lowest_state(sector, max_restarts=2)
    energy, _ = ed._lowest_state(sector)
    iso = _isometry(64, 8, 1.0)
    want = np.linalg.eigvalsh(iso.T @ h.toarray() @ iso)[0]
    assert abs(energy - want) <= 1e-12 * abs(want)


def _observable_cases():
    return [
        pytest.param(SMALL, FixedDelta(0.8), id="superradiant"),
        pytest.param(ModelParams(omega=3.0, lam=0.6, kappa=-0.5), FixedDelta(0.2), id="normal"),
        pytest.param(SMALL._replace(xi2=0.4), FixedDelta(-0.6), id="xi2"),
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

    def shifted(h, v0=None):
        energy, psi = solve(h, v0)
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
        )
        if variant == "f2_negative":
            kwargs["kappa"] = rng.uniform(-2.0, -1.2)  # f2 < 0 at delta >= 0
        if variant == "chi":
            kwargs["chi"] = rng.uniform(-0.5, 0.5)
        if variant in ("xi2", "qubit_xi2"):
            kwargs["xi2"] = rng.uniform(0.1, 1.0)
        mode = FullQubit() if variant.startswith("qubit") else FixedDelta(rng.uniform(0.0, 1.0))
        config = EDConfig(n_atoms=n, impurity_mode=mode)
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
                iso = _isometry(n, ECS_CUTOFF, sign)
                got = np.linalg.eigvalsh(iso.T @ sub @ iso)[0]
            else:
                got = np.linalg.eigvalsh(sub)[0]
            assert abs(got - energy) <= 1e-10 * max(1.0, abs(energy)), (block, sign)


@pytest.mark.parametrize("params, config", _dense_oracle_cases())
def test_sector_solve_matches_dense_oracle(params, config):
    res = ground_state(params, config._replace(photon_cutoff=ECS_CUTOFF))
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

    def spy(h, v0=None):
        energy, psi = solve(h, v0)
        calls.append((h, v0, energy, psi))
        return energy, psi

    monkeypatch.setattr(ed, "_lowest_state", spy)
    params = SMALL._replace(omega_q_prime=0.05)
    ground_state(params, EDConfig(n_atoms=n_atoms, impurity_mode=mode))
    assert all(v0 is None for _, v0, _, _ in calls[:-1])
    h2, start, warm, _ = calls[-1]
    # the start is a base-cutoff vector padded with zeros
    assert any(
        np.array_equal(start[: len(psi)], psi) and not start[len(psi):].any()
        for _, _, _, psi in calls[:-1]
    )
    cold, _ = solve(h2)
    assert abs(warm - cold) / n_atoms <= 1e-12


def test_parity_not_reported_with_drive():
    params = FIG2._replace(xi2=0.5)
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
    assert all(e.converged for e in entries)


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
    res = ground_state(CRITICAL, config._replace(dimension_cap=200))
    assert res.photon_cutoff == 4
    assert res.cutoff_raises == 2
    assert not res.converged
    # the reported energy is the sector's lowest at the final cutoff
    h = build_hamiltonian(CRITICAL, config, photon_cutoff=4).toarray()
    iso = _isometry(32, 4, res.parity)
    want = np.linalg.eigvalsh(iso.T @ h @ iso)[0]
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
    params = ModelParams(omega=4.0, lam=1.0, kappa=-0.5, omega_q_prime=3.0)
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


def test_config_refuses_bad_sizes():
    for kwargs in ({"n_atoms": 0}, {"n_atoms": 4, "photon_cutoff": 0}, {"n_atoms": 4, "dimension_cap": 0}):
        with pytest.raises(InvalidParameterError):
            EDConfig(**kwargs)
    for field, value in [("n_atoms", 8.5), ("n_atoms", 8.0), ("n_atoms", True),
                         ("n_atoms", np.float64(6)), ("photon_cutoff", 2.5), ("photon_cutoff", True),
                         ("dimension_cap", 1e6), ("dimension_cap", True)]:
        with pytest.raises(InvalidParameterError, match=f"{field} must be an integer"):
            EDConfig(**{"n_atoms": 4, field: value})


@pytest.mark.parametrize("mode", [0.5, None, "full", (0.5,)])
def test_config_refuses_unknown_impurity_mode(mode):
    # 0.5 used to run a FullQubit ground state; (0.5,) is a tuple, not a FixedDelta
    with pytest.raises(InvalidParameterError, match="impurity_mode must be FixedDelta or FullQubit"):
        EDConfig(n_atoms=4, impurity_mode=mode)


def test_config_accepts_numpy_integers():
    config = EDConfig(n_atoms=np.int64(4), photon_cutoff=np.int32(2), dimension_cap=np.uint32(500))
    assert ground_state(SMALL, config).n_atoms == 4


def test_numpy_integer_config_gives_a_json_record():
    """The record holds Python ints, so the line `iddm ed` prints for it is valid."""
    record = ground_state(SMALL, EDConfig(n_atoms=np.int64(4), photon_cutoff=np.int32(2)))
    reference = ground_state(SMALL, EDConfig(n_atoms=4, photon_cutoff=2))
    assert record == reference
    assert json.dumps(record._asdict()) == json.dumps(reference._asdict())


def test_finite_size_scan_refuses_before_solving(monkeypatch):
    calls = []
    monkeypatch.setattr(ed, "ground_state", lambda *args: calls.append(args))
    for n_list in ([8, 0], [8.7], [8, True]):
        with pytest.raises(InvalidParameterError):
            finite_size_scan(SMALL, 0.8, n_list)
    with pytest.raises(InvalidParameterError, match="n_list must not be empty"):
        finite_size_scan(SMALL, 0.5, [])
    assert calls == []


def test_cli_full_qubit_includes_chi(capsys):
    # the chi Jz^2 / N term follows --chi alone; the Fock oracle carries it
    argv = ["ed", "--full-qubit", "--chi", "0.3", "--omega", "4", "--lambda", "1",
            "--omega-q-prime", "2", "--n", "4"]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    params = ModelParams(omega=4.0, lam=1.0, kappa=-0.5, chi=0.3, omega_q_prime=2.0)
    config = EDConfig(n_atoms=4, impurity_mode=FullQubit())
    want, without_chi = (np.linalg.eigvalsh(_fock(p, config, FOCK_CUTOFF))[0]
                         for p in (params, params._replace(chi=0.0)))
    assert abs(record["energy_per_atom"] * 4 - want) <= 1e-10 * max(1.0, abs(want))
    assert abs(want - without_chi) > 1e-3  # the term shifts the energy visibly at this size
