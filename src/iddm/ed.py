"""Sparse exact diagonalization of the impurity-doped Dicke Hamiltonian at finite N.

The basis is |n> (Fock states up to a photon cutoff) tensor the maximal
collective-spin multiplet |j = N/2, m>, ordered as

    index = n * (N + 1) + (m + N/2).

Two impurity treatments are supported: FixedDelta freezes the impurity to a
classical population delta (the mode used to validate the mean-field limit;
the constant impurity splitting term is dropped), and FullQubit keeps the
impurity as a two-level system.  sigma_z commutes with the Hamiltonian, so
the FullQubit matrix is block diagonal over the impurity states, ordered
(upper, lower) = (sigma_z = +1, -1).

Ground states are found sector by sector.  With xi2 = 0 the parity
Pi = (-1)^(n + m + N/2) commutes with H, so each sigma_z block splits into
Pi = +1 and Pi = -1; with xi2 != 0 each block is one sector.  Every sector
is solved by an iterative extremal eigensolver from the uniform start vector
and the lowest is kept.  Sectors whose energies agree within
1e-12 * max(1, |E|), the solver's resolution, count as tied, and a tie goes
to the first in the fixed order (upper block, then Pi = +1), so the reported
sector never flips with roundoff.  The truncation check re-solves only that
sector at an enlarged photon cutoff, starting from the base vector padded
with zeros: in the index order below a sector's base-cutoff states are a
prefix of its enlarged-cutoff states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import (
    ConvergenceFailureError,
    DimensionTooLargeError,
    IDDMError,
    InvalidParameterError,
)
from .meanfield import equilibrium_closed_form
from .model import ModelParams, check_population, effective_frequencies

__all__ = [
    "FixedDelta",
    "FullQubit",
    "EDConfig",
    "EDResult",
    "FiniteSizeEntry",
    "recommended_photon_cutoff",
    "effective_photon_cutoff",
    "build_hamiltonian",
    "parity_operator",
    "ground_state",
    "finite_size_scan",
]


@dataclass(frozen=True)
class FixedDelta:
    """Impurity frozen to a classical population delta in [-1, 1]."""

    delta: float

    def __post_init__(self):
        check_population(self.delta)


@dataclass(frozen=True)
class FullQubit:
    """Impurity kept as a dynamical two-level system."""


@dataclass(frozen=True)
class EDConfig:
    """Settings for one diagonalization run.

    photon_cutoff is a floor, not the final truncation: the effective cutoff
    is raised automatically to cover the mean-field photon prediction (see
    recommended_photon_cutoff).  convergence_factor sets the enlarged cutoff
    used to measure truncation error.  solver_tolerance = 0 means machine
    precision.  Both must be finite.
    """

    n_atoms: int
    photon_cutoff: int = 1
    impurity_mode: FixedDelta | FullQubit = FixedDelta(0.0)
    include_chi: bool = False
    convergence_factor: float = 2.0
    solver_tolerance: float = 0.0
    dimension_cap: int = 1_000_000

    def __post_init__(self):
        if self.n_atoms < 1:
            raise InvalidParameterError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.photon_cutoff < 1:
            raise InvalidParameterError(f"photon_cutoff must be >= 1, got {self.photon_cutoff}")
        for name in ("convergence_factor", "solver_tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.convergence_factor > 1:
            raise InvalidParameterError("convergence_factor must exceed 1")
        if self.solver_tolerance < 0:
            raise InvalidParameterError("solver_tolerance must be >= 0")
        if self.dimension_cap < 1:
            raise InvalidParameterError("dimension_cap must be >= 1")


@dataclass(frozen=True)
class EDResult:
    """Ground-state data at the base cutoff plus the cutoff-doubling shift."""

    energy_per_atom: float
    jz_over_n: float
    photons_over_n: float
    parity: float | None
    converged: bool
    photon_cutoff: int
    cutoff_shift: float


@dataclass(frozen=True)
class FiniteSizeEntry:
    n_atoms: int
    result: EDResult
    mean_field_deviation: float


def _predicted_photons(params: ModelParams, delta: float, n_atoms: int) -> float:
    """Mean-field photon number N alpha^2, or 0 when the closed form refuses."""
    try:
        sol = equilibrium_closed_form(replace(params, chi=0.0), delta)
    except IDDMError:
        return 0.0
    return n_atoms * sol.alpha2


def recommended_photon_cutoff(params: ModelParams, config: EDConfig) -> int:
    """Cutoff covering the predicted photon occupation with a six-sigma margin."""
    if isinstance(config.impurity_mode, FixedDelta):
        deltas = [config.impurity_mode.delta]
    else:
        deltas = [1.0, -1.0]
    n_pred = max(_predicted_photons(params, d, config.n_atoms) for d in deltas)
    return int(math.ceil(n_pred + 6.0 * math.sqrt(n_pred))) + 10


def effective_photon_cutoff(params: ModelParams, config: EDConfig) -> int:
    return max(config.photon_cutoff, recommended_photon_cutoff(params, config))


def _spin_operators(n_atoms: int):
    j = n_atoms / 2.0
    m = -j + np.arange(n_atoms + 1)
    jz = sp.diags(m)
    raising = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1.0))
    jp = sp.diags(raising, -1)  # J+ |m> lands one index higher
    return jz, jp


def _check_dimension(dim: int, cap: int):
    if dim > cap:
        raise DimensionTooLargeError(f"Hilbert-space dimension {dim} exceeds cap {cap}")


def _fixed_delta_matrix(
    params: ModelParams, config: EDConfig, delta: float, cutoff: int
) -> sp.csr_matrix:
    n = config.n_atoms
    ef = effective_frequencies(params, delta)
    jz, jp = _spin_operators(n)
    jpm = jp + jp.T
    num = sp.diags(np.arange(cutoff + 1, dtype=float))
    a = sp.diags(np.sqrt(np.arange(1, cutoff + 1)), 1)
    x = a + a.T
    spin_eye = sp.identity(n + 1)
    boson_eye = sp.identity(cutoff + 1)

    h = ef.f1 * sp.kron(num, spin_eye) + ef.f2 * sp.kron(boson_eye, jz)
    h = h + (params.lam / math.sqrt(n)) * sp.kron(x, jpm)
    if params.xi2 != 0:
        h = h + params.xi2 * delta * sp.kron(x, spin_eye)
    if config.include_chi and params.chi != 0:
        h = h + (params.chi / n) * sp.kron(boson_eye, jz @ jz)
    return sp.csr_matrix(h)


def build_hamiltonian(
    params: ModelParams, config: EDConfig, photon_cutoff: int | None = None
) -> sp.csr_matrix:
    """Assemble the sparse Hamiltonian at the effective (or given) photon cutoff."""
    cutoff = effective_photon_cutoff(params, config) if photon_cutoff is None else photon_cutoff
    block = (cutoff + 1) * (config.n_atoms + 1)
    if isinstance(config.impurity_mode, FixedDelta):
        _check_dimension(block, config.dimension_cap)
        return _fixed_delta_matrix(params, config, config.impurity_mode.delta, cutoff)
    _check_dimension(2 * block, config.dimension_cap)
    shift = 0.5 * params.omega_q_prime * sp.identity(block)
    upper = _fixed_delta_matrix(params, config, 1.0, cutoff) + shift
    lower = _fixed_delta_matrix(params, config, -1.0, cutoff) - shift
    return sp.csr_matrix(sp.block_diag((upper, lower)))


def _parity_signs(n_atoms: int, cutoff: int) -> np.ndarray:
    n_idx = np.repeat(np.arange(cutoff + 1), n_atoms + 1)
    k_idx = np.tile(np.arange(n_atoms + 1), cutoff + 1)
    return np.where((n_idx + k_idx) % 2 == 0, 1.0, -1.0)


def parity_operator(n_atoms: int, photon_cutoff: int) -> sp.csr_matrix:
    """Diagonal parity (-1)^(n + m + N/2) on the FixedDelta basis."""
    return sp.csr_matrix(sp.diags(_parity_signs(n_atoms, photon_cutoff)))


def _lowest_state(
    h: sp.csr_matrix, tol: float, v0: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    if v0 is None:
        v0 = np.full(h.shape[0], 1.0 / math.sqrt(h.shape[0]))
    try:
        vals, vecs = eigsh(h, k=1, which="SA", v0=v0, tol=tol)
    except ArpackNoConvergence as exc:
        raise ConvergenceFailureError(f"eigensolver did not converge: {exc}") from exc
    return float(vals[0]), vecs[:, 0]


def _sector(n_atoms: int, cutoff: int, block: int, sign: float | None) -> np.ndarray:
    """Basis indices of one sigma_z block, restricted to parity sign unless None."""
    size = (cutoff + 1) * (n_atoms + 1)
    local = np.arange(size)
    if sign is not None:
        local = local[_parity_signs(n_atoms, cutoff) == sign]
    return block * size + local


def ground_state(params: ModelParams, config: EDConfig) -> EDResult:
    """Ground-state energy and observables, with the truncation error measured.

    The ground state is the lowest of the symmetry sectors (see the module
    docstring), and parity is that sector's sign, exactly +1.0 or -1.0; it is
    None in FullQubit mode and when xi2 != 0.  The winning sector's energy is
    re-computed at ceil(convergence_factor * cutoff); converged means the
    per-atom energy moved by at most 1e-8 * max(1, |E/N|).  Reported
    observables always come from the base-cutoff state.
    """
    n = config.n_atoms
    tol = config.solver_tolerance
    base = effective_photon_cutoff(params, config)
    h = build_hamiltonian(params, config, photon_cutoff=base)
    fixed = isinstance(config.impurity_mode, FixedDelta)
    solves = []
    for block in (0,) if fixed else (0, 1):
        for sign in (1.0, -1.0) if params.xi2 == 0 else (None,):
            idx = _sector(n, base, block, sign)
            solves.append((*_lowest_state(h[idx][:, idx], tol), block, sign))
    lowest = min(s[0] for s in solves)
    energy, psi, block, sign = next(
        s for s in solves if s[0] <= lowest + 1e-12 * max(1.0, abs(lowest))
    )

    larger = max(base + 1, int(math.ceil(config.convergence_factor * base)))
    h2 = build_hamiltonian(params, config, photon_cutoff=larger)
    idx2 = _sector(n, larger, block, sign)
    warm = np.zeros(len(idx2))
    warm[: len(psi)] = psi
    energy2, _ = _lowest_state(h2[idx2][:, idx2], tol, warm)

    e_atom = energy / n
    shift = abs(energy2 / n - e_atom)
    converged = shift <= 1e-8 * max(1.0, abs(e_atom))

    local = _sector(n, base, 0, sign)
    weights = psi * psi
    jz_over_n = float(np.sum((local % (n + 1) - n / 2.0) * weights)) / n
    photons_over_n = float(np.sum((local // (n + 1)) * weights)) / n
    return EDResult(
        energy_per_atom=e_atom,
        jz_over_n=jz_over_n,
        photons_over_n=photons_over_n,
        parity=sign if fixed else None,
        converged=converged,
        photon_cutoff=base,
        cutoff_shift=shift,
    )


def finite_size_scan(
    params: ModelParams,
    delta: float,
    n_list,
    config: EDConfig | None = None,
) -> list[FiniteSizeEntry]:
    """Ground states at a sequence of atom numbers against the mean-field limit.

    The reference value is E0(delta) - f2/2 per atom (the -f2/2 comes from the
    spin operators being measured from the equator at finite N).  config acts
    as a template; n_atoms and the impurity mode are overridden per entry.

    Degenerate point: when f2 = omega0 + kappa*(1 + delta) = 0 the atomic term
    drops out, Jx commutes with H and E/N equals the mean-field value at every
    N.  There the deviation measures only truncation and roundoff, not
    finite-size drift.
    """
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise InvalidParameterError("n_list must not be empty")
    template = config if config is not None else EDConfig(n_atoms=n_list[0])
    sol = equilibrium_closed_form(params, delta)
    ef = effective_frequencies(params, delta)
    target = sol.e0 - ef.f2 / 2.0

    entries = []
    for n in n_list:
        cfg = replace(template, n_atoms=n, impurity_mode=FixedDelta(delta))
        result = ground_state(params, cfg)
        entries.append(
            FiniteSizeEntry(
                n_atoms=n,
                result=result,
                mean_field_deviation=abs(result.energy_per_atom - target),
            )
        )
    return entries
