"""Sparse exact diagonalization of the impurity-doped Dicke Hamiltonian at finite N.

The basis is the extended coherent-state basis of Chen, Zhang, Liu & Wang
(PRA 78, 051801(R), 2008).  The collective spin of the maximal multiplet
j = N/2 is written in the Jx eigenbasis |m>, where the coupling

    g_m (a + a^dagger),   g_m = 2 lam m / sqrt(N) + xi2 delta,

is diagonal, and for each m the photon is displaced by d_m = -g_m / f1:
the basis states are D(d_m)|n> |m>, n = 0 .. photon_cutoff, ordered as

    index = n * (N + 1) + (m + N/2).

photon_cutoff is the highest displaced level kept, so a cutoff c holds
(c + 1)(N + 1) states per impurity block, and a smaller cutoff's states are a
prefix of a larger one's.  In this basis f1 a^dagger a + g_m (a + a^dagger)
is diagonal with entries f1 (n - d_m^2).  Since d_{m+1} - d_m = -gamma with
gamma = 2 lam / (sqrt(N) f1) for every m, Jz, which moves m by one, carries
one Franck-Condon matrix F(gamma) = <n'|D(gamma)|n> for all neighbouring
pairs, and the chi Jz^2 / N term needs a second one, F(2 gamma).  Jz acts on
the Jx eigenbasis as minus the tridiagonal matrix of Jx on the Jz basis; with
that sign the parity below is exactly exp(i pi (a^dagger a + Jz + N/2)).

Two impurity treatments are supported: FixedDelta freezes the impurity to a
classical population delta (the mode used to validate the mean-field limit;
the constant impurity splitting term is dropped), and FullQubit keeps the
impurity as a two-level system.  sigma_z commutes with the Hamiltonian, so
the FullQubit matrix is block diagonal over the impurity states, ordered
(upper, lower) = (sigma_z = +1, -1), each block in its own displaced basis.

Ground states are found sector by sector.  With xi2 = 0 the parity Pi maps
D(d_m)|n>|m> to (-1)^n D(d_-m)|n>|-m> and commutes with H, so each sigma_z
block splits into Pi = +1 and Pi = -1, each the image of a sparse isometry
with at most two nonzeros per column; with xi2 != 0 each block is one
sector.  Every sector is solved by an iterative extremal eigensolver from the
uniform start vector and the lowest is kept.  Sectors whose energies agree
within 1e-12 * max(1, |E|), the solver's resolution, count as tied, and a tie
goes to the first in the fixed order (upper block, then Pi = +1), so the
reported sector never flips with roundoff.  The truncation check re-solves
only that sector at an enlarged cutoff, starting from the base vector padded
with zeros; if the energy moves too much the enlarged cutoff becomes the
base and the check repeats (see ground_state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import ConvergenceFailureError, DimensionTooLargeError, InvalidParameterError
from .meanfield import equilibrium_closed_form
from .model import ModelParams, check_population, effective_frequencies

__all__ = [
    "FixedDelta",
    "FullQubit",
    "EDConfig",
    "EDResult",
    "FiniteSizeEntry",
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

    photon_cutoff is the highest displaced photon level of the first
    truncation, not the final one: ground_state enlarges the cutoff by
    convergence_factor until the energy stops moving or the next enlargement
    would exceed dimension_cap.  solver_tolerance = 0 means machine
    precision.  Both floats must be finite.
    """

    n_atoms: int
    photon_cutoff: int = 8
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
    """Ground-state data at the final base cutoff plus the last enlargement's shift.

    sector_gap is E(Pi = -1) - E(Pi = +1), the total-energy gap between the
    two parity sectors at the final base cutoff (None where parity is not
    reported); deep in the superradiant phase the two sectors are degenerate
    below the solver's resolution and the gap reads as roundoff of either
    sign.  cutoff_raises counts the failed truncation checks, each of
    which promoted the enlarged cutoff to be the base.
    """

    energy_per_atom: float
    jz_over_n: float
    photons_over_n: float
    parity: float | None
    converged: bool
    photon_cutoff: int
    cutoff_shift: float
    sector_gap: float | None
    cutoff_raises: int


@dataclass(frozen=True)
class FiniteSizeEntry:
    n_atoms: int
    result: EDResult
    mean_field_deviation: float


def _hermite_functions(x: np.ndarray, cutoff: int) -> np.ndarray:
    """Oscillator eigenfunctions psi_n(x), n = 0 .. cutoff, one row per n."""
    psi = np.empty((cutoff + 1, len(x)))
    psi[0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    if cutoff:
        psi[1] = math.sqrt(2.0) * x * psi[0]
    for n in range(1, cutoff):
        psi[n + 1] = math.sqrt(2.0 / (n + 1)) * x * psi[n] - math.sqrt(n / (n + 1)) * psi[n - 1]
    return psi


def _franck_condon(gamma: float, cutoff: int) -> np.ndarray:
    """<n'|D(gamma)|n> for real gamma and n, n' <= cutoff.

    D(gamma) shifts position by s = sqrt(2) gamma, so the element is the
    overlap of psi_n' (x) and psi_n (x - s).  With x = y + s/2 the integrand
    is exp(-y^2 - s^2/4) times a polynomial of degree n + n' <= 2 cutoff, so
    Gauss-Hermite quadrature on cutoff + 1 nodes is exact; the oscillator
    functions come from their three-term recurrence, which stays accurate
    where a recurrence on the matrix elements themselves loses all digits.
    """
    y, w = np.polynomial.hermite.hermgauss(cutoff + 1)
    half = gamma / math.sqrt(2.0)
    left = _hermite_functions(y + half, cutoff) * (w * np.exp(y * y))
    return left @ _hermite_functions(y - half, cutoff).T


def _frame(params: ModelParams, n_atoms: int, delta: float):
    """(f1, f2, d, gamma, t) of one block's displaced basis.

    d[k] = d_m for k = m + N/2 = 0 .. N, gamma = d_m - d_{m+1}, and
    t[k] = <k+1|Jx|k> on the Jz basis, k = 0 .. N-1.
    """
    ef = effective_frequencies(params, delta)
    m = np.arange(n_atoms + 1) - n_atoms / 2.0
    d = -(2.0 * params.lam * m / math.sqrt(n_atoms) + params.xi2 * delta) / ef.f1
    gamma = 2.0 * params.lam / (math.sqrt(n_atoms) * ef.f1)
    j = n_atoms / 2.0
    t = 0.5 * np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1.0))
    return ef.f1, ef.f2, d, gamma, t


def _check_dimension(dim: int, cap: int):
    if dim > cap:
        raise DimensionTooLargeError(f"Hilbert-space dimension {dim} exceeds cap {cap}")


def _shift_term(fc: np.ndarray, spin: np.ndarray, step: int) -> sp.csr_matrix:
    """fc (x) sum_k spin[k] |k + step><k|, plus its transpose: a Hermitian term
    that moves the Jx index up or down by step with photon overlaps fc."""
    up = sp.kron(fc, sp.diags(spin, -step))
    return up + up.T


def _fixed_delta_matrix(
    params: ModelParams, config: EDConfig, delta: float, cutoff: int
) -> sp.csr_matrix:
    n = config.n_atoms
    f1, f2, d, gamma, t = _frame(params, n, delta)
    diag = f1 * (np.arange(cutoff + 1.0)[:, None] - (d * d)[None, :])
    h = sp.diags(diag.ravel()) + f2 * _shift_term(_franck_condon(gamma, cutoff), -t, 1)
    if config.include_chi and params.chi != 0:
        # Jz^2 = T^2: diagonal t_{k-1}^2 + t_k^2, and t_k t_{k+1} two steps up
        t2 = t * t
        same = np.concatenate([t2, [0.0]]) + np.concatenate([[0.0], t2])
        jz2 = sp.kron(sp.identity(cutoff + 1), sp.diags(same))
        jz2 = jz2 + _shift_term(_franck_condon(2.0 * gamma, cutoff), t[:-1] * t[1:], 2)
        h = h + (params.chi / n) * jz2
    return sp.csr_matrix(h)


def build_hamiltonian(
    params: ModelParams, config: EDConfig, photon_cutoff: int | None = None
) -> sp.csr_matrix:
    """Assemble the sparse Hamiltonian in the displaced basis at the config's
    (or the given) photon cutoff."""
    cutoff = config.photon_cutoff if photon_cutoff is None else photon_cutoff
    block = (cutoff + 1) * (config.n_atoms + 1)
    if isinstance(config.impurity_mode, FixedDelta):
        _check_dimension(block, config.dimension_cap)
        return _fixed_delta_matrix(params, config, config.impurity_mode.delta, cutoff)
    _check_dimension(2 * block, config.dimension_cap)
    shift = 0.5 * params.omega_q_prime * sp.identity(block)
    upper = _fixed_delta_matrix(params, config, 1.0, cutoff) + shift
    lower = _fixed_delta_matrix(params, config, -1.0, cutoff) - shift
    return sp.csr_matrix(sp.block_diag((upper, lower)))


def parity_operator(n_atoms: int, photon_cutoff: int) -> sp.csr_matrix:
    """Parity (-1)^n |n, -m><n, m| on the FixedDelta displaced basis (xi2 = 0)."""
    size = (photon_cutoff + 1) * (n_atoms + 1)
    n_idx, k_idx = np.divmod(np.arange(size), n_atoms + 1)
    signs = np.where(n_idx % 2 == 0, 1.0, -1.0)
    rows = n_idx * (n_atoms + 1) + n_atoms - k_idx
    return sp.csr_matrix((signs, (rows, np.arange(size))), shape=(size, size))


def _sector_isometry(n_atoms: int, cutoff: int, sign: float) -> sp.csr_matrix:
    """Orthonormal columns spanning the Pi = sign sector of one block.

    Column (n, k) for k < N - k is (|n, k> + sign (-1)^n |n, N-k>) / sqrt(2),
    and for even N the column |n, N/2> is kept where (-1)^n = sign.  Columns
    are ordered by n first, so a smaller cutoff's columns are a prefix.
    """
    width = n_atoms + 1
    level_sign = (-1.0) ** np.arange(cutoff + 1)
    n_pair, k_pair = np.divmod(np.arange((cutoff + 1) * (width // 2)), width // 2)
    first = n_pair * width + k_pair
    n_mid = np.flatnonzero(level_sign == sign) if n_atoms % 2 == 0 else np.arange(0)
    middle = n_mid * width + n_atoms // 2
    # number the columns in the order of their first row
    col = np.argsort(np.argsort(np.concatenate([first, middle])))
    pair_col = col[: len(first)]
    rows = np.concatenate([first, n_pair * width + n_atoms - k_pair, middle])
    cols = np.concatenate([pair_col, pair_col, col[len(first):]])
    vals = np.concatenate([
        np.full(len(first), math.sqrt(0.5)),
        sign * level_sign[n_pair] * math.sqrt(0.5),
        np.ones(len(middle)),
    ])
    return sp.csr_matrix((vals, (rows, cols)), shape=(width * (cutoff + 1), len(col)))


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


def _sector_matrix(h, n_atoms: int, cutoff: int, block: int, sign: float | None):
    """One sigma_z block of h, restricted to the parity sign sector unless None."""
    size = (cutoff + 1) * (n_atoms + 1)
    if h.shape[0] != size:
        h = h[block * size:(block + 1) * size, block * size:(block + 1) * size]
    if sign is None:
        return h
    iso = _sector_isometry(n_atoms, cutoff, sign)
    return (iso.T @ h @ iso).tocsr()


def _observables(params, n_atoms, delta, cutoff, coeffs):
    """(<Jz>, <a^dagger a>) of the block state coeffs[n, k] in the displaced basis.

    Jz couples k to k + 1 with -t_k F(gamma); a = b + d_k on column k, so
    <a^dagger a> = <b^dagger b> + 2 d_k <b> + d_k^2 summed over k.
    """
    _, _, d, gamma, t = _frame(params, n_atoms, delta)
    fc = _franck_condon(gamma, cutoff)
    jz = -2.0 * float(np.sum(t * np.sum(coeffs[:, 1:] * (fc @ coeffs[:, :-1]), axis=0)))
    weight = coeffs * coeffs
    lowered = np.sqrt(np.arange(1.0, cutoff + 1))[:, None] * coeffs[:-1] * coeffs[1:]
    photons = float(
        np.sum(np.arange(cutoff + 1.0) @ weight)
        + 2.0 * np.sum(d * np.sum(lowered, axis=0))
        + np.sum(d * d * np.sum(weight, axis=0))
    )
    return jz, photons


def ground_state(params: ModelParams, config: EDConfig) -> EDResult:
    """Ground-state energy and observables, with the truncation error measured.

    The ground state is the lowest of the symmetry sectors (see the module
    docstring), and parity is that sector's sign, exactly +1.0 or -1.0; it is
    None in FullQubit mode and when xi2 != 0.  The winning sector's energy is
    re-computed at max(cutoff + 1, ceil(convergence_factor * cutoff)),
    warm-started; converged means the per-atom energy moved by at most
    1e-8 * max(1, |E/N|).  Otherwise the enlarged cutoff becomes the base,
    the other sectors are re-solved there, and the check repeats, until it
    passes or the next enlargement would exceed dimension_cap (then converged
    is False; a first check that does not fit raises DimensionTooLargeError).
    Reported observables come from the final base state.
    """
    n = config.n_atoms
    tol = config.solver_tolerance
    fixed = isinstance(config.impurity_mode, FixedDelta)
    blocks = (0,) if fixed else (0, 1)
    signs = (1.0, -1.0) if params.xi2 == 0 else (None,)
    sectors = [(block, sign) for block in blocks for sign in signs]

    base = config.photon_cutoff
    h = build_hamiltonian(params, config, base)
    solves = {key: _lowest_state(_sector_matrix(h, n, base, *key), tol) for key in sectors}
    raises = 0
    while True:
        lowest = min(energy for energy, _ in solves.values())
        key = next(
            k for k, (energy, _) in solves.items()
            if energy <= lowest + 1e-12 * max(1.0, abs(lowest))
        )
        energy, psi = solves[key]
        e_atom = energy / n
        larger = max(base + 1, int(math.ceil(config.convergence_factor * base)))
        if raises and len(blocks) * (larger + 1) * (n + 1) > config.dimension_cap:
            break
        h = build_hamiltonian(params, config, larger)
        enlarged = _sector_matrix(h, n, larger, *key)
        warm = np.zeros(enlarged.shape[0])
        warm[: len(psi)] = psi
        energy2, psi2 = _lowest_state(enlarged, tol, warm)
        shift = abs(energy2 / n - e_atom)
        converged = shift <= 1e-8 * max(1.0, abs(e_atom))
        if converged:
            break
        raises += 1
        base = larger
        solves = {
            other: (energy2, psi2) if other == key
            else _lowest_state(_sector_matrix(h, n, base, *other), tol)
            for other in sectors
        }

    block, sign = key
    if sign is not None:
        psi = _sector_isometry(n, base, sign) @ psi
    delta = config.impurity_mode.delta if fixed else (1.0, -1.0)[block]
    jz, photons = _observables(params, n, delta, base, psi.reshape(base + 1, n + 1))
    parity_known = fixed and params.xi2 == 0
    return EDResult(
        energy_per_atom=e_atom,
        jz_over_n=jz / n,
        photons_over_n=photons / n,
        parity=sign if fixed else None,
        converged=converged,
        photon_cutoff=base,
        cutoff_shift=shift,
        sector_gap=solves[0, -1.0][0] - solves[0, 1.0][0] if parity_known else None,
        cutoff_raises=raises,
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
