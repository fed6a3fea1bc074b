"""Exact diagonalization of the impurity-doped Dicke Hamiltonian at finite N.

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

H is never assembled: build_hamiltonian returns an operator that applies
each block as a diagonal plus two small matmuls per Franck-Condon term on
the state reshaped to (cutoff + 1, N + 1), and numpy is the only dependency.

Ground states are found sector by sector.  With xi2 = 0 the parity Pi maps
D(d_m)|n>|m> to (-1)^n D(d_-m)|n>|-m> and commutes with H, so each sigma_z
block splits into Pi = +1 and Pi = -1.  A sector's states live on the half
chain k <= N/2, one coordinate per pair (|n, k> +- |n, N-k>) / sqrt(2) or
middle state; two column slices of the block, the second read from k = N
down, map them to and from it (see _Sector).  With xi2 != 0 each block is
one sector.  Every sector is solved from the uniform start vector by a
thick-restart Lanczos solver (Wu & Simon, SIAM J. Matrix Anal. Appl. 22,
602, 2000), which stops when its Ritz residual falls to machine epsilon
times the largest |Ritz value|, and the lowest sector is kept.  Sectors
whose energies agree within 1e-12 * max(1, |E|), the solver's resolution,
count as tied, and a tie goes to the first in the fixed order (upper block,
then Pi = +1), so the reported sector never flips with roundoff.  The
truncation check re-solves only that sector at twice the cutoff, starting
from the base vector padded with zeros; if the energy moves too much the
doubled cutoff becomes the base and the check repeats (see ground_state).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailureError, DimensionTooLargeError, InvalidParameterError
from .meanfield import equilibrium_closed_form
from .model import ModelParams, _checked, _floats, check_count, check_population, effective_frequencies

__all__ = [
    "FixedDelta",
    "FullQubit",
    "EDConfig",
    "EDResult",
    "build_hamiltonian",
    "ground_state",
    "finite_size_scan",
]


@_floats
class FixedDelta(NamedTuple):
    """Impurity frozen to a classical population delta in [-1, 1]."""

    delta: float

    def _check(self):
        check_population(self.delta)


class FullQubit(NamedTuple):
    """Impurity kept as a dynamical two-level system."""


@_checked
class EDConfig(NamedTuple):
    """Settings for one diagonalization run.

    photon_cutoff is the highest displaced photon level of the first
    truncation, not the final one: ground_state doubles the cutoff until the
    energy stops moving or the next doubling would exceed dimension_cap.
    impurity_mode must be a FixedDelta or a FullQubit.
    """

    n_atoms: int
    photon_cutoff: int = 8
    impurity_mode: FixedDelta | FullQubit = FixedDelta(0.0)
    dimension_cap: int = 1_000_000

    def _check(self):
        for name in ("n_atoms", "photon_cutoff", "dimension_cap"):
            check_count(name, getattr(self, name))
        if not isinstance(self.impurity_mode, (FixedDelta, FullQubit)):
            raise InvalidParameterError(f"impurity_mode must be FixedDelta or FullQubit, got {self.impurity_mode!r}")


class EDResult(NamedTuple):
    """One finite-N ground state, the record `iddm ed` prints field by field.

    Data of the final base cutoff photon_cutoff, plus cutoff_shift, the last
    enlargement's move of E/N.  mean_field_deviation is |E/N - (e0 - f2/2)|
    from finite_size_scan, None from ground_state (so in FullQubit runs).
    sector_gap is E(Pi = -1) - E(Pi = +1), the total-energy gap between the
    two parity sectors at the final base cutoff (None where parity is not
    reported); deep in the superradiant phase the two sectors are degenerate
    below the solver's resolution and the gap reads as roundoff of either
    sign.  cutoff_raises counts the failed truncation checks, each of
    which promoted the enlarged cutoff to be the base.
    """

    n_atoms: int
    photon_cutoff: int
    energy_per_atom: float
    jz_over_n: float
    photons_over_n: float
    parity: float | None
    converged: bool
    cutoff_shift: float
    mean_field_deviation: float | None
    sector_gap: float | None
    cutoff_raises: int


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
    Gauss-Hermite quadrature on d = cutoff + 1 nodes is exact (Golub & Welsch,
    Math. Comp. 23, 221, 1969): nodes y from the Jacobi matrix, each given one
    Newton step y -= psi_d / (sqrt(2d) psi_{d-1}), and weights taken already
    scaled, w exp(y^2) = 1 / sum_{k <= cutoff} psi_k(y)^2.  The oscillator
    functions come from their three-term recurrence, which stays accurate
    where a recurrence on the matrix elements themselves loses all digits.
    Raises InvalidParameterError when an outermost weight w falls below the
    normal float range, as it does from cutoff 370 on.
    """
    y = np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * np.arange(1, cutoff + 1)), -1))
    with np.errstate(all="ignore"):  # far past the refusal the functions underflow to 0
        psi = _hermite_functions(y, cutoff + 1)
        y -= psi[-1] / (math.sqrt(2.0 * (cutoff + 1)) * psi[-2])
        weights = 1.0 / np.sum(_hermite_functions(y, cutoff) ** 2, axis=0)
        outermost = weights[0] * np.exp(-y[0] * y[0])
    if not outermost >= np.finfo(float).tiny:  # a nan fails too
        raise InvalidParameterError(
            f"photon cutoff {cutoff} is beyond the Gauss-Hermite quadrature: its outermost weight is subnormal"
        )
    half = gamma / math.sqrt(2.0)
    left = _hermite_functions(y + half, cutoff) * weights
    return left @ _hermite_functions(y - half, cutoff).T


def _frame(params: ModelParams, n_atoms: int, delta: float):
    """(f1, f2, d, gamma, t) of one block's displaced basis.

    d[k] = d_m for k = m + N/2 = 0 .. N, gamma = d_m - d_{m+1}, and
    t[k] = <k+1|Jx|k> on the Jz basis, k = 0 .. N-1.  Raises
    InvalidParameterError when the largest d_m^2 overflows.
    """
    f1, f2 = effective_frequencies(params, delta)
    j = n_atoms / 2.0
    reach = (2.0 * params.lam * j / math.sqrt(n_atoms) + abs(params.xi2 * delta)) / f1
    if not math.isfinite(reach * reach):
        raise InvalidParameterError(
            f"displacement d_m = -g_m/f1 reaches {reach} at f1 = {f1}: d_m^2 overflows"
        )
    m = np.arange(n_atoms + 1) - j
    d = -(2.0 * params.lam * m / math.sqrt(n_atoms) + params.xi2 * delta) / f1
    gamma = 2.0 * params.lam / (math.sqrt(n_atoms) * f1)
    t = 0.5 * np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1.0))
    return f1, f2, d, gamma, t


class Hamiltonian:
    """H in the displaced basis, applied block by block and never assembled.

    n_atoms and cutoff are Python ints.  blocks holds one (diag, terms, d, t)
    per sigma_z block, in the order (upper, lower): diag[n, k] is the diagonal
    element of D(d_m)|n>|m>, k = m + N/2, and each term (fc, spin, step) stands
    for fc (x) sum_k spin[k] |k + step><k| plus its transpose, a Hermitian term
    that moves the Jx index up or down by step with photon overlaps fc; the
    first term is Jz's, with fc = F(gamma).  d and t are the block's frame (see
    _frame), kept for its observables.
    """

    def __init__(self, n_atoms: int, cutoff: int, blocks):
        self.n_atoms, self.cutoff, self.blocks = n_atoms, cutoff, blocks
        self.block_size = (cutoff + 1) * (n_atoms + 1)
        self.shape = (len(blocks) * self.block_size,) * 2

    @property
    def nnz(self) -> int:
        """The number of nonzero matrix elements."""
        return sum(
            np.count_nonzero(diag)
            + sum(2 * np.count_nonzero(fc) * np.count_nonzero(spin) for fc, spin, _ in terms)
            for diag, terms, _, _ in self.blocks
        )

    def apply_block(self, block: int, x: np.ndarray) -> np.ndarray:
        """Block number block applied to x, a vector of block_size entries."""
        diag, terms, _, _ = self.blocks[block]
        x = x.reshape(diag.shape)
        out = diag * x
        for fc, spin, step in terms:
            out[:, step:] += fc @ (x[:, :-step] * spin)
            out[:, :-step] += fc.T @ (x[:, step:] * spin)
        return out.ravel()

    def toarray(self) -> np.ndarray:
        size = self.block_size
        out = np.zeros(self.shape)
        for b, (diag, terms, _, _) in enumerate(self.blocks):
            dense = np.diag(diag.ravel())
            for fc, spin, step in terms:
                up = np.kron(fc, np.diag(spin, -step))
                dense += up + up.T
            out[b * size:(b + 1) * size, b * size:(b + 1) * size] = dense
        return out


def _block(params: ModelParams, n: int, cutoff: int, delta: float, shift: float):
    """(diag, terms, d, t) of the block at impurity population delta, its diagonal moved by shift."""
    f1, f2, d, gamma, t = _frame(params, n, delta)
    diag = f1 * (np.arange(cutoff + 1.0)[:, None] - (d * d)[None, :])
    terms = [(_franck_condon(gamma, cutoff), -f2 * t, 1)]
    if params.chi != 0:
        # Jz^2 = T^2: diagonal t_{k-1}^2 + t_k^2, and t_k t_{k+1} two steps up
        t2 = t * t
        diag = diag + (params.chi / n) * (np.concatenate([t2, [0.0]]) + np.concatenate([[0.0], t2]))
        terms.append((_franck_condon(2.0 * gamma, cutoff), (params.chi / n) * t[:-1] * t[1:], 2))
    return diag + shift, terms, d, t


def build_hamiltonian(params: ModelParams, config: EDConfig) -> Hamiltonian:
    """The Hamiltonian in the displaced basis at the config's photon cutoff;
    FullQubit blocks carry +-omega_q_prime / 2.

    Raises InvalidParameterError when a block's norm bound, max|diag| plus
    twice the largest spin coefficient of each term (a Franck-Condon matrix
    has norm <= 1), is so large that the solver's resolution, machine epsilon
    times that bound, exceeds 1e-8 * max(N, -min diag): a lower bound of the
    truncation check's target 1e-8 * max(N, |E|), since E <= min diag; or
    when the bound is not finite or its square overflows, as the solver's
    vector norms would.
    """
    # numpy integer counts would reach ground_state's record, which JSON cannot write
    n, cutoff = int(config.n_atoms), int(config.photon_cutoff)
    if isinstance(config.impurity_mode, FixedDelta):
        populations = [(config.impurity_mode.delta, 0.0)]
    else:
        half = 0.5 * params.omega_q_prime
        populations = [(1.0, half), (-1.0, -half)]
    dim = len(populations) * (cutoff + 1) * (n + 1)
    if dim > config.dimension_cap:
        raise DimensionTooLargeError(f"Hilbert-space dimension {dim} exceeds cap {config.dimension_cap}")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan entry is refused below
        blocks = [_block(params, n, cutoff, delta, shift) for delta, shift in populations]
    for diag, terms, _, _ in blocks:
        lowest = float(diag.min())  # the bound in Python floats: numpy's would warn
        spins = sum(float(np.max(np.abs(spin), initial=0.0)) for _, spin, _ in terms)
        norm = max(float(diag.max()), -lowest) + 2.0 * spins
        if not math.isfinite(norm):
            raise InvalidParameterError(f"the Hamiltonian's norm bound is not finite: {norm}")
        resolution, target = np.finfo(float).eps * norm, 1e-8 * max(n, -lowest)
        if resolution > target:
            raise InvalidParameterError(
                f"the Hamiltonian's norm bound {norm:.3g} is beyond the eigensolver: its "
                f"resolution {resolution:.3g} exceeds the 1e-8-per-atom target {target:.3g}"
            )
        if norm * norm == math.inf:
            raise InvalidParameterError(f"the Hamiltonian's norm bound {norm:.3g} overflows when squared")
    return Hamiltonian(n, cutoff, blocks)


class _Sector:
    """One sigma_z block of h in its Pi = sign sector, or the whole block when sign is None.

    A sector vector is a flattened (cutoff + 1, width) array on the half chain.
    With flip_n = sign (-1)^n, column j < pairs = (N + 1) // 2 stands for the
    pair (|n, j> + flip_n |n, N-j>) / sqrt(2); a column j >= pairs (the middle
    of even N) stands for |n, j> where flip_n = 1 and is exactly 0 where that
    level does not exist.  sign None takes pairs = 0 and flip_n = 1: the whole
    block.  A smaller cutoff's vector is a prefix of a larger one's.
    """

    def __init__(self, h: Hamiltonian, block: int, sign: float | None):
        self.h, self.block, n = h, block, h.n_atoms
        levels = np.arange(h.cutoff + 1.0)[:, None]
        flip = np.ones_like(levels) if sign is None else sign * (-1.0) ** levels
        self.pairs = 0 if sign is None else (n + 1) // 2
        self.keep = np.full((h.cutoff + 1, n + 1 - self.pairs), math.sqrt(0.5))
        self.keep[:, self.pairs:] = (1.0 + flip) / 2.0
        self.mirror = flip * self.keep[:, :self.pairs]
        self.shape = (self.keep.size,) * 2

    def scatter(self, c: np.ndarray) -> np.ndarray:
        """The (cutoff + 1, N + 1) block state of the sector vector c."""
        c = c.reshape(self.keep.shape)
        return np.concatenate([c * self.keep, (c[:, :self.pairs] * self.mirror)[:, ::-1]], axis=1)

    def gather(self, psi: np.ndarray) -> np.ndarray:
        """The sector vector of the block state psi, scatter's transpose."""
        psi = psi.reshape(len(self.keep), -1)
        c = psi[:, :self.keep.shape[1]] * self.keep
        c[:, :self.pairs] += psi[:, ::-1][:, :self.pairs] * self.mirror
        return c.ravel()

    def matvec(self, c: np.ndarray) -> np.ndarray:
        return self.gather(self.h.apply_block(self.block, self.scatter(c)))


KRYLOV_SIZE = 20  # ARPACK's default for one eigenpair
DGKS = 0.717  # a second Gram-Schmidt pass when ||w|| falls below this share of its value


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _rayleigh(op, v: np.ndarray) -> tuple[float, np.ndarray]:
    """(v . op v, v) for a unit vector v."""
    return float(v @ op.matvec(v)), v


def _lowest_state(
    op, v0: np.ndarray | None = None, max_restarts: int | None = None
) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the _Sector op by thick-restart Lanczos.

    The start is v0, or else gather(scatter(ones)): uniform on the sector's
    coordinates.  The Krylov basis holds up to KRYLOV_SIZE vectors; each new
    one is orthogonalized against all the others, a second time by the DGKS
    rule.  A restart keeps the lowest half of the Ritz vectors and the residual
    vector (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602, 2000).  The solve
    stops when the Ritz residual |beta s_last| is at most machine epsilon
    times the largest |Ritz value|, the spectrum's scale, or when the Krylov
    space is invariant.  It raises ConvergenceFailureError when max_restarts
    restarts (default 10 * dim, as ARPACK's iteration budget) do not suffice.
    """
    dim = op.shape[0]
    size = min(KRYLOV_SIZE, dim)
    keep = size // 2
    budget = 10 * dim if max_restarts is None else max_restarts
    bound = np.finfo(float).eps
    basis = np.empty((size + 1, dim))
    basis[0] = _unit(op.gather(op.scatter(np.ones(dim))) if v0 is None else v0)
    t = np.zeros((size, size))  # op on the basis: an arrowhead, then tridiagonal
    first = 0
    for _ in range(budget + 1):
        for j in range(first, size):
            w = op.matvec(basis[j])
            beta = np.linalg.norm(w)
            for _pass in range(2):
                coef = basis[: j + 1] @ w
                w -= coef @ basis[: j + 1]
                t[j, j] += coef[j]
                beta, before = np.linalg.norm(w), beta
                if beta > DGKS * before:
                    break
            if beta <= DGKS * before or j + 1 == dim:  # the Krylov space is invariant
                s = np.linalg.eigh(t[: j + 1, : j + 1])[1]
                return _rayleigh(op, _unit(s[:, 0] @ basis[: j + 1]))
            basis[j + 1] = w / beta
            if j + 1 < size:
                t[j, j + 1] = t[j + 1, j] = beta
        theta, s = np.linalg.eigh(t)
        if abs(beta * s[-1, 0]) <= bound * np.max(np.abs(theta)):
            return _rayleigh(op, _unit(s[:, 0] @ basis[:size]))
        basis[:keep] = s[:, :keep].T @ basis[:size]
        basis[keep] = basis[size]
        t[:] = 0.0
        t[range(keep), range(keep)] = theta[:keep]
        t[keep, :keep] = t[:keep, keep] = beta * s[-1, :keep]
        first = keep
    raise ConvergenceFailureError(f"eigensolver did not converge in {budget} restarts")


def _observables(block, coeffs):
    """(<Jz>, <a^dagger a>) of the state coeffs[n, k] of a Hamiltonian block in its displaced basis.

    Jz couples k to k + 1 with -t_k fc, fc = F(gamma) of the block's first term;
    a = b + d_k on column k, so <a^dagger a> = <b^dagger b> + 2 d_k <b> + d_k^2
    summed over k.
    """
    _, terms, d, t = block
    fc = terms[0][0]
    levels = np.arange(float(len(coeffs)))
    jz = -2.0 * float(np.sum(t * np.sum(coeffs[:, 1:] * (fc @ coeffs[:, :-1]), axis=0)))
    weight = coeffs * coeffs
    lowered = np.sqrt(levels[1:])[:, None] * coeffs[:-1] * coeffs[1:]
    photons = float(
        np.sum(levels @ weight)
        + 2.0 * np.sum(d * np.sum(lowered, axis=0))
        + np.sum(d * d * np.sum(weight, axis=0))
    )
    return jz, photons


def ground_state(params: ModelParams, config: EDConfig) -> EDResult:
    """Ground-state energy and observables, with the truncation error measured.

    The ground state is the lowest of the symmetry sectors (see the module
    docstring), and parity is that sector's sign, exactly +1.0 or -1.0; it is
    None in FullQubit mode and when xi2 != 0.  The winning sector's energy is
    re-computed at twice the cutoff, warm-started; converged means the
    per-atom energy moved by at most 1e-8 * max(1, |E/N|).  Otherwise the
    doubled cutoff becomes the base, the other sectors are re-solved there,
    and the check repeats, until it passes or the next doubling would exceed
    dimension_cap (then converged is False; a first check that does not fit
    raises DimensionTooLargeError).
    Reported observables come from the final base state.
    """
    h = build_hamiltonian(params, config)
    fixed = isinstance(config.impurity_mode, FixedDelta)
    signs = (1.0, -1.0) if params.xi2 == 0 else (None,)
    sectors = [(block, sign) for block in range(len(h.blocks)) for sign in signs]
    known, raises = {}, 0  # known: the sector that the failed check solved at the raised cutoff
    while True:
        solves = {key: known.get(key) or _lowest_state(_Sector(h, *key)) for key in sectors}
        lowest = min(energy for energy, _ in solves.values())
        key = next(
            k for k, (energy, _) in solves.items()
            if energy <= lowest + 1e-12 * max(1.0, abs(lowest))
        )
        energy, psi = solves[key]
        e_atom = energy / h.n_atoms
        if raises and len(h.blocks) * (2 * h.cutoff + 1) * (h.n_atoms + 1) > config.dimension_cap:
            break
        big = build_hamiltonian(params, config._replace(photon_cutoff=2 * h.cutoff))
        enlarged = _Sector(big, *key)
        energy2, psi2 = _lowest_state(enlarged, np.pad(psi, (0, enlarged.shape[0] - len(psi))))
        shift = abs(energy2 / h.n_atoms - e_atom)
        converged = shift <= 1e-8 * max(1.0, abs(e_atom))
        if converged:
            break
        raises += 1
        h, known = big, {key: (energy2, psi2)}

    block, sign = key
    jz, photons = _observables(h.blocks[block], _Sector(h, *key).scatter(psi))
    parity_known = fixed and params.xi2 == 0
    return EDResult(
        n_atoms=h.n_atoms,
        photon_cutoff=h.cutoff,
        energy_per_atom=e_atom,
        jz_over_n=jz / h.n_atoms,
        photons_over_n=photons / h.n_atoms,
        parity=sign if fixed else None,
        converged=converged,
        cutoff_shift=shift,
        mean_field_deviation=None,
        sector_gap=solves[0, -1.0][0] - solves[0, 1.0][0] if parity_known else None,
        cutoff_raises=raises,
    )


def finite_size_scan(
    params: ModelParams,
    delta: float,
    n_list,
    config: EDConfig | None = None,
) -> list[EDResult]:
    """Ground states at a sequence of atom numbers against the mean-field limit.

    Each result is ground_state's, with mean_field_deviation set to
    |E/N - (e0(delta) - f2/2)| (the -f2/2 comes from the spin operators being
    measured from the equator at finite N).  config acts as a template;
    n_atoms and the impurity mode are overridden per entry, and every entry's
    EDConfig is built, refusing a bad atom number, before the first solve.

    Degenerate point: when f2 = omega0 + kappa*(1 + delta) = 0 the atomic term
    drops out, Jx commutes with H and E/N equals the mean-field value at every
    N.  There the deviation measures only truncation and roundoff, not
    finite-size drift.
    """
    template = config if config is not None else EDConfig(n_atoms=1)
    configs = [template._replace(n_atoms=n, impurity_mode=FixedDelta(delta)) for n in n_list]
    if not configs:
        raise InvalidParameterError("n_list must not be empty")
    _, f2 = effective_frequencies(params, delta)
    target = equilibrium_closed_form(params, delta).e0 - f2 / 2.0
    results = [ground_state(params, cfg) for cfg in configs]
    return [r._replace(mean_field_deviation=abs(r.energy_per_atom - target)) for r in results]
