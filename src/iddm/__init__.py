"""Numerical toolkit for the impurity-doped Dicke model.

Mean-field ground states and phase boundaries at fixed impurity population,
quadratic fluctuation spectra, finite-size exact diagonalization, and
measurement-based steering of the impurity population.
"""

import os as _os

# Pin the linear-algebra thread count before numpy first loads.  Explicit
# per-library settings in the environment still win.
_threads = _os.environ.get("IDDM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .errors import (
    ChiUnsupportedError,
    ConvergenceFailureError,
    DimensionTooLargeError,
    DomainError,
    IDDMError,
    InvalidParameterError,
    NonPositiveF1Error,
    UnboundedPhaseError,
    UnreachableTargetError,
    UnstableEquilibriumError,
    ZeroDetuningError,
    ZeroKappaError,
    ZeroProbabilityOutcomeError,
)
from .model import (
    CavityMicroParams,
    EffectiveFrequencies,
    ImpurityMicroParams,
    ModelParams,
    derive_cavity_params,
    derive_impurity_couplings,
    effective_frequencies,
)
from .meanfield import (
    CRITICAL_NU_TOL,
    DerivativeScan,
    MeanFieldSolution,
    Phase,
    critical_delta,
    critical_lambda,
    derivative_scan,
    energy,
    energy_derivatives,
    equilibrium_closed_form,
    equilibrium_numeric,
    observables,
)
from .fluctuations import (
    SpectrumResult,
    excitation_spectrum,
    normal_phase_spectrum,
)
from .measurement import (
    CollapsedImpurity,
    ProjectiveMeasurement,
    Sign,
    WernerState,
    angle_for_target_delta,
    measure,
    unmeasured_population,
)
from .sweep import (
    CSV_HEADER,
    GridSpec,
    PhaseDiagramRow,
    run_grid,
    trace_critical_curve,
    write_phase_diagram_csv,
)

__version__ = "0.1.0"

# The ED names resolve on first use (PEP 562): ed imports scipy.sparse, whose
# import would otherwise slow the start of every process that runs no ED.
_ED_NAMES = frozenset({
    "EDConfig", "EDResult", "FiniteSizeEntry", "FixedDelta", "FullQubit",
    "build_hamiltonian", "finite_size_scan", "ground_state", "parity_operator",
})


def __getattr__(name):
    if name in _ED_NAMES:
        from . import ed
        return getattr(ed, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
