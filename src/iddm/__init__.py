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

# The eager names: each numpy-free module's __all__ and every class of errors.py.
from .errors import *
from .model import *
from .meanfield import *
from .sweep import *

__version__ = "0.1.0"

# The names of the spectrum, measurement and ED modules resolve on first use
# (PEP 562): ed loads numpy; measurement (numpy only in CollapsedImpurity.density_matrix)
# and fluctuations stay lazy to keep start-up short.
_LAZY_NAMES = {
    **dict.fromkeys(("SpectrumResult", "excitation_spectrum", "normal_phase_spectrum"),
                    "fluctuations"),
    **dict.fromkeys(("CollapsedImpurity", "ProjectiveMeasurement", "Sign", "WernerState",
                     "angle_for_target_delta", "measure"), "measurement"),
    **dict.fromkeys(("EDConfig", "EDResult", "FixedDelta", "FullQubit", "build_hamiltonian",
                     "finite_size_scan", "ground_state"), "ed"),
}


def __getattr__(name):
    if name in _LAZY_NAMES:
        from importlib import import_module
        return getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
