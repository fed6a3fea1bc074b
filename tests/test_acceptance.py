"""Release gate: ten numbered end-to-end checks with pinned tolerances.

Each check prints exactly one verdict line

    ACCEPTANCE <n> (<label>): PASS|FAIL

straight to the terminal (bypassing capture), then asserts.  A check gathers
every violated condition before reporting, so a FAIL line always carries the
full list of reasons in the assertion message.  Wall-clock budgets are part
of the contract and are enforced alongside the numeric tolerances.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from iddm import (
    EDConfig,
    FixedDelta,
    IDDMError,
    ModelParams,
    Phase,
    build_hamiltonian,
    critical_delta,
    critical_lambda,
    derivative_scan,
    equilibrium_closed_form,
    equilibrium_numeric,
    excitation_spectrum,
    finite_size_scan,
    ground_state,
    measure,
    normal_phase_spectrum,
    run_grid,
    trace_critical_curve,
    angle_for_target_delta,
    GridSpec,
    ProjectiveMeasurement,
    Sign,
    WernerState,
)
from iddm.cli import main

FIG2 = ModelParams(omega=400.0, lam=5.0, kappa=-0.5)
SUPERRADIANT_SMALL = ModelParams(omega=4.0, lam=2.0, kappa=-0.5)


@pytest.fixture
def report(capsys):
    def _report(num: int, label: str, failures: list) -> None:
        verdict = "FAIL" if failures else "PASS"
        with capsys.disabled():
            print(f"ACCEPTANCE {num} ({label}): {verdict}", flush=True)
        assert not failures, "; ".join(failures)

    return _report


@contextlib.contextmanager
def runtime_budget(failures: list, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    if elapsed >= seconds:
        failures.append(f"runtime {elapsed:.2f} s exceeds the {seconds:.0f} s budget")


def test_criterion_01_critical_population(report):
    failures = []
    try:
        with runtime_budget(failures, 5.0):
            dc = critical_delta(FIG2)
            if dc != 0.5:
                failures.append(f"closed-form critical population is {dc!r}, want exactly 0.5")

            def onset(deltas):
                for d in deltas:
                    if equilibrium_numeric(FIG2, float(d)).beta2 > 1e-8:
                        return float(d)
                return None

            coarse = onset(np.linspace(0.0, 1.0, 101))
            if coarse is None:
                failures.append("no onset of beta^2 > 1e-8 found on [0, 1]")
            else:
                fine = onset(np.linspace(coarse - 0.01, coarse, 101))  # step 1e-4
                if fine is None:
                    failures.append("fine scan lost the onset found coarsely")
                elif abs(fine - 0.5) > 2e-4:
                    failures.append(f"onset at {fine}, further than 2e-4 from 0.5")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    report(1, "critical impurity population", failures)


def test_criterion_02_second_order_signature(report):
    failures = []
    try:
        with runtime_budget(failures, 5.0):
            scan = derivative_scan(FIG2, "delta", 0.0, 1.0, 1e-3)
            d1_jump = float(np.max(np.abs(np.diff(scan.d1_values))))
            if d1_jump > 1e-2:
                failures.append(f"first derivative jumps by {d1_jump:.3e} > 1e-2")
            inner, d2 = np.asarray(scan.grid[1:-1]), np.asarray(scan.d2_values)
            below = d2[inner < 0.5 - 1.5e-3]
            above = d2[inner > 0.5 + 1.5e-3]
            if float(np.max(np.abs(below))) > 1e-2:
                failures.append("second derivative is not 0 +- 1e-2 below the transition")
            if float(np.max(np.abs(above + 0.5))) > 1e-2:
                failures.append("second derivative is not -0.5 +- 1e-2 above the transition")
            if abs(scan.jump_location - 0.5) > 2e-3:
                failures.append(f"curvature jump located at {scan.jump_location}, not 0.5")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    report(2, "second-order transition signature", failures)


def test_criterion_03_critical_curve_and_labels(report):
    failures = []
    try:
        with runtime_budget(failures, 30.0):
            curve = trace_critical_curve(FIG2, delta_range=(-1.0, 1.0), count=201)
            residual = 0.0
            for delta, lam_c in curve:
                if lam_c is None:
                    if delta < 1.0:
                        failures.append(f"missing threshold at delta = {delta}")
                else:
                    residual = max(residual, abs(lam_c**2 + 50.0 * delta - 50.0))
            if residual > 1e-9:
                failures.append(f"curve residual {residual:.3e} > 1e-9")

            rows = run_grid(GridSpec(FIG2))  # 201 x 121 default grid
            mislabeled = 0
            for row in rows:
                if row.error:
                    failures.append(f"grid error at ({row.delta}, {row.lam}): {row.error}")
                    break
                margin = row.lam**2 + 50.0 * row.delta - 50.0
                if abs(margin) <= 1e-9 or row.phase == Phase.CRITICAL.value:
                    continue
                want = Phase.SUPERRADIANT.value if margin > 0 else Phase.NORMAL.value
                if row.phase != want:
                    mislabeled += 1
            if mislabeled:
                failures.append(f"{mislabeled} grid points disagree with sign(lam^2 + 50 delta - 50)")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    report(3, "critical curve and phase labels", failures)


def test_criterion_04_standard_dicke_reduction(report):
    failures = []
    try:
        plain = ModelParams(omega=400.0, lam=5.0, kappa=0.0)
        for delta in (0.0, 0.3, -0.7):
            lam_c = critical_lambda(plain, delta)
            if lam_c is None or abs(lam_c - 10.0) > 1e-12:
                failures.append(f"kappa = 0 threshold at delta = {delta} is {lam_c}, want 10")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    report(4, "standard Dicke reduction", failures)


def test_criterion_05_minimizer_equivalence(report):
    failures = []
    try:
        with runtime_budget(failures, 60.0):
            rng = np.random.default_rng(20240819)
            accepted, worst = 0, 0.0
            while accepted < 1000:
                params = ModelParams(
                    omega=rng.uniform(1.0, 500.0),
                    lam=rng.uniform(0.0, 30.0),
                    kappa=rng.uniform(-2.0, 2.0),
                )
                delta = rng.uniform(-1.0, 1.0)
                try:
                    closed = equilibrium_closed_form(params, delta)
                except IDDMError:
                    continue
                accepted += 1
                numeric = equilibrium_numeric(params, delta)
                worst = max(
                    worst,
                    abs(closed.alpha2 - numeric.alpha2),
                    abs(closed.beta2 - numeric.beta2),
                    abs(closed.e0 - numeric.e0),
                )
            if worst > 1e-8:
                failures.append(f"worst closed-form/minimizer gap {worst:.3e} > 1e-8")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    report(5, "closed-form/minimizer equivalence", failures)


def test_criterion_06_soft_mode(report):
    failures = []
    try:
        with runtime_budget(failures, 10.0):
            lam_c = critical_lambda(FIG2, 0.0)
            at = excitation_spectrum(FIG2._replace(lam=lam_c), 0.0)
            if at.eps_minus > 1e-3:
                failures.append(f"soft mode {at.eps_minus:.3e} > 1e-3 at the boundary")
            for factor in (0.9, 1.1):
                off = excitation_spectrum(FIG2._replace(lam=factor * lam_c), 0.0)
                if off.eps_minus <= 0.05:
                    failures.append(f"gap {off.eps_minus:.3e} <= 0.05 at {factor} lambda_c")

            rng = np.random.default_rng(20240821)
            checked, worst, worst_minus = 0, 0.0, 0.0
            while checked < 100:
                params = ModelParams(
                    omega=rng.uniform(1.0, 500.0),
                    lam=rng.uniform(0.0, 30.0),
                    kappa=rng.uniform(-2.0, 2.0),
                )
                delta = rng.uniform(-1.0, 1.0)
                f2 = 1.0 + params.kappa * (1.0 + delta)
                if params.omega * f2 <= 4.0 * params.lam**2 * (1.0 + 1e-9):
                    continue
                checked += 1
                res = excitation_spectrum(params, delta)
                lo, hi = normal_phase_spectrum(params, delta)
                worst = max(worst, abs(res.eps_plus - hi))
                worst_minus = max(worst_minus, abs(res.eps_minus - lo) / lo)
            if worst > 1e-9:
                failures.append(f"normal-phase eps_plus mismatch {worst:.3e} > 1e-9")
            if worst_minus > 1e-12:
                failures.append(f"normal-phase eps_minus relative mismatch {worst_minus:.3e} > 1e-12")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    report(6, "soft mode at the boundary", failures)


def test_criterion_07_ed_oracle_convergence(report):
    failures = []
    try:
        with runtime_budget(failures, 120.0):
            # generic superradiant point: f2 = 0.1, nu = 0.025, so the
            # finite-size correction is nonzero and must shrink with N
            entries = finite_size_scan(SUPERRADIANT_SMALL, 0.8, [8, 16, 32])
            devs = [e.mean_field_deviation for e in entries]
            if not (devs[0] > devs[1] > devs[2]):
                failures.append(
                    "superradiant |E/N - (e0 - f2/2)| not strictly decreasing over "
                    f"N = 8, 16, 32: {devs}"
                )
            for e in entries:
                if e.mean_field_deviation <= 100.0 * e.cutoff_shift:
                    failures.append(
                        f"deviation {e.mean_field_deviation:.3e} not above 100x the "
                        f"cutoff shift {e.cutoff_shift:.3e} at N = {e.n_atoms}"
                    )
            # at delta = 1, f2 = 0: Jx is conserved and E/N = e0 exactly at
            # every N, so only exactness (not convergence) can be checked
            exact = finite_size_scan(SUPERRADIANT_SMALL, 1.0, [8, 16, 32])
            for e in exact:
                if e.mean_field_deviation > 1e-10:
                    failures.append(
                        f"f2 = 0 point |E/N - e0| = {e.mean_field_deviation:.3e} "
                        f"> 1e-10 at N = {e.n_atoms}"
                    )
            for e in entries + exact:
                if e.cutoff_shift > 1e-8:
                    failures.append(
                        f"cutoff doubling moves E/N by {e.cutoff_shift:.3e} "
                        f"> 1e-8 at N = {e.n_atoms}"
                    )
            normal = ground_state(
                FIG2, EDConfig(n_atoms=16, impurity_mode=FixedDelta(0.0))
            )
            if normal.photons_over_n > 1e-3:
                failures.append(
                    f"normal-phase photon fraction {normal.photons_over_n:.3e} > 1e-3"
                )
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    report(7, "finite-size oracle convergence", failures)


def test_criterion_08_parity_invariant(report):
    failures = []
    try:
        config = EDConfig(n_atoms=6, photon_cutoff=8, impurity_mode=FixedDelta(0.3))
        h = build_hamiltonian(FIG2, config).toarray()
        # parity (-1)^n |n, N-k><n, k| on the displaced basis at N = 6, cutoff 8
        pi = np.kron(np.diag((-1.0) ** np.arange(9)), np.eye(7)[::-1])
        norm = float(np.max(np.abs(h @ pi - pi @ h)))
        if norm > 1e-12:
            failures.append(f"|H Pi - Pi H|_max = {norm:.3e} > 1e-12")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    report(8, "parity invariant", failures)


def test_criterion_09_measurement_protocol(report):
    failures = []
    try:
        with runtime_budget(failures, 5.0):
            rng = np.random.default_rng(20240823)
            worst_delta, worst_avg, worst_trip = 0.0, 0.0, 0.0
            for _ in range(1000):
                z = rng.uniform(0.0, 1.0)
                theta = rng.uniform(0.0, math.pi)
                plus = measure(WernerState(z), ProjectiveMeasurement(theta, Sign.PLUS))
                minus = measure(WernerState(z), ProjectiveMeasurement(theta, Sign.MINUS))
                want = z * math.cos(2.0 * theta)
                worst_delta = max(
                    worst_delta, abs(plus.delta - want), abs(minus.delta + want)
                )
                worst_avg = max(
                    worst_avg,
                    abs(plus.probability * plus.delta + minus.probability * minus.delta),
                )
                target = rng.uniform(-z, z) if z > 0 else 0.0
                angle, sign = angle_for_target_delta(z, target)
                out = measure(WernerState(z), ProjectiveMeasurement(angle, sign))
                worst_trip = max(worst_trip, abs(out.delta - target))
            if worst_delta > 1e-12:
                failures.append(f"collapsed population off by {worst_delta:.3e} > 1e-12")
            if worst_avg > 1e-12:
                failures.append(f"outcome-averaged population {worst_avg:.3e} > 1e-12")
            if worst_trip > 1e-12:
                failures.append(f"angle round trip off by {worst_trip:.3e} > 1e-12")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    report(9, "measurement protocol", failures)


def test_criterion_10_deterministic_reruns(report, tmp_path):
    failures = []

    def sweep_argv(path):
        return [
            "sweep", "--delta-min", "-1", "--delta-max", "1", "--delta-count", "201",
            "--lambda-min", "0", "--lambda-max", "12", "--lambda-count", "121",
            "--output", str(path),
        ]

    def ed_argv(path):
        return [
            "ed", "--omega", "4", "--lambda", "2", "--delta", "0.8",
            "--n", "4", "--n", "6", "--output", str(path),
        ]

    try:
        for name, argv_of in (("sweep", sweep_argv), ("ed", ed_argv)):
            first, second = tmp_path / f"{name}_a.out", tmp_path / f"{name}_b.out"
            if main(argv_of(first)) != 0 or main(argv_of(second)) != 0:
                failures.append(f"{name} run did not exit 0")
                continue
            if first.read_bytes() != second.read_bytes():
                failures.append(f"repeated {name} runs are not byte-identical")
    except Exception as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    report(10, "byte-identical reruns", failures)
