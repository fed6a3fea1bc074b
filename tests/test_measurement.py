"""Measurement-based impurity-population control on a shared Werner pair.

Checked here, against the numpy oracles of tests/_oracles.py, which never
read the package's own entries:
  * the oracle's two projectors at any angle resolve the identity
  * both outcomes occur with probability 1/2 up to roundoff, independent of
    z and theta (the Werner state's ancilla marginal is maximally mixed)
  * the collapsed impurity population is +z cos(2 theta) on the plus outcome
    and -z cos(2 theta) on the minus outcome
  * averaging the population over outcomes gives zero
  * the collapsed state equals (1 - z)/2 * I + z |psi><psi| entrywise
  * angle_for_target_delta inverts the map and round-trips through measure
  * edge cases: z = 0 (no steering), z = 1 (pure-state limit, where both
    outcomes at theta = 0 have probability exactly 0.5 in floats), targets
    beyond +-z are rejected, and an outcome sign that is not a Sign is
    refused
  * the closed form in measure matches the numpy route on the oracle's
    Werner state and projector, (I x P) rho (I x P) by Kronecker products,
    its trace and the partial trace by einsum, within 4.4e-16 in every
    entry, the probability and delta
  * property over z, theta and sign: probability 1/2, delta = +-z cos 2theta,
    a real collapsed state that equals its transpose exactly, positive
    semidefinite and of trace 1; and any target in [-z, z] is reached
    through angle_for_target_delta
  * the collapsed impurity holds its entries as floats, and density_matrix
    builds a new complex array on each read
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iddm import (
    InvalidParameterError,
    ProjectiveMeasurement,
    Sign,
    UnreachableTargetError,
    WernerState,
    angle_for_target_delta,
    measure,
)

from _oracles import measurement_vector, projector, werner_density_matrix


def test_projectors_resolve_identity():
    rng = np.random.default_rng(11)
    for theta in rng.uniform(0.0, math.pi, size=25):
        plus, minus = projector(theta, Sign.PLUS), projector(theta, Sign.MINUS)
        assert np.max(np.abs(plus + minus - np.eye(2))) <= 1e-14
        assert np.max(np.abs(plus @ plus - plus)) <= 1e-14
        assert np.max(np.abs(plus @ minus)) <= 1e-14


def test_outcome_probability_is_half():
    rng = np.random.default_rng(13)
    for _ in range(50):
        state = WernerState(rng.uniform(0.0, 1.0))
        theta = rng.uniform(0.0, math.pi)
        sign = Sign.PLUS if rng.uniform() < 0.5 else Sign.MINUS
        out = measure(state, ProjectiveMeasurement(theta, sign))
        assert math.isclose(out.probability, 0.5, rel_tol=0, abs_tol=1e-14)


def test_collapsed_population_formula():
    rng = np.random.default_rng(17)
    for _ in range(100):
        z = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, math.pi)
        plus = measure(WernerState(z), ProjectiveMeasurement(theta, Sign.PLUS))
        minus = measure(WernerState(z), ProjectiveMeasurement(theta, Sign.MINUS))
        want = z * math.cos(2.0 * theta)
        assert abs(plus.delta - want) <= 1e-12
        assert abs(minus.delta + want) <= 1e-12
        # the unconditioned average is untouched by the remote measurement
        avg = plus.probability * plus.delta + minus.probability * minus.delta
        assert abs(avg) <= 1e-12


def test_collapsed_state_entrywise():
    rng = np.random.default_rng(19)
    for _ in range(50):
        z = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, math.pi)
        for sign in (Sign.PLUS, Sign.MINUS):
            meas = ProjectiveMeasurement(theta, sign)
            out = measure(WernerState(z), meas)
            psi = measurement_vector(theta, sign)
            want = (1.0 - z) / 2.0 * np.eye(2) + z * np.outer(psi, psi.conj())
            assert np.max(np.abs(out.density_matrix - want)) <= 1e-12
            trace = np.trace(out.density_matrix)
            assert math.isclose(trace.real, 1.0, rel_tol=0, abs_tol=1e-12)


def test_closed_form_matches_kronecker_route():
    rng = np.random.default_rng(31)
    for _ in range(500):
        z = rng.uniform(0.0, 1.0)
        sign = Sign.PLUS if rng.uniform() < 0.5 else Sign.MINUS
        theta = rng.uniform(-10.0, 10.0)
        proj = np.kron(np.eye(2), projector(theta, sign))
        unnormalized = proj @ werner_density_matrix(z) @ proj
        probability = np.trace(unnormalized).real
        reduced = np.einsum("ibjb->ij", unnormalized.reshape(2, 2, 2, 2)) / probability
        out = measure(WernerState(z), ProjectiveMeasurement(theta, sign))
        assert np.max(np.abs(out.density_matrix - reduced)) <= 4.4e-16
        assert abs(out.probability - probability) <= 4.4e-16
        assert abs(out.delta - (reduced[0, 0] - reduced[1, 1]).real) <= 4.4e-16


def test_collapsed_impurity_holds_floats():
    out = measure(WernerState(0.7), ProjectiveMeasurement(0.3, Sign.MINUS))
    assert [type(x) for x in out] == [float] * 5 and out._fields[:3] == ("rho00", "rho01", "rho11")
    rho = out.density_matrix
    assert rho.dtype == complex and rho.tolist() == [[out.rho00, out.rho01], [out.rho01, out.rho11]]
    rho[0, 0] = 0.0
    assert out.density_matrix[0, 0] == out.rho00 != 0.0


def test_angle_inversion_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(100):
        z = rng.uniform(0.05, 1.0)
        target = rng.uniform(-z, z)
        theta, sign = angle_for_target_delta(z, target)
        assert 0.0 <= theta <= math.pi / 2.0
        out = measure(WernerState(z), ProjectiveMeasurement(theta, sign))
        assert abs(out.delta - target) <= 1e-12


def test_target_sign_selection():
    theta, sign = angle_for_target_delta(0.8, 0.4)
    assert sign is Sign.PLUS
    assert math.isclose(theta, 0.5 * math.acos(0.5), rel_tol=1e-12)
    theta_m, sign_m = angle_for_target_delta(0.8, -0.4)
    assert sign_m is Sign.MINUS
    assert math.isclose(theta_m, theta, rel_tol=1e-12)


def test_extreme_targets():
    theta, _ = angle_for_target_delta(0.7, 0.7)
    assert math.isclose(theta, 0.0, rel_tol=0, abs_tol=1e-12)
    theta_zero, _ = angle_for_target_delta(0.7, 0.0)
    assert math.isclose(theta_zero, math.pi / 4.0, rel_tol=1e-12)


def test_zero_fidelity_cannot_steer():
    out = measure(WernerState(0.0), ProjectiveMeasurement(0.3, Sign.PLUS))
    assert abs(out.delta) <= 1e-14
    assert np.max(np.abs(out.density_matrix - 0.5 * np.eye(2))) <= 1e-14
    theta, sign = angle_for_target_delta(0.0, 0.0)
    assert math.isclose(theta, math.pi / 4.0, rel_tol=1e-12)
    assert sign is Sign.PLUS
    with pytest.raises(UnreachableTargetError):
        angle_for_target_delta(0.0, 0.1)


def test_pure_state_limit():
    # z = 1: measuring along the computational basis steers delta to +-1
    out = measure(WernerState(1.0), ProjectiveMeasurement(0.0, Sign.PLUS))
    assert math.isclose(out.delta, 1.0, rel_tol=0, abs_tol=1e-14)
    out_m = measure(WernerState(1.0), ProjectiveMeasurement(0.0, Sign.MINUS))
    assert math.isclose(out_m.delta, -1.0, rel_tol=0, abs_tol=1e-14)
    # |Phi><Phi| has entries 1/2; a rounded 1/sqrt(2) squared gave 0.49999999999999989
    assert out.probability == out_m.probability == 0.5


def test_unreachable_target_raises():
    with pytest.raises(UnreachableTargetError):
        angle_for_target_delta(0.5, 0.6)
    with pytest.raises(UnreachableTargetError):
        angle_for_target_delta(0.5, -0.50001)


def test_invalid_fidelity_rejected():
    with pytest.raises(ValueError):
        WernerState(-0.1)
    with pytest.raises(ValueError):
        WernerState(1.1)


@pytest.mark.parametrize("sign", ["plus", "minus", 1, None])
def test_sign_must_be_a_sign(sign):
    # the string "plus" used to measure the minus outcome
    with pytest.raises(InvalidParameterError, match="sign must be a Sign"):
        ProjectiveMeasurement(0.3, sign)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    z=st.floats(0.0, 1.0),
    theta=st.floats(-10.0, 10.0),
    sign=st.sampled_from(Sign),
    share=st.floats(-1.0, 1.0),
)
def test_measurement_identities_property(z, theta, sign, share):
    out = measure(WernerState(z), ProjectiveMeasurement(theta, sign))
    assert abs(out.probability - 0.5) <= 1e-14
    want = z * math.cos(2.0 * theta)
    assert abs(out.delta - (want if sign is Sign.PLUS else -want)) <= 1e-12
    rho = out.density_matrix
    assert np.array_equal(rho, rho.T) and not rho.imag.any()
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-15
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    target = share * z
    theta_t, sign_t = angle_for_target_delta(z, target)
    reached = measure(WernerState(z), ProjectiveMeasurement(theta_t, sign_t))
    assert abs(reached.delta - target) <= 1e-12
