import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwbench.dirac import energy
from fwbench.spin_dynamics import (
    FieldConfig,
    angular_velocity,
    propagate_classical,
    propagate_quantum,
    sigma_expectation,
    spinor_from_direction,
    unit_direction,
)


def test_rest_frame_magnetic_precession():
    cfg = FieldConfig(b_field=(0, 0, 2.0), charge=1.0, a_mm=0.1)
    w = angular_velocity(np.zeros(3), 1.0, cfg)
    assert np.allclose(w, [0, 0, -(1.0 / 1.0) * 1.1 * 2.0], atol=1e-15)


def test_rest_frame_edm_precession():
    cfg = FieldConfig(e_field=(3.0, 0, 0), charge=1.0, eta=0.4)
    w = angular_velocity(np.zeros(3), 2.0, cfg)
    assert np.allclose(w, [-(0.4 / 4.0) * 3.0, 0, 0], atol=1e-15)


def test_momentum_cross_electric_term():
    # p=(3,0,0), m=4, E along y, a=0: only (1/eps)(m/(eps+m)) p x E survives,
    # giving e E0 p / (eps (eps+m)) along z = e E0 / 15 for unit inputs
    cfg = FieldConfig(e_field=(0, 1.0, 0), charge=1.0)
    w = angular_velocity(np.array([3.0, 0, 0]), 4.0, cfg)
    assert np.allclose(w, [0, 0, 3.0 / 45.0], atol=1e-15)


def test_edm_momentum_terms():
    p = np.array([1.0, 2.0, -0.5])
    m = 1.5
    cfg = FieldConfig(e_field=(0.3, -1.0, 0.8), b_field=(1.0, 0.2, 0.0),
                      charge=-1.0, eta=0.7)
    eps = energy(p, m)
    expected = -(-1.0 * 0.7 / (2 * m)) * (
        cfg.e_field - (p @ cfg.e_field) * p / (eps * (eps + m))
        + np.cross(p, cfg.b_field) / eps)
    edm = angular_velocity(p, m, cfg) - angular_velocity(p, m, dataclasses.replace(cfg, eta=0.0))
    assert np.allclose(edm, expected, atol=1e-14)


def test_mdm_requires_positive_mass():
    with pytest.raises(ValueError):
        angular_velocity(np.zeros(3), 0.0, FieldConfig(b_field=(0, 0, 1.0)))
    with pytest.raises(ValueError, match="^mass must be positive and finite, got 0.0"):
        angular_velocity(np.zeros(3), 0.0, FieldConfig(e_field=(1.0, 0, 0), eta=0.5))


def test_noninertial_cases():
    cfg = FieldConfig(frame_omega=(0.1, 0.2, 0.3))
    assert np.allclose(angular_velocity(np.zeros(3), 1.0, cfg), [-0.1, -0.2, -0.3])
    cfg2 = FieldConfig(frame_accel=(2.0, 0, 0), frame_omega=(0.1, 0.2, 0.3))
    p_parallel = np.array([5.0, 0.0, 0.0])
    assert np.allclose(angular_velocity(p_parallel, 1.0, cfg2),
                       [-0.1, -0.2, -0.3])
    cfg3 = FieldConfig(frame_accel=(2.0, 0, 0))
    q = 1.5
    p = np.array([0.0, q, 0.0])
    eps = energy(p, 1.0)
    assert np.allclose(angular_velocity(p, 1.0, cfg3),
                       [0, 0, 2.0 * q / (eps + 1.0)], atol=1e-15)


def test_noninertial_quantum_classical_identical(frame_precession_oracle):
    rng = np.random.default_rng(8)
    for _ in range(20):
        cfg = FieldConfig(frame_accel=rng.normal(size=3),
                          frame_omega=rng.normal(size=3))
        p = rng.uniform(-5, 5, 3)
        m = rng.uniform(0.2, 5.0)
        q = angular_velocity(p, m, cfg)
        c = frame_precession_oracle(p, m, cfg)
        assert np.max(np.abs(q - c)) <= 1e-12


def test_frame_drag_limit():
    cfg = FieldConfig(frame_omega=(0.0, 0.0, 1.7))
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = rng.uniform(-5, 5, 3)
        assert np.array_equal(angular_velocity(p, 1.0, cfg), [0, 0, -1.7])


def test_mdm_transverse_field_magnitude_regression():
    # a = 0, E = 0, p perpendicular to B: |W| = (e/eps)|B| exactly
    m, e_charge, b0 = 1.0, -1.0, 1.4
    cfg = FieldConfig(b_field=(0, 0, b0), charge=e_charge)
    p = np.array([2.0, -1.0, 0.0])
    eps = energy(p, m)
    w = angular_velocity(p, m, cfg)
    assert np.allclose(w, [0, 0, -e_charge * b0 / eps * (m / m)], atol=1e-14)
    assert np.linalg.norm(w) == pytest.approx(abs(e_charge) * b0 / eps, abs=1e-14)


def test_rodrigues_rotation_cases():
    s0 = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(propagate_classical(s0, np.zeros(3), [5.0]), [s0])
    axis = np.array([2.0, 0.0, 0.0])
    assert np.allclose(propagate_classical(s0, axis, [3.3]), [s0], atol=1e-15)
    w0 = 0.8
    rotated = propagate_classical(s0, np.array([0, 0, w0]), [np.pi / (2 * w0)])
    assert np.allclose(rotated, [[0, 1, 0]], atol=1e-14)


def test_quantum_trivial_cases():
    chi = spinor_from_direction((0, 0, 1))
    assert np.array_equal(propagate_quantum(chi, np.zeros(3), [2.0]), [chi])
    out = propagate_quantum(chi, np.array([0, 0, 1.3]), [4.2])
    assert np.allclose(sigma_expectation(out), [[0, 0, 1]], atol=1e-14)


def test_quantum_requires_normalized_spinor():
    with pytest.raises(ValueError):
        propagate_quantum(np.array([1.0, 1.0]), np.ones(3), [1.0])
    with pytest.raises(ValueError, match="nonzero"):   # no spinor points nowhere
        spinor_from_direction((0, 0, 0))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_quantum_matches_classical_rotation(seed):
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    omega = rng.normal(size=3) * rng.uniform(0.1, 3.0)
    times = rng.uniform(0.0, 100.0 / max(np.linalg.norm(omega), 1e-3), 4)
    chi = spinor_from_direction(direction)
    s_q = sigma_expectation(propagate_quantum(chi, omega, times))
    s_c = propagate_classical(direction, omega, times)
    assert np.max(np.abs(s_q - s_c)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(s_c, axis=1) - 1.0)) <= 1e-10


def test_classical_norm_preserved_long_times():
    s0 = np.array([0.6, 0.0, 0.8])
    omega = np.array([0.3, -1.0, 0.2])
    s = propagate_classical(s0, omega, [1.0, 10.0, 100.0 / np.linalg.norm(omega)])
    assert np.max(np.abs(np.linalg.norm(s, axis=1) - 1.0)) <= 1e-10


def test_spinor_points_along_its_direction():
    # within about 1e-8 of the z axis 1 - n_z rounds to 0, so the polar
    # angle must come from the transverse part, not from arccos(n_z)
    rng = np.random.default_rng(45)
    near_poles = [(1e-9, 0.0, 1.0), (5e-324, 1e-10, 0.5), (0.0, -3e-9, -1.0),
                  (1e-8, 1e-8, -1.0), (-2e-12, 5e-13, 7.0), (1e-300, 0.0, -1e-291)]
    for d in [*near_poles, *rng.normal(size=(500, 3))]:
        s = sigma_expectation(spinor_from_direction(d))
        assert np.max(np.abs(s - unit_direction(d))) <= 4 * np.finfo(float).eps, d


def test_field_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(e_field=(1.0, np.nan, 0.0))
    with pytest.raises(ValueError):
        FieldConfig(b_field=(1.0, 2.0))


@pytest.mark.parametrize("name", ["charge", "a_mm", "eta"])
def test_field_config_rejects_non_finite_scalars(name):
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            FieldConfig(b_field=(0, 0, 1.0), **{name: value})


@pytest.mark.parametrize("omega", [(0.3, -1.1, 0.7), (0.0, 0.0, 0.0)], ids=["omega", "zero"])
@pytest.mark.parametrize("times", [np.linspace(-7.5, 30.0, 11), np.array([])],
                         ids=["grid", "empty"])
def test_time_grid_propagators_match_per_time_calls(omega, times):
    # one call over the grid is the stack of one-time calls, bit for bit;
    # the grid holds negative times, and an empty grid gives empty stacks
    s0 = np.array([0.6, 0.0, 0.8])
    chi0 = spinor_from_direction(s0)
    s_c = propagate_classical(s0, omega, times)
    chi = propagate_quantum(chi0, omega, times)
    s_q = sigma_expectation(chi)
    assert s_c.shape == s_q.shape == (len(times), 3) and chi.shape == (len(times), 2)
    for k, t in enumerate(times):
        assert np.array_equal(s_c[k], propagate_classical(s0, omega, [t])[0])
        assert np.array_equal(chi[k], propagate_quantum(chi0, omega, [t])[0])
        assert np.array_equal(s_q[k], sigma_expectation(chi[k]))
