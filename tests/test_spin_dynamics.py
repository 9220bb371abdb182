import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwbench.dirac import energy
from fwbench.spin_dynamics import (
    FieldConfig,
    omega_edm,
    omega_mdm,
    omega_noninertial,
    omega_total,
    propagate_classical,
    propagate_quantum,
    sigma_expectation,
    spinor_from_direction,
)


def test_rest_frame_magnetic_precession():
    cfg = FieldConfig(b_field=(0, 0, 2.0), charge=1.0, a_mm=0.1)
    w = omega_total(np.zeros(3), 1.0, cfg)
    assert np.allclose(w, [0, 0, -(1.0 / 1.0) * 1.1 * 2.0], atol=1e-15)


def test_rest_frame_edm_precession():
    cfg = FieldConfig(e_field=(3.0, 0, 0), charge=1.0, eta=0.4)
    w = omega_total(np.zeros(3), 2.0, cfg)
    assert np.allclose(w, [-(0.4 / 4.0) * 3.0, 0, 0], atol=1e-15)


def test_momentum_cross_electric_term():
    # p=(3,0,0), m=4, E along y, a=0: only (1/eps)(m/(eps+m)) p x E survives,
    # giving e E0 p / (eps (eps+m)) along z = e E0 / 15 for unit inputs
    cfg = FieldConfig(e_field=(0, 1.0, 0), charge=1.0)
    w = omega_total(np.array([3.0, 0, 0]), 4.0, cfg)
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
    assert np.allclose(omega_edm(p, m, cfg), expected, atol=1e-14)


def test_spin_zero_has_no_precession():
    cfg = FieldConfig(b_field=(1.0, 1.0, 1.0), e_field=(0.5, 0, 0), a_mm=0.2)
    assert np.array_equal(omega_total(np.ones(3), 1.0, cfg, spin=0), np.zeros(3))


def test_spin_one_reuses_the_same_formula():
    cfg = FieldConfig(b_field=(0.4, -0.2, 1.0), e_field=(0.1, 0.9, 0.0),
                      a_mm=0.05, eta=0.2, charge=-1.0)
    p = np.array([0.7, -1.1, 2.0])
    assert np.array_equal(omega_total(p, 1.0, cfg, spin=0.5),
                          omega_total(p, 1.0, cfg, spin=1))


def test_unsupported_spin_rejected():
    with pytest.raises(ValueError):
        omega_total(np.zeros(3), 1.0, FieldConfig(), spin=0.75)


def test_mdm_requires_positive_mass():
    with pytest.raises(ValueError):
        omega_mdm(np.zeros(3), 0.0, FieldConfig(b_field=(0, 0, 1.0)))


def test_noninertial_cases():
    cfg = FieldConfig(frame_omega=(0.1, 0.2, 0.3))
    assert np.allclose(omega_noninertial(np.zeros(3), 1.0, cfg), [-0.1, -0.2, -0.3])
    cfg2 = FieldConfig(frame_accel=(2.0, 0, 0), frame_omega=(0.1, 0.2, 0.3))
    p_parallel = np.array([5.0, 0.0, 0.0])
    assert np.allclose(omega_noninertial(p_parallel, 1.0, cfg2),
                       [-0.1, -0.2, -0.3])
    cfg3 = FieldConfig(frame_accel=(2.0, 0, 0))
    q = 1.5
    p = np.array([0.0, q, 0.0])
    eps = energy(p, 1.0)
    assert np.allclose(omega_noninertial(p, 1.0, cfg3),
                       [0, 0, 2.0 * q / (eps + 1.0)], atol=1e-15)


def test_noninertial_quantum_classical_identical(frame_precession_oracle):
    rng = np.random.default_rng(8)
    for _ in range(20):
        cfg = FieldConfig(frame_accel=rng.normal(size=3),
                          frame_omega=rng.normal(size=3))
        p = rng.uniform(-5, 5, 3)
        m = rng.uniform(0.2, 5.0)
        q = omega_noninertial(p, m, cfg)
        c = frame_precession_oracle(p, m, cfg)
        assert np.max(np.abs(q - c)) <= 1e-12


def test_frame_drag_limit():
    cfg = FieldConfig(frame_omega=(0.0, 0.0, 1.7))
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = rng.uniform(-5, 5, 3)
        assert np.array_equal(omega_noninertial(p, 1.0, cfg), [0, 0, -1.7])


def test_mdm_transverse_field_magnitude_regression():
    # a = 0, E = 0, p perpendicular to B: |W| = (e/eps)|B| exactly
    m, e_charge, b0 = 1.0, -1.0, 1.4
    cfg = FieldConfig(b_field=(0, 0, b0), charge=e_charge)
    p = np.array([2.0, -1.0, 0.0])
    eps = energy(p, m)
    w = omega_mdm(p, m, cfg)
    assert np.allclose(w, [0, 0, -e_charge * b0 / eps * (m / m)], atol=1e-14)
    assert np.linalg.norm(w) == pytest.approx(abs(e_charge) * b0 / eps, abs=1e-14)


def test_rodrigues_rotation_cases():
    s0 = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(propagate_classical(s0, np.zeros(3), 5.0), s0)
    axis = np.array([2.0, 0.0, 0.0])
    assert np.allclose(propagate_classical(s0, axis, 3.3), s0, atol=1e-15)
    w0 = 0.8
    rotated = propagate_classical(s0, np.array([0, 0, w0]), np.pi / (2 * w0))
    assert np.allclose(rotated, [0, 1, 0], atol=1e-14)


def test_quantum_trivial_cases():
    chi = spinor_from_direction((0, 0, 1))
    assert np.array_equal(propagate_quantum(chi, np.zeros(3), 2.0), chi)
    out = propagate_quantum(chi, np.array([0, 0, 1.3]), 4.2)
    assert np.allclose(sigma_expectation(out), [0, 0, 1], atol=1e-14)


def test_quantum_requires_normalized_spinor():
    with pytest.raises(ValueError):
        propagate_quantum(np.array([1.0, 1.0]), np.ones(3), 1.0)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_quantum_matches_classical_rotation(seed):
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    omega = rng.normal(size=3) * rng.uniform(0.1, 3.0)
    t = rng.uniform(0.0, 100.0 / max(np.linalg.norm(omega), 1e-3))
    chi = spinor_from_direction(direction)
    s_q = sigma_expectation(propagate_quantum(chi, omega, t))
    s_c = propagate_classical(direction, omega, t)
    assert np.max(np.abs(s_q - s_c)) <= 1e-12
    assert abs(np.linalg.norm(s_c) - 1.0) <= 1e-10


def test_classical_norm_preserved_long_times():
    s0 = np.array([0.6, 0.0, 0.8])
    omega = np.array([0.3, -1.0, 0.2])
    for t in (1.0, 10.0, 100.0 / np.linalg.norm(omega)):
        s = propagate_classical(s0, omega, t)
        assert abs(np.linalg.norm(s) - 1.0) <= 1e-10


def test_field_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(e_field=(1.0, np.nan, 0.0))
    with pytest.raises(ValueError):
        FieldConfig(b_field=(1.0, 2.0))
