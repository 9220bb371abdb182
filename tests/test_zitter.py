import numpy as np
import pytest

from fwbench.dirac import (
    GAMMA,
    dirac_hamiltonian,
    energy,
    fv_hamiltonian_matrix,
    fv_velocity_matrix,
)
from fwbench.zitter import dominant_frequency, fw_velocity, record_evolution
from oracles import spectrum_drift

I4 = np.eye(4, dtype=complex)
RNG = np.random.default_rng(42)


def test_velocity_initial_condition():
    for c in range(3):
        v = record_evolution(RNG.uniform(-3, 3, 3), 1.0, [0.0], c).velocity[0]
        assert np.array_equal(v, GAMMA.alpha[c] + 0j)


def test_rest_frame_oscillation_at_twice_mass():
    # v(t) = alpha exp(-2 i beta m t) at p = 0
    m = 1.3
    times = (0.0, 0.4, 1.1)
    for t, v in zip(times, record_evolution(np.zeros(3), m, times, 0).velocity):
        expected = GAMMA.alpha[0] @ (np.cos(2 * m * t) * I4
                                     - 1j * np.sin(2 * m * t) * GAMMA.beta)
        assert np.linalg.norm(v - expected) <= 1e-13


def test_time_average_leaves_drift():
    p = np.array([1.0, -0.5, 0.3])
    m = 1.0
    eps = energy(p, m)
    h = dirac_hamiltonian(p, m)
    period = np.pi / eps
    times = np.linspace(0.0, period, 2001)
    avg = record_evolution(p, m, times[:-1], 0).velocity.mean(axis=0)
    drift = p[0] * h / eps**2
    assert np.linalg.norm(avg - drift) <= 1e-3


def test_velocity_satisfies_equation_of_motion():
    p = np.array([0.7, 1.1, -0.2])
    m = 0.8
    h = dirac_hamiltonian(p, m)
    dt = 1e-6
    for t0 in (0.0, 0.9):
        for c in range(3):
            vp, vm, v0 = record_evolution(p, m, [t0 + dt, t0 - dt, t0], c).velocity
            rhs = 2j * (p[c] * I4 - v0 @ h)
            assert np.linalg.norm((vp - vm) / (2 * dt) - rhs) <= 1e-9


def test_heisenberg_numeric_trivial_cases(heisenberg_oracle):
    h = dirac_hamiltonian(np.array([1.0, 0, 0]), 1.0)
    o = 3.7 * I4
    assert np.linalg.norm(heisenberg_oracle(h, o, 0.0) - o) <= 1e-14
    assert np.linalg.norm(heisenberg_oracle(h, h, 2.5) - h) <= 1e-12


@pytest.mark.parametrize("m,t", [(1.0, 0.7), (4.0, 0.1), (0.5, 3.0)])
def test_closed_velocity_matches_numeric_heisenberg(m, t, heisenberg_oracle):
    for _ in range(5):
        p = RNG.uniform(-4, 4, 3)
        h = dirac_hamiltonian(p, m)
        for c in range(3):
            numeric = heisenberg_oracle(h, GAMMA.alpha[c], t)
            closed = record_evolution(p, m, [t], c).velocity[0]
            assert np.linalg.norm(numeric - closed) <= 1e-9


def test_closed_position_matches_numeric_heisenberg(heisenberg_position_oracle):
    m = 1.0
    for t in (0.3, 1.7):
        for _ in range(3):
            p = RNG.uniform(-3, 3, 3)
            for c in range(3):
                numeric = heisenberg_position_oracle(p, m, t, c)
                closed = record_evolution(p, m, [t], c).position[0]
                assert np.linalg.norm(numeric - closed) <= 1e-8


def test_position_oscillation_amplitude_at_rest():
    # one Compton wavelength scale: spectral norm 1/(2m) at p = 0
    m = 1.0
    h_inv = GAMMA.beta / m
    amp = 0.5j * GAMMA.alpha[0] @ h_inv
    assert np.linalg.norm(amp, 2) == pytest.approx(0.5 / m, abs=1e-14)
    assert np.linalg.norm(record_evolution(np.zeros(3), m, [0.0], 0).position) == 0.0


def test_position_drift_matches_velocity_average():
    p = np.array([2.0, 0.0, 1.0])
    m = 1.0
    eps = energy(p, m)
    h = dirac_hamiltonian(p, m)
    period = np.pi / eps
    t1, t2 = 5 * period, 9 * period
    for c in range(3):
        r1, r2 = record_evolution(p, m, [t1, t2], c).position
        slope = (r2 - r1) / (t2 - t1)
        assert np.linalg.norm(slope - p[c] * h / eps**2) <= 1e-12


def test_fv_initial_velocity():
    p = np.array([1.0, -2.0, 0.4])
    m = 1.3
    for c in range(3):
        rec = record_evolution(p, m, [0.0], c, "fv")
        assert np.linalg.norm(rec.velocity[0] - fv_velocity_matrix(p, m, c)) == 0.0
        assert np.linalg.norm(rec.position[0]) == 0.0


def test_fv_rest_frame_velocity_vanishes():
    for c in range(3):
        rec = record_evolution(np.zeros(3), 1.0, [3.3], c, "fv")
        assert np.linalg.norm(rec.velocity) == 0.0 and np.linalg.norm(rec.position) == 0.0


def test_fv_equation_of_motion():
    p = np.array([0.9, 0.1, -1.2])
    m = 1.0
    h = fv_hamiltonian_matrix(p, m)
    dt = 1e-6
    for c in range(3):
        vp, vm = record_evolution(p, m, [dt, -dt], c, "fv").velocity
        rhs = 2j * (p[c] * np.eye(2) - fv_velocity_matrix(p, m, c) @ h)
        assert np.linalg.norm((vp - vm) / (2 * dt) - rhs) <= 1e-9


def test_fv_closed_matches_numeric_heisenberg(heisenberg_oracle):
    p = np.array([1.0, 0.0, 0.0])
    m = 1.0
    h = fv_hamiltonian_matrix(p, m)
    times = (0.2, 0.9, 2.4)
    for t, v in zip(times, record_evolution(p, m, times, 0, "fv").velocity):
        numeric = heisenberg_oracle(h, fv_velocity_matrix(p, m, 0), t)
        assert np.linalg.norm(v - numeric) <= 1e-9


def test_fv_position_matches_numeric(heisenberg_position_oracle):
    p = np.array([0.8, 0.0, 0.5])
    m = 1.0
    times = (0.4, 1.2)
    for c in range(3):
        for t, r in zip(times, record_evolution(p, m, times, c, "fv").position):
            numeric = heisenberg_position_oracle(p, m, t, c, "fv")
            assert np.linalg.norm(numeric - r) <= 1e-8


def test_fv_requires_positive_mass():
    with pytest.raises(ValueError):
        fv_hamiltonian_matrix(np.ones(3), 0.0)


def test_fw_velocity_values():
    assert np.allclose(fw_velocity(np.array([3.0, 0, 0]), 4.0, 0),
                       0.6 * GAMMA.beta)
    assert np.linalg.norm(fw_velocity(np.zeros(3), 1.0, 1)) == 0.0
    with pytest.raises(ValueError):
        fw_velocity(np.zeros(3), 0.0, 0)


def test_fw_velocity_is_constant_of_motion(heisenberg_oracle):
    p = np.array([1.0, 2.0, -0.3])
    m = 1.0
    h = energy(p, m) * GAMMA.beta
    v = fw_velocity(p, m, 2)
    assert np.linalg.norm(h @ v - v @ h) == 0.0
    for t in (0.5, 7.0, 50.0):
        assert np.linalg.norm(heisenberg_oracle(h, v, t) - v) <= 1e-12


@pytest.mark.parametrize("particle,elem", [("dirac", (0, 2)), ("fv", (0, 1))])
def test_oscillation_frequency_extraction(particle, elem):
    for pz, m in ((1.0, 1.0), (3.0, 4.0), (0.4, 0.5)):
        p = np.array([0.0, 0.0, pz])
        eps = energy(p, m)
        times = np.linspace(0.0, 40 * np.pi / eps, 4000)
        rec = record_evolution(p, m, times, 2, particle)
        freq = dominant_frequency(times, [v[elem] for v in rec.velocity])
        assert abs(freq - 2 * eps) / (2 * eps) <= 1e-6


def test_record_preserves_velocity_spectrum():
    p = np.array([0.0, 0.0, 1.0])
    times = np.linspace(0.0, 10.0, 64)
    rec = record_evolution(p, 1.0, times, 2, "dirac")
    assert rec.velocity.shape == rec.position.shape == (64, 4, 4)
    assert spectrum_drift(rec) <= 1e-10


@pytest.mark.parametrize("particle", ["dirac", "fv"])
def test_record_over_time_stack_matches_single_times(particle):
    # one broadcast call over the time axis gives each sample's matrices
    p = np.array([0.3, -1.1, 0.8])
    times = np.linspace(-2.0, 5.0, 9)
    rec = record_evolution(p, 0.7, times, 1, particle)
    for k, t in enumerate(times):
        one = record_evolution(p, 0.7, [t], 1, particle)
        assert np.linalg.norm(rec.velocity[k] - one.velocity[0]) <= 1e-15
        assert np.linalg.norm(rec.position[k] - one.position[0]) <= 1e-15


def test_record_rejects_unknown_particle():
    with pytest.raises(ValueError, match="particle"):
        record_evolution(np.ones(3), 1.0, [0.0, 1.0], 0, "fw")


def test_structural_identity_between_dirac_and_fv_records():
    # both representations share v(t) = (v0 - p/H) phase(t) + p/H:
    # extracting drift and oscillatory coefficients from samples returns the
    # closed-form ingredients in either case
    p = np.array([0.0, 0.0, 1.2])
    m = 1.0
    eps = energy(p, m)
    period = np.pi / eps
    for particle, ham, v0 in (
        ("dirac", dirac_hamiltonian(p, m), GAMMA.alpha[2]),
        ("fv", fv_hamiltonian_matrix(p, m), fv_velocity_matrix(p, m, 2)),
    ):
        times = np.linspace(0.0, period, 33)[:-1]
        rec = record_evolution(p, m, times, 2, particle)
        drift = rec.velocity.mean(axis=0)
        assert np.linalg.norm(drift - p[2] * ham / eps**2) <= 1e-12
        osc0 = rec.velocity[0] - drift
        assert np.linalg.norm(osc0 - (v0 - p[2] * ham / eps**2)) <= 1e-12


def test_dominant_frequency_needs_crossings():
    with pytest.raises(ValueError):
        dominant_frequency(np.linspace(0, 1, 50), np.ones(50))
