import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from fwbench.dirac import ALPHA, BETA, dirac_hamiltonian, energy
from fwbench.cli import main
from fwbench.phase_ops import DomainError, OperatorFamily, build_operator, snapshot
from fwbench.zitter import dominant_frequency, record_evolution
from oracles import (fv_hamiltonian_matrix, fv_velocity_matrix, spectrum_drift,
                     stacked_record)

I4 = np.eye(4, dtype=complex)
RNG = np.random.default_rng(42)


def test_velocity_initial_condition():
    for c in range(3):
        v = record_evolution(RNG.uniform(-3, 3, 3), 1.0, [0.0], c).velocity[0]
        assert np.array_equal(v, ALPHA[c] + 0j)


def test_rest_frame_oscillation_at_twice_mass():
    # v(t) = alpha exp(-2 i beta m t) at p = 0
    m = 1.3
    times = (0.0, 0.4, 1.1)
    for t, v in zip(times, record_evolution(np.zeros(3), m, times, 0).velocity):
        expected = ALPHA[0] @ (np.cos(2 * m * t) * I4
                                     - 1j * np.sin(2 * m * t) * BETA)
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
            numeric = heisenberg_oracle(h, ALPHA[c], t)
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
    h_inv = BETA / m
    amp = 0.5j * ALPHA[0] @ h_inv
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


# masses and momenta along z from deep inside to far outside |p| ~ m, and
# (0.3, 2.7), where v - p_k H / eps^2 leaves a 1-ulp residue of the FW velocity
SPLIT_LADDER = [(m, pz) for m in (1e-3, 1.0, 1e3) for pz in (1e-3, 0.1, 2.7, 1e4)] + [(0.3, 2.7)]


def _row(family, m, p, component=None):
    return snapshot(build_operator(family, m, component), p).A


def test_fw_velocity_values():
    # the catalogue rows are beta eps and beta (p_c / eps) bit for bit, with
    # eps = sqrt(m^2 + p.p) formed here and p_c / eps divided in real arithmetic
    for m, pz in SPLIT_LADDER:
        p = np.array([0.0, 0.0, pz])
        eps = np.sqrt(m * m + p @ p)
        assert np.array_equal(_row(OperatorFamily.FW_HAMILTONIAN, m, p), BETA * eps)
        for c in range(3):
            assert np.array_equal(_row(OperatorFamily.FW_VELOCITY, m, p, c + 1),
                                  BETA * (p[c] / eps)), (m, pz, c)
    assert np.allclose(_row(OperatorFamily.FW_VELOCITY, 4.0, np.array([3.0, 0, 0]), 1),
                       0.6 * BETA)
    assert np.linalg.norm(_row(OperatorFamily.FW_VELOCITY, 1.0, np.zeros(3), 2)) == 0.0
    with pytest.raises(DomainError):
        _row(OperatorFamily.FW_VELOCITY, 0.0, np.zeros(3), 1)


def _ladder_and_random_momenta():
    """(m, p) over the split ladder along z and 15 random 3-D momenta."""
    moments = [(m, np.array([0.0, 0.0, pz])) for m, pz in SPLIT_LADDER]
    rng = np.random.default_rng(7)
    return moments + [(m, rng.uniform(-4, 4, 3)) for m in (0.5, 1.0, 4.0) for _ in range(5)]


@pytest.mark.parametrize("hamiltonian,velocity", [
    (OperatorFamily.DIRAC_HAMILTONIAN, OperatorFamily.DIRAC_VELOCITY),
    (OperatorFamily.FW_HAMILTONIAN, OperatorFamily.FW_VELOCITY)], ids=["dirac", "fw"])
def test_velocity_rows_are_the_hamiltonian_gradients(hamiltonian, velocity):
    # Hamilton's v_c = d H / d p_c: each velocity row is its Hamiltonian
    # row's exact gradient bit for bit, so the suites that read the velocity
    # row and the trembling record that reads the gradient see one matrix
    for m, p in _ladder_and_random_momenta():
        dA = snapshot(build_operator(hamiltonian, m), p).dA
        for c in range(3):
            assert np.array_equal(_row(velocity, m, p, c + 1), dA[c]), (m, p, c)


@pytest.mark.parametrize("particle", ["dirac", "fv", "fw"])
def test_record_starts_at_the_particle_velocity(particle):
    # v(0) of the record is alpha_c, (rho_3 + i rho_2) p_c / m or
    # beta (p_c / eps), each formed here without the catalogue, bit for bit
    for m, p in _ladder_and_random_momenta():
        eps = np.sqrt(m * m + p @ p)
        for c in range(3):
            want = {"dirac": ALPHA[c], "fv": fv_velocity_matrix(p, m, c),
                    "fw": BETA * (p[c] / eps)}[particle]
            got = record_evolution(p, m, [0.0], c, particle).velocity[0]
            assert np.array_equal(got, want), (m, p, c)


def test_fw_velocity_is_constant_of_motion(heisenberg_oracle):
    # both FW matrices are diagonal, so [H, v] and the anticommuting part
    # O_- = H [H, v] / (2 eps^2) are exactly zero, and the record holds v(0)
    # at every time
    times = np.linspace(0.0, 50.0, 7)
    for m, pz in SPLIT_LADDER:
        p = np.array([0.0, 0.0, pz])
        for c in range(3):
            rec = record_evolution(p, m, times, c, "fw")
            v0 = _row(OperatorFamily.FW_VELOCITY, m, p, c + 1)
            assert not np.any(rec.velocity_coeffs[:3]) and not np.any(rec.position_coeffs[1:])
            assert np.array_equal(rec.velocity, np.broadcast_to(v0, (7, 4, 4)))
    m, p = 0.3, np.array([0.0, 0.0, 2.7])
    h = _row(OperatorFamily.FW_HAMILTONIAN, m, p)
    v = _row(OperatorFamily.FW_VELOCITY, m, p, 3)
    for t in (0.5, 7.0, 50.0):
        assert np.linalg.norm(heisenberg_oracle(h, v, t) - v) <= 1e-12


@pytest.mark.parametrize("particle", ["dirac", "fv"])
def test_commuting_part_of_the_velocity_is_p_over_h(particle):
    # {H, v} = 2 p_k, so for the Dirac and scalar-sector velocity
    # O_+ = p_k H^-1, here with H^-1 = H / (m^2 + p.p), and O_- = v - O_+.
    # The bound is relative to p_k H^-1: 1e-14 ||H^-1|| alone is below one
    # ulp of O_+ once |p_k| > 45.  Splitting by H [H, v] / (2 eps^2) instead
    # misses by 1e-3 of it for the scalar-sector H at m = 1e-3, p = 1e4.
    ham = {"dirac": dirac_hamiltonian, "fv": fv_hamiltonian_matrix}[particle]
    moments = [(m, np.array([0.0, 0.0, pz])) for m, pz in SPLIT_LADDER]
    moments += [(m, RNG.uniform(-4, 4, 3)) for m in (0.5, 1.0, 4.0) for _ in range(5)]
    for m, p in moments:
        h_inv = ham(p, m) / (m * m + p @ p)
        for c in range(3):
            v0 = ALPHA[c] if particle == "dirac" else fv_velocity_matrix(p, m, c)
            coeffs = record_evolution(p, m, [0.0], c, particle).velocity_coeffs
            exact = p[c] * h_inv
            assert np.linalg.norm(coeffs[3] - exact) <= 1e-14 * np.linalg.norm(exact)
            assert np.array_equal(coeffs[1], v0 - coeffs[3]), (m, p, c)


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


@pytest.mark.parametrize("particle", ["dirac", "fv"])
@pytest.mark.parametrize("m", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("p", [(0.0, 0.0, 0.0), (0.3, -1.1, 0.8), (2.0, 0.5, -3.0)])
def test_closed_form_record_matches_stacked_propagators(particle, m, p):
    # the stored coefficients expand to the stacks one propagator per time gives
    times = np.linspace(-2.0, 12.0, 64)
    for c in range(3):
        rec = record_evolution(p, m, times, c, particle)
        for got, want in zip((rec.velocity, rec.position),
                             stacked_record(p, m, times, c, particle)):
            scale = max(1.0, np.linalg.norm(want))
            assert np.linalg.norm(got - want) <= 1e-15 * scale, (c, particle)
        one = rec.entry(0, 1)
        for got, want in ((one.velocity, rec.velocity), (one.position, rec.position)):
            assert np.max(np.abs(got - want[:, 0, 1])) <= 1e-15 * max(1.0, np.abs(want).max())


def _traced_peak(fn) -> int:
    """Bytes traced by tracemalloc at the peak of fn(), above those held before."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_record_memory_stays_linear_in_times():
    # the record holds a (T, 4) basis, not (T, d, d) stacks: a stacked
    # record at T = 4000 and its temporaries take about 4.4 MB
    p, times = np.array([0.0, 0.0, 1.0]), np.linspace(0.0, 10.0, 4000)
    assert _traced_peak(lambda: record_evolution(p, 1.0, times, 2)) <= 0.5e6

    def cli():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["zitter"]) == 0
    cli()   # parser and first-call set-up
    assert _traced_peak(cli) <= 2.0e6


def test_trembling_frequency_and_amplitude_across_momenta():
    # over 30 periods at m = 1 the frequency is twice the energy, and the
    # trembling amplitude, the 2-norm of the position's cos(2 eps t)
    # coefficient, is m / (2 eps^2) for the Dirac alpha_z and p / (2 eps^2)
    # for the scalar-sector velocity: Compton scale, falling with energy
    m = 1.0
    for pz in np.linspace(0.1, 5.0, 25):
        p = np.array([0.0, 0.0, pz])
        eps = energy(p, m)
        times = np.linspace(0.0, 30 * np.pi / eps, 3000)
        for particle, elem, amplitude in (("dirac", (0, 2), m), ("fv", (0, 1), pz)):
            rec = record_evolution(p, m, times, 2, particle)
            freq = dominant_frequency(times, rec.entry(*elem).velocity)
            assert abs(freq - 2 * eps) <= 1e-6 * 2 * eps, (particle, pz, freq)
            assert np.linalg.norm(rec.position_coeffs[1], 2) == pytest.approx(
                amplitude / (2 * eps**2), rel=1e-10, abs=0), (particle, pz)


def test_record_rejects_unknown_particle():
    with pytest.raises(ValueError, match="particle"):
        record_evolution(np.ones(3), 1.0, [0.0, 1.0], 0, "scalar")


def test_structural_identity_between_dirac_and_fv_records():
    # both representations share v(t) = (v0 - p/H) phase(t) + p/H:
    # extracting drift and oscillatory coefficients from samples returns the
    # closed-form ingredients in either case
    p = np.array([0.0, 0.0, 1.2])
    m = 1.0
    eps = energy(p, m)
    period = np.pi / eps
    for particle, ham, v0 in (
        ("dirac", dirac_hamiltonian(p, m), ALPHA[2]),
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
