from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fwbench.dirac import (
    ALPHA,
    BETA,
    GAMMA,
    PAULI,
    SIGMA,
    dirac_hamiltonian,
    energy,
    free_propagator,
    fw_unitary_matrix,
)
from fwbench.algebra import ClassicalState
from fwbench.eriksen import BlockedHamiltonian
from fwbench.grids import Grid1D
from fwbench.phase_ops import OperatorFamily, build_operator, snapshot
from fwbench.spin_dynamics import FieldConfig, angular_velocity
from fwbench.wavepacket import make_gaussian_packet

I4 = np.eye(4)


def test_clifford_relations_exact():
    assert np.array_equal(BETA @ BETA, I4 + 0j)
    for j in range(3):
        assert np.array_equal(BETA @ ALPHA[j] + ALPHA[j] @ BETA,
                              np.zeros((4, 4)) + 0j)
        for k in range(3):
            anti = ALPHA[j] @ ALPHA[k] + ALPHA[k] @ ALPHA[j]
            assert np.array_equal(anti, 2.0 * (j == k) * I4 + 0j)


def test_sigma_algebra_exact():
    levi = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    for (i, j), k in levi.items():
        comm = SIGMA[i] @ SIGMA[j] - SIGMA[j] @ SIGMA[i]
        assert np.array_equal(comm, 2j * SIGMA[k])
    for k in range(3):
        assert np.array_equal(SIGMA[k], SIGMA[k].conj().T)


def test_pi_and_gamma_definitions():
    # Pi_k = beta Sigma_k = diag(sigma_k, -sigma_k), built here from the Pauli set
    z = np.zeros((2, 2))
    for k in range(3):
        assert np.array_equal(BETA @ SIGMA[k], np.block([[PAULI[k], z], [z, -PAULI[k]]]))
        assert np.array_equal(GAMMA[k], BETA @ ALPHA[k])


def test_matrices_entrywise_exact_values():
    assert PAULI.shape == (3, 2, 2) and BETA.shape == (4, 4)
    assert ALPHA.shape == SIGMA.shape == GAMMA.shape == (3, 4, 4)
    allowed = {0.0, 1.0, -1.0}
    for m in (BETA, *ALPHA, *GAMMA, *SIGMA, *PAULI):
        for entry in m.ravel():
            assert entry.real in allowed and entry.imag in allowed


def test_energy_values():
    assert energy((0.0, 0.0, 0.0), 1.7) == pytest.approx(1.7, abs=0)
    assert energy((3.0, 0.0, 0.0), 4.0) == pytest.approx(5.0, abs=1e-15)
    assert energy((1.0, 2.0, 2.0), 0.0) == pytest.approx(3.0, abs=1e-15)
    with pytest.raises(ValueError):
        energy((1.0, 0.0, 0.0), -1.0)


def test_energy_of_points_stacks_and_odd_block_values():
    # one function for a single momentum, a stack of them and the 1-D grid
    # momenta of the eriksen odd block, bit for bit the forms it replaced:
    # sqrt(m^2 + p @ p) per point and sqrt(m^2 + p * p) per grid value
    rng = np.random.default_rng(11)
    for m in (0.0, 1e-3, 1.0, 1e3):
        ps = rng.standard_normal((200, 3)) * np.exp(rng.uniform(-5, 5, (200, 1)))
        stacked = energy(ps, m)
        assert stacked.shape == (200,)
        assert np.array_equal(stacked, [np.sqrt(m * m + p @ p) for p in ps])
        assert all(energy(p, m) == e for p, e in zip(ps, stacked))
        assert np.array_equal(energy(ps[:, :1], m), np.sqrt(m * m + ps[:, 0] * ps[:, 0]))


@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from([0.0, 0.5, 1.0, 10.0]))
@settings(max_examples=50, deadline=None)
def test_mass_shell_identity(seed, m):
    p = np.random.default_rng(seed).uniform(-10, 10, 3)
    h = dirac_hamiltonian(p, m)
    target = (m * m + p @ p) * I4
    assert np.linalg.norm(h @ h - target) <= 1e-12 * max(1.0, m * m + p @ p)


def test_mass_shell_identity_100_samples():
    rng = np.random.default_rng(42)
    for m in (0.0, 0.5, 1.0, 10.0):
        for _ in range(100):
            p = rng.uniform(-10, 10, 3)
            h = dirac_hamiltonian(p, m)
            resid = np.linalg.norm(h @ h - (m * m + p @ p) * I4)
            assert resid <= 1e-12 * max(1.0, m * m + p @ p)


@pytest.mark.parametrize("m", [0.0, 0.5, 10.0])
def test_stacked_matrices_match_per_point_formulas(m):
    ps = np.random.default_rng(7).uniform(-10, 10, (50, 3))
    hs = dirac_hamiltonian(ps, m)
    us, uis = fw_unitary_matrix(ps, m), fw_unitary_matrix(ps, m, inverse=True)
    assert hs.shape == us.shape == (50, 4, 4)
    for p, h, u, ui in zip(ps, hs, us, uis):
        assert np.array_equal(h, m * BETA + sum(p[k] * ALPHA[k] for k in range(3)))
        e = np.sqrt(m * m + p @ p)
        gp = sum(p[k] * GAMMA[k] for k in range(3))
        scale = np.sqrt(2 * e * (e + m))
        assert np.linalg.norm(u - ((e + m) * I4 + gp) / scale) <= 1e-15
        assert np.linalg.norm(ui - ((e + m) * I4 - gp) / scale) <= 1e-15
        assert np.linalg.norm(u @ ui - I4) <= 1e-14


@pytest.mark.parametrize("m", [0.0, 1.0, 4.0])
def test_free_propagator_matches_spectral_exponential(m):
    # expm scales and squares; the propagator uses H^2 = eps^2 instead
    ps = np.random.default_rng(3).uniform(-3, 3, (20, 3))
    eps = np.sqrt(m * m + np.sum(ps * ps, axis=1))
    hs = dirac_hamiltonian(ps, m)
    for t in (0.0, 0.4, 2.5):
        stack = free_propagator(hs, eps[:, None, None], t)
        for h, e, u in zip(hs, eps, stack):
            assert np.linalg.norm(u - scipy.linalg.expm(-1j * t * h)) <= 1e-12
            assert np.linalg.norm(u - free_propagator(h, e, t)) <= 1e-15


def test_fw_hamiltonian_is_beta_energy():
    # the catalogue row, at one momentum and over a stack, is beta eps
    ps = np.random.default_rng(4).uniform(-3, 3, (20, 3))
    for m in (0.5, 2.0):
        h = snapshot(build_operator(OperatorFamily.FW_HAMILTONIAN, m), ps).A
        assert np.array_equal(h, energy(ps, m)[:, None, None] * BETA)
        assert np.array_equal(snapshot(build_operator(OperatorFamily.FW_HAMILTONIAN, m),
                                       ps[0]).A, h[0])


def test_gamma_set_immutable():
    # each matrix constant, and every view of it, refuses a write in place
    for matrix in (PAULI, BETA, ALPHA, SIGMA, GAMMA):
        with pytest.raises(ValueError):
            matrix[..., 0, 0] = 5.0
        with pytest.raises(ValueError):
            matrix[0] *= 2.0
        with pytest.raises(ValueError):
            matrix.reshape(-1)[0] = 5.0


NON_FINITE = (np.nan, np.inf, -np.inf)
NOT_POSITIVE = (*NON_FINITE, 0.0, -1.0)
NEGATIVE_MASS = (*NON_FINITE, -1.0)
ZERO3 = np.zeros(3)
VECTORS = ("e_field", "b_field", "frame_accel", "frame_omega")


# each library entry point that takes one input, its rule's message and
# the inputs the rule rejects
ENTRY_POINTS = {
    "grid_length": (lambda x: Grid1D(n=8, length=x),
                    "box length must be positive and finite", NOT_POSITIVE),
    "packet_p0": (lambda x: make_gaussian_packet(x, 0.5, 1.0), "p0 must be finite", NON_FINITE),
    "packet_sigma_p": (lambda x: make_gaussian_packet(2.0, x, 1.0),
                       "sigma_p must be positive and finite", NOT_POSITIVE),
    "packet_mass": (lambda x: make_gaussian_packet(2.0, 0.5, x),
                    "mass must be positive and finite", NOT_POSITIVE),
    **{name: (lambda x, name=name: FieldConfig(**{name: (0.0, x, 0.0)}),
              f"{name} must be 3 finite numbers", NON_FINITE) for name in VECTORS},
    **{f"{name}_shape": (lambda x, name=name: FieldConfig(**{name: (x, x)}),
                         f"{name} must be 3 finite numbers", (0.0,)) for name in VECTORS},
    **{name: (lambda x, name=name: FieldConfig(**{name: x}), f"{name} must be finite", NON_FINITE)
       for name in ("charge", "a_mm", "eta")},
    "angular_velocity_mass": (lambda x: angular_velocity(ZERO3, x, FieldConfig()),
                              "mass must be positive and finite", NOT_POSITIVE),
    "classical_state_mass": (lambda x: ClassicalState(ZERO3, ZERO3, ZERO3, x),
                             "mass must be positive and finite", NOT_POSITIVE),
    "blocked_hamiltonian_mass": (lambda x: BlockedHamiltonian(p=np.zeros(2), V=np.eye(2), m=x),
                                 "mass must be finite and non-negative", NEGATIVE_MASS),
    "build_operator_mass": (lambda x: build_operator(OperatorFamily.FW_HAMILTONIAN, x),
                            "mass must be finite and non-negative", NEGATIVE_MASS),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_library_entry_points_apply_the_input_rules(entry):
    # each rejects every bad value with its rule's own ValueError, not a
    # subclass, so the library and the CLI's argument types say the same
    make, message, bad = ENTRY_POINTS[entry]
    for x in bad:
        with pytest.raises(ValueError, match=f"^{message}, got ") as exc:
            make(x)
        assert type(exc.value) is ValueError, x


def test_each_input_rule_message_is_spelled_once():
    # the rules live in dirac.py; an inline copy of one elsewhere in the
    # package would let the two drift apart
    sources = {path.name: path.read_text()
               for path in (Path(__file__).resolve().parents[1] / "src" / "fwbench").glob("*.py")}
    for message in ("must be finite,", "must be positive and finite",
                    "must be finite and non-negative", "must be 3 finite numbers"):
        spelled = {name: text.count(message)
                   for name, text in sources.items() if message in text}
        assert spelled == {"dirac.py": 1}, (message, spelled)
