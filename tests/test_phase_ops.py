import numpy as np
import pytest

from fwbench.algebra import build_quantum_set
from fwbench.dirac import GAMMA, energy
from fwbench.phase_ops import (
    DomainError,
    NonUnitaryError,
    OperatorFamily,
    OpSnapshot,
    build_operator,
    coeff_derivative,
    commutator_snapshot,
    conjugate,
    constant_operator,
    evaluate,
    fw_unitary_free,
    fw_unitary_free_inv,
    hermiticity_residual,
    levi,
    multiplicative,
    op_commutator,
    snapshot,
)

I4 = np.eye(4, dtype=complex)
RNG = np.random.default_rng(42)
MOMENTA = [RNG.uniform(-5, 5, 3) for _ in range(12)]

F = OperatorFamily
MASSIVE_ONLY = {F.COM_POSITION_FW, F.COM_POSITION_DIRAC, F.LAB_SPIN_FW,
                F.LAB_SPIN_DIRAC, F.COM_OAM, F.FOUR_SPIN_SPACE, F.FOUR_SPIN_TIME,
                F.SPIN_PRIME, F.FV_HAMILTONIAN, F.FV_VELOCITY}


def cross_c(mats, p, c):
    return sum(levi(c, k, l) * p[l] * mats[k] for k in range(3) for l in range(3))


def p_dot(mats, p):
    return sum(p[k] * mats[k] for k in range(3))


# --- construction -----------------------------------------------------------

def test_fw_spin_momentum_independent():
    for c in (1, 2, 3):
        op = build_operator(F.FW_SPIN, 1.0, c)
        for p in MOMENTA[:4]:
            assert np.array_equal(evaluate(op, p).A, GAMMA.Sigma[c - 1] / 2)


def test_mean_spin_at_rest_is_half_sigma():
    for c in (1, 2, 3):
        op = build_operator(F.MEAN_SPIN_DIRAC, 1.0, c)
        assert np.allclose(evaluate(op, np.zeros(3)).A, GAMMA.Sigma[c - 1] / 2)


def test_nw_position_at_rest():
    m = 1.3
    op = build_operator(F.NW_POSITION_DIRAC, m, 2)
    val = evaluate(op, np.zeros(3))
    assert np.allclose(val.A, 1j * GAMMA.gamma[1] / (2 * m), atol=1e-14)
    assert np.allclose(val.B[1], 1j * I4)
    assert np.allclose(val.B[0], 0) and np.allclose(val.B[2], 0)


def test_fw_hamiltonian_value():
    op = build_operator(F.FW_HAMILTONIAN, 4.0)
    assert np.allclose(evaluate(op, np.array([3.0, 0, 0])).A, 5.0 * GAMMA.beta)


def test_momentum_value():
    op = build_operator(F.MOMENTUM, 1.0, 2)
    p = MOMENTA[0]
    val = evaluate(op, p)
    assert np.allclose(val.A, p[1] * I4)
    assert np.allclose(val.B, 0)


def test_projector_closed_form_and_idempotence():
    m = 1.0
    plus = build_operator(F.PROJECTOR_PLUS, m)
    minus = build_operator(F.PROJECTOR_MINUS, m)
    for p in MOMENTA[:6]:
        e = energy(p, m)
        a = evaluate(plus, p).A
        expected = 0.5 * (I4 + m / e * GAMMA.beta) + p_dot(GAMMA.alpha, p) / (2 * e)
        assert np.allclose(a, expected, atol=1e-12)
        assert np.linalg.norm(a @ a - a) <= 1e-12
        b = evaluate(minus, p).A
        assert np.allclose(a + b, I4, atol=1e-13)
        assert np.linalg.norm(a @ b) <= 1e-12


def test_component_validation():
    with pytest.raises(DomainError):
        build_operator(F.FW_POSITION, 1.0)          # missing component
    with pytest.raises(DomainError):
        build_operator(F.FW_POSITION, 1.0, 0)       # components are 1..3
    with pytest.raises(DomainError):
        build_operator(F.FW_HAMILTONIAN, 1.0, 1)    # scalar family


def test_massless_rejection_for_rest_frame_families():
    for fam in (F.COM_POSITION_FW, F.LAB_SPIN_FW, F.FOUR_SPIN_TIME, F.SPIN_PRIME):
        with pytest.raises(DomainError, match="positive mass"):
            build_operator(fam, 0.0, 1 if fam.is_vector else None)


@pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 10.0])
def test_exact_gradients_and_stacks(m):
    # every family and component, the free unitaries and the naive boost:
    # exact dA, dB against the Richardson oracle, and an (N, 3) stack against
    # N single-momentum snapshots
    ops = [build_operator(fam, m, c) for fam in OperatorFamily
           for c in ((1, 2, 3) if fam.is_vector else (None,))
           if m > 0 or fam not in MASSIVE_ONLY]
    ops += [fw_unitary_free(m), fw_unitary_free_inv(m)]
    if m > 0:
        ops += build_quantum_set("naive_dirac", m)["K"]
    ps = np.random.default_rng(23).uniform(-5, 5, (4, 3))
    for op in ops:
        stack = snapshot(op, ps)
        for n, p in enumerate(ps):
            single = snapshot(op, p)
            for key in ("A", "B", "dA", "dB"):
                assert np.array_equal(getattr(stack, key)[n], getattr(single, key))
            for k in range(3):
                for exact, coeff in ((single.dA[k], lambda q: evaluate(op, q).A),
                                     (single.dB[:, k], lambda q: evaluate(op, q).B)):
                    oracle = coeff_derivative(coeff, p, k)
                    bound = 1e-8 * max(1.0, np.linalg.norm(exact))
                    assert np.linalg.norm(exact - oracle) <= bound, (op.label, k)


def test_massless_singular_momentum_rejected():
    op = build_operator(F.NW_POSITION_DIRAC, 0.0, 1)
    with pytest.raises(DomainError, match="singular"):
        evaluate(op, np.array([1e-8, 0, 0]))
    val = evaluate(op, np.array([1.0, 0, 0]))       # fine away from the cone tip
    assert np.all(np.isfinite(val.A))


# --- commutation engine -------------------------------------------------------

def test_position_momentum_commutator():
    m = 1.0
    x1 = build_operator(F.FW_POSITION, m, 1)
    for (ci, cj) in ((1, 1), (1, 2)):
        xi = build_operator(F.FW_POSITION, m, ci)
        pj = build_operator(F.MOMENTUM, m, cj)
        val = op_commutator(xi, pj, MOMENTA[0])
        expected = 1j * I4 if ci == cj else np.zeros((4, 4))
        assert np.allclose(val.A, expected, atol=1e-12)
        assert np.linalg.norm(val.B) <= 1e-12
        assert np.linalg.norm(val.second) <= 1e-15


def test_position_components_commute_exactly():
    m = 1.0
    x1 = build_operator(F.FW_POSITION, m, 1)
    x2 = build_operator(F.FW_POSITION, m, 2)
    val = op_commutator(x1, x2, MOMENTA[1])
    assert val.norm() == 0.0


def test_hamiltonian_position_commutator_closed_form():
    h = build_operator(F.FW_HAMILTONIAN, 4.0)
    x1 = build_operator(F.FW_POSITION, 4.0, 1)
    val = op_commutator(h, x1, np.array([3.0, 0, 0]))
    assert np.allclose(val.A, -0.6j * GAMMA.beta, atol=1e-10)
    assert np.linalg.norm(val.B) <= 1e-10


def test_dirac_hamiltonian_position_commutator_is_minus_i_alpha():
    h = build_operator(F.DIRAC_HAMILTONIAN, 1.0)
    for c in (1, 2, 3):
        r = build_operator(F.FW_POSITION, 1.0, c)   # plain radius vector
        val = op_commutator(h, r, MOMENTA[2])
        assert np.allclose(val.A, -1j * GAMMA.alpha[c - 1], atol=1e-10)


def _loop_commutator(s1, s2):
    """The commutator formulas of commutator_snapshot with explicit sums over k."""
    A, B, dA, dB, C, D, dC, dD = s1.A, s1.B, s1.dA, s1.dB, s2.A, s2.B, s2.dA, s2.dB
    zero = A @ C - C @ A + sum(B[k] @ dC[k] - D[k] @ dA[k] for k in range(3))
    first = np.stack([A @ D[l] - D[l] @ A + B[l] @ C - C @ B[l]
                      + sum(B[k] @ dD[l, k] - D[k] @ dB[l, k] for k in range(3))
                      for l in range(3)])
    second = np.array([[0.5 * (B[k] @ D[l] + B[l] @ D[k] - D[k] @ B[l] - D[l] @ B[k])
                        for l in range(3)] for k in range(3)])
    return zero, first, second


def test_commutator_snapshot_matches_loop_reference():
    # random coefficients, so the second-order part does not vanish; one
    # snapshot is a read-only broadcast, as momentum-independent ones are
    rng = np.random.default_rng(8)
    n, d = 5, 4

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    s1 = OpSnapshot(d, rand(n, d, d), rand(n, 3, d, d), rand(n, 3, d, d), rand(n, 3, 3, d, d))
    s2 = OpSnapshot(d, rand(n, d, d), np.broadcast_to(rand(3, d, d), (n, 3, d, d)),
                    rand(n, 3, d, d), np.broadcast_to(rand(3, 3, d, d), (n, 3, 3, d, d)))
    for a, b in ((s1, s2), (s2, s1)):
        val = commutator_snapshot(a, b)
        for i in range(n):
            at = [OpSnapshot(d, x.A[i], x.B[i], x.dA[i], x.dB[i]) for x in (a, b)]
            zero, first, second = _loop_commutator(*at)
            assert np.linalg.norm(second) > 1.0
            for got, ref in ((val.A[i], zero), (val.B[i], first), (val.second[i], second)):
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_second_order_part_vanishes_for_boost_pair():
    m = 1.0
    k1 = build_operator(F.BOOST_FW, m, 1)
    k2 = build_operator(F.BOOST_FW, m, 2)
    val = op_commutator(k1, k2, MOMENTA[3])
    assert np.linalg.norm(val.second) <= 1e-12


def test_dim_mismatch_rejected():
    a = build_operator(F.FW_HAMILTONIAN, 1.0)
    b = build_operator(F.FV_HAMILTONIAN, 1.0)
    with pytest.raises(DomainError):
        op_commutator(a, b, MOMENTA[0])


# --- representation change ----------------------------------------------------

def test_fw_unitary_free_properties():
    m = 1.0
    u_op, ui_op = fw_unitary_free(m), fw_unitary_free_inv(m)
    assert np.allclose(evaluate(u_op, np.zeros(3)).A, I4)
    for p in MOMENTA[:8]:
        u = evaluate(u_op, p).A
        ui = evaluate(ui_op, p).A
        assert np.linalg.norm(u @ u.conj().T - I4) <= 1e-12
        assert np.linalg.norm(u @ ui - I4) <= 1e-12
        # odd exponential generator condition
        assert np.linalg.norm(GAMMA.beta @ u - u.conj().T @ GAMMA.beta) <= 1e-12


def test_fw_unitary_free_massless_needs_nonzero_momentum():
    u = fw_unitary_free(0.0)
    with pytest.raises(DomainError):
        evaluate(u, np.zeros(3))
    val = evaluate(u, np.array([0.0, 0.0, 2.0])).A
    assert np.linalg.norm(val @ val.conj().T - I4) <= 1e-12


def test_conjugating_dirac_hamiltonian_gives_block_diagonal():
    m = 1.0
    hd = build_operator(F.DIRAC_HAMILTONIAN, m)
    hfw = conjugate(hd, fw_unitary_free(m), fw_unitary_free_inv(m))
    for p in MOMENTA[:6]:
        assert np.linalg.norm(evaluate(hfw, p).A - energy(p, m) * GAMMA.beta) <= 1e-12


@pytest.mark.parametrize("m", [0.5, 1.0, 10.0])
def test_conjugation_reproduces_mean_spin_closed_form(m):
    u, ui = fw_unitary_free(m), fw_unitary_free_inv(m)
    rng = np.random.default_rng(11)
    for c in (1, 2, 3):
        s_fw = build_operator(F.FW_SPIN, m, c)
        s_dirac = conjugate(s_fw, ui, u)
        oracle = build_operator(F.MEAN_SPIN_DIRAC, m, c)
        for _ in range(17):
            p = rng.uniform(-5, 5, 3)
            assert (evaluate(s_dirac, p) - evaluate(oracle, p)).norm() <= 1e-10


@pytest.mark.parametrize("m", [0.5, 1.0, 3.0])
def test_closed_form_dirac_boost_matches_conjugated_fw_boost(m):
    u, ui = fw_unitary_free(m), fw_unitary_free_inv(m)
    ps = np.random.default_rng(29).uniform(-5, 5, (17, 3))
    for c in (1, 2, 3):
        conj = evaluate(conjugate(build_operator(F.BOOST_FW, m, c), ui, u), ps)
        closed = evaluate(build_operator(F.BOOST_DIRAC, m, c), ps)
        assert np.all((conj - closed).norm() <= 1e-12)


@pytest.mark.parametrize("m", [0.5, 1.0, 10.0])
def test_conjugation_reproduces_nw_position_closed_form(m):
    u, ui = fw_unitary_free(m), fw_unitary_free_inv(m)
    rng = np.random.default_rng(13)
    for c in (1, 2, 3):
        x_fw = build_operator(F.FW_POSITION, m, c)
        x_dirac = conjugate(x_fw, ui, u)
        oracle = build_operator(F.NW_POSITION_DIRAC, m, c)
        for _ in range(17):
            p = rng.uniform(-5, 5, 3)
            assert (evaluate(x_dirac, p) - evaluate(oracle, p)).norm() <= 1e-10


def test_dirac_spin_transformed_to_fw_closed_form():
    m = 1.0
    u, ui = fw_unitary_free(m), fw_unitary_free_inv(m)
    rng = np.random.default_rng(17)
    for c in (1, 2, 3):
        s_d = build_operator(F.DIRAC_SPIN, m, c)
        transformed = conjugate(s_d, u, ui)
        for _ in range(10):
            p = rng.uniform(-5, 5, 3)
            e = energy(p, m)
            expected = (m * GAMMA.Sigma[c - 1] / (2 * e)
                        + p[c - 1] * p_dot(GAMMA.Sigma, p) / (2 * e * (e + m))
                        + 1j * cross_c(GAMMA.gamma, p, c - 1) / (2 * e))
            assert np.linalg.norm(evaluate(transformed, p).A - expected) <= 1e-12


def test_transformed_dirac_spin_upper_block():
    # positive-energy block of the transformed plain spin: (m/eps) sigma/2
    # + p (p.sigma) / (2 eps (eps+m))
    m = 1.0
    u, ui = fw_unitary_free(m), fw_unitary_free_inv(m)
    rng = np.random.default_rng(19)
    sigma = GAMMA.rho
    for _ in range(8):
        p = rng.uniform(-5, 5, 3)
        e = energy(p, m)
        for c in (1, 2, 3):
            transformed = conjugate(build_operator(F.DIRAC_SPIN, m, c), u, ui)
            block = evaluate(transformed, p).A[:2, :2]
            expected = (m / e) * sigma[c - 1] / 2 \
                + p[c - 1] * sum(p[k] * sigma[k] for k in range(3)) / (2 * e * (e + m))
            assert np.linalg.norm(block - expected) <= 1e-12


def test_identity_conjugation_is_identity():
    m = 1.0
    ident = multiplicative(4, lambda p: I4, "one")
    op = build_operator(F.MEAN_SPIN_DIRAC, m, 1)
    conj = conjugate(op, ident, ident)
    for p in MOMENTA[:4]:
        assert (evaluate(conj, p) - evaluate(op, p)).norm() <= 1e-14
    # a conjugated operator carries values only: it is not commuted
    with pytest.raises(DomainError, match="cannot be commuted"):
        snapshot(conj, MOMENTA[0])


def test_non_unitary_conjugation_rejected():
    m = 1.0
    bad = multiplicative(4, lambda p: 2.0 * I4, "two")
    op = build_operator(F.FW_SPIN, m, 1)
    conj = conjugate(op, bad, bad)
    with pytest.raises(NonUnitaryError):
        evaluate(conj, MOMENTA[0])


# --- operator identities beyond the suite --------------------------------------

def test_spin_prime_equals_rest_frame_spin():
    m = 1.0
    for c in (1, 2, 3):
        sp = build_operator(F.SPIN_PRIME, m, c)
        for p in MOMENTA[:8]:
            assert np.linalg.norm(evaluate(sp, p).A - GAMMA.Sigma[c - 1] / 2) <= 1e-12


def test_casimir_invariant():
    for m in (0.5, 1.0, 10.0):
        w_space = [build_operator(F.PAULI_LUBANSKI_SPACE, m, c) for c in (1, 2, 3)]
        w_time = build_operator(F.PAULI_LUBANSKI_TIME, m)
        for p in MOMENTA[:8]:
            w0 = evaluate(w_time, p).A
            total = w0 @ w0
            for c in range(3):
                wk = evaluate(w_space[c], p).A
                total = total - wk @ wk
            assert np.linalg.norm(total + 0.75 * m * m * I4) <= 1e-10


def test_four_spin_orthogonal_to_momentum():
    # eps a0 = p . a  (vanishing four-product with the momentum)
    m = 1.0
    a0 = build_operator(F.FOUR_SPIN_TIME, m)
    a_vec = [build_operator(F.FOUR_SPIN_SPACE, m, c) for c in (1, 2, 3)]
    for p in MOMENTA[:8]:
        e = energy(p, m)
        lhs = e * evaluate(a0, p).A
        rhs = sum(p[k] * evaluate(a_vec[k], p).A for k in range(3))
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_lab_spin_two_closed_forms_agree():
    # p x (p x s) route vs (eps/m) s - p (p.s)/(m(eps+m)) route
    m = 1.0
    for c in (1, 2, 3):
        zeta = build_operator(F.LAB_SPIN_FW, m, c)
        for p in MOMENTA[:8]:
            e = energy(p, m)
            other = ((e / m) * GAMMA.Sigma[c - 1] / 2
                     - p[c - 1] * p_dot(GAMMA.Sigma, p) / (2 * m * (e + m)))
            assert np.linalg.norm(evaluate(zeta, p).A - other) <= 1e-12


def test_four_spin_space_closed_form():
    m = 1.0
    for c in (1, 2, 3):
        a = build_operator(F.FOUR_SPIN_SPACE, m, c)
        for p in MOMENTA[:6]:
            e = energy(p, m)
            expected = GAMMA.Sigma[c - 1] / 2 \
                + p[c - 1] * p_dot(GAMMA.Sigma, p) / (2 * m * (e + m))
            assert np.linalg.norm(evaluate(a, p).A - expected) == 0.0


def test_total_angular_momentum_reassembly():
    # l + s = L_com + zeta = L_proj + S_proj = j, coefficient by coefficient
    m = 1.0
    combos = [
        (F.OAM_FW, F.FW_SPIN),
        (F.COM_OAM, F.LAB_SPIN_FW),
        (F.PROJECTED_OAM, F.PROJECTED_SPIN_FW),
    ]
    for p in MOMENTA[:6]:
        for c in (1, 2, 3):
            j_val = evaluate(build_operator(F.TOTAL_J, m, c), p)
            for oam_fam, spin_fam in combos:
                l_val = evaluate(build_operator(oam_fam, m, c), p)
                s_val = evaluate(build_operator(spin_fam, m, c), p)
                diff_a = np.linalg.norm(l_val.A + s_val.A - j_val.A)
                diff_b = np.linalg.norm(l_val.B + s_val.B - j_val.B)
                assert diff_a <= 1e-10 and diff_b <= 1e-10


def test_projector_sandwich_equals_projected_spin():
    m = 1.0
    plus = build_operator(F.PROJECTOR_PLUS, m)
    minus = build_operator(F.PROJECTOR_MINUS, m)
    for p in MOMENTA[:8]:
        pp = evaluate(plus, p).A
        pm = evaluate(minus, p).A
        for c in (1, 2, 3):
            s_d = GAMMA.Sigma[c - 1] / 2
            sandwich = pp @ s_d @ pp + pm @ s_d @ pm
            proj = evaluate(build_operator(F.PROJECTED_SPIN_DIRAC, m, c), p).A
            assert np.linalg.norm(sandwich - proj) <= 1e-10


def test_hamiltonian_commutes_with_spin_and_oam():
    m = 1.0
    h = build_operator(F.FW_HAMILTONIAN, m)
    for p in MOMENTA[:8]:
        for c in (1, 2, 3):
            s = build_operator(F.FW_SPIN, m, c)
            l = build_operator(F.OAM_FW, m, c)
            assert op_commutator(h, s, p).norm() <= 1e-12
            assert op_commutator(h, l, p).norm() <= 1e-12


def test_all_families_hermitian_as_operators():
    m = 1.0
    p = np.array([1.2, -0.7, 2.1])
    for fam in OperatorFamily:
        comps = (1, 2, 3) if fam.is_vector else (None,)
        for c in comps:
            op = build_operator(fam, m, c)
            if fam in (F.FV_HAMILTONIAN, F.FV_VELOCITY):
                continue  # pseudo-Hermitian two-component sector
            assert hermiticity_residual(op, p) <= 1e-9, fam


def test_fv_hamiltonian_squares_to_energy():
    m = 1.0
    h = build_operator(F.FV_HAMILTONIAN, m)
    for p in MOMENTA[:6]:
        a = evaluate(h, p).A
        assert np.linalg.norm(a @ a - energy(p, m) ** 2 * np.eye(2)) <= 1e-12


def test_fv_velocity_is_momentum_gradient_of_hamiltonian():
    m = 1.0
    h = build_operator(F.FV_HAMILTONIAN, m)
    p = MOMENTA[4]
    s = snapshot(h, p)
    for c in (1, 2, 3):
        v = evaluate(build_operator(F.FV_VELOCITY, m, c), p).A
        assert np.linalg.norm(v - s.dA[c - 1]) <= 1e-9


def test_worldline_commutator_defect_closed_form():
    # [x_i, K_j] misses the symmetrized-product relation by exactly
    # -i beta d/dp_i [(Sigma x p)_j / (2(eps+m))]
    from fwbench.algebra import worldline_defect
    m = 1.0
    h = build_operator(F.FW_HAMILTONIAN, m)
    for p in MOMENTA[:5]:
        e = energy(p, m)
        for i in range(3):
            for j in range(3):
                xi = build_operator(F.FW_POSITION, m, i + 1)
                kj = build_operator(F.BOOST_FW, m, j + 1)
                val = op_commutator(xi, kj, p)
                # symmetrized-product side, from the closed-form velocity:
                # A_rhs = (i/2) d[x_i, H]/dp_j
                dC = 1j * GAMMA.beta * ((1.0 if i == j else 0.0) / e
                                        - p[i] * p[j] / e**3)
                rhs_a = 0.5j * dC
                lhs_minus_rhs = val.A - rhs_a
                assert np.linalg.norm(
                    lhs_minus_rhs - worldline_defect("conventional", m, p, i, j)
                ) <= 1e-9


def test_constant_operator_roundtrip():
    op = constant_operator(GAMMA.Sigma[0] / 2, "s1")
    val = evaluate(op, MOMENTA[0])
    assert np.array_equal(val.A, GAMMA.Sigma[0] / 2)
    assert np.linalg.norm(val.B) == 0.0
