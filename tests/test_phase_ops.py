import dataclasses
import itertools

import numpy as np
import pytest

from fwbench.algebra import (QUANTUM_SET_NAMES, build_quantum_set, identities_for_set,
                             sample_momenta)
from fwbench.dirac import ALPHA, BETA, GAMMA, PAULI, SIGMA, energy
from fwbench.phase_ops import (
    DomainError,
    OperatorFamily,
    OpSnapshot,
    PhaseOpValue,
    PhaseSpaceOperator,
    build_operator,
    coeff_derivative,
    commutator_snapshot,
    levi,
    snapshot,
    symmetrized_product,
)
from oracles import (
    ALL_ROWS,
    NonUnitaryError,
    build_family,
    conjugate,
    constant_operator,
    evaluate,
    family_operators,
    fv_hamiltonian_matrix,
    fv_velocity_matrix,
    fw_unitary_free,
    fw_unitary_free_inv,
    hermiticity_residual,
    multiplicative,
    op_commutator,
    worldline_defect,
)

I4 = np.eye(4, dtype=complex)
RNG = np.random.default_rng(42)
MOMENTA = [RNG.uniform(-5, 5, 3) for _ in range(12)]

F = OperatorFamily


def cross_c(mats, p, c):
    return sum(levi(c, k, l) * p[l] * mats[k] for k in range(3) for l in range(3))


def p_dot(mats, p):
    return sum(p[k] * mats[k] for k in range(3))


# --- construction -----------------------------------------------------------

def test_fw_spin_momentum_independent():
    for c in (1, 2, 3):
        op = build_operator(F.FW_SPIN, 1.0, c)
        for p in MOMENTA[:4]:
            assert np.array_equal(evaluate(op, p).A, SIGMA[c - 1] / 2)


def test_mean_spin_at_rest_is_half_sigma():
    for c in (1, 2, 3):
        op = build_family("mean_spin_dirac", 1.0, c)
        assert np.allclose(evaluate(op, np.zeros(3)).A, SIGMA[c - 1] / 2)


def test_nw_position_at_rest():
    m = 1.3
    op = build_family("nw_position_dirac", m, 2)
    val = evaluate(op, np.zeros(3))
    assert np.allclose(val.A, 1j * GAMMA[1] / (2 * m), atol=1e-14)
    assert np.allclose(val.B[1], 1j * I4)
    assert np.allclose(val.B[0], 0) and np.allclose(val.B[2], 0)


def test_fw_hamiltonian_value():
    op = build_operator(F.FW_HAMILTONIAN, 4.0)
    assert np.allclose(evaluate(op, np.array([3.0, 0, 0])).A, 5.0 * BETA)


def test_momentum_value():
    op = build_operator(F.MOMENTUM, 1.0, 2)
    p = MOMENTA[0]
    val = evaluate(op, p)
    assert np.allclose(val.A, p[1] * I4)
    assert np.allclose(val.B, 0)


def test_projector_closed_form_and_idempotence():
    m = 1.0
    plus = build_family("projector_plus", m)
    minus = build_family("projector_minus", m)
    for p in MOMENTA[:6]:
        e = energy(p, m)
        a = evaluate(plus, p).A
        expected = 0.5 * (I4 + m / e * BETA) + p_dot(ALPHA, p) / (2 * e)
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
    with pytest.raises(ValueError, match="^mass must be finite and non-negative, got -1.0"):
        build_operator(F.FW_HAMILTONIAN, -1.0)
    with pytest.raises(DomainError, match=r"shape \(\.\.\., 3\)"):
        snapshot(build_operator(F.FW_HAMILTONIAN, 1.0), np.zeros((4, 2)))
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="derivative failed"):
        coeff_derivative(lambda q: np.full((4, 4), np.inf), np.ones(3), 0)   # inf - inf


def test_massless_rejection_for_rest_frame_families():
    for fam in (F.COM_POSITION_FW, F.LAB_SPIN_FW):
        with pytest.raises(DomainError, match="positive mass"):
            build_operator(fam, 0.0, 1)
    for name, c in (("four_spin_time", None), ("spin_prime", 1)):
        with pytest.raises(DomainError, match="positive mass"):
            build_family(name, 0.0, c)


@pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 10.0])
def test_exact_gradients_and_stacks(m):
    # every component of every product and test-side family, and the free
    # unitaries: exact dA, dB against the Richardson oracle, and an (N, 3)
    # stack against N single-momentum snapshots
    ops = family_operators(m) + [fw_unitary_free(m), fw_unitary_free_inv(m)]
    ps = np.random.default_rng(23).uniform(-5, 5, (4, 3))
    for op in ops:
        stack = snapshot(op, ps)
        for n, p in enumerate(ps):
            single = snapshot(op, p)
            for key in ("A", "B", "dA", "dB"):
                assert np.array_equal(getattr(stack, key)[n], getattr(single, key))
            for k in range(3):
                # one difference of [A; B_1; B_2; B_3] gives d/dp_k of all four
                oracle = coeff_derivative(lambda q: _stacked_coeffs(op, q), p, k)
                for exact, ref in ((single.dA[k], oracle[0]), (single.dB[:, k], oracle[1:])):
                    bound = 1e-8 * max(1.0, np.linalg.norm(exact))
                    assert np.linalg.norm(exact - ref) <= bound, (op.label, k)


def _stacked_coeffs(op, q):
    """A and B_1..B_3 of op at one momentum, stacked as (4, d, d)."""
    val = evaluate(op, q)
    return np.concatenate([val.A[None], val.B])


def test_massless_singular_momentum_rejected():
    for op in (build_family("nw_position_dirac", 0.0, 1), build_operator(F.NAIVE_BOOST, 0.0, 1)):
        with pytest.raises(DomainError, match="singular"):
            evaluate(op, np.array([1e-8, 0, 0]))
        val = evaluate(op, np.array([1.0, 0, 0]))       # fine away from the cone tip
        assert np.all(np.isfinite(val.A))


def _finite_at(op, p) -> bool:
    try:
        with np.errstate(all="ignore"):
            snapshot(op, p)
    except DomainError:
        return False
    return True


def test_massless_guards_match_the_coefficients():
    # at m = 0 with the guards cleared, a massive_only row is non-finite at a
    # generic momentum; any other row is finite there, and finite at p = 0
    # exactly when it is not singular_at_rest
    assert len(ALL_ROWS) == 32
    generic, rest = np.array([0.3, -0.7, 1.1]), np.zeros(3)
    wrong = []
    for row in ALL_ROWS:
        bare = dataclasses.replace(row, massive_only=False, singular_at_rest=False)
        for c in ((1, 2, 3) if row.vector else (None,)):
            op = bare.build(0.0, c)
            if row.massive_only:
                ok = not _finite_at(op, generic)
            else:
                ok = _finite_at(op, generic) and _finite_at(op, rest) != row.singular_at_rest
            if not ok:
                wrong.append(op.label)
    assert not wrong, f"massless guards that do not match the coefficients: {wrong}"


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
        p = MOMENTA[0]
        assert np.linalg.norm(_second_order(snapshot(xi, p), snapshot(pj, p))) <= 1e-15


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
    assert np.allclose(val.A, -0.6j * BETA, atol=1e-10)
    assert np.linalg.norm(val.B) <= 1e-10


def test_dirac_hamiltonian_position_commutator_is_minus_i_alpha():
    h = build_operator(F.DIRAC_HAMILTONIAN, 1.0)
    for c in (1, 2, 3):
        r = build_operator(F.FW_POSITION, 1.0, c)   # plain radius vector
        val = op_commutator(h, r, MOMENTA[2])
        assert np.allclose(val.A, -1j * ALPHA[c - 1], atol=1e-10)


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


def _derivative_products(s1, s2):
    """B_k D_l and D_l B_k for the derivative parts B of s1 and D of s2, each
    stacked as (..., 3, 3, d, d) with block [k, l]."""
    B, D = s1.B[..., :, None, :, :], s2.B[..., None, :, :, :]
    return B @ D, D @ B


def _second_order(s1, s2):
    """The symmetrized second-order part of [s1, s2], which
    commutator_snapshot does not form: block [k, l] is
    (1/2)(B_k D_l + B_l D_k - D_k B_l - D_l B_k)."""
    BD, DB = _derivative_products(s1, s2)
    half = BD - DB
    return 0.5 * (half + half.swapaxes(-3, -4))


def _block(kind: str, core: tuple, momenta: tuple, rand) -> np.ndarray:
    """A coefficient block of one kind at momenta, as snapshot leaves it: a
    read-only broadcast of zeros or of one random matrix, or a random stack."""
    if kind == "zero":
        return np.broadcast_to(np.zeros(core, dtype=complex), momenta + core)
    if kind == "single":
        return np.broadcast_to(rand(*core), momenta + core)
    return rand(*momenta, *core)


def test_commutator_snapshot_matches_loop_reference():
    # random coefficients, so the second-order part does not vanish; one
    # snapshot is a read-only broadcast, as momentum-independent ones are;
    # the stacked second-order oracle matches the loop formula.  Then every
    # block kind in each of the eight positions A B dA dB | C D dC dD, against
    # every kind in the other seven, at one momentum, a stack and a 2-D stack
    rng = np.random.default_rng(8)
    n, d = 5, 4

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    s1 = OpSnapshot(rand(n, d, d), rand(n, 3, d, d), rand(n, 3, d, d), rand(n, 3, 3, d, d))
    s2 = OpSnapshot(rand(n, d, d), np.broadcast_to(rand(3, d, d), (n, 3, d, d)),
                    rand(n, 3, d, d), np.broadcast_to(rand(3, 3, d, d), (n, 3, 3, d, d)))
    for a, b in ((s1, s2), (s2, s1)):
        val = commutator_snapshot(a, b)
        for i in range(n):
            at = [OpSnapshot(x.A[i], x.B[i], x.dA[i], x.dB[i]) for x in (a, b)]
            zero, first, second = _loop_commutator(*at)
            assert np.linalg.norm(second) > 1.0
            for got, ref in ((val.A[i], zero), (val.B[i], first),
                             (_second_order(a, b)[i], second)):
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    _assert_layout_sweep(commutator_snapshot, lambda a, b: _loop_commutator(a, b)[:2],
                         rand, n, d)


def _loop_symmetrized(o, v):
    """(1/2){O, V} of a multiplicative V, with explicit sums over k."""
    A, B, C, dC = o.A, o.B, v.A, v.dA
    zero = 0.5 * (A @ C + C @ A + sum(B[k] @ dC[k] for k in range(3)))
    first = np.stack([0.5 * (B[l] @ C + C @ B[l]) for l in range(3)])
    return zero, first


def test_symmetrized_product_matches_loop_reference():
    # the layout sweep of the commutator, with V multiplicative: its
    # derivative part D and the gradient dD are zero blocks
    rng = np.random.default_rng(10)

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    _assert_layout_sweep(symmetrized_product, _loop_symmetrized, rand, 5, 4,
                         zero_positions=(5, 7))


def _assert_layout_sweep(bracket, loop_reference, rand, n, d, zero_positions=()):
    """bracket(a, b) against loop_reference's (zeroth, first) parts at each
    momentum: each block kind at each of the eight positions A B dA dB |
    C D dC dD against each kind in the rest, so that every product meets
    every pair of kinds, and, on the stack, every pattern of zero blocks,
    so that each sum starts at each of its terms.  The blocks at
    zero_positions are always zero.  It runs at one momentum, a stack of n
    and a (2, n) stack."""
    kinds = ("zero", "single", "stack")
    cores = ((d, d), (3, d, d), (3, d, d), (3, 3, d, d)) * 2
    layouts = {tuple(kind if k == pos else rest for k in range(8))
               for pos in range(8) for kind in kinds for rest in kinds}
    assert len(layouts) == 8 * 3 * 2 + 3
    zeros = set(itertools.product(("zero", "stack"), repeat=8))

    def fixed(cases):
        return {tuple("zero" if k in zero_positions else kind for k, kind in enumerate(c))
                for c in cases}

    for momenta, cases in (((), layouts), ((n,), layouts | zeros), ((2, n), layouts)):
        for layout in sorted(fixed(cases)):
            blocks = [_block(kind, core, momenta, rand) for kind, core in zip(layout, cores)]
            a, b = OpSnapshot(*blocks[:4]), OpSnapshot(*blocks[4:])
            val = bracket(a, b)
            assert val.A.shape == momenta + (d, d), layout
            assert val.B.shape == momenta + (3, d, d), layout
            for i in np.ndindex(momenta):
                at = [OpSnapshot(x.A[i], x.B[i], x.dA[i], x.dB[i]) for x in (a, b)]
                zero, first = loop_reference(*at)
                for got, ref in ((val.A[i], zero), (val.B[i], first)):
                    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref), layout


def test_symmetrized_product_is_product_plus_half_commutator():
    # (1/2){O, V} = V O + (1/2)[O, V] for a multiplicative V, at random
    # coefficients and at a broadcast V, as a momentum-independent one is
    rng = np.random.default_rng(9)
    n, d = 5, 4

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    o = OpSnapshot(rand(n, d, d), rand(n, 3, d, d), rand(n, 3, d, d), rand(n, 3, 3, d, d))
    zero_b, zero_db = np.zeros((n, 3, d, d)), np.zeros((n, 3, 3, d, d))
    for v in (OpSnapshot(rand(n, d, d), zero_b, rand(n, 3, d, d), zero_db),
              OpSnapshot(np.broadcast_to(rand(d, d), (n, d, d)), zero_b, zero_b, zero_db)):
        half = commutator_snapshot(o, v)
        got = symmetrized_product(o, v)
        for x, ref in ((got.A, v.A @ o.A + 0.5 * half.A),
                       (got.B, v.A[:, None] @ o.B + 0.5 * half.B)):
            assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_second_order_part_vanishes_for_boost_pair():
    m, p = 1.0, MOMENTA[3]
    k1 = snapshot(build_operator(F.BOOST_FW, m, 1), p)
    k2 = snapshot(build_operator(F.BOOST_FW, m, 2), p)
    assert np.linalg.norm(_second_order(k1, k2)) <= 1e-12


def _assert_second_order_zero(s1, s2, where):
    """Every B_k D_l equals D_l B_k bit for bit, so the second-order part of
    [s1, s2] is exactly zero."""
    BD, DB = _derivative_products(s1, s2)
    assert np.array_equal(BD, DB), where
    assert not _second_order(s1, s2).any(), where


@pytest.mark.parametrize("m", [1e-3, 1.0, 1e3])
def test_second_order_part_is_zero_by_construction(m):
    # every (row, pair) each quantum suite commutes, at its sampled momenta:
    # commutator_snapshot forms only the zeroth- and first-order parts
    momenta = sample_momenta(20, seed=3)
    pairs = 0
    for set_name in QUANTUM_SET_NAMES:
        ops = build_quantum_set(set_name, m)
        snaps = {role: [snapshot(op, momenta) for op in v]
                 for role, v in ops.items() if role != "H"}
        snaps["H"] = [snapshot(ops["H"], momenta)] * 3    # a scalar, at any index
        for iden in identities_for_set(set_name):
            a, b = iden.lhs
            for i, j in iden.pairs:
                _assert_second_order_zero(snaps[a][i], snaps[b][j],
                                          (set_name, iden.quantum_id, i, j))
                pairs += 1
    assert pairs == 354


def test_second_order_check_catches_non_commuting_derivative_parts():
    # mutation: Sigma_c d/dp_c has derivative coefficients that anticommute
    # across components, so the second-order part of [Sigma_1 d/dp_1,
    # Sigma_2 d/dp_2] is (1/2)[Sigma_1, Sigma_2] = i Sigma_3 at k = 1, l = 2
    def sigma_derivative(c):
        B = [0.0, 0.0, 0.0]
        B[c] = SIGMA[c]
        return PhaseSpaceOperator(4, lambda p: (0.0, *B), f"Sigma_{c + 1} d/dp_{c + 1}")

    momenta = sample_momenta(4, seed=3)
    s1, s2 = (snapshot(sigma_derivative(c), momenta) for c in (0, 1))
    with pytest.raises(AssertionError):
        _assert_second_order_zero(s1, s2, "Sigma_1 d/dp_1, Sigma_2 d/dp_2")
    assert np.allclose(_second_order(s1, s2)[:, 0, 1], 1j * SIGMA[2])


def test_dim_mismatch_rejected():
    # a 4x4 snapshot against a 2x2 one, in either order
    p = MOMENTA[0]
    a = snapshot(build_operator(F.FW_HAMILTONIAN, 1.0), p)
    b = snapshot(build_operator(F.FV_HAMILTONIAN, 1.0), p)
    for s1, s2 in ((a, b), (b, a)):
        for bracket in (commutator_snapshot, symmetrized_product):
            with pytest.raises(DomainError, match="dimension mismatch"):
                bracket(s1, s2)


def test_number_stands_for_a_multiple_of_the_identity():
    rng = np.random.default_rng(5)
    n, d = 4, 3
    A = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    B = rng.normal(size=(n, 3, d, d)) + 1j * rng.normal(size=(n, 3, d, d))
    value, x = PhaseOpValue(A, B), 0.5 - 2j
    shifted = value - x
    explicit = value - PhaseOpValue(np.broadcast_to(x * np.eye(d), A.shape), np.zeros_like(B))
    assert np.array_equal(shifted.A, explicit.A) and np.array_equal(shifted.A, A - x * np.eye(d))
    assert np.array_equal(shifted.B, B)
    # numpy scalars scale too; a snapshot scales as a PhaseOpValue
    snap = snapshot(build_operator(F.BOOST_FW, 1.0, 2), MOMENTA[:n])
    for c in (-2, 1j, np.float64(-1.0), np.complex128(0.25j)):
        for v in (value, snap):
            scaled = c * v
            assert type(scaled) is PhaseOpValue
            assert np.array_equal(scaled.A, c * v.A) and np.array_equal(scaled.B, c * v.B)


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
        assert np.linalg.norm(BETA @ u - u.conj().T @ BETA) <= 1e-12


def test_fw_unitary_free_massless_needs_nonzero_momentum():
    u = fw_unitary_free(0.0)
    with pytest.raises(DomainError):
        evaluate(u, np.zeros(3))
    val = evaluate(u, np.array([0.0, 0.0, 2.0])).A
    assert np.linalg.norm(val @ val.conj().T - I4) <= 1e-12


def test_conjugating_dirac_hamiltonian_gives_block_diagonal():
    m = 1.0
    hd = build_operator(F.DIRAC_HAMILTONIAN, m)
    for p in MOMENTA[:6]:
        hfw = conjugate(hd, fw_unitary_free(m), fw_unitary_free_inv(m), p)
        assert np.linalg.norm(hfw.A - energy(p, m) * BETA) <= 1e-12


def _assert_conjugated_twin(name, twin, m):
    # U^-1 (FW family) U equals the closed-form Dirac-representation family
    # of the tests' table, multiplicative and derivative parts, for every
    # component
    u, ui = fw_unitary_free(m), fw_unitary_free_inv(m)
    ps = np.random.default_rng(29).uniform(-5, 5, (40, 3))
    for c in (1, 2, 3):
        conj = conjugate(build_operator(twin, m, c), ui, u, ps)
        closed = evaluate(build_family(name, m, c), ps)
        assert np.all((conj - closed).norm() <= 1e-12), (name, c)


TWIN_MASSES = [0.5, 1.0, 3.0, 10.0]


@pytest.mark.parametrize("m", TWIN_MASSES)
def test_conjugation_reproduces_mean_spin_closed_form(m):
    _assert_conjugated_twin("mean_spin_dirac", F.FW_SPIN, m)


@pytest.mark.parametrize("m", TWIN_MASSES)
def test_closed_form_dirac_boost_matches_conjugated_fw_boost(m):
    _assert_conjugated_twin("boost_dirac", F.BOOST_FW, m)


@pytest.mark.parametrize("m", TWIN_MASSES)
def test_conjugation_reproduces_nw_position_closed_form(m):
    _assert_conjugated_twin("nw_position_dirac", F.FW_POSITION, m)


# The other Dirac-representation families of the tests' table and the
# product FW family each is the free-particle picture of.
DIRAC_TWINS = {
    "com_position_dirac": F.COM_POSITION_FW,
    "lab_spin_dirac": F.LAB_SPIN_FW,
    "projected_position_dirac": F.PROJECTED_POSITION_FW,
    "projected_spin_dirac": F.PROJECTED_SPIN_FW,
}


@pytest.mark.parametrize("m", TWIN_MASSES)
def test_dirac_families_are_conjugated_fw_twins(m):
    for name, twin in DIRAC_TWINS.items():
        _assert_conjugated_twin(name, twin, m)


def test_dirac_spin_transformed_to_fw_closed_form():
    # the plain spin Sigma/2 has FW_SPIN's coefficient in every representation
    m = 1.0
    u, ui = fw_unitary_free(m), fw_unitary_free_inv(m)
    rng = np.random.default_rng(17)
    for c in (1, 2, 3):
        s_d = build_operator(F.FW_SPIN, m, c)
        for _ in range(10):
            p = rng.uniform(-5, 5, 3)
            e = energy(p, m)
            expected = (m * SIGMA[c - 1] / (2 * e)
                        + p[c - 1] * p_dot(SIGMA, p) / (2 * e * (e + m))
                        + 1j * cross_c(GAMMA, p, c - 1) / (2 * e))
            assert np.linalg.norm(conjugate(s_d, u, ui, p).A - expected) <= 1e-12


def test_transformed_dirac_spin_upper_block():
    # positive-energy block of the transformed plain spin: (m/eps) sigma/2
    # + p (p.sigma) / (2 eps (eps+m))
    m = 1.0
    u, ui = fw_unitary_free(m), fw_unitary_free_inv(m)
    rng = np.random.default_rng(19)
    sigma = PAULI
    for _ in range(8):
        p = rng.uniform(-5, 5, 3)
        e = energy(p, m)
        for c in (1, 2, 3):
            block = conjugate(build_operator(F.FW_SPIN, m, c), u, ui, p).A[:2, :2]
            expected = (m / e) * sigma[c - 1] / 2 \
                + p[c - 1] * sum(p[k] * sigma[k] for k in range(3)) / (2 * e * (e + m))
            assert np.linalg.norm(block - expected) <= 1e-12


def test_identity_conjugation_is_identity():
    m = 1.0
    ident = multiplicative(4, lambda p: I4, "one")
    op = build_family("mean_spin_dirac", m, 1)
    for p in MOMENTA[:4]:
        assert (conjugate(op, ident, ident, p) - evaluate(op, p)).norm() <= 1e-14


def test_non_unitary_conjugation_rejected():
    m = 1.0
    bad = multiplicative(4, lambda p: 2.0 * I4, "two")
    op = build_operator(F.FW_SPIN, m, 1)
    with pytest.raises(NonUnitaryError):
        conjugate(op, bad, bad, MOMENTA[0])


# --- operator identities beyond the suite --------------------------------------

def test_spin_prime_equals_rest_frame_spin():
    m = 1.0
    for c in (1, 2, 3):
        sp = build_family("spin_prime", m, c)
        for p in MOMENTA[:8]:
            assert np.linalg.norm(evaluate(sp, p).A - SIGMA[c - 1] / 2) <= 1e-12


def test_casimir_invariant():
    for m in (0.5, 1.0, 10.0):
        w_space = [build_family("pauli_lubanski_space", m, c) for c in (1, 2, 3)]
        w_time = build_family("pauli_lubanski_time", m)
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
    a0 = build_family("four_spin_time", m)
    a_vec = [build_family("four_spin_space", m, c) for c in (1, 2, 3)]
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
            other = ((e / m) * SIGMA[c - 1] / 2
                     - p[c - 1] * p_dot(SIGMA, p) / (2 * m * (e + m)))
            assert np.linalg.norm(evaluate(zeta, p).A - other) <= 1e-12


def test_four_spin_space_closed_form():
    m = 1.0
    for c in (1, 2, 3):
        a = build_family("four_spin_space", m, c)
        for p in MOMENTA[:6]:
            e = energy(p, m)
            expected = SIGMA[c - 1] / 2 \
                + p[c - 1] * p_dot(SIGMA, p) / (2 * m * (e + m))
            assert np.linalg.norm(evaluate(a, p).A - expected) == 0.0


def test_total_angular_momentum_reassembly():
    # every set's own j = l + s (L_com + zeta, L_proj + S_proj) is the
    # conventional OAM plus spin, coefficient by coefficient
    m = 1.0
    for set_name in QUANTUM_SET_NAMES:
        j = build_quantum_set(set_name, m)["j"]
        for p in MOMENTA[:6]:
            for c in (1, 2, 3):
                l_val = evaluate(build_operator(F.OAM_FW, m, c), p)
                s_val = evaluate(build_operator(F.FW_SPIN, m, c), p)
                j_val = evaluate(j[c - 1], p)
                diff_a = np.linalg.norm(l_val.A + s_val.A - j_val.A)
                diff_b = np.linalg.norm(l_val.B + s_val.B - j_val.B)
                assert diff_a <= 1e-10 and diff_b <= 1e-10, (set_name, c)


def test_projector_sandwich_equals_projected_spin():
    m = 1.0
    plus = build_family("projector_plus", m)
    minus = build_family("projector_minus", m)
    for p in MOMENTA[:8]:
        pp = evaluate(plus, p).A
        pm = evaluate(minus, p).A
        for c in (1, 2, 3):
            s_d = SIGMA[c - 1] / 2
            sandwich = pp @ s_d @ pp + pm @ s_d @ pm
            proj = evaluate(build_family("projected_spin_dirac", m, c), p).A
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
    # every product and test-side family but the two-component sector,
    # which is pseudo-Hermitian
    ops = [op for op in family_operators(m) if op.dim == 4]
    for op in ops:
        assert hermiticity_residual(op, p) <= 1e-9, op.label


def test_fv_hamiltonian_squares_to_energy():
    m = 1.0
    h = build_operator(F.FV_HAMILTONIAN, m)
    for p in MOMENTA[:6]:
        a = evaluate(h, p).A
        assert np.linalg.norm(a @ a - energy(p, m) ** 2 * np.eye(2)) <= 1e-12
        # the catalogue row agrees with the plain matrix oracle
        assert np.linalg.norm(a - fv_hamiltonian_matrix(p, m)) <= 1e-14 * np.linalg.norm(a)


def test_fv_velocity_is_momentum_gradient_of_hamiltonian():
    m = 1.0
    h = build_operator(F.FV_HAMILTONIAN, m)
    p = MOMENTA[4]
    s = snapshot(h, p)
    for c in (1, 2, 3):
        v = evaluate(build_family("fv_velocity", m, c), p).A
        assert np.linalg.norm(v - s.dA[c - 1]) <= 1e-9
        assert np.linalg.norm(v - fv_velocity_matrix(p, m, c - 1)) <= 1e-14 * np.linalg.norm(v)


def test_worldline_commutator_defect_closed_form():
    # [x_i, K_j] misses the symmetrized-product relation by exactly
    # -i beta d/dp_i [(Sigma x p)_j / (2(eps+m))]
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
                dC = 1j * BETA * ((1.0 if i == j else 0.0) / e
                                        - p[i] * p[j] / e**3)
                rhs_a = 0.5j * dC
                lhs_minus_rhs = val.A - rhs_a
                assert np.linalg.norm(
                    lhs_minus_rhs - worldline_defect(m, p, i, j)
                ) <= 1e-9


def test_constant_operator_roundtrip():
    op = constant_operator(SIGMA[0] / 2, "s1")
    val = evaluate(op, MOMENTA[0])
    assert np.array_equal(val.A, SIGMA[0] / 2)
    assert np.linalg.norm(val.B) == 0.0
