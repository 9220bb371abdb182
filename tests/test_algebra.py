import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import floats

import fwbench.algebra as algebra
from fwbench.algebra import (
    CLASSICAL_TOL,
    IDENTITIES,
    QUANTUM_SET_NAMES,
    ClassicalState,
    Identity,
    _rhs,
    build_quantum_set,
    classical_observables,
    identities_for_set,
    poisson_bracket,
    reports_to_json,
    run_classical_suite,
    run_quantum_suite,
    sample_momenta,
    sample_states,
)
from fwbench.dirac import GAMMA, energy
from fwbench.phase_ops import OperatorFamily, coeff_derivative, levi
from oracles import classical_worldline_defect, worldline_defect


def by_id(reports):
    return {r.identity_id: r for r in reports}


# --- quantum suites ----------------------------------------------------------

@pytest.fixture(scope="module")
def conventional_reports():
    return run_quantum_suite("conventional", 1.0, 40)


def test_conventional_suite_all_as_expected(conventional_reports):
    assert all(r.verdict == "pass" for r in conventional_reports)


def test_conventional_holding_identities_tight(conventional_reports):
    for r in conventional_reports:
        if r.expected == "hold":
            assert r.max_residual <= 1e-8, r.identity_id


def test_conventional_position_commutativity_is_exact(conventional_reports):
    assert by_id(conventional_reports)["[q_i,q_j] = 0"].max_residual <= 1e-12


def test_conventional_worldline_relation_fails(conventional_reports):
    # no commuting-component position operator of a spin-1/2 system can
    # trace a covariant worldline; the residual floor documents that
    r = by_id(conventional_reports)["[q_i,K_j] = ((q_j[q_i,H]+[q_i,H]q_j)/2 - i t d_ij)"]
    assert r.expected == "fail"
    assert r.min_residual >= 1e-3
    assert r.frac_above_floor == 1.0


def test_naive_dirac_boost_failures():
    reports = by_id(run_quantum_suite("naive_dirac", 1.0, 60))
    kk = reports["[K_i,K_j] = -i e_ijk j_k"]
    assert kk.expected == "fail"
    assert kk.frac_above_floor >= 0.95
    assert kk.max_residual >= 1e-3
    # the remaining generator relations survive even for the naive set
    for iid in ("[K_i,H] = i p_i", "[K_i,p_j] = i d_ij H",
                "[j_i,K_j] = i e_ijk K_k"):
        assert reports[iid].verdict == "pass" and reports[iid].expected == "hold"


@pytest.mark.parametrize("set_name", ["center_of_mass", "projected"])
def test_alternative_sets_violate_su2_and_commutativity(set_name):
    reports = by_id(run_quantum_suite(set_name, 1.0, 30))
    for iid in ("[q_i,q_j] = 0", "[l_i,l_j] = i e_ijk l_k",
                "[s_i,s_j] = i e_ijk s_k", "[l_i,s_j] = 0"):
        assert reports[iid].expected == "fail"
        assert reports[iid].min_residual >= 1e-3, iid
    for iid in ("[j_i,j_j] = i e_ijk j_k", "[j_i,H] = 0", "[q_i,p_j] = i d_ij"):
        assert reports[iid].verdict == "pass" and reports[iid].expected == "hold"


@pytest.mark.parametrize("m", [1e-3, 1.0, 1e3])
def test_catalogue_velocity_is_the_commutator_with_the_hamiltonian(monkeypatch, m):
    # every set's velocity row v, the worldline's input, obeys [H, q_i] = -i v_i
    row = Identity("[H,q_i] = -i v_i", None, ("H", "q"), ((0, 0), (0, 1), (0, 2)),
                   ("j", "v", -1), QUANTUM_SET_NAMES)
    monkeypatch.setattr(algebra, "IDENTITIES", IDENTITIES + (row,))
    for set_name in QUANTUM_SET_NAMES:
        r = by_id(run_quantum_suite(set_name, m, 20))[row.quantum_id]
        assert r.verdict == "pass" and r.max_residual <= 1e-14, (set_name, r.max_residual)


# each family that shifts a set's OAM or spin: its set, and the unshifted
# multiplicative part at component index c
SHIFTED_FAMILIES = {
    "COM_OAM": ("center_of_mass", lambda c: 0.0),
    "LAB_SPIN_FW": ("center_of_mass", lambda c: 0.5 * GAMMA.Sigma[c]),
    "PROJECTED_OAM": ("projected", lambda c: 0.0),
}


@pytest.mark.parametrize("name", sorted(SHIFTED_FAMILIES))
def test_a_shift_error_breaks_the_total_angular_momentum(monkeypatch, name):
    # a set's j is its own l + s, so scaling one shift by 1 + 1e-5 must fail
    # the rows that read j
    set_name, unshifted = SHIFTED_FAMILIES[name]
    member = OperatorFamily[name]
    row = member.value

    def A(p, P, e, m, c):
        a = row.A(p, P, e, m, c)
        return a + 1e-5 * (a - unshifted(c))

    monkeypatch.setattr(member, "_value_", dataclasses.replace(row, A=A))
    reports = by_id(run_quantum_suite(set_name, 1.0, 20))
    for iid in ("[j_i,j_j] = i e_ijk j_k", "[q_i,j_j] = i e_ijk q_k"):
        assert reports[iid].verdict == "fail", (iid, reports[iid].max_residual)


def test_suite_rejects_unknown_set():
    with pytest.raises(ValueError):
        run_quantum_suite("bogus", 1.0, 5)


def test_sample_momenta_reproducible_and_bounded():
    a = sample_momenta(50, seed=7)
    b = sample_momenta(50, seed=7)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 5.0)
    assert np.all(np.linalg.norm(a, axis=1) >= 1e-3)


def test_report_json_schema():
    reports = run_quantum_suite("conventional", 1.0, 3)
    data = json.loads(reports_to_json(reports))
    assert len(data) == len(reports)
    for row in data:
        for key in ("identity_id", "set_name", "samples", "max_residual",
                    "min_residual", "frac_above_floor", "tol", "floor",
                    "expected", "verdict"):
            assert key in row


# --- the one identity table ---------------------------------------------------

SUITES = QUANTUM_SET_NAMES + ("classical",)
REFERENCE = Path(__file__).resolve().parents[1] / "fwperf" / "reference.json"


@pytest.mark.parametrize("name", SUITES)
def test_suite_order_matches_the_benchmark_reference(name):
    # the benchmark refuses a suite whose (identity, expectation) list moved
    table = json.loads(REFERENCE.read_text())["tables"][name]
    if name == "classical":
        reports = run_classical_suite(3)
    else:
        reports = run_quantum_suite(name, 1.0, 3)
    assert [[r.identity_id, r.expected] for r in reports] == table


def test_identity_table_is_consistent():
    kinds = {"zero", "eps", "i", "j", "delta", "worldline"}
    # a quantum suite reads its roles by the table's letters, the classical
    # suite by their upper-case forms
    roles = {name: set(build_quantum_set(name, 1.0)) for name in QUANTUM_SET_NAMES}
    roles["classical"] = set(classical_observables(sample_states(1)))
    for iden in IDENTITIES:
        # every role a row reads, either side, is one that each carrying set has
        kind, role, _ = iden.rhs
        read = {*iden.lhs, role, "q" if kind == "worldline" else None} - {None}
        for name in iden.sets:
            wanted = {r.upper() for r in read} if name == "classical" else read
            assert wanted <= roles[name], (iden, name, wanted - roles[name])
        assert iden.sets and set(iden.sets) <= set(SUITES), iden
        assert set(iden.expected_by_set) <= set(iden.sets), iden
        assert set(iden.expected_by_set.values()) <= {"fail"}, iden
        assert iden.rhs[0] in kinds, iden
        quantum = set(iden.sets) & set(QUANTUM_SET_NAMES)
        assert (iden.quantum_id is not None) == bool(quantum), iden
        assert (iden.classical_id is not None) == ("classical" in iden.sets), iden
    for side in ("quantum_id", "classical_id"):
        ids = [getattr(iden, side) for iden in IDENTITIES if getattr(iden, side)]
        assert len(ids) == len(set(ids)), side
    # the classical report order lists every classical row once
    order = sorted(IDENTITIES.index(iden) for iden in identities_for_set("classical"))
    assert order == [k for k, iden in enumerate(IDENTITIES) if "classical" in iden.sets]


def test_rhs_reads_every_term_kind():
    # plain numbers stand in for operators and observables: each kind against
    # its formula, for every pair, with a commutator's and a Poisson bracket's
    # unit, and a pair product that keeps its operands apart
    values = {"J": [2.0, 3.0, 5.0], "P": [7.0, 11.0, 13.0], "H": 17.0,
              "Q": [19.0, 23.0, 29.0], "V": [31.0, 37.0, 41.0]}

    def product(q, v):
        return 1000.0 * q + v

    def formula(kind, role, c, i, j, unit):
        R = values.get(role.upper()) if role else 1.0
        if kind == "eps":
            return unit * c * sum(levi(i, j, k) * R[k] for k in range(3))
        if kind == "i":
            return unit * c * R[i]
        if kind == "j":
            return unit * c * R[j]
        if kind == "delta":
            return unit * c * R * (i == j)
        if kind == "worldline":
            return unit * c * (1000.0 * values["Q"][j] + R[i])
        return 0.0

    terms = [("eps", "j", 1), ("eps", "p", -1), ("i", "p", 2), ("j", "v", -1),
             ("delta", "H", 1), ("delta", None, -3), ("zero", None, 0),
             ("worldline", "v", 1)]
    assert {iden.rhs[0] for iden in IDENTITIES} == {t[0] for t in terms}
    for unit in (1j, 1.0):
        for term in terms:
            for i in range(3):
                for j in range(3):
                    assert (_rhs(term, values, i, j, unit, product)
                            == formula(*term, i, j, unit)), (term, i, j, unit)


def test_rhs_rejects_unknown_term_kinds():
    with pytest.raises(ValueError, match="unknown"):
        _rhs(("cross", "p", 1), {"P": [1.0, 2.0, 3.0]}, 0, 1, 1j, lambda *a: 0.0)


@pytest.mark.parametrize("name", SUITES)
def test_every_suite_as_expected_at_mass_0_5(name):
    # at m = 1 and 10 every suite is a cell of the domain map that
    # tests/test_domain_map.py requires to exit 0
    reports = (run_classical_suite(5, m=0.5) if name == "classical"
               else run_quantum_suite(name, 0.5, 5))
    assert [r.identity_id for r in reports if r.verdict != "pass"] == []


# --- classical side ------------------------------------------------------------

WORLDLINE_CLASSICAL = "{Q_i,K_j} = Q_j{Q_i,H} - t d_ij"


def test_poisson_bracket_canonical_pair():
    st = ClassicalState(Q=np.array([0.3, -1.0, 2.0]), P=np.array([1.0, 0.5, -0.2]),
                        S=np.array([0.1, 0.2, 0.3]), m=1.0)
    obs = classical_observables(st)
    q1 = obs["Q"][0]
    p1 = obs["P"][0]
    assert poisson_bracket(q1, p1, st) == pytest.approx(1.0, abs=1e-9)
    p2 = obs["P"][1]
    assert poisson_bracket(q1, p2, st) == pytest.approx(0.0, abs=1e-9)


def test_poisson_bracket_spin_structure():
    st = ClassicalState(Q=np.zeros(3), P=np.array([1.0, 0, 0]),
                        S=np.array([0.0, 0.0, 2.0]), m=1.0)
    obs = classical_observables(st)
    s1 = obs["S"][0]
    s2 = obs["S"][1]
    assert poisson_bracket(s1, s2, st) == pytest.approx(2.0, abs=1e-8)


def test_poisson_bracket_energy_position():
    # {H, Q_1} = -P_1/H
    st = ClassicalState(Q=np.array([0.5, 0.5, 0.5]), P=np.array([3.0, 0.0, 0.0]),
                        S=np.array([0.2, -0.1, 0.4]), m=4.0)
    obs = classical_observables(st)
    h = obs["H"]
    q1 = obs["Q"][0]
    assert poisson_bracket(h, q1, st) == pytest.approx(-0.6, abs=1e-8)
    assert poisson_bracket(q1, h, st) == pytest.approx(0.6, abs=1e-8)


def test_classical_boost_brackets():
    st = sample_states(5, seed=9)
    obs = classical_observables(st)
    for i in range(3):
        for j in range(3):
            ki = obs["K"][i]
            kj = obs["K"][j]
            pj = obs["P"][j]
            val = poisson_bracket(ki, kj, st)
            expected = -sum(levi(i, j, k) *
                            (np.cross(st.Q, st.P)[:, k] + st.S[:, k])
                            for k in range(3))
            assert val == pytest.approx(expected, abs=1e-6)
            val2 = poisson_bracket(ki, pj, st)
            expected2 = obs["H"].val[:, 0, 0] if i == j else 0.0
            assert val2 == pytest.approx(expected2, abs=1e-6)


def test_classical_oam_spin_bracket_vanishes():
    st = sample_states(4, seed=21)
    obs = classical_observables(st)
    for i in range(3):
        for j in range(3):
            li = obs["L"][i]
            sj = obs["S"][j]
            assert poisson_bracket(li, sj, st) == pytest.approx(0.0, abs=1e-7)


def test_classical_suite_all_as_expected():
    reports = run_classical_suite(25)
    assert all(r.verdict == "pass" for r in reports)
    table = by_id(reports)
    wl = table[WORLDLINE_CLASSICAL]
    assert wl.expected == "fail" and wl.min_residual >= 1e-3
    for r in reports:
        if r.expected == "hold":
            assert r.max_residual <= 1e-6, r.identity_id


@pytest.mark.parametrize("m", [0.5, 1.0, 10.0])
def test_classical_suite_is_exact(m):
    # exact gradients: holding brackets at rounding level, and the worldline
    # residual equal to the closed-form defect over all states and pairs
    reports = run_classical_suite(100, m=m)
    for r in reports:
        if r.expected == "hold":
            assert r.max_residual <= 1e-12, (r.identity_id, r.max_residual)
    states = sample_states(100, m)
    defect = max(np.max(np.abs(classical_worldline_defect(states, i, j)))
                 for i in range(3) for j in range(3))
    assert by_id(reports)[WORLDLINE_CLASSICAL].max_residual == pytest.approx(
        defect, rel=1e-12)


@given(floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_classical_holding_identities_at_any_mass(log10_m):
    # every expected-hold bracket passes for m log-uniform in [1e-3, 1e3];
    # differencing noise made {K_i,K_j} fail at m = 100.  The expected-fail
    # worldline relation is left out: its defect is O(|S|/m) and falls
    # below the absolute failure floor at m >~ 500, a separate open defect
    # of the floor.
    for r in run_classical_suite(20, m=10.0 ** log10_m):
        if r.expected == "hold":
            assert r.verdict == "pass", (r.identity_id, r.max_residual)
            assert r.max_residual <= CLASSICAL_TOL


def _classical_jets(obs):
    """(name, component, Jet) for each of the 19 observables."""
    return [("H", 0, obs["H"])] + [(name, c, obs[name][c])
                                   for name in ("Q", "P", "S", "L", "J", "K")
                                   for c in range(3)]


@pytest.mark.parametrize("m", [1e-3, 1.0, 1e3])
def test_classical_gradients_exact_and_stacked(m):
    # every observable and coordinate: the exact gradient against the
    # Richardson oracle on the observable's value, and a stack of states
    # against single-state evaluations
    states = sample_states(3, m, seed=17)
    stack = _classical_jets(classical_observables(states))

    def single_state(x):
        return ClassicalState(Q=x[0:3], P=x[3:6], S=x[6:9], m=m)

    for n in range(3):
        x = np.concatenate([states.Q[n], states.P[n], states.S[n]])
        single = _classical_jets(classical_observables(single_state(x)))
        for idx, (name, c, jet) in enumerate(single):
            stacked = stack[idx][2]
            assert np.array_equal(stacked.val[n], jet.val), (name, c)
            assert np.array_equal(np.broadcast_to(stacked.grad, (3, 9, 1, 1))[n],
                                  np.broadcast_to(jet.grad, (9, 1, 1))), (name, c)

            def value(y):
                return float(_classical_jets(
                    classical_observables(single_state(y)))[idx][2].val[0, 0])

            grad = np.broadcast_to(jet.grad, (9, 1, 1))[:, 0, 0]
            for k in range(9):
                oracle = coeff_derivative(value, x, k)
                assert abs(grad[k] - oracle) <= 1e-6 * max(1.0, abs(grad[k])), \
                    (name, c, k)


def test_classical_worldline_defect_closed_form():
    st = sample_states(6, seed=33)
    obs = classical_observables(st)
    for i in range(3):
        for j in range(3):
            qi = obs["Q"][i]
            kj = obs["K"][j]
            bracket = poisson_bracket(qi, kj, st)
            naive = st.Q[:, j] * st.P[:, i] / obs["H"].val[:, 0, 0]
            assert bracket - naive == pytest.approx(
                classical_worldline_defect(st, i, j), abs=1e-6)


def test_quantum_classical_defect_correspondence():
    # scalarizing the operator defect (beta -> +1, Sigma -> 2S) reproduces
    # i times the classical bracket defect at matched momentum and spin
    m = 1.0
    rng = np.random.default_rng(4)
    for _ in range(6):
        p = rng.uniform(-4, 4, 3)
        s_vec = rng.normal(size=3)
        st = ClassicalState(Q=np.zeros(3), P=p, S=s_vec, m=m)
        e = energy(p, m)
        for i in range(3):
            for j in range(3):
                scalarized = -1j * (
                    sum(levi(j, k, i) * s_vec[k] for k in range(3)) / (e + m)
                    - np.cross(s_vec, p)[j] * p[i] / (e * (e + m) ** 2))
                classical = classical_worldline_defect(st, i, j)
                assert scalarized == pytest.approx(1j * classical, abs=1e-12)


def test_quantum_worldline_defect_formula_is_what_suite_measures():
    # residual magnitude reported by the suite equals the closed form
    reports = by_id(run_quantum_suite("conventional", 1.0, 10))
    r = reports["[q_i,K_j] = ((q_j[q_i,H]+[q_i,H]q_j)/2 - i t d_ij)"]
    momenta = sample_momenta(10)
    worst = 0.0
    for p in momenta:
        worst = max(worst, max(
            np.linalg.norm(worldline_defect(1.0, p, i, j))
            for i in range(3) for j in range(3)))
    assert r.max_residual == pytest.approx(worst, rel=1e-5)


def test_classical_state_validation():
    with pytest.raises(ValueError):
        ClassicalState(Q=np.zeros(3), P=np.zeros(3), S=np.ones(3), m=0.0)
