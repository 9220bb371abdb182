"""Batch verification of commutator and Poisson-bracket tables.

Four quantum operator sets are checked against the generator-algebra
identity table:

  conventional   block-diagonal-representation radius vector, rest-frame
                 spin, and their orbital/boost companions
  naive_dirac    the plain radius vector and Sigma/2 kept together with the
                 Dirac Hamiltonian (the set whose boost identities break)
  center_of_mass center-of-mass position with the laboratory-frame spin
  projected      energy-subspace-projected position/spin/OAM

plus the classical ten-generator Poisson table for a free spinning
particle.  Each identity yields an AlgebraReport whose verdict encodes
whether the identity held (or failed) as expected, so the suites assert
negative results as first-class outcomes.

One known caveat is encoded in the manifests: the worldline relation
[q_i, K_j] = (q_j [q_i, H] + [q_i, H] q_j)/2 - i t delta_ij cannot hold for
any spin-1/2 position operator with commuting components (the boost of a
localized state picks up a spin-dependent shift).  The suites therefore
expect it to fail -- for every set -- and verify the closed form of the
defect instead; see tests and the README for the residual's exact shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Callable

import numpy as np

from .dirac import GAMMA, dirac_hamiltonian, energy
from .phase_ops import (
    OperatorFamily,
    PhaseOpValue,
    PhaseSpaceOperator,
    build_operator,
    coeff_derivative,
    commutator_snapshot,
    constant_operator,
    levi,
    oam_like,
    radius_operator,
    snapshot,
)

QUANTUM_TOL = 1e-8
CLASSICAL_TOL = 1e-6
FAILURE_FLOOR = 1e-3

QUANTUM_SET_NAMES = ("conventional", "naive_dirac", "center_of_mass", "projected")


@dataclass
class AlgebraReport:
    """Pass/fail record for one identity over a sample of phase space."""

    identity_id: str
    set_name: str
    samples: int
    max_residual: float
    min_residual: float
    frac_above_floor: float
    tol: float
    floor: float
    expected: str            # "hold" | "fail"
    verdict: str             # "pass" | "fail"
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _verdict(expected: str, max_residual: float, tol: float, floor: float) -> str:
    if expected == "hold":
        return "pass" if max_residual <= tol else "fail"
    return "pass" if max_residual >= floor else "fail"


def _report(identity_id: str, set_name: str, residuals: list, expected: str,
            note: str, tol: float, floor: float) -> AlgebraReport:
    """Summarize one identity's per-sample worst residuals."""
    res = np.asarray(residuals)
    return AlgebraReport(
        identity_id=identity_id,
        set_name=set_name,
        samples=len(res),
        max_residual=float(res.max()),
        min_residual=float(res.min()),
        frac_above_floor=float(np.mean(res >= floor)),
        tol=tol,
        floor=floor,
        expected=expected,
        verdict=_verdict(expected, float(res.max()), tol, floor),
        note=note if expected == "fail" else "",
    )


def reports_to_json(reports: list) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)


def all_as_expected(reports: list) -> bool:
    return all(r.verdict == "pass" for r in reports)


# ---------------------------------------------------------------------------
# quantum operator sets
# ---------------------------------------------------------------------------

def _naive_boost(m: float, component: int) -> PhaseSpaceOperator:
    """Boost built blindly from the radius vector and Sigma/2 in the Dirac
    representation: (1/2){r_c, H_D} - (1/2){(Sigma x p)_c / 2, (2 beta m + alpha.p)^-1}."""
    c = component
    alpha, Sigma = GAMMA.alpha, GAMMA.Sigma

    def A(p):
        sxp = sum(levi(c, k, l) * p[l] * Sigma[k] for k in range(3) for l in range(3))
        dinv = dirac_hamiltonian(p, 2 * m) / (4 * m * m + p @ p)
        return 0.5j * alpha[c] - 0.25 * (sxp @ dinv + dinv @ sxp)

    def make_B(l):
        if l != c:
            return lambda p: np.zeros((4, 4), dtype=complex)
        def Bl(p):
            return 1j * dirac_hamiltonian(p, m)
        return Bl

    def grad_B(p):
        out = np.zeros((3, 3, 4, 4), dtype=complex)
        for k in range(3):
            out[c, k] = 1j * alpha[k]
        return out

    return PhaseSpaceOperator(4, A, tuple(make_B(l) for l in range(3)),
                              f"K_naive_{c + 1}", m, grad_B=grad_B)


def _velocity_closed_form(set_name: str, m: float):
    """Closed form of [q_i, H] and its gradient for the worldline check."""
    beta, alpha = GAMMA.beta, GAMMA.alpha
    if set_name == "naive_dirac":
        def C(p, i):
            return 1j * alpha[i]
        def dC(p, i, j):
            return np.zeros((4, 4), dtype=complex)
        return C, dC
    def C(p, i):
        return 1j * beta * p[i] / energy(p, m)
    def dC(p, i, j):
        e = energy(p, m)
        return 1j * beta * ((1.0 if i == j else 0.0) / e - p[i] * p[j] / e**3)
    return C, dC


def build_quantum_set(set_name: str, m: float) -> dict:
    """Operators keyed by role: q, s, l, j, K, H, p (vectors are 3-lists)."""
    F = OperatorFamily
    comps = (1, 2, 3)
    momentum = [build_operator(F.MOMENTUM, m, c) for c in comps]
    total_j = [build_operator(F.TOTAL_J, m, c) for c in comps]

    if set_name == "conventional":
        ops = {
            "q": [build_operator(F.FW_POSITION, m, c) for c in comps],
            "s": [build_operator(F.FW_SPIN, m, c) for c in comps],
            "l": [build_operator(F.OAM_FW, m, c) for c in comps],
            "K": [build_operator(F.BOOST_FW, m, c) for c in comps],
            "H": build_operator(F.FW_HAMILTONIAN, m),
        }
    elif set_name == "naive_dirac":
        half_sigma = [constant_operator(GAMMA.Sigma[k] / 2, f"s_D_{k + 1}")
                      for k in range(3)]
        ops = {
            "q": [radius_operator(4, k) for k in range(3)],
            "s": half_sigma,
            "l": [oam_like(4, k, lambda p: np.zeros((4, 4), dtype=complex),
                           f"l_D_{k + 1}") for k in range(3)],
            "K": [_naive_boost(m, k) for k in range(3)],
            "H": build_operator(F.DIRAC_HAMILTONIAN, m),
        }
    elif set_name == "center_of_mass":
        ops = {
            "q": [build_operator(F.COM_POSITION_FW, m, c) for c in comps],
            "s": [build_operator(F.LAB_SPIN_FW, m, c) for c in comps],
            "l": [build_operator(F.COM_OAM, m, c) for c in comps],
            "K": [build_operator(F.BOOST_FW, m, c) for c in comps],
            "H": build_operator(F.FW_HAMILTONIAN, m),
        }
    elif set_name == "projected":
        ops = {
            "q": [build_operator(F.PROJECTED_POSITION_FW, m, c) for c in comps],
            "s": [build_operator(F.PROJECTED_SPIN_FW, m, c) for c in comps],
            "l": [build_operator(F.PROJECTED_OAM, m, c) for c in comps],
            "K": [build_operator(F.BOOST_FW, m, c) for c in comps],
            "H": build_operator(F.FW_HAMILTONIAN, m),
        }
    else:
        raise ValueError(f"unknown quantum set: {set_name!r}")
    ops["p"] = momentum
    ops["j"] = total_j
    ops["set_name"] = set_name
    ops["mass"] = m
    return ops


# ---------------------------------------------------------------------------
# quantum identity catalogue
# ---------------------------------------------------------------------------

_PAIRS_ANTISYM = [(0, 1), (0, 2), (1, 2)]
_PAIRS_ALL = [(i, j) for i in range(3) for j in range(3)]
_SINGLES = [(i, 0) for i in range(3)]


def _zero_like(sn) -> PhaseOpValue:
    d = sn.dim
    return PhaseOpValue(np.zeros((d, d), complex), np.zeros((3, d, d), complex))


def _scaled(sn, c) -> PhaseOpValue:
    return PhaseOpValue(c * sn.A, c * sn.B)


def _eps_combo(snaps, i, j, c):
    """c * eps_ijk snaps[k] summed over k."""
    out = _zero_like(snaps[0])
    for k in range(3):
        w = levi(i, j, k)
        if w:
            out.A = out.A + c * w * snaps[k].A
            out.B = out.B + c * w * snaps[k].B
    return out


@dataclass(frozen=True)
class QuantumIdentity:
    identity_id: str
    lhs: tuple                      # (role_a, role_b); role "H" is scalar
    pairs: list
    rhs: Callable                   # (snaps dict, p, i, j) -> PhaseOpValue
    expected_by_set: dict
    note: str = ""

    def expected(self, set_name: str) -> str:
        return self.expected_by_set.get(set_name, "hold")


def _rhs_zero(snaps, p, i, j):
    return _zero_like(snaps["H"])


def _rhs_worldline(snaps, p, i, j, velocity, velocity_grad):
    # (1/2){q_j, C_i} with C_i = [q_i, H]; the -i t delta term vanishes at t=0
    qj = snaps["q"][j]
    C = velocity(p, i)
    dC = [velocity_grad(p, i, k) for k in range(3)]
    A = 0.5 * (qj.A @ C + C @ qj.A)
    for k in range(3):
        A = A + 0.5 * qj.B[k] @ dC[k]
    B = np.stack([0.5 * (qj.B[l] @ C + C @ qj.B[l]) for l in range(3)])
    return PhaseOpValue(A, B)


def quantum_identities() -> list:
    """Full identity table with per-set expectations."""
    worldline_note = (
        "cannot hold for commuting position components with spin 1/2: the "
        "boost shifts a localized state by a spin-dependent amount"
    )
    com_fail = {"center_of_mass": "fail", "projected": "fail"}
    ids = [
        QuantumIdentity("[p_i,p_j] = 0", ("p", "p"), _PAIRS_ANTISYM,
                        _rhs_zero, {}),
        QuantumIdentity("[p_i,H] = 0", ("p", "H"), _SINGLES, _rhs_zero, {}),
        QuantumIdentity("[j_i,H] = 0", ("j", "H"), _SINGLES, _rhs_zero, {}),
        QuantumIdentity("[j_i,j_j] = i e_ijk j_k", ("j", "j"), _PAIRS_ANTISYM,
                        lambda sn, p, i, j: _eps_combo(sn["j"], i, j, 1j), {}),
        QuantumIdentity("[j_i,p_j] = i e_ijk p_k", ("j", "p"), _PAIRS_ALL,
                        lambda sn, p, i, j: _eps_combo(sn["p"], i, j, 1j), {}),
        QuantumIdentity("[j_i,K_j] = i e_ijk K_k", ("j", "K"), _PAIRS_ALL,
                        lambda sn, p, i, j: _eps_combo(sn["K"], i, j, 1j), {}),
        QuantumIdentity("[K_i,H] = i p_i", ("K", "H"), _SINGLES,
                        lambda sn, p, i, j: _scaled(sn["p"][i], 1j), {}),
        QuantumIdentity("[K_i,K_j] = -i e_ijk j_k", ("K", "K"), _PAIRS_ANTISYM,
                        lambda sn, p, i, j: _eps_combo(sn["j"], i, j, -1j),
                        {"naive_dirac": "fail"}),
        QuantumIdentity("[K_i,p_j] = i d_ij H", ("K", "p"), _PAIRS_ALL,
                        lambda sn, p, i, j:
                        _scaled(sn["H"], 1j) if i == j else _zero_like(sn["H"]),
                        {}),
        QuantumIdentity("[q_i,K_j] = ((q_j[q_i,H]+[q_i,H]q_j)/2 - i t d_ij)",
                        ("q", "K"), _PAIRS_ALL, None,
                        {"conventional": "fail", "naive_dirac": "fail"},
                        note=worldline_note),
        QuantumIdentity("[q_i,p_j] = i d_ij", ("q", "p"), _PAIRS_ALL,
                        lambda sn, p, i, j:
                        PhaseOpValue(1j * np.eye(sn["q"][0].dim, dtype=complex)
                                     if i == j else
                                     np.zeros((sn["q"][0].dim,) * 2, complex),
                                     np.zeros((3, sn["q"][0].dim, sn["q"][0].dim),
                                              complex)),
                        {}),
        QuantumIdentity("[q_i,j_j] = i e_ijk q_k", ("q", "j"), _PAIRS_ALL,
                        lambda sn, p, i, j: _eps_combo(sn["q"], i, j, 1j), {}),
        QuantumIdentity("[q_i,s_j] = 0", ("q", "s"), _PAIRS_ALL, _rhs_zero,
                        dict(com_fail)),
        QuantumIdentity("[s_i,p_j] = 0", ("s", "p"), _PAIRS_ALL, _rhs_zero, {}),
        QuantumIdentity("[l_i,s_j] = 0", ("l", "s"), _PAIRS_ALL, _rhs_zero,
                        dict(com_fail)),
        QuantumIdentity("[l_i,l_j] = i e_ijk l_k", ("l", "l"), _PAIRS_ANTISYM,
                        lambda sn, p, i, j: _eps_combo(sn["l"], i, j, 1j),
                        dict(com_fail)),
        QuantumIdentity("[s_i,s_j] = i e_ijk s_k", ("s", "s"), _PAIRS_ANTISYM,
                        lambda sn, p, i, j: _eps_combo(sn["s"], i, j, 1j),
                        dict(com_fail)),
        QuantumIdentity("[q_i,q_j] = 0", ("q", "q"), _PAIRS_ANTISYM, _rhs_zero,
                        dict(com_fail)),
    ]
    return ids


# Identities carried by each suite.  The alternative sets focus on the
# commutation structure of their own position/spin/OAM plus the identities
# that must survive (total angular momentum assembly).
_COM_SUBSET = (
    "[q_i,q_j] = 0",
    "[l_i,l_j] = i e_ijk l_k",
    "[s_i,s_j] = i e_ijk s_k",
    "[l_i,s_j] = 0",
    "[q_i,s_j] = 0",
    "[j_i,j_j] = i e_ijk j_k",
    "[j_i,H] = 0",
    "[j_i,p_j] = i e_ijk p_k",
    "[q_i,p_j] = i d_ij",
    "[q_i,j_j] = i e_ijk q_k",
    "[s_i,p_j] = 0",
)


def identities_for_set(set_name: str) -> list:
    table = quantum_identities()
    if set_name in ("center_of_mass", "projected"):
        return [iden for iden in table if iden.identity_id in _COM_SUBSET]
    return table


def sample_momenta(n: int, seed: int = 42, box: float = 5.0,
                   min_norm: float = 1e-3) -> np.ndarray:
    """Uniform momenta in [-box, box]^3, rejecting a ball around p = 0."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, 3))
    k = 0
    while k < n:
        p = rng.uniform(-box, box, 3)
        if np.linalg.norm(p) >= min_norm:
            out[k] = p
            k += 1
    return out


def run_quantum_suite(set_name: str, m: float, n_samples: int,
                      seed: int = 42, tol: float = QUANTUM_TOL,
                      floor: float = FAILURE_FLOOR) -> list:
    """Evaluate every identity of a set at seeded random momenta."""
    ops = build_quantum_set(set_name, m)
    idents = identities_for_set(set_name)
    momenta = sample_momenta(n_samples, seed)
    velocity, velocity_grad = _velocity_closed_form(set_name, m)

    residuals = {iden.identity_id: [] for iden in idents}
    roles = ("q", "s", "l", "K", "p", "j")
    for p in momenta:
        snaps = {r: [snapshot(op, p) for op in ops[r]] for r in roles
                 if any(iden.lhs[0] == r or iden.lhs[1] == r for iden in idents)}
        snaps["H"] = snapshot(ops["H"], p)
        for iden in idents:
            worst = 0.0
            for (i, j) in iden.pairs:
                a = snaps[iden.lhs[0]][i] if iden.lhs[0] != "H" else snaps["H"]
                b = snaps[iden.lhs[1]][j] if iden.lhs[1] != "H" else snaps["H"]
                lhs = commutator_snapshot(a, b)
                if iden.rhs is None:
                    rhs = _rhs_worldline(snaps, p, i, j, velocity, velocity_grad)
                else:
                    rhs = iden.rhs(snaps, p, i, j)
                worst = max(worst, (lhs - rhs).norm())
            residuals[iden.identity_id].append(worst)

    return [_report(iden.identity_id, set_name, residuals[iden.identity_id],
                    iden.expected(set_name), iden.note, tol, floor)
            for iden in idents]


def worldline_defect(set_name: str, m: float, p, i: int, j: int) -> np.ndarray:
    """Closed form of the [q_i, K_j] worldline residual for the conventional set.

    residual = -i beta d/dp_i [ (Sigma x p)_j / (2(eps+m)) ]
    """
    if set_name != "conventional":
        raise ValueError("closed-form defect is provided for the conventional set")
    p = np.asarray(p, dtype=float)
    e = energy(p, m)
    Sigma, beta = GAMMA.Sigma, GAMMA.beta
    sxp_j = sum(levi(j, k, l) * p[l] * Sigma[k] for k in range(3) for l in range(3))
    term = sum(levi(j, k, i) * Sigma[k] for k in range(3)) / (2 * (e + m)) \
        - sxp_j * p[i] / (2 * e * (e + m) ** 2)
    return -1j * beta @ term


# ---------------------------------------------------------------------------
# classical side
# ---------------------------------------------------------------------------

@dataclass
class ClassicalState:
    """Phase-space point of a free spinning particle."""

    Q: np.ndarray
    P: np.ndarray
    S: np.ndarray
    m: float
    t: float = 0.0

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.P = np.asarray(self.P, dtype=float)
        self.S = np.asarray(self.S, dtype=float)
        if self.m <= 0:
            raise ValueError("classical suite requires m > 0")

    def replace(self, **kw) -> "ClassicalState":
        data = {"Q": self.Q.copy(), "P": self.P.copy(), "S": self.S.copy(),
                "m": self.m, "t": self.t}
        data.update(kw)
        return ClassicalState(**data)


def _gradient_triple(f: Callable, state: ClassicalState,
                     rel_step: float = 1e-6) -> tuple:
    """(dQ, dP, dS) of a scalar observable, by coeff_derivative in each block."""
    def block_gradient(block):
        def along(vec):
            return f(state.replace(**{block: vec}))
        vec = getattr(state, block)
        return np.array([coeff_derivative(along, vec, k, rel_step) for k in range(3)])
    return tuple(block_gradient(block) for block in ("Q", "P", "S"))


def _bracket_from_grads(gf, gg, S) -> float:
    val = float(gf[0] @ gg[1] - gf[1] @ gg[0])
    cross = np.cross(gf[2], gg[2])
    return val + float(S @ cross)


def poisson_bracket(f: Callable, g: Callable, state: ClassicalState,
                    rel_step: float = 1e-6) -> float:
    """{f, g} with canonical (Q, P) pairs plus the su(2) spin bracket
    {S_i, S_j} = e_ijk S_k."""
    return _bracket_from_grads(_gradient_triple(f, state, rel_step),
                               _gradient_triple(g, state, rel_step), state.S)


def classical_H(state: ClassicalState) -> float:
    return float(np.sqrt(state.m**2 + state.P @ state.P))


def classical_K(state: ClassicalState, i: int) -> float:
    h = classical_H(state)
    sxp = np.cross(state.S, state.P)
    return float(state.Q[i] * h - sxp[i] / (state.m + h) - state.t * state.P[i])


def classical_J(state: ClassicalState, i: int) -> float:
    return float(np.cross(state.Q, state.P)[i] + state.S[i])


def classical_L(state: ClassicalState, i: int) -> float:
    return float(np.cross(state.Q, state.P)[i])


def classical_observable(name: str, i: int = 0) -> Callable:
    """Named scalar observable; vector components via index i."""
    if name == "H":
        return classical_H
    if name == "Q":
        return lambda st: float(st.Q[i])
    if name == "P":
        return lambda st: float(st.P[i])
    if name == "S":
        return lambda st: float(st.S[i])
    if name == "J":
        return lambda st: classical_J(st, i)
    if name == "L":
        return lambda st: classical_L(st, i)
    if name == "K":
        return lambda st: classical_K(st, i)
    raise ValueError(f"unknown classical observable {name!r}")


@dataclass(frozen=True)
class ClassicalIdentity:
    identity_id: str
    lhs: tuple
    pairs: list
    rhs: Callable                    # (state, i, j) -> float
    expected: str = "hold"
    note: str = ""


def classical_identities() -> list:
    def eps_term(name):
        def rhs(st, i, j):
            return sum(levi(i, j, k) * classical_observable(name, k)(st)
                       for k in range(3))
        return rhs

    def zero(st, i, j):
        return 0.0

    worldline_note = ("same spin-induced worldline defect as the quantum "
                      "table; holds only for spinless states")
    return [
        ClassicalIdentity("{P_i,P_j} = 0", ("P", "P"), _PAIRS_ANTISYM, zero),
        ClassicalIdentity("{P_i,H} = 0", ("P", "H"), _SINGLES, zero),
        ClassicalIdentity("{J_i,H} = 0", ("J", "H"), _SINGLES, zero),
        ClassicalIdentity("{J_i,J_j} = e_ijk J_k", ("J", "J"), _PAIRS_ANTISYM,
                          eps_term("J")),
        ClassicalIdentity("{J_i,P_j} = e_ijk P_k", ("J", "P"), _PAIRS_ALL,
                          eps_term("P")),
        ClassicalIdentity("{J_i,K_j} = e_ijk K_k", ("J", "K"), _PAIRS_ALL,
                          eps_term("K")),
        ClassicalIdentity("{K_i,H} = P_i", ("K", "H"), _SINGLES,
                          lambda st, i, j: float(st.P[i])),
        ClassicalIdentity("{K_i,K_j} = -e_ijk J_k", ("K", "K"), _PAIRS_ANTISYM,
                          lambda st, i, j: -sum(levi(i, j, k) * classical_J(st, k)
                                                for k in range(3))),
        ClassicalIdentity("{K_i,P_j} = d_ij H", ("K", "P"), _PAIRS_ALL,
                          lambda st, i, j: classical_H(st) if i == j else 0.0),
        ClassicalIdentity("{Q_i,P_j} = d_ij", ("Q", "P"), _PAIRS_ALL,
                          lambda st, i, j: 1.0 if i == j else 0.0),
        ClassicalIdentity("{Q_i,J_j} = e_ijk Q_k", ("Q", "J"), _PAIRS_ALL,
                          eps_term("Q")),
        ClassicalIdentity("{Q_i,K_j} = Q_j{Q_i,H} - t d_ij", ("Q", "K"),
                          _PAIRS_ALL,
                          lambda st, i, j: float(
                              st.Q[j] * st.P[i] / classical_H(st)
                              - st.t * (1.0 if i == j else 0.0)),
                          expected="fail", note=worldline_note),
        ClassicalIdentity("{L_i,P_j} = e_ijk P_k", ("L", "P"), _PAIRS_ALL,
                          eps_term("P")),
        ClassicalIdentity("{S_i,P_j} = 0", ("S", "P"), _PAIRS_ALL, zero),
        ClassicalIdentity("{Q_i,Q_j} = 0", ("Q", "Q"), _PAIRS_ANTISYM, zero),
        ClassicalIdentity("{Q_i,L_j} = e_ijk Q_k", ("Q", "L"), _PAIRS_ALL,
                          eps_term("Q")),
        ClassicalIdentity("{Q_i,S_j} = 0", ("Q", "S"), _PAIRS_ALL, zero),
        ClassicalIdentity("{P_i,S_j} = 0", ("P", "S"), _PAIRS_ALL, zero),
        ClassicalIdentity("{L_i,L_j} = e_ijk L_k", ("L", "L"), _PAIRS_ANTISYM,
                          eps_term("L")),
        ClassicalIdentity("{S_i,S_j} = e_ijk S_k", ("S", "S"), _PAIRS_ANTISYM,
                          eps_term("S")),
        ClassicalIdentity("{L_i,S_j} = 0", ("L", "S"), _PAIRS_ALL, zero),
        ClassicalIdentity("{H,Q_i} = -P_i/H", ("H", "Q"), [(0, i) for i in range(3)],
                          lambda st, i, j: float(-st.P[j] / classical_H(st))),
    ]


def sample_states(n: int, m: float = 1.0, seed: int = 42) -> list:
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        q = rng.uniform(-5, 5, 3)
        p = rng.uniform(-5, 5, 3)
        while np.linalg.norm(p) < 1e-3:
            p = rng.uniform(-5, 5, 3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        s = direction * rng.uniform(0.5, 2.0)
        states.append(ClassicalState(Q=q, P=p, S=s, m=m))
    return states


def _state_gradients(state: ClassicalState, rel_step: float = 1e-6) -> dict:
    """Gradient triples (dQ, dP, dS) of every catalogued observable."""
    out = {}
    for name in ("H", "Q", "P", "S", "J", "L", "K"):
        comps = (0,) if name == "H" else (0, 1, 2)
        for i in comps:
            out[(name, i)] = _gradient_triple(classical_observable(name, i),
                                              state, rel_step)
    return out


def run_classical_suite(n_samples: int, m: float = 1.0, seed: int = 42,
                        tol: float = CLASSICAL_TOL,
                        floor: float = FAILURE_FLOOR) -> list:
    """Evaluate the Poisson table at seeded random states."""
    idents = classical_identities()
    states = sample_states(n_samples, m, seed)
    residuals = {iden.identity_id: [] for iden in idents}
    for st in states:
        grads = _state_gradients(st)
        for iden in idents:
            worst = 0.0
            for (i, j) in iden.pairs:
                gf = grads[(iden.lhs[0], i if iden.lhs[0] != "H" else 0)]
                gg = grads[(iden.lhs[1], j if iden.lhs[1] != "H" else 0)]
                val = _bracket_from_grads(gf, gg, st.S)
                worst = max(worst, abs(val - iden.rhs(st, i, j)))
            residuals[iden.identity_id].append(worst)

    return [_report(iden.identity_id, "classical", residuals[iden.identity_id],
                    iden.expected, iden.note, tol, floor)
            for iden in idents]


def classical_worldline_defect(state: ClassicalState, i: int, j: int) -> float:
    """Closed form of the {Q_i, K_j} residual:
    -e_ijk S_k/(m+H) + (S x P)_j P_i / (H (m+H)^2)."""
    h = classical_H(state)
    sxp = np.cross(state.S, state.P)
    return float(-sum(levi(i, j, k) * state.S[k] for k in range(3)) / (state.m + h)
                 + sxp[j] * state.P[i] / (h * (state.m + h) ** 2))
