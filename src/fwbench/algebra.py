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

Both kinds of suite evaluate exactly, on a whole stack of samples at once.
A quantum operator is snapshotted once on the (N, 3) momenta and each
identity pair is one batched commutator.  A classical observable is one
forward-mode Jet expression over the 9 phase-space coordinates (Q, P, S),
evaluated once on the stack of states, and each identity pair is one
Poisson bracket of the exact gradients.  Identities are checked at t = 0,
so the -t d_ij terms of the worldline relations vanish.

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

from .dirac import GAMMA, dirac_hamiltonian
from .phase_ops import (
    Jet,
    OperatorFamily,
    PhaseOpValue,
    PhaseSpaceOperator,
    build_operator,
    commutator_snapshot,
    cross_c,
    energy_jet,
    levi,
    momentum_jets,
    p_dot,
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
            note: str, tol: float) -> AlgebraReport:
    """Summarize one identity's per-sample worst residuals against tol and
    FAILURE_FLOOR."""
    res, floor = np.asarray(residuals), FAILURE_FLOOR
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
    alpha, Sigma = np.stack(GAMMA.alpha), np.stack(GAMMA.Sigma)

    def coeffs(p):
        P = momentum_jets(p)
        sxp = cross_c(Sigma, P, c)
        dinv = Jet(dirac_hamiltonian(p, 2 * m), alpha) / (4 * m * m + p_dot(P, P))
        A = 0.5j * alpha[c] - 0.25 * (sxp @ dinv + dinv @ sxp)
        B = [0.0, 0.0, 0.0]
        B[c] = 1j * Jet(dirac_hamiltonian(p, m), alpha)
        return (A, *B)

    return PhaseSpaceOperator(4, coeffs, f"K_naive_{c + 1}")


def _velocity_closed_form(set_name: str, m: float):
    """Closed form of [q_i, H] as a Jet at momenta p, for the worldline check."""
    if set_name == "naive_dirac":
        return lambda p, i: Jet(1j * GAMMA.alpha[i], np.zeros((3, 4, 4)))
    return lambda p, i: 1j * GAMMA.beta * momentum_jets(p)[i] / energy_jet(p, m)


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
        # i d/dp, i (p x d/dp) and Sigma/2 have the same coefficients in every
        # representation: the plain radius vector, orbital angular momentum
        # and spin, here kept together with the Dirac Hamiltonian
        ops = {
            "q": [build_operator(F.FW_POSITION, m, c) for c in comps],
            "s": [build_operator(F.DIRAC_SPIN, m, c) for c in comps],
            "l": [build_operator(F.OAM_FW, m, c) for c in comps],
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
    return ops


# ---------------------------------------------------------------------------
# quantum identity catalogue
# ---------------------------------------------------------------------------

_PAIRS_ANTISYM = [(0, 1), (0, 2), (1, 2)]
_PAIRS_ALL = [(i, j) for i in range(3) for j in range(3)]
_SINGLES = [(i, 0) for i in range(3)]


def _zero_like(sn) -> PhaseOpValue:
    return PhaseOpValue(np.zeros_like(sn.A), np.zeros_like(sn.B))


def _scaled(sn, c) -> PhaseOpValue:
    return PhaseOpValue(c * sn.A, c * sn.B)


def _eps_combo(snaps, i, j, c):
    """c * eps_ijk snaps[k] summed over k: one term, k = 3 - i - j, if i != j."""
    if i == j:
        return _zero_like(snaps[0])
    return _scaled(snaps[3 - i - j], c * levi(i, j, 3 - i - j))


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


def _rhs_worldline(snaps, p, i, j, velocity):
    # (1/2){q_j, C_i} with C_i = [q_i, H]; the -i t delta term vanishes at t=0
    qj = snaps["q"][j]
    C = velocity(p, i)
    Cl = C.val[..., None, :, :]
    A = 0.5 * (qj.A @ C.val + C.val @ qj.A) + 0.5 * (qj.B @ C.grad).sum(axis=-3)
    return PhaseOpValue(A, 0.5 * (qj.B @ Cl + Cl @ qj.B))


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
                        lambda sn, p, i, j: PhaseOpValue(
                            1j * float(i == j) * np.eye(sn["q"][0].dim),
                            np.zeros((3, 1, 1))),
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
                      seed: int = 42) -> list:
    """Evaluate every identity of a set at seeded random momenta.

    Each operator is evaluated once on the whole (n_samples, 3) stack, and
    each identity pair is one commutator over that stack.
    """
    ops = build_quantum_set(set_name, m)
    idents = identities_for_set(set_name)
    momenta = sample_momenta(n_samples, seed)
    velocity = _velocity_closed_form(set_name, m)

    roles = {r for iden in idents for r in iden.lhs if r != "H"}
    snaps = {r: [snapshot(op, momenta) for op in ops[r]] for r in roles}
    snaps["H"] = snapshot(ops["H"], momenta)
    reports = []
    for iden in idents:
        worst = np.zeros(n_samples)
        for (i, j) in iden.pairs:
            a = snaps[iden.lhs[0]][i] if iden.lhs[0] != "H" else snaps["H"]
            b = snaps[iden.lhs[1]][j] if iden.lhs[1] != "H" else snaps["H"]
            if iden.rhs is None:
                rhs = _rhs_worldline(snaps, momenta, i, j, velocity)
            else:
                rhs = iden.rhs(snaps, momenta, i, j)
            worst = np.maximum(worst, (commutator_snapshot(a, b) - rhs).norm())
        reports.append(_report(iden.identity_id, set_name, worst,
                               iden.expected(set_name), iden.note, QUANTUM_TOL))
    return reports


# ---------------------------------------------------------------------------
# classical side
# ---------------------------------------------------------------------------

@dataclass
class ClassicalState:
    """Phase-space points of a free spinning particle: Q, P and S of shape
    (..., 3), one point or a stack."""

    Q: np.ndarray
    P: np.ndarray
    S: np.ndarray
    m: float

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.P = np.asarray(self.P, dtype=float)
        self.S = np.asarray(self.S, dtype=float)
        if self.m <= 0:
            raise ValueError("classical suite requires m > 0")


def classical_observables(state: ClassicalState) -> dict:
    """Every catalogued observable at the states, as a scalar Jet over the 9
    phase-space coordinates (Q, P, S).

    "H" is one Jet, with the closed-form gradient (0, P/H, 0); Q, P, S, L, J
    and K are 3-lists, with
        L = Q x P,  J = L + S,  K_i = Q_i H - (S x P)_i / (m + H).
    """
    X = momentum_jets(np.concatenate([state.Q, state.P, state.S], axis=-1))
    Q, P, S = X[0:3], X[3:6], X[6:9]
    e = energy_jet(state.P, state.m)
    zero = np.zeros_like(e.grad)
    H = Jet(e.val, np.concatenate([zero, e.grad, zero], axis=-3))
    L = [cross_c(Q, P, c) for c in range(3)]
    return {"H": H, "Q": Q, "P": P, "S": S, "L": L,
            "J": [L[c] + S[c] for c in range(3)],
            "K": [Q[c] * H - cross_c(S, P, c) / (state.m + H) for c in range(3)]}


def poisson_bracket(f: Jet, g: Jet, state: ClassicalState) -> np.ndarray:
    """{f, g} at the states, exact, for observables given as Jets over
    (Q, P, S): canonical (Q, P) pairs plus the su(2) spin bracket
    {S_i, S_j} = e_ijk S_k,

        {f, g} = df/dQ . dg/dP - df/dP . dg/dQ + S . (df/dS x dg/dS).
    """
    a, b = f.grad[..., 0, 0], g.grad[..., 0, 0]
    canonical = (a[..., 0:3] * b[..., 3:6] - a[..., 3:6] * b[..., 0:3]).sum(axis=-1)
    return canonical + (state.S * np.cross(a[..., 6:9], b[..., 6:9])).sum(axis=-1)


def _value(obs: Jet) -> np.ndarray:
    """An observable's values, one per state."""
    return obs.val[..., 0, 0]


@dataclass(frozen=True)
class ClassicalIdentity:
    identity_id: str
    lhs: tuple
    pairs: list
    rhs: Callable                    # (observables dict, i, j) -> values
    expected: str = "hold"
    note: str = ""


def classical_identities() -> list:
    def eps_term(name):
        def rhs(obs, i, j):
            return sum(levi(i, j, k) * _value(obs[name][k]) for k in range(3))
        return rhs

    def zero(obs, i, j):
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
                          lambda obs, i, j: _value(obs["P"][i])),
        ClassicalIdentity("{K_i,K_j} = -e_ijk J_k", ("K", "K"), _PAIRS_ANTISYM,
                          lambda obs, i, j: -eps_term("J")(obs, i, j)),
        ClassicalIdentity("{K_i,P_j} = d_ij H", ("K", "P"), _PAIRS_ALL,
                          lambda obs, i, j: _value(obs["H"]) if i == j else 0.0),
        ClassicalIdentity("{Q_i,P_j} = d_ij", ("Q", "P"), _PAIRS_ALL,
                          lambda obs, i, j: 1.0 if i == j else 0.0),
        ClassicalIdentity("{Q_i,J_j} = e_ijk Q_k", ("Q", "J"), _PAIRS_ALL,
                          eps_term("Q")),
        ClassicalIdentity("{Q_i,K_j} = Q_j{Q_i,H} - t d_ij", ("Q", "K"),
                          _PAIRS_ALL,
                          lambda obs, i, j: (_value(obs["Q"][j]) * _value(obs["P"][i])
                                             / _value(obs["H"])),
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
                          lambda obs, i, j: -_value(obs["P"][j]) / _value(obs["H"])),
    ]


def sample_states(n: int, m: float = 1.0, seed: int = 42) -> ClassicalState:
    """n seeded states, stacked: Q and P uniform in [-5, 5]^3 (|P| >= 1e-3),
    S along a random direction with length uniform in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    Q, P, S = np.empty((n, 3)), np.empty((n, 3)), np.empty((n, 3))
    for k in range(n):
        Q[k] = rng.uniform(-5, 5, 3)
        p = rng.uniform(-5, 5, 3)
        while np.linalg.norm(p) < 1e-3:
            p = rng.uniform(-5, 5, 3)
        P[k] = p
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        S[k] = direction * rng.uniform(0.5, 2.0)
    return ClassicalState(Q=Q, P=P, S=S, m=m)


def run_classical_suite(n_samples: int, m: float = 1.0, seed: int = 42) -> list:
    """Evaluate the Poisson table at seeded random states.

    The observables are evaluated once on the whole stack of states, and
    each identity pair is one exact bracket over that stack.
    """
    states = sample_states(n_samples, m, seed)
    obs = classical_observables(states)
    reports = []
    for iden in classical_identities():
        worst = np.zeros(n_samples)
        for (i, j) in iden.pairs:
            f = obs["H"] if iden.lhs[0] == "H" else obs[iden.lhs[0]][i]
            g = obs["H"] if iden.lhs[1] == "H" else obs[iden.lhs[1]][j]
            worst = np.maximum(worst, np.abs(poisson_bracket(f, g, states)
                                             - iden.rhs(obs, i, j)))
        reports.append(_report(iden.identity_id, "classical", worst,
                               iden.expected, iden.note, CLASSICAL_TOL))
    return reports

