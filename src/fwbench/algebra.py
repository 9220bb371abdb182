"""Batch verification of one identity table with two brackets.

The generator algebra is one table (IDENTITIES).  Each row is read as a
commutator by four quantum operator sets,

  conventional   block-diagonal-representation radius vector, rest-frame
                 spin, and their orbital/boost companions
  naive_dirac    the plain radius vector and Sigma/2 kept together with the
                 Dirac Hamiltonian (the set whose boost identities break)
  center_of_mass center-of-mass position with the laboratory-frame spin
  projected      energy-subspace-projected position/spin/OAM

and as a Poisson bracket by the classical ten generators of a free
spinning particle; each row names the sets that carry it.  Each identity
yields an AlgebraReport whose verdict encodes whether the identity held (or
failed) as expected, so the suites assert negative results as first-class
outcomes.

Both evaluators work exactly, on a whole stack of samples at once.  A
quantum operator is snapshotted once on the (N, 3) momenta and each
identity pair is one batched commutator.  A classical observable is one
forward-mode Jet expression over the 9 phase-space coordinates (Q, P, S),
evaluated once on the stack of states, and each identity pair is one
Poisson bracket of the exact gradients.  Identities are checked at t = 0,
so the -t d_ij terms of the worldline relations vanish.

One known caveat is encoded in the table: the worldline relation
[q_i, K_j] = (q_j [q_i, H] + [q_i, H] q_j)/2 - i t delta_ij cannot hold for
any spin-1/2 position operator with commuting components (the boost of a
localized state picks up a spin-dependent shift).  Every set that carries
it, the classical one included, therefore expects it to fail, and the tests
verify the closed form of the defect instead; see the README for the
residual's exact shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, field
from typing import Optional

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


F = OperatorFamily

# Families of q, s, l, K and H per set; K None is the naive boost.  In
# naive_dirac, i d/dp, i (p x d/dp) and Sigma/2 have the same coefficients in
# every representation: the plain radius vector, orbital angular momentum
# and spin, here kept together with the Dirac Hamiltonian.
_SET_FAMILIES = {
    "conventional": (F.FW_POSITION, F.FW_SPIN, F.OAM_FW, F.BOOST_FW, F.FW_HAMILTONIAN),
    "naive_dirac": (F.FW_POSITION, F.DIRAC_SPIN, F.OAM_FW, None, F.DIRAC_HAMILTONIAN),
    "center_of_mass": (F.COM_POSITION_FW, F.LAB_SPIN_FW, F.COM_OAM, F.BOOST_FW,
                       F.FW_HAMILTONIAN),
    "projected": (F.PROJECTED_POSITION_FW, F.PROJECTED_SPIN_FW, F.PROJECTED_OAM,
                  F.BOOST_FW, F.FW_HAMILTONIAN),
}


def build_quantum_set(set_name: str, m: float) -> dict:
    """Operators keyed by role: q, s, l, j, K, H, p (vectors are 3-lists)."""
    if set_name not in _SET_FAMILIES:
        raise ValueError(f"unknown quantum set: {set_name!r}")
    q, s, l, K, H = _SET_FAMILIES[set_name]

    def vector(family):
        return [build_operator(family, m, c) for c in (1, 2, 3)]

    return {"q": vector(q), "s": vector(s), "l": vector(l),
            "K": vector(K) if K else [_naive_boost(m, k) for k in range(3)],
            "H": build_operator(H, m), "p": vector(F.MOMENTUM), "j": vector(F.TOTAL_J)}


# ---------------------------------------------------------------------------
# the identity table
# ---------------------------------------------------------------------------

_PAIRS_ANTISYM = ((0, 1), (0, 2), (1, 2))
_PAIRS_ALL = tuple((i, j) for i in range(3) for j in range(3))
_SINGLES = ((0, 0), (1, 0), (2, 0))

# The suites that carry a row.  The center_of_mass and projected suites keep
# the commutation structure of their own position, spin and OAM, plus the
# relations that must survive (total angular momentum assembly).
_EVERY = QUANTUM_SET_NAMES + ("classical",)
_FULL = ("conventional", "naive_dirac", "classical")
_COM_FAIL = {"center_of_mass": "fail", "projected": "fail"}
_ZERO = ("zero", None, 0)


@dataclass(frozen=True)
class Identity:
    """One relation of the generator algebra, read with two brackets.

    The commutator of quantum operators and the Poisson bracket of their
    classical counterparts obey the same relation, [a, b] = i {A, B}.  lhs
    names the two roles in the quantum letters q s l j K H p; the classical
    role is the upper-case letter, and H is a scalar.  rhs is one term
    (kind, role, c) in the classical convention, for the pair's components
    i, j and the role's observable R (role None is the number 1):

      zero       0
      eps        c e_ijk R_k
      i          c R_i
      delta      c d_ij R
      worldline  c Q_j {Q_i, H}; quantum c (q_j [q_i,H] + [q_i,H] q_j)/2
      velocity   c {Q_j, H} = c P_j / H

    The quantum suite reads the term times i.  sets names the suites that
    carry the row, "classical" among them.  A row is expected to hold in a
    set unless expected_by_set says "fail"; notes (quantum, classical)
    explains an expected failure in its report.
    """

    quantum_id: Optional[str]
    classical_id: Optional[str]
    lhs: tuple
    pairs: tuple
    rhs: tuple
    sets: tuple
    expected_by_set: dict = field(default_factory=dict)
    notes: tuple = ("", "")

    def expected(self, set_name: str) -> str:
        return self.expected_by_set.get(set_name, "hold")


_WORLDLINE_NOTES = (
    "cannot hold for commuting position components with spin 1/2: the "
    "boost shifts a localized state by a spin-dependent amount",
    "same spin-induced worldline defect as the quantum "
    "table; holds only for spinless states",
)

# Quantum report order; the classical-only rows come last.
IDENTITIES = (
    Identity("[p_i,p_j] = 0", "{P_i,P_j} = 0",
             ("p", "p"), _PAIRS_ANTISYM, _ZERO, _FULL),
    Identity("[p_i,H] = 0", "{P_i,H} = 0",
             ("p", "H"), _SINGLES, _ZERO, _FULL),
    Identity("[j_i,H] = 0", "{J_i,H} = 0",
             ("j", "H"), _SINGLES, _ZERO, _EVERY),
    Identity("[j_i,j_j] = i e_ijk j_k", "{J_i,J_j} = e_ijk J_k",
             ("j", "j"), _PAIRS_ANTISYM, ("eps", "j", 1), _EVERY),
    Identity("[j_i,p_j] = i e_ijk p_k", "{J_i,P_j} = e_ijk P_k",
             ("j", "p"), _PAIRS_ALL, ("eps", "p", 1), _EVERY),
    Identity("[j_i,K_j] = i e_ijk K_k", "{J_i,K_j} = e_ijk K_k",
             ("j", "K"), _PAIRS_ALL, ("eps", "K", 1), _FULL),
    Identity("[K_i,H] = i p_i", "{K_i,H} = P_i",
             ("K", "H"), _SINGLES, ("i", "p", 1), _FULL),
    Identity("[K_i,K_j] = -i e_ijk j_k", "{K_i,K_j} = -e_ijk J_k",
             ("K", "K"), _PAIRS_ANTISYM, ("eps", "j", -1), _FULL, {"naive_dirac": "fail"}),
    Identity("[K_i,p_j] = i d_ij H", "{K_i,P_j} = d_ij H",
             ("K", "p"), _PAIRS_ALL, ("delta", "H", 1), _FULL),
    Identity("[q_i,K_j] = ((q_j[q_i,H]+[q_i,H]q_j)/2 - i t d_ij)",
             "{Q_i,K_j} = Q_j{Q_i,H} - t d_ij",
             ("q", "K"), _PAIRS_ALL, ("worldline", None, 1), _FULL,
             {"conventional": "fail", "naive_dirac": "fail", "classical": "fail"},
             _WORLDLINE_NOTES),
    Identity("[q_i,p_j] = i d_ij", "{Q_i,P_j} = d_ij",
             ("q", "p"), _PAIRS_ALL, ("delta", None, 1), _EVERY),
    Identity("[q_i,j_j] = i e_ijk q_k", "{Q_i,J_j} = e_ijk Q_k",
             ("q", "j"), _PAIRS_ALL, ("eps", "q", 1), _EVERY),
    Identity("[q_i,s_j] = 0", "{Q_i,S_j} = 0",
             ("q", "s"), _PAIRS_ALL, _ZERO, _EVERY, _COM_FAIL),
    Identity("[s_i,p_j] = 0", "{S_i,P_j} = 0",
             ("s", "p"), _PAIRS_ALL, _ZERO, _EVERY),
    Identity("[l_i,s_j] = 0", "{L_i,S_j} = 0",
             ("l", "s"), _PAIRS_ALL, _ZERO, _EVERY, _COM_FAIL),
    Identity("[l_i,l_j] = i e_ijk l_k", "{L_i,L_j} = e_ijk L_k",
             ("l", "l"), _PAIRS_ANTISYM, ("eps", "l", 1), _EVERY, _COM_FAIL),
    Identity("[s_i,s_j] = i e_ijk s_k", "{S_i,S_j} = e_ijk S_k",
             ("s", "s"), _PAIRS_ANTISYM, ("eps", "s", 1), _EVERY, _COM_FAIL),
    Identity("[q_i,q_j] = 0", "{Q_i,Q_j} = 0",
             ("q", "q"), _PAIRS_ANTISYM, _ZERO, _EVERY, _COM_FAIL),
    Identity(None, "{L_i,P_j} = e_ijk P_k",
             ("l", "p"), _PAIRS_ALL, ("eps", "p", 1), ("classical",)),
    Identity(None, "{Q_i,L_j} = e_ijk Q_k",
             ("q", "l"), _PAIRS_ALL, ("eps", "q", 1), ("classical",)),
    Identity(None, "{P_i,S_j} = 0",
             ("p", "s"), _PAIRS_ALL, _ZERO, ("classical",)),
    Identity(None, "{H,Q_i} = -P_i/H",
             ("H", "q"), ((0, 0), (0, 1), (0, 2)), ("velocity", None, -1), ("classical",)),
)

# Classical report order, as indices into IDENTITIES.
_CLASSICAL_ORDER = (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 9, 18, 13, 17, 19, 12, 20, 15, 16,
                    14, 21)


def identities_for_set(set_name: str) -> list:
    """The rows a suite carries, in its report order; "classical" names the
    Poisson-bracket suite."""
    if set_name == "classical":
        return [IDENTITIES[k] for k in _CLASSICAL_ORDER]
    return [iden for iden in IDENTITIES if set_name in iden.sets]


def _operand(values: dict, role: str, k: int):
    """Component k of a role's operators or observables; H is a scalar."""
    return values["H"] if role == "H" else values[role][k]


def _zero_like(sn) -> PhaseOpValue:
    return PhaseOpValue(np.zeros_like(sn.A), np.zeros_like(sn.B))


def _scaled(sn, c) -> PhaseOpValue:
    return PhaseOpValue(c * sn.A, c * sn.B)


def _rhs_worldline(snaps, p, i, j, velocity):
    # (1/2){q_j, C_i} with C_i = [q_i, H]; the -i t delta term vanishes at t=0
    qj = snaps["q"][j]
    C = velocity(p, i)
    Cl = C.val[..., None, :, :]
    A = 0.5 * (qj.A @ C.val + C.val @ qj.A) + 0.5 * (qj.B @ C.grad).sum(axis=-3)
    return PhaseOpValue(A, 0.5 * (qj.B @ Cl + Cl @ qj.B))


def _quantum_rhs(term, snaps: dict, p, i: int, j: int, velocity) -> PhaseOpValue:
    """i times a table term, from the snapshots at momenta p."""
    kind, role, c = term
    R = snaps.get(role)
    if kind == "eps":
        k = 3 - i - j
        return _scaled(R[k], 1j * c * levi(i, j, k)) if i != j else _zero_like(snaps["H"])
    if kind == "i":
        return _scaled(R[i], 1j * c)
    if kind == "delta":
        if i != j:
            return _zero_like(snaps["H"])
        if R is None:
            return PhaseOpValue(1j * c * np.eye(snaps["H"].dim), np.zeros((3, 1, 1)))
        return _scaled(R, 1j * c)
    if kind == "worldline":
        return _scaled(_rhs_worldline(snaps, p, i, j, velocity), c)
    if kind == "zero":
        return _zero_like(snaps["H"])
    raise ValueError(f"no quantum form for a {kind!r} term")


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

    roles = {r for iden in idents for r in (*iden.lhs, iden.rhs[1])
             if r not in ("H", None)}
    snaps = {r: [snapshot(op, momenta) for op in ops[r]] for r in roles}
    snaps["H"] = snapshot(ops["H"], momenta)
    reports = []
    for iden in idents:
        a, b = iden.lhs
        worst = np.zeros(n_samples)
        for (i, j) in iden.pairs:
            residual = (commutator_snapshot(_operand(snaps, a, i), _operand(snaps, b, j))
                        - _quantum_rhs(iden.rhs, snaps, momenta, i, j, velocity))
            worst = np.maximum(worst, residual.norm())
        reports.append(_report(iden.quantum_id, set_name, worst,
                               iden.expected(set_name), iden.notes[0], QUANTUM_TOL))
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


def _classical_rhs(term, obs: dict, i: int, j: int):
    """A table term at the states, from their observables."""
    kind, role, c = term
    R = obs[role.upper()] if role else None
    if kind == "eps":
        k = 3 - i - j
        return c * levi(i, j, k) * _value(R[k]) if i != j else 0.0
    if kind == "i":
        return c * _value(R[i])
    if kind == "delta":
        return c * (1.0 if R is None else _value(R)) if i == j else 0.0
    if kind == "worldline":
        return c * _value(obs["Q"][j]) * _value(obs["P"][i]) / _value(obs["H"])
    if kind == "velocity":
        return c * (_value(obs["P"][j]) / _value(obs["H"]))
    if kind == "zero":
        return 0.0
    raise ValueError(f"no classical form for a {kind!r} term")


def classical_identities() -> list:
    """The classical suite's rows, in its report order."""
    return identities_for_set("classical")


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
    """Evaluate the classical rows of the table at seeded random states.

    The observables are evaluated once on the whole stack of states, and
    each identity pair is one exact bracket over that stack.
    """
    states = sample_states(n_samples, m, seed)
    obs = classical_observables(states)
    reports = []
    for iden in classical_identities():
        a, b = (r.upper() for r in iden.lhs)
        worst = np.zeros(n_samples)
        for (i, j) in iden.pairs:
            bracket = poisson_bracket(_operand(obs, a, i), _operand(obs, b, j), states)
            worst = np.maximum(worst, np.abs(bracket - _classical_rhs(iden.rhs, obs, i, j)))
        reports.append(_report(iden.classical_id, "classical", worst,
                               iden.expected("classical"), iden.notes[1], CLASSICAL_TOL))
    return reports
