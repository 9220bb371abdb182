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
spinning particle; each row names the sets that carry it.  A quantum set is
one row of _SET_FAMILIES, a catalogue family per role, and its j is its own
l + s.  The center-of-mass and projected sets take q, s and l from one
position shift (phase_ops._shifted_set), so their l + s is the conserved
total angular momentum by construction, even where neither obeys su(2),
and their j rows check it only to rounding; the tests tie l to q x p and
[q_i, q_j] to the projected spin instead.  Each identity yields an
AlgebraReport whose verdict encodes whether the identity held (or failed)
as expected, so the suites assert negative results as first-class outcomes.

One evaluator serves both brackets, exactly, on a whole stack of samples
at once: _rhs forms a row's right-hand side (times i for a commutator),
and _run_suite forms bracket - rhs for every pair and keeps each sample's
worst residual; the worldline term takes the bracket's pair product,
(1/2){q, v} of two snapshots or the product of two classical values.  A
quantum operator is snapshotted once on the (N, 3) momenta and each
identity pair is one batched commutator.  A classical observable is one
forward-mode Jet expression over the 9 phase-space coordinates (Q, P, S),
evaluated once on the stack of states, and each identity pair is one
Poisson bracket of the exact gradients.  Identities are checked at t = 0,
so the -t d_ij terms of the worldline relations vanish.

One known caveat is encoded in the table: the worldline relation
[q_i, K_j] = (q_j [q_i, H] + [q_i, H] q_j)/2 - i t delta_ij holds for no
even spin-1/2 position operator with commuting components (the boost of a
localized state picks up a spin-dependent shift).  Evenness is what it
needs: any position x with commuting components satisfies it identically
for the boost K = (1/2){x, H}, and so the Dirac radius vector r = i d/dp,
which is not even, does with K = (1/2){r, H_D}.  naive_dirac keeps r but
subtracts a spin term from that boost, and fails the row by it.  Every set
that carries the row, the classical one included, expects it to fail, and
the tests verify the closed form of conventional's defect instead; see the
README for the residual's exact shape.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, field
from typing import Optional

import numpy as np

from .dirac import check_count, check_positive
from .phase_ops import (
    Jet,
    OperatorFamily,
    build_operator,
    commutator_snapshot,
    cross_c,
    energy_jet,
    levi,
    momentum_jets,
    snapshot,
    symmetrized_product,
)

QUANTUM_TOL = 1e-8
CLASSICAL_TOL = 1e-6
FAILURE_FLOOR = 1e-3
DEFAULT_SEED = 42    # of the sampled momenta and states


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


def _report(identity_id: str, set_name: str, residuals: list, expected: str,
            note: str, tol: float) -> AlgebraReport:
    """Summarize one identity's per-sample worst residuals against tol and
    FAILURE_FLOOR."""
    res, floor = np.asarray(residuals), FAILURE_FLOOR
    worst = float(res.max())
    as_expected = worst <= tol if expected == "hold" else worst >= floor
    return AlgebraReport(
        identity_id=identity_id,
        set_name=set_name,
        samples=len(res),
        max_residual=worst,
        min_residual=float(res.min()),
        frac_above_floor=float(np.mean(res >= floor)),
        tol=tol,
        floor=floor,
        expected=expected,
        verdict="pass" if as_expected else "fail",
        note=note if expected == "fail" else "",
    )


# ---------------------------------------------------------------------------
# quantum operator sets
# ---------------------------------------------------------------------------

F = OperatorFamily

# The family of each role per set.  In naive_dirac, i d/dp, i (p x d/dp) and
# Sigma/2 have the same coefficients in every representation: the plain
# radius vector, orbital angular momentum and spin, here kept together with
# the Dirac Hamiltonian and its velocity.  The FW sets share one velocity,
# since their position shifts commute with beta eps.
_SET_FAMILIES = {
    "conventional": dict(q=F.FW_POSITION, s=F.FW_SPIN, l=F.OAM_FW, K=F.BOOST_FW,
                         H=F.FW_HAMILTONIAN, v=F.FW_VELOCITY),
    "naive_dirac": dict(q=F.FW_POSITION, s=F.FW_SPIN, l=F.OAM_FW, K=F.NAIVE_BOOST,
                        H=F.DIRAC_HAMILTONIAN, v=F.DIRAC_VELOCITY),
    "center_of_mass": dict(q=F.COM_POSITION_FW, s=F.LAB_SPIN_FW, l=F.COM_OAM, K=F.BOOST_FW,
                           H=F.FW_HAMILTONIAN, v=F.FW_VELOCITY),
    "projected": dict(q=F.PROJECTED_POSITION_FW, s=F.PROJECTED_SPIN_FW, l=F.PROJECTED_OAM,
                      K=F.BOOST_FW, H=F.FW_HAMILTONIAN, v=F.FW_VELOCITY),
}
QUANTUM_SET_NAMES = tuple(_SET_FAMILIES)


def build_quantum_set(set_name: str, m: float) -> dict:
    """Operators keyed by role: H, and the 3-lists q, s, l, K, v, p and j,
    where j is the set's own l + s."""
    if set_name not in _SET_FAMILIES:
        raise ValueError(f"unknown quantum set: {set_name!r}")
    ops = {role: build_operator(family, m) if role == "H"
           else [build_operator(family, m, c) for c in (1, 2, 3)]
           for role, family in {**_SET_FAMILIES[set_name], "p": F.MOMENTUM}.items()}
    ops["j"] = [l + s for l, s in zip(ops["l"], ops["s"])]
    return ops


# ---------------------------------------------------------------------------
# the identity table
# ---------------------------------------------------------------------------

_PAIRS_ANTISYM = ((0, 1), (0, 2), (1, 2))
_PAIRS_ALL = tuple((i, j) for i in range(3) for j in range(3))
_SINGLES = ((0, 0), (1, 0), (2, 0))

# The suites that carry a row.  The center_of_mass and projected suites keep
# the commutation structure of their own position, spin and OAM, plus the
# relations that must survive: their own l + s is the conserved total
# angular momentum.
_EVERY = QUANTUM_SET_NAMES + ("classical",)
_FULL = ("conventional", "naive_dirac", "classical")
_COM_FAIL = {"center_of_mass": "fail", "projected": "fail"}
_ZERO = ("zero", None, 0)


@dataclass(frozen=True, eq=False)
class Identity:
    """One relation of the generator algebra, read with two brackets.

    The commutator of quantum operators and the Poisson bracket of their
    classical counterparts obey the same relation, [a, b] = i {A, B}.  lhs
    names the two roles in the quantum letters q s l j K H p v; the
    classical role is the upper-case letter, H is a scalar, and v is the
    velocity, quantum -i [q, H] and classical V = P / H.  rhs is one term
    (kind, role, c) in the classical convention, for the pair's components
    i, j and the role's observable R (role None is the number 1):

      zero       0
      eps        c e_ijk R_k
      i          c R_i
      j          c R_j
      delta      c d_ij R
      worldline  c Q_j R_i; quantum c (1/2){q_j, r_i}

    The quantum suite reads the term times i, so the worldline term with
    R = V is c (1/2){q_j, [q_i, H]}.  sets names the suites that
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
    "holds for no even spin-1/2 position with commuting components, whose "
    "boost shifts a localized state by a spin-dependent amount; the Dirac r "
    "satisfies it with the boost (1/2){r, H_D}, from which naive_dirac's "
    "boost subtracts a spin term",
    "same spin-induced worldline defect as the conventional quantum "
    "set; holds only for spinless states",
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
             ("q", "K"), _PAIRS_ALL, ("worldline", "v", 1), _FULL,
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
             ("H", "q"), ((0, 0), (0, 1), (0, 2)), ("j", "v", -1), ("classical",)),
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


def _rhs(term, values: dict, i: int, j: int, unit, product):
    """unit times a table term at components i, j: unit is 1j for a
    commutator and 1.0 for a Poisson bracket, values holds each role under
    its upper-case letter, and product(q, r) is the bracket's pair product
    for the worldline term."""
    kind, role, c = term
    R = values[role.upper()] if role else 1.0
    if kind == "eps":
        k = 3 - i - j
        return unit * c * levi(i, j, k) * R[k] if i != j else 0.0
    if kind == "i":
        return unit * c * R[i]
    if kind == "j":
        return unit * c * R[j]
    if kind == "worldline":
        return unit * c * product(values["Q"][j], R[i])
    if kind == "delta":
        return unit * c * R if i == j else 0.0
    if kind == "zero":
        return 0.0
    raise ValueError(f"unknown table term kind {kind!r}")


def _run_suite(set_name: str, operands: dict, values: dict, bracket, product) -> list:
    """Every row of a suite: per sample, the worst norm of bracket - rhs
    over the row's pairs.  operands feed the bracket and values the
    right-hand side, both keyed by the roles' upper-case letters, and
    product is the pair product of the worldline term."""
    unit, tol, side = (1.0, CLASSICAL_TOL, 1) if set_name == "classical" else (1j, QUANTUM_TOL, 0)
    reports = []
    for iden in identities_for_set(set_name):
        a, b = (r.upper() for r in iden.lhs)
        worst = 0.0
        for (i, j) in iden.pairs:
            residual = (bracket(_operand(operands, a, i), _operand(operands, b, j))
                        - _rhs(iden.rhs, values, i, j, unit, product))
            worst = np.maximum(worst, abs(residual))
        reports.append(_report((iden.quantum_id, iden.classical_id)[side], set_name, worst,
                               iden.expected(set_name), iden.notes[side], tol))
    return reports


def _draw_momentum(rng) -> np.ndarray:
    """One momentum uniform in [-5, 5]^3, redrawn while |p| < 1e-3."""
    p = rng.uniform(-5.0, 5.0, 3)
    while np.linalg.norm(p) < 1e-3:
        p = rng.uniform(-5.0, 5.0, 3)
    return p


def sample_momenta(n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Uniform momenta in [-5, 5]^3, rejecting the ball |p| < 1e-3 around p = 0."""
    check_count(n, 1, "samples")
    rng = np.random.default_rng(seed)
    return np.array([_draw_momentum(rng) for _ in range(n)]).reshape(n, 3)


def run_quantum_suite(set_name: str, m: float, n_samples: int,
                      seed: int = DEFAULT_SEED) -> list:
    """Evaluate every identity of a set at seeded random momenta.

    Each operator is evaluated once on the whole (n_samples, 3) stack, and
    each identity pair is one commutator over that stack.
    """
    ops = build_quantum_set(set_name, m)
    momenta = sample_momenta(n_samples, seed)

    roles = {r for iden in identities_for_set(set_name) for r in (*iden.lhs, iden.rhs[1])
             if r not in ("H", None)}
    snaps = {r.upper(): [snapshot(op, momenta) for op in ops[r]] for r in roles}
    snaps["H"] = snapshot(ops["H"], momenta)
    return _run_suite(set_name, snaps, snaps, commutator_snapshot, symmetrized_product)


# ---------------------------------------------------------------------------
# classical side
# ---------------------------------------------------------------------------

@dataclass(eq=False)
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
        check_positive(self.m, "mass")


def classical_observables(state: ClassicalState) -> dict:
    """Every catalogued observable at the states, as a scalar Jet over the 9
    phase-space coordinates (Q, P, S).

    "H" is one Jet, with the closed-form gradient (0, P/H, 0); Q, P, S, L, J,
    K and V are 3-lists, with
        L = Q x P,  J = L + S,  K_i = Q_i H - (S x P)_i / (m + H),  V = P / H.
    """
    X = momentum_jets(np.concatenate([state.Q, state.P, state.S], axis=-1))
    Q, P, S = X[0:3], X[3:6], X[6:9]
    e = energy_jet(state.P, state.m)
    zero = np.zeros_like(e.grad)
    H = Jet(e.val, np.concatenate([zero, e.grad, zero], axis=-3))
    L = [cross_c(Q, P, c) for c in range(3)]
    return {"H": H, "Q": Q, "P": P, "S": S, "L": L,
            "J": [L[c] + S[c] for c in range(3)],
            "K": [Q[c] * H - cross_c(S, P, c) / (state.m + H) for c in range(3)],
            "V": [P[c] / H for c in range(3)]}


def poisson_bracket(f: Jet, g: Jet, state: ClassicalState) -> np.ndarray:
    """{f, g} at the states, exact, for observables given as Jets over
    (Q, P, S): canonical (Q, P) pairs plus the su(2) spin bracket
    {S_i, S_j} = e_ijk S_k,

        {f, g} = df/dQ . dg/dP - df/dP . dg/dQ + S . (df/dS x dg/dS).
    """
    a, b = f.grad[..., 0, 0], g.grad[..., 0, 0]
    canonical = (a[..., 0:3] * b[..., 3:6] - a[..., 3:6] * b[..., 0:3]).sum(axis=-1)
    return canonical + (state.S * np.cross(a[..., 6:9], b[..., 6:9])).sum(axis=-1)


def classical_identities() -> list:
    """The classical suite's rows, in its report order."""
    return identities_for_set("classical")


def sample_states(n: int, m: float = 1.0, seed: int = DEFAULT_SEED) -> ClassicalState:
    """n seeded states, stacked: Q and P uniform in [-5, 5]^3 (|P| >= 1e-3),
    S along a random direction with length uniform in [0.5, 2]."""
    check_count(n, 1, "samples")
    rng = np.random.default_rng(seed)
    Q, P, S = np.empty((n, 3)), np.empty((n, 3)), np.empty((n, 3))
    for k in range(n):
        Q[k] = rng.uniform(-5, 5, 3)
        P[k] = _draw_momentum(rng)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        S[k] = direction * rng.uniform(0.5, 2.0)
    return ClassicalState(Q=Q, P=P, S=S, m=m)


def run_classical_suite(n_samples: int, m: float = 1.0, seed: int = DEFAULT_SEED) -> list:
    """Evaluate the classical rows of the table at seeded random states.

    The observables are evaluated once on the whole stack of states, and
    each identity pair is one exact bracket over that stack.
    """
    states = sample_states(n_samples, m, seed)
    obs = classical_observables(states)
    values = {r: v.val[..., 0, 0] if r == "H" else [x.val[..., 0, 0] for x in v]
              for r, v in obs.items()}    # one value per state
    return _run_suite("classical", obs, values, lambda f, g: poisson_bracket(f, g, states),
                      np.multiply)
