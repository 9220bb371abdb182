"""Acceptance gate: one test per shipped capability, at fixed tolerances.

Each test prints a single "acceptance NN: PASS/FAIL" line (visible with
pytest -s, and in captured output on failure).

Three checks compare against oracles that do not share the code path they
check, and print the worst oracle gap so that a later failure shows its
size:

* 01 checks the full 18-relation identity table of the conventional
  operator set.  Seventeen relations hold at 1e-8.  The worldline relation
  [q_i, K_j] = (q_j [q_i,H] + [q_i,H] q_j)/2 - i t d_ij cannot hold for
  any spin-1/2 position operator with commuting components: boosting a
  localized state shifts it by a spin-dependent amount (Newton & Wigner,
  Rev. Mod. Phys. 21, 400 (1949)).  The test asserts the spin-shifted
  form instead: the residual equals the closed-form shift
  -i beta d/dp_i [(Sigma x p)_j / (2(eps+m))] to 1e-8, and the shift
  equals i beta times the classical Poisson-bracket defect of {Q_i, K_j}
  at S = Sigma/2 to 1e-10.
* 07 requires the frame precession rate to equal the classical rate
  dS/dt = {S, H} of the frame Hamiltonian
  H = eps(1 + g.r) + S.(g x p)/(eps+m) - omega.(r x p + S), derived by exact
  Poisson brackets (conftest.classical_frame_precession), to 1e-12.
* 09 requires the Dirac-picture and block-diagonal-picture densities of
  the packet at p0 = 2m, sigma_p = 0.5m to differ, by the amount a direct
  Fourier quadrature of the closed-form positive-energy spinor gives
  (0.9151% of the peak; conftest.positive_energy_density_gap), to 1e-6
  relative.
"""

import time

import numpy as np
import pytest

from fwbench.algebra import (
    QUANTUM_TOL,
    ClassicalState,
    build_quantum_set,
    run_quantum_suite,
    sample_momenta,
)
from fwbench.dirac import GAMMA, dirac_hamiltonian, energy
from fwbench.grids import Grid1D
from fwbench import eriksen as erk
from fwbench import spin_dynamics as sd
from fwbench import wavepacket as wp
from fwbench import zitter as zt
from fwbench.phase_ops import (
    OperatorFamily,
    PhaseOpValue,
    build_operator,
    commutator_snapshot,
    levi,
    snapshot,
    symmetrized_product,
)
from oracles import (
    build_family,
    classical_worldline_defect,
    conjugate,
    evaluate,
    fv_hamiltonian_matrix,
    fv_velocity_matrix,
    fw_unitary_free,
    fw_unitary_free_inv,
    op_commutator,
    worldline_defect,
)

F = OperatorFamily
MASSES = (0.5, 1.0, 10.0)
WORLDLINE = "[q_i,K_j] = ((q_j[q_i,H]+[q_i,H]q_j)/2 - i t d_ij)"


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num:02d} failed: {detail}"


def _worldline_oracle_gaps(m: float) -> tuple:
    """Worst gaps of the spin-shifted worldline relation at one mass.

    Returns (residual minus shift, shift minus i beta times the classical
    defect), maximised over the 100 suite momenta and all pairs (i, j).
    The residual is [q_i, K_j] minus the suite's right-hand side
    i (1/2){q_j, v_i}, with v the set's velocity row, A and B parts
    together.  The classical defect of {Q_i, K_j} is
    linear in S, so S = Sigma/2 turns it into the operator
    sum_k defect(S = e_k) Sigma_k / 2.
    """
    ops = build_quantum_set("conventional", m)
    no_b = np.zeros((3, 4, 4), dtype=complex)
    shifted, quantum_classical = 0.0, 0.0
    for p in sample_momenta(100):
        snaps = {r: [snapshot(op, p) for op in ops[r]] for r in ("q", "K", "v")}
        for i in range(3):
            for j in range(3):
                shift = worldline_defect(m, p, i, j)
                residual = (commutator_snapshot(snaps["q"][i], snaps["K"][j])
                            - 1j * symmetrized_product(snaps["q"][j], snaps["v"][i]))
                shifted = max(shifted,
                              (residual - PhaseOpValue(shift, no_b)).norm())
                classical = sum(
                    classical_worldline_defect(
                        ClassicalState(Q=np.zeros(3), P=p, S=np.eye(3)[k], m=m),
                        i, j) * GAMMA.Sigma[k] / 2
                    for k in range(3))
                quantum_classical = max(quantum_classical, float(np.max(np.abs(
                    shift - 1j * GAMMA.beta @ classical))))
    return shifted, quantum_classical


def test_criterion_01_conventional_set_satisfies_full_table():
    t0 = time.perf_counter()
    suites = [run_quantum_suite("conventional", m, 100) for m in MASSES]
    runtime = time.perf_counter() - t0
    worst = {}
    for reports in suites:
        for r in reports:
            worst[r.identity_id] = max(worst.get(r.identity_id, 0.0),
                                       r.max_residual)
    holding = {k: v for k, v in worst.items() if k != WORLDLINE}
    offenders = {k: v for k, v in holding.items() if v > QUANTUM_TOL}
    plain_worldline_fails = all(
        r.expected == "fail" and r.verdict == "pass"
        for reports in suites for r in reports if r.identity_id == WORLDLINE)
    gaps = [_worldline_oracle_gaps(m) for m in MASSES]
    shifted = max(g[0] for g in gaps)
    quantum_classical = max(g[1] for g in gaps)
    ok = (len(worst) == 18 and WORLDLINE in worst and not offenders
          and plain_worldline_fails
          and shifted <= QUANTUM_TOL and quantum_classical <= 1e-10
          and runtime < 10.0)
    detail = (f"runtime {runtime:.1f}s; "
              + (f"{len(holding)} holding identities <= {QUANTUM_TOL:.0e} "
                 f"(worst {max(holding.values()):.2e})" if not offenders else
                 "; ".join(f"{k} residual {v:.2e}" for k, v in offenders.items()))
              + f"; worldline residual {worst.get(WORLDLINE, 0.0):.2e}, "
                f"minus spin shift {shifted:.2e}, "
                f"shift vs i x classical defect {quantum_classical:.2e}")
    _verdict(1, ok, detail)


def test_criterion_02_naive_set_boost_closure_fails():
    fracs, floors = [], []
    for m in MASSES:
        reports = {r.identity_id: r for r in run_quantum_suite("naive_dirac", m, 100)}
        kk = reports["[K_i,K_j] = -i e_ijk j_k"]
        fracs.append(kk.frac_above_floor)
        floors.append(kk.min_residual)
    ok = all(f >= 0.95 for f in fracs)
    _verdict(2, ok, f"fraction of momenta with residual >= 1e-3: "
                    f"{', '.join(f'{f:.2f}' for f in fracs)} "
                    f"(min residuals {', '.join(f'{v:.1e}' for v in floors)})")


def test_criterion_03_position_commutativity_dichotomy():
    commuting_ok = True
    for m in MASSES:
        reports = {r.identity_id: r for r in run_quantum_suite("conventional", m, 100)}
        commuting_ok &= reports["[q_i,q_j] = 0"].max_residual <= 1e-12
    noncommuting_ok = True
    details = []
    for set_name in ("center_of_mass", "projected"):
        for m in MASSES:
            reports = {r.identity_id: r
                       for r in run_quantum_suite(set_name, m, 100)}
            frac = reports["[q_i,q_j] = 0"].frac_above_floor
            noncommuting_ok &= frac >= 0.95
            details.append(f"{set_name}@m={m}: {frac:.2f}")
    ok = commuting_ok and noncommuting_ok
    _verdict(3, ok, f"conventional exact; noncommuting fractions >= 1e-3: "
                    f"{'; '.join(details)}")


def test_criterion_04_representation_consistency():
    rng = np.random.default_rng(42)
    m = 1.0
    u, ui = fw_unitary_free(m), fw_unitary_free_inv(m)
    worst = 0.0
    fw = {}
    oracle = {}
    for c in (1, 2, 3):
        fw[("x", c)] = build_operator(F.FW_POSITION, m, c)
        fw[("s", c)] = build_operator(F.FW_SPIN, m, c)
        fw[("l", c)] = build_operator(F.OAM_FW, m, c)
        fw[("K", c)] = build_operator(F.BOOST_FW, m, c)
        oracle[("x", c)] = build_family("nw_position_dirac", m, c)
        oracle[("s", c)] = build_family("mean_spin_dirac", m, c)

    def expected_l(p, c):
        x_vals = [evaluate(oracle[("x", k + 1)], p) for k in range(3)]
        a = sum(levi(c, j, k) * x_vals[j].A * p[k]
                for j in range(3) for k in range(3))
        b = np.zeros((3, 4, 4), complex)
        for j in range(3):
            b[j] = 1j * sum(levi(c, j, k) * p[k] for k in range(3)) * np.eye(4)
        return a, b

    def expected_k(p, c):
        e = energy(p, m)
        x_val = evaluate(oracle[("x", c + 1)], p)
        s_vals = [evaluate(oracle[("s", k + 1)], p).A for k in range(3)]
        hd = m * GAMMA.beta + sum(p[k] * GAMMA.alpha[k] for k in range(3))
        a = 0.5 * (x_val.A @ hd + hd @ x_val.A) + 0.5j * GAMMA.alpha[c]
        sxp = sum(levi(c, k, l) * s_vals[k] * p[l]
                  for k in range(3) for l in range(3))
        a = a - hd @ sxp / (e * (e + m))
        b = np.zeros((3, 4, 4), complex)
        b[c] = 1j * hd
        return a, b

    for _ in range(50):
        p = rng.uniform(-5, 5, 3)
        for c in (1, 2, 3):
            for key in ("x", "s"):
                diff = conjugate(fw[(key, c)], ui, u, p) - evaluate(oracle[(key, c)], p)
                worst = max(worst, diff.norm())
            val = conjugate(fw[("l", c)], ui, u, p)
            a, b = expected_l(p, c - 1)
            worst = max(worst, float(np.linalg.norm(val.A - a)
                                     + np.linalg.norm(val.B - b)))
            val = conjugate(fw[("K", c)], ui, u, p)
            a, b = expected_k(p, c - 1)
            worst = max(worst, float(np.linalg.norm(val.A - a)
                                     + np.linalg.norm(val.B - b)))
    _verdict(4, worst <= 1e-10,
             f"max closed-form deviation over 50 momenta: {worst:.2e}")


def test_criterion_05_exact_transformation_on_grid():
    t0 = time.perf_counter()
    grid = Grid1D(n=64, length=32.0)
    m = 1.0
    bh = erk.discretize_dirac_1d(grid, m, lambda x: np.zeros_like(x))
    frame = erk.eigenframe(bh)
    u, lam = erk.eriksen_unitary(frame), erk.sign_function(frame)
    conds = erk.eriksen_conditions(u, lam, bh)
    h_fw = u @ bh.H @ u.conj().T
    nu = bh.n_upper
    spec_err = float(np.max(np.abs(
        np.linalg.eigvalsh(h_fw[:nu, :nu]) - np.sort(np.sqrt(m * m + grid.p_fft**2)))))
    study = erk.potential_scaling_study(grid, m, [1e-3, 1e-2, 1e-1])
    runtime = time.perf_counter() - t0
    ok = (conds["offblock"] <= 1e-9
          and spec_err <= 1e-10
          and conds["odd_exponent"] <= 1e-10
          and conds["lambda_squared"] <= 1e-10
          and abs(study.exponent - 2.0) <= 0.3
          and runtime < 30.0)
    _verdict(5, ok, f"offblock {conds['offblock']:.1e}, spectrum {spec_err:.1e}, "
                    f"conditions {max(conds['odd_exponent'], conds['lambda_squared']):.1e}, "
                    f"scaling exponent {study.exponent:.2f}, runtime {runtime:.1f}s")


def test_criterion_06_spin_precession_quantum_classical():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        cfg = sd.FieldConfig(e_field=rng.normal(size=3),
                             b_field=rng.normal(size=3),
                             charge=rng.choice([-1.0, 1.0]),
                             a_mm=rng.uniform(-0.5, 0.5),
                             eta=rng.uniform(-0.5, 0.5))
        p = rng.uniform(-5, 5, 3)
        m = rng.uniform(0.3, 5.0)
        omega = sd.omega_total(p, m, cfg)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        chi = sd.spinor_from_direction(direction)
        for t in rng.uniform(0.0, 20.0, 4):
            s_q = sd.sigma_expectation(sd.propagate_quantum(chi, omega, t))
            s_c = sd.propagate_classical(direction, omega, t)
            worst = max(worst, float(np.max(np.abs(s_q - s_c))))
    # rest-frame rates
    e_charge, a, eta, m, b0, e0 = -1.0, 0.2, 0.3, 1.7, 1.1, 0.9
    cfg = sd.FieldConfig(b_field=(0, 0, b0), charge=e_charge, a_mm=a)
    rate_err = abs(sd.omega_total(np.zeros(3), m, cfg)[2]
                   + (e_charge / m) * (1 + a) * b0)
    cfg = sd.FieldConfig(e_field=(e0, 0, 0), charge=e_charge, eta=eta)
    rate_err = max(rate_err, abs(sd.omega_edm(np.zeros(3), m, cfg)[0]
                                 + (e_charge * eta / (2 * m)) * e0))
    ok = worst <= 1e-12 and rate_err <= 1e-12
    _verdict(6, ok, f"max propagation deviation {worst:.2e}, "
                    f"rest-frame rate error {rate_err:.2e}")


def test_criterion_07_noninertial_frame(frame_precession_oracle):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(25):
        cfg = sd.FieldConfig(frame_accel=rng.normal(size=3) * 2,
                             frame_omega=rng.normal(size=3))
        p = rng.uniform(-5, 5, 3)
        m = rng.uniform(0.2, 5.0)
        q = sd.omega_noninertial(p, m, cfg)
        c = frame_precession_oracle(p, m, cfg)
        worst = max(worst, float(np.max(np.abs(q - c))))
        expected = np.cross(cfg.frame_accel, p) / (energy(p, m) + m) - cfg.frame_omega
        worst = max(worst, float(np.max(np.abs(q - expected))))
    _verdict(7, worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_08_trembling_motion(heisenberg_oracle, heisenberg_position_oracle):
    rng = np.random.default_rng(42)
    worst_closed = 0.0
    for m in (0.5, 1.0, 4.0):
        for _ in range(4):
            p = rng.uniform(-3, 3, 3)
            for t in (0.3, 1.1):
                for c in range(3):
                    for particle, h, v0 in (
                            ("dirac", dirac_hamiltonian(p, m), GAMMA.alpha[c]),
                            ("fv", fv_hamiltonian_matrix(p, m), fv_velocity_matrix(p, m, c))):
                        rec = zt.record_evolution(p, m, [t], c, particle)
                        worst_closed = max(worst_closed, float(np.linalg.norm(
                            heisenberg_oracle(h, v0, t) - rec.velocity[0])))
                        worst_closed = max(worst_closed, float(np.linalg.norm(
                            heisenberg_position_oracle(p, m, t, c, particle)
                            - rec.position[0])))
    freq_err = 0.0
    for pz, m in ((1.0, 1.0), (2.5, 0.5)):
        p = np.array([0.0, 0.0, pz])
        eps = energy(p, m)
        times = np.linspace(0.0, 40 * np.pi / eps, 4000)
        for particle, elem in (("dirac", (0, 2)), ("fv", (0, 1))):
            rec = zt.record_evolution(p, m, times, 2, particle)
            freq = zt.dominant_frequency(times, [v[elem] for v in rec.velocity])
            freq_err = max(freq_err, abs(freq - 2 * eps) / (2 * eps))
    p = np.array([1.0, -2.0, 0.5])
    v_fw = snapshot(build_operator(OperatorFamily.FW_VELOCITY, 1.0, 1), p).A
    h_fw = energy(p, 1.0) * GAMMA.beta
    fw_var = max(float(np.linalg.norm(heisenberg_oracle(h_fw, v_fw, t) - v_fw))
                 for t in (0.5, 5.0, 50.0))
    fw_rec = zt.record_evolution(p, 1.0, [0.5, 5.0, 50.0], 0, "fw").velocity
    fw_var = max(fw_var, float(np.max(np.abs(fw_rec - v_fw))))
    ok = worst_closed <= 1e-9 and freq_err <= 1e-6 and fw_var <= 1e-12
    _verdict(8, ok, f"closed-vs-numeric {worst_closed:.2e}, "
                    f"frequency rel err {freq_err:.2e}, "
                    f"block-diagonal velocity variation {fw_var:.2e}")


def test_criterion_09_densities_and_picture_change(density_gap_oracle):
    t0 = time.perf_counter()
    m = 1.0
    pk = wp.make_gaussian_packet(p0=2.0, sigma_p=0.5, m=m, n=256)
    norm_fw = pk.norm
    norm_d = wp.to_picture(pk, "dirac").norm
    _, rho_fw = wp.density(pk)
    _, rho_d = wp.density(wp.to_picture(pk, "dirac"))
    discrepancy = float(np.max(np.abs(rho_d - rho_fw)) / rho_fw.max())
    pce_p = wp.picture_change_error(pk, wp.Observable("momentum"))
    x2 = wp.expectation(pk, wp.Observable("position_sq"))
    pce_x2 = wp.picture_change_error(pk, wp.Observable("position_sq"))
    sigmas = np.array([0.01, 0.02, 0.05])
    diffs = []
    for s in sigmas:
        small = wp.make_gaussian_packet(p0=0.0, sigma_p=s * m, m=m)
        _, a = wp.density(small)
        _, b = wp.density(wp.to_picture(small, "dirac"))
        diffs.append(np.max(np.abs(b - a)) / a.max())
    exponent = float(np.polyfit(np.log(sigmas), np.log(diffs), 1)[0])
    runtime = time.perf_counter() - t0
    oracle = density_gap_oracle(p0=2.0, sigma_p=0.5, m=m)
    rel_gap = abs(discrepancy - oracle) / oracle
    clauses = {
        "normalization": abs(norm_fw - 1) <= 1e-10 and abs(norm_d - 1) <= 1e-10,
        "discrepancy = quadrature oracle": rel_gap <= 1e-6,
        "PCE(p) = 0": abs(pce_p) <= 1e-12,
        "PCE(x^2) significant": abs(pce_x2) > 1e-4 * abs(x2),
        "quadratic convergence": abs(exponent - 2.0) <= 0.3,
        "runtime": runtime < 20.0,
    }
    failed = [k for k, v in clauses.items() if not v]
    _verdict(9, not failed,
             f"discrepancy {discrepancy:.4%} (quadrature {oracle:.4%}, "
             f"relative gap {rel_gap:.1e}), PCE(x^2) {pce_x2:.3e}, "
             f"exponent {exponent:.2f}, runtime {runtime:.1f}s"
             + (f"; failed: {failed}" if failed else ""))


def test_criterion_10_no_free_particle_spin_orbit_coupling():
    rng = np.random.default_rng(42)
    worst_comm = 0.0
    worst_casimir = 0.0
    for m in MASSES:
        h = build_operator(F.FW_HAMILTONIAN, m)
        spin = [build_operator(F.FW_SPIN, m, c) for c in (1, 2, 3)]
        oam = [build_operator(F.OAM_FW, m, c) for c in (1, 2, 3)]
        w_vec = [build_family("pauli_lubanski_space", m, c) for c in (1, 2, 3)]
        w0 = build_family("pauli_lubanski_time", m)
        for _ in range(100):
            p = rng.uniform(-5, 5, 3)
            if np.linalg.norm(p) < 1e-3:
                continue
            c = rng.integers(0, 3)
            worst_comm = max(worst_comm, op_commutator(h, spin[c], p).norm())
            worst_comm = max(worst_comm, op_commutator(h, oam[c], p).norm())
            w0_val = evaluate(w0, p).A
            total = w0_val @ w0_val
            for k in range(3):
                wk = evaluate(w_vec[k], p).A
                total = total - wk @ wk
            worst_casimir = max(worst_casimir, float(np.linalg.norm(
                total + 0.75 * m * m * np.eye(4))))
    ok = worst_comm <= 1e-12 and worst_casimir <= 1e-10
    _verdict(10, ok, f"[H, s] and [H, l] residual {worst_comm:.2e}, "
                     f"Casimir residual {worst_casimir:.2e}")
