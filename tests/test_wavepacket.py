from dataclasses import replace

import numpy as np
import pytest

from fwbench.algebra import IDENTITIES, ClassicalState
from fwbench.eriksen import BlockedHamiltonian, ScalingStudy
from fwbench.grids import Grid1D
from fwbench.spin_dynamics import FieldConfig, spinor_from_direction
from fwbench.wavepacket import (
    MAX_PACKET_NODES,
    GridResolutionError,
    Observable,
    WavePacket1D,
    density,
    evolve_free,
    expectation,
    make_gaussian_packet,
    momentum_to_position,
    picture_change_error,
    to_picture,
)
from fwbench.phase_ops import OpSnapshot, PhaseOpValue
from fwbench.zitter import EvolutionRecord, dominant_frequency
from oracles import (alpha_z_expectation, apply_position, closed_form_pce_x_sq,
                     make_dirac_upper_packet, negative_energy_part, packet_difference,
                     position_expectation, position_sq_expectation, position_to_momentum,
                     spin_z_expectation)

M = 1.0


@pytest.fixture(scope="module")
def relativistic_packet():
    return make_gaussian_packet(p0=2.0, sigma_p=0.5, m=M)


def test_norm_and_lower_spinor(relativistic_packet):
    pk = relativistic_packet
    assert pk.norm == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(pk.psi[:, 2:]) == 0.0      # upper-spinor only


def test_picture_round_trip(relativistic_packet):
    pk = relativistic_packet
    pk_d = to_picture(pk, "dirac")
    assert pk_d.norm == pytest.approx(1.0, abs=1e-12)
    back = to_picture(pk_d, "fw")
    assert np.linalg.norm(back.psi - pk.psi) <= 1e-13


def test_dirac_picture_packet_is_positive_energy(relativistic_packet):
    pk_d = to_picture(relativistic_packet, "dirac")
    assert np.abs(negative_energy_part(pk_d)).max() <= 1e-10


def test_transform_against_direct_dft():
    grid = Grid1D(n=16, length=11.0)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4))
    fast = momentum_to_position(psi, grid)
    direct = np.zeros_like(fast)
    for l, x in enumerate(grid.x):
        direct[l] = (grid.dp / np.sqrt(2 * np.pi)) * np.sum(
            np.exp(1j * grid.p_centered * x)[:, None] * psi, axis=0)
    assert np.linalg.norm(fast - direct) <= 1e-12
    assert np.linalg.norm(position_to_momentum(fast, grid) - psi) <= 1e-12


def test_densities_normalize_in_both_pictures(relativistic_packet):
    for picture in ("fw", "dirac"):
        pk = to_picture(relativistic_packet, picture)
        x, rho = density(pk)
        assert np.sum(rho) * pk.grid.dx == pytest.approx(1.0, abs=1e-10)
        assert np.all(rho >= 0)


def test_relativistic_density_discrepancy_value(relativistic_packet,
                                                density_gap_oracle):
    # converged value for p0 = 2m, sigma = 0.5m: 0.9151% of the peak, as
    # the FFT-free quadrature conftest.positive_energy_density_gap shows
    _, rho_fw = density(relativistic_packet)
    _, rho_d = density(to_picture(relativistic_packet, "dirac"))
    disc = np.max(np.abs(rho_d - rho_fw)) / rho_fw.max()
    assert disc == pytest.approx(9.151e-3, abs=2e-5)
    assert density_gap_oracle(2.0 * M, 0.5 * M, M) == pytest.approx(9.151e-3,
                                                                    abs=2e-5)


def test_density_difference_shrinks_quadratically_nonrelativistic():
    sigmas = np.array([0.01, 0.02, 0.05])
    diffs = []
    for s in sigmas:
        pk = make_gaussian_packet(p0=0.0, sigma_p=s * M, m=M)
        _, rho_fw = density(pk)
        _, rho_d = density(to_picture(pk, "dirac"))
        diffs.append(np.max(np.abs(rho_d - rho_fw)) / rho_fw.max())
    slope = np.polyfit(np.log(sigmas / M), np.log(diffs), 1)[0]
    assert abs(slope - 2.0) <= 0.3


def test_picture_difference_linear_in_sigma_over_m():
    sigmas = np.array([0.01, 0.02, 0.05])
    diffs = np.array([packet_difference(make_gaussian_packet(0.0, s * M, M))
                      for s in sigmas])
    slope = np.polyfit(np.log(sigmas / M), np.log(diffs), 1)[0]
    assert abs(slope - 1.0) <= 0.1
    c = diffs / (sigmas / M)
    assert np.all((0.1 < c) & (c < 10.0))     # order-unity prefactor


def test_evolution_preserves_norm(relativistic_packet):
    for t in (1.0, 10.0, 100.0):
        assert evolve_free(relativistic_packet, t).norm == pytest.approx(1.0, abs=1e-12)
        pk_d = to_picture(relativistic_packet, "dirac")
        assert evolve_free(pk_d, t).norm == pytest.approx(1.0, abs=1e-12)


def test_evolution_at_zero_time_is_identity(relativistic_packet):
    assert np.linalg.norm(evolve_free(relativistic_packet, 0.0).psi
                          - relativistic_packet.psi) == 0.0


def test_evolution_pictures_are_consistent(relativistic_packet):
    # evolving in the Dirac picture equals transforming the evolved state
    t = 3.7
    a = to_picture(evolve_free(relativistic_packet, t), "dirac")
    b = evolve_free(to_picture(relativistic_packet, "dirac"), t)
    assert np.linalg.norm(a.psi - b.psi) <= 1e-12


def test_ehrenfest_drift(relativistic_packet):
    pk = relativistic_packet
    p = pk.grid.p_centered
    eps = np.sqrt(M * M + p * p)
    v_mean = float(np.sum((p / eps) * np.sum(np.abs(pk.psi) ** 2, axis=1)) * pk.grid.dp)
    x0 = position_expectation(pk)
    for t in (1.0, 4.0):
        xt = position_expectation(evolve_free(pk, t))
        assert xt - x0 == pytest.approx(t * v_mean, abs=1e-8)


def test_symmetric_packet_centered(relativistic_packet):
    for picture in ("fw", "dirac"):
        assert position_expectation(relativistic_packet, picture) \
            == pytest.approx(0.0, abs=1e-9)
        assert to_picture(relativistic_packet, picture).norm == pytest.approx(1.0, abs=1e-12)


def test_pce_values(relativistic_packet):
    pk = relativistic_packet
    assert picture_change_error(pk, Observable("momentum")) == pytest.approx(0.0, abs=1e-12)
    assert to_picture(pk, "dirac").norm - pk.norm == pytest.approx(0.0, abs=1e-12)
    x2 = expectation(pk, Observable("position_sq"))
    pce = picture_change_error(pk, Observable("position_sq"))
    assert abs(pce) > 1e-4 * abs(x2)
    assert pce == pytest.approx(1.5126e-2, rel=1e-3)   # frozen regression value
    assert pce > 0        # the raw-x^2 average is larger with Dirac amplitudes


@pytest.mark.parametrize("p0, sigma_p, m", [(2.0, 0.5, 1.0), (0.0, 0.05, 1.0),
                                             (1e3, 250.0, 1e3), (-0.006, 0.002, 3e-3)])
def test_position_sq_is_the_density_moment_of_i_d_dp(p0, sigma_p, m):
    # the density moment sum x^2 rho dx against ||i d/dp psi||^2 dp, an
    # inverse-FFT operator route that forms no density
    pk = make_gaussian_packet(p0, sigma_p, m)
    for picture in ("fw", "dirac"):
        oracle = position_sq_expectation(pk, picture)
        value = expectation(to_picture(pk, picture), Observable("position_sq"))
        assert abs(value - oracle) <= 1e-13 * oracle


@pytest.mark.parametrize("p0, sigma_p", [(2.0, 0.5), (0.0, 0.25), (3.0, 1.0)])
@pytest.mark.parametrize("m", [1e-3, 1.0, 30.0, 1e4])
def test_pce_x_sq_matches_closed_form(p0, sigma_p, m):
    # momentum and spin along z: PCE(x^2) = sum |phi|^2 m^2 / (4 eps^4) dp,
    # by the density moment and by the i d/dp route
    pk = make_gaussian_packet(p0 * m, sigma_p * m, m)
    closed = closed_form_pce_x_sq(pk)
    by_density = picture_change_error(pk, Observable("position_sq"))
    by_operator = position_sq_expectation(pk, "dirac") - position_sq_expectation(pk, "fw")
    for value in (by_density, by_operator):
        assert abs(value - closed) <= 1e-12 * closed


def test_picture_change_error_and_density_discrepancy_are_positive():
    # over packet centres and widths in units of m = 1, the relative
    # picture change error of <x^2> and the peak-relative density
    # discrepancy between the pictures are both positive
    for p0 in (0.0, 0.5, 1.0, 2.0, 3.0):
        for sigma in (0.1, 0.25, 0.5, 1.0):
            pk = make_gaussian_packet(p0, sigma, M)
            pce = picture_change_error(pk, Observable("position_sq"))
            assert pce / expectation(pk, Observable("position_sq")) > 0, (p0, sigma)
            _, rho_fw = density(pk)
            _, rho_d = density(to_picture(pk, "dirac"))
            assert np.max(np.abs(rho_d - rho_fw)) / rho_fw.max() > 0, (p0, sigma)


def test_spin_z_constant_for_positive_energy_packet():
    # the spin-up packet's Gaussian on the upper spinor of a tilted spin
    up = make_gaussian_packet(p0=1.0, sigma_p=0.3, m=M)
    psi = np.zeros_like(up.psi)
    psi[:, :2] = up.psi[:, :1] * spinor_from_direction((1.0, 0.0, 0.5))
    pk = WavePacket1D(grid=up.grid, psi=psi, m=M, picture="fw")
    s0 = spin_z_expectation(pk)
    for t in (2.0, 20.0):
        assert spin_z_expectation(evolve_free(pk, t)) == pytest.approx(s0, abs=1e-12)


def test_position_operator_hermitian_on_grid(relativistic_packet):
    pk = relativistic_packet
    xpsi = apply_position(pk)
    inner = np.vdot(pk.psi, xpsi) * pk.grid.dp
    assert abs(inner.imag) <= 1e-12


def test_grid_resolution_errors():
    with pytest.raises(GridResolutionError):
        make_gaussian_packet(p0=50.0, sigma_p=0.5, m=M, n=64)
    with pytest.raises(GridResolutionError):
        # dp = sigma / 8 on 64 nodes spans only about +-4 sigma
        make_gaussian_packet(p0=0.0, sigma_p=1.0, m=M, n=64)


def test_mixed_energy_packet_trembles_at_twice_energy():
    pk = make_dirac_upper_packet(p0=1.0, sigma_p=0.05, m=M)
    # an upper spinor in the Dirac picture is (eps - m)/(2 eps) = 15% negative energy
    assert np.sum(np.abs(negative_energy_part(pk)) ** 2) * pk.grid.dp > 0.1
    eps_bar = np.sqrt(M * M + 1.0)
    times = np.linspace(0.0, 12 * np.pi / eps_bar, 2400)
    series = [alpha_z_expectation(evolve_free(pk, t)) for t in times]
    freq = dominant_frequency(times, series)
    assert abs(freq - 2 * eps_bar) / (2 * eps_bar) <= 1e-2
    assert max(series) - min(series) > 0.1


def test_positive_energy_packet_velocity_constant():
    pk = make_gaussian_packet(p0=1.0, sigma_p=0.05, m=M)
    values = [alpha_z_expectation(evolve_free(pk, t)) for t in (0.0, 0.9, 3.1)]
    assert max(values) - min(values) <= 1e-12


def test_packet_validation():
    grid = Grid1D(32, 20.0)
    with pytest.raises(ValueError):
        WavePacket1D(grid=grid, psi=np.zeros((5, 4), complex), m=1.0, picture="fw")
    with pytest.raises(ValueError):
        WavePacket1D(grid=grid, psi=np.zeros((32, 4), complex), m=1.0,
                     picture="schroedinger")
    with pytest.raises(ValueError, match="sigma_p must be positive"):
        make_gaussian_packet(p0=1.0, sigma_p=0.0, m=1.0)
    pk = make_gaussian_packet(p0=1.0, sigma_p=0.5, m=1.0)
    for bad_picture in ("Dirac", "dirac_picture"):
        with pytest.raises(ValueError, match="picture"):
            to_picture(pk, bad_picture)
    for bad_mass in (0.0, -1.0, np.nan, np.inf):   # the grid holds p = 0
        with pytest.raises(ValueError, match="mass must be positive"):
            make_gaussian_packet(p0=1.0, sigma_p=0.5, m=bad_mass)
    for kind in ("something_else", "custom", "quadrupole_1d", "position", "spin_z",
                 "identity"):
        with pytest.raises(ValueError, match="unknown observable kind"):
            Observable(kind)


@pytest.mark.parametrize("p0, sigma_p, name", [(np.nan, 0.5, "p0"), (np.inf, 0.5, "p0"),
                                               (1.0, np.nan, "sigma_p"),
                                               (1.0, np.inf, "sigma_p")])
def test_packet_rejects_non_finite_inputs_before_sizing_the_grid(p0, sigma_p, name):
    # unchecked, p0 = nan gives NaN amplitudes and p0 = inf doubles the grid
    # size until it overflows, so each is rejected, by name, before sizing
    with pytest.raises(ValueError, match=f"^{name} must be"):
        make_gaussian_packet(p0=p0, sigma_p=sigma_p, m=1.0)


@pytest.mark.parametrize("p0, sigma_p", [(1e300, 0.5), (1.0, 1e-300)])
def test_packet_rejects_extreme_inputs_before_sizing_the_grid(p0, sigma_p):
    # finite, but p0 / sigma_p would double the grid size past any array
    # numpy can hold; the message names both arguments
    with pytest.raises(ValueError, match="^p0 = .* and sigma_p = .* need a grid"):
        make_gaussian_packet(p0=p0, sigma_p=sigma_p, m=1.0)


def test_packet_grid_size_up_to_the_node_bound():
    # without n the grid is the smallest power of two >= 256 that covers
    # p0 +- 8 sigma_p with dp = sigma_p/8, up to MAX_PACKET_NODES; one
    # doubling past that bound is rejected
    for p0, n in ((0.0, 256), (10.0, 512), (40.0, 2048), (-40.0, 2048)):
        assert make_gaussian_packet(p0=p0, sigma_p=0.5, m=1.0).grid.n == n
    half = MAX_PACKET_NODES // 2 - 1
    with pytest.raises(ValueError, match="need a grid"):
        make_gaussian_packet(p0=1.25 * half, sigma_p=10.0, m=1.0)


def test_frozen_records_compare_and_hash():
    # a grid is its (n, length); the records that hold other arrays compare
    # by identity
    grid = Grid1D(n=8, length=4.0)
    assert grid == Grid1D(n=8, length=4.0) and grid != Grid1D(n=8, length=2.0)
    assert hash(grid) == hash(Grid1D(n=8, length=4.0))
    pk = make_gaussian_packet(p0=1.0, sigma_p=0.5, m=1.0)
    records = [(pk, replace(pk)),
               (BlockedHamiltonian(p=np.ones(2), V=np.eye(2), m=1.0),
                BlockedHamiltonian(p=np.ones(2), V=np.eye(2), m=1.0)),
               (FieldConfig(), FieldConfig()),
               (IDENTITIES[0], replace(IDENTITIES[0]))]
    # and so do the mutable records that hold arrays
    a, b = np.eye(4, dtype=complex), np.zeros((3, 4, 4), dtype=complex)
    mutable = [PhaseOpValue(a, b), OpSnapshot(a, b, b, np.zeros((3, 3, 4, 4))),
               ClassicalState(Q=np.ones(3), P=np.ones(3), S=np.ones(3), m=1.0),
               EvolutionRecord(np.ones((2, 4)), np.ones((4, 4, 4)), np.ones((4, 4, 4))),
               ScalingStudy(np.ones(2), np.ones(2), np.ones(2), np.ones(2), 2.0)]
    records += [(record, replace(record)) for record in mutable]
    for record, twin in records:
        assert record == record and record != twin
        assert len({record, twin, record}) == 2
