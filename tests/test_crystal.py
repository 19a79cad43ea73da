"""Equilibria, normal modes, continuation tracking, classification."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, minimize

from ionlattice import (
    CrystalState,
    DomainError,
    EquilibriumError,
    IonSpecies,
    LatticeConfig,
    SingularConfigurationError,
    SoftModeError,
    TrapConfig,
    UnstableConfigurationError,
    classify_structure,
    continuation,
    equilibrium,
    gamma_parameters,
    length_scale,
    normal_modes,
    parse_config,
    spot_variance_model,
    total_potential,
)
from ionlattice import _fork, _optim
from ionlattice import constants as cn
from ionlattice import crystal
from ionlattice.cli import _parse_grid, main


def potential_oracle(positions, trap, species):
    """Plain double loop over the defining energy expression."""
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    m = species.mass
    w2 = np.array([trap.omega_x ** 2, trap.omega_y ** 2, trap.omega_z ** 2])
    v = 0.5 * m * float(np.sum(w2 * pos ** 2))
    kq = cn.ECHARGE ** 2 / (4.0 * math.pi * cn.EPS0)
    for i in range(n):
        for j in range(i + 1, n):
            v += kq / np.linalg.norm(pos[i] - pos[j])
    return v


class TestLengthScale:
    def test_anchor_85khz(self, ca40):
        trap = TrapConfig.from_frequencies(85e3, 170e3)
        assert length_scale(trap, ca40) == pytest.approx(23.0137e-6,
                                                         rel=1e-4)

    def test_scaling_with_frequency(self, ca40):
        # ell ~ omega_z^(-2/3)
        t1 = TrapConfig.from_frequencies(85e3, 300e3)
        t2 = TrapConfig.from_frequencies(170e3, 300e3)
        ratio = length_scale(t1, ca40) / length_scale(t2, ca40)
        assert ratio == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)


class TestEquilibrium:
    def test_two_ion_spacing(self, ca40):
        trap = TrapConfig.from_frequencies(85e3, 350e3)
        st = equilibrium(2, trap, seed=0)
        z = np.sort(st.positions[:, 2]) / length_scale(trap, ca40)
        np.testing.assert_allclose(z, [-2.0 ** (-2.0 / 3.0),
                                       2.0 ** (-2.0 / 3.0)], rtol=1e-9)
        assert np.abs(st.positions[:, :2]).max() < 1e-15

    def test_three_ion_positions(self, ca40):
        trap = TrapConfig.from_frequencies(85e3, 350e3)
        st = equilibrium(3, trap, seed=0)
        z = np.sort(st.positions[:, 2]) / length_scale(trap, ca40)
        c = (5.0 / 4.0) ** (1.0 / 3.0)
        np.testing.assert_allclose(z, [-c, 0.0, c], rtol=1e-9, atol=1e-12)

    def test_three_ion_axial_mode_ratios(self):
        trap = TrapConfig.from_frequencies(85e3, 350e3)
        st = equilibrium(3, trap, seed=0)
        md = normal_modes(st, trap)
        lam = np.sort(md.eigenvalues[md.block_weight("z") > 0.99])
        np.testing.assert_allclose(lam, [1.0, 3.0, 5.8], rtol=1e-9)

    def test_zigzag_geometry(self, ca40, trap_zigzag4, zigzag4):
        p = zigzag4.positions / length_scale(trap_zigzag4, ca40)
        assert np.abs(p[:, 0]).max() < 1e-12  # buckles along the soft axis
        np.testing.assert_allclose(
            np.sort(np.abs(p[:, 1])),
            [0.06763967, 0.06763967, 0.23173056, 0.23173056], rtol=1e-5)
        np.testing.assert_allclose(
            np.sort(np.abs(p[:, 2])),
            [0.40039682, 0.40039682, 1.37174197, 1.37174197], rtol=1e-5)

    def test_gradient_converged(self, string8, zigzag4, octa6):
        for st in (string8, zigzag4, octa6):
            assert st.gradient_norm <= 1e-10
            assert not st.is_saddle

    def test_deterministic_in_seed(self, trap_zigzag4):
        a = equilibrium(4, trap_zigzag4, seed=7)
        b = equilibrium(4, trap_zigzag4, seed=7)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_potential_matches_oracle(self, ca40, trap_octa6, octa6):
        v = total_potential(octa6.positions, trap_octa6, species=ca40)
        assert v == pytest.approx(
            potential_oracle(octa6.positions, trap_octa6, ca40), rel=1e-12)
        assert v == pytest.approx(octa6.potential_value, rel=1e-12)

    def test_potential_with_lattice(self, ca40, trap_zigzag4, zigzag4):
        latt = LatticeConfig(depth_U0=cn.KB * 5e-3,
                             wavevector_k=ca40.lattice_wavevector,
                             detuning=2 * math.pi * 0.76e12)
        v = total_potential(zigzag4.positions, trap_zigzag4, latt,
                            species=ca40)
        k = ca40.lattice_wavevector
        extra = latt.depth_U0 * float(
            np.sum(np.sin(k * zigzag4.positions[:, 2]) ** 2))
        base = potential_oracle(zigzag4.positions, trap_zigzag4, ca40)
        assert v == pytest.approx(base + extra, rel=1e-12)

    def test_coincident_ions_rejected(self, trap_zigzag4):
        pos = np.zeros((2, 3))
        with pytest.raises(SingularConfigurationError):
            total_potential(pos, trap_zigzag4)

    def test_single_ion(self, trap_zigzag4):
        st = equilibrium(1, trap_zigzag4, seed=0)
        np.testing.assert_allclose(st.positions, np.zeros((1, 3)),
                                   atol=1e-20)

    def test_zero_ions_rejected(self, trap_zigzag4):
        with pytest.raises(DomainError):
            equilibrium(0, trap_zigzag4)


class TestNormalModes:
    def test_orthonormal_eigenvectors(self, string8_modes, trap_zigzag4,
                                      zigzag4, trap_octa6, octa6):
        mods = [string8_modes,
                normal_modes(zigzag4, trap_zigzag4),
                normal_modes(octa6, trap_octa6)]
        for md in mods:
            b = md.coordinates
            gram = b.T @ b
            assert np.abs(gram - np.eye(b.shape[0])).max() <= 1e-10

    def test_string8_top_mode(self, string8_modes):
        top = string8_modes.frequencies.max() / (2.0 * math.pi)
        assert top == pytest.approx(381.0044e3, rel=1e-5)

    def test_com_modes_at_trap_frequencies(self, string8_modes, trap_string8):
        # the three center-of-mass modes sit exactly at the trap frequencies
        f = string8_modes.frequencies
        for w in (trap_string8.omega_x, trap_string8.omega_y,
                  trap_string8.omega_z):
            assert np.min(np.abs(f - w)) / w < 1e-9

    def test_requires_equilibrium(self, string8, trap_string8):
        bad = string8.positions.copy()
        bad[0, 2] *= 1.05
        from ionlattice import CrystalState
        st = CrystalState(positions=bad, potential_value=0.0,
                          lattice_depth=0.0, gradient_norm=1.0)
        with pytest.raises(EquilibriumError):
            normal_modes(st, trap_string8)

    def test_saddle_string_rejected(self, trap_zigzag4):
        # a 4-ion string is stationary but unstable at (85, 170) kHz;
        # warm-starting from a genuinely linear crystal lands exactly on it
        tight = TrapConfig.from_frequencies(85e3, 500e3)
        string = equilibrium(4, tight, seed=1)
        saddle = equilibrium(4, trap_zigzag4,
                             initial_guess=string.positions)
        assert saddle.is_saddle
        with pytest.raises(UnstableConfigurationError):
            normal_modes(saddle, trap_zigzag4)

    def test_soft_rotation_mode(self):
        # degenerate radial trap: the zigzag plane costs nothing to rotate
        trap = TrapConfig.from_frequencies(85e3, 170e3, asymmetry=0.0)
        st = equilibrium(4, trap, seed=7)
        md = normal_modes(st, trap)
        assert md.eigenvalues.min() == 0.0
        with pytest.raises(SoftModeError):
            gamma_parameters(md)


class TestGamma:
    def test_brute_force_route(self, string8_modes, string8_gamma):
        # independent accumulation, one scalar sum per (ion, axis)
        b = string8_modes.coordinates
        lam = string8_modes.eigenvalues
        n = string8_modes.n_ions
        for mth in range(n):
            for a in range(3):
                g2 = sum(b[a * n + mth, p] ** 2 / lam[p]
                         for p in range(3 * n))
                assert string8_gamma.gamma[mth, a] == pytest.approx(
                    math.sqrt(g2), rel=1e-12)
        for mth in range(n):
            g2 = sum((b[mth, p] + b[n + mth, p]) ** 2 / (2.0 * lam[p])
                     for p in range(3 * n))
            assert string8_gamma.gamma_radial_projected[mth] == \
                pytest.approx(math.sqrt(g2), rel=1e-12)

    def test_single_ion_gamma_is_trap_ratio(self, trap_string8, ca40):
        st = equilibrium(1, trap_string8, seed=0)
        md = normal_modes(st, trap_string8)
        g = gamma_parameters(md)
        assert g.axial[0] == pytest.approx(1.0, rel=1e-12)
        assert g.gamma[0, 0] == pytest.approx(
            trap_string8.omega_z / trap_string8.omega_x, rel=1e-12)

    def test_spot_variance_model(self, string8_gamma, trap_string8, ca40):
        g = string8_gamma.axial[0]
        v = spot_variance_model(3.5e-3, g, trap_string8, ca40, 2.23e-6)
        thermal = cn.KB * 3.5e-3 / (ca40.mass * trap_string8.omega_z ** 2)
        assert v == pytest.approx(thermal * g ** 2 + 2.23e-6 ** 2,
                                  rel=1e-12)
        assert spot_variance_model(0.0, g, trap_string8, ca40, 2e-6) \
            == pytest.approx(4e-12, rel=1e-12)
        with pytest.raises(DomainError):
            spot_variance_model(-1e-3, g, trap_string8, ca40, 2e-6)


class TestClassification:
    def test_linear(self, string8, trap_string8):
        rep = classify_structure(string8.positions, trap_string8)
        assert rep.kind == "linear"
        assert rep.out_of_plane_count == 0

    def test_planar_zigzag(self, zigzag4, trap_zigzag4):
        rep = classify_structure(zigzag4.positions, trap_zigzag4)
        assert rep.kind == "planar"
        assert rep.out_of_plane_count == 0
        # buckling happens along y, so the plane is the y-z plane
        assert rep.plane_angle == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_three_dimensional(self, octa6, trap_octa6):
        rep = classify_structure(octa6.positions, trap_octa6)
        assert rep.kind == "three-dimensional"
        assert rep.out_of_plane_count == 2


NU_GRID = (0.0487e6, 0.099e6, 0.149e6, 0.20e6)


@pytest.fixture(scope="module")
def swept(ca40, trap_zigzag4):
    latt = LatticeConfig(
        depth_U0=ca40.mass * (2 * math.pi * 0.20e6) ** 2
        / (2.0 * ca40.lattice_wavevector ** 2),
        wavevector_k=ca40.lattice_wavevector,
        detuning=2 * math.pi * 0.76e12)
    return continuation(4, trap_zigzag4, latt, species=ca40, seed=7,
                        nu_grid=NU_GRID)


class TestContinuation:
    NU_GRID = NU_GRID

    def test_zero_depth_row_matches_free_modes(self, swept, trap_zigzag4,
                                               zigzag4):
        assert swept.nu_latt[0] == 0.0
        md = normal_modes(zigzag4, trap_zigzag4)
        np.testing.assert_allclose(
            np.sort(swept.frequencies[:, 0]),
            np.sort(md.frequencies / (2.0 * math.pi)), rtol=1e-9)

    def test_final_row_matches_fresh_solve(self, swept, trap_zigzag4, ca40):
        latt = LatticeConfig(
            depth_U0=swept.depths[-1],
            wavevector_k=ca40.lattice_wavevector,
            detuning=2 * math.pi * 0.76e12)
        st = equilibrium(4, trap_zigzag4, latt,
                         initial_guess=swept.positions[-1], species=ca40)
        md = normal_modes(st, trap_zigzag4, latt, species=ca40)
        np.testing.assert_allclose(
            np.sort(swept.frequencies[:, -1]),
            np.sort(md.frequencies / (2.0 * math.pi)), rtol=1e-8)

    def test_requested_points_present(self, swept):
        for nu in self.NU_GRID:
            assert np.min(np.abs(swept.nu_latt - nu)) < 1e-9
        assert not swept.refined[0]
        assert swept.refined.shape == swept.nu_latt.shape

    def test_sign_continuity(self, swept):
        # tracked eigenvectors never flip sign between adjacent steps
        c = swept.coordinates
        for i in range(c.shape[0] - 1):
            ov = np.sum(c[i] * c[i + 1], axis=0)
            assert ov.min() > 0.0

    def test_branch_exchange(self, swept):
        # branches 2 and 3 trade axial character across the sweep
        az = swept.block_weight("z")
        idx = [int(np.argmin(np.abs(swept.nu_latt - nu)))
               for nu in self.NU_GRID]
        np.testing.assert_allclose(az[2, idx],
                                   [0.985, 0.460, 0.084, 0.038], atol=0.01)
        np.testing.assert_allclose(az[3, idx],
                                   [0.162, 0.656, 0.986, 0.998], atol=0.01)

    def test_no_ambiguous_crossings(self, swept):
        assert swept.flagged == []

    def test_frequencies_stay_positive(self, swept):
        assert swept.frequencies[:, 1:].min() > 0.0

    def test_grid_validation(self, trap_zigzag4, ca40):
        latt = LatticeConfig(depth_U0=cn.KB * 1e-3,
                             wavevector_k=ca40.lattice_wavevector,
                             detuning=2 * math.pi * 0.76e12)
        with pytest.raises(DomainError):
            continuation(2, trap_zigzag4, latt, steps=1, species=ca40)

    def test_sweep_checks_arguments_before_iterating(self, trap_zigzag4,
                                                     ca40):
        # `modes` opens its output only after _sweep returns, so bad input
        # must raise from the call itself, not from the first row
        latt = LatticeConfig(depth_U0=cn.KB * 1e-3,
                             wavevector_k=ca40.lattice_wavevector,
                             detuning=2 * math.pi * 0.76e12)
        with pytest.raises(DomainError, match="two continuation steps"):
            crystal._sweep(2, trap_zigzag4, latt, 1, ca40, 0, None, [])
        with pytest.raises(DomainError, match="nonzero depth"):
            crystal._sweep(2, trap_zigzag4, replace(latt, depth_U0=0.0),
                           200, ca40, 0, None, [])


@pytest.fixture(scope="module")
def halved(ca40):
    # 12 ions up to 0.75 MHz on a 40-point grid: the matched overlap of two
    # coarse steps drops below 0.5, and each is halved once
    k = ca40.lattice_wavevector
    latt = LatticeConfig(
        depth_U0=ca40.mass * (2 * math.pi * 0.75e6) ** 2 / (2.0 * k * k),
        wavevector_k=k, detuning=2 * math.pi * 0.76e12)
    return continuation(12, TrapConfig.from_frequencies(85e3, 300e3), latt,
                        steps=40, species=ca40, seed=7)


class TestStepHalving:
    def test_rows_inserted(self, halved):
        assert len(halved.nu_latt) == 42
        np.testing.assert_array_equal(np.nonzero(halved.refined)[0],
                                      [30, 36])
        nu_max = halved.nu_latt[-1]
        np.testing.assert_allclose(
            halved.nu_latt[~halved.refined],
            np.concatenate([[0.0], np.geomspace(1e-3 * nu_max, nu_max, 39)]),
            rtol=1e-14)

    def test_refined_row_is_geometric_midpoint(self, halved):
        nu = halved.nu_latt
        for i in np.nonzero(halved.refined)[0]:
            assert nu[i] == pytest.approx(math.sqrt(nu[i - 1] * nu[i + 1]),
                                          rel=1e-14)

    def test_adjacent_overlaps_hold(self, halved):
        c = halved.coordinates
        overlap = np.sum(c[:-1] * c[1:], axis=1)  # [step, branch]
        assert np.abs(overlap).min() >= 0.5
        assert overlap.min() > 0.0  # and no sign flips

    def test_nothing_flagged(self, halved):
        assert halved.flagged == []


ZIGZAG4_YAML = """\
trap: {f_z_kHz: 85.0, f_radial_kHz: 170.0, q_axial: 5.0e-4}
lattice: {detuning_THz: 0.76, nu_latt_max_MHz: 0.2}
crystal: {n_ions: 4, seed: 7}
"""
# coarse zigzag4 grids whose second step lands in the avoided crossing of
# branches 2 and 3, where their two best overlaps differ by < 0.01; on
# NU_GRID branch 3 is assigned its second-best column
AMBIGUOUS_GRID = "0.0487:0.2:4:lin"


class TestAmbiguityFlag:
    @pytest.fixture()
    def unrefined(self, monkeypatch):
        # no halving allowed, so the ambiguous step is emitted and flagged
        monkeypatch.setattr(crystal, "_MAX_HALVINGS", 0)
        monkeypatch.setattr(crystal, "_AMBIGUITY_TOL", 0.02)

    @pytest.mark.parametrize("grid", [NU_GRID, AMBIGUOUS_GRID])
    def test_entries_point_at_emitted_rows(self, unrefined, grid):
        cfg = parse_config(ZIGZAG4_YAML)
        if isinstance(grid, str):
            grid = _parse_grid(grid) * 1e6
        res = continuation(4, cfg.trap, cfg.lattice, species=cfg.species,
                           seed=7, nu_grid=grid)
        assert res.flagged
        c = res.coordinates
        for entry in res.flagged:
            step, (p, partner) = entry["step"], entry["branches"]
            assert entry["nu_latt"] == res.nu_latt[step]
            assert not res.refined[step]
            # overlap[p, q]: branch p's previous vector against the column
            # branch q took at this step
            overlap = np.abs(c[step - 1].T @ c[step])
            second, best = np.argsort(overlap[p])[-2:]
            assert entry["overlap_gap"] == pytest.approx(
                overlap[p, best] - overlap[p, second], abs=1e-12)
            assert entry["overlap_gap"] < 0.02
            # the partner holds the other of p's two best columns
            assert partner != p
            assert partner == (second if best == p else best)

    def test_modes_writes_the_same_entries(self, unrefined, tmp_path):
        cfg = tmp_path / "zigzag4.yaml"
        cfg.write_text(ZIGZAG4_YAML)
        assert main(["modes", "--config", str(cfg), "--out", str(tmp_path),
                     "--grid", AMBIGUOUS_GRID]) == 0
        parsed = parse_config(ZIGZAG4_YAML)
        res = continuation(4, parsed.trap, parsed.lattice,
                           species=parsed.species, seed=7,
                           nu_grid=_parse_grid(AMBIGUOUS_GRID) * 1e6)
        written = json.loads((tmp_path / "modes_warnings.json").read_text())
        assert written["flagged"] == [
            {"step": e["step"], "nu_latt_MHz": e["nu_latt"] / 1e6,
             "branches": list(e["branches"]),
             "overlap_gap": e["overlap_gap"]} for e in res.flagged]
        assert written["flagged"]


# ----------------------------------------------------------------------
# the dimensionless kernel against the formulas it replaced; the oracles
# run their own (N, N, 3) pair pass, not the kernel's


def _tensor_pairs(u):
    """d[i, j] = u_i - u_j as an (N, N, 3) tensor, and r with a unit
    diagonal: the pair pass the kernel used before its per-axis layout."""
    d = u[:, None, :] - u[None, :, :]
    r2 = np.sum(d * d, axis=-1)
    np.fill_diagonal(r2, 1.0)
    return d, np.sqrt(r2)


def _separate_potential(scaled, u):
    """Potential from its own pair pass, as before the fused kernel."""
    d, r = _tensor_pairs(u)
    coul = np.sum(np.triu(1.0 / r, k=1))
    harm = 0.5 * np.sum(scaled.alpha2 * u * u)
    latt = 0.0
    if scaled.u0 != 0.0:
        latt = scaled.u0 * np.sum(np.sin(scaled.kappa * u[:, 2]) ** 2)
    return harm + coul + latt


def _separate_gradient(scaled, u):
    d, r = _tensor_pairs(u)
    inv3 = 1.0 / (r * r * r)
    np.fill_diagonal(inv3, 0.0)
    g = scaled.alpha2 * u - np.sum(d * inv3[:, :, None], axis=1)
    if scaled.u0 != 0.0:
        g[:, 2] += scaled.u0 * scaled.kappa * np.sin(
            2.0 * scaled.kappa * u[:, 2])
    return g


def _six_block_hessian(scaled, u):
    """The six-block assembly from the (N, N, 3) pair tensor, as it was
    before the per-axis pair pass: the kernel must keep its bits."""
    n = len(u)
    d, r = _tensor_pairs(u)
    inv3 = 1.0 / (r * r * r)
    w5 = 3.0 * inv3 / (r * r)
    np.fill_diagonal(inv3, 0.0)
    np.fill_diagonal(w5, 0.0)
    d = np.ascontiguousarray(np.moveaxis(d, -1, 0))  # (3, N, N)
    h = np.empty((3 * n, 3 * n))
    blocks = h.reshape(3, n, 3, n)  # [axis, ion, axis, ion]
    for a in range(3):
        for b in range(a, 3):
            t = d[a] * d[b] * w5
            if a == b:
                t -= inv3
            blk = -t
            blk.flat[::n + 1] = np.sum(t, axis=1)
            if a == b:
                blk.flat[::n + 1] += scaled.alpha2[a]
            blocks[a, :, b] = blk
            blocks[b, :, a] = blk.T
    if scaled.u0 != 0.0:
        z = np.arange(2 * n, 3 * n)
        h[z, z] += 2.0 * scaled.u0 * scaled.kappa ** 2 * np.cos(
            2.0 * scaled.kappa * u[:, 2])
    return h


def _tensor_hessian(scaled, u):
    """The (N, N, 3, 3) pair-tensor assembly, transposed into blocks."""
    n = len(u)
    d, r = _tensor_pairs(u)
    inv3 = 1.0 / (r * r * r)
    inv5 = inv3 / (r * r)
    np.fill_diagonal(inv3, 0.0)
    np.fill_diagonal(inv5, 0.0)
    t = 3.0 * d[:, :, :, None] * d[:, :, None, :] * inv5[:, :, None, None]
    t -= np.eye(3)[None, None, :, :] * inv3[:, :, None, None]
    h = -t
    h[np.arange(n), np.arange(n)] += np.sum(t, axis=1)
    h[np.arange(n), np.arange(n)] += np.diag(scaled.alpha2)[None, :, :]
    if scaled.u0 != 0.0:
        h[np.arange(n), np.arange(n), 2, 2] += 2.0 * scaled.u0 \
            * scaled.kappa ** 2 * np.cos(2.0 * scaled.kappa * u[:, 2])
    full = h.transpose(2, 0, 3, 1).reshape(3 * n, 3 * n)
    return 0.5 * (full + full.T)


@pytest.fixture(params=["no_lattice", "lattice"])
def kernel(request, ca40):
    latt = None
    if request.param == "lattice":
        k = ca40.lattice_wavevector
        latt = LatticeConfig(
            depth_U0=ca40.mass * (2 * math.pi * 0.3e6) ** 2 / (2.0 * k * k),
            wavevector_k=k, detuning=2 * math.pi * 0.76e12)
    trap = TrapConfig.from_frequencies(85e3, 300e3)
    return crystal._Dimensionless(trap, latt, ca40)


def _random_crystal(seed, n):
    # a jittered 3D string: random, yet no two ions closer than ~0.4
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 0.3, size=(n, 3))
    u[:, 2] += 1.2 * (np.arange(n) - 0.5 * (n - 1))
    return u


class TestKernel:
    @pytest.mark.parametrize("seed, n",
                             [(0, 2), (1, 7), (2, 16), (3, 64), (10, 1)])
    def test_energy_and_gradient_bit_equal(self, kernel, seed, n):
        u = _random_crystal(seed, n)
        energy, grad = kernel.energy_and_gradient(u)
        assert energy == _separate_potential(kernel, u)
        assert np.array_equal(grad, _separate_gradient(kernel, u))

    @pytest.mark.parametrize("seed, n", [(4, 2), (5, 7), (6, 16), (7, 64)])
    def test_block_hessian_matches_tensor_assembly(self, kernel, seed, n):
        u = _random_crystal(seed, n)
        h = kernel.hessian(u)
        oracle = _tensor_hessian(kernel, u)
        assert np.array_equal(h, h.T)
        assert np.max(np.abs(h - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64])
    def test_hessian_bit_equal_to_six_block_assembly(self, kernel, n):
        for seed in range(20, 25):
            u = _random_crystal(seed, n)
            h = kernel.hessian(u)
            assert np.array_equal(h, _six_block_hessian(kernel, u))
            assert np.array_equal(h, h.T)

    @pytest.mark.parametrize("seed, n", [(8, 3), (9, 9)])
    def test_hessian_is_gradient_derivative(self, kernel, seed, n):
        u = _random_crystal(seed, n)
        eps = 1e-6
        fd = np.empty((3 * n, 3 * n))
        for col in range(3 * n):
            du = np.zeros(3 * n)
            du[col] = eps
            du = du.reshape(u.shape, order="F")  # x-block, y-block, z-block
            diff = (kernel.energy_and_gradient(u + du)[1]
                    - kernel.energy_and_gradient(u - du)[1])
            fd[:, col] = diff.reshape(-1, order="F") / (2.0 * eps)
        h = kernel.hessian(u)
        assert np.max(np.abs(h - fd)) <= 1e-6 * np.max(np.abs(h))


class TestOneSpectrumPerDepth:
    def test_continuation_counts(self, monkeypatch, ca40, trap_zigzag4):
        counts = dict.fromkeys(("eigvalsh", "hessian", "solve", "solves"), 0)

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh",
                            counted(np.linalg.eigvalsh, "eigvalsh"))
        monkeypatch.setattr(crystal._Dimensionless, "hessian",
                            counted(crystal._Dimensionless.hessian, "hessian"))
        # a Newton step is one linear solve, or lstsq when singular
        monkeypatch.setattr(np.linalg, "solve",
                            counted(np.linalg.solve, "solve"))
        monkeypatch.setattr(np.linalg, "lstsq",
                            counted(np.linalg.lstsq, "solve"))
        monkeypatch.setattr(crystal, "_stationary",
                            counted(crystal._stationary, "solves"))
        latt = LatticeConfig(
            depth_U0=ca40.mass * (2 * math.pi * 0.20e6) ** 2
            / (2.0 * ca40.lattice_wavevector ** 2),
            wavevector_k=ca40.lattice_wavevector,
            detuning=2 * math.pi * 0.76e12)
        res = continuation(4, trap_zigzag4, latt, species=ca40, seed=7,
                           nu_grid=NU_GRID)
        monkeypatch.undo()

        assert counts["eigvalsh"] == 0
        assert counts["solves"] >= len(res.nu_latt)
        assert counts["hessian"] <= counts["solve"] + counts["solves"]
        for i, depth in enumerate(res.depths):
            row_latt = None if depth == 0.0 else replace(latt, depth_U0=depth)
            state = CrystalState(positions=res.positions[i],
                                 potential_value=0.0, lattice_depth=depth,
                                 gradient_norm=0.0)
            md = normal_modes(state, trap_zigzag4, row_latt, species=ca40)
            np.testing.assert_allclose(
                np.sort(res.frequencies[:, i]),
                md.frequencies / (2.0 * math.pi), rtol=1e-12)


class TestSaddleDescent:
    def test_planar_sweep_passes_saddle(self, ca40):
        # 32 ions in a planar crystal: at the 78th node of the default
        # 200-step grid the tracked minimum turns into a saddle, and the
        # first kick along the unstable direction stalls
        latt = LatticeConfig(depth_U0=cn.KB * 25e-3,
                             wavevector_k=ca40.lattice_wavevector,
                             detuning=2 * math.pi * 0.76e12)
        nu_max = latt.vibrational_frequency(ca40)
        grid = np.geomspace(1e-3 * nu_max, nu_max, 199)[:78]
        res = continuation(32, TrapConfig.from_frequencies(40e3, 300e3),
                           latt, species=ca40, seed=7, nu_grid=grid)
        assert res.nu_latt[-1] == grid[-1]
        assert np.all(np.isfinite(res.frequencies))
        assert res.frequencies[:, 1:].min() > 0.0

    @pytest.mark.parametrize("last_kick_converges", [False, True])
    def test_kicks_that_stall_are_skipped(self, monkeypatch, ca40,
                                          trap_zigzag4, last_kick_converges):
        # the first warm solve reports a saddle; every kick from it but
        # possibly the last stalls, the k-th at gradient max-norm k
        real = crystal._stationary
        kicks = []

        def scripted(scaled, n, guess, seed):
            out = real(scaled, n, guess, seed)
            if guess is None:
                return out
            kicks.append(guess)
            if len(kicks) == 1:
                u, energy, gnorm, lam, vec = out
                return u, energy, gnorm, np.r_[-1.0, lam[1:]], vec
            if last_kick_converges and len(kicks) >= 7:
                return out
            raise EquilibriumError("stalled", gradient_norm=len(kicks) - 1.0)

        monkeypatch.setattr(crystal, "_stationary", scripted)
        latt = LatticeConfig(depth_U0=cn.KB * 1e-3,
                             wavevector_k=ca40.lattice_wavevector,
                             detuning=2 * math.pi * 0.76e12)
        args = (4, trap_zigzag4, latt)
        kwargs = dict(species=ca40, seed=7, nu_grid=[0.1e6])
        if last_kick_converges:
            assert len(continuation(*args, **kwargs).nu_latt) == 2
        else:
            with pytest.raises(EquilibriumError,
                               match="every kick.*max-norm 1.000e"):
                continuation(*args, **kwargs)
        assert len(kicks) >= 7


def _cold_start(n, seed, attempt=0):
    # the jittered string that ``_stationary`` descends from first
    return crystal._string_guess(n, np.random.default_rng(seed + attempt),
                                 jitter=0.02 * (attempt + 1))


def _outer_rank_two_update(h, s, a, sa, as_):
    # the BFGS update as it was built with np.outer
    np.outer(s, a, out=sa)
    np.outer(a, s, out=as_)
    sa += as_
    h += sa


def _triu_energy_and_gradient(self, u):
    # _Dimensionless.energy_and_gradient as it summed np.triu(1/r, k=1)
    d, r = self._pairs(u)
    if np.min(r) < 1e-14:
        raise SingularConfigurationError("two ions coincide")
    coul = np.sum(np.triu(1.0 / r, k=1))
    harm = 0.5 * np.sum(self.alpha2 * u * u)
    latt = 0.0
    if self.u0 != 0.0:
        latt = self.u0 * np.sum(np.sin(self.kappa * u[:, 2]) ** 2)
    inv3 = 1.0 / (r * r * r)
    np.fill_diagonal(inv3, 0.0)
    g = self.alpha2 * u - np.sum(d * inv3, axis=1).T
    if self.u0 != 0.0:
        g[:, 2] += self.u0 * self.kappa * np.sin(2.0 * self.kappa * u[:, 2])
    return harm + coul + latt, g


class TestColdSolver:
    TRAP = TrapConfig.from_frequencies(85e3, 300e3)

    @pytest.mark.parametrize("n", [12, 64])
    def test_bfgs_reaches_scipy_minimum(self, ca40, n):
        scaled = crystal._Dimensionless(self.TRAP, None, ca40)

        def energy_and_gradient(v):
            e, g = scaled.energy_and_gradient(v.reshape(n, 3))
            return e, g.reshape(-1)

        u0 = _cold_start(n, 7).reshape(-1)
        minima = []
        for res in (minimize(energy_and_gradient, u0, jac=True,
                             method="BFGS",
                             options={"gtol": 1e-8, "maxiter": 4000}),
                    crystal.minimize(energy_and_gradient, u0, gtol=1e-8,
                                     maxiter=4000)):
            assert res.nit > 0
            u, energy, _, ok = crystal._newton_polish(scaled,
                                                      res.x.reshape(n, 3))
            assert ok
            minima.append((energy, u))
        (e_ref, u_ref), (e_new, u_new) = minima
        assert e_new == pytest.approx(e_ref, rel=1e-12, abs=0.0)
        dist = np.linalg.norm(u_ref[:, None, :] - u_new[None, :, :], axis=-1)
        rows, cols = linear_sum_assignment(dist)
        assert np.max(dist[rows, cols]) <= 1e-9

    # n -> (axial Hz, radial Hz, seed): a zigzag, a string and a 3-D ball
    COLD_CASES = {4: (85e3, 170e3, 7), 8: (70e3, 350e3, 3),
                  64: (85e3, 300e3, 7)}

    @pytest.mark.parametrize("n", sorted(COLD_CASES))
    def test_positions_equal_outer_and_triu_code(self, ca40, monkeypatch,
                                                 n):
        # einsum products and the cached upper mask keep every bit
        f_z, f_r, seed = self.COLD_CASES[n]
        scaled = crystal._Dimensionless(TrapConfig.from_frequencies(f_z, f_r),
                                        None, ca40)
        u, energy = crystal._stationary(scaled, n, None, seed)[:2]
        monkeypatch.setattr(_optim, "_rank_two_update",
                            _outer_rank_two_update)
        monkeypatch.setattr(crystal._Dimensionless, "energy_and_gradient",
                            _triu_energy_and_gradient)
        u_old, energy_old = crystal._stationary(scaled, n, None, seed)[:2]
        assert np.array_equal(u, u_old)
        assert energy == energy_old

    def test_first_of_tied_starts_wins(self, ca40):
        # 14 ions, seed 3: starts 0 and 2 reach mirror images whose
        # energies differ in the last bits only
        n, seed = 14, 3
        scaled = crystal._Dimensionless(self.TRAP, None, ca40)
        starts = []
        for attempt in range(crystal._RESTARTS):
            u, energy, _, ok = crystal._solve_from(
                scaled, _cold_start(n, seed, attempt))
            assert ok
            starts.append((energy, u))
        lowest = min(e for e, _ in starts)
        tied = [u for e, u in starts if e - lowest <= 1e-12 * lowest]
        assert len(tied) >= 2
        assert np.max(np.abs(tied[0] - tied[1])) > 1e-3  # not one structure
        state = equilibrium(n, self.TRAP, species=ca40, seed=seed)
        np.testing.assert_array_equal(state.positions, tied[0] * scaled.ell)


# the benchmark's crystal64 run config (bench/workloads.py), without the
# lattice that the cold solve does not read
CRYSTAL64_JSON = json.dumps({
    "schema_version": 1,
    "trap": {"f_z_kHz": 85.0, "f_radial_kHz": 300.0},
    "crystal": {"n_ions": 64, "seed": 7},
})


def _run_in_process(monkeypatch):
    monkeypatch.setattr(crystal, "_fanout_width",
                        lambda n_ions, n_starts: 0)


@pytest.fixture
def nothing_left_behind():
    # no worker left to reap and no pipe left open after the test
    fds = len(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.skipif(_fork.width(crystal._RESTARTS) < 2,
                    reason="cold starts do not fan out on this host")
@pytest.mark.usefixtures("nothing_left_behind")
class TestForkedStarts:
    TRAP = TrapConfig.from_frequencies(85e3, 300e3)
    N = crystal._FANOUT_MIN_IONS

    @pytest.fixture
    def fanned_out(self, monkeypatch):
        # the widths of the fork_map calls the next solves make
        widths = []
        fork_map = _fork.fork_map

        def spy(fn, items, width):
            widths.append(width)
            return fork_map(fn, items, width)

        monkeypatch.setattr(_fork, "fork_map", spy)
        return widths

    @pytest.mark.parametrize("case", ["crystal64", "fanout_min"])
    def test_forked_starts_keep_every_bit(self, ca40, monkeypatch,
                                          fanned_out, case):
        if case == "crystal64":
            cfg = parse_config(CRYSTAL64_JSON)
            args = (cfg.n_ions, cfg.trap)
            kwargs = {"species": cfg.species, "seed": cfg.seed}
        else:
            args, kwargs = (self.N, self.TRAP), {"species": ca40, "seed": 7}
        forked = equilibrium(*args, **kwargs)
        assert fanned_out == [_fork.width(crystal._RESTARTS)]
        _run_in_process(monkeypatch)
        local = equilibrium(*args, **kwargs)
        assert fanned_out == [_fork.width(crystal._RESTARTS)]
        assert np.array_equal(forked.positions, local.positions)
        assert forked.potential_value.hex() == local.potential_value.hex()
        assert forked.is_saddle == local.is_saddle

    def test_worker_exception_reaches_caller(self, ca40, monkeypatch,
                                             fanned_out):
        # start 2 begins with two ions on top of each other, so the pair
        # pass raises in the worker that descends from it
        guess = crystal._string_guess

        def merged_start_2(n, rng, jitter):
            u = guess(n, rng, jitter)
            if jitter == 0.02 * 3:
                u[1] = u[0]
            return u

        parent, ran_here = os.getpid(), []
        solve = crystal._solve_from

        def spied(scaled, u0):
            if os.getpid() == parent:
                ran_here.append(u0)
            return solve(scaled, u0)

        monkeypatch.setattr(crystal, "_string_guess", merged_start_2)
        monkeypatch.setattr(crystal, "_solve_from", spied)
        with pytest.raises(SingularConfigurationError) as forked:
            equilibrium(self.N, self.TRAP, species=ca40, seed=7)
        assert fanned_out and not ran_here  # raised in a worker
        _run_in_process(monkeypatch)
        with pytest.raises(SingularConfigurationError) as local:
            equilibrium(self.N, self.TRAP, species=ca40, seed=7)
        assert len(ran_here) == 3  # starts 0 and 1 ran, 2 raised
        assert type(forked.value) is type(local.value)
        assert str(forked.value) == str(local.value)

    def test_dead_worker_starts_run_in_process(self, ca40, monkeypatch,
                                               fanned_out):
        n, seed = self.N, 7
        start_1 = _cold_start(n, seed, 1)
        parent, ran_here = os.getpid(), []
        solve = crystal._solve_from

        def dies_on_start_1(scaled, u0):
            if os.getpid() != parent and np.array_equal(u0, start_1):
                os._exit(1)
            if os.getpid() == parent:
                ran_here.append(u0)
            return solve(scaled, u0)

        monkeypatch.setattr(crystal, "_solve_from", dies_on_start_1)
        state = equilibrium(n, self.TRAP, species=ca40, seed=seed)
        # the dead worker's starts 1, 1 + w, ... ran here, in order
        width, = fanned_out
        expected = [_cold_start(n, seed, a)
                    for a in range(1, crystal._RESTARTS, width)]
        assert len(ran_here) == len(expected)
        assert all(map(np.array_equal, ran_here, expected))
        _run_in_process(monkeypatch)
        local = equilibrium(n, self.TRAP, species=ca40, seed=seed)
        assert np.array_equal(state.positions, local.positions)
        assert state.potential_value.hex() == local.potential_value.hex()
        assert state.is_saddle == local.is_saddle

    def test_failed_fork_runs_the_rest_in_process(self, ca40, monkeypatch,
                                                  fanned_out):
        forks = []
        fork = _fork._fork

        def second_fork_fails():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(_fork, "_fork", second_fork_fails)
        state = equilibrium(self.N, self.TRAP, species=ca40, seed=7)
        assert len(forks) == 2
        _run_in_process(monkeypatch)
        local = equilibrium(self.N, self.TRAP, species=ca40, seed=7)
        assert np.array_equal(state.positions, local.positions)
        assert state.potential_value.hex() == local.potential_value.hex()

    def test_interrupted_wait_kills_every_worker(self, ca40, monkeypatch,
                                                 fanned_out):
        def interrupted(fd):
            raise KeyboardInterrupt

        monkeypatch.setattr(_fork, "_read_all", interrupted)
        with pytest.raises(KeyboardInterrupt):
            equilibrium(64, self.TRAP, species=ca40, seed=7)
        assert fanned_out

    def test_parent_blas_threads_unchanged(self, ca40, fanned_out):
        getters = _fork.openblas_functions("get_num_threads")
        assert getters
        before = [get() for get in getters]
        equilibrium(self.N, self.TRAP, species=ca40, seed=7)
        assert fanned_out
        assert [get() for get in getters] == before
