"""Equilibria, normal modes, continuation tracking, classification."""

import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
            crystal._sweep(2, trap_zigzag4, latt, 1, ca40, 0, None)
        flat = LatticeConfig(0.0, latt.wavevector_k, latt.detuning)
        with pytest.raises(DomainError, match="nonzero depth"):
            crystal._sweep(2, trap_zigzag4, flat, 200, ca40, 0, None)

    def test_sweep_refuses_depths_whose_spectrum_is_rounding_noise(
            self, trap_zigzag4, ca40):
        # eigh resolves the Hessian's eigenvalues to about eps times the
        # largest, the lattice curvature 2*u0*kappa^2 in trap units. Once
        # that exceeds 1e-6/eps times the softest trap curvature, the sweep
        # refuses the grid when called, before any solve, and takes one
        # below
        n = 4
        latt = LatticeConfig(depth_U0=cn.KB * 1e-3,
                             wavevector_k=ca40.lattice_wavevector,
                             detuning=2 * math.pi * 0.76e12)
        scaled = crystal._Dimensionless(trap_zigzag4, latt, ca40)
        assert scaled.alpha2.min() == 1.0  # the axial curvature is softest
        ceiling = 1e-6 / np.finfo(float).eps
        for factor, refused in ((0.99, False), (1.01, True)):
            depth = (factor * ceiling / (2 * scaled.kappa ** 2)
                     * scaled.energy_unit)
            nu = latt.wavevector_k / (2 * math.pi) * math.sqrt(
                2 * depth / ca40.mass)
            assert nu / 85e3 == pytest.approx(
                math.sqrt(factor * ceiling), rel=1e-9)
            if refused:
                with pytest.raises(DomainError,
                                   match="resolves the softest trap"):
                    crystal._sweep(n, trap_zigzag4, latt, 200, ca40, 0, [nu])
            else:
                crystal._sweep(n, trap_zigzag4, latt, 200, ca40, 0,
                               [nu]).close()


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
        monkeypatch.setattr(crystal, "_settle",
                            counted(crystal._settle, "solves"))
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
            row_latt = None if depth == 0.0 else LatticeConfig(
                depth, latt.wavevector_k, latt.detuning)
            state = CrystalState(positions=res.positions[i],
                                 potential_value=0.0, lattice_depth=depth,
                                 gradient_norm=0.0)
            md = normal_modes(state, trap_zigzag4, row_latt, species=ca40)
            np.testing.assert_allclose(
                np.sort(res.frequencies[:, i]),
                md.frequencies / (2.0 * math.pi), rtol=1e-12)


def _sweep_rows(monkeypatch, overlap, n, trap, latt, species, seed, grid):
    """Every row ``_sweep`` yields, without its flags, and the flags of all
    rows with their steps, with the spectra taken on the worker thread or
    inline, and the names of the threads that took them. Both run OpenBLAS
    on one thread, as an overlapped sweep does, so that their bits can be
    compared."""
    monkeypatch.setattr(crystal, "_overlaps", lambda n_ions: overlap)
    spectrum, threads = crystal._spectrum, set()

    def spied(h):
        threads.add(threading.current_thread().name)
        return spectrum(h)

    monkeypatch.setattr(crystal, "_spectrum", spied)
    with _fork.one_blas_thread():
        rows = list(crystal._sweep(n, trap, latt, 200, species, seed, grid))
    flagged = [{"step": step, **f} for step, row in enumerate(rows)
               for f in row[5]]
    return [row[:5] for row in rows], flagged, threads


def _blue_lattice(ca40):
    # the 25 mK blue-detuned lattice of the large-crystal sweeps
    return LatticeConfig(depth_U0=cn.KB * 25e-3,
                         wavevector_k=ca40.lattice_wavevector,
                         detuning=2 * math.pi * 0.76e12)


def _planar32(ca40):
    # 32 ions in a planar crystal: at the 78th node of the default 200-step
    # grid the tracked minimum turns into a saddle, and the first kick
    # along the unstable direction stalls
    latt = _blue_lattice(ca40)
    nu_max = latt.vibrational_frequency(ca40)
    grid = np.geomspace(1e-3 * nu_max, nu_max, 199)[:78]
    return 32, TrapConfig.from_frequencies(40e3, 300e3), latt, ca40, 7, grid


def _calls(monkeypatch, owner, name, pick=lambda *args: None):
    """A list that gets pick(*args) of every call of ``owner.name`` from
    now on, in order (None each, to count the calls)."""
    calls, fn = [], getattr(owner, name)

    def spied(*args):
        calls.append(pick(*args))
        return fn(*args)

    monkeypatch.setattr(owner, name, spied)
    return calls


def _fork_widths(monkeypatch):
    # the width of every _fork.fork_map call that forks, from now on
    widths, fork_map = [], _fork.fork_map

    def spied(fn, items):
        if n_workers := _fork.width(len(items)):
            widths.append(n_workers)
        return fork_map(fn, items)

    monkeypatch.setattr(_fork, "fork_map", spied)
    return widths


@pytest.fixture(scope="module")
def planar32_sweep(ca40):
    # planar32's overlapped _sweep_rows, the widths of its fork_map calls,
    # and the number of its saddle descents
    with pytest.MonkeyPatch.context() as mp:
        widths = _fork_widths(mp)
        descents = _calls(mp, crystal, "_descend_from_saddle")
        return _sweep_rows(mp, True, *_planar32(ca40)), widths, len(descents)


@pytest.fixture(scope="module")
def planar32_overlapped(planar32_sweep):
    return planar32_sweep[0]


def _script_saddles(monkeypatch, at):
    """Make the spectrum of every Hessian built at a state u for which
    at(u) holds report a saddle: its lowest eigenvalue becomes -1."""
    hessian, spectrum, saddles = (crystal._Dimensionless.hessian,
                                  crystal._spectrum, [])

    def marking_hessian(self, u):
        h = hessian(self, u)
        if at(u):
            saddles.append(h)
        return h

    def scripted_spectrum(h):
        lam, vec = spectrum(h)
        if any(h is s for s in saddles):
            return np.r_[-1.0, lam[1:]], vec
        return lam, vec

    monkeypatch.setattr(crystal._Dimensionless, "hessian", marking_hessian)
    monkeypatch.setattr(crystal, "_spectrum", scripted_spectrum)


class TestSaddleDescent:
    def test_planar_sweep_passes_saddle(self, ca40, planar32_overlapped):
        grid = _planar32(ca40)[-1]
        rows, _, _ = planar32_overlapped
        frequencies = np.array([freqs for _, freqs, *_ in rows])
        assert rows[-1][0] == grid[-1]
        assert np.all(np.isfinite(frequencies))
        assert frequencies[1:].min() > 0.0

    @pytest.mark.parametrize("last_kick_converges", [False, True])
    def test_kicks_that_stall_are_skipped(self, monkeypatch, ca40,
                                          trap_zigzag4, last_kick_converges):
        # the first warm solve reports a saddle; every kick from it but
        # possibly the last stalls, the k-th at gradient max-norm k
        settle, solve = crystal._settle, crystal._solve_from
        kicks, first_warm = [], []

        def first_warm_settle(scaled, n, guess, seed):
            out = settle(scaled, n, guess, seed)
            if guess is not None and not first_warm:
                first_warm.append(out[0])
            return out

        def scripted_solve(scaled, starts):
            # below the gate every start of a descent is a lane of one call
            runs = solve(scaled, starts)
            if not first_warm:  # cold starts and the first warm settle
                return runs
            scripted = []
            for u0, out in zip(starts, runs):
                kicks.append(u0)
                if last_kick_converges and len(kicks) == 6:
                    scripted.append(out)
                else:
                    scripted.append((out[0], out[1], float(len(kicks)),
                                     False))
            return scripted

        monkeypatch.setattr(crystal, "_settle", first_warm_settle)
        monkeypatch.setattr(crystal, "_solve_from", scripted_solve)
        _script_saddles(monkeypatch,
                        lambda u: bool(first_warm) and u is first_warm[0])
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
        assert len(kicks) == 6

    def test_kicks_that_reach_only_saddles(self, monkeypatch, ca40,
                                           trap_zigzag4):
        # the first warm solve reports a saddle, and so does every state
        # that a kick from it, or from the lowest of those, converges to
        settle, solve = crystal._settle, crystal._solve_from
        warm, kicked = [], []

        def scripted_settle(scaled, n, guess, seed):
            out = settle(scaled, n, guess, seed)
            if guess is not None:
                warm.append(out[0])
            return out

        def scripted_solve(scaled, starts):
            runs = solve(scaled, starts)  # a lane per start, below the gate
            if warm:  # kicks: cold starts and the first warm settle
                kicked.extend(out[0] for out in runs)  # run before warm
            return runs

        monkeypatch.setattr(crystal, "_settle", scripted_settle)
        monkeypatch.setattr(crystal, "_solve_from", scripted_solve)
        _script_saddles(monkeypatch,
                        lambda u: any(u is w for w in warm + kicked))
        latt = LatticeConfig(depth_U0=cn.KB * 1e-3,
                             wavevector_k=ca40.lattice_wavevector,
                             detuning=2 * math.pi * 0.76e12)
        with pytest.raises(UnstableConfigurationError,
                           match="no adjacent minimum was reachable"):
            continuation(4, trap_zigzag4, latt, species=ca40, seed=7,
                         nu_grid=[0.1e6])
        # the tracked state, six kicks and the extra round's six
        assert len(warm) + len(kicked) == 13

    def test_first_of_tied_kicks_wins(self):
        # 1 ion on a red 25 mK lattice (the yardstick's draw012): the warm
        # state lands on the saddle at a lattice node, and the six kicks
        # reach the mirror wells at z = +-0.009655 l, whose energies differ
        # in the last bits only. The +1e-3 kick, the first tied with the
        # lowest, reaches the + well; the +0.1 kick overshoots into the -
        # well, whose energy rounds lower
        cfg = parse_config(json.dumps({
            "trap": {"f_z_kHz": 131.63527474973614,
                     "f_radial_kHz": 179.84527336403508, "asymmetry": 0.0},
            "lattice": {"detuning_THz": -0.76, "depth_max_mK": 25.0},
            "crystal": {"n_ions": 1, "seed": 70}}))
        grid = _parse_grid("0.0011301877032433932:0.24979787732233313:2:lin")
        res = continuation(cfg.n_ions, cfg.trap, cfg.lattice,
                           species=cfg.species, seed=cfg.seed,
                           nu_grid=grid * 1e6)
        z = res.positions[-1, 0, 2] / length_scale(cfg.trap, cfg.species)
        assert z == pytest.approx(0.009655, abs=1e-6)


class TestLookahead:
    """An overlapped sweep takes each depth's spectrum on a worker thread
    while the next depth settles; it must give the inline sweep's rows."""

    @staticmethod
    def _assert_same_rows(got, want):
        # every yielded row bit for bit (nu, frequencies, b, positions,
        # refined), and the flagged list
        (rows, flagged, _), (want_rows, want_flagged, _) = got, want
        assert len(rows) == len(want_rows)
        for row, want_row in zip(rows, want_rows):
            assert row[0] == want_row[0] and row[4] == want_row[4]
            for array, expected in zip(row[1:4], want_row[1:4]):
                assert np.array_equal(array, expected)
        assert flagged == want_flagged

    @staticmethod
    def _crystal64_sweep():
        # the benchmark's crystal64 up to the first halving of its default
        # grid, every tenth node: 23 rows, 10 of them inserted
        cfg = parse_config(CRYSTAL64_MODES_JSON)
        nu_max = cfg.lattice.vibrational_frequency(cfg.species)
        grid = np.geomspace(1e-3 * nu_max, nu_max, 199)[:119:10]
        return (cfg.n_ions, cfg.trap, cfg.lattice, cfg.species, cfg.seed,
                grid)

    @staticmethod
    def _ions16_sweep(ca40):
        # 16 ions, below the overlap's size gate (the test forces it), on
        # every tenth node of the default grid: 24 rows, 3 of them inserted
        latt = _blue_lattice(ca40)
        nu_max = latt.vibrational_frequency(ca40)
        grid = np.geomspace(1e-3 * nu_max, nu_max, 199)[::10]
        return (16, TrapConfig.from_frequencies(85e3, 300e3), latt, ca40, 7,
                grid)

    @pytest.mark.parametrize("case", ["crystal64", "planar32", "ions16"])
    def test_overlap_keeps_every_bit(self, ca40, monkeypatch, request,
                                     case):
        if case == "planar32":
            args = _planar32(ca40)
            overlapped = request.getfixturevalue("planar32_overlapped")
        else:
            args = (self._crystal64_sweep() if case == "crystal64"
                    else self._ions16_sweep(ca40))
            overlapped = _sweep_rows(monkeypatch, True, *args)
        inline = _sweep_rows(monkeypatch, False, *args)
        threads, here = overlapped[2], inline[2]
        assert threads - here and here == {threading.main_thread().name}
        assert any(refined for *_, refined in inline[0])  # steps halved
        self._assert_same_rows(overlapped, inline)

    def test_caller_builds_every_hessian(self, ca40, monkeypatch):
        # the caller builds every Hessian, of its Newton steps and of its
        # rows alike, while the worker thread runs only each row's eigh
        hessian, eigh = crystal._Dimensionless.hessian, np.linalg.eigh
        built, solved = [], []

        def spied_hessian(self, u):
            built.append(threading.current_thread().name)
            return hessian(self, u)

        def spied_eigh(h):
            solved.append(threading.current_thread().name)
            return eigh(h)

        monkeypatch.setattr(crystal._Dimensionless, "hessian", spied_hessian)
        monkeypatch.setattr(np.linalg, "eigh", spied_eigh)
        rows, _, _ = _sweep_rows(monkeypatch, True,
                                 *self._ions16_sweep(ca40))
        assert any(refined for *_, refined in rows)  # steps halved
        assert len(built) > len(solved) >= len(rows)
        assert set(built) == {threading.main_thread().name}
        assert threading.main_thread().name not in solved
        assert len(set(solved)) == 1

    def test_unused_look_ahead_does_not_raise(self, monkeypatch):
        # every step halves once, so the state first settled at the first
        # warm target is rejected. Either sweep has settled the next target
        # from it already, before reading its spectrum, and that settle
        # raises here; the state is never used, so neither sweep raises
        cfg = parse_config(ZIGZAG4_YAML)
        monkeypatch.setattr(crystal, "_OVERLAP_MIN", 1.1)
        monkeypatch.setattr(crystal, "_MAX_HALVINGS", 1)
        settle, first_warm, raised = crystal._settle, [], []

        def stalls_from_first_warm_state(scaled, n, guess, seed):
            if first_warm and guess is first_warm[0]:
                raised.append(guess)
                raise EquilibriumError("stalled", gradient_norm=1.0)
            out = settle(scaled, n, guess, seed)
            if guess is not None and not first_warm:
                first_warm.append(out[0])
            return out

        monkeypatch.setattr(crystal, "_settle", stalls_from_first_warm_state)
        args = (4, cfg.trap, cfg.lattice, cfg.species, 7, [0.1e6, 0.2e6])
        overlapped = _sweep_rows(monkeypatch, True, *args)
        assert len(raised) == 1
        first_warm.clear()
        inline = _sweep_rows(monkeypatch, False, *args)
        assert len(raised) == 2
        assert [r[4] for r in inline[0]] == [False, True, False, True, False]
        self._assert_same_rows(overlapped, inline)

    def test_inline_and_overlapped_settle_alike(self, ca40, monkeypatch):
        # the host picks only the thread that runs eigh: both sweeps settle
        # the same depths from the same guesses, in the same order
        calls = _calls(monkeypatch, crystal, "_settle",
                       lambda scaled, n, guess, seed: (
                           scaled.u0,
                           None if guess is None else guess.tobytes()))
        settles = {}
        for overlap in (True, False):
            calls.clear()
            rows, _, _ = _sweep_rows(monkeypatch, overlap,
                                     *self._ions16_sweep(ca40))
            assert any(refined for *_, refined in rows)  # steps halved
            settles[overlap] = list(calls)
        assert len(settles[True]) > len(rows)  # settled ahead
        assert len(settles[True]) == len(settles[False])
        assert settles[True] == settles[False]

    def test_used_look_ahead_raises_as_inline(self, monkeypatch):
        # the second warm settle raises. Whichever thread runs eigh, the
        # sweep settles that target ahead, while row 1's spectrum is taken,
        # and raises once row 1 is accepted as it stands. Both hosts yield
        # rows 0 and 1 first
        cfg = parse_config(ZIGZAG4_YAML)
        settle, warm = crystal._settle, []

        def stalls_at_second_warm_target(scaled, n, guess, seed):
            if guess is not None:
                warm.append(guess)
                if len(warm) == 2:
                    raise EquilibriumError(f"scripted stall {len(warm)}",
                                           gradient_norm=1.0)
            return settle(scaled, n, guess, seed)

        monkeypatch.setattr(crystal, "_settle", stalls_at_second_warm_target)
        raised = {}
        for overlap in (True, False):
            warm.clear()
            monkeypatch.setattr(crystal, "_overlaps",
                                lambda n_ions: overlap)
            rows = []
            with _fork.one_blas_thread(), \
                    pytest.raises(EquilibriumError) as info:
                for row in crystal._sweep(4, cfg.trap, cfg.lattice, 200,
                                          cfg.species, 7, [0.1e6, 0.2e6]):
                    rows.append(row)
            assert len(warm) == 2
            assert [nu for nu, *_ in rows] == [0.0, 0.1e6]
            raised[overlap] = info.value
        assert type(raised[True]) is type(raised[False])
        assert str(raised[True]) == str(raised[False]) == "scripted stall 2"

    def test_worker_exception_reaches_caller(self, monkeypatch):
        # row 0's spectrum raises on the worker thread; the sweep raises it
        # where it reads that spectrum
        cfg = parse_config(ZIGZAG4_YAML)
        monkeypatch.setattr(crystal, "_overlaps", lambda n_ions: True)
        spectrum, threads = crystal._spectrum, []

        def raises_on_row_0(h):
            threads.append(threading.current_thread().name)
            if len(threads) == 1:
                raise np.linalg.LinAlgError("scripted")
            return spectrum(h)

        monkeypatch.setattr(crystal, "_spectrum", raises_on_row_0)
        rows = crystal._sweep(4, cfg.trap, cfg.lattice, 200, cfg.species, 7,
                              [0.1e6, 0.2e6])
        with pytest.raises(np.linalg.LinAlgError, match="^scripted$"):
            list(rows)
        assert threading.main_thread().name not in threads


def _cold_start(n, seed, attempt=0):
    # the jittered string that a cold ``_settle`` descends from first
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


def _line_search(fun, xk, pk, f0, g0, old_f0):
    # _optim.line_search driven by fun alone, one trial point per call
    search = _optim.line_search(xk, pk, f0, g0, old_f0)
    try:
        x = next(search)
        while True:
            x = search.send(fun(x))
    except StopIteration as done:
        return done.value


def _numpy_scalar_minimize(fun, x0, gtol, maxiter):
    # _optim.minimize as it ran one start on numpy scalars, with two
    # max-norms per iteration; its line search is _optim's, which
    # test_optim.py::test_line_search_equals_scipy_wolfe1 pins to scipy
    x = x0
    f, g = fun(x)
    h = np.eye(len(x))
    sa, as_ = np.empty_like(h), np.empty_like(h)
    old_f = f + np.linalg.norm(g) / 2
    k = 0
    while np.max(np.abs(g)) > gtol and k < maxiter:
        p = -(h @ g)
        step = _line_search(fun, x, p, f, g, old_f)
        if step is None:
            break
        alpha, f_new, g_new = step
        old_f, f = f, f_new
        s = alpha * p
        x = x + s
        y = g_new - g
        g = g_new
        k += 1
        if np.max(np.abs(g)) <= gtol or not np.isfinite(f):
            break
        ys = np.dot(y, s)
        rho = 1000.0 if ys == 0.0 else 1.0 / ys
        hy = h @ y
        a = 0.5 * (rho * rho * np.dot(y, hy) + rho) * s - rho * hy
        _optim._rank_two_update(h, s, a, sa, as_)
    return x


def _twice_normed_polish(scaled, u):
    # crystal._newton_polish as it took an accepted trial's max-norm twice
    u = u.copy()
    energy, g = scaled.energy_and_gradient(u)
    gnorm = np.max(np.abs(g))
    floor = crystal._FLOOR * abs(scaled.u0) * scaled.kappa ** 2
    h = None
    mu = 0.0
    for _ in range(crystal._NEWTON_MAX_ITER):
        if gnorm <= max(crystal._GTOL, floor * np.max(np.abs(u[:, 2]))):
            return u, energy, gnorm, True
        if h is None:
            h = scaled.hessian(u)
        gflat = g.reshape(-1, order="F")
        try:
            damped = h if mu == 0.0 else h + mu * np.eye(len(h))
            step = np.linalg.solve(damped, gflat)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(h, gflat, rcond=None)
        trial = u - step.reshape(u.shape, order="F")
        try:
            e_trial, g_trial = scaled.energy_and_gradient(trial)
        except SingularConfigurationError:
            g_trial = None
        if g_trial is not None and np.max(np.abs(g_trial)) < gnorm:
            u, energy, g, h = trial, e_trial, g_trial, None
            gnorm = np.max(np.abs(g))
            mu *= 0.1
        else:
            mu = 1e-6 if mu == 0.0 else mu * 10.0
            if mu > 1e6:
                return u, energy, gnorm, False
    return u, energy, gnorm, False


def _per_start_solve_from(scaled, starts):
    # crystal._solve_from as it descended one start per call, each a lane
    # of the stack in turn, through the reference copies above
    runs = []
    for u0 in starts:
        def energy_and_gradient(v):
            e, g = scaled.energy_and_gradient(v.reshape(u0.shape))
            return e, g.reshape(-1)

        x = _numpy_scalar_minimize(energy_and_gradient, u0.reshape(-1),
                                   gtol=1e-8, maxiter=4000)
        runs.append(crystal._newton_polish(scaled, x.reshape(u0.shape)))
    return runs


def _swap_in_reference_loops(monkeypatch):
    # the reference copies above in place of the library's own: the
    # per-start loop against the lanes below the gate
    monkeypatch.setattr(_optim, "_rank_two_update", _outer_rank_two_update)
    monkeypatch.setattr(crystal._Dimensionless, "energy_and_gradient",
                        _triu_energy_and_gradient)
    monkeypatch.setattr(crystal, "_solve_from", _per_start_solve_from)
    monkeypatch.setattr(crystal, "_newton_polish", _twice_normed_polish)


@pytest.mark.xfail(strict=True, raises=EquilibriumError,
                   reason="the damped Newton polish stalls in a "
                          "near-isotropic trap (CHANGES.md, FOUND lines on "
                          "the 3-ion and 4-ion cold solves)")
@pytest.mark.parametrize("n, f_z, f_radial, asymmetry, seed", [
    # the softer radial frequency is within 0.14% of the axial one, so the
    # planar triangle's rotation is nearly free (lowest eigenvalue about
    # 1.6e-8 against 6.2e-2 for the next); the polish's damping ladder
    # then alternates between a rejected and an accepted step at 1.1e-9
    (3, 248.859e3, 252.991e3, 0.03, 1),
    # omega_y/omega_z = 1.0001, a trap that test_boundary's scatter test
    # can draw: all four starts stall, the best at gradient 2.7e-10
    (4, 40e3, 42.109375e3, 0.1, 0),
], ids=["3_ions", "4_ions"])
def test_near_isotropic_cold_solve(ca40, n, f_z, f_radial, asymmetry, seed):
    trap = TrapConfig.from_frequencies(f_z, f_radial, asymmetry=asymmetry)
    state = equilibrium(n, trap, species=ca40, seed=seed)
    assert state.gradient_norm <= 1e-10


def test_stalled_warm_polish_descends_from_the_guess(monkeypatch, ca40,
                                                     trap_zigzag4):
    # a guess far from any minimum: its Newton polish stalls, and one BFGS
    # descent from the guess itself reaches the cold solve's minimum
    guess = (np.random.default_rng(0).normal(size=(4, 3))
             * 3 * length_scale(trap_zigzag4, ca40))
    stacks = _calls(monkeypatch, crystal, "_descend",
                    lambda scaled, starts, what: starts.shape)
    state = equilibrium(4, trap_zigzag4, initial_guess=guess, species=ca40)
    assert stacks == [(1, 4, 3)]
    assert state.gradient_norm <= 1e-10 and not state.is_saddle
    cold = equilibrium(4, trap_zigzag4, species=ca40, seed=7)
    assert state.potential_value == pytest.approx(cold.potential_value,
                                                  rel=1e-12)


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
                    crystal.minimize(energy_and_gradient, u0[None],
                                     gtol=1e-8, maxiter=4000)):
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
        # einsum products, the cached upper mask and the BFGS and Newton
        # loops' Python-float scalars keep every bit
        f_z, f_r, seed = self.COLD_CASES[n]
        scaled = crystal._Dimensionless(TrapConfig.from_frequencies(f_z, f_r),
                                        None, ca40)
        u, energy, _ = crystal._settle(scaled, n, None, seed)
        _swap_in_reference_loops(monkeypatch)
        u_old, energy_old, _ = crystal._settle(scaled, n, None, seed)
        assert np.array_equal(u, u_old)
        assert energy == energy_old

    def test_sweep_rows_equal_reference_loops(self, ca40, trap_zigzag4,
                                              monkeypatch):
        # zigzag4's default 200-step sweep on the blue lattice: every warm
        # polish, and the cold solve of row 0, keeps its bits
        args = (4, trap_zigzag4, _blue_lattice(ca40), 200, ca40, 7, None)
        rows = list(crystal._sweep(*args))
        _swap_in_reference_loops(monkeypatch)
        rows_old = list(crystal._sweep(*args))
        assert len(rows) == len(rows_old) > 199
        for row, old in zip(rows, rows_old):
            assert row[0] == old[0]
            for got, want in zip(row[1:4], old[1:4]):  # freqs, b, positions
                assert np.array_equal(got, want)

    def test_first_of_tied_starts_wins(self, ca40):
        # 14 ions, seed 3: starts 0 and 2 reach mirror images whose
        # energies differ in the last bits only
        n, seed = 14, 3
        scaled = crystal._Dimensionless(self.TRAP, None, ca40)
        starts = []
        for attempt in range(crystal._RESTARTS):
            (u, energy, _, ok), = crystal._solve_from(
                scaled, _cold_start(n, seed, attempt)[None])
            assert ok
            starts.append((energy, u))
        lowest = min(e for e, _ in starts)
        tied = [u for e, u in starts if e - lowest <= 1e-12 * lowest]
        assert len(tied) >= 2
        assert np.max(np.abs(tied[0] - tied[1])) > 1e-3  # not one structure
        state = equilibrium(n, self.TRAP, species=ca40, seed=seed)
        np.testing.assert_array_equal(state.positions, tied[0] * scaled.ell)

    def test_stall_reports_the_best_start(self, ca40):
        # 3 ions at 214.770/226.198 kHz, asymmetry 0.1, seed 3 (a
        # near-isotropic stall, ROADMAP item 6): the four starts stall at
        # gradient max-norms 1.070e-10, 3.256e-10, 3.478e-09 and 1.160e-09,
        # and the error reports start 0, the best, not the last
        n, seed = 3, 3
        trap = TrapConfig.from_frequencies(214.770e3, 226.198e3,
                                           asymmetry=0.1)
        with pytest.raises(EquilibriumError,
                           match="equilibrium search stalled") as info:
            equilibrium(n, trap, species=ca40, seed=seed)
        scaled = crystal._Dimensionless(trap, None, ca40)
        (u, _, gnorm, ok), = crystal._solve_from(scaled,
                                                 _cold_start(n, seed)[None])
        assert not ok
        assert info.value.gradient_norm == gnorm
        assert gnorm == pytest.approx(1.070e-10, rel=1e-3)
        np.testing.assert_array_equal(info.value.last_positions,
                                      u * scaled.ell)


def _lane_potential(ca40, lattice):
    # 85/300 kHz, with no lattice or a 0.3 MHz blue or red one
    latt = None
    if lattice != "none":
        sign = 1.0 if lattice == "blue" else -1.0
        k = ca40.lattice_wavevector
        latt = LatticeConfig(
            depth_U0=sign * ca40.mass * (2 * math.pi * 0.3e6) ** 2
            / (2.0 * k * k),
            wavevector_k=k, detuning=sign * 2 * math.pi * 0.76e12)
    return crystal._Dimensionless(TrapConfig.from_frequencies(85e3, 300e3),
                                  latt, ca40)


class _MarkedPotential(crystal._Dimensionless):
    # raises ValueError("mark m") for a configuration whose first ion sits
    # at x = 1000 + m, lane by lane as the library's own errors do
    def energy_and_gradient(self, u):
        marks = u[..., 0, 0] - 1000.0
        if np.any(marks >= 0.0):
            raise ValueError(f"mark {int(np.min(marks[marks >= 0.0]))}")
        return super().energy_and_gradient(u)


@st.composite
def _lane_cases(draw):
    # (n ions, lattice, starts (L, n, 3), the lane whose ions 0 and 1
    # coincide or None)
    n = draw(st.integers(1, 31))
    lanes = draw(st.integers(1, 6))
    lattice = draw(st.sampled_from(["none", "blue", "red"]))
    seed = draw(st.integers(0, 2 ** 16))
    merged = draw(st.none() | st.integers(0, lanes - 1)) if n >= 2 else None
    rng = np.random.default_rng(seed)
    starts = np.stack([crystal._string_guess(n, rng, 0.02 * (lane + 1))
                       for lane in range(lanes)])
    if merged is not None:
        starts[merged, 1] = starts[merged, 0]
    return n, lattice, starts, merged


class TestLanes:
    """Below the gate the starts of a descent are lanes of one BFGS: each
    must get the bits, the iteration count and the exception it gets
    alone."""

    @settings(max_examples=25, deadline=None)
    @given(case=_lane_cases())
    def test_each_lane_as_alone(self, ca40, case):
        n, lattice, starts, merged = case
        scaled = _lane_potential(ca40, lattice)
        kept = [u for lane, u in enumerate(starts) if lane != merged]
        if kept:
            energy, grad = scaled.energy_and_gradient(np.stack(kept))
            for lane, u in enumerate(kept):
                e_one, g_one = scaled.energy_and_gradient(u)
                assert energy[lane] == e_one
                assert np.array_equal(grad[lane], g_one)

        def lanes_fun(v):
            # a stack of points, or one point once one lane is left
            e, g = scaled.energy_and_gradient(v.reshape(*v.shape[:-1], n, 3))
            return e, g.reshape(v.shape)

        def one_fun(v):
            e, g = scaled.energy_and_gradient(v.reshape(n, 3))
            return e, g.reshape(-1)

        res = _optim.minimize(lanes_fun, starts.reshape(len(starts), -1),
                              gtol=1e-8, maxiter=4000)
        assert res.nit == sum(res.nits)
        for lane, u0 in enumerate(starts):
            if lane == merged:
                assert isinstance(res.errors[lane], SingularConfigurationError)
                alone = _optim.minimize(one_fun, u0.reshape(1, -1), gtol=1e-8,
                                        maxiter=4000)
                assert isinstance(alone.errors[0], SingularConfigurationError)
                continue
            alone = _optim.minimize(one_fun, u0.reshape(1, -1), gtol=1e-8,
                                    maxiter=4000)
            assert res.errors[lane] is None
            assert np.array_equal(res.x[lane], alone.x[0])
            assert res.nits[lane] == alone.nit

    def test_lone_lane_runs_at_its_own_point(self, ca40, monkeypatch):
        # string8's cold solve: the four starts share (4, N, 3) passes
        # until lanes finish, no pass is a (1, N, 3) stack, and the last
        # lane's rounds are (N, 3) points
        shapes = []
        kernel = crystal._Dimensionless.energy_and_gradient
        polish = crystal._newton_polish

        def spied(scaled, u):
            shapes.append(u.shape)
            return kernel(scaled, u)

        def marked(scaled, u):
            shapes.append("polish")
            return polish(scaled, u)

        monkeypatch.setattr(crystal._Dimensionless, "energy_and_gradient",
                            spied)
        monkeypatch.setattr(crystal, "_newton_polish", marked)
        trap = TrapConfig.from_frequencies(70e3, 350e3)
        equilibrium(8, trap, species=ca40, seed=3)
        rounds = shapes[:shapes.index("polish")]  # the BFGS's calls
        assert rounds[0] == (crystal._RESTARTS, 8, 3)
        assert (1, 8, 3) not in shapes
        lone = rounds.index((8, 3))
        assert lone > 0 and set(rounds[lone:]) == {(8, 3)}
        assert len(rounds) - lone > 1

    @pytest.mark.parametrize("n", [4, 12, 64])
    def test_one_row_stack_equals_scalar_loop(self, ca40, n):
        scaled = _lane_potential(ca40, "none")

        def energy_and_gradient(v):
            e, g = scaled.energy_and_gradient(v.reshape(n, 3))
            return e, g.reshape(-1)

        u0 = _cold_start(n, 7).reshape(1, -1)
        res = _optim.minimize(energy_and_gradient, u0, gtol=1e-8,
                              maxiter=4000)
        assert res.x.shape == u0.shape and res.errors == (None,)
        want = _numpy_scalar_minimize(energy_and_gradient, u0[0], gtol=1e-8,
                                      maxiter=4000)
        assert np.array_equal(res.x[0], want)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 12),
           marks=st.lists(st.none() | st.integers(0, 9), min_size=1,
                          max_size=6))
    def test_descend_raises_as_the_loop(self, ca40, n, marks):
        # lanes whose first ion sits at 1000 + m raise "mark m" at their
        # first point; the loop over the starts raises the first such
        # lane's, whatever the marks' order, and so must the lanes
        scaled = _MarkedPotential(TrapConfig.from_frequencies(85e3, 300e3),
                                  None, ca40)
        starts = np.stack([_cold_start(n, 7, lane)
                           for lane in range(len(marks))])
        for u, mark in zip(starts, marks):
            if mark is not None:
                u[0, 0] = 1000.0 + mark
        assert len(starts[0]) < crystal._PARALLEL_MIN_IONS  # lanes
        raised = [m for m in marks if m is not None]
        if not raised:
            found = crystal._descend(scaled, starts, "scripted")
            loop = [run for u in starts
                    for run in crystal._solve_from(scaled, u[None])]
            loop = [run for run in loop if run[3]]
            assert len(found) == len(loop)
            for (u, energy, _), run in zip(found, loop):
                assert np.array_equal(u, run[0]) and energy == run[1]
            return
        with pytest.raises(ValueError, match=f"^mark {raised[0]}$"):
            crystal._descend(scaled, starts, "scripted")
        with pytest.raises(ValueError, match=f"^mark {raised[0]}$"):
            for u in starts:
                crystal._solve_from(scaled, u[None])


class TestNewtonPolish:
    """Branches of ``_newton_polish`` that a well-posed polish never takes,
    scripted; each still reaches the minimum of the unscripted polish."""

    @pytest.fixture
    def polish(self, ca40, trap_zigzag4, zigzag4):
        # a scaled potential, a start near the zigzag and the unscripted
        # polish from it
        scaled = crystal._Dimensionless(trap_zigzag4, None, ca40)
        start = zigzag4.positions / scaled.ell + 1e-3 * \
            np.random.default_rng(5).normal(size=(4, 3))
        want = crystal._newton_polish(scaled, start)
        assert want[3]
        return scaled, start, want

    @staticmethod
    def _assert_same_minimum(got, want):
        assert got[3]
        np.testing.assert_allclose(got[0], want[0], rtol=0.0, atol=1e-9)
        assert got[1] == pytest.approx(want[1], rel=1e-14)

    def test_singular_system_takes_least_squares_step(self, monkeypatch,
                                                      polish):
        scaled, start, want = polish
        solve, lstsq, calls = np.linalg.solve, np.linalg.lstsq, []

        def singular_first(a, b):
            calls.append("solve")
            if calls == ["solve"]:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        def spied_lstsq(*args, **kwargs):
            calls.append("lstsq")
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", singular_first)
        monkeypatch.setattr(np.linalg, "lstsq", spied_lstsq)
        got = crystal._newton_polish(scaled, start)
        monkeypatch.undo()
        assert calls[:2] == ["solve", "lstsq"]
        assert calls.count("lstsq") == 1
        self._assert_same_minimum(got, want)

    def test_step_that_merges_ions_is_damped(self, monkeypatch, polish):
        scaled, start, want = polish
        energy_and_gradient, calls = scaled.energy_and_gradient, []

        def first_trial_merges(u):
            calls.append(u)
            if len(calls) == 2:  # the start, then the first trial step
                raise SingularConfigurationError("two ions coincide")
            return energy_and_gradient(u)

        monkeypatch.setattr(scaled, "energy_and_gradient",
                            first_trial_merges)
        got = crystal._newton_polish(scaled, start)
        # the damped retry starts from the same point
        assert np.array_equal(calls[0], start)
        assert len(calls) > 3
        self._assert_same_minimum(got, want)


# the benchmark's crystal64 run config (bench/workloads.py), without the
# lattice that the cold solve does not read
CRYSTAL64_JSON = json.dumps({
    "schema_version": 1,
    "trap": {"f_z_kHz": 85.0, "f_radial_kHz": 300.0},
    "crystal": {"n_ions": 64, "seed": 7},
})


# the same with the benchmark's lattice, for the sweep
CRYSTAL64_MODES_JSON = json.dumps({
    **json.loads(CRYSTAL64_JSON),
    "lattice": {"detuning_THz": 0.76, "depth_max_mK": 25.0},
})


class TestHostRule:
    """``_fork.cpus()`` is the one host test of both the forked cold
    starts and the overlapped sweep."""

    def test_no_openblas_setter_runs_everything_in_process(self, ca40,
                                                           monkeypatch):
        # numpy on another BLAS: no setter, so neither fans out
        monkeypatch.setattr(_fork, "openblas_threads", lambda: ())
        widths = _fork_widths(monkeypatch)
        assert _fork.cpus() == 0
        assert _fork.width(4) == 0
        assert crystal._overlaps(64) is False
        equilibrium(crystal._PARALLEL_MIN_IONS,
                    TrapConfig.from_frequencies(85e3, 300e3), species=ca40,
                    seed=7)
        assert widths == []

    def test_size_gates(self, ca40, monkeypatch):
        # both speed-ups start at the one gate, where the host rule allows
        gate = crystal._PARALLEL_MIN_IONS
        assert crystal._overlaps(gate - 1) is False
        assert crystal._overlaps(gate) is (_fork.cpus() >= 2)
        widths = _fork_widths(monkeypatch)
        trap = TrapConfig.from_frequencies(85e3, 300e3)
        equilibrium(gate - 1, trap, species=ca40, seed=7)
        assert widths == []
        equilibrium(gate, trap, species=ca40, seed=7)
        width = _fork.width(crystal._RESTARTS)
        assert widths == ([width] if width >= 2 else [])

    def test_no_affinity_counts_every_cpu(self, monkeypatch):
        # one OpenBLAS with a thread setter and getter
        monkeypatch.setattr(_fork, "openblas_threads",
                            lambda: ((lambda n: None, lambda: 1),))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _fork.cpus() == (os.cpu_count() or 1)


class _TwoArgumentError(Exception):
    # pickles as _TwoArgumentError(message), which its __init__ refuses
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def _run_in_process(monkeypatch):
    # no crystal reaches the gate: nothing forks, and no sweep overlaps
    monkeypatch.setattr(crystal, "_PARALLEL_MIN_IONS", math.inf)


@pytest.mark.skipif(_fork.width(crystal._RESTARTS) < 2,
                    reason="cold starts do not fan out on this host")
class TestForkedStarts:
    TRAP = TrapConfig.from_frequencies(85e3, 300e3)
    N = crystal._PARALLEL_MIN_IONS

    @pytest.fixture
    def fanned_out(self, monkeypatch):
        # the widths of the fork_map calls the next solves make
        return _fork_widths(monkeypatch)

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

    def test_sweeps_fork_only_cold_starts(self, ca40, monkeypatch,
                                          planar32_sweep, fanned_out):
        # 24 ions on the default grid, below the gate: one tracked state
        # turns into a saddle, and neither its kicks nor row 0's cold
        # starts fork
        descents = _calls(monkeypatch, crystal, "_descend_from_saddle")
        rows = list(crystal._sweep(24, self.TRAP, _blue_lattice(ca40), 200,
                                   ca40, 7, None))
        assert len(rows) == 201 and descents
        assert fanned_out == []
        # planar32, at the gate: row 0's cold starts fork, and its kicks
        # run in process, as the sweep's spectrum thread is alive by then
        _, widths, n_descents = planar32_sweep
        assert n_descents and widths == [_fork.width(crystal._RESTARTS)]

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
            # one one-start stack per call: forked, or in the loop of a
            # host that cannot fork
            if os.getpid() == parent:
                ran_here.append(u0)
            return solve(scaled, u0)

        monkeypatch.setattr(crystal, "_string_guess", merged_start_2)
        monkeypatch.setattr(crystal, "_solve_from", spied)
        with pytest.raises(SingularConfigurationError) as forked:
            equilibrium(self.N, self.TRAP, species=ca40, seed=7)
        assert fanned_out and not ran_here  # raised in a worker
        monkeypatch.setattr(_fork, "width", lambda n_items: 0)
        with pytest.raises(SingularConfigurationError) as local:
            equilibrium(self.N, self.TRAP, species=ca40, seed=7)
        assert len(ran_here) == 3  # starts 0 and 1 ran, 2 raised
        assert type(forked.value) is type(local.value)
        assert str(forked.value) == str(local.value)

    def test_unloadable_worker_exception_runs_in_process(
            self, ca40, monkeypatch, fanned_out):
        # start 2 raises an exception that pickles but does not load, so
        # the parent cannot rebuild it and runs that worker's starts
        # itself, in order, up to start 2
        n, seed = self.N, 7
        start_2 = _cold_start(n, seed, 2)
        parent, ran_here = os.getpid(), []
        solve = crystal._solve_from

        def raises_on_start_2(scaled, starts):
            # a one-start stack per forked call, all four as lanes in
            # process
            if os.getpid() == parent:
                ran_here.extend(starts)
            if any(np.array_equal(u0, start_2) for u0 in starts):
                raise _TwoArgumentError("scripted", "start 2")
            return solve(scaled, starts)

        monkeypatch.setattr(crystal, "_solve_from", raises_on_start_2)
        with pytest.raises(_TwoArgumentError) as forked:
            equilibrium(n, self.TRAP, species=ca40, seed=seed)
        width, = fanned_out
        expected = [_cold_start(n, seed, a)
                    for a in range(2 % width, 3, width)]
        assert len(ran_here) == len(expected)
        assert all(map(np.array_equal, ran_here, expected))
        _run_in_process(monkeypatch)
        with pytest.raises(_TwoArgumentError) as local:
            equilibrium(n, self.TRAP, species=ca40, seed=seed)
        assert type(forked.value) is type(local.value)
        assert str(forked.value) == str(local.value)

    def test_dead_worker_starts_run_in_process(self, ca40, monkeypatch,
                                               fanned_out):
        n, seed = self.N, 7
        start_1 = _cold_start(n, seed, 1)
        parent, ran_here = os.getpid(), []
        solve = crystal._solve_from

        def dies_on_start_1(scaled, u0):
            if os.getpid() != parent and np.array_equal(u0, start_1[None]):
                os._exit(1)
            if os.getpid() == parent:
                ran_here.append(u0[0])
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
        getters = [get for _, get in _fork.openblas_threads()]
        assert getters
        before = [get() for get in getters]
        equilibrium(self.N, self.TRAP, species=ca40, seed=7)
        assert fanned_out
        assert [get() for get in getters] == before
