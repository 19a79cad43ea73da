"""Pseudo-potential micromotion amplitudes, energies, q parameters."""

import math

import numpy as np
import pytest

from ionlattice import (
    CrystalState,
    DomainError,
    TrapConfig,
    effective_axial_q,
    excess_micromotion,
    q_from_secular_frequency,
    variance_broadening,
)
from ionlattice import constants as cn

OMEGA_RF = 2.0 * math.pi * 3.98e6


class TestQParameter:
    def test_anchor_values(self):
        q170 = q_from_secular_frequency(2 * math.pi * 170e3, OMEGA_RF)
        q190 = q_from_secular_frequency(2 * math.pi * 190e3, OMEGA_RF)
        assert q170 == pytest.approx(0.1208, rel=1e-3)
        assert q190 == pytest.approx(0.1350, rel=1e-3)

    def test_zero_frequency(self):
        assert q_from_secular_frequency(0.0, OMEGA_RF) == 0.0

    def test_stability_bound(self):
        with pytest.raises(DomainError):
            q_from_secular_frequency(OMEGA_RF / 2.0, OMEGA_RF)
        with pytest.raises(DomainError):
            q_from_secular_frequency(1e5, 0.0)
        with pytest.raises(DomainError):
            q_from_secular_frequency(-1.0, OMEGA_RF)

    def test_derived_q_radial_range_checked(self):
        # 2.5 MHz radial at the 3.98 MHz drive derives q_radial = 1.78
        with pytest.raises(DomainError, match="derived q_radial"):
            TrapConfig.from_frequencies(85e3, 2.5e6)
        with pytest.raises(DomainError, match="q_radial"):
            TrapConfig.from_frequencies(85e3, 170e3, q_radial=1.0)

    def test_axial_second_order(self):
        assert effective_axial_q(0.12) == pytest.approx(9e-4, rel=1e-12)
        assert effective_axial_q(0.0) == 0.0
        with pytest.raises(DomainError):
            effective_axial_q(-0.1)

    def test_variance_broadening_values(self):
        assert variance_broadening(5e-4) == pytest.approx(1.0 + 3.125e-8,
                                                          rel=1e-12)
        assert variance_broadening(0.14) == pytest.approx(1.00245,
                                                          rel=1e-5)
        with pytest.raises(DomainError):
            variance_broadening(-0.1)


class TestReport:
    def test_energy_temperature_identity(self, zigzag4, trap_zigzag4, ca40):
        rep = excess_micromotion(zigzag4, trap_zigzag4, species=ca40)
        np.testing.assert_allclose(
            rep.kinetic_energy,
            0.25 * ca40.mass * trap_zigzag4.omega_rf ** 2
            * rep.amplitude ** 2, rtol=1e-12)
        np.testing.assert_allclose(
            rep.equivalent_temperature,
            2.0 * rep.kinetic_energy / cn.KB, rtol=1e-12)

    def test_amplitude_scales_with_position(self, zigzag4, trap_zigzag4,
                                            ca40):
        rep1 = excess_micromotion(zigzag4, trap_zigzag4, species=ca40)
        doubled = CrystalState(2.0 * zigzag4.positions,
                               zigzag4.potential_value, zigzag4.lattice_depth,
                               zigzag4.gradient_norm, zigzag4.is_saddle)
        rep2 = excess_micromotion(doubled, trap_zigzag4, species=ca40)
        np.testing.assert_allclose(rep2.amplitude, 2.0 * rep1.amplitude,
                                   rtol=1e-12)
        np.testing.assert_allclose(rep2.kinetic_energy,
                                   4.0 * rep1.kinetic_energy, rtol=1e-12)

    def test_string_has_no_radial_micromotion(self, string8, trap_string8,
                                              ca40):
        rep = excess_micromotion(string8, trap_string8, species=ca40)
        assert np.abs(rep.amplitude[:, :2]).max() < 1e-15

    def test_zigzag_inner_ion_temperature(self, zigzag4, trap_zigzag4,
                                          ca40):
        # radial offsets of the inner pair put their coherent motion near
        # 160 mK, far above the few-mK secular temperatures
        rep = excess_micromotion(zigzag4, trap_zigzag4, species=ca40)
        t_rad = rep.equivalent_temperature[:, :2].sum(axis=1)
        assert 0.08 < t_rad.max() < 0.24
        assert t_rad.max() == pytest.approx(0.156, rel=0.05)

    def test_octahedron_hotter(self, octa6, trap_octa6, ca40):
        rep = excess_micromotion(octa6, trap_octa6, species=ca40)
        t_rad = rep.equivalent_temperature[:, :2].sum(axis=1)
        assert 0.4 < t_rad.max() < 1.2

    def test_axial_channel_negligible(self, zigzag4, trap_zigzag4, ca40):
        # configured q_axial = 5e-4: axial amplitudes and energies must be
        # orders below the radial ones
        rep = excess_micromotion(zigzag4, trap_zigzag4, species=ca40)
        amp_ax = np.abs(rep.amplitude[:, 2]).max()
        amp_rad = np.abs(rep.amplitude[:, :2]).max()
        assert amp_ax / amp_rad < 3e-2
        e_ax = rep.kinetic_energy[:, 2].max()
        e_rad = rep.kinetic_energy[:, :2].max()
        assert e_ax / e_rad < 1e-3

    def test_configured_axial_q_wins(self, zigzag4, ca40):
        # with q_axial unset the second-order value applies instead
        trap = TrapConfig.from_frequencies(85e3, 170e3)
        rep = excess_micromotion(zigzag4, trap, species=ca40)
        assert rep.effective_q_axial == pytest.approx(
            effective_axial_q(rep.q_radial), rel=1e-12)
        trap_q = TrapConfig.from_frequencies(85e3, 170e3, q_axial=5e-4)
        rep_q = excess_micromotion(zigzag4, trap_q, species=ca40)
        assert rep_q.effective_q_axial == 5e-4

    def test_report_q_matches_trap(self, zigzag4, trap_zigzag4, ca40):
        rep = excess_micromotion(zigzag4, trap_zigzag4, species=ca40)
        assert rep.q_radial == pytest.approx(
            trap_zigzag4.q_radial_effective, rel=1e-12)
        assert rep.variance_broadening_factor == pytest.approx(
            variance_broadening(rep.q_radial), rel=1e-12)
