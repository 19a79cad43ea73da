"""Beam-weighted per-ion depths and crystal scattering statistics."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import binom

from ionlattice import (
    AdiabaticityWarning,
    BeamProfile,
    DomainError,
    LatticeConfig,
    RampProfile,
    ScatteringScenario,
    bunching,
    delocalized_scattering_probability,
    mean_scattering_probability_per_ion,
    per_ion_depths,
    scan_depth,
    scatter_count_pmf,
    scattering_probability,
    subsequent_fraction,
)
from ionlattice import constants as cn
from ionlattice import pendulum

U0 = cn.KB * 25e-3


def _blue(ca40, depth=U0):
    return LatticeConfig(depth_U0=depth,
                         wavevector_k=ca40.lattice_wavevector,
                         detuning=2 * math.pi * 0.76e12)


def _red(ca40, depth=U0):
    return LatticeConfig(depth_U0=-depth,
                         wavevector_k=ca40.lattice_wavevector,
                         detuning=-2 * math.pi * 0.76e12)


RAMP = RampProfile(u0_max=U0, ramp_duration=2e-6, hold_duration=1e-6)


@pytest.fixture(scope="module")
def scen8(string8, ca40):
    return ScatteringScenario(crystal=string8, species=ca40,
                              lattice=_blue(ca40), ramp=RAMP, T0=3.6e-3)


BEAM = BeamProfile(waist_radius=37e-6)


class TestBeam:
    def test_on_axis_full_depth(self, string8, scen8):
        # a string sits on the beam axis: every ion sees the full depth
        f = BEAM.depth_factor(string8.positions)
        np.testing.assert_array_equal(f, np.ones(8))
        np.testing.assert_array_equal(
            per_ion_depths(string8, scen8.lattice, BEAM), np.full(8, U0))

    def test_radial_offsets_reduce_depth(self, zigzag4, ca40):
        f = BEAM.depth_factor(zigzag4.positions)
        w = BEAM.waist_radius
        expect = [math.exp(-2.0 * (x * x + y * y) / (w * w))
                  for x, y, _ in zigzag4.positions]
        np.testing.assert_allclose(f, expect, rtol=1e-12)
        assert np.all(f < 1.0) and np.all(f > 0.9)  # offsets well inside waist

    def test_waist_validation(self):
        with pytest.raises(DomainError):
            BeamProfile(waist_radius=0.0)


class TestCountDistribution:
    def test_pmf_normalized_and_matches_binom(self):
        # from N = 1030 on, C(N, k) as a float overflows
        for n, p in [(1, 0.3), (8, 0.0434), (8, 0.5), (20, 0.9),
                     (1030, 0.3), (10_000, 0.3)]:
            pmf = scatter_count_pmf(n, p)
            assert len(pmf) == n + 1
            assert sum(pmf) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(pmf, binom.pmf(np.arange(n + 1), n, p),
                                       rtol=0, atol=1e-12)

    def test_pmf_against_monte_carlo(self, rng):
        # criterion-level check: 1e-3 absolute per bin at 1e7 draws
        n, p = 8, 0.3
        draws = rng.binomial(n, p, size=10_000_000)
        mc = np.bincount(draws, minlength=n + 1) / draws.size
        np.testing.assert_allclose(scatter_count_pmf(n, p), mc,
                                   rtol=0, atol=1e-3)

    def test_edge_probabilities(self):
        assert scatter_count_pmf(5, 0.0).tolist() == [1.0] + [0.0] * 5
        assert scatter_count_pmf(5, 1.0).tolist() == [0.0] * 5 + [1.0]
        with pytest.raises(TypeError):
            scatter_count_pmf(5.5, 0.3)


class TestSubsequentFraction:
    def test_boundaries(self):
        assert subsequent_fraction(8, 0.0) == 0.0
        assert subsequent_fraction(1, 0.7) == 0.0
        assert subsequent_fraction(8, 1.0) == pytest.approx(1.0 - 1.0 / 8.0,
                                                            rel=1e-12)

    def test_known_value(self):
        assert subsequent_fraction(8, 0.3) == pytest.approx(0.60735334,
                                                            abs=1e-8)

    def test_fractional_ion_count_refused(self):
        # the ion-count rule of scatter_count_pmf: an integer, not a float
        # that happens to be whole
        for n in (3.5, 2.0):
            with pytest.raises(TypeError):
                subsequent_fraction(n, 0.3)

    def test_small_p_stability(self):
        # naive (1-(1-p)^N)/(N p) loses digits as p -> 0; here it must
        # approach (N-1) p / 2 smoothly
        for p in (1e-8, 1e-12, 1e-15):
            f = subsequent_fraction(8, p)
            assert f == pytest.approx(3.5 * p, rel=1e-4)

    def test_against_monte_carlo(self, rng):
        n, p = 8, 0.25
        k = rng.binomial(n, p, size=2_000_000)
        mc = np.sum(np.maximum(k - 1, 0)) / np.sum(k)
        assert subsequent_fraction(n, p) == pytest.approx(mc, abs=1e-3)

    def test_matches_pmf_identity(self):
        # f = E[(k-1) 1(k>=1)] / E[k] from the count distribution itself
        for n, p in [(3, 0.1), (8, 0.0434), (12, 0.6)]:
            pmf = scatter_count_pmf(n, p)
            k = np.arange(n + 1)
            ref = float(np.sum(np.maximum(k - 1, 0) * pmf)) / (n * p)
            assert subsequent_fraction(n, p) == pytest.approx(ref, rel=1e-12)


class TestMeanProbability:
    def test_string_equals_single_ion(self, scen8, ca40):
        # all depth factors are exactly 1, so the crystal mean reduces to
        # the single-ion value
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            p_mean = mean_scattering_probability_per_ion(scen8, BEAM)
            p_one = scattering_probability(RAMP.t_end, 3.6e-3, RAMP,
                                           _blue(ca40), ca40)
        assert p_mean == pytest.approx(p_one, rel=1e-12)

    def test_zigzag_equals_mean_of_single_ions(self, zigzag4, ca40):
        # two mirror pairs of depth factors over 4 ions: the shared
        # evaluation must weight each group by its count and match the
        # ion-by-ion scalar route
        factors = BEAM.depth_factor(zigzag4.positions)
        f = np.sort(factors)
        assert f[1] - f[0] <= 1e-12 * f[1] and f[3] - f[2] <= 1e-12 * f[3]
        assert f[2] - f[1] > 1e-6 * f[2]
        scen = ScatteringScenario(crystal=zigzag4, species=ca40,
                                  lattice=_blue(ca40), ramp=RAMP, T0=3.6e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            p_mean = mean_scattering_probability_per_ion(scen, BEAM)
            p_ions = [scattering_probability(
                RAMP.t_end, 3.6e-3,
                RampProfile(U0 * f, RAMP.ramp_duration, RAMP.hold_duration,
                            RAMP.shape),
                _blue(ca40, U0 * f), ca40) for f in factors]
        assert p_mean == pytest.approx(np.mean(p_ions), rel=0, abs=1e-9)

    def test_one_adiabaticity_warning_per_call(self, scen8):
        with pytest.warns(AdiabaticityWarning) as rec:
            scan_depth(scen8, BEAM, np.linspace(0.0, U0, 6))
        assert len([w for w in rec
                    if w.category is AdiabaticityWarning]) == 1

    def test_pumping_efficiency_scales(self, string8, ca40):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            full = mean_scattering_probability_per_ion(
                ScatteringScenario(crystal=string8, species=ca40,
                                   lattice=_blue(ca40), ramp=RAMP,
                                   T0=3.6e-3), BEAM)
            half = mean_scattering_probability_per_ion(
                ScatteringScenario(crystal=string8, species=ca40,
                                   lattice=_blue(ca40), ramp=RAMP,
                                   T0=3.6e-3,
                                   pumping_efficiency_per_ion=0.5), BEAM)
        assert half == pytest.approx(0.5 * full, rel=1e-12)

    def test_delocalized_color_blind(self, string8, ca40):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            pb = mean_scattering_probability_per_ion(
                ScatteringScenario(crystal=string8, species=ca40,
                                   lattice=_blue(ca40), ramp=RAMP,
                                   T0=3.6e-3), BEAM, delocalized=True)
            pr = mean_scattering_probability_per_ion(
                ScatteringScenario(crystal=string8, species=ca40,
                                   lattice=_red(ca40), ramp=RAMP,
                                   T0=3.6e-3), BEAM, delocalized=True)
        assert pr == pytest.approx(pb, rel=1e-12)

    def test_delocalized_on_axis_ions_give_the_single_ion_baseline(
            self, string8, ca40):
        # every ion of the string sits on the beam axis, and T0=None is
        # the one delocalized switch of both paths
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            crystal_p = mean_scattering_probability_per_ion(
                ScatteringScenario(crystal=string8, species=ca40,
                                   lattice=_blue(ca40), ramp=RAMP,
                                   T0=3.6e-3), BEAM, delocalized=True)
        assert crystal_p == delocalized_scattering_probability(
            RAMP.t_end, RAMP, _blue(ca40), ca40)

    def test_scenario_validation(self, string8, ca40):
        for T0 in (0.0, math.nan):
            with pytest.raises(DomainError):
                ScatteringScenario(crystal=string8, species=ca40,
                                   lattice=_blue(ca40), ramp=RAMP, T0=T0)
        with pytest.raises(DomainError):
            ScatteringScenario(crystal=string8, species=ca40,
                               lattice=_blue(ca40), ramp=RAMP, T0=3.6e-3,
                               pumping_efficiency_per_ion=1.5)


@pytest.fixture(scope="module")
def scanned(scen8):
    grid = np.linspace(0.0, U0, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        return scan_depth(scen8, BEAM, grid)


class TestScanDepth:
    def test_zero_depth_row(self, scanned):
        row = scanned[0]
        assert row["depth"] == 0.0
        assert row["nu_latt"] == 0.0
        assert row["p_per_ion"] == 0.0
        assert row["subsequent_fraction"] == 0.0
        assert row["bunching"] == 0.5

    def test_probability_monotone_in_depth(self, scanned):
        p = [row["p_per_ion"] for row in scanned]
        assert np.all(np.diff(p) > 0)

    def test_bunching_column_is_exact(self, scanned, scen8):
        for row in scanned[1:]:
            assert row["bunching"] == pytest.approx(
                bunching(scen8.T0, row["depth"]), rel=1e-12)

    def test_fraction_consistent_with_p(self, scanned):
        for row in scanned[1:]:
            assert row["subsequent_fraction"] == pytest.approx(
                subsequent_fraction(8, row["p_per_ion"]), rel=1e-12)

    def test_negative_depth_rejected(self, scen8):
        with pytest.raises(DomainError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AdiabaticityWarning)
                scan_depth(scen8, BEAM, [-1e-25])
        with pytest.raises(DomainError):
            scan_depth(scen8, BEAM, [math.nan])


# the three public routes to the ramp integral, each on the paper's 2 us
# ramp, which is shorter than ten lattice periods at 25 mK
WARNING_CALLS = {
    "scattering_probability": lambda scen: scattering_probability(
        RAMP.t_end, scen.T0, RAMP, scen.lattice, scen.species),
    "mean_scattering_probability_per_ion":
        lambda scen: mean_scattering_probability_per_ion(scen, BEAM),
    "scan_depth": lambda scen: scan_depth(scen, BEAM, [0.5 * U0, U0]),
}


@pytest.mark.parametrize("name", sorted(WARNING_CALLS))
def test_warnings_name_the_callers_line(scen8, monkeypatch, name):
    # a nested rule far from the main one makes the dose's error bound
    # large, so both warnings are raised; each names this file, not a
    # line of the library
    monkeypatch.setattr(pendulum, "_TS_W2", 0.5 * pendulum._TS_W2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        WARNING_CALLS[name](scen8)
    assert sorted(w.category.__name__ for w in caught) == [
        "AdiabaticityWarning", "RuntimeWarning"]
    assert [w.filename for w in caught] == [__file__] * 2
