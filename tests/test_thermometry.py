"""Spot synthesis, Gaussian fitting, and temperature recovery."""

import math

import numpy as np
import pytest

from ionlattice import (
    DegenerateFitError,
    DomainError,
    ImagingConfig,
    NegativeThermalVarianceError,
    SpotParseError,
    estimate_temperature,
    fit_gaussian_profile,
    fit_spot_profiles,
    ion_temperature_from_mode_temperatures,
    read_spot_profiles,
    synthesize_spots,
    write_spot_profiles,
)
from ionlattice import constants as cn


def _gauss_profile(amplitude, center, sigma, offset, half_width=20):
    px = np.arange(-half_width, half_width + 1, dtype=float)
    y = amplitude * np.exp(-0.5 * ((px - center) / sigma) ** 2) + offset
    return np.column_stack([px, y])


class TestGaussianFit:
    def test_noiseless_exact(self):
        fit = fit_gaussian_profile(_gauss_profile(100.0, 0.3, 3.0, 5.0))
        assert fit.amplitude == pytest.approx(100.0, abs=1e-8)
        assert fit.center == pytest.approx(0.3, abs=1e-8)
        assert fit.sigma == pytest.approx(3.0, abs=1e-8)
        assert fit.offset == pytest.approx(5.0, abs=1e-8)

    def test_pixel_pitch_scales_lengths(self):
        prof = _gauss_profile(80.0, -1.2, 2.4, 3.0)
        a = fit_gaussian_profile(prof)
        b = fit_gaussian_profile(prof, pixel_pitch=0.92e-6)
        assert b.center == pytest.approx(a.center * 0.92e-6, rel=1e-12)
        assert b.sigma == pytest.approx(a.sigma * 0.92e-6, rel=1e-12)
        assert b.amplitude == pytest.approx(a.amplitude, rel=1e-12)
        # ci95 follows the (center, sigma, amplitude, offset) field order
        assert b.ci95[0] == pytest.approx(a.ci95[0] * 0.92e-6, rel=1e-9)
        assert b.ci95[1] == pytest.approx(a.ci95[1] * 0.92e-6, rel=1e-9)

    def test_constant_profile_degenerate(self):
        px = np.arange(30, dtype=float)
        with pytest.raises(DegenerateFitError):
            fit_gaussian_profile(np.column_stack([px, np.full(30, 7.0)]))

    def test_too_few_samples(self):
        prof = _gauss_profile(50.0, 0.0, 2.0, 1.0)[:4]
        with pytest.raises(DegenerateFitError):
            fit_gaussian_profile(prof)

    def test_subpixel_spike_degenerate(self):
        px = np.arange(-10, 11, dtype=float)
        y = np.where(px == 0.0, 1000.0, 1.0)
        with pytest.raises(DegenerateFitError):
            fit_gaussian_profile(np.column_stack([px, y]))

    def test_poisson_ci_coverage(self):
        # the 95% interval on sigma must cover the truth in at least 93%
        # of repeated noisy fits
        rng = np.random.default_rng(42)
        sigma_true = 3.1
        hits = 0
        trials = 500
        for _ in range(trials):
            prof = _gauss_profile(1000.0, 0.0, sigma_true, 10.0)
            noisy = np.column_stack(
                [prof[:, 0], rng.poisson(prof[:, 1]).astype(float)])
            fit = fit_gaussian_profile(noisy)
            if abs(fit.sigma - sigma_true) <= fit.ci95[1]:
                hits += 1
        assert hits / trials >= 0.93

    def test_deterministic(self):
        prof = _gauss_profile(100.0, 0.5, 2.0, 4.0)
        a = fit_gaussian_profile(prof)
        b = fit_gaussian_profile(prof)
        assert a == b


class TestSynthesize:
    def test_deterministic_under_seed(self, string8, string8_gamma,
                                      trap_string8, ca40, imaging):
        kw = dict(photon_budget=2e4, seed=11, trap=trap_string8,
                  species=ca40, axes=("axial",))
        s1 = synthesize_spots(3.5e-3, string8, string8_gamma, imaging, **kw)
        s2 = synthesize_spots(3.5e-3, string8, string8_gamma, imaging, **kw)
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a.profile, b.profile)
            assert a.fitted_sigma == b.fitted_sigma

    def test_zero_temperature_gives_resolution_width(
            self, string8, string8_gamma, trap_string8, ca40, imaging):
        spots = synthesize_spots(0.0, string8, string8_gamma, imaging,
                                 photon_budget=1e4, seed=0,
                                 trap=trap_string8, species=ca40,
                                 noise=False)
        for s in spots:
            assert s.fitted_sigma == pytest.approx(
                imaging.sigma_res(s.axis), rel=1e-7)

    def test_background_recovered(self, string8, string8_gamma,
                                  trap_string8, ca40, imaging):
        spots = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                                 photon_budget=1e4, seed=0,
                                 trap=trap_string8, species=ca40,
                                 axes=("axial",), noise=False,
                                 background=12.5)
        prof = spots[0].profile
        fit = fit_gaussian_profile(prof, pixel_pitch=imaging.pixel_pitch)
        assert fit.offset == pytest.approx(12.5, rel=1e-6)

    def test_string_axial_spots_resolved(self, string8, string8_gamma,
                                         trap_string8, ca40, imaging):
        spots = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                                 photon_budget=1e4, seed=0,
                                 trap=trap_string8, species=ca40,
                                 axes=("axial",), noise=False)
        assert not any(s.overlapping for s in spots)

    def test_stacked_radial_spots_flagged(self, octa6, trap_octa6, ca40,
                                          imaging):
        from ionlattice import gamma_parameters, normal_modes
        g = gamma_parameters(normal_modes(octa6, trap_octa6, species=ca40))
        spots = synthesize_spots(3.5e-3, octa6, g, imaging,
                                 photon_budget=1e4, seed=0, trap=trap_octa6,
                                 species=ca40, axes=("radial",), noise=False)
        assert any(s.overlapping for s in spots)

    def test_validation(self, string8, string8_gamma, trap_string8, ca40,
                        imaging):
        with pytest.raises(DomainError):
            synthesize_spots(-1e-3, string8, string8_gamma, imaging,
                             photon_budget=1e4, seed=0, trap=trap_string8)
        with pytest.raises(TypeError):
            synthesize_spots(1e-3, string8, string8_gamma, imaging,
                             photon_budget=1e4, seed=0)  # no trap
        with pytest.raises(DomainError):
            synthesize_spots(1e-3, string8, string8_gamma, imaging,
                             photon_budget=1e4, seed=0, trap=trap_string8,
                             axes=("diagonal",))


class TestEstimateTemperature:
    def test_noiseless_round_trip(self, string8, string8_gamma,
                                  trap_string8, ca40, imaging):
        spots = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                                 photon_budget=1e4, seed=0,
                                 trap=trap_string8, species=ca40,
                                 noise=False)
        est = estimate_temperature(spots, string8_gamma, trap_string8,
                                   ca40, imaging)
        assert est.T == pytest.approx(3.5e-3, rel=1e-6)

    def test_zero_temperature(self, string8, string8_gamma, trap_string8,
                              ca40, imaging):
        spots = synthesize_spots(0.0, string8, string8_gamma, imaging,
                                 photon_budget=1e4, seed=0,
                                 trap=trap_string8, species=ca40,
                                 axes=("axial",), noise=False)
        est = estimate_temperature(spots, string8_gamma, trap_string8,
                                   ca40, imaging)
        assert abs(est.T) < 1e-9

    def test_negative_thermal_variance(self, string8, string8_gamma,
                                       trap_string8, ca40, imaging):
        spots = synthesize_spots(0.0, string8, string8_gamma, imaging,
                                 photon_budget=1e4, seed=0,
                                 trap=trap_string8, species=ca40,
                                 axes=("axial",), noise=False)
        # claim a resolution wider than every fitted spot
        claimed = ImagingConfig(sigma_res_axial=3e-6,
                                sigma_res_radial=3e-6,
                                pixel_pitch=imaging.pixel_pitch)
        with pytest.raises(NegativeThermalVarianceError) as exc:
            estimate_temperature(spots, string8_gamma, trap_string8, ca40,
                                 claimed)
        assert np.all(exc.value.deficits < 0)

    def test_infinite_ci_spot_is_ignored(self, string8, string8_gamma,
                                         trap_string8, ca40, imaging):
        import dataclasses
        spots = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                                 photon_budget=2e4, seed=4,
                                 trap=trap_string8, species=ca40,
                                 axes=("axial",))
        base = estimate_temperature(spots, string8_gamma, trap_string8,
                                    ca40, imaging)
        junk = dataclasses.replace(spots[0], fitted_sigma=50e-6,
                                   sigma_ci95=math.inf)
        padded = estimate_temperature(spots + [junk], string8_gamma,
                                      trap_string8, ca40, imaging)
        assert padded.T == pytest.approx(base.T, rel=1e-12)

    def test_order_invariance(self, string8, string8_gamma, trap_string8,
                              ca40, imaging, rng):
        spots = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                                 photon_budget=2e4, seed=4,
                                 trap=trap_string8, species=ca40,
                                 axes=("axial",))
        a = estimate_temperature(spots, string8_gamma, trap_string8, ca40,
                                 imaging)
        shuffled = [spots[i] for i in rng.permutation(len(spots))]
        b = estimate_temperature(shuffled, string8_gamma, trap_string8,
                                 ca40, imaging)
        assert b.T == pytest.approx(a.T, rel=1e-12)

    def test_radial_spots_excluded_by_default(self, string8, string8_gamma,
                                              trap_string8, ca40, imaging):
        spots = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                                 photon_budget=2e4, seed=4,
                                 trap=trap_string8, species=ca40)
        axial_only = [s for s in spots if s.axis == "axial"]
        a = estimate_temperature(spots, string8_gamma, trap_string8, ca40,
                                 imaging)
        b = estimate_temperature(axial_only, string8_gamma, trap_string8,
                                 ca40, imaging)
        assert a.T == b.T
        c = estimate_temperature(spots, string8_gamma, trap_string8, ca40,
                                 imaging, include_radial=True)
        assert c.T != a.T

    @pytest.mark.parametrize("ion", [-1, 8])
    def test_ion_index_outside_crystal(self, ion, string8, string8_gamma,
                                       trap_string8, ca40, imaging):
        # -1 must not wrap round to the last ion's gamma
        import dataclasses
        spots = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                                 photon_budget=2e4, seed=4,
                                 trap=trap_string8, species=ca40,
                                 axes=("axial",))
        stray = dataclasses.replace(spots[0], ion_index=ion)
        with pytest.raises(DomainError, match=f"ion_index {ion} "):
            estimate_temperature(spots + [stray], string8_gamma,
                                 trap_string8, ca40, imaging)

    def test_no_usable_spots(self, string8, string8_gamma, trap_string8,
                             ca40, imaging):
        spots = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                                 photon_budget=2e4, seed=4,
                                 trap=trap_string8, species=ca40,
                                 axes=("radial",))
        with pytest.raises(DomainError):
            estimate_temperature(spots, string8_gamma, trap_string8, ca40,
                                 imaging)

    @pytest.mark.parametrize("T", [1e-3, 3.5e-3, 10e-3])
    def test_bias_and_coverage(self, T, string8, string8_gamma,
                               trap_string8, ca40, imaging):
        # repeated noisy experiments: the estimator must be unbiased to a
        # few percent and its 95% interval must cover at >= 90%
        n_trials = 60
        estimates, hits = [], 0
        for seed in range(n_trials):
            spots = synthesize_spots(T, string8, string8_gamma, imaging,
                                     photon_budget=2e4, seed=seed,
                                     trap=trap_string8, species=ca40,
                                     axes=("axial",))
            est = estimate_temperature(spots, string8_gamma, trap_string8,
                                       ca40, imaging)
            estimates.append(est.T)
            if abs(est.T - T) <= est.ci95:
                hits += 1
        assert np.mean(estimates) == pytest.approx(T, rel=0.03)
        assert hits / n_trials >= 0.90


class TestModeTemperatures:
    def test_uniform_temperature_is_fixed_point(self, string8_modes):
        tp = np.full(24, 4.2e-3)
        t_ion = ion_temperature_from_mode_temperatures(string8_modes, tp)
        np.testing.assert_allclose(t_ion, 4.2e-3, rtol=1e-12)

    def test_matches_explicit_sum(self, string8_modes, rng):
        tp = rng.uniform(1e-3, 10e-3, 24)
        t_ion = ion_temperature_from_mode_temperatures(string8_modes, tp)
        b = string8_modes.coordinates
        n = string8_modes.n_ions
        for m in range(n):
            for a in range(3):
                ref = sum(b[a * n + m, p] ** 2 * tp[p] for p in range(3 * n))
                assert t_ion[m, a] == pytest.approx(ref, rel=1e-12)

    def test_total_energy_preserved(self, string8_modes, rng):
        tp = rng.uniform(1e-3, 10e-3, 24)
        t_ion = ion_temperature_from_mode_temperatures(string8_modes, tp)
        assert t_ion.sum() == pytest.approx(tp.sum(), rel=1e-12)

    def test_wrong_length(self, string8_modes):
        with pytest.raises(DomainError):
            ion_temperature_from_mode_temperatures(string8_modes,
                                                   np.ones(7))


class TestSpotIO:
    def test_round_trip(self, tmp_path, string8, string8_gamma,
                        trap_string8, ca40, imaging):
        spots = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                                 photon_budget=1e4, seed=2,
                                 trap=trap_string8, species=ca40)
        path = tmp_path / "spots.csv"
        write_spot_profiles(spots, path)
        back = read_spot_profiles(path)
        assert len(back) == len(spots)
        for spot, (ion, axis, prof) in zip(spots, back):
            assert (ion, axis) == (spot.ion_index, spot.axis)
            np.testing.assert_array_equal(prof, spot.profile)

    def test_refit_matches_original(self, tmp_path, string8, string8_gamma,
                                    trap_string8, ca40, imaging):
        spots = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                                 photon_budget=1e4, seed=2,
                                 trap=trap_string8, species=ca40,
                                 axes=("axial",))
        path = tmp_path / "spots.csv"
        write_spot_profiles(spots, path)
        refit = fit_spot_profiles(read_spot_profiles(path), imaging)
        for a, b in zip(spots, refit):
            assert b.fitted_sigma == pytest.approx(a.fitted_sigma,
                                                   rel=1e-9)

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("ion,axis,pixel,counts\n0,axial,0,10\n")
        with pytest.raises(SpotParseError, match="line 1"):
            read_spot_profiles(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(SpotParseError, match="line 1"):
            read_spot_profiles(p)

    def test_bad_axis_names_line(self, tmp_path):
        p = tmp_path / "axis.csv"
        p.write_text("ion_index,axis,pixel,counts\n"
                     "0,axial,0,10\n0,sideways,1,11\n")
        with pytest.raises(SpotParseError, match="line 3"):
            read_spot_profiles(p)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "fields.csv"
        p.write_text("ion_index,axis,pixel,counts\n0,axial,0\n")
        with pytest.raises(SpotParseError, match="line 2"):
            read_spot_profiles(p)

    def test_non_numeric_counts(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("ion_index,axis,pixel,counts\n0,axial,0,many\n")
        with pytest.raises(SpotParseError, match="line 2"):
            read_spot_profiles(p)

    @pytest.mark.parametrize("row", [
        "0,axial,3,nan",  # non-finite counts
        "0,axial,3,-inf",
        "0,axial,inf,12",  # non-finite pixel
        "0,axial,3,1e400",  # overflows to inf
        "-1,axial,3,12",  # would index the last ion
    ])
    def test_non_finite_value_or_negative_ion_names_line(self, tmp_path,
                                                         row):
        p = tmp_path / "bad.csv"
        p.write_text("ion_index,axis,pixel,counts\n0,axial,2,11\n"
                     + row + "\n")
        with pytest.raises(SpotParseError, match="line 3"):
            read_spot_profiles(p)

    def test_negative_counts_name_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("ion_index,axis,pixel,counts\n"
                     + "".join(f"0,axial,{k},{k + 4}\n" for k in range(4))
                     + "0,axial,4,-1\n")
        with pytest.raises(SpotParseError, match="line 6: counts"):
            read_spot_profiles(p)

    def test_short_group_names_its_first_line(self, tmp_path):
        # ion 1's group starts on line 2 and has 4 rows among ion 0's 5
        rows = ["1,axial,0,3"] + [f"0,axial,{k},9" for k in range(5)] \
            + [f"1,axial,{k},4" for k in range(1, 4)]
        p = tmp_path / "short.csv"
        p.write_text("ion_index,axis,pixel,counts\n" + "\n".join(rows)
                     + "\n")
        with pytest.raises(SpotParseError,
                           match=r"line 2: .*ion_index 1, axis axial.* 4 rows"):
            read_spot_profiles(p)
        p.write_text("ion_index,axis,pixel,counts\n" + "\n".join(rows)
                     + "\n1,axial,4,5\n")
        assert [len(prof) for _, _, prof in read_spot_profiles(p)] == [5, 5]
