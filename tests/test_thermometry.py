"""Spot synthesis, Gaussian fitting, and temperature recovery."""

import math
import warnings

import numpy as np
import pytest

from ionlattice import (
    DegenerateFitError,
    DomainError,
    FitConvergenceError,
    ImagingConfig,
    NegativeThermalVarianceError,
    SpotMeasurement,
    SpotParseError,
    equilibrium,
    estimate_temperature,
    fit_gaussian_profile,
    fit_spot_profiles,
    gamma_parameters,
    ion_temperature_from_mode_temperatures,
    normal_modes,
    parse_config,
    read_spot_profiles,
    synthesize_spots,
    write_spot_profiles,
)
from ionlattice import _optim, thermometry
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

    @pytest.mark.parametrize("peak", [1e308, 1.7e308])
    def test_counts_spanning_past_the_float_range_degenerate(self, peak):
        # the constant-profile check took np.ptp(y), whose difference
        # overflowed with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateFitError):
                fit_gaussian_profile(
                    [(1, -peak), (2, peak), (3, 0), (4, 0), (5, 0)])

    def test_too_few_samples(self):
        prof = _gauss_profile(50.0, 0.0, 2.0, 1.0)[:4]
        with pytest.raises(DegenerateFitError):
            fit_gaussian_profile(prof)

    def test_few_distinct_pixels_degenerate(self):
        # eight samples on four pixels are four samples, too few
        prof = _gauss_profile(50.0, 0.0, 2.0, 1.0)[8:12]
        with pytest.raises(DegenerateFitError,
                           match="5 distinct pixels .*got 4"):
            fit_gaussian_profile(np.concatenate([prof, prof + [0.0, 1.0]]))

    @pytest.mark.parametrize("pixel, counts", [
        (0.0, np.nan), (0.0, np.inf), (np.nan, 5.0), (-np.inf, 5.0)])
    def test_non_finite_sample_refused_before_the_solve(self, pixel, counts,
                                                        monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(thermometry, "least_squares_batch", no_solve)
        prof = _gauss_profile(100.0, 0.3, 3.0, 5.0)
        prof[7] = pixel, counts
        with pytest.raises(DomainError, match="finite"):
            fit_gaussian_profile(prof)

    @pytest.mark.parametrize("far", [1e200, 1e308, -1e308])
    def test_pixel_span_past_the_float_range_refused_before_the_solve(
            self, far, monkeypatch):
        # the start width squared the far pixel's offset to inf, 0 * inf
        # made it NaN, and the fit spent its 2000 evaluations on warnings
        def no_solve(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(thermometry, "least_squares_batch", no_solve)
        prof = [(1, 5), (2, 5), (3, 9), (4, 5), (far, 5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateFitError, match=r"pixel span "
                               r"\S+ px is wider than 1e\+150 px"):
                fit_gaussian_profile(prof)

    def test_pixel_span_at_the_cap_is_fitted(self):
        # a spot 1e150 px wide is the same fit as one 1 px wide, scaled
        x = np.arange(-6.0, 7.0)
        y = 5.0 + 100.0 * np.exp(-0.5 * (x / 1.5) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            unit = fit_gaussian_profile(np.column_stack([x, y]))
            wide = fit_gaussian_profile(np.column_stack([x * 1e150 / 12, y]))
        assert wide.sigma == pytest.approx(unit.sigma * 1e150 / 12,
                                           rel=1e-9)

    def test_tiny_counts_fit_as_any_below_one_count(self):
        # below 1 count every Poisson weight is 1, so scaled-down counts
        # are the same fit: finite intervals, no floating-point warning
        prof = _gauss_profile(300.0, 0.4, 2.6, 20.0)
        prof[:, 1] = np.random.default_rng(9).poisson(prof[:, 1])
        fits = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for k in (1e-3, 1e-150, 1e-300):
                fits.append(fit_gaussian_profile(prof * [1.0, k]))
        for fit, k in zip(fits, (1e-3, 1e-150, 1e-300)):
            assert fit.sigma == pytest.approx(fits[0].sigma, rel=1e-9)
            assert fit.center == pytest.approx(fits[0].center, rel=1e-9)
            assert fit.amplitude / k == pytest.approx(
                fits[0].amplitude / 1e-3, rel=1e-9)
            assert all(np.isfinite(fit.ci95)) and all(
                v > 0.0 for v in fit.ci95)

    def test_huge_counts_fit_as_any_above_one_count(self):
        # where every count is above 1, each Poisson weight scales with the
        # square root of the counts, so scaled-up counts are the same fit
        prof = _gauss_profile(300.0, 0.4, 2.6, 20.0)
        prof[:, 1] = np.random.default_rng(9).poisson(prof[:, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fits = [fit_gaussian_profile(prof * [1.0, k])
                    for k in (1.0, 1e150, 1e300)]
        for fit in fits:
            assert fit.sigma == pytest.approx(fits[0].sigma, rel=1e-9)
            assert fit.ci95[1] == pytest.approx(fits[0].ci95[1], rel=1e-9)

    def test_subpixel_spike_degenerate(self):
        px = np.arange(-10, 11, dtype=float)
        y = np.where(px == 0.0, 1000.0, 1.0)
        with pytest.raises(DegenerateFitError):
            fit_gaussian_profile(np.column_stack([px, y]))

    def test_spot_off_the_frame_is_refused(self):
        # a spot centred at 30 px seen on pixels -20..20: its flank alone
        # used to fit a narrow spot just past the frame's edge, with an
        # interval that excludes the true 5 px, or a wide one far outside.
        # A fit whose center passes 60 px, a span off the pixels, stops
        # there; three of these used to run all 2000 evaluations
        px = np.arange(-20, 21, dtype=float)
        counts = 10 + 500 * np.exp(-(px - 30) ** 2 / 50)
        rng = np.random.default_rng(5)
        raised = []
        for _ in range(8):
            prof = np.column_stack([px, rng.poisson(counts)])
            with pytest.raises(DegenerateFitError) as info:
                fit_gaussian_profile(prof)
            raised.append(str(info.value))
        off = [e for e in raised
               if "lies off the profile's pixels -20 to 20" in e]
        away = [e for e in raised
                if "ran away from the profile's pixels -20 to 20" in e]
        assert (len(off), len(away)) == (2, 6)

    def test_ramp_stops_once_it_runs_away(self, monkeypatch):
        # a noiseless ramp has no spot: its fit widens without bound, and
        # used to run all 2000 evaluations of the pass before
        # FitConvergenceError
        nfev = []

        def counted(*args, **kwargs):
            res = _optim.least_squares_batch(*args, **kwargs)
            nfev.extend(res.nfev.tolist())
            return res

        monkeypatch.setattr(thermometry, "least_squares_batch", counted)
        px = np.arange(-20, 21, dtype=float)
        with pytest.raises(DegenerateFitError,
                           match=r"ran away from the profile's pixels -20 "
                                 r"to 20 \(width 51\.2 px"):
            fit_gaussian_profile(np.column_stack([px, px + 30.0]))
        assert len(nfev) == 1 and nfev[0] <= 10

    def test_inverted_spot_is_refused_by_the_f_test(self):
        # 20 Poisson draws of the inverted Gaussian 100 - 50 exp(-x^2/18)
        # on pixels -20..20: none is a spot. Draws 2 and 8 used to fit a
        # bump at the frame's edge (center 14.5 and -13.8 px, width 4.4
        # and 5.0 px); a Gaussian beats the line a + b*x there by F of
        # about 2.9, far below F(2, 37)'s 1e-6 quantile
        from scipy.stats import f as f_distribution
        px = np.arange(-20, 21, dtype=float)
        rng = np.random.default_rng(1)
        raised = []
        for _ in range(20):
            counts = rng.poisson(100 - 50 * np.exp(-px ** 2 / 18))
            with pytest.raises(DegenerateFitError) as info:
                fit_gaussian_profile(np.column_stack([px, counts]))
            raised.append(str(info.value))
        by_f_test = [k for k, e in enumerate(raised) if "nested-model F" in e]
        assert by_f_test == [2, 8]
        quantile = f_distribution.isf(1e-6, 2, 37)  # the closed form's
        for k in by_f_test:
            assert (f"is below {quantile:.3g}, the F(2, 37) quantile at "
                    "p = 1e-06") in raised[k]

    def test_spot_near_the_frame_edge_is_fitted(self):
        px = np.arange(-20, 21, dtype=float)
        counts = 10 + 500 * np.exp(-(px - 18) ** 2 / 50)
        rng = np.random.default_rng(5)
        for _ in range(8):
            fit = fit_gaussian_profile(
                np.column_stack([px, rng.poisson(counts)]))
            assert 17.5 <= fit.center <= 18.5
            assert 4.8 <= fit.sigma <= 5.3

    @pytest.mark.parametrize("weighted", [False, True])
    def test_non_positive_amplitude_is_refused(self, monkeypatch,
                                               weighted):
        # the solver is scripted to return the fitted spot upside down
        # from one pass
        calls = []

        def inverted(fun, x0, jac, lengths, tol, max_nfev, ran_away):
            calls.append(len(x0))
            res = _optim.least_squares_batch(fun, x0, jac, lengths, tol,
                                             max_nfev, ran_away)
            if (len(calls) == 2) == weighted:
                res = res._replace(x=res.x * [-1.0, 1.0, 1.0, 1.0])
            return res

        monkeypatch.setattr(thermometry, "least_squares_batch", inverted)
        with pytest.raises(DegenerateFitError,
                           match="amplitude -100 is not positive"):
            fit_gaussian_profile(_gauss_profile(100.0, 0.3, 3.0, 5.0))
        assert len(calls) == 1 + weighted

    def test_poisson_ci_coverage(self):
        # the 95% interval on sigma must cover the truth in at least 93%
        # of repeated noisy fits; one batched solve, in pixel units, gives
        # each profile the fit it gets alone
        rng = np.random.default_rng(42)
        sigma_true = 3.1
        trials = 500
        prof = _gauss_profile(1000.0, 0.0, sigma_true, 10.0)
        noisy = [(i, "axial", np.column_stack(
                    [prof[:, 0], rng.poisson(prof[:, 1]).astype(float)]))
                 for i in range(trials)]
        pixels = ImagingConfig(sigma_res_axial=1.0, sigma_res_radial=1.0,
                               pixel_pitch=1.0)
        hits = sum(abs(spot.fitted_sigma - sigma_true) <= spot.sigma_ci95
                   for spot in fit_spot_profiles(noisy, pixels))
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
        spots = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                                 photon_budget=2e4, seed=4,
                                 trap=trap_string8, species=ca40,
                                 axes=("axial",))
        base = estimate_temperature(spots, string8_gamma, trap_string8,
                                    ca40, imaging)
        junk = SpotMeasurement(spots[0].ion_index, spots[0].axis,
                               spots[0].profile, fitted_sigma=50e-6,
                               sigma_ci95=math.inf,
                               overlapping=spots[0].overlapping)
        padded = estimate_temperature(spots + [junk], string8_gamma,
                                      trap_string8, ca40, imaging)
        assert padded.T == pytest.approx(base.T, rel=1e-12)

    def test_zero_ci_spot_falls_back_to_unweighted(self, trap_string8,
                                                     ca40, imaging):
        # a zero CI next to a positive one once gave T = nan (inf/inf):
        # without a positive variance on every spot, all count equally
        from types import SimpleNamespace

        spots = [SpotMeasurement(ion_index=i, axis="axial",
                                 profile=np.zeros((5, 2)),
                                 fitted_sigma=sigma, sigma_ci95=ci)
                 for i, (sigma, ci) in enumerate([(2.5e-6, 0.0),
                                                  (2.6e-6, 1e-8)])]
        unit = SimpleNamespace(axial=np.ones(2))
        est = estimate_temperature(spots, unit, trap_string8, ca40, imaging)
        t = np.array([2.5e-6, 2.6e-6]) ** 2 - imaging.sigma_res_axial ** 2
        scale = ca40.mass * trap_string8.omega_z ** 2 / cn.KB
        assert est.T == pytest.approx(np.mean(t) * scale, rel=1e-12)
        assert math.isfinite(est.ci95) and est.ci95 > 0
        assert np.all(np.isfinite(est.per_ion_residuals))
        both_zero = [spots[0], SpotMeasurement(
            spots[1].ion_index, spots[1].axis, spots[1].profile,
            spots[1].fitted_sigma, sigma_ci95=0.0,
            overlapping=spots[1].overlapping)]
        same = estimate_temperature(both_zero, unit, trap_string8, ca40,
                                    imaging)
        assert (est.T, est.ci95) == (same.T, same.ci95)

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
        spots = synthesize_spots(3.5e-3, string8, string8_gamma, imaging,
                                 photon_budget=2e4, seed=4,
                                 trap=trap_string8, species=ca40,
                                 axes=("axial",))
        stray = SpotMeasurement(ion, spots[0].axis, spots[0].profile,
                                spots[0].fitted_sigma, spots[0].sigma_ci95,
                                spots[0].overlapping)
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

    def test_group_of_few_distinct_pixels_names_its_first_line(self,
                                                                tmp_path):
        # ion 1's group starts on line 3: six rows on four pixels
        rows = ["0,axial,0,9", "1,axial,7,3"] \
            + [f"0,axial,{k},9" for k in range(1, 5)] \
            + [f"1,axial,{k % 4 + 7},4" for k in range(1, 6)]
        p = tmp_path / "few.csv"
        p.write_text("ion_index,axis,pixel,counts\n" + "\n".join(rows)
                     + "\n")
        with pytest.raises(SpotParseError,
                           match=r"^line 3: .*ion_index 1, axis axial\) has 4 "
                                 "distinct pixels in 6 rows"):
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


# the benchmark's crystal64 config; its spots CSV at noise seed 1 is the
# imaging_pipeline input
CRYSTAL64 = """{"schema_version": 1,
 "trap": {"f_z_kHz": 85.0, "f_radial_kHz": 300.0},
 "lattice": {"detuning_THz": 0.76, "depth_max_mK": 25.0},
 "crystal": {"n_ions": 64, "seed": 7, "T0_mK": 3.6}}"""


@pytest.fixture(scope="module")
def crystal64_spots(tmp_path_factory):
    cfg = parse_config(CRYSTAL64)
    state = equilibrium(cfg.n_ions, cfg.trap, species=cfg.species,
                        seed=cfg.seed)
    gamma = gamma_parameters(normal_modes(state, cfg.trap,
                                          species=cfg.species))
    spots = synthesize_spots(3.5e-3, state, gamma, cfg.imaging, 1e4, 1,
                             trap=cfg.trap, species=cfg.species)
    path = tmp_path_factory.mktemp("crystal64") / "spots.csv"
    write_spot_profiles(spots, path)
    return read_spot_profiles(path), cfg.imaging


class TestBatchedFit:
    def test_each_profile_as_alone(self, crystal64_spots):
        # a reordered mix of both axes, lengths 27 to 33 pixels
        profiles, imaging = crystal64_spots
        mix = profiles[::-7] + profiles[1:40:3]
        assert len({len(prof) for _, _, prof in mix}) > 3
        for (_, _, prof), spot in zip(mix, fit_spot_profiles(mix, imaging)):
            alone = fit_gaussian_profile(prof, imaging.pixel_pitch)
            assert (spot.fitted_sigma, spot.sigma_ci95) \
                == (alone.sigma, alone.ci95[1])

    def test_first_failing_profile_in_input_order_is_named(self, imaging):
        good = _gauss_profile(100.0, 0.3, 3.0, 5.0)
        px = np.arange(-10, 11, dtype=float)
        flat = np.column_stack([px, np.full(21, 7.0)])
        spike = np.column_stack([px, np.where(px == 0.0, 1000.0, 1.0)])
        # the flat profile fails before the solve, the spike after it
        triples = [(0, "axial", good), (5, "radial", flat),
                   (2, "axial", spike)]
        with pytest.raises(DegenerateFitError,
                           match=r"^spot \(ion_index 5, axis radial\): "
                                 "constant profile"):
            fit_spot_profiles(triples, imaging)
        with pytest.raises(DegenerateFitError,
                           match=r"^spot \(ion_index 2, axis axial\): "
                                 "fitted width"):
            fit_spot_profiles(triples[::-1], imaging)

    def test_weighted_pass_failure_names_the_spot(self, imaging,
                                                  monkeypatch):
        # the unweighted pass converges, the weighted one runs out of
        # evaluations
        calls = []

        def weighted_gives_up(fun, x0, jac, lengths, tol, max_nfev,
                              ran_away):
            calls.append(len(x0))
            return _optim.least_squares_batch(
                fun, x0, jac, lengths, tol,
                max_nfev=max_nfev if len(calls) == 1 else 1,
                ran_away=ran_away)

        monkeypatch.setattr(thermometry, "least_squares_batch",
                            weighted_gives_up)
        rng = np.random.default_rng(3)
        prof = _gauss_profile(200.0, 0.4, 2.0, 3.0)
        prof[:, 1] = rng.poisson(prof[:, 1])
        with pytest.raises(FitConvergenceError,
                           match=r"^spot \(ion_index 6, axis axial\): "
                                 "weighted Gaussian fit did not converge"):
            fit_spot_profiles([(6, "axial", prof)], imaging)
        assert calls == [1, 1]

    def test_singular_normal_matrix_takes_pseudo_inverse(self, monkeypatch):
        # where J^T J cannot be inverted, the covariance is its
        # pseudo-inverse: for an invertible one, the same to rounding
        prof = _gauss_profile(200.0, 0.4, 2.0, 3.0)
        prof[:, 1] = np.random.default_rng(3).poisson(prof[:, 1])
        want = fit_gaussian_profile(prof)
        pinv, taken = np.linalg.pinv, []

        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        def spied_pinv(a):
            taken.append(a)
            return pinv(a)

        monkeypatch.setattr(np.linalg, "inv", singular)
        monkeypatch.setattr(np.linalg, "pinv", spied_pinv)
        got = fit_gaussian_profile(prof)
        monkeypatch.undo()
        assert len(taken) == 1
        assert (got.center, got.sigma, got.amplitude, got.offset) == \
            (want.center, want.sigma, want.amplitude, want.offset)
        np.testing.assert_allclose(got.ci95, want.ci95, rtol=1e-9)

    def test_convergence_error_names_the_spot(self, imaging, monkeypatch):
        def give_up(fun, x0, jac, lengths, tol, max_nfev, ran_away):
            return _optim.least_squares_batch(fun, x0, jac, lengths, tol,
                                              max_nfev=2, ran_away=ran_away)

        monkeypatch.setattr(thermometry, "least_squares_batch", give_up)
        triples = [(4, "axial", _gauss_profile(50.0, 0.4, 2.0, 3.0)),
                   (1, "axial", _gauss_profile(80.0, -1.0, 2.5, 1.0))]
        with pytest.raises(FitConvergenceError,
                           match=r"^spot \(ion_index 4, axis axial\): "
                                 "Gaussian fit did not converge"):
            fit_spot_profiles(triples, imaging)
