"""Fluorescence-spot thermometry.

The imaged spot of a trapped ion is the convolution of its thermal position
spread with the imaging resolution, so for ion m along axis u

    sigma^2_{m,u} = (kB T / (M omega_z^2)) gamma^2_{m,u} + sigma_res^2,

with gamma from the normal-mode decomposition (crystal.gamma_parameters).
This module closes the loop in both directions: synthesize pixelated,
Poisson-noisy spot profiles at a known temperature, fit 1-D Gaussians with
confidence intervals, and recover T by a weighted least-squares fit of the
single slope parameter across ions.

The resolution numbers are standard deviations in meters (the often-quoted
"sigma^2 = 2.23 um" style values are read as sigma, since a variance in um
would be dimensionally inconsistent). Default analysis uses axial spots
only; the radial projection (camera at 45 degrees to the trap's radial
axes) is available behind a flag because its gamma values are sensitive to
the radial-asymmetry bias.
"""

import io
import math
from typing import NamedTuple

import numpy as np

from . import _EXPORTS, constants as cn
# the fit calls least_squares_batch through this module's namespace, where
# tests patch it; bench/tracer.py wraps least_squares here
from ._optim import (  # noqa: F401
    RAN_AWAY,
    least_squares,
    least_squares_batch,
    student_t_975,
)
from .errors import (
    DegenerateFitError,
    DomainError,
    FitConvergenceError,
    NegativeThermalVarianceError,
    SpotParseError,
    read_utf8,
)
from .pendulum import _default_species, _real

__all__ = list(_EXPORTS["thermometry"])

_AXES = ("axial", "radial")


class ImagingConfig:
    """Imaging-chain constants: per-axis resolution (std dev) and pixel pitch."""

    __slots__ = ("sigma_res_axial", "sigma_res_radial", "pixel_pitch")

    def __init__(self, sigma_res_axial, sigma_res_radial, pixel_pitch):
        self.sigma_res_axial = _real(sigma_res_axial)  # m
        self.sigma_res_radial = _real(sigma_res_radial)  # m
        self.pixel_pitch = _real(pixel_pitch)  # m per pixel
        # the temperature fit weighs each spot by the inverse variance of
        # its fitted sigma^2, which scales as the fourth power of a length;
        # NaN fails too
        if not all(0 < v and v * v * v * v < math.inf for v in (
                self.sigma_res_axial, self.sigma_res_radial,
                self.pixel_pitch)):
            raise DomainError(
                "imaging constants must be positive, and their fourth "
                "powers finite")

    def sigma_res(self, axis):
        return self.sigma_res_axial if axis == "axial" \
            else self.sigma_res_radial


class SpotMeasurement:
    """One fitted 1-D spot profile.

    profile holds the raw (pixel, counts) samples; fitted values are in
    meters. overlapping marks spots whose center lies within two widths
    of another ion's center on the same projection axis.
    """

    __slots__ = ("ion_index", "axis", "profile", "fitted_sigma", "sigma_ci95",
                 "overlapping")

    def __init__(self, ion_index, axis, profile, fitted_sigma, sigma_ci95,
                 overlapping=False):
        self.ion_index = ion_index
        self.axis = axis  # "axial" or "radial"
        self.profile = profile  # (n, 2): pixel coordinate, counts
        self.fitted_sigma = fitted_sigma  # m
        self.sigma_ci95 = sigma_ci95  # m, half-width
        self.overlapping = overlapping


class TemperatureEstimate:
    __slots__ = ("T", "ci95", "per_ion_residuals")

    def __init__(self, T, ci95, per_ion_residuals):
        self.T = T  # K
        self.ci95 = ci95  # K, half-width
        self.per_ion_residuals = per_ion_residuals  # m^2, one per spot used


class GaussianFit(NamedTuple):
    center: float
    sigma: float
    amplitude: float
    offset: float
    ci95: tuple  # (center, sigma, amplitude, offset) half-widths


def spot_variance_model(T, gamma, trap, species, sigma_res):
    """Expected image-spot variance (m^2): thermal motion + resolution.

    sigma^2 = (kB T/(M omega_z^2)) gamma^2 + sigma_res^2, elementwise in
    gamma.
    """
    if not T >= 0:  # NaN fails too
        raise DomainError("temperature T must be non-negative")
    scale = cn.KB * T / (species.mass * trap.omega_z ** 2)  # m^2
    if scale == math.inf:
        raise DomainError(
            f"temperature T = {T!r} K gives no finite kB T/(M omega_z^2)")
    return scale * gamma ** 2 + sigma_res ** 2


def _gauss(x, a, c, s, b):
    return a * np.exp(-0.5 * ((x - c) / s) ** 2) + b


# fewest distinct pixels a 4-parameter Gaussian fit accepts
_MIN_PIXELS = 5
# widest pixel span (largest minus smallest pixel) a fit accepts: the fit
# squares pixel offsets, which this leaves below 1e300, while a span past
# about 1.3e154 px has squares beyond the float range's 1.8e308
_MAX_SPAN = 1e150
# a fit is a spot only if the nested-model F test refuses the line a + b x
# in its favour at this probability of refusing a true spot
_F_TEST_P = 1e-6


def fit_gaussian_profile(profile, pixel_pitch=1.0):
    """Least-squares Gaussian fit A exp(-(x-c)^2/(2 sigma^2)) + B.

    profile is a sequence of (pixel, counts) pairs; results are scaled by
    pixel_pitch so they come back in meters when the pitch is given (and
    in pixel units for the default pitch of 1). The pitch must be positive
    and finite, as ImagingConfig's. Confidence intervals are
    95% from the linearized covariance at the optimum, scaled by the
    reduced chi-square. An unweighted fit is followed by a second one
    with Poisson weights from the first fit's model (weights frozen, so
    the estimate stays unbiased); the chi-square scaling makes the
    intervals insensitive to an overall gain. This is the one-profile
    case of fit_spot_profiles.

    Raises DomainError for a pitch that is not positive and finite or a
    sample that is not a finite number, and DegenerateFitError for fewer
    than 5 distinct pixels, a constant profile or a pixel span wider than
    1e150 px. Each pass then refuses, in this order, a fit that runs away
    (a width beyond the pixel span, or a center more than a span off the
    pixels, stops the solver at once) with DegenerateFitError, one that
    does not converge with FitConvergenceError, and a fitted center off
    the profile's pixels or an amplitude that is not positive with
    DegenerateFitError. After the weighted pass, DegenerateFitError also
    refuses a width below a quarter pixel and a fit that the line a + b x
    matches nearly as well (the nested-model F test, at p = 1e-6).
    """
    if not 0.0 < pixel_pitch < math.inf:  # NaN fails too
        raise DomainError(
            f"pixel_pitch must be positive and finite, got {pixel_pitch!r}")
    (fit,) = _fit_profiles([profile])
    if isinstance(fit, Exception):
        raise fit
    (a, c, s, b), ci = fit
    return GaussianFit(
        center=c * pixel_pitch,
        sigma=s * pixel_pitch,
        amplitude=a,
        offset=b,
        ci95=(ci[1] * pixel_pitch, ci[2] * pixel_pitch, ci[0], ci[3]),
    )


def _fit_profiles(profiles):
    """Gaussian fits of profiles in pixel units, each pass one batched solve.

    Returns one entry per profile: ((a, c, sigma, b), ci) with ci the 95%
    half-widths of (a, c, sigma, b), or the DomainError, DegenerateFitError
    or FitConvergenceError of a profile that cannot be fitted. The solver
    sees each profile's counts divided by their largest magnitude, so that
    no sum of squares leaves the float range however small the counts.
    Profiles of unequal length are zero-padded, and every entry is the one
    its profile gets alone. A fit that runs away is stopped during the
    pass; after each pass one refusal reads the solver's stop and the fit,
    and after the weighted pass the width check and the F test follow.
    """
    fits = [None] * len(profiles)
    kept, x0 = [], []
    for i, profile in enumerate(profiles):
        arr = np.asarray(list(profile), dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            fits[i] = DegenerateFitError(
                "need (pixel, counts) samples to fit a Gaussian")
            continue
        if not np.all(np.isfinite(arr)):
            fits[i] = DomainError("pixel and counts must be finite numbers")
            continue
        x, y = arr[:, 0], arr[:, 1]
        pixels = len(set(x.tolist()))
        if pixels < _MIN_PIXELS:
            fits[i] = DegenerateFitError(
                f"need at least {_MIN_PIXELS} distinct pixels to fit a "
                f"Gaussian, got {pixels}")
            continue
        if y.min() == y.max():  # forms no difference, which may overflow
            fits[i] = DegenerateFitError("constant profile has no peak to fit")
            continue
        # in Python floats, whose overflow to inf warns of nothing
        span = float(x.max()) - float(x.min())
        if not span <= _MAX_SPAN:
            fits[i] = DegenerateFitError(
                f"pixel span {span:.3g} px is wider than {_MAX_SPAN:.0e} "
                "px, past which the fit's squared pixel offsets near the "
                "end of the float range")
            continue
        peak = float(np.max(np.abs(y)))
        y = y / peak
        b0 = float(np.min(y))
        a0 = float(np.max(y) - b0)
        c0 = float(x[np.argmax(y)])
        wsum = max(float(np.sum(y - b0)), 1e-12)
        s0 = math.sqrt(max(float(np.sum((y - b0) * (x - c0) ** 2)) / wsum,
                           0.25))
        kept.append((i, x, y, peak))
        x0.append([a0, c0, s0, b0])
    if not kept:
        return fits

    lengths = np.array([len(px) for _, px, _, _ in kept])
    peaks = np.array([peak for _, _, _, peak in kept])
    lo = np.array([px.min() for _, px, _, _ in kept])
    hi = np.array([px.max() for _, px, _, _ in kept])
    x, y = np.zeros((2, len(kept), lengths.max()))
    for k, (_, px, counts, _) in enumerate(kept):
        x[k, :lengths[k]], y[k, :lengths[k]] = px, counts

    def solve(rows, sig, start):
        xs, ys, los, his = x[rows], y[rows], lo[rows], hi[rows]

        def resid(p, lanes):
            a, c, s, b = p.T[:, :, None]
            return (_gauss(xs[lanes], a, c, s, b) - ys[lanes]) / sig[lanes]

        def jac(p, lanes):
            a, c, s, _ = p.T[:, :, None]
            px = xs[lanes]
            u = (px - c) / s
            e = np.exp(-0.5 * u * u)
            return np.stack([e, a * e * u / s, a * e * u * u / s,
                             np.ones_like(px)], axis=-1) \
                / sig[lanes][..., None]

        def ran_away(p, lanes):
            # a fit has run away once its width exceeds its profile's
            # pixel span, or its center lies more than one span off the
            # pixels: no spot lies out there, and the solver stops it
            _, c, s, _ = np.transpose(p)
            span = his[lanes] - los[lanes]
            return (np.abs(s) > span) | (c < los[lanes] - span) \
                | (c > his[lanes] + span)
        return least_squares_batch(resid, start, jac, lengths[rows],
                                   tol=1e-14, max_nfev=2000,
                                   ran_away=ran_away)

    def refusal(k, res, lane, what):
        # the error of kept profile k, whose fit lane of the pass what
        # stopped in res, or None if the fit may be a spot
        p, message = res.x[lane], res.message[lane]
        if message == RAN_AWAY:
            return DegenerateFitError(
                f"{what} ran away from the profile's pixels {lo[k]:.3g} to "
                f"{hi[k]:.3g} (width {abs(p[2]):.3g} px, center "
                f"{p[1]:.3g} px): a fit whose width exceeds their span, or "
                "whose center lies more than a span off them, is no spot")
        if not res.success[lane]:
            return FitConvergenceError(f"{what} did not converge: {message}")
        if not lo[k] <= p[1] <= hi[k]:
            return DegenerateFitError(
                f"fitted center {p[1]:.3g} px lies off the profile's "
                f"pixels {lo[k]:.3g} to {hi[k]:.3g}")
        if not p[0] > 0.0:
            return DegenerateFitError(
                f"fitted amplitude {p[0] * peaks[k]:.3g} is not positive")
        return None

    def no_peak(k, sig, rss):
        # why kept profile k, weighted by sig, is no spot by the F test on
        # the residual sums rss of the Gaussian and of the line a + b x, or
        # None. F = ((rss_line - rss)/2)/(rss/nu), nu = m - 4 (Bevington
        # and Robinson, Data Reduction and Error Analysis, ch. 11), is a
        # ratio of sums, so an overall gain leaves it. F(2, nu)'s
        # upper p quantile is (nu/2)(p^(-2/nu) - 1) in closed form
        m = lengths[k]
        nu = m - 4
        px, counts = x[k, :m], y[k, :m]
        line = np.column_stack([1.0 / sig, px / sig])
        fit, *_ = np.linalg.lstsq(line, counts / sig, rcond=None)
        rss_line = float(np.sum((line @ fit - counts / sig) ** 2))
        quantile = 0.5 * nu * (_F_TEST_P ** (-2.0 / nu) - 1.0)
        if (rss_line - rss) * nu >= 2.0 * quantile * rss:
            return None
        f = 0.5 * (rss_line - rss) / (rss / nu)
        return (f"the Gaussian does not beat the line a + b*x: nested-model "
                f"F {f:.3g} is below {quantile:.3g}, the F(2, {nu}) "
                f"quantile at p = {_F_TEST_P:g}")

    # rows: the kept profiles a pass fits, from start, weighted by sig
    rows, sig, start = np.arange(len(kept)), np.ones_like(y), x0
    for what in ("Gaussian fit", "weighted Gaussian fit"):
        if what == "weighted Gaussian fit":
            # Poisson weights from the unweighted fit's model, frozen
            a, c, s, b = start.T[:, :, None]
            sig = np.sqrt(np.maximum(
                peaks[rows, None] * _gauss(x[rows], a, c, s, b), 1.0))
        res = solve(rows, sig, start)
        live = []  # positions in rows of the fits that pass
        for k, i in enumerate(rows):
            if (error := refusal(i, res, k, what)) is None:
                live.append(k)
            else:
                fits[kept[i][0]] = error
        if not live:
            return fits
        rows, start = rows[live], res.x[live]
    for k, i in zip(live, rows):
        m = lengths[i]
        a, c, s, b = res.x[k]
        s = abs(s)
        if s < 0.25:  # below a quarter pixel the model is unresolvable
            fits[kept[i][0]] = DegenerateFitError(
                f"fitted width {s:.3g} px is below pixel_pitch/4")
            continue
        if why := no_peak(i, sig[k, :m], 2.0 * res.cost[k]):
            fits[kept[i][0]] = DegenerateFitError(why)
            continue
        dof = max(m - 4, 1)
        s2 = 2.0 * res.cost[k] / dof
        jac = res.jac[k, :m]
        jtj = jac.T @ jac
        try:
            cov = s2 * np.linalg.inv(jtj)
        except np.linalg.LinAlgError:
            cov = s2 * np.linalg.pinv(jtj)
        # a and b come back in counts; the normalization leaves c and s
        scale = np.array([peaks[i], 1.0, 1.0, peaks[i]])
        ci = 1.96 * np.sqrt(np.clip(np.diag(cov), 0.0, None)) * scale
        fits[kept[i][0]] = ((a * peaks[i], c, s, b * peaks[i]), ci)
    return fits


def _spot_gamma(spot, gamma):
    table = gamma.axial if spot.axis == "axial" \
        else gamma.gamma_radial_projected
    if not 0 <= spot.ion_index < len(table):
        raise DomainError(f"spot ion_index {spot.ion_index} is outside "
                          f"[0, {len(table)})")
    return float(table[spot.ion_index])


def _used_axes(include_radial):
    # the spot axes a temperature estimate reads
    return _AXES if include_radial else ("axial",)


def estimate_temperature(spots, gamma, trap, species, imaging,
                         include_radial=False):
    """Single-parameter weighted fit of T across many spots.

    Each spot contributes sigma_fit^2 - sigma_res^2 = c * gamma^2 with
    c = kB T/(M omega_z^2); weights are the inverse variances of the
    fitted sigma^2 (propagated from the 95% CI of sigma). Axial spots
    only by default. Because those weights are themselves estimates, the
    interval uses a Student-t quantile and is inflated by the reduced
    chi-square when the scatter exceeds the stated errors. A negative
    fitted c means every spot is narrower than the stated resolution;
    that raises, carrying the per-spot variance deficits.
    """
    used = [s for s in spots if s.axis in _used_axes(include_radial)]
    if not used:
        raise DomainError("no usable spots (axial missing and radial excluded)")

    g2 = np.array([_spot_gamma(s, gamma) ** 2 for s in used])
    v = np.array([s.fitted_sigma ** 2 for s in used])
    res2 = np.array([imaging.sigma_res(s.axis) ** 2 for s in used])
    t = v - res2

    dsig = np.array([s.sigma_ci95 / 1.96 for s in used])
    var_v = (2.0 * np.sqrt(v) * dsig) ** 2
    # inverse-variance weights need a positive variance on every spot and
    # a finite one on some; infinite-CI spots carry no weight (1/inf = 0).
    # A zero CI states no usable error, so then every spot counts equally.
    exact_weights = bool(np.all(var_v > 0.0) and np.any(np.isfinite(var_v)))
    w = 1.0 / var_v if exact_weights else np.ones_like(v)

    denom = float(np.sum(w * g2 * g2))
    c_hat = float(np.sum(w * g2 * t)) / denom
    if c_hat < 0.0:
        raise NegativeThermalVarianceError(
            "fitted thermal variance is negative: spots are narrower than "
            "the imaging resolution", deficits=t)
    resid = t - c_hat * g2
    n = len(used)
    dof = max(n - 1, 1)
    if exact_weights:
        var_c = 1.0 / denom
        if n > 1:  # estimated weights: inflate when scatter exceeds them
            chi2_red = float(np.sum(w * resid * resid)) / dof
            var_c *= max(1.0, chi2_red)
    else:  # no per-spot errors: estimate the scatter from the residuals
        s2 = float(np.sum(resid * resid)) / dof
        var_c = s2 / float(np.sum(g2 * g2))
    quantile = student_t_975(dof) if n > 1 else 1.96

    scale = species.mass * trap.omega_z ** 2 / cn.KB
    return TemperatureEstimate(
        T=c_hat * scale,
        ci95=quantile * math.sqrt(max(var_c, 0.0)) * scale,
        per_ion_residuals=resid,
    )


def _projected_center(pos, axis):
    # camera coordinate of every ion: z, or x and y seen at 45 degrees
    return pos[:, 2] if axis == "axial" \
        else (pos[:, 0] + pos[:, 1]) / math.sqrt(2.0)


def synthesize_spots(T, state, gamma, imaging, photon_budget, seed,
                     trap, species=None, axes=_AXES, noise=True,
                     background=0.0):
    """Generate per-ion pixelated spot profiles and fit them.

    For each ion and requested axis: expected spot width from
    spot_variance_model, the Gaussian sampled at pixel centers with the
    amplitude scaled so the total is photon_budget, optional Poisson
    noise (deterministic under seed), then a Gaussian fit of the result
    (fit_spot_profiles). Spots whose centers sit within two widths of
    another ion on the same projection axis are marked overlapping.
    A photon_budget that is not positive and finite, or a background that
    is negative or not finite, raises DomainError before anything is drawn;
    so, with noise, does a pixel's expected count past what numpy's Poisson
    draw takes (about 9.2e18).
    """
    if T < 0:
        raise DomainError("temperature must be non-negative")
    if not 0.0 < photon_budget < math.inf:  # NaN fails too
        raise DomainError("photon_budget must be positive and finite, "
                          f"got {photon_budget!r}")
    if not 0.0 <= background < math.inf:
        raise DomainError("background must be non-negative and finite, "
                          f"got {background!r}")
    species = _default_species(species)
    rng = np.random.default_rng(seed)
    pitch = imaging.pixel_pitch
    pos = np.asarray(state.positions, dtype=float)
    n = pos.shape[0]
    c_long = np.iinfo("l").max  # numpy's Poisson limit, as numpy forms it
    lam_max = c_long - 10.0 * math.sqrt(c_long)

    profiles, overlapping = [], []
    for axis in axes:
        if axis not in _AXES:
            raise DomainError(f"unknown spot axis {axis!r}")
        centers = _projected_center(pos, axis)
        gammas = gamma.axial if axis == "axial" else gamma.gamma_radial_projected
        sigmas = np.sqrt(spot_variance_model(T, gammas, trap, species,
                                             imaging.sigma_res(axis)))
        for m in range(n):
            c, s = centers[m], sigmas[m]
            others = np.delete(np.arange(n), m)
            overlapping.append(bool(np.any(
                np.abs(centers[others] - c)
                < 2.0 * np.maximum(sigmas[others], s))))
            lo = math.floor((c - 5.0 * s) / pitch)
            hi = math.ceil((c + 5.0 * s) / pitch)
            px = np.arange(lo, hi + 1, dtype=float)
            amp = photon_budget * pitch / (s * math.sqrt(2.0 * math.pi))
            expected = _gauss(px * pitch, amp, c, s, background)
            if noise and not expected.max() <= lam_max:
                raise DomainError(
                    f"photon_budget and background give {expected.max():.3g} "
                    f"expected counts in one pixel, past the {lam_max:.3g} "
                    "that the Poisson draw takes")
            counts = rng.poisson(expected).astype(float) if noise else expected
            profiles.append((m, axis, np.column_stack([px, counts])))
    spots = fit_spot_profiles(profiles, imaging)
    for spot, flag in zip(spots, overlapping):
        spot.overlapping = flag
    return spots


def ion_temperature_from_mode_temperatures(modes, mode_temperatures):
    """Per-ion, per-axis temperatures T_{m,a} = sum_p (b_{aN+m}^p)^2 T_p.

    With all mode temperatures equal this returns that temperature in
    every entry (eigenvector completeness); in general it redistributes
    per-mode energy onto ions and axes.
    """
    tp = np.asarray(mode_temperatures, dtype=float)
    n_modes = modes.coordinates.shape[1]
    if tp.shape != (n_modes,):
        raise DomainError(
            f"need {n_modes} mode temperatures, got {tp.shape}")
    b = modes.by_axis
    return ((b * b) @ tp).T  # (N, 3): x, y, z columns


# ----------------------------------------------------------------------
# CSV interface: columns ion_index, axis, pixel, counts


_HEADER = ["ion_index", "axis", "pixel", "counts"]


def read_spot_profiles(path):
    """Parse a spot CSV into [(ion_index, axis, (n,2) array), ...].

    Rows are grouped by (ion_index, axis) in order of first appearance.
    Malformed content raises SpotParseError naming the offending line:
    bytes that are not UTF-8 or that csv refuses, a wrong header or field
    count, a non-integer or negative ion_index, an unknown axis, a pixel or
    counts value that is not a finite number, negative counts, or (naming
    the group's first line) a group of fewer than 5 distinct pixels, too
    few for the Gaussian fit.
    """
    import csv  # here, so that only the spots CSV pays its import
    groups = {}
    first_line = {}
    text = read_utf8(path, lambda line, byte: SpotParseError(
        f"line {line}: not UTF-8 text, byte 0x{byte:02x}"))
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise SpotParseError("line 1: empty file, expected header "
                                 + ",".join(_HEADER))
        if [h.strip() for h in header] != _HEADER:
            raise SpotParseError(
                f"line 1: expected header {','.join(_HEADER)!r}, "
                f"got {','.join(header)!r}")
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise SpotParseError(f"line {i}: expected 4 fields, got {len(row)}")
            try:
                ion = int(row[0])
                pixel = float(row[2])
                counts = float(row[3])
            except ValueError as exc:
                raise SpotParseError(f"line {i}: {exc}") from None
            if ion < 0:
                raise SpotParseError(
                    f"line {i}: ion_index must be non-negative, got {ion}")
            if not (math.isfinite(pixel) and math.isfinite(counts)):
                raise SpotParseError(
                    f"line {i}: pixel and counts must be finite numbers")
            if counts < 0.0:
                raise SpotParseError(
                    f"line {i}: counts must be non-negative, got {row[3]!r}")
            axis = row[1].strip()
            if axis not in _AXES:
                raise SpotParseError(
                    f"line {i}: axis must be one of {_AXES}, got {axis!r}")
            key = (ion, axis)
            if key not in groups:
                groups[key] = []
                first_line[key] = i
            groups[key].append((pixel, counts))
    except csv.Error as exc:  # a field past csv's size limit; before
        # Python 3.11 a NUL byte too
        raise SpotParseError(f"line {reader.line_num}: {exc}") from None
    for (ion, axis), rows in groups.items():
        pixels = len({pixel for pixel, _ in rows})
        if pixels < _MIN_PIXELS:
            raise SpotParseError(
                f"line {first_line[ion, axis]}: spot group (ion_index {ion}, "
                f"axis {axis}) has {pixels} distinct pixels in {len(rows)} "
                f"rows; the Gaussian fit needs at least {_MIN_PIXELS}")
    return [(ion, axis, np.asarray(rows, dtype=float))
            for (ion, axis), rows in groups.items()]


def write_spot_profiles(spots, path):
    """Write the raw profiles of SpotMeasurements to CSV."""
    import csv  # here, so that only the spots CSV pays its import
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADER)
        for spot in spots:
            for pixel, counts in np.asarray(spot.profile, dtype=float):
                writer.writerow([spot.ion_index, spot.axis, "%.9g" % pixel,
                                 "%.9g" % counts])


def fit_spot_profiles(profiles, imaging):
    """Fit raw (ion, axis, profile) triples into SpotMeasurements.

    All profiles go through one batched solve per pass, each with the
    result fit_gaussian_profile gives it alone. If any cannot be fitted,
    raises the error of the first in input order, with its ion_index and
    axis in the message.
    """
    pitch = imaging.pixel_pitch
    out = []
    for (ion, axis, prof), fit in zip(
            profiles, _fit_profiles([prof for _, _, prof in profiles])):
        if isinstance(fit, Exception):
            raise type(fit)(f"spot (ion_index {ion}, axis {axis}): {fit}")
        (_, _, s, _), ci = fit
        out.append(SpotMeasurement(
            ion_index=ion, axis=axis, profile=np.asarray(prof, dtype=float),
            fitted_sigma=s * pitch, sigma_ci95=ci[2] * pitch))
    return out
