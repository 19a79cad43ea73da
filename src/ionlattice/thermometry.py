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

import csv
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import constants as cn
# bench/tracer.py wraps ``least_squares`` here, so the fit calls it through
# this module's namespace
from ._optim import least_squares, student_t_975
from .errors import (
    DegenerateFitError,
    DomainError,
    FitConvergenceError,
    NegativeThermalVarianceError,
    SpotParseError,
)
from .pendulum import _default_species

__all__ = [
    "ImagingConfig",
    "SpotMeasurement",
    "TemperatureEstimate",
    "GaussianFit",
    "spot_variance_model",
    "fit_gaussian_profile",
    "estimate_temperature",
    "synthesize_spots",
    "ion_temperature_from_mode_temperatures",
    "read_spot_profiles",
    "write_spot_profiles",
    "fit_spot_profiles",
]

_AXES = ("axial", "radial")


@dataclass(frozen=True)
class ImagingConfig:
    """Imaging-chain constants: per-axis resolution (std dev) and pixel pitch."""

    sigma_res_axial: float  # m
    sigma_res_radial: float  # m
    pixel_pitch: float  # m per pixel

    def __post_init__(self):
        if not all(v > 0 for v in (  # NaN fails too
                self.sigma_res_axial, self.sigma_res_radial,
                self.pixel_pitch)):
            raise DomainError("imaging constants must be positive")

    def sigma_res(self, axis):
        return self.sigma_res_axial if axis == "axial" \
            else self.sigma_res_radial


@dataclass(frozen=True, eq=False)
class SpotMeasurement:
    """One fitted 1-D spot profile.

    profile holds the raw (pixel, counts) samples; fitted values are in
    meters. overlapping marks spots whose center lies within two widths
    of another ion's center on the same projection axis.
    """

    ion_index: int
    axis: str  # "axial" or "radial"
    profile: np.ndarray  # (n, 2): pixel coordinate, counts
    fitted_sigma: float  # m
    sigma_ci95: float  # m, half-width
    overlapping: bool = False


@dataclass(frozen=True, eq=False)
class TemperatureEstimate:
    T: float  # K
    ci95: float  # K, half-width
    per_ion_residuals: np.ndarray  # m^2, one per spot used


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
        raise DomainError("temperature must be non-negative")
    return cn.KB * T / (species.mass * trap.omega_z ** 2) * gamma ** 2 \
        + sigma_res ** 2


def _gauss(x, a, c, s, b):
    return a * np.exp(-0.5 * ((x - c) / s) ** 2) + b


# fewest (pixel, counts) samples a 4-parameter Gaussian fit accepts
_MIN_SAMPLES = 5


def fit_gaussian_profile(profile, pixel_pitch=1.0):
    """Least-squares Gaussian fit A exp(-(x-c)^2/(2 sigma^2)) + B.

    profile is a sequence of (pixel, counts) pairs; results are scaled by
    pixel_pitch so they come back in meters when the pitch is given (and
    in pixel units for the default pitch of 1). Confidence intervals are
    95% from the linearized covariance at the optimum, scaled by the
    reduced chi-square. An unweighted fit is followed by a second one
    with Poisson weights from the first fit's model (weights frozen, so
    the estimate stays unbiased); the chi-square scaling makes the
    intervals insensitive to an overall gain.

    Raises DegenerateFitError for a constant profile or a width collapsing
    below a quarter pixel, FitConvergenceError if the solver stalls.
    """
    arr = np.asarray(list(profile), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < _MIN_SAMPLES:
        raise DegenerateFitError(
            f"need at least {_MIN_SAMPLES} (pixel, counts) samples to fit "
            "a Gaussian")
    x, y = arr[:, 0], arr[:, 1]
    if np.ptp(y) == 0.0:
        raise DegenerateFitError("constant profile has no peak to fit")

    b0 = float(np.min(y))
    a0 = float(np.max(y) - b0)
    c0 = float(x[np.argmax(y)])
    wsum = max(float(np.sum(y - b0)), 1e-12)
    s0 = math.sqrt(max(float(np.sum((y - b0) * (x - c0) ** 2)) / wsum, 0.25))

    def make_funcs(sig):
        def resid(p):
            return (_gauss(x, *p) - y) / sig

        def jac(p):
            a, c, s, _ = p
            u = (x - c) / s
            e = np.exp(-0.5 * u * u)
            return np.column_stack([e, a * e * u / s, a * e * u * u / s,
                                    np.ones_like(x)]) / sig[:, None]
        return resid, jac

    resid, jac = make_funcs(np.ones_like(y))
    res = least_squares(resid, [a0, c0, s0, b0], jac, tol=1e-14,
                        max_nfev=2000)
    if not res.success:
        raise FitConvergenceError(f"Gaussian fit did not converge: {res.message}")
    sig = np.sqrt(np.maximum(_gauss(x, *res.x), 1.0))
    resid, jac = make_funcs(sig)
    res = least_squares(resid, res.x, jac, tol=1e-14, max_nfev=2000)
    if not res.success:
        raise FitConvergenceError(
            f"weighted Gaussian fit did not converge: {res.message}")
    a, c, s, b = res.x
    s = abs(s)
    if s < 0.25:  # below a quarter pixel the model is unresolvable
        raise DegenerateFitError(
            f"fitted width {s:.3g} px is below pixel_pitch/4")

    dof = max(len(y) - 4, 1)
    s2 = 2.0 * res.cost / dof
    jtj = res.jac.T @ res.jac
    try:
        cov = s2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = s2 * np.linalg.pinv(jtj)
    ci = 1.96 * np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return GaussianFit(
        center=c * pixel_pitch,
        sigma=s * pixel_pitch,
        amplitude=a,
        offset=b,
        ci95=(ci[1] * pixel_pitch, ci[2] * pixel_pitch, ci[0], ci[3]),
    )


def _spot_gamma(spot, gamma):
    table = gamma.axial if spot.axis == "axial" \
        else gamma.gamma_radial_projected
    if not 0 <= spot.ion_index < len(table):
        raise DomainError(f"spot ion_index {spot.ion_index} is outside "
                          f"[0, {len(table)})")
    return float(table[spot.ion_index])


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
    used = [s for s in spots
            if s.axis == "axial" or (include_radial and s.axis == "radial")]
    if not used:
        raise DomainError("no usable spots (axial missing and radial excluded)")

    g2 = np.array([_spot_gamma(s, gamma) ** 2 for s in used])
    v = np.array([s.fitted_sigma ** 2 for s in used])
    res2 = np.array([imaging.sigma_res(s.axis) ** 2 for s in used])
    t = v - res2

    dsig = np.array([s.sigma_ci95 / 1.96 for s in used])
    var_v = (2.0 * np.sqrt(v) * dsig) ** 2
    if np.all(var_v == 0.0) or not np.any(np.isfinite(var_v)):
        w = np.ones_like(v)
        exact_weights = False
    else:
        with np.errstate(divide="ignore"):
            w = 1.0 / var_v
        w[~np.isfinite(var_v)] = 0.0  # infinite-CI spots carry no weight
        exact_weights = True
        if not np.any(w > 0):
            w = np.ones_like(v)
            exact_weights = False

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
    """
    if T < 0:
        raise DomainError("temperature must be non-negative")
    species = _default_species(species)
    rng = np.random.default_rng(seed)
    pitch = imaging.pixel_pitch
    pos = np.asarray(state.positions, dtype=float)
    n = pos.shape[0]

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
            counts = rng.poisson(expected).astype(float) if noise else expected
            profiles.append((m, axis, np.column_stack([px, counts])))
    return [replace(spot, overlapping=flag) for spot, flag
            in zip(fit_spot_profiles(profiles, imaging), overlapping)]


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
    Malformed content raises SpotParseError naming the offending line: a
    wrong header or field count, a non-integer or negative ion_index, an
    unknown axis, a pixel or counts value that is not a finite number,
    negative counts, or (naming the group's first line) a group of fewer
    than 5 rows, too few for the Gaussian fit.
    """
    groups = {}
    first_line = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SpotParseError("line 1: empty file, expected header "
                                 + ",".join(_HEADER)) from None
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
    for (ion, axis), rows in groups.items():
        if len(rows) < _MIN_SAMPLES:
            raise SpotParseError(
                f"line {first_line[ion, axis]}: spot group (ion_index {ion}, "
                f"axis {axis}) has {len(rows)} rows; the Gaussian fit needs "
                f"at least {_MIN_SAMPLES}")
    return [(ion, axis, np.asarray(rows, dtype=float))
            for (ion, axis), rows in groups.items()]


def write_spot_profiles(spots, path):
    """Write the raw profiles of SpotMeasurements to CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADER)
        for spot in spots:
            for pixel, counts in np.asarray(spot.profile, dtype=float):
                writer.writerow([spot.ion_index, spot.axis, "%.9g" % pixel,
                                 "%.9g" % counts])


def fit_spot_profiles(profiles, imaging):
    """Fit raw (ion, axis, profile) triples into SpotMeasurements."""
    out = []
    for ion, axis, prof in profiles:
        fit = fit_gaussian_profile(prof, pixel_pitch=imaging.pixel_pitch)
        out.append(SpotMeasurement(
            ion_index=ion, axis=axis, profile=np.asarray(prof, dtype=float),
            fitted_sigma=fit.sigma, sigma_ci95=fit.ci95[1]))
    return out
