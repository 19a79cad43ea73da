"""Crystal-scale scattering statistics.

A stored crystal sits in a Gaussian lattice beam propagating along the
trap axis, so each ion sees a depth reduced by its radial offset:
U0,i = U0 exp(-2 (x_i^2 + y_i^2)/w^2). Single-ion scattering
probabilities (pendulum.scattering_probability, each ion with its own
scaled ramp) combine into the per-ion mean p, the binomial distribution
of scatter counts across the crystal, and the fraction of detection
sequences that are not the first to scatter,

    f = 1 - (1 - (1 - p)^N) / (N p),

which is the experimentally visible contamination of "fresh" events.
"""

import math
import operator

import numpy as np

from . import _EXPORTS, constants as cn
from .crystal import _positions
from .errors import DomainError
# bench/tracer.py reads bunching and scattering_probability in this module
from .pendulum import (  # noqa: F401
    _bunching_vec,
    _check_t0_u0,
    _scattering_probabilities,
    _square,
    bunching,
    lattice_frequency,
    scattering_probability,
)

__all__ = list(_EXPORTS["ensemble"])


class BeamProfile:
    """Gaussian lattice beam along the trap z axis."""

    __slots__ = ("waist_radius",)

    def __init__(self, waist_radius):
        self.waist_radius = waist_radius  # m, 1/e^2 intensity radius
        # depth_factor divides by its square
        if not 0 < _square(self.waist_radius) < math.inf:
            raise DomainError(
                "waist_radius must be positive, and its square inside the "
                "float range")

    def depth_factor(self, positions):
        """Per-ion relative depth from the radial offsets (N,) in [0, 1]."""
        pos = _positions(positions)
        r2 = pos[:, 0] ** 2 + pos[:, 1] ** 2
        return np.exp(-2.0 * r2 / self.waist_radius ** 2)


class ScatteringScenario:
    """Everything one detection sequence needs.

    crystal: equilibrium CrystalState (positions set the depth factors),
    lattice: LatticeConfig at full depth, ramp: how it is switched on,
    T0: pre-lattice ion temperature, pumping_efficiency_per_ion: initial
    occupancy of the lattice-coupled state.
    """

    __slots__ = ("crystal", "species", "lattice", "ramp", "T0",
                 "pumping_efficiency_per_ion")

    def __init__(self, crystal, species, lattice, ramp, T0,
                 pumping_efficiency_per_ion=1.0):
        self.crystal = crystal
        self.species = species
        self.lattice = lattice
        self.ramp = ramp
        self.T0 = T0  # K
        self.pumping_efficiency_per_ion = pumping_efficiency_per_ion
        if not self.T0 > 0:  # NaN fails too
            raise DomainError("T0 must be positive")
        if not 0.0 <= self.pumping_efficiency_per_ion <= 1.0:
            raise DomainError("pumping efficiency must lie in [0, 1]")

    @property
    def n_ions(self):
        return self.crystal.positions.shape[0]


def per_ion_depths(crystal, lattice, beam):
    """Signed per-ion depth (N,) in J: U0 * exp(-2 r_i^2 / w^2)."""
    return lattice.depth_U0 * beam.depth_factor(crystal.positions)


def mean_scattering_probability_per_ion(scenario, beam, delocalized=False):
    """Arithmetic mean over ions of the single-ion scattering probability.

    Each ion's ramp is rescaled by its beam depth factor; ions on the
    axis reproduce the single-ion value exactly. delocalized=True swaps
    in the uniform-position baseline (standing-wave factor 1/2).
    """
    return float(_mean_probabilities(
        scenario, beam, [scenario.ramp.u0_max],
        None if delocalized else scenario.T0)[0])


def _mean_probabilities(scenario, beam, peaks, T0):
    """Ion-mean scattering probability for each on-axis ramp peak (J),
    at initial temperature T0 (None: delocalized).

    Ions whose depth factors agree to 1e-12 relative (mirror images of
    one another, which the solver places equal only up to rounding)
    share one evaluation at the group's smallest factor, weighted by
    their count; one call into the array path covers every peak.
    """
    f = np.sort(beam.depth_factor(scenario.crystal.positions))
    first = np.concatenate([[True], np.diff(f) > 1e-12 * f[1:]])
    factors = f[first]
    counts = np.diff(np.append(np.flatnonzero(first), len(f)))
    # warnings name the line that called the public function calling this
    p = _scattering_probabilities(
        scenario.ramp.t_end, T0, scenario.ramp,
        np.multiply.outer(peaks, factors), scenario.lattice,
        scenario.species, p0=scenario.pumping_efficiency_per_ion,
        stacklevel=4)
    return p @ counts / counts.sum()


def _ion_count(n_ions):
    # at least 1, and an int: operator.index refuses 3.5 and 2.0 alike
    n_ions = operator.index(n_ions)
    if n_ions < 1:
        raise DomainError("need at least one ion")
    return n_ions


def scatter_count_pmf(n_ions, p):
    """Binomial pmf over the number of ions that scattered, length N+1."""
    n_ions = _ion_count(n_ions)
    if not 0.0 <= p <= 1.0:
        raise DomainError("per-ion probability must lie in [0, 1]")
    k = np.arange(n_ions + 1)
    if p == 0.0 or p == 1.0:  # all mass at k = 0 or k = N, exactly
        return (k == n_ions * p).astype(float)
    # the ratios t[k+1]/t[k] = (N - k)/(k + 1) * p/q, multiplied out from
    # the mode (the largest term) and normalized: no float C(N, k), which
    # overflows from N = 1030, and a term is off by ~|k - mode| roundings
    mode = min(int((n_ions + 1) * p), n_ions)
    ratio = (n_ions - k[:-1]) / (k[:-1] + 1) * (p / (1.0 - p))
    t = np.ones(n_ions + 1)
    t[mode + 1:] = np.cumprod(ratio[mode:])
    t[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    return t / t.sum()


def subsequent_fraction(n_ions, p):
    """Fraction of scattering sequences that were not the crystal's first.

    f = 1 - (1 - (1-p)^N) / (N p), the complement of the chance that a
    uniformly chosen scattering ion was the earliest among N independent
    attempts. Evaluated via expm1/log1p so the p -> 0 limit is a clean 0;
    f -> 1 - 1/N as p -> 1.
    """
    n_ions = _ion_count(n_ions)
    if not 0.0 <= p <= 1.0:
        raise DomainError("per-ion probability must lie in [0, 1]")
    if p == 0.0 or n_ions == 1:
        return 0.0
    if p == 1.0:  # log1p(-1) diverges; the limit itself is finite
        return 1.0 - 1.0 / n_ions
    return 1.0 + math.expm1(n_ions * math.log1p(-p)) / (n_ions * p)


def scan_depth(scenario, beam, depth_grid):
    """Sweep the final lattice depth; one row per grid point.

    Returns a list of dicts with keys depth (J), nu_latt (Hz, on-axis
    final depth), p_per_ion, subsequent_fraction, and bunching (the
    single-ion localization at the on-axis depth; 1/2 at zero depth).
    Ramp shape and timings are held fixed while the ramp peaks at each
    grid depth in turn.
    """
    depths = np.asarray(depth_grid, dtype=float)
    if np.any(depths < 0):
        raise DomainError("depth grid entries must be non-negative")
    live = depths > 0.0
    theta = _check_t0_u0(scenario.T0, depths[live])
    p = _mean_probabilities(scenario, beam, depths, scenario.T0)
    b = np.full(depths.shape, 0.5)
    b[live] = _bunching_vec(theta)
    n = scenario.n_ions
    return [{
        "depth": float(depth),
        "nu_latt": lattice_frequency(depth / cn.KB, scenario.species,
                                     scenario.lattice.wavevector_k),
        "p_per_ion": float(p_i),
        "subsequent_fraction": subsequent_fraction(n, float(p_i)),
        "bunching": float(b_i),
    } for depth, p_i, b_i in zip(depths, p, b)]
