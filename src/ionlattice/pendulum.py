"""Single-ion pendulum model of an optical standing wave.

An ion prepared in a thermal state (temperature T0) experiences, once the
lattice beams are on, the 1-D potential U(z) = U0 sin^2(kz): the classical
pendulum. If the depth is ramped slowly compared to the oscillation period
the action of the trajectory is conserved, so the action distribution of
the initial ideal gas fixes the statistics at any later depth. Everything
downstream (energy distribution, position statistics, bunching parameter,
photon-scattering probability during the ramp) follows from that invariant
plus complete elliptic integrals.

Conventions
-----------
* All elliptic integrals use the parameter m (see specfun).
* Dimensionless action: s(E) rises from 0 at the well bottom, reaches
  4/pi at the separatrix E = U0, and grows like 2 sqrt(E/U0) far above it.
* Normalized period tau(E) is the trajectory period in units of the
  small-oscillation period 1/nu_latt. Above the barrier the "period" is
  the transit time across one lattice cell (length pi/k), which is the
  unique reading consistent with tau = ds/d(E/U0) on both branches.
* Densities are normalized over one lattice well kz in [-pi/2, pi/2].
  sin^2 has period pi, so averages over [-pi, pi] are identical.
"""

import math
import warnings

import numpy as np

from . import _EXPORTS, constants as cn
from .errors import (
    AdiabaticityWarning,
    DomainError,
    SeparatrixError,
    TurningPointError,
)
# bench/tracer.py reads elliptic_e, elliptic_k and
# integrate_with_endpoint_singularity in this module (and wraps
# mean_scattering_rate, defined below)
from .specfun import (  # noqa: F401
    _ellipk_deficit_vec,
    _exp_sinh,
    _tanh_sinh,
    elliptic_e,
    elliptic_k,
    integrate_with_endpoint_singularity,
)

__all__ = list(_EXPORTS["pendulum"])

_4_OVER_PI = 4.0 / math.pi
_SQRT_PI = math.sqrt(math.pi)


# ----------------------------------------------------------------------
# parameter bundles


def _real(x):
    """x as a Python float, whose * and / overflow to inf where a numpy
    scalar's warn. A str raises TypeError, as arithmetic does."""
    return float(+x)


class IonSpecies:
    """Atomic constants of the trapped species.

    The decay rates and branching fractions are configuration inputs with
    literature defaults for Ca-40, not hard-coded truths: gamma_397 is the
    partial P1/2 -> S1/2 rate (the detected 397 nm photons).
    """

    __slots__ = ("mass", "lattice_transition_wavelength",
                 "detection_wavelength", "gamma_p_total", "gamma_397")

    def __init__(self, mass,
                 lattice_transition_wavelength=cn.CA40_LATTICE_WAVELENGTH,
                 detection_wavelength=cn.CA40_DETECTION_WAVELENGTH,
                 gamma_p_total=cn.CA40_GAMMA_P,
                 gamma_397=cn.CA40_BRANCHING_397 * cn.CA40_GAMMA_P):
        self.mass = _real(mass)  # kg
        self.lattice_transition_wavelength = _real(
            lattice_transition_wavelength)
        self.detection_wavelength = _real(detection_wavelength)
        self.gamma_p_total = _real(gamma_p_total)
        self.gamma_397 = _real(gamma_397)
        if not self.mass > 0:  # NaN fails too
            raise DomainError("ion mass must be positive")
        if not (self.lattice_transition_wavelength > 0
                and self.detection_wavelength > 0):
            raise DomainError("wavelengths must be positive")
        k = self.lattice_wavevector
        if not 0 < k * k < math.inf:  # the model forms k^2 and (k l)^2
            raise DomainError(
                f"lattice wavelength {lattice_transition_wavelength!r} m: "
                "the square of its wavevector 2 pi/lambda leaves the float "
                "range")
        if not 0 < self.gamma_397 <= self.gamma_p_total:
            raise DomainError("need 0 < gamma_397 <= gamma_p_total")

    @classmethod
    def ca40(cls):
        return cls(mass=cn.CA40_MASS)

    @property
    def lattice_wavevector(self):
        return 2.0 * math.pi / self.lattice_transition_wavelength


def _default_species(species):
    """species, or Ca-40 when it is None."""
    return species if species is not None else IonSpecies.ca40()


class LatticeConfig:
    """Standing-wave parameters.

    depth_U0 is signed: positive for a blue-detuned lattice (ions collect
    at intensity nodes), negative for red. detuning is the lattice beam's
    detuning from the coupled transition and must carry the same sign.
    """

    __slots__ = ("depth_U0", "wavevector_k", "detuning")

    def __init__(self, depth_U0, wavevector_k, detuning=0.0):
        self.depth_U0 = _real(depth_U0)  # J, signed
        self.wavevector_k = _real(wavevector_k)  # 1/m
        self.detuning = _real(detuning)  # rad/s, sign = blue/red
        if not 0 < self.wavevector_k < math.inf:  # NaN fails too
            raise DomainError("wavevector_k must be positive and finite")
        if not (math.isfinite(self.depth_U0) and math.isfinite(self.detuning)):
            raise DomainError("depth_U0 and detuning must be finite")
        if self.depth_U0 * self.detuning < 0:
            raise DomainError(
                "depth_U0 and detuning must carry the same sign "
                "(U0 = hbar*Omega^2/(4*Delta))")

    @property
    def depth(self):
        """Well depth |U0| in J."""
        return abs(self.depth_U0)

    @property
    def t_latt(self):
        """Depth expressed as a temperature |U0|/kB."""
        return self.depth / cn.KB

    @property
    def is_blue(self):
        sign = self.detuning if self.detuning != 0 else self.depth_U0
        return sign >= 0

    @property
    def rabi(self):
        """Antinode Rabi frequency Omega = sqrt(4 Delta U0 / hbar)."""
        return math.sqrt(4.0 * self.detuning * self.depth_U0 / cn.HBAR)

    def vibrational_frequency(self, species):
        """nu_latt (Hz) for the given species at this depth."""
        return lattice_frequency(self.t_latt, species, self.wavevector_k)


class RampProfile:
    """Depth schedule |U0|(t): a ramp over [0, ramp_duration] followed by a
    hold at u0_max for hold_duration. Shape "linear" is linear in depth;
    "smoothstep" uses 3x^2-2x^3 for a differentiable turn-on."""

    __slots__ = ("u0_max", "ramp_duration", "hold_duration", "shape")

    def __init__(self, u0_max, ramp_duration, hold_duration, shape="linear"):
        self.u0_max = _real(u0_max)  # J, depth at the end of the ramp
        self.ramp_duration = _real(ramp_duration)  # s
        self.hold_duration = _real(hold_duration)  # s
        self.shape = shape
        if not self.u0_max >= 0:  # NaN fails too
            raise DomainError("u0_max is a depth magnitude, must be >= 0")
        if not (self.ramp_duration >= 0 and self.hold_duration >= 0):
            raise DomainError("durations must be non-negative")
        if self.shape not in ("linear", "smoothstep"):
            raise DomainError(f"unknown ramp shape {self.shape!r}")

    @property
    def t_end(self):
        return self.ramp_duration + self.hold_duration

    def depth(self, t):
        """|U0| at time t; t must lie in [0, t_end]."""
        if not 0 <= t <= self.t_end:  # NaN fails too
            raise DomainError(f"t={t!r} outside ramp domain [0, {self.t_end}]")
        if t >= self.ramp_duration:
            return self.u0_max
        return self.u0_max * self.fraction(t / self.ramp_duration)

    def fraction(self, x):
        """|U0|/u0_max at x = t/ramp_duration in [0, 1]; elementwise."""
        if self.shape == "smoothstep":
            return x * x * (3.0 - 2.0 * x)
        return x


# ----------------------------------------------------------------------
# pendulum kinematics


def lattice_frequency(T_latt, species, k):
    """Small-oscillation frequency nu_latt (Hz) at depth kB*T_latt.

    nu_latt = (k/2pi)*sqrt(2 kB T_latt / M): expanding U0 sin^2(kz) about
    a well bottom gives an angular frequency k*sqrt(2 U0/M).
    """
    T_latt = _real(T_latt)
    if not T_latt >= 0:  # NaN fails too
        raise DomainError("T_latt must be non-negative")
    nu = k / (2.0 * math.pi) * math.sqrt(2.0 * cn.KB * T_latt / species.mass)
    if not nu < math.inf:
        raise DomainError(f"T_latt = {T_latt!r} K gives no finite nu_latt")
    return nu


def _depth_for_nu(nu, species, k):
    # |U0| = M (2 pi nu)^2 / (2 k^2), the inverse of lattice_frequency
    return species.mass * (2.0 * math.pi * nu) ** 2 / (2.0 * k * k)


def dimensionless_action(E, U0):
    """Action of the trajectory with energy E, in units of U0/nu_latt.

    Continuous and monotone in E, with s(U0) = 4/pi at the separatrix.
    Below the barrier s = (4/pi)[E(m) - (1-m)K(m)], m = E/U0; above it
    s = (4/pi)sqrt(E/U0) E(U0/E).
    """
    return _orbit_at(E, U0)[0]


def normalized_period(E, U0):
    """Trajectory period over the small-oscillation period 1/nu_latt.

    tau = (2/pi) K(E/U0) below the barrier. Above it the relevant period
    is the transit time over one lattice cell, tau = (2/pi) sqrt(U0/E)
    K(U0/E); this branch is fixed (against a typographically ambiguous
    alternative) by requiring tau = ds/d(E/U0), which holds analytically,
    and by the free-flight limit tau -> sqrt(U0/E).
    """
    return _orbit_at(E, U0, period=True)[1]


def _orbit_at(E, U0, period=False):
    """s, tau and <sin^2> (floats) on the trajectory with energy E at depth
    U0. At the separatrix E = U0 they are 4/pi, inf and 1, or, where the
    caller needs the period, a SeparatrixError. E/U0 must be finite.
    """
    if not U0 > 0:  # NaN fails too
        raise DomainError("U0 must be positive")
    if not 0 <= E < math.inf:  # U0 = inf is the exact limit, E = inf not
        raise DomainError("E must be non-negative and finite")
    x = _real(E) / _real(U0)
    if not x < math.inf:
        raise DomainError(
            f"E/U0 leaves the float range at E = {E!r} J, U0 = {U0!r} J")
    if x == 1.0:
        if period:
            raise SeparatrixError(
                "trajectory period diverges at the separatrix E = U0")
        return _4_OVER_PI, math.inf, 1.0
    return tuple(map(float, _orbit(x, abs(x - 1.0))))


def action_density(s, T0, U0):
    """Density of the dimensionless action in the initial thermal gas.

    Half-Gaussian: exp(-s^2/(4 theta))/sqrt(pi theta) with
    theta = kB T0/U0. Conserved under adiabatic depth changes.
    """
    theta = _check_t0_u0(T0, U0)
    s = _real(s)
    if not 0 <= s <= math.inf:  # NaN fails too
        raise DomainError("dimensionless action must be non-negative")
    return math.exp(-s * s / (4.0 * theta)) / math.sqrt(math.pi * theta)


def energy_density(E, T0, U0):
    """Energy density P(E) at depth U0 for an initial temperature T0.

    P(E) = exp(-s(E)^2 U0/(4 kB T0)) / (U0 sqrt(pi kB T0/U0)) * tau(E).
    Diverges logarithmically (integrably) at E = U0; integrate across it
    with the singular point declared.
    """
    theta = _check_t0_u0(T0, U0)
    s, tau, _ = _orbit_at(E, U0, period=True)
    return math.exp(-s * s / (4.0 * theta)) / (U0 * math.sqrt(math.pi * theta)) * tau


def position_density_given_energy(kz, E, U0):
    """Dwell-time density of the phase kz on a trajectory of energy E.

    P(kz|E) = 1/(pi tau(E) sqrt(E/U0 - sin^2 kz)), normalized to one over
    a single well kz in [-pi/2, pi/2] (and periodic beyond it). Below the
    barrier the trajectory never reaches sin^2(kz) >= E/U0; asking for the
    density there is a domain error rather than silently zero.
    """
    tau = normalized_period(E, U0)  # validates E, U0; raises on separatrix
    m = E / U0
    sin2 = math.sin(kz) ** 2
    if m < 1.0 and sin2 >= m:
        raise TurningPointError(
            f"kz={kz!r} lies beyond the turning point sin^2(kz) = E/U0 = {m}")
    return 1.0 / (math.pi * tau * math.sqrt(m - sin2))


def bunching_given_energy(E, U0):
    """Time average of sin^2(kz) on the trajectory with energy E.

    1 - E(m)/K(m) with m = E/U0 below the barrier and, above it,
    (E/U0)(1 - E(m)/K(m)) with m = U0/E. Rises from 0 (well bottom)
    through 1 at the separatrix and relaxes to 1/2 (delocalized).
    """
    return _orbit_at(E, U0)[2]


def bunching(T0, U0):
    """Thermal bunching parameter B = integral P(E) <sin^2>(E) dE.

    B in [0, 1/2]: sqrt(theta/pi)(1 + theta/16) deep in the well, with
    theta = kB T0/U0, and -> 1/2 when the lattice is a small
    perturbation. Fixed double-exponential rules give it to 2e-11
    relative for theta up to 1e-2, and to 3e-12 absolute up to 1e5.
    """
    return float(_bunching_vec(_check_t0_u0(T0, U0)))


def _orbit(x, d):
    """Action s, period tau and <sin^2> at energy ratios x = E/U0 (arrays).

    d = |x - 1| > 0 comes separately, at its full relative precision.
    """
    above = x > 1.0
    x_above = np.where(above, x, 1.0)
    m = np.where(above, 1.0 / x_above, x)
    k, deficit = _ellipk_deficit_vec(m, np.where(above, d / x_above, d))
    root = np.sqrt(x_above)
    # E = K (1 - deficit): s = (4/pi)(E - (1-m)K) below, (4/pi)sqrt(x)E above
    s = _4_OVER_PI * k * np.where(above, root * (1.0 - deficit), m - deficit)
    return s, (2.0 / math.pi) * k / root, x_above * deficit


# B(theta) integrates exp(-s^2/(4 theta)) tau <sin^2> / sqrt(pi theta) over
# x = E/U0 with fixed double-exponential rules, split at the separatrix
# where tau diverges logarithmically: tanh-sinh on x in (0, 1) and
# exp-sinh on x - 1 in (0, inf). As tau = ds/dx, each panel's asymptote
# integrates in closed form over the action density, with g = 2/(pi
# sqrt(theta)): <sin^2> -> s/2 at the well bottom gives sqrt(theta/pi)
# (1 - exp(-g^2)) below s = 4/pi, and -> 1/2 far above gives 1/2 erfc(g)
# above it. What is left vanishes like s^3 below and decays like x^(-3/2)
# above, whatever theta, so no node depends on theta and the orbit on all
# of them is tabulated at import. Error against the tests' oracles: under
# 2e-11 relative for theta in [1e-300, 1e-2], 3e-12 absolute up to 1e5.
_THETA_CHUNK = 128  # thetas per block, bounding the (theta, node) arrays
# one tanh-sinh rule serves B's lower panel and the ramp time integral
_TS_X, _TS_D, _TS_W, _TS_W2 = _tanh_sinh(3.2)
_UP_U, _UP_W = _exp_sinh(-4.5, 3.3)  # reaches u ~ 2e9
_LOW_S, _LOW_TAU, _LOW_SIN2 = _orbit(_TS_X, _TS_D)
_UP_S, _UP_TAU, _UP_SIN2 = _orbit(1.0 + _UP_U, _UP_U)
_LOW_WEIGHT = _TS_W * _LOW_TAU * (_LOW_SIN2 - 0.5 * _LOW_S)
_UP_WEIGHT = _UP_W * _UP_TAU * (_UP_SIN2 - 0.5)


def _bunching_vec(theta):
    """B at every theta = kB T0/U0 > 0 of an array (same shape back)."""
    theta = np.asarray(theta, dtype=float)
    flat = theta.ravel()
    out = np.empty_like(flat)
    # below theta ~ 1e-308, s^2/theta and g^2 overflow to inf and the
    # Gaussians to their exact limit 0
    with np.errstate(over="ignore"):
        for start in range(0, flat.size, _THETA_CHUNK):
            th = flat[start:start + _THETA_CHUNK, None]
            lower = np.exp(-0.25 * _LOW_S ** 2 / th) @ _LOW_WEIGHT
            upper = np.exp(-0.25 * _UP_S ** 2 / th) @ _UP_WEIGHT
            root = np.sqrt(th[:, 0])  # apart from pi: exact when subnormal
            g = (2.0 / math.pi) / root
            free = np.array([math.erfc(v) for v in g.tolist()])  # no np.erfc
            # g = 0 only at theta = inf, where the limit is 0, not inf*0
            well = np.multiply(root / _SQRT_PI, -np.expm1(-g * g),
                               out=np.zeros_like(g), where=g > 0.0)
            out[start:start + _THETA_CHUNK] = (
                (lower + upper) / (_SQRT_PI * root) + 0.5 * free + well)
    return out.reshape(theta.shape)


def _check_t0_u0(T0, U0):
    """theta = kB T0/U0 for T0 (K) and depths U0 (J, float or array), by
    the model's one rule: both positive and finite, and theta > 0 at every
    depth (inf, the free limit, where it overflows)."""
    if not 0 < T0 < math.inf:  # NaN fails too
        raise DomainError("T0 must be positive and finite")
    u0 = np.asarray(U0, dtype=float)
    if not np.all((u0 > 0) & (u0 < math.inf)):
        raise DomainError("U0 must be positive and finite")
    with np.errstate(over="ignore"):  # theta = inf is the free limit
        theta = cn.KB * T0 / u0
    if not np.all(theta > 0):
        raise DomainError(
            f"theta = kB*T0/U0 underflows to 0 at T0={T0!r} K, "
            f"U0={float(np.min(u0[theta == 0]))!r} J")
    return theta


# ----------------------------------------------------------------------
# photon scattering


def scattering_rate(kz, rabi, config, species):
    """Steady-state photon-scattering rate at phase kz (two-level OBE).

    Gamma_sc = (gamma_397/2) * (Omega sin kz)^2/2
               / (Gamma_P^2/4 + (Omega sin kz)^2/2 + Delta^2)

    with Delta = config.detuning. The position dependence enters through
    the local Rabi frequency Omega*sin(kz) of the standing wave.
    """
    rabi = _real(rabi)
    if not (rabi >= 0 and rabi * rabi < math.inf):  # NaN fails too
        raise DomainError("rabi must be non-negative, with a finite square")
    if not math.isfinite(kz):
        raise DomainError("kz must be finite")
    half_o2 = 0.5 * (rabi * math.sin(kz)) ** 2
    denom = 0.25 * species.gamma_p_total ** 2 + half_o2 + config.detuning ** 2
    return 0.5 * species.gamma_397 * half_o2 / denom


def _rate_prefactor(config, species):
    """pref = gamma_397/(hbar |Delta|) (1/(J s)) of the far-detuned rate
    pref * |U0| * X, which must be finite."""
    hbar_delta = cn.HBAR * abs(config.detuning)
    pref = species.gamma_397 / hbar_delta if hbar_delta > 0.0 else math.inf
    if pref == math.inf:
        raise DomainError(
            "far-detuned mean rate needs a detuning large enough that "
            "gamma_397/(hbar |Delta|) is finite, got "
            f"{config.detuning!r} rad/s")
    return pref


def _check_rate(u0, t_up, config, species):
    """pref (1/(J s)) of the far-detuned rate pref * |U0| * X, X <= 1, by
    the model's one rule for peak depths u0 (J, float or array) of a ramp
    lasting t_up (s): the rate at each peak, and the dose over t_up (the
    ramp rule's weights add up to t_up), stay finite."""
    pref = _rate_prefactor(config, species)
    u0 = np.asarray(u0, dtype=float)
    with np.errstate(over="ignore"):  # the larger of rate and dose bound
        top = pref * u0 * max(1.0, t_up)
    if not np.all(np.isfinite(top)):
        raise DomainError(
            "the scattering rate or its dose over the ramp leaves the float "
            f"range from a depth of {float(np.min(u0[~np.isfinite(top)]))!r}"
            " J")
    return pref


def _mean_rate(depth, T0, pref, is_blue):
    """Far-detuned ensemble-mean rate pref * |U0| * X at depths |U0| > 0 (J).

    X is the thermal mean of the normalized local intensity: B for a blue
    lattice (ions pile up at the nodes), 1 - B for red; T0=None pins it
    at 1/2 (delocalized). Elementwise over an array of depths.
    """
    if T0 is None:
        return pref * depth * 0.5
    # theta = inf, where T0 is huge or a ramp node's depth underflows to
    # 0, is the free limit: B = 1/2, and the rate at depth 0 is 0
    with np.errstate(over="ignore", divide="ignore"):
        theta = cn.KB * T0 / depth
    b = _bunching_vec(theta)
    return pref * depth * (b if is_blue else 1.0 - b)


def mean_scattering_rate(t, T0, ramp, config, species):
    """Ensemble-mean scattering rate at time t of the ramp.

    Far-detuned: <Gamma_sc>(t) = pref * U0(t) * X with X the thermal mean
    of the normalized local intensity: X = B for a blue lattice (ions
    pile up at the nodes), X = 1 - B for red. The position distribution
    follows the instantaneous depth adiabatically. Returns 0 when the
    lattice is off.
    """
    u0t = np.asarray(ramp.depth(t))
    _check_t0_u0(T0, u0t[u0t > 0.0])
    if u0t <= 0.0:
        return 0.0
    pref = _check_rate(u0t, 0.0, config, species)
    return float(_mean_rate(u0t, T0, pref, config.is_blue))


def scattering_probability(t0, T0, ramp, config, species, p0=1.0):
    """Probability of at least one scattering event by time t0.

    p(t0) = p0 * (1 - exp(-integral_0^t0 <Gamma_sc> dt)); p0 is the
    initial occupancy of the lattice-coupled state (optical pumping makes
    it ~1). Warns when the ramp is fast compared to the final lattice
    period, where the conserved-action assumption degrades.
    """
    return float(_scattering_probabilities(
        t0, T0, ramp, ramp.u0_max, config, species, p0))


def delocalized_scattering_probability(t0, ramp, config, species, p0=1.0):
    """Scattering probability with the position factor pinned at 1/2.

    Reference baseline for an ion that samples the standing wave
    uniformly (no thermal localization): <sin^2 kz> = 1/2 regardless of
    depth, so blue and red coincide. Everything else matches
    scattering_probability, the tanh-sinh rule over the ramp included.
    """
    return float(_scattering_probabilities(
        t0, None, ramp, ramp.u0_max, config, species, p0))


def _scattering_probabilities(t0, T0, ramp, u0, config, species, p0=1.0,
                              *, stacklevel=3):
    """scattering_probability for every peak depth of the array u0 (J).

    Each entry follows ramp's schedule up to its own peak instead of
    ramp.u0_max. One tanh-sinh rule in t/T covers the ramp for all of
    them, its nested half-step rule estimates the error of the dose I,
    which reaches p as p0 e^(-I) dI. At most one AdiabaticityWarning
    (shallowest depth) and one RuntimeWarning (largest error in p above
    1e-8) per call, each at ``stacklevel`` as ``warnings.warn`` counts it
    from here: 3 names the caller of a public function that calls this
    one. T0=None pins <sin^2> at 1/2 (delocalized).
    """
    if not t0 >= 0:  # NaN fails this and the checks below
        raise DomainError("t0 must be non-negative")
    if not 0.0 <= p0 <= 1.0:
        raise DomainError("p0 must lie in [0, 1]")
    u0 = np.asarray(u0, dtype=float)
    if not np.all(u0 >= 0):
        raise DomainError("peak depths must be non-negative")
    live = u0 > 0.0
    if T0 is not None:
        _check_t0_u0(T0, u0[live])
        if np.any(live):
            nu_final = lattice_frequency(u0[live].min() / cn.KB, species,
                                         config.wavevector_k)
            if ramp.ramp_duration < 10.0 / nu_final:
                warnings.warn(
                    f"ramp_duration {ramp.ramp_duration:.3g} s is shorter "
                    f"than ten lattice periods ({10.0 / nu_final:.3g} s); "
                    "the adiabatic model may be unreliable",
                    AdiabaticityWarning, stacklevel=stacklevel)

    t_up = min(t0, ramp.t_end)
    if t_up <= 0.0 or not np.any(live):
        return np.zeros(u0.shape)
    pref = _check_rate(u0, t_up, config, species)
    t_ramp = min(t_up, ramp.ramp_duration)
    x_end = t_ramp / ramp.ramp_duration if t_ramp > 0.0 else 1.0
    # the ramp by the tanh-sinh rule, the hold (constant rate) as one node
    frac = np.append(ramp.fraction(_TS_X * x_end), 1.0)
    weight = np.append(t_ramp * _TS_W, t_up - t_ramp)
    depth = np.multiply.outer(u0[live], frac)
    rate = _mean_rate(depth, T0, pref, config.is_blue)
    dose = np.zeros(u0.shape)
    dose[live] = rate @ weight
    # the nested rule's error estimate of the dose, carried into p
    err = np.max(p0 * np.exp(-dose[live]) * np.abs(
        rate[:, :-1] @ (t_ramp * (_TS_W - _TS_W2))))
    if err > 1e-8:
        warnings.warn(f"scattering probability only reached an error bound "
                      f"of {err:.3g}", RuntimeWarning, stacklevel=stacklevel)
    return p0 * -np.expm1(-dose)
