"""Excess-micromotion estimates from the pseudo-potential picture.

An ion displaced from the rf null by u0 along a direction with Mathieu
parameter q oscillates at the drive frequency with amplitude
A = u0 q / 2, carrying kinetic energy E = (1/4) M Omega_rf^2 A^2
(time-averaged), quoted here as an equivalent temperature T = 2 E / kB.
Off-axis ions in planar or three-dimensional crystals therefore pick up
hundreds of millikelvin of coherent motion even when the secular degrees
of freedom are laser-cooled - the estimate that matters when judging
whether a structural transition survives the rf drive.

Axial micromotion is normally parasitic: either a measured q_axial is
supplied with the trap, or the second-order effective value
q'_z = (q_radial / 4)^2 stands in for it.
"""

import math

import numpy as np

from . import _EXPORTS, constants as cn
from .crystal import _positions
from .errors import DomainError
from .pendulum import _default_species, _real

__all__ = list(_EXPORTS["micromotion"])


class MicromotionReport:
    """Per-ion, per-axis micromotion amplitudes and energies.

    Arrays are (N, 3) over x, y, z. equivalent_temperature is 2 E / kB,
    the temperature a thermal mode of the same mean kinetic energy would
    have. variance_broadening_factor multiplies radial position variances
    seen by time-averaged imaging (1 + q^2/8).
    """

    __slots__ = ("amplitude", "kinetic_energy", "equivalent_temperature",
                 "q_radial", "effective_q_axial", "variance_broadening_factor")

    def __init__(self, amplitude, kinetic_energy, equivalent_temperature,
                 q_radial, effective_q_axial, variance_broadening_factor):
        self.amplitude = amplitude  # m
        self.kinetic_energy = kinetic_energy  # J
        self.equivalent_temperature = equivalent_temperature  # K
        self.q_radial = q_radial
        self.effective_q_axial = effective_q_axial
        self.variance_broadening_factor = variance_broadening_factor


def q_from_secular_frequency(omega_sec, omega_rf):
    """Lowest-order Mathieu parameter q = 2 sqrt(2) omega_sec / Omega_rf.

    Valid only well inside the stability region: omega_sec must sit below
    Omega_rf / 2, otherwise the expansion is meaningless and this raises.
    """
    if not 0 < omega_rf < math.inf:  # NaN fails too
        raise DomainError("omega_rf must be positive and finite")
    if not 0 <= omega_sec <= math.inf:
        raise DomainError("omega_sec must be non-negative")
    if omega_sec >= omega_rf / 2.0:
        raise DomainError(
            f"omega_sec = {omega_sec:.4g} rad/s is not below Omega_rf/2 = "
            f"{omega_rf / 2.0:.4g} rad/s; the pseudo-potential expansion "
            "does not apply")
    return 2.0 * math.sqrt(2.0) * omega_sec / omega_rf


def effective_axial_q(q_radial):
    """Second-order axial drive parameter q'_z = (q_radial / 4)^2."""
    q_radial = _real(q_radial)
    if not (q_radial >= 0 and q_radial * q_radial < math.inf):  # NaN too
        raise DomainError("q_radial must be non-negative with a finite square")
    return (q_radial / 4.0) ** 2


def variance_broadening(q):
    """Apparent position-variance inflation 1 + q^2/8 from micromotion."""
    q = _real(q)
    if not (q >= 0 and q * q < math.inf):  # NaN fails too
        raise DomainError("q must be non-negative, with a finite square")
    return 1.0 + q * q / 8.0


def excess_micromotion(state, trap, species=None):
    """Micromotion report for every ion of an equilibrium structure.

    Radial axes use the trap's q_radial (configured, or derived from the
    mean radial secular frequency); the axial channel uses q_axial when
    it was configured nonzero and the effective (q_radial/4)^2 otherwise.
    """
    species = _default_species(species)
    q_rad = trap.q_radial_effective
    q_ax = trap.q_axial if trap.q_axial > 0 else effective_axial_q(q_rad)
    q_vec = np.array([q_rad, q_rad, q_ax])

    pos = _positions(state.positions, "state.positions")
    amp = np.abs(pos) * (q_vec[None, :] / 2.0)
    ekin = 0.25 * species.mass * trap.omega_rf ** 2 * amp ** 2
    return MicromotionReport(
        amplitude=amp,
        kinetic_energy=ekin,
        equivalent_temperature=2.0 * ekin / cn.KB,
        q_radial=q_rad,
        effective_q_axial=q_ax,
        variance_broadening_factor=variance_broadening(q_rad),
    )
