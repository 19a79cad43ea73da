"""Coulomb crystals in a linear rf trap, with an optional standing wave.

Equilibrium structures and 3N normal modes of N ions in a pseudo-potential
(omega_x, omega_y, omega_z) plus the lattice term U0 sin^2(k z), and
depth-continuation of the mode spectrum with branch tracking by eigenvector
overlap.

Internally everything is dimensionless: lengths in the Coulomb length
l = (e^2/(4 pi eps0 M omega_z^2))^(1/3), frequencies in omega_z, energies
in M omega_z^2 l^2. The lattice then enters with a huge dimensionless
wavevector kappa = k*l (about 167 at 85 kHz axial for a 433 nm period),
which is why the continuation warm-starts every depth step from the
previous equilibrium: a cold solve at deep lattice would land in an
arbitrary well.

Mode bookkeeping: coordinates are stacked x-block, y-block, z-block, so
row l = a*N + m is axis a of ion m (``_by_axis`` is the one place that
unpacks it); eigenvector matrices hold one mode per column. Branches
across a depth sweep are identified by overlap, never by frequency
order, which swaps at avoided crossings.

Pair pass: the potential, gradient and Hessian share one layout of the
ion differences, a contiguous (N, N) array per axis a, indexed
d[a, j, i] = u_i - u_j. A per-ion sum over partners j is then a
reduction over j, which adds j in index order, and the distance matrix
r is exactly symmetric.
"""

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Optional

import numpy as np
# every cold solve draws its starts from numpy.random, which numpy loads
# lazily: importing it here keeps its load in start-up, out of the solve
from numpy.random import default_rng

from . import constants as cn
# bench/tracer.py wraps ``minimize`` here, so _solve_from calls it through
# this module's namespace
from ._optim import assignment, minimize
from .errors import (
    DomainError,
    EquilibriumError,
    SingularConfigurationError,
    SoftModeError,
    UnstableConfigurationError,
)
from .pendulum import _default_species, _depth_for_nu

__all__ = [
    "TrapConfig",
    "CrystalState",
    "ModeDecomposition",
    "GammaTable",
    "ContinuationResult",
    "StructureReport",
    "length_scale",
    "total_potential",
    "equilibrium",
    "normal_modes",
    "gamma_parameters",
    "continuation",
    "classify_structure",
]

_BLOCKS = {"x": 0, "y": 1, "z": 2}


def _by_axis(coordinates):
    """(..., 3, N, modes) view of (..., 3N, modes) block-stacked vectors."""
    *lead, rows, modes = coordinates.shape
    return coordinates.reshape(*lead, 3, rows // 3, modes)


@dataclass(frozen=True)
class TrapConfig:
    """Secular frequencies and rf-drive parameters of the linear trap.

    q_radial defaults to the value implied by the mean radial secular
    frequency and the drive (q = 2 sqrt(2) omega_sec/Omega_rf, lowest
    order); q_axial defaults to zero (an ideal linear trap has no axial
    rf gradient) and is set from measurement when modeling parasitic
    axial micromotion.
    """

    omega_z: float  # rad/s
    omega_x: float  # rad/s
    omega_y: float  # rad/s
    omega_rf: float = 2.0 * math.pi * 3.98e6  # rad/s
    q_radial: Optional[float] = None
    q_axial: float = 0.0

    def __post_init__(self):
        if not all(0 < w < math.inf for w in (  # NaN fails too
                self.omega_z, self.omega_x, self.omega_y, self.omega_rf)):
            raise DomainError(
                "secular and rf frequencies must be positive and finite")
        # an unset q_radial is derived from the frequencies: check that too
        derived = "derived " if self.q_radial is None else ""
        for name, q in ((derived + "q_radial", self.q_radial_effective),
                        ("q_axial", self.q_axial)):
            if not 0.0 <= q <= 0.92:
                raise DomainError(
                    f"{name} {q!r} outside the stability-sanity range "
                    "[0, 0.92]")

    @classmethod
    def from_frequencies(cls, f_z, f_radial, asymmetry=0.03, f_rf=3.98e6,
                         q_radial=None, q_axial=0.0):
        """Build from secular frequencies in Hz.

        The radial asymmetry splits omega_x/omega_y by +-asymmetry/2
        about the mean; the softer y axis then fixes the orientation of
        planar structures (default 3%, matching typical bias fields).
        """
        two_pi = 2.0 * math.pi
        return cls(
            omega_z=two_pi * f_z,
            omega_x=two_pi * f_radial * (1.0 + 0.5 * asymmetry),
            omega_y=two_pi * f_radial * (1.0 - 0.5 * asymmetry),
            omega_rf=two_pi * f_rf,
            q_radial=q_radial,
            q_axial=q_axial,
        )

    @property
    def omega_radial_mean(self):
        return 0.5 * (self.omega_x + self.omega_y)

    @property
    def q_radial_effective(self):
        """Configured q_radial, or 2 sqrt(2) omega_sec/Omega_rf if unset."""
        if self.q_radial is not None:
            return self.q_radial
        return 2.0 * math.sqrt(2.0) * self.omega_radial_mean / self.omega_rf


@dataclass(frozen=True, eq=False)
class CrystalState:
    """A converged stationary configuration.

    gradient_norm is the dimensionless max-norm of the potential gradient
    at the solution; is_saddle flags stationary points whose Hessian has a
    negative eigenvalue beyond tolerance (reported, never re-seeded).
    """

    positions: np.ndarray  # (N, 3), m
    potential_value: float  # J
    lattice_depth: float  # J, signed; 0 when no lattice
    gradient_norm: float
    is_saddle: bool = False


@dataclass(frozen=True, eq=False)
class ModeDecomposition:
    """3N normal modes at one configuration.

    eigenvalues are the dimensionless Hessian spectrum (potential
    curvature over M omega_z^2), ascending; frequencies = omega_z
    sqrt(lambda) in rad/s; coordinates[l, p] is component l of mode p
    with the x/y/z block stacking.
    """

    eigenvalues: np.ndarray  # (3N,)
    frequencies: np.ndarray  # (3N,), rad/s
    coordinates: np.ndarray  # (3N, 3N)

    @property
    def n_ions(self):
        return self.coordinates.shape[0] // 3

    @property
    def by_axis(self):
        """(3, N, 3N) view of coordinates: [axis, ion, mode]."""
        return _by_axis(self.coordinates)

    def block_weight(self, block):
        """Per-mode weight in one coordinate block ('x', 'y' or 'z')."""
        rows = self.by_axis[_BLOCKS[block]]
        return np.sum(rows * rows, axis=0)


@dataclass(frozen=True, eq=False)
class GammaTable:
    """Per-ion thermal-excursion factors.

    gamma[m, a] relates ion m's position variance along axis a to the
    single-ion value at omega_z: <du^2> = (kB T/(M omega_z^2)) gamma^2.
    gamma_radial_projected[m] is the same for the 45-degree camera
    projection of the two radial axes.
    """

    gamma: np.ndarray  # (N, 3)
    gamma_radial_projected: np.ndarray  # (N,)

    @property
    def axial(self):
        return self.gamma[:, 2]


@dataclass(frozen=True, eq=False)
class StructureReport:
    """Geometric classification of a crystal.

    kind is 'linear', 'planar' or 'three-dimensional'. For non-linear
    structures the reference plane is the axis-containing plane holding
    the most ions; out_of_plane_count counts the ions off that plane.
    """

    kind: str
    out_of_plane_count: int
    plane_angle: float  # rad, orientation of the reference plane, y=soft


def length_scale(trap, species):
    """Coulomb length l = (e^2/(4 pi eps0 M omega_z^2))^(1/3)."""
    if trap.omega_z <= 0:
        raise DomainError("omega_z must be positive")
    return (cn.COULOMB / (species.mass * trap.omega_z ** 2)) ** (1.0 / 3.0)


@lru_cache(maxsize=16)
def _strict_upper(n):
    """Read-only (n, n) array, 1 above the diagonal and 0 elsewhere."""
    mask = np.triu(np.ones((n, n)), k=1)
    mask.flags.writeable = False
    return mask


class _Dimensionless:
    """Scaled potential, gradient and Hessian for one (trap, lattice)."""

    def __init__(self, trap, lattice, species):
        self.ell = length_scale(trap, species)
        self.energy_unit = species.mass * trap.omega_z ** 2 * self.ell ** 2
        self.alpha2 = np.array([
            (trap.omega_x / trap.omega_z) ** 2,
            (trap.omega_y / trap.omega_z) ** 2,
            1.0,
        ])
        if lattice is None:
            self.kappa = 0.0
            self.u0 = 0.0
        else:
            self.kappa = lattice.wavevector_k * self.ell
            self.u0 = lattice.depth_U0 / self.energy_unit

    def _pairs(self, u):
        """Differences d[a, j, i] = u_i - u_j, (3, N, N), and the distances
        r, exactly symmetric with a unit diagonal (so that 1/r^3 stays
        finite there)."""
        ut = np.ascontiguousarray(u.T)
        d = ut[:, None, :] - ut[:, :, None]
        r2 = d[0] * d[0]
        sq = d[1] * d[1]
        r2 += sq
        r2 += np.multiply(d[2], d[2], out=sq)
        r2.flat[::len(u) + 1] = 1.0
        return d, np.sqrt(r2, out=r2)

    def energy_and_gradient(self, u):
        """Potential and its (N, 3) gradient from one pair pass."""
        n = len(u)
        d, r = self._pairs(u)
        if r.min() < 1e-14:  # the diagonal of r is 1
            raise SingularConfigurationError(
                "two ions coincide; Coulomb energy is singular")
        w = np.divide(1.0, r)
        w *= _strict_upper(n)
        coul = w.sum()
        g = self.alpha2 * u
        harm = 0.5 * (g * u).sum()
        latt = 0.0
        if self.u0 != 0.0:
            s = np.sin(self.kappa * u[:, 2])
            latt = self.u0 * (s * s).sum()
        inv3 = np.multiply(r, r, out=w)
        inv3 *= r
        np.divide(1.0, inv3, out=inv3)
        inv3.flat[::n + 1] = 0.0
        # per-ion sums over partners j, added in index order
        d *= inv3
        g -= d.sum(axis=1).T
        if self.u0 != 0.0:
            g[:, 2] += self.u0 * self.kappa * np.sin(2.0 * self.kappa * u[:, 2])
        return harm + coul + latt, g

    def hessian(self, u):
        """(3N, 3N) Hessian in the x-block, y-block, z-block stacking."""
        n = len(u)
        d, r = self._pairs(u)
        inv3 = 1.0 / (r * r * r)
        w5 = 3.0 * inv3 / (r * r)
        np.fill_diagonal(inv3, 0.0)
        np.fill_diagonal(w5, 0.0)
        h = np.empty((3 * n, 3 * n))
        blocks = _by_axis(h).reshape(3, n, 3, n)  # [axis, ion, axis, ion]
        for a in range(3):
            for b in range(a, 3):
                # pair block T_ab = 3 d_a d_b / r^5 - delta_ab / r^3, which
                # is exactly symmetric; the block is -T off the ion
                # diagonal, sum_j T_ij on it
                t = d[a] * d[b] * w5
                if a == b:
                    t -= inv3
                blk = -t
                blk.flat[::n + 1] = np.sum(t, axis=1)
                if a == b:
                    blk.flat[::n + 1] += self.alpha2[a]
                blocks[a, :, b] = blk
                blocks[b, :, a] = blk.T
        if self.u0 != 0.0:
            z = np.arange(2 * n, 3 * n)
            h[z, z] += 2.0 * self.u0 * self.kappa ** 2 * np.cos(
                2.0 * self.kappa * u[:, 2])
        return h


def total_potential(positions, trap, lattice=None, species=None):
    """Total potential energy (J) of the configuration.

    Harmonic pseudo-potential + pairwise Coulomb + U0 sin^2(k z) per ion
    (signed U0: blue-detuned positive, wells at the nodes). Raises
    SingularConfigurationError if two ions lie within 1e-14 Coulomb
    lengths of each other.
    """
    species = _default_species(species)
    pos = np.asarray(positions, dtype=float).reshape(-1, 3)
    scaled = _Dimensionless(trap, lattice, species)
    energy, _ = scaled.energy_and_gradient(pos / scaled.ell)
    return energy * scaled.energy_unit


def _string_guess(n, rng, jitter):
    z = (np.arange(n) - 0.5 * (n - 1)) * 1.3 * max(n, 2) ** -0.1
    u = np.zeros((n, 3))
    u[:, 2] = z
    u += rng.normal(0.0, jitter, size=(n, 3))
    return u


# equilibrium: gradient max-norm to reach (dimensionless), cold BFGS
# starts, Newton iterations per polish
_GTOL = 1e-10
_RESTARTS = 4
_NEWTON_MAX_ITER = 60


def _newton_polish(scaled, u):
    # returns (u, energy, gnorm, converged)
    u = u.copy()
    energy, g = scaled.energy_and_gradient(u)
    gnorm = np.max(np.abs(g))
    h = None  # Hessian at u, kept while damped retries stay there
    mu = 0.0
    for _ in range(_NEWTON_MAX_ITER):
        if gnorm <= _GTOL:
            return u, energy, gnorm, True
        if h is None:
            h = scaled.hessian(u)
        gflat = g.reshape(-1, order="F")  # x-block, y-block, z-block
        try:
            damped = h if mu == 0.0 else h + mu * np.eye(len(h))
            step = np.linalg.solve(damped, gflat)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(h, gflat, rcond=None)
        trial = u - step.reshape(u.shape, order="F")
        try:
            e_trial, g_trial = scaled.energy_and_gradient(trial)
        except SingularConfigurationError:  # the step merged two ions
            g_trial = None
        if g_trial is not None and np.max(np.abs(g_trial)) < gnorm:
            u, energy, g, h = trial, e_trial, g_trial, None
            gnorm = np.max(np.abs(g))
            mu = max(mu * 0.1, 0.0)
        else:  # damp and retry
            mu = 1e-6 if mu == 0.0 else mu * 10.0
            if mu > 1e6:
                return u, energy, gnorm, False
    return u, energy, gnorm, False


def _solve_from(scaled, u0):
    n = len(u0)

    def energy_and_gradient(v):
        e, g = scaled.energy_and_gradient(v.reshape(n, 3))
        return e, g.reshape(-1)

    res = minimize(energy_and_gradient, u0.reshape(-1), gtol=1e-8,
                   maxiter=4000)
    u = res.x.reshape(n, 3)
    return _newton_polish(scaled, u)


# cold solves of at least this many ions run their starts in forked
# workers; below it a fork costs more than the overlap saves (measured
# crossover, CHANGES.md)
_FANOUT_MIN_IONS = 16


def _fanout_width(n_ions, n_starts):
    """Workers for the cold starts of n_ions ions: 0 runs them in process."""
    if n_ions < _FANOUT_MIN_IONS:
        return 0
    # imported here, so that a run with no large crystal never pays for it
    from . import _fork
    return _fork.width(n_starts)


def _descend(scaled, starts):
    """``_solve_from`` from each start, in start order.

    The starts are independent, so a large crystal runs them side by side
    in forked workers (``_fork.fork_map``); every run is bit for bit the
    one the in-process loop gives, and so is the exception raised.
    """
    width = _fanout_width(len(starts[0]), len(starts))
    if width < 2:
        return [_solve_from(scaled, u0) for u0 in starts]
    from . import _fork
    return _fork.fork_map(partial(_solve_from, scaled), starts, width)


# a stationary point whose lowest Hessian eigenvalue is below this is a
# saddle (dimensionless curvature); cold starts whose energies agree to
# _TIE_RTOL relative are tied
_SADDLE_TOL = -1e-8
_TIE_RTOL = 1e-12


def _stationary(scaled, n, guess, seed):
    """Converged stationary point and the spectrum of its Hessian.

    With a dimensionless (n, 3) guess: Newton polish, BFGS first if the
    polish stalls. Without: ``_RESTARTS`` descents from jittered strings
    (``_descend``), each BFGS (``minimize``, O(n^2) per iteration) then
    Newton polish; the lowest energy wins, and of starts tied with it to
    ``_TIE_RTOL`` relative (mirror images) the first. Returns (u, energy,
    gnorm, lam, vec), lam ascending and vec holding one eigenvector per
    column; raises EquilibriumError if no start converges.
    """
    if guess is not None:
        u, energy, gnorm, ok = _newton_polish(scaled, guess)
        if not ok:  # long way from quadratic: descend first, then polish
            u, energy, gnorm, ok = _solve_from(scaled, guess)
        runs = [(u, energy, gnorm, ok)]
    else:
        runs = _descend(scaled, [
            _string_guess(n, default_rng(seed + attempt),
                          jitter=0.02 * (attempt + 1))
            for attempt in range(_RESTARTS)])
    converged = [(u, energy, gnorm) for u, energy, gnorm, ok in runs if ok]
    if not converged:
        u, _, gnorm, _ = runs[-1]
        raise EquilibriumError(
            f"equilibrium search stalled at gradient max-norm {gnorm:.3e}",
            last_positions=u * scaled.ell, gradient_norm=float(gnorm))
    # mirror images of one minimum differ in energy by rounding only: take
    # the first start that ties with the lowest, not whichever rounds low
    lowest = min(c[1] for c in converged)
    u, energy, gnorm = next(c for c in converged
                            if c[1] - lowest <= _TIE_RTOL * abs(lowest))
    lam, vec = np.linalg.eigh(scaled.hessian(u))
    return u, energy, float(gnorm), lam, vec


def _modes(trap, lam, vec):
    """ModeDecomposition from the Hessian spectrum at a minimum."""
    if lam[0] < _SADDLE_TOL:
        raise UnstableConfigurationError(
            f"Hessian has a negative eigenvalue {lam[0]:.3e}; "
            "configuration is unstable (saddle)")
    lam = np.where(np.abs(lam) < 1e-14, 0.0, lam)
    freqs = trap.omega_z * np.sqrt(np.clip(lam, 0.0, None))
    return ModeDecomposition(eigenvalues=lam, frequencies=freqs,
                             coordinates=vec)


def equilibrium(N, trap, lattice=None, initial_guess=None, species=None,
                seed=0):
    """Stationary configuration of N ions, to gradient max-norm 1e-10.

    Without a guess: BFGS descent (Moré–Thuente line search, O(n^2)
    inverse-Hessian update) from a slightly jittered axial string
    (deterministic in ``seed``), then Newton polish; best of four starts
    by energy, and the first of the starts whose energies tie with the
    lowest to 1e-12 relative, so that rounding never picks between mirror
    images. From 16 ions on, the four starts run side by side in forked
    worker processes (one BLAS thread each) where the host allows it, to
    the same bits. With a guess (warm start): polish only, fully
    deterministic. A converged stationary point with a direction of
    negative curvature is returned with ``is_saddle`` set rather than
    re-seeded, so instability of e.g. a linear chain past the zigzag
    transition is visible to the caller.
    """
    if N < 1:
        raise DomainError("need at least one ion")
    species = _default_species(species)
    scaled = _Dimensionless(trap, lattice, species)
    if initial_guess is not None:
        initial_guess = np.asarray(
            initial_guess, dtype=float).reshape(N, 3) / scaled.ell
    u, energy, gnorm, lam, _ = _stationary(scaled, N, initial_guess, seed)
    return CrystalState(
        positions=u * scaled.ell,
        potential_value=energy * scaled.energy_unit,
        lattice_depth=0.0 if lattice is None else lattice.depth_U0,
        gradient_norm=gnorm,
        is_saddle=bool(lam[0] < _SADDLE_TOL),
    )


def normal_modes(state, trap, lattice=None, species=None):
    """Eigendecomposition of the dimensionless Hessian at an equilibrium.

    The state must actually be stationary for the given trap + lattice
    (checked via the gradient); a negative eigenvalue beyond -1e-8 means
    the configuration is not a minimum of this potential and is an error.
    """
    species = _default_species(species)
    scaled = _Dimensionless(trap, lattice, species)
    u = np.asarray(state.positions, dtype=float) / scaled.ell
    gnorm = np.max(np.abs(scaled.energy_and_gradient(u)[1]))
    if gnorm > 1e-6:
        raise EquilibriumError(
            f"state is not an equilibrium of this potential "
            f"(gradient max-norm {gnorm:.3e}); re-solve before "
            "taking normal modes")
    return _modes(trap, *np.linalg.eigh(scaled.hessian(u)))


def gamma_parameters(modes):
    """Thermal-excursion factors gamma from a mode decomposition.

    gamma2_{m,a} = sum_p b_{aN+m}^p ^2 / lambda_p, and the 45-degree
    radial projection gamma2_{m,rad} = sum_p (b_m^p + b_{N+m}^p)^2 /
    (2 lambda_p). A zero-frequency mode makes these diverge; that raises,
    naming the soft mode.
    """
    lam = modes.eigenvalues
    soft = np.nonzero(lam < 1e-12)[0]
    if soft.size:
        p = int(soft[0])
        raise SoftModeError(
            f"mode {p} (frequency {modes.frequencies[p]:.3e} rad/s) is soft; "
            "position variance diverges", mode_index=p)
    b = modes.by_axis
    gamma2 = np.sum(b * b / lam, axis=2).T
    rad = b[0] + b[1]
    gamma2_rad = np.sum(rad * rad / (2.0 * lam[None, :]), axis=1)
    return GammaTable(gamma=np.sqrt(gamma2),
                      gamma_radial_projected=np.sqrt(gamma2_rad))


# ----------------------------------------------------------------------
# depth continuation


@dataclass(frozen=True, eq=False)
class ContinuationResult:
    """Mode branches tracked along a lattice-depth sweep.

    Arrays are indexed [branch, step] (frequencies) or [step, ...]
    (coordinates, positions). Branch identity is fixed by eigenvector
    overlap between adjacent steps; the grid may contain extra points
    inserted by the tracker (refined[step] is True there). flagged lists
    crossings that stayed ambiguous at the finest refinement: each entry
    gives the step, the two branch ids involved, and the overlap gap;
    the emitted assignment is the overlap-optimal one and the alternative
    is the swap of those two branches.
    """

    nu_latt: np.ndarray  # (n,), Hz
    depths: np.ndarray  # (n,), J
    frequencies: np.ndarray  # (3N, n), Hz
    coordinates: np.ndarray  # (n, 3N, 3N)
    positions: np.ndarray  # (n, N, 3), m
    refined: np.ndarray  # (n,), bool
    flagged: list = field(default_factory=list)

    @property
    def n_branches(self):
        return self.frequencies.shape[0]

    @property
    def by_axis(self):
        """(n, 3, N, 3N) view of coordinates: [step, axis, ion, branch]."""
        return _by_axis(self.coordinates)

    def block_weight(self, block):
        """(3N, n) weight of each branch in one coordinate block."""
        rows = self.by_axis[:, _BLOCKS[block]]
        return np.transpose(np.sum(rows * rows, axis=1))


def _signed_depth(nu, lattice_max, species):
    # depth at nu_latt, signed like the reference lattice
    mag = _depth_for_nu(nu, species, lattice_max.wavevector_k)
    return math.copysign(mag, lattice_max.depth_U0) if nu > 0 else 0.0


# branch tracking: a step whose weakest matched overlap is below
# _OVERLAP_MIN is halved, at most _MAX_HALVINGS times; at that depth a
# branch whose two best overlaps differ by less than _AMBIGUITY_TOL is
# flagged
_OVERLAP_MIN = 0.5
_MAX_HALVINGS = 12
_AMBIGUITY_TOL = 1e-3


def continuation(N, trap, lattice_max, steps=200, species=None, seed=0,
                 nu_grid=None):
    """Sweep the lattice from zero to lattice_max, tracking all 3N modes.

    The grid is geometric in nu_latt (default ``steps`` points including
    nu=0) unless an explicit nu_grid (Hz) is given. Each depth re-solves
    the equilibrium warm-started from the previous one, then matches the
    new eigenvectors to the tracked branches by maximal absolute overlap
    (optimal one-to-one assignment). If the weakest match drops below 0.5
    the step is halved (geometric midpoint, arithmetic from nu=0), up to
    12 times; a crossing whose two best overlaps still differ by less
    than 1e-3 at that point is recorded in ``flagged``.

    A deepening lattice can destroy the tracked minimum outright (ions
    re-settle into wells); the warm start then converges onto the saddle
    left behind. Tracking follows the physics: relax along the unstable
    direction to the adjacent minimum and continue from there. Six kicks
    of either sign are tried and the lowest minimum reached is kept; a
    kick whose solve stalls is skipped, and only if every kick stalls
    does the sweep raise EquilibriumError, naming the best gradient
    max-norm reached.
    """
    flagged = []
    rows = _sweep(N, trap, lattice_max, steps, species, seed, nu_grid,
                  flagged)
    nus, freqs, coords, poss, refined = zip(*rows)
    species = _default_species(species)
    return ContinuationResult(
        nu_latt=np.asarray(nus),
        depths=np.array([_signed_depth(v, lattice_max, species)
                         for v in nus]),
        frequencies=np.transpose(freqs) / (2.0 * math.pi),
        coordinates=np.asarray(coords),
        positions=np.asarray(poss),
        refined=np.asarray(refined, dtype=bool),
        flagged=flagged,
    )


def _sweep(N, trap, lattice_max, steps, species, seed, nu_grid, flagged):
    """The rows of ``continuation``, one accepted depth at a time.

    Checks the arguments now and returns a generator of (nu_latt Hz,
    frequencies rad/s in branch order, (3N, 3N) branch eigenvectors,
    (N, 3) positions m, refined) tuples. Ambiguous crossings are appended
    to ``flagged`` as they are found, each before its row is yielded; an
    entry's "step" is the index of that row.
    """
    if steps < 2:
        raise DomainError("need at least two continuation steps")
    species = _default_species(species)
    nu_max = lattice_max.vibrational_frequency(species)
    if nu_grid is None:
        if nu_max <= 0:
            raise DomainError("lattice_max must have a nonzero depth")
        grid = np.concatenate(
            [[0.0], np.geomspace(1e-3 * nu_max, nu_max, steps - 1)])
    else:
        grid = np.asarray(sorted(float(v) for v in nu_grid))
        if grid[0] != 0.0:
            grid = np.concatenate([[0.0], grid])
    return _tracked_rows(N, trap, lattice_max, species, seed, grid, flagged)


def _tracked_rows(N, trap, lattice_max, species, seed, grid, flagged):
    # the generator behind _sweep: its body runs only once iterated
    def descend_from_saddle(scaled, u, vec):
        # kicks along the most negative curvature direction; a kick that
        # stalls or lands on a saddle again is skipped
        soft = _by_axis(vec)[:, :, 0].T
        kicks = (1e-3, -1e-3, 1e-2, -1e-2, 0.1, -0.1)
        best, stalled = None, []
        for eps in kicks:
            try:
                cand = _stationary(scaled, N, u + eps * soft, seed)
            except EquilibriumError as exc:
                stalled.append(exc)
                continue
            _, energy, _, lam, _ = cand
            if lam[0] >= _SADDLE_TOL and (best is None or energy < best[1]):
                best = cand
        if best is not None:
            return best
        if len(stalled) == len(kicks):
            closest = min(stalled, key=lambda exc: exc.gradient_norm)
            raise EquilibriumError(
                "tracked configuration lost stability and every kick along "
                "the unstable direction stalled; best gradient max-norm "
                f"{closest.gradient_norm:.3e}",
                last_positions=closest.last_positions,
                gradient_norm=closest.gradient_norm)
        raise UnstableConfigurationError(
            "tracked configuration lost stability and no adjacent "
            "minimum was reachable along the unstable direction")

    def solve_at(nu, guess):
        depth = _signed_depth(nu, lattice_max, species)
        latt = replace(lattice_max, depth_U0=depth) if depth != 0.0 else None
        scaled = _Dimensionless(trap, latt, species)
        u, _, _, lam, vec = _stationary(scaled, N, guess, seed)
        if lam[0] < _SADDLE_TOL:
            u, _, _, lam, vec = descend_from_saddle(scaled, u, vec)
        return u, _modes(trap, lam, vec)

    ell = length_scale(trap, species)
    # the tracked branches start in eigh's ascending order at zero depth
    nu = grid[0]
    u, modes = solve_at(nu, None)
    b_prev = modes.coordinates
    yield nu, modes.frequencies, b_prev, u * ell, False
    n_rows = 1
    # targets still to reach, nearest last: (nu_latt, halvings, refined)
    pending = [(target, 0, False) for target in grid[:0:-1]]
    while pending:
        target, level, refined = pending.pop()
        u_new, md = solve_at(target, u)
        overlap = np.abs(b_prev.T @ md.coordinates)
        perm = assignment(-overlap)
        weakest = np.min(overlap[np.arange(len(perm)), perm])
        if weakest < _OVERLAP_MIN and level < _MAX_HALVINGS:
            mid = 0.5 * (nu + target) if nu == 0.0 \
                else math.sqrt(nu * target)
            pending += [(target, level + 1, refined), (mid, level + 1, True)]
            continue
        if level == _MAX_HALVINGS:
            for p, row in enumerate(overlap):
                second, best = np.argsort(row)[-2:]
                gap = row[best] - row[second]
                if gap < _AMBIGUITY_TOL:
                    # the branch holding the other of p's two best columns;
                    # p itself may hold its second best
                    other = second if perm[p] == best else best
                    partner = int(np.nonzero(perm == other)[0][0])
                    flagged.append({
                        "step": n_rows,
                        "nu_latt": target,
                        "branches": (p, partner),
                        "overlap_gap": float(gap),
                    })
        b_new = md.coordinates[:, perm]
        # keep eigenvector signs continuous across steps
        signs = np.sign(np.sum(b_prev * b_new, axis=0))
        signs[signs == 0.0] = 1.0
        nu, u, b_prev = target, u_new, b_new * signs
        yield nu, md.frequencies[perm], b_prev, u * ell, refined
        n_rows += 1


# ----------------------------------------------------------------------
# structure classification


def classify_structure(positions, trap, species=None):
    """Classify a crystal as linear, planar or three-dimensional.

    ``positions`` is the (N, 3) array of ion positions in meters. The
    reference plane is constrained to contain the trap axis (the
    physically meaningful family for a linear trap): among the planes
    through the z axis and one off-axis ion, take the one containing the
    most ions. A best-fit free plane would miscount structures like the
    six-ion pinwheel, where four of six ions share no axis-containing
    plane but a tilted fit can graze them all. An ion counts as on the
    axis, or in a plane, within 1e-3 Coulomb lengths.
    """
    tol = 1e-3 * length_scale(trap, _default_species(species))
    pos = np.asarray(positions, dtype=float)
    radial = np.hypot(pos[:, 0], pos[:, 1])
    off = radial > tol
    if not np.any(off):
        return StructureReport(kind="linear", out_of_plane_count=0,
                               plane_angle=0.0)
    best_angle, best_count = 0.0, -1
    for phi in np.arctan2(pos[off, 1], pos[off, 0]):
        # distance of each ion from the plane spanned by z and (cos, sin)
        dist = np.abs(-pos[:, 0] * math.sin(phi) + pos[:, 1] * math.cos(phi))
        count = int(np.sum(dist <= tol))
        if count > best_count:
            best_angle, best_count = float(phi) % math.pi, count
    n_out = pos.shape[0] - best_count
    kind = "planar" if n_out == 0 else "three-dimensional"
    return StructureReport(kind=kind, out_of_plane_count=n_out,
                           plane_angle=best_angle)
