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
from contextlib import contextmanager
from functools import lru_cache, partial

import numpy as np
# every cold solve draws its starts from numpy.random, which numpy loads
# lazily: importing it here keeps its load in start-up, out of the solve
from numpy.random import default_rng

from . import _EXPORTS, constants as cn
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
from .pendulum import (
    LatticeConfig,
    _default_species,
    _depth_for_nu,
    _real,
)

__all__ = list(_EXPORTS["crystal"])

_BLOCKS = {"x": 0, "y": 1, "z": 2}

# eigh resolves eigenvalues to about eps times the largest: beyond 1e-6/eps
# times the softest curvature, the softest modes are rounding noise at
# 1e-6 relative, so no curvature of a crystal may span more than this
_EIGH_SPAN = 1e-6 / np.finfo(float).eps


def _positions(values, name="positions", n_ions=None):
    """(N, 3) float array of the ion positions a caller passed in, which
    must be finite and hold 3N numbers, N = n_ions where given, else at
    least 1; a DomainError naming them otherwise."""
    pos = np.asarray(values, dtype=float)
    n = pos.size // 3 if n_ions is None else n_ions
    if not 0 < 3 * n == pos.size:
        want = ("3N numbers, N >= 1" if n_ions is None
                else f"3N = {3 * n} numbers")
        raise DomainError(f"{name} must hold {want}, got {pos.size}")
    if not np.all(np.isfinite(pos)):
        raise DomainError(f"{name} must be finite")
    return pos.reshape(n, 3)


def _by_axis(coordinates):
    """(..., 3, N, modes) view of (..., 3N, modes) block-stacked vectors."""
    *lead, rows, modes = coordinates.shape
    return coordinates.reshape(*lead, 3, rows // 3, modes)


class TrapConfig:
    """Secular frequencies and rf-drive parameters of the linear trap.

    q_radial defaults to the value implied by the mean radial secular
    frequency and the drive (q = 2 sqrt(2) omega_sec/Omega_rf, lowest
    order); q_axial defaults to zero (an ideal linear trap has no axial
    rf gradient) and is set from measurement when modeling parasitic
    axial micromotion.
    """

    __slots__ = ("omega_z", "omega_x", "omega_y", "omega_rf", "q_radial",
                 "q_axial")

    def __init__(self, omega_z, omega_x, omega_y,
                 omega_rf=2.0 * math.pi * 3.98e6, q_radial=None, q_axial=0.0):
        self.omega_z = _real(omega_z)  # rad/s
        self.omega_x = _real(omega_x)  # rad/s
        self.omega_y = _real(omega_y)  # rad/s
        self.omega_rf = _real(omega_rf)  # rad/s
        self.q_radial = None if q_radial is None else _real(q_radial)
        self.q_axial = _real(q_axial)
        # the model forms each frequency's square: the trap curvatures, and
        # M Omega_rf^2 in the micromotion energy
        omegas = (self.omega_x, self.omega_y, self.omega_z, self.omega_rf)
        if not all(0 < w and 0 < w * w < math.inf for w in omegas):  # NaN too
            raise DomainError(
                "secular and rf frequencies must be positive and finite, "
                "and so must their squares")
        span = max(omegas[:3]) ** 2 / min(omegas[:3]) ** 2
        if not span <= _EIGH_SPAN:
            raise DomainError(
                f"the secular curvatures omega^2 span a ratio of {span:.3g}, "
                f"beyond the {_EIGH_SPAN:.3g} within which eigh resolves the "
                "softest trap curvature to 1e-6 relative")
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
        Both stay positive only for |asymmetry| < 2, the accepted range.
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


class CrystalState:
    """A converged stationary configuration.

    gradient_norm is the dimensionless max-norm of the potential gradient
    at the solution; is_saddle flags stationary points whose Hessian has a
    negative eigenvalue beyond tolerance (reported, never re-seeded).
    """

    __slots__ = ("positions", "potential_value", "lattice_depth",
                 "gradient_norm", "is_saddle")

    def __init__(self, positions, potential_value, lattice_depth,
                 gradient_norm, is_saddle=False):
        self.positions = positions  # (N, 3), m
        self.potential_value = potential_value  # J
        self.lattice_depth = lattice_depth  # J, signed; 0 when no lattice
        self.gradient_norm = gradient_norm
        self.is_saddle = is_saddle


class ModeDecomposition:
    """3N normal modes at one configuration.

    eigenvalues are the dimensionless Hessian spectrum (potential
    curvature over M omega_z^2), ascending; frequencies = omega_z
    sqrt(lambda) in rad/s; coordinates[l, p] is component l of mode p
    with the x/y/z block stacking.
    """

    __slots__ = ("eigenvalues", "frequencies", "coordinates")

    def __init__(self, eigenvalues, frequencies, coordinates):
        self.eigenvalues = eigenvalues  # (3N,)
        self.frequencies = frequencies  # (3N,), rad/s
        self.coordinates = coordinates  # (3N, 3N)

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


class GammaTable:
    """Per-ion thermal-excursion factors.

    gamma[m, a] relates ion m's position variance along axis a to the
    single-ion value at omega_z: <du^2> = (kB T/(M omega_z^2)) gamma^2.
    gamma_radial_projected[m] is the same for the 45-degree camera
    projection of the two radial axes.
    """

    __slots__ = ("gamma", "gamma_radial_projected")

    def __init__(self, gamma, gamma_radial_projected):
        self.gamma = gamma  # (N, 3)
        self.gamma_radial_projected = gamma_radial_projected  # (N,)

    @property
    def axial(self):
        return self.gamma[:, 2]


class StructureReport:
    """Geometric classification of a crystal.

    kind is 'linear', 'planar' or 'three-dimensional'. For non-linear
    structures the reference plane is the axis-containing plane holding
    the most ions; out_of_plane_count counts the ions off that plane.
    """

    __slots__ = ("kind", "out_of_plane_count", "plane_angle")

    def __init__(self, kind, out_of_plane_count, plane_angle):
        self.kind = kind
        self.out_of_plane_count = out_of_plane_count
        # rad, orientation of the reference plane, y=soft
        self.plane_angle = plane_angle


def length_scale(trap, species):
    """Coulomb length l = (e^2/(4 pi eps0 M omega_z^2))^(1/3)."""
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
        """Differences d[a, ..., j, i] = u_i - u_j, (3, ..., N, N), of the
        (..., N, 3) positions u, and the distances r, (..., N, N), exactly
        symmetric with a unit diagonal (so that 1/r^3 stays finite there)."""
        n = u.shape[-2]
        ut = np.ascontiguousarray(u.transpose(-1, *range(u.ndim - 1)))
        d = ut[..., None, :] - ut[..., :, None]
        sq = d * d
        r2 = np.add(sq[0], sq[1], out=sq[0])
        r2 += sq[2]
        r2.reshape(-1, n * n)[:, ::n + 1] = 1.0
        return d, np.sqrt(r2, out=r2)

    def energy_and_gradient(self, u):
        """Potential and its gradient from one pair pass.

        u is one configuration (N, 3), or a stack (L, N, 3) of lanes; the
        energy is () or (L,), the gradient has u's shape, and each lane
        gets the bits it gets alone (every sum runs within a lane, in the
        same order).
        """
        n = u.shape[-2]
        d, r = self._pairs(u)
        if r.min() < 1e-14:  # the diagonal of r is 1
            raise SingularConfigurationError(
                "two ions coincide; Coulomb energy is singular")
        w = np.divide(_strict_upper(n), r)  # 1/r above the diagonal
        coul = w.sum(axis=(-2, -1))
        g = self.alpha2 * u
        harm = 0.5 * (g * u).sum(axis=(-2, -1))
        latt = 0.0
        if self.u0 != 0.0:
            s = np.sin(self.kappa * u[..., 2])
            latt = self.u0 * (s * s).sum(axis=-1)
        inv3 = np.multiply(r, r, out=w)
        inv3 *= r
        np.divide(1.0, inv3, out=inv3)
        inv3.reshape(-1, n * n)[:, ::n + 1] = 0.0
        # per-ion sums over partners j, added in index order
        d *= inv3
        g -= d.sum(axis=-2).transpose(*range(1, u.ndim), 0)
        if self.u0 != 0.0:
            g[..., 2] += self.u0 * self.kappa * np.sin(
                2.0 * self.kappa * u[..., 2])
        return harm + coul + latt, g

    def hessian(self, u):
        """(3N, 3N) Hessian in the x-block, y-block, z-block stacking."""
        n = len(u)
        d, r = self._pairs(u)
        r2 = r * r
        inv3 = np.multiply(r2, r)
        np.divide(1.0, inv3, out=inv3)
        w5 = np.multiply(inv3, 3.0)
        w5 /= r2
        inv3.flat[::n + 1] = 0.0
        w5.flat[::n + 1] = 0.0
        h = np.empty((3 * n, 3 * n))
        blocks = _by_axis(h).reshape(3, n, 3, n)  # [axis, ion, axis, ion]
        t = r2  # reused for each pair block
        for a in range(3):
            for b in range(a, 3):
                # pair block T_ab = 3 d_a d_b / r^5 - delta_ab / r^3, which
                # is exactly symmetric; the block is -T off the ion
                # diagonal, sum_j T_ij on it
                np.multiply(d[a], d[b], out=t)
                t *= w5
                if a == b:
                    t -= inv3
                diagonal = np.sum(t, axis=1)
                if a == b:
                    diagonal += self.alpha2[a]
                blk = np.negative(t, out=t)
                blk.flat[::n + 1] = diagonal
                blocks[a, :, b] = blk
                blocks[b, :, a] = blk.T
        if self.u0 != 0.0:
            h.flat[2 * n * (3 * n + 1)::3 * n + 1] += (
                2.0 * self.u0 * self.kappa ** 2
                * np.cos(2.0 * self.kappa * u[:, 2]))
        return h


def total_potential(positions, trap, lattice=None, species=None):
    """Total potential energy (J) of the configuration.

    Harmonic pseudo-potential + pairwise Coulomb + U0 sin^2(k z) per ion
    (signed U0: blue-detuned positive, wells at the nodes). Raises
    SingularConfigurationError if two ions lie within 1e-14 Coulomb
    lengths of each other.
    """
    species = _default_species(species)
    pos = _positions(positions)
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
# Newton also accepts a gradient max-norm up to the rounding floor
# c*2 eps |u0| kappa^2 max|z| of the lattice force u0 kappa sin(2 kappa z),
# whose slope in z is 2 u0 kappa^2: z at the float nearest the root
# (eps|z|/2 off) and 2 kappa z rounded as it is formed (as much again) move
# it by up to 2 eps |u0| kappa^2 |z| together, a Newton step from that
# gradient lands as far off again, and c = 4 leaves a factor 2 for the
# harmonic, Coulomb and sine roundings. At the paper's depths it is far
# below _GTOL, which then decides.
_FLOOR = 4.0 * 2.0 * np.finfo(float).eps  # c * 2 eps, c = 4


def _newton_polish(scaled, u):
    # returns (u, energy, gnorm, converged)
    u = u.copy()
    energy, g = scaled.energy_and_gradient(u)
    gnorm = np.abs(g).max()
    floor = _FLOOR * abs(scaled.u0) * scaled.kappa ** 2  # per unit of max|z|
    h = None  # Hessian at u, kept while damped retries stay there
    mu = 0.0
    for _ in range(_NEWTON_MAX_ITER):
        if gnorm <= max(_GTOL, floor * np.max(np.abs(u[:, 2]))):
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
            gnorm_trial = np.abs(g_trial).max()
        except SingularConfigurationError:  # the step merged two ions
            gnorm_trial = math.inf
        if gnorm_trial < gnorm:
            u, energy, g, h = trial, e_trial, g_trial, None
            gnorm = gnorm_trial
            mu *= 0.1
        else:  # damp and retry
            mu = 1e-6 if mu == 0.0 else mu * 10.0
            if mu > 1e6:
                return u, energy, gnorm, False
    return u, energy, gnorm, False


def _solve_from(scaled, starts):
    """BFGS descent then ``_newton_polish`` from each start: a list of
    (u, energy, gnorm, converged), in start order.

    starts is a stack (L, N, 3), whose starts descend as the lanes of one
    ``minimize``; a round with one live lane evaluates that lane at its own
    (N, 3) point. A lane whose descent raised raises after the earlier
    lanes' polishes, so the exception is the one a loop over the starts
    raises.
    """
    shape = starts.shape[1:]

    def energy_and_gradient(v):
        e, g = scaled.energy_and_gradient(v.reshape(*v.shape[:-1], *shape))
        return e, g.reshape(v.shape)

    res = minimize(energy_and_gradient, starts.reshape(len(starts), -1),
                   gtol=1e-8, maxiter=4000)
    runs = []
    for x, error in zip(res.x, res.errors):
        if error is not None:
            raise error
        runs.append(_newton_polish(scaled, x.reshape(shape)))
    return runs


# from _PARALLEL_MIN_IONS ions on, descents go through ``_fork.fork_map``
# and sweeps overlap spectra with solves, where its host rule allows; below
# it, the starts of a descent run as lanes of one BFGS instead, which pays
# there and not above (measured, CHANGES.md)
_PARALLEL_MIN_IONS = 32


def _descend(scaled, starts, what):
    """(u, energy, gnorm) of each converged ``_solve_from``, in start order.

    starts is a stack (L, N, 3) of independent starts. Below
    ``_PARALLEL_MIN_IONS`` ions the whole stack is one ``_solve_from``
    call, which shares each energy/gradient pass among its lanes (4 cold
    starts, 6 kicks, or the one start of a stalled warm polish). From the
    gate on, ``_fork.fork_map`` makes one call per one-start stack
    (1, N, 3), in forked workers or in process. Either way every run is
    bit for bit the one a loop over the starts gives, and so is the
    exception raised: that of the lowest-index start that raised. If no
    start converges, raises EquilibriumError naming ``what`` and the best
    gradient max-norm among the runs, with that run's positions.
    """
    if starts.shape[1] < _PARALLEL_MIN_IONS:
        runs = _solve_from(scaled, starts)
    else:
        # imported here, so that a run with no large crystal never pays
        from . import _fork
        runs = [run for run, in _fork.fork_map(partial(_solve_from, scaled),
                                               starts[:, None])]
    found = [(u, energy, gnorm) for u, energy, gnorm, ok in runs if ok]
    if not found:
        u, _, gnorm, _ = min(runs, key=lambda r: r[2])
        raise EquilibriumError(
            f"{what} stalled; best gradient max-norm {gnorm:.3e}",
            last_positions=u * scaled.ell, gradient_norm=float(gnorm))
    return found


# a stationary point whose lowest Hessian eigenvalue is below this is a
# saddle (dimensionless curvature); descents whose energies agree to
# _TIE_RTOL relative are tied
_SADDLE_TOL = -1e-8
_TIE_RTOL = 1e-12


def _lowest(found):
    """The first of the (u, energy, ...) entries whose energy ties with the
    lowest to ``_TIE_RTOL`` relative: mirror images of one minimum differ
    in energy by rounding only, so rounding never picks between them."""
    lowest = min(c[1] for c in found)
    return next(c for c in found if c[1] - lowest <= _TIE_RTOL * abs(lowest))


def _settle(scaled, n, guess, seed):
    """Converged stationary point: (u, energy, gnorm), dimensionless.

    With an (n, 3) guess: Newton polish, and if that stalls one descent
    from the guess (``_descend``). Without: ``_RESTARTS`` descents from
    jittered strings, each BFGS (``minimize``, O(n^2) per iteration) then
    Newton polish, and of those that converge the ``_lowest``. Raises
    EquilibriumError if no descent converges.
    """
    if guess is not None:
        u, energy, gnorm, ok = _newton_polish(scaled, guess)
        if ok:
            return u, energy, float(gnorm)
        starts = guess[None]  # long way from quadratic: descend first
    else:
        starts = np.stack([_string_guess(n, default_rng(seed + attempt),
                                         jitter=0.02 * (attempt + 1))
                           for attempt in range(_RESTARTS)])
    u, energy, gnorm = _lowest(_descend(scaled, starts, "equilibrium search"))
    return u, energy, float(gnorm)


def _spectrum(h):
    """Eigenvalues of the Hessian h, ascending, and one eigenvector per
    column."""
    return np.linalg.eigh(h)


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
    images; if none converges, EquilibriumError names the best gradient
    max-norm among them. Below 32 ions the four starts descend as lanes of
    one BFGS that share each energy/gradient pass; from 32 ions on they
    run through ``_fork.fork_map``, in forked workers (each inherits the
    parent's one BLAS thread) or in process. Every way gives the same
    bits. With a guess (warm start, finite, 3N numbers): Newton polish,
    and BFGS from the guess first if that stalls; deterministic. A
    converged stationary point with a direction of negative curvature is
    returned with ``is_saddle`` set rather than re-seeded, so instability
    of e.g. a linear chain past the zigzag transition is visible to the
    caller.
    The flag reads only the eigenvalues (``eigvalsh``) of the Hessian,
    which is built on the calling thread, as every Hessian is; only a
    sweep's ``eigh`` may run on a worker thread (``continuation``).
    """
    if N < 1:
        raise DomainError("need at least one ion")
    species = _default_species(species)
    scaled = _Dimensionless(trap, lattice, species)
    if initial_guess is not None:
        initial_guess = _positions(
            initial_guess, "initial_guess", N) / scaled.ell
    u, energy, gnorm = _settle(scaled, N, initial_guess, seed)
    lam = np.linalg.eigvalsh(scaled.hessian(u))
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
    u = _positions(state.positions, "state.positions") / scaled.ell
    gnorm = np.max(np.abs(scaled.energy_and_gradient(u)[1]))
    if gnorm > 1e-6:
        raise EquilibriumError(
            f"state is not an equilibrium of this potential "
            f"(gradient max-norm {gnorm:.3e}); re-solve before "
            "taking normal modes")
    return _modes(trap, *_spectrum(scaled.hessian(u)))


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

    __slots__ = ("nu_latt", "depths", "frequencies", "coordinates",
                 "positions", "refined", "flagged")

    def __init__(self, nu_latt, depths, frequencies, coordinates, positions,
                 refined, flagged=None):
        self.nu_latt = nu_latt  # (n,), Hz
        self.depths = depths  # (n,), J
        self.frequencies = frequencies  # (3N, n), Hz
        self.coordinates = coordinates  # (n, 3N, 3N)
        self.positions = positions  # (n, N, 3), m
        self.refined = refined  # (n,), bool
        self.flagged = [] if flagged is None else flagged

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
    of either sign are tried, each a BFGS descent then Newton polish, in
    process at every size (below 32 ions as six lanes of one BFGS, the
    cold starts' way; from 32 on the sweep's spectrum thread is alive, so
    ``_fork.fork_map`` forks none); a stalled kick is skipped. The lowest
    minimum reached is kept, the first kick's on ties to 1e-12 relative
    (mirror images); with saddles only, the saddle so picked is kicked
    once more. Only if every kick of a round stalls does the sweep raise
    EquilibriumError with the best gradient max-norm.

    Every sweep settles the next depth, warm-started from the state just
    settled, before it reads the current depth's spectrum. That settle is
    used, or what it raised raised, only if the depth is accepted as it
    stands (no step halving, no saddle descent); otherwise the next depth
    settles again from the accepted state. The host picks only where each
    ``eigh`` runs, never what runs: from 32 ions on, where
    ``_fork.cpus()`` is at least 2, a worker thread runs it while the
    caller settles ahead and builds every Hessian, and the sweep runs
    OpenBLAS on one thread; elsewhere the caller runs it. On one BLAS
    thread the rows are bit for bit the same either way.

    Each solve stops at a gradient max-norm of 1e-10 in trap units,
    whatever the curvature lam of its softest mode, so a position may be
    off by about 1e-10 / lam. Near a pitchfork, where lam goes to 0, a
    frequency is then good to about kappa r |sin 2x| 1e-10 / lam^2
    relative, not to 1e-10 (kappa the lattice wavevector in Coulomb
    lengths, r the lattice curvature over the trap's, x the phase k z):
    2.7e-7 at 101.8 kHz for one ion in a 100 kHz trap on a red lattice.
    """
    nus, freqs, coords, poss, refined, flags = zip(
        *_sweep(N, trap, lattice_max, steps, species, seed, nu_grid))
    species = _default_species(species)
    return ContinuationResult(
        nu_latt=np.asarray(nus),
        depths=np.array([_signed_depth(v, lattice_max, species)
                         for v in nus]),
        frequencies=np.transpose(freqs) / (2.0 * math.pi),
        coordinates=np.asarray(coords),
        positions=np.asarray(poss),
        refined=np.asarray(refined, dtype=bool),
        flagged=[{"step": step, **f} for step, row_flags in enumerate(flags)
                 for f in row_flags],
    )


def _sweep(N, trap, lattice_max, steps, species, seed, nu_grid):
    """The rows of ``continuation``, one accepted depth at a time.

    Checks the arguments now and returns a generator of one record per
    row: (nu_latt Hz, frequencies rad/s in branch order, (3N, 3N) branch
    eigenvectors, (N, 3) positions m, refined, flags). flags lists the
    row's crossings that stayed ambiguous at the finest refinement, each
    a dict of "nu_latt", "branches" and "overlap_gap"; the consumer, who
    counts the rows, gives each its step. A grid too deep for ``eigh`` to
    resolve the trap-scale modes is a DomainError.
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
    # the largest curvature is the lattice's, 2|u0|kappa^2 in trap units
    scaled = _Dimensionless(trap, lattice_max, species)
    with np.errstate(over="ignore"):
        depth = abs(_signed_depth(grid[-1], lattice_max, species))
        curvature = 2.0 * depth / scaled.energy_unit * scaled.kappa ** 2
    ceiling = _EIGH_SPAN * scaled.alpha2.min()
    if not curvature <= ceiling:
        raise DomainError(
            f"a lattice depth of {depth:.3g} J curves the potential by "
            f"{curvature:.3g} in trap units, beyond the {ceiling:.3g} up to "
            "which eigh resolves the softest trap curvature to 1e-6 relative")
    return _tracked_rows(N, trap, lattice_max, species, seed, grid)


def _overlaps(n_ions):
    """Whether a sweep of n_ions ions runs each ``eigh`` on a worker
    thread rather than on the caller (``_spectra``).

    That is all the host picks; what the sweep runs does not depend on
    it. From ``_PARALLEL_MIN_IONS`` ions on, and only where
    ``_fork.cpus()`` is at least 2: two callers of a multi-threaded
    OpenBLAS have no bit-for-bit guarantee, so the sweep needs the
    OpenBLAS thread setter to run it on one thread.
    """
    if n_ions < _PARALLEL_MIN_IONS:
        return False
    # imported here, so that a run with no large sweep never pays for it
    from . import _fork
    return _fork.cpus() >= 2


@contextmanager
def _spectra(overlap):
    """A function h -> f, where f() is ``_spectrum(h)``.

    The caller builds each Hessian h; f runs only its ``eigh``, and
    ``overlap`` picks only the thread that runs it. Without overlap, f
    takes the spectrum on the caller when called. With overlap, the
    spectra run in order on one worker thread (numpy's LAPACK calls
    release the GIL, so its ``eigh`` runs alongside the caller's solves and
    Hessians), and every loaded OpenBLAS runs one thread until the block
    ends. The thread starts with the first call, so that a cold solve
    before it may still fork (``_fork``'s host rule). f waits for the
    spectrum and returns it or raises its exception; a spectrum never
    waited for raises nothing.
    """
    if not overlap:
        yield lambda h: partial(_spectrum, h)
        return
    # imported here: only a sweep that overlaps loads them
    from concurrent.futures import ThreadPoolExecutor
    from . import _fork
    with _fork.one_blas_thread(), ThreadPoolExecutor(
            1, thread_name_prefix="ionlattice-spectra") as worker:
        yield lambda h: worker.submit(_spectrum, h).result


def _descend_from_saddle(scaled, u, vec):
    """(u, energy, gnorm, lam, vec) of the minimum next to the saddle u
    whose Hessian eigenvectors are vec: the ``_lowest`` that six kicks
    along the softest mode reach (``_descend``; a stalled kick is
    skipped). If the kicks reach saddles only, the ``_lowest`` of them is
    kicked once more the same way.
    """
    kicks = np.array([1e-3, -1e-3, 1e-2, -1e-2, 0.1, -0.1])[:, None, None]
    for _ in range(2):
        soft = _by_axis(vec)[:, :, 0].T
        runs = _descend(scaled, u + kicks * soft,
                        "tracked configuration lost stability and every "
                        "kick along the unstable direction")
        found = [(v, energy, gnorm, *_spectrum(scaled.hessian(v)))
                 for v, energy, gnorm in runs]
        minima = [c for c in found if c[3][0] >= _SADDLE_TOL]
        if minima:
            return _lowest(minima)
        u, _, _, _, vec = _lowest(found)
    raise UnstableConfigurationError(
        "tracked configuration lost stability and no adjacent "
        "minimum was reachable along the unstable direction")


def _tracked_rows(N, trap, lattice_max, species, seed, grid):
    # the generator behind _sweep: its body runs only once iterated
    def settle_at(nu, guess):
        # (scaled, u, f) at nu, settled from guess; f() is its spectrum,
        # whose Hessian is built here, on the calling thread
        depth = _signed_depth(nu, lattice_max, species)
        latt = (LatticeConfig(depth, lattice_max.wavevector_k,
                              lattice_max.detuning)
                if depth != 0.0 else None)
        scaled = _Dimensionless(trap, latt, species)
        u = _settle(scaled, N, guess, seed)[0]
        return scaled, u, spectrum_of(scaled.hessian(u))

    ell = length_scale(trap, species)
    with _spectra(_overlaps(N)) as spectrum_of:
        # the target being settled, and those still to reach, nearest
        # last: (nu_latt, halvings, refined); row 0 has no step to halve
        step = (grid[0], _MAX_HALVINGS, False)
        pending = [(target, 0, False) for target in grid[:0:-1]]
        state = settle_at(grid[0], None)
        u = b_prev = None
        while True:
            target, level, refined = step
            scaled, u_new, spectrum = state
            # settle the next target before this one's spectrum is read;
            # used (or what it raised raised) only if this row is accepted
            # as it stands
            ahead = None
            if pending:
                try:
                    ahead = settle_at(pending[-1][0], u_new)
                except Exception as exc:
                    ahead = exc
            lam, vec = spectrum()
            as_is = lam[0] >= _SADDLE_TOL
            if not as_is:
                u_new, _, _, lam, vec = _descend_from_saddle(scaled, u_new,
                                                             vec)
            md = _modes(trap, lam, vec)
            # row 0 is matched to its own branches: |B^T B| is the identity
            # to rounding, so they keep eigh's ascending order and signs
            if b_prev is None:
                b_prev = md.coordinates
            overlap = np.abs(b_prev.T @ md.coordinates)
            perm = assignment(-overlap)
            weakest = np.min(overlap[np.arange(len(perm)), perm])
            if weakest < _OVERLAP_MIN and level < _MAX_HALVINGS:
                mid = 0.5 * (nu + target) if nu == 0.0 \
                    else math.sqrt(nu * target)
                pending.append((target, level + 1, refined))
                step = mid, level + 1, True
                state = settle_at(mid, u)
                continue
            flags = []
            if level == _MAX_HALVINGS:
                for p, row in enumerate(overlap):
                    second, best = np.argsort(row)[-2:]
                    gap = row[best] - row[second]
                    if gap < _AMBIGUITY_TOL:
                        # the branch holding the other of p's two best
                        # columns; p itself may hold its second best
                        other = second if perm[p] == best else best
                        partner = int(np.nonzero(perm == other)[0][0])
                        flags.append({"nu_latt": target,
                                      "branches": (p, partner),
                                      "overlap_gap": float(gap)})
            b_new = md.coordinates[:, perm]
            # keep eigenvector signs continuous across steps
            signs = np.sign(np.sum(b_prev * b_new, axis=0))
            signs[signs == 0.0] = 1.0
            nu, u, b_prev = target, u_new, b_new * signs
            yield nu, md.frequencies[perm], b_prev, u * ell, refined, flags
            if not pending:
                return
            step = pending.pop()  # the target settled ahead
            if as_is:
                if isinstance(ahead, Exception):
                    raise ahead
                state = ahead
            else:
                state = settle_at(step[0], u)


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
    pos = _positions(positions)
    tol = 1e-3 * length_scale(trap, _default_species(species))
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
