"""Input boundary: non-finite model parameters, fuzzed configs, grids,
spot CSVs and whole command-line runs.

Every parameter bundle, and every checked argument of the public scalar
functions, rejects NaN with DomainError instead of carrying it into a
result, and so does every entry that takes ion positions: they must be
finite and hold 3N numbers. A bundle holds its numbers as Python floats
and checks their signs, not only their squares, so a numpy float64
argument gives what the equal Python float gives. parse_config and the
--grid parser either return a value or raise ConfigError, whatever the
input; the spot-CSV reader either returns finite profiles or raises
SpotParseError. Every verb of ``cli.main`` either writes finite artifacts
or exits with a defined code from a library error.
"""

import contextlib
import copy
import csv
import io
import json
import math
import os
import tempfile
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionlattice import (
    BeamProfile,
    ConfigError,
    CrystalState,
    DomainError,
    ImagingConfig,
    IonLatticeError,
    IonSpecies,
    LatticeConfig,
    RampProfile,
    RunConfig,
    ScatteringScenario,
    SpotParseError,
    TrapConfig,
    action_density,
    bunching_given_energy,
    classify_structure,
    dimensionless_action,
    effective_axial_q,
    energy_density,
    equilibrium,
    excess_micromotion,
    fit_gaussian_profile,
    gamma_parameters,
    lattice_frequency,
    mean_scattering_rate,
    normal_modes,
    normalized_period,
    parse_config,
    position_density_given_energy,
    q_from_secular_frequency,
    read_spot_profiles,
    scatter_count_pmf,
    scattering_probability,
    scattering_rate,
    spot_variance_model,
    subsequent_fraction,
    synthesize_spots,
    total_potential,
    variance_broadening,
)
from ionlattice import constants as cn
from ionlattice import cli
from ionlattice.cli import _parse_grid
from ionlattice.config import _SCHEMA

NAN = math.nan
K = 2.0 * math.pi / cn.CA40_LATTICE_WAVELENGTH
TRAP = TrapConfig.from_frequencies(85e3, 170e3)
CA40 = IonSpecies.ca40()


def _pair(x0):
    # two ions on the trap axis, the first one's x coordinate set to x0
    return np.array([[x0, 0.0, -1e-5], [0.0, 0.0, 1e-5]])


def _state(positions):
    return CrystalState(positions, potential_value=0.0, lattice_depth=0.0,
                        gradient_norm=0.0)


# each entry that takes ion positions, and positions it must refuse
_POSITION_ENTRIES = {
    "normal_modes": lambda pos: normal_modes(_state(pos), TRAP),
    "classify_structure": lambda pos: classify_structure(pos, TRAP),
    "excess_micromotion": lambda pos: excess_micromotion(_state(pos), TRAP),
    "total_potential": lambda pos: total_potential(pos, TRAP),
    "equilibrium initial_guess": lambda pos: equilibrium(
        2, TRAP, initial_guess=pos),
    "BeamProfile.depth_factor": lambda pos: BeamProfile(
        30e-6).depth_factor(pos),
}
_BAD_POSITIONS = {"NaN": _pair(NAN), "infinite": _pair(math.inf),
                  "5-number": np.zeros(5)}

NON_FINITE_CALLS = {
    "TrapConfig f_z": lambda: TrapConfig.from_frequencies(NAN, 170e3),
    "TrapConfig f_radial": lambda: TrapConfig.from_frequencies(85e3, NAN),
    "TrapConfig f_rf": lambda: TrapConfig.from_frequencies(85e3, 170e3,
                                                           f_rf=NAN),
    "TrapConfig infinite f_z": lambda: TrapConfig.from_frequencies(
        math.inf, 170e3),
    "LatticeConfig depth": lambda: LatticeConfig(depth_U0=NAN,
                                                 wavevector_k=K),
    "LatticeConfig detuning": lambda: LatticeConfig(
        depth_U0=1e-25, wavevector_k=K, detuning=NAN),
    "LatticeConfig k": lambda: LatticeConfig(depth_U0=1e-25,
                                             wavevector_k=NAN),
    "LatticeConfig infinite k": lambda: LatticeConfig(
        depth_U0=1e-25, wavevector_k=math.inf),
    "RampProfile u0_max": lambda: RampProfile(
        u0_max=NAN, ramp_duration=2e-6, hold_duration=1e-6),
    "RampProfile ramp": lambda: RampProfile(
        u0_max=1e-25, ramp_duration=NAN, hold_duration=1e-6),
    "RampProfile hold": lambda: RampProfile(
        u0_max=1e-25, ramp_duration=2e-6, hold_duration=NAN),
    "BeamProfile": lambda: BeamProfile(waist_radius=NAN),
    "ImagingConfig": lambda: ImagingConfig(
        sigma_res_axial=NAN, sigma_res_radial=2.09e-6, pixel_pitch=0.92e-6),
    "IonSpecies mass": lambda: IonSpecies(mass=NAN),
    "IonSpecies wavelength": lambda: IonSpecies(
        mass=cn.CA40_MASS, lattice_transition_wavelength=NAN),
    "lattice_frequency": lambda: lattice_frequency(NAN, CA40, K),
    "spot_variance_model": lambda: spot_variance_model(
        NAN, 1.0, TRAP, CA40, 2.23e-6),
    "RampProfile.depth": lambda: RampProfile(
        u0_max=1e-25, ramp_duration=2e-6, hold_duration=1e-6).depth(NAN),
    "action_density": lambda: action_density(NAN, 1e-3, 1e-25),
    "scattering_rate": lambda: scattering_rate(
        0.3, NAN, LatticeConfig(depth_U0=1e-25, wavevector_k=K), CA40),
    "q_from_secular_frequency omega_sec": lambda: q_from_secular_frequency(
        NAN, 2 * math.pi * 3.98e6),
    "q_from_secular_frequency omega_rf": lambda: q_from_secular_frequency(
        2 * math.pi * 170e3, NAN),
    "effective_axial_q": lambda: effective_axial_q(NAN),
    "variance_broadening": lambda: variance_broadening(NAN),
    **{f"{entry} {bad} positions": partial(call, pos)
       for entry, call in _POSITION_ENTRIES.items()
       for bad, pos in _BAD_POSITIONS.items()},
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_parameter_rejected(name):
    with pytest.raises(DomainError):
        NON_FINITE_CALLS[name]()


_RAMP = RampProfile(u0_max=1e-25, ramp_duration=2e-5, hold_duration=1e-6)
_BLUE = LatticeConfig(depth_U0=1e-25, wavevector_k=K,
                      detuning=2 * math.pi * 0.76e12)

# each call -> the start of its DomainError message
DOMAIN_ERROR_CALLS = {
    "scatter_count_pmf n": (lambda: scatter_count_pmf(0, 0.5),
                            "need at least one ion"),
    "scatter_count_pmf p": (lambda: scatter_count_pmf(3, 1.5),
                            "per-ion probability"),
    "subsequent_fraction n": (lambda: subsequent_fraction(0, 0.5),
                              "need at least one ion"),
    "subsequent_fraction p": (lambda: subsequent_fraction(3, -0.1),
                              "per-ion probability"),
    "IonSpecies gamma_397": (lambda: IonSpecies(
        mass=cn.CA40_MASS, gamma_p_total=1e7, gamma_397=2e7),
        "need 0 < gamma_397"),
    "action_density s": (lambda: action_density(-0.1, 1e-3, 1e-25),
                         "dimensionless action"),
    "scattering_rate rabi": (lambda: scattering_rate(0.3, -1.0, _BLUE, CA40),
                             "rabi must be non-negative"),
    "p0 above 1": (lambda: scattering_probability(
        2e-5, 1e-3, _RAMP, _BLUE, CA40, p0=1.5), "p0 must lie in"),
    "p0 below 0": (lambda: scattering_probability(
        2e-5, 1e-3, _RAMP, _BLUE, CA40, p0=-0.5), "p0 must lie in"),
    # the ramp names the time, not the depth it would make of it
    "mean_scattering_rate t": (lambda: mean_scattering_rate(
        NAN, 1e-3, _RAMP, _BLUE, CA40), "t=nan outside ramp domain"),
    # a non-finite argument, or one whose square or result leaves the
    # float range, is named
    "scattering_rate NaN kz": (lambda: scattering_rate(
        NAN, 1e7, _BLUE, CA40), "kz must be finite"),
    "scattering_rate infinite kz": (lambda: scattering_rate(
        math.inf, 1e7, _BLUE, CA40), "kz must be finite"),
    "scattering_rate huge rabi": (lambda: scattering_rate(
        0.3, 1e200, _BLUE, CA40), "rabi must be non-negative"),
    "effective_axial_q huge": (lambda: effective_axial_q(1e200),
                               "q_radial must be non-negative"),
    "variance_broadening huge": (lambda: variance_broadening(1e200),
                                 "q must be non-negative"),
    "lattice_frequency infinite T": (lambda: lattice_frequency(
        math.inf, CA40, K), "T_latt = inf K"),
    "lattice_frequency huge T": (lambda: lattice_frequency(1e308, CA40, K),
                                 r"T_latt = 1e\+308 K"),
    "spot_variance_model infinite T": (lambda: spot_variance_model(
        math.inf, 1.0, TRAP, CA40, 2.23e-6), "temperature T = inf K"),
    # an energy ratio E/U0 that leaves the float range is named
    "dimensionless_action huge E/U0": (lambda: dimensionless_action(
        1e308, 1e-25), "E/U0 leaves the float range"),
    "dimensionless_action tiny U0": (lambda: dimensionless_action(
        1.0, 5e-324), "E/U0 leaves the float range"),
    "normalized_period huge E/U0": (lambda: normalized_period(
        1e308, 1e-25), "E/U0 leaves the float range"),
    "bunching_given_energy huge E/U0": (lambda: bunching_given_energy(
        1e308, 1e-25), "E/U0 leaves the float range"),
    "energy_density huge E/U0": (lambda: energy_density(
        1e308, 1e-3, 1e-25), "E/U0 leaves the float range"),
    "position_density_given_energy huge E/U0": (
        lambda: position_density_given_energy(0.3, 1e308, 1e-25),
        "E/U0 leaves the float range"),
}

_TRAP_SQUARES = "secular and rf frequencies must be positive and finite"
_SPOT = np.column_stack([np.arange(-20.0, 21.0), 5.0 + 100.0 * np.exp(
    -0.5 * (np.arange(-20.0, 21.0) / 3.0) ** 2)])
_IMAGING = ImagingConfig(2.23e-6, 2.09e-6, 0.92e-6)


def _synthesize(photon_budget=1e4, background=0.0, noise=True):
    # two ions' spots; the arguments are checked before anything is drawn
    state = equilibrium(2, TRAP, seed=1)
    gamma = gamma_parameters(normal_modes(state, TRAP))
    return synthesize_spots(3.5e-3, state, gamma, _IMAGING, photon_budget,
                            seed=1, trap=TRAP, background=background,
                            noise=noise)


@pytest.mark.parametrize("budget", [1e20, 1e300])
def test_photon_budget_past_the_poisson_limit_fits_without_noise(budget):
    # only the Poisson draw has the limit; the noiseless spots' widths do
    # not depend on their height
    widths = [s.fitted_sigma for s in _synthesize(1e4, noise=False)]
    assert [s.fitted_sigma for s in _synthesize(budget, noise=False)] == \
        pytest.approx(widths, rel=1e-9)


# entries that square, multiply or divide one real argument, each with
# values of the wrong sign or whose results leave the float range, and the
# start of the DomainError that the Python float gives: the equal numpy
# float64 gives it too, with no RuntimeWarning from numpy's scalar
# arithmetic
_REAL_ARGUMENT_CALLS = {
    "IonSpecies wavelength": (lambda v: IonSpecies(
        mass=cn.CA40_MASS, lattice_transition_wavelength=v),
        {1e-200: "lattice wavelength", 5e-324: "lattice wavelength"}),
    "LatticeConfig depth": (lambda v: LatticeConfig(
        depth_U0=v, wavevector_k=K, detuning=_BLUE.detuning),
        {-1e308: "depth_U0 and detuning must carry the same sign"}),
    "TrapConfig omega_z": (lambda v: TrapConfig(v, 1.0, 1.0),
                           dict.fromkeys([1e200, 1e308, -1e308, -1.0],
                                         _TRAP_SQUARES)),
    # a negative frequency whose square is fine, with q_radial given so
    # that no negative q is derived from it
    "TrapConfig omega_x": (lambda v: TrapConfig(1.0, v, 1.0, q_radial=0.1),
                           {-1.0: _TRAP_SQUARES}),
    "TrapConfig omega_rf, q_radial given": (
        lambda v: TrapConfig(1.0, 1.0, 1.0, omega_rf=v, q_radial=0.1),
        {-1.0: _TRAP_SQUARES}),
    # |asymmetry| >= 2 makes one radial frequency zero or negative
    "TrapConfig.from_frequencies asymmetry": (
        lambda v: TrapConfig.from_frequencies(85e3, 170e3, asymmetry=v),
        dict.fromkeys([3.0, -3.0], _TRAP_SQUARES)),
    "TrapConfig omega_rf": (lambda v: TrapConfig(1.0, 1.0, 1.0, omega_rf=v),
                            dict.fromkeys([1e200, 1e308, -1e308],
                                          _TRAP_SQUARES)),
    "TrapConfig.from_frequencies f_z": (
        lambda v: TrapConfig.from_frequencies(v, 170e3),
        {1e200: _TRAP_SQUARES}),
    "BeamProfile": (BeamProfile,
                    dict.fromkeys([1e200, -37e-6],
                                  "waist_radius must be positive")),
    "ImagingConfig": (lambda v: ImagingConfig(v, 2.09e-6, 0.92e-6),
                      {1e200: "imaging constants must be positive"}),
    "variance_broadening": (variance_broadening,
                            {1e200: "q must be non-negative"}),
    "effective_axial_q": (effective_axial_q,
                          {1e200: "q_radial must be non-negative"}),
    "scattering_rate rabi": (lambda v: scattering_rate(0.3, v, _BLUE, CA40),
                             {1e200: "rabi must be non-negative"}),
    "lattice_frequency": (lambda v: lattice_frequency(v, CA40, K),
                          {1e308: "T_latt = "}),
    "dimensionless_action": (lambda v: dimensionless_action(v, 1e-25),
                             {1e308: "E/U0 leaves the float range"}),
    # the pitch scales the fitted width and its interval, so a pitch that
    # is not positive and finite would scale them to such values
    "fit_gaussian_profile pixel_pitch": (
        lambda v: fit_gaussian_profile(_SPOT, pixel_pitch=v),
        dict.fromkeys([-1.0, 0.0, NAN, math.inf],
                      "pixel_pitch must be positive and finite")),
    # refused before numpy's Poisson draw, which cannot take them
    "synthesize_spots photon_budget": (
        lambda v: _synthesize(photon_budget=v),
        {**dict.fromkeys([-1e4, 0.0, NAN, math.inf],
                         "photon_budget must be positive and finite"),
         # peak counts past numpy's Poisson limit of about 9.2e18
         **dict.fromkeys([1e20, 1e300], "photon_budget and background give")}),
    "synthesize_spots background": (
        lambda v: _synthesize(background=v),
        dict.fromkeys([-5.0, NAN, math.inf],
                      "background must be non-negative and finite")),
}
DOMAIN_ERROR_CALLS.update({
    f"{entry}{kind} {value!r}": (partial(call, real(value)), message)
    for entry, (call, refused) in _REAL_ARGUMENT_CALLS.items()
    for value, message in refused.items()
    for kind, real in (("", float), (" np.float64", np.float64))})


@pytest.mark.parametrize("name", sorted(DOMAIN_ERROR_CALLS))
def test_domain_error_raised(name):
    call, message = DOMAIN_ERROR_CALLS[name]
    with pytest.raises(DomainError, match="^" + message):
        call()


def test_numpy_float64_gives_the_float_value():
    # as for a Python float: accepted, where depth_U0 * detuning overflows
    # to inf, and 0.0, where s^2 does. The lattice's derived values are
    # the float's too: inf, and the DomainError of an infinite T_latt
    latt = LatticeConfig(depth_U0=np.float64(1e308), wavevector_k=K,
                         detuning=_BLUE.detuning)
    assert latt.depth_U0 == 1e308
    assert latt.rabi == math.inf
    with pytest.raises(DomainError, match="^T_latt = inf K gives no finite"):
        latt.vibrational_frequency(CA40)
    assert action_density(np.float64(1e200), 1e-3, 1e-25) == 0.0 \
        == action_density(1e200, 1e-3, 1e-25)


# each bundle with numpy float64 arguments, and the fields it holds
_BUNDLES = {
    "IonSpecies": lambda: IonSpecies(*map(np.float64, (
        cn.CA40_MASS, 866e-9, 397e-9, 1.3e8, 1.2e8))),
    "TrapConfig": lambda: TrapConfig(*map(np.float64, (
        1e6, 2e6, 2e6, 2e7, 0.1, 0.01))),
    "LatticeConfig": lambda: LatticeConfig(*map(np.float64, (1e-25, K, 1e12))),
    "RampProfile": lambda: RampProfile(*map(np.float64, (1e-25, 2e-6, 1e-6))),
    "BeamProfile": lambda: BeamProfile(np.float64(37e-6)),
    "ImagingConfig": lambda: ImagingConfig(*map(np.float64, (
        2.23e-6, 2.09e-6, 0.92e-6))),
    "ScatteringScenario": lambda: ScatteringScenario(
        None, CA40, _BLUE, _RAMP, np.float64(3.6e-3), np.float64(0.9)),
}


@pytest.mark.parametrize("name", sorted(_BUNDLES))
def test_bundle_holds_python_floats(name):
    bundle = _BUNDLES[name]()
    fields = [getattr(bundle, name) for name in type(bundle).__slots__]
    numbers = [v for v in fields if isinstance(v, (int, float))]
    assert numbers and all(type(v) is float for v in numbers)


@pytest.mark.parametrize("name", sorted(_REAL_ARGUMENT_CALLS))
def test_str_argument_still_raises_type_error(name):
    # taking float() of an argument must not make its str a number
    with pytest.raises(TypeError):
        _REAL_ARGUMENT_CALLS[name][0]("1e200")


# ----------------------------------------------------------------------
# parse_config over generated configs

_BASE = {
    "trap": {"f_z_kHz": 85.0, "f_radial_kHz": 170.0},
    "lattice": {"detuning_THz": 0.76, "depth_max_mK": 25.0},
    "crystal": {"n_ions": 4, "seed": 7, "T0_mK": 3.6},
}
# every schema key, plus a misspelt and a non-string key
_KEYS = [(block, key) for block, table in _SCHEMA.items() for key in table]
_KEYS += [("trap", "f_z_khz"), ("crystal", 7)]

_NUMBERS = st.one_of(
    st.sampled_from([0, 0.0, -1, -1e-5, 1e-5, 1e-300, 1e300, 1.7e308,
                     10 ** 400, -(10 ** 400)]),
    st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=False, allow_infinity=False),
)
_WRONG_TYPES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=1),
)


@st.composite
def _config_texts(draw):
    raw = copy.deepcopy(_BASE)
    for block, key in draw(st.lists(st.sampled_from(_KEYS), min_size=1,
                                    max_size=4)):
        raw.setdefault(block, {})[key] = draw(_NUMBERS | _WRONG_TYPES)
    if draw(st.integers(0, 9)) == 0:  # now and then a block of wrong type
        raw[draw(st.sampled_from(sorted(raw)))] = draw(_WRONG_TYPES)
    if draw(st.booleans()):
        return json.dumps(raw)
    return yaml.safe_dump(raw)


@settings(max_examples=100, deadline=None)
@given(_config_texts())
def test_parse_config_returns_or_raises_config_error(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
    assert isinstance(cfg, RunConfig)
    for block in cfg.normalized.values():
        if isinstance(block, dict):
            assert all(math.isfinite(v) for v in block.values()
                       if isinstance(v, float))


# ----------------------------------------------------------------------
# --grid strings

_BOUNDS = st.one_of(
    st.sampled_from(["0", "-1", "1e-3", "2.5", "nan", "inf", "-inf",
                     "1e400", "", "x", " 2 "]),
    st.floats().map(repr),
)
# valid counts stay small; one past the cap is refused before numpy
_COUNTS = st.one_of(st.integers(-3, 40).map(str),
                    st.sampled_from(["", "2.5", "1e3", "x", " 3", "100001",
                                     "1000000000000000"]))
_KINDS = st.sampled_from(["lin", "geom", "log", "", "LIN"])
_GRIDS = st.one_of(
    st.tuples(_BOUNDS, _BOUNDS, _COUNTS, _KINDS).map(":".join),
    st.text(alphabet=":-.eEinfalgomx ", max_size=24),
)


@settings(max_examples=200, deadline=None)
@given(_GRIDS)
@example("1.7976931348622103e+308:1.7976931348622103e+308:3:geom")
@example("0:1:1000000000000000:lin")
@example("0:1.7976931348623157e+308:4:lin")
def test_parse_grid_returns_or_raises_config_error(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = _parse_grid(spec)
        except ConfigError:
            return
    assert grid.ndim == 1 and grid.size >= 1
    assert np.all(np.isfinite(grid)) and np.all(grid >= 0)


# ----------------------------------------------------------------------
# spot CSV rows

_FIELDS = st.one_of(
    st.sampled_from(["0", "3", "-1", "nan", "-nan", "inf", "-inf", "1e400",
                     "-1e400", "2.5", "", "x", " 4 ", str(10 ** 30),
                     str(-(10 ** 30))]),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.floats().map(repr),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
_SPOT_ROWS = st.one_of(
    st.lists(st.tuples(_FIELDS, st.sampled_from(["axial", "radial", "x", ""]),
                       _FIELDS, _FIELDS),
             min_size=1, max_size=6),
    # well-formed rows, so that groups of every size and negative counts
    # reach the group checks
    st.lists(st.tuples(st.integers(0, 2).map(str),
                       st.sampled_from(["axial", "radial"]),
                       st.integers(-5, 5).map(str),
                       st.integers(-2, 60).map(str)),
             min_size=1, max_size=16),
)


@settings(max_examples=200, deadline=None)
@given(_SPOT_ROWS)
def test_read_spot_profiles_returns_or_raises_spot_parse_error(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spots.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["ion_index", "axis", "pixel", "counts"])
            writer.writerows(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                profiles = read_spot_profiles(path)
            except SpotParseError as exc:
                assert str(exc).startswith("line ")
                return
    for ion, axis, prof in profiles:
        assert ion >= 0 and axis in ("axial", "radial")
        assert prof.ndim == 2 and prof.shape[1] == 2 and len(prof) >= 5
        assert np.all(np.isfinite(prof)) and np.all(prof[:, 1] >= 0)


# ----------------------------------------------------------------------
# cli.main end to end: small crystals, small grids, every verb

_MHZ_GRIDS = st.tuples(
    st.sampled_from([0.0, 0.01, 0.05]), st.sampled_from([0.0, 0.1, 0.3]),
    st.integers(1, 3), st.sampled_from(["lin", "geom"]),
).map(lambda g: "%r:%r:%d:%s" % g)
_MK_GRIDS = st.tuples(
    st.sampled_from([0.0, 0.5, 5.0]), st.sampled_from([0.0, 10.0, 30.0]),
    st.integers(1, 3), st.sampled_from(["lin", "geom"]),
).map(lambda g: "%r:%r:%d:%s" % g)


@st.composite
def _run_configs(draw):
    """A config of 1-4 ions, mostly valid, with edge values mixed in."""
    f_z = draw(st.floats(40.0, 250.0))
    raw = {
        "trap": {"f_z_kHz": f_z,
                 "f_radial_kHz": f_z * draw(st.floats(0.8, 5.0)),
                 "asymmetry": draw(st.sampled_from([0.0, 0.03, 0.1])),
                 "q_axial": draw(st.sampled_from([0.0, 5e-4]))},
        "crystal": {"n_ions": draw(st.integers(1, 4)),
                    "seed": draw(st.integers(0, 20))},
    }
    if draw(st.booleans()):
        raw["crystal"]["T0_mK"] = draw(st.floats(0.5, 10.0))
    if draw(st.integers(0, 4)):
        depth_key = draw(st.sampled_from(["depth_max_mK", "nu_latt_max_MHz"]))
        raw["lattice"] = {
            "detuning_THz": draw(st.sampled_from([0.76, -0.76, 0.0])),
            depth_key: draw(st.sampled_from([0.0, 0.05, 0.3, 5.0, 30.0])),
        }
    return raw


def _spot_rows(n_ions, width_px, amplitude):
    # one axial spot per ion, centred, as a camera would record it
    px = np.arange(-10, 11)
    counts = np.round(amplitude * np.exp(-0.5 * (px / width_px) ** 2))
    return [(ion, "axial", int(p), int(c))
            for ion in range(n_ions) for p, c in zip(px, counts)]


def _assert_finite_artifact(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        def refuse(constant):
            raise AssertionError(f"{path}: {constant}")
        json.loads(text, parse_constant=refuse)
        return
    lines = text.splitlines()
    assert lines[0].startswith("# config_hash=")
    for row in csv.reader(lines[2:]):
        values = [float(v) for v in row]
        assert all(math.isfinite(v) for v in values), (path, row)


@settings(max_examples=25, deadline=None)
@given(_run_configs(), _MHZ_GRIDS, _MK_GRIDS, st.floats(1.5, 4.0),
       st.floats(50.0, 2000.0))
def test_cli_verbs_exit_cleanly_with_finite_artifacts(
        raw, modes_grid, scatter_grid, width_px, amplitude):
    n_ions = raw["crystal"]["n_ions"]
    runs = [["equilibrium"], ["modes", "--grid", modes_grid],
            ["scatter", "--grid", scatter_grid], ["thermometry"],
            ["micromotion"]]
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.yaml")
        with open(config, "w", encoding="utf-8") as fh:
            yaml.safe_dump(raw, fh)
        spots = os.path.join(tmp, "spots.csv")
        with open(spots, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["ion_index", "axis", "pixel", "counts"])
            writer.writerows(_spot_rows(n_ions, width_px, amplitude))
        for verb, *extra in runs:
            out = os.path.join(tmp, verb)
            argv = [verb, "--config", config, "--out", out] + extra
            if verb == "thermometry":
                argv += ["--spots", spots]
            before = set(os.listdir(out)) if os.path.isdir(out) else set()
            with mock.patch.object(cli, "exit_code_for",
                                   wraps=cli.exit_code_for) as mapped, \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv)
            assert code in (0, 2, 3, 4), (argv, code)
            assert not [w for w in caught
                        if issubclass(w.category, RuntimeWarning)], argv
            for call in mapped.call_args_list:  # a library error, not a crash
                assert isinstance(call.args[0], (IonLatticeError, OSError)), \
                    (argv, repr(call.args[0]))
            names = set(os.listdir(out)) if os.path.isdir(out) else set()
            if code:  # a failed sweep leaves no partial or new modes.csv
                assert not [n for n in names if n.endswith(".tmp")], argv
                assert "modes.csv" in before or "modes.csv" not in names
            for name in names:
                _assert_finite_artifact(os.path.join(out, name))


# scatter on extreme depth grids (mK), from 0 and subnormal depths to the
# rate's float ceiling: each grid is solved or refused as a config error
_EXTREME_MK = st.one_of(
    st.just(0.0),
    st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e),
    st.sampled_from([5e304, 1.7e308]),
)
_EXTREME_MK_GRIDS = st.tuples(
    _EXTREME_MK, _EXTREME_MK, st.integers(1, 4),
    st.sampled_from(["lin", "geom"]),
).map(lambda g: "%r:%r:%d:%s" % g)
_T0_MK = st.one_of(st.just(3.6),
                   st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e))


@settings(max_examples=60, deadline=None)
@given(_run_configs(), _T0_MK, _EXTREME_MK_GRIDS)
@example({"trap": {"f_z_kHz": 85.0, "f_radial_kHz": 170.0},
          "crystal": {"n_ions": 2, "seed": 1}}, 3.6, "1e+100:1.0:3:geom")
def test_scatter_on_extreme_grids_exits_cleanly(raw, t0_mk, grid):
    raw = dict(raw, lattice={"detuning_THz": 0.76, "depth_max_mK": 25.0},
               crystal=dict(raw["crystal"], T0_mK=t0_mk))
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.yaml")
        with open(config, "w", encoding="utf-8") as fh:
            yaml.safe_dump(raw, fh)
        out = os.path.join(tmp, "out")
        argv = ["scatter", "--config", config, "--out", out, "--grid", grid]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert code in (0, 2), (argv, code)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], argv
        for name in os.listdir(out) if os.path.isdir(out) else []:
            _assert_finite_artifact(os.path.join(out, name))
        if code == 0:
            with open(os.path.join(out, "scatter.csv"),
                      encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh.readlines()[1:]))
            assert all(0.0 <= float(r["p_per_ion"]) <= 1.0 for r in rows)


# modes on extreme lattice grids (MHz), from 0 and subnormal frequencies to
# the end of the float range: each grid is swept, refused as a config
# error, or stopped by a library error
_EXTREME_MHZ = st.one_of(
    st.just(0.0),
    st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e),
    st.just(1.7e308),
)
_EXTREME_MHZ_GRIDS = st.tuples(
    _EXTREME_MHZ, _EXTREME_MHZ, st.integers(1, 4),
    st.sampled_from(["lin", "geom"]),
).map(lambda g: "%r:%r:%d:%s" % g)


@settings(max_examples=60, deadline=None)
@given(_run_configs(), st.sampled_from([0.76, -0.76]), _EXTREME_MHZ_GRIDS)
def test_modes_on_extreme_grids_exits_cleanly(raw, detuning, grid):
    raw = dict(raw, lattice={"detuning_THz": detuning, "depth_max_mK": 25.0})
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.yaml")
        with open(config, "w", encoding="utf-8") as fh:
            yaml.safe_dump(raw, fh)
        out = os.path.join(tmp, "out")
        argv = ["modes", "--config", config, "--out", out, "--grid", grid]
        with mock.patch.object(cli, "exit_code_for",
                               wraps=cli.exit_code_for) as mapped, \
                warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert code in (0, 2, 3), (argv, code)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], argv
        for call in mapped.call_args_list:  # a library error, not a crash
            assert isinstance(call.args[0], IonLatticeError), \
                (argv, repr(call.args[0]))
        names = os.listdir(out) if os.path.isdir(out) else []
        assert not [n for n in names if n.endswith(".tmp")], argv
        for name in names:
            _assert_finite_artifact(os.path.join(out, name))
    # the ceiling band every drawn trap shares: sqrt(1e-6/eps) f_z
    # min(alpha, 1) lies between about 2000 and 17000 MHz for f_z of
    # 40-250 kHz and alpha >= 0.76
    try:
        top = cli._parse_grid(grid).max()
    except ConfigError:  # a grid the parser refuses is a --grid error
        top = math.inf
    if top >= 1e5:
        assert code == 2 and "--grid" in err.getvalue(), (argv, code)
    if top <= 1000.0:
        assert code != 2, (argv, err.getvalue())
