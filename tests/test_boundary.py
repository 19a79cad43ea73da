"""Input boundary: non-finite model parameters, fuzzed configs, grids
and spot CSVs.

Every parameter bundle rejects NaN with DomainError instead of carrying
it into a result. parse_config and the --grid parser either return a
value or raise ConfigError, whatever the input; the spot-CSV reader
either returns finite profiles or raises SpotParseError.
"""

import copy
import csv
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ionlattice import (
    BeamProfile,
    ConfigError,
    DomainError,
    ImagingConfig,
    IonSpecies,
    LatticeConfig,
    RampProfile,
    RunConfig,
    SpotParseError,
    TrapConfig,
    lattice_frequency,
    parse_config,
    read_spot_profiles,
    spot_variance_model,
)
from ionlattice import constants as cn
from ionlattice.cli import _parse_grid
from ionlattice.config import _SCHEMA

NAN = math.nan
K = 2.0 * math.pi / cn.CA40_LATTICE_WAVELENGTH
TRAP = TrapConfig.from_frequencies(85e3, 170e3)
CA40 = IonSpecies.ca40()

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
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_parameter_rejected(name):
    with pytest.raises(DomainError):
        NON_FINITE_CALLS[name]()


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
# counts stay small: a grid of a billion points is a valid request
_COUNTS = st.one_of(st.integers(-3, 40).map(str),
                    st.sampled_from(["", "2.5", "1e3", "x", " 3"]))
_KINDS = st.sampled_from(["lin", "geom", "log", "", "LIN"])
_GRIDS = st.one_of(
    st.tuples(_BOUNDS, _BOUNDS, _COUNTS, _KINDS).map(":".join),
    st.text(alphabet=":-.eEinfalgomx ", max_size=24),
)


@settings(max_examples=200, deadline=None)
@given(_GRIDS)
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
_SPOT_ROWS = st.lists(
    st.tuples(_FIELDS, st.sampled_from(["axial", "radial", "x", ""]),
              _FIELDS, _FIELDS),
    min_size=1, max_size=6)


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
            except SpotParseError:
                return
    for ion, axis, prof in profiles:
        assert ion >= 0 and axis in ("axial", "radial")
        assert prof.ndim == 2 and prof.shape[1] == 2
        assert np.all(np.isfinite(prof))
