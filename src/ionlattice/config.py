"""Run configuration: a unit-suffixed YAML/JSON file parsed to SI.

Every physical scalar in the file carries its unit in the key name
(f_z_kHz, depth_max_mK, waist_um, ...) and is converted exactly once,
here. Parsing is strict: unknown keys, missing required keys, wrong
types, and out-of-range values are all reported by their dotted key
path. JSON files use the identical schema: text is read as JSON first,
so every JSON number form counts as a number (PyYAML follows YAML 1.1
and would read 1e-05 as a string), and as YAML otherwise.

The canonical form of a parsed config - every value in SI, defaults
filled in, keys sorted - is hashed with SHA-256 and embedded in every
output file, so artifacts can be traced back to the exact parameters
that produced them. Seeds are mandatory: any config driving a
stochastic routine must state one.

detuning_THz is an ordinary (cycle) frequency as quoted in the lab;
it is stored as an angular frequency internally. Its sign selects the
lattice color: positive = blue (ions localize at intensity nodes).
"""

import difflib
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import yaml

from . import constants as cn
from .crystal import TrapConfig
from .ensemble import BeamProfile
from .errors import ConfigError
from .pendulum import IonSpecies, LatticeConfig, RampProfile
from .thermometry import ImagingConfig

__all__ = ["RunConfig", "load_config", "parse_config", "config_hash"]

_SCHEMA_VERSION = 1

# per-block key tables: name -> (SI factor or converter, required, default).
# Factors multiply the raw file value; defaults are already SI. A None
# factor marks non-numeric keys. A missing optional key takes its default,
# None included, so every optional key is part of the hashed form.


def _thz_to_angular(v):
    return 2.0 * math.pi * 1e12 * v


_SCHEMA = {
    "species": {
        "mass_amu": (cn.AMU, False, cn.CA40_MASS),
        "lattice_wavelength_nm": (1e-9, False, cn.CA40_LATTICE_WAVELENGTH),
        "detection_wavelength_nm": (1e-9, False,
                                    cn.CA40_DETECTION_WAVELENGTH),
    },
    "trap": {
        "f_z_kHz": (1e3, True, None),
        "f_radial_kHz": (1e3, True, None),
        "asymmetry": (1.0, False, 0.03),
        "f_rf_MHz": (1e6, False, 3.98e6),
        "q_radial": (1.0, False, None),
        "q_axial": (1.0, False, 0.0),
    },
    "lattice": {
        "detuning_THz": (_thz_to_angular, False, 0.0),
        "depth_max_mK": (1e-3, False, None),
        "nu_latt_max_MHz": (1e6, False, None),
        "waist_um": (1e-6, False, 37e-6),
    },
    "ramp": {
        "ramp_us": (1e-6, False, 2e-6),
        "hold_us": (1e-6, False, 1e-6),
        "shape": (None, False, "linear"),
    },
    "crystal": {
        "n_ions": (None, True, None),
        "seed": (None, True, None),
        "T0_mK": (1e-3, False, None),
    },
    "thermometry": {
        "sigma_res_axial_um": (1e-6, False, 2.23e-6),
        "sigma_res_radial_um": (1e-6, False, 2.09e-6),
        "pixel_pitch_um": (1e-6, False, 0.92e-6),
        "include_radial": (None, False, False),
    },
    "output": {
        "dir": (None, False, "."),
    },
}

_REQUIRED_BLOCKS = ("trap", "crystal")


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Parsed, SI-normalized run parameters plus built model objects.

    lattice/ramp/T0 are None when the config omits them; commands that
    need them raise ConfigError naming the missing key.
    """

    species: IonSpecies
    trap: TrapConfig
    lattice: Optional[LatticeConfig]
    ramp: Optional[RampProfile]
    beam: Optional[BeamProfile]
    imaging: ImagingConfig
    include_radial: bool
    n_ions: int
    seed: int
    T0: Optional[float]  # K
    output_dir: str
    config_hash: str
    normalized: dict  # canonical SI values, hashed


def _suggest(key, options):
    close = difflib.get_close_matches(str(key), options, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _check_block(name, raw):
    table = _SCHEMA[name]
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected a mapping of keys")
    out = {}
    for key, value in raw.items():
        if key not in table:
            raise ConfigError(
                f"unknown key {name}.{key}{_suggest(key, table)}")
        conv, _, _ = table[key]
        if conv is None:
            out[key] = value
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name}.{key} must be a number, "
                                  f"got {value!r}")
            try:
                si = conv(value) if callable(conv) else value * conv
            except OverflowError:  # an integer beyond the float range
                si = math.inf
            if not math.isfinite(si):  # YAML .nan and .inf, or an overflow
                raise ConfigError(f"{name}.{key} must be finite in SI "
                                  f"units, got {value!r}")
            out[key] = si
    for key, (_, required, default) in table.items():
        if key not in out:
            if required:
                raise ConfigError(f"{name}.{key} is required")
            out[key] = default
    return out


def _validate_int(block, key, value, minimum=0):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{block}.{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{block}.{key} must be >= {minimum}")
    return value


@contextmanager
def _block_errors(name):
    # a value the model objects reject, or one that overflows on the way
    # to them, is a config error of its block
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    except ArithmeticError as exc:  # such as (2 pi nu)^2 beyond 1.8e308
        raise ConfigError(f"{name}: a derived value leaves the float "
                          f"range ({exc})") from None


def config_hash(normalized):
    """SHA-256 hex digest of the canonical JSON form."""
    canonical = json.dumps(normalized, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_config(text):
    """Parse JSON or YAML config text into a RunConfig."""
    try:
        raw = json.loads(text)
    except ValueError:  # not JSON, so YAML
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(
                f"config is not valid YAML/JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of blocks")

    version = raw.pop("schema_version", _SCHEMA_VERSION)
    # an int, not a bool or float that merely compares equal (True == 1)
    if type(version) is not int or version != _SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {version!r} is not supported (expected "
            f"{_SCHEMA_VERSION})")
    for block in raw:
        if block not in _SCHEMA:
            raise ConfigError(f"unknown block {block!r}"
                              f"{_suggest(block, _SCHEMA)}")
    for block in _REQUIRED_BLOCKS:
        if block not in raw:
            raise ConfigError(f"missing required block {block!r}")

    norm = {"schema_version": _SCHEMA_VERSION}
    for block in _SCHEMA:
        norm[block] = _check_block(block, raw.get(block, {}))

    crystal = norm["crystal"]
    n_ions = _validate_int("crystal", "n_ions", crystal["n_ions"], minimum=1)
    seed = _validate_int("crystal", "seed", crystal["seed"])

    ramp_shape = norm["ramp"]["shape"]
    if ramp_shape not in ("linear", "smoothstep"):
        raise ConfigError(
            f"ramp.shape must be 'linear' or 'smoothstep', got {ramp_shape!r}")
    include_radial = norm["thermometry"]["include_radial"]
    if not isinstance(include_radial, bool):
        raise ConfigError("thermometry.include_radial must be true or false")
    out_dir = norm["output"]["dir"]
    if not isinstance(out_dir, str):
        raise ConfigError("output.dir must be a string")

    species_n = norm["species"]
    with _block_errors("species"):
        species = IonSpecies(
            mass=species_n["mass_amu"],
            lattice_transition_wavelength=species_n["lattice_wavelength_nm"],
            detection_wavelength=species_n["detection_wavelength_nm"],
        )
    trap_n = norm["trap"]
    with _block_errors("trap"):
        trap = TrapConfig.from_frequencies(
            trap_n["f_z_kHz"], trap_n["f_radial_kHz"],
            asymmetry=trap_n["asymmetry"], f_rf=trap_n["f_rf_MHz"],
            q_radial=trap_n["q_radial"], q_axial=trap_n["q_axial"])

    lat = norm["lattice"]
    lattice = beam = None
    if "lattice" in raw:
        has_depth = lat["depth_max_mK"] is not None
        has_nu = lat["nu_latt_max_MHz"] is not None
        if has_depth == has_nu:
            raise ConfigError(
                "lattice needs exactly one of depth_max_mK or "
                "nu_latt_max_MHz")
        with _block_errors("lattice"):
            k = species.lattice_wavevector
            if has_depth:
                if lat["depth_max_mK"] < 0:
                    raise ConfigError("lattice.depth_max_mK must be >= 0")
                u0 = cn.KB * lat["depth_max_mK"]
            else:
                if lat["nu_latt_max_MHz"] < 0:
                    raise ConfigError("lattice.nu_latt_max_MHz must be >= 0")
                nu = lat["nu_latt_max_MHz"]
                u0 = species.mass * (2.0 * math.pi * nu) ** 2 / (2.0 * k * k)
            detuning = lat["detuning_THz"]
            signed = -u0 if detuning < 0 else u0
            lattice = LatticeConfig(depth_U0=signed, wavevector_k=k,
                                    detuning=detuning)
            beam = BeamProfile(waist_radius=lat["waist_um"])

    ramp = None
    if lattice is not None:
        with _block_errors("ramp"):
            ramp = RampProfile(u0_max=abs(lattice.depth_U0),
                               ramp_duration=norm["ramp"]["ramp_us"],
                               hold_duration=norm["ramp"]["hold_us"],
                               shape=ramp_shape)

    therm = norm["thermometry"]
    with _block_errors("thermometry"):
        imaging = ImagingConfig(
            sigma_res_axial=therm["sigma_res_axial_um"],
            sigma_res_radial=therm["sigma_res_radial_um"],
            pixel_pitch=therm["pixel_pitch_um"])

    t0 = crystal["T0_mK"]
    if t0 is not None and t0 <= 0:
        raise ConfigError("crystal.T0_mK must be positive")

    return RunConfig(
        species=species, trap=trap, lattice=lattice, ramp=ramp, beam=beam,
        imaging=imaging, include_radial=include_radial, n_ions=n_ions,
        seed=seed, T0=t0, output_dir=out_dir,
        config_hash=config_hash(norm), normalized=norm)


def load_config(path):
    """Read and parse a config file. File-system errors propagate."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
