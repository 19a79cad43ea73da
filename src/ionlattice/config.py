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

import hashlib
import json
import math

from . import _EXPORTS, constants as cn
from .crystal import TrapConfig
from .ensemble import BeamProfile
from .errors import ConfigError, read_utf8, refused
from .pendulum import IonSpecies, LatticeConfig, RampProfile, _depth_for_nu
from .thermometry import ImagingConfig

__all__ = [*_EXPORTS["config"], "config_hash"]

_SCHEMA_VERSION = 1

# per-block key tables: name -> (SI factor, required, default). Factors
# multiply the raw file value; defaults are already SI. A None factor
# marks non-numeric keys. A missing optional key takes its default, None
# included, so every optional key is part of the hashed form.
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
        "detuning_THz": (2.0 * math.pi * 1e12, False, 0.0),  # to rad/s
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

# the most ions a crystal may have: a cold start holds three (3N)^2 float64
# BFGS matrices, 216*N^2 bytes, so 1000 ions take about 0.2 GB per start
# and thirty times as many would not fit any host
_MAX_IONS = 1000


class RunConfig:
    """Parsed, SI-normalized run parameters plus built model objects.

    lattice/ramp/T0 are None when the config omits them; commands that
    need them raise ConfigError naming the missing key.
    """

    __slots__ = ("species", "trap", "lattice", "ramp", "beam", "imaging",
                 "include_radial", "n_ions", "seed", "T0", "output_dir",
                 "config_hash", "normalized")

    def __init__(self, species, trap, lattice, ramp, beam, imaging,
                 include_radial, n_ions, seed, T0, output_dir, config_hash,
                 normalized):
        self.species = species
        self.trap = trap
        self.lattice = lattice
        self.ramp = ramp
        self.beam = beam
        self.imaging = imaging
        self.include_radial = include_radial
        self.n_ions = n_ions
        self.seed = seed
        self.T0 = T0  # K
        self.output_dir = output_dir
        self.config_hash = config_hash
        self.normalized = normalized  # canonical SI values, hashed


def _shown(value):
    """repr of a refused value: a scalar whole, anything else cut to one
    level, so that a tree of YAML aliases cannot blow up the message."""
    if isinstance(value, (int, float, str, type(None))):  # bool is an int
        return repr(value)
    import reprlib  # here, so that only such a refusal pays its import
    short = reprlib.Repr()
    short.maxlevel = 1
    return short.repr(value)


def _suggest(key, options):
    import difflib  # here, so that only a misspelled key pays its import
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
                                  f"got {_shown(value)}")
            try:
                si = value * conv
            except OverflowError:  # an integer beyond the float range
                si = math.inf
            if not math.isfinite(si):  # YAML .nan and .inf, or an overflow
                raise ConfigError(f"{name}.{key} must be finite in SI "
                                  f"units, got {_shown(value)}")
            out[key] = si
    for key, (_, required, default) in table.items():
        if key not in out:
            if required:
                raise ConfigError(f"{name}.{key} is required")
            out[key] = default
    return out


def _validate_int(block, key, value, minimum=0):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{block}.{key} must be an integer, "
                          f"got {_shown(value)}")
    if value < minimum:
        raise ConfigError(f"{block}.{key} must be >= {minimum}")
    return value


def config_hash(normalized):
    """SHA-256 hex digest of the canonical JSON form."""
    canonical = json.dumps(normalized, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Repeated(str):
    """Dotted path of a key that a JSON object gives twice."""


def _json_object(pairs):
    # object_pairs_hook: the object as a dict, or the _Repeated path of its
    # first repeated key, which the enclosing objects prefix with theirs
    out = {}
    for key, value in pairs:
        if isinstance(value, _Repeated):
            return _Repeated(f"{key}.{value}")
        if key in out:
            return _Repeated(key)
        out[key] = value
    return out


def _load_yaml(text):
    """yaml.safe_load that refuses a mapping key given twice, and whatever
    PyYAML cannot read or construct."""
    import yaml  # here, so that a JSON config never pays its import

    class Loader(yaml.SafeLoader):
        def __init__(self, stream):
            super().__init__(stream)
            self.paths = {}  # value node -> dotted path of its key

        def construct_mapping(self, node, deep=False):
            # an enclosing mapping is constructed first, so it has named
            # this one; merged keys (<<) may be given again on purpose
            prefix = self.paths.get(node)
            seen = set()
            for key_node, value_node in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node, deep=True)
                try:
                    repeated = key in seen
                except TypeError:  # unhashable: the constructor names it
                    continue
                path = key if prefix is None else f"{prefix}.{key}"
                if repeated:
                    raise ConfigError(f"duplicate key {path}")
                seen.add(key)
                self.paths[value_node] = path
            return super().construct_mapping(node, deep)

        def construct_yaml_int(self, node):
            # hex, octal and binary ints convert at any length, but str()
            # refuses one past 4300 digits, as int() does a decimal one
            value = super().construct_yaml_int(node)
            str(value)
            return value

    Loader.add_constructor("tag:yaml.org,2002:int", Loader.construct_yaml_int)
    try:
        return yaml.load(text, Loader=Loader)
    # a constructor's ValueError, such as for the date 2001-13-45 or an int
    # past 4300 digits
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"config is not valid YAML/JSON: {exc}") from None
    except RecursionError:
        raise ConfigError("config is not valid YAML/JSON: it nests too "
                          "deeply") from None


def parse_config(text):
    """Parse JSON or YAML config text into a RunConfig.

    A key given twice in one mapping is refused, naming its dotted path.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_json_object)
    except (ValueError, RecursionError):  # not JSON, or too deep: YAML's
        raw = _load_yaml(text)
    if isinstance(raw, _Repeated):
        raise ConfigError(f"duplicate key {raw}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping of blocks")

    version = raw.pop("schema_version", _SCHEMA_VERSION)
    # an int, not a bool or float that merely compares equal (True == 1)
    if type(version) is not int or version != _SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {_shown(version)} is not supported (expected "
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
    if n_ions > _MAX_IONS:
        raise ConfigError(f"crystal.n_ions must be <= {_MAX_IONS}, "
                          f"got {n_ions}")
    seed = _validate_int("crystal", "seed", crystal["seed"])

    ramp_shape = norm["ramp"]["shape"]
    if ramp_shape not in ("linear", "smoothstep"):
        raise ConfigError("ramp.shape must be 'linear' or 'smoothstep', "
                          f"got {_shown(ramp_shape)}")
    include_radial = norm["thermometry"]["include_radial"]
    if not isinstance(include_radial, bool):
        raise ConfigError("thermometry.include_radial must be true or false")
    out_dir = norm["output"]["dir"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output.dir must be a non-empty string")
    if "\0" in out_dir:  # no file system takes it
        raise ConfigError("output.dir must not hold a NUL character")

    species_n = norm["species"]
    with refused("species"):
        species = IonSpecies(
            mass=species_n["mass_amu"],
            lattice_transition_wavelength=species_n["lattice_wavelength_nm"],
            detection_wavelength=species_n["detection_wavelength_nm"],
        )
    trap_n = norm["trap"]
    with refused("trap"):
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
        key = "depth_max_mK" if has_depth else "nu_latt_max_MHz"
        if lat[key] < 0:
            raise ConfigError(f"lattice.{key} must be >= 0")
        with refused("lattice"):
            k = species.lattice_wavevector
            u0 = (cn.KB * lat[key] if has_depth
                  else _depth_for_nu(lat[key], species, k))
            detuning = lat["detuning_THz"]
            signed = -u0 if detuning < 0 else u0
            lattice = LatticeConfig(depth_U0=signed, wavevector_k=k,
                                    detuning=detuning)
        with refused("lattice.waist_um"):
            beam = BeamProfile(waist_radius=lat["waist_um"])

    ramp = None
    if lattice is not None:
        with refused("ramp"):
            ramp = RampProfile(u0_max=abs(lattice.depth_U0),
                               ramp_duration=norm["ramp"]["ramp_us"],
                               hold_duration=norm["ramp"]["hold_us"],
                               shape=ramp_shape)

    therm = norm["thermometry"]
    with refused("thermometry"):
        imaging = ImagingConfig(
            sigma_res_axial=therm["sigma_res_axial_um"],
            sigma_res_radial=therm["sigma_res_radial_um"],
            pixel_pitch=therm["pixel_pitch_um"])

    t0 = crystal["T0_mK"]
    if t0 is not None and not cn.KB * t0 > 0:
        raise ConfigError("crystal.T0_mK must be positive, and so large that "
                          "kB*T0 does not underflow to 0")

    return RunConfig(
        species=species, trap=trap, lattice=lattice, ramp=ramp, beam=beam,
        imaging=imaging, include_radial=include_radial, n_ions=n_ions,
        seed=seed, T0=t0, output_dir=out_dir,
        config_hash=config_hash(norm), normalized=norm)


def load_config(path):
    """Read and parse a UTF-8 config file. File-system errors propagate."""
    return parse_config(read_utf8(path, lambda line, byte: ConfigError(
        f"config is not UTF-8 text: line {line} holds byte 0x{byte:02x}")))
