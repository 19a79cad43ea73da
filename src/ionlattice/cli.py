"""Command-line front end.

Five verbs, each driven by a unit-suffixed config file (YAML or JSON)
and writing fixed-format artifacts into --out:

    equilibrium  -> positions.csv
    modes        -> modes.csv + modes_warnings.json
    scatter      -> scatter.csv + scatter_meta.json
    thermometry  -> temperature.json (from a spots CSV)
    micromotion  -> micromotion.json

All CSV numbers carry 9 significant digits with LF line endings, every
artifact embeds the SHA-256 hash of its canonical config, and identical
config + seed reproduce outputs byte for byte. Exit codes: 0 success,
2 config/parse error, 3 solver error, 4 I/O error, 5 a bug (any other
exception); --debug prints the traceback of an error.

Every artifact appears only once complete: a failed run leaves no partial
file and any earlier artifact of the same name untouched. In modes.csv a
plane_weight or axial_weight below 1e-14 in magnitude is written as 0: the
weights of unit eigenvectors carry rounding noise up to about 2e-15, whose
digits depend on the BLAS build, and a genuine weight is far larger.
"""

import argparse
import contextlib
import gc
import json
import math
import os
import sys
import warnings

# A CLI process loads OpenBLAS on one thread unless its caller set a thread
# count. Its heavy BLAS work runs on one thread anyway (the forked cold
# starts and the overlapped sweep), while the pool thread that a threaded
# OpenBLAS starts as numpy loads it busy-waits for about 0.1 s: on a host
# with no core to spare for it, that doubles the wall time of the import.
# OpenBLAS reads the variable only as it loads, so it is removed again and
# the environment stays the caller's.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")
_ONE_BLAS_THREAD = "numpy" not in sys.modules and not any(
    name in os.environ for name in _BLAS_THREAD_VARIABLES)
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import __version__
from . import constants as cn
from .config import load_config
from .crystal import (
    _by_axis,
    _sweep,
    classify_structure,
    continuation,  # noqa: F401  (bench/tracer.py wraps cli.continuation)
    equilibrium,
    gamma_parameters,
    normal_modes,
)
from .ensemble import ScatteringScenario, scan_depth
from .errors import (
    EXIT_BUG,
    ConfigError,
    SpotParseError,
    exit_code_for,
    refused,
)
from .micromotion import excess_micromotion
from .pendulum import _check_rate, _check_t0_u0, _rate_prefactor
from .thermometry import (
    _used_axes,
    estimate_temperature,
    fit_spot_profiles,
    read_spot_profiles,
)

__all__ = ["main"]

# the most points a --grid may ask for: a 4-ion scatter's peak RSS grows by
# about 6.4 MiB per 1000 points, so 1e5 points take about 0.7 GB and ten
# times that would not fit a small host
_MAX_GRID_POINTS = 100_000


def _parse_grid(spec):
    """Parse 'start:stop:count:{lin|geom}' into an ascending array."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError(
            f"--grid must be start:stop:count:{{lin|geom}}, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"--grid: {exc}") from None
    if not 1 <= count <= _MAX_GRID_POINTS:
        raise ConfigError(
            f"--grid count must lie in [1, {_MAX_GRID_POINTS}], got {count}")
    if not (0 <= start < math.inf and 0 <= stop < math.inf):  # NaN fails
        raise ConfigError(
            "--grid start and stop must be finite and non-negative")
    kind = parts[3]
    if kind == "lin":
        # near 1.8e308 the last point's step product overflows to inf
        # before numpy sets that endpoint exactly
        with np.errstate(over="ignore"):
            return np.linspace(start, stop, count)
    if kind == "geom":
        if start <= 0 or stop <= 0:
            raise ConfigError("--grid geom needs positive start and stop")
        # the points lie between start and stop. Near 1.8e308 numpy's
        # interior points overflow to inf (the endpoints it sets exactly),
        # and start == stop rounds off the constant; clipping undoes both
        with np.errstate(over="ignore"):
            grid = np.geomspace(start, stop, count)
        return np.clip(grid, min(start, stop), max(start, stop))
    raise ConfigError(f"--grid spacing must be 'lin' or 'geom', got {kind!r}")


def _commit(path, write):
    # write(fh) fills a temporary file, renamed to path once it returns
    partial = f"{path}.tmp"
    try:
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _write_csv(path, header, row, tables, cfg_hash):
    # one % call per 2-D table, row being the format of one of its lines
    def write(fh):
        fh.write(f"# config_hash={cfg_hash}\n{header}\n")
        for table in tables:
            fh.write((row * len(table)) % tuple(table.ravel().tolist()))
    _commit(path, write)


def _write_json(path, obj):
    # encode first, so that a refused NaN writes nothing
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _commit(path, lambda fh: fh.write(text))


def _solve_reference(cfg):
    # the zero-depth structure anchors every command
    return equilibrium(cfg.n_ions, cfg.trap, species=cfg.species,
                       seed=cfg.seed)


def cmd_equilibrium(args, cfg, out):
    pos = _solve_reference(cfg).positions
    table = np.column_stack((np.arange(len(pos)), pos / 1e-6))
    _write_csv(f"{out}/positions.csv", "ion,x_um,y_um,z_um",
               "%d,%.9g,%.9g,%.9g\n", [table], cfg.config_hash)
    return 0


def _depth_source(args, cfg):
    # what sets a verb's deepest grid point: --grid, else the lattice key
    if args.grid is not None:
        return "--grid"
    if cfg.normalized["lattice"]["depth_max_mK"] is not None:
        return "lattice.depth_max_mK"
    return "lattice.nu_latt_max_MHz"


def _require(cfg, attr, key):
    value = getattr(cfg, attr)
    if value is None:
        raise ConfigError(f"{key} is required for this command")
    return value


_MODE_ROW = "%.9g,%d,%.9g,%.9g,%.9g\n"  # one line of modes.csv
_WEIGHT_FLOOR = 1e-14  # weights below it are rounding noise (see above)


def cmd_modes(args, cfg, out):
    lattice = _require(cfg, "lattice", "lattice block")
    nu_grid = None  # the sweep's own grid up to the lattice depth
    if args.grid is not None:
        # a point past the float range in Hz is _sweep's to refuse
        with np.errstate(over="ignore"):
            nu_grid = _parse_grid(args.grid) * 1e6  # MHz -> Hz
    elif lattice.depth_U0 == 0.0:
        raise ConfigError(
            "modes without --grid sweeps up to the lattice depth, so "
            "lattice.depth_max_mK or lattice.nu_latt_max_MHz must be "
            "nonzero")
    with refused(_depth_source(args, cfg)):  # such as a depth too deep
        rows = _sweep(cfg.n_ions, cfg.trap, lattice, 200, cfg.species,
                      cfg.seed, nu_grid)
    flagged = []  # each row's flags, with its step

    def tables():
        for step, (nu, freqs, b, positions, _, flags) in enumerate(rows):
            flagged.extend({"step": step, **f} for f in flags)
            if step == 0:  # the zero-depth row fixes the crystal plane
                phi = classify_structure(positions, cfg.trap,
                                         species=cfg.species).plane_angle
                nx, ny = -math.sin(phi), math.cos(phi)  # plane normal
                branch = np.arange(len(freqs))
            c = _by_axis(b)  # [axis, ion, branch]
            normal_comp = nx * c[0] + ny * c[1]
            plane_w = 1.0 - np.sum(normal_comp * normal_comp, axis=0)
            axial_w = np.sum(c[2] * c[2], axis=0)
            table = np.column_stack((
                np.full(len(freqs), nu / 1e6), branch,
                freqs / (2.0 * math.pi) / 1e3, plane_w, axial_w))
            table[:, 3:][np.abs(table[:, 3:]) < _WEIGHT_FLOOR] = 0.0
            yield table

    # a failed write closes the sweep here, which joins its worker thread
    # and restores the BLAS thread count before main returns
    with contextlib.closing(rows):
        _write_csv(f"{out}/modes.csv",
                   "nu_latt_MHz,branch_id,freq_kHz,plane_weight,axial_weight",
                   _MODE_ROW, tables(), cfg.config_hash)
    _write_json(f"{out}/modes_warnings.json", {
        "config_hash": cfg.config_hash,
        "flagged": [
            {"step": int(f["step"]), "nu_latt_MHz": float(f["nu_latt"]) / 1e6,
             "branches": [int(b) for b in f["branches"]],
             "overlap_gap": float(f["overlap_gap"])}
            for f in flagged],
    })
    return 0


def cmd_scatter(args, cfg, out):
    lattice = _require(cfg, "lattice", "lattice block")
    ramp = _require(cfg, "ramp", "ramp block")
    t0 = _require(cfg, "T0", "crystal.T0_mK")
    if lattice.detuning == 0.0:
        raise ConfigError("lattice.detuning_THz must be nonzero for scatter")

    if args.grid is not None:
        depths = _parse_grid(args.grid) * 1e-3 * cn.KB  # mK -> J
    else:
        depths = np.linspace(0.0, abs(lattice.depth_U0), 26)
    # the model's rate, T0 and depth rules, before the reference solve
    with refused("lattice.detuning_THz"):
        _rate_prefactor(lattice, cfg.species)
    with refused("crystal.T0_mK with this depth grid"):
        _check_t0_u0(t0, depths[depths > 0.0])
    with refused(_depth_source(args, cfg)):
        _check_rate(depths, ramp.t_end, lattice, cfg.species)

    state = _solve_reference(cfg)
    scenario = ScatteringScenario(crystal=state, species=cfg.species,
                                  lattice=lattice, ramp=ramp, T0=t0)
    table = np.array([
        (r["depth"] / cn.KB / 1e-3, r["nu_latt"] / 1e6, r["p_per_ion"],
         r["subsequent_fraction"], r["bunching"])
        for r in scan_depth(scenario, cfg.beam, depths)])
    _write_csv(f"{out}/scatter.csv",
               "depth_mK,nu_latt_MHz,p_per_ion,subsequent_fraction,bunching",
               "%.9g,%.9g,%.9g,%.9g,%.9g\n", [table], cfg.config_hash)
    _write_json(f"{out}/scatter_meta.json", {
        "config_hash": cfg.config_hash,
        "package_version": __version__,
        "schema_version": 1,
        "seed": cfg.seed,
        "n_ions": cfg.n_ions,
        "T0_mK": t0 / 1e-3,
        "depth_grid_mK": [d / cn.KB / 1e-3 for d in depths],
    })
    return 0


def cmd_thermometry(args, cfg, out):
    profiles = read_spot_profiles(args.spots)
    for ion, _, _ in profiles:
        if ion >= cfg.n_ions:
            raise SpotParseError(
                f"spots: ion_index {ion} is outside [0, {cfg.n_ions}) for "
                f"this crystal of {cfg.n_ions} ions")
    used = _used_axes(cfg.include_radial)
    # the estimate reads no other axis, so only these are fitted
    profiles = [p for p in profiles if p[1] in used]
    if not profiles:
        raise SpotParseError(f"spots: no {' or '.join(used)} profile (radial "
                             "ones need thermometry.include_radial: true)")
    spots = fit_spot_profiles(profiles, cfg.imaging)

    state = _solve_reference(cfg)
    modes = normal_modes(state, cfg.trap, species=cfg.species)
    gamma = gamma_parameters(modes)
    est = estimate_temperature(spots, gamma, cfg.trap, cfg.species,
                               cfg.imaging,
                               include_radial=cfg.include_radial)
    _write_json(f"{out}/temperature.json", {
        "config_hash": cfg.config_hash,
        "T_mK": est.T / 1e-3,
        "ci95_mK": est.ci95 / 1e-3,
        "per_ion_residuals_um2": [r / 1e-12 for r in est.per_ion_residuals],
        "gamma_axial": [float(g) for g in gamma.axial],
        "gamma_radial_projected": [float(g)
                                   for g in gamma.gamma_radial_projected],
        "n_spots_used": len(est.per_ion_residuals),
    })
    return 0


def cmd_micromotion(args, cfg, out):
    state = _solve_reference(cfg)
    rep = excess_micromotion(state, cfg.trap, cfg.species)
    _write_json(f"{out}/micromotion.json", {
        "config_hash": cfg.config_hash,
        "q_radial": rep.q_radial,
        "effective_q_axial": rep.effective_q_axial,
        "variance_broadening_factor": rep.variance_broadening_factor,
        "per_ion": [
            {"ion": i,
             "amplitude_um": [a / 1e-6 for a in rep.amplitude[i]],
             "kinetic_energy_J": list(rep.kinetic_energy[i]),
             "equivalent_temperature_mK":
                 [t / 1e-3 for t in rep.equivalent_temperature[i]]}
            for i in range(rep.amplitude.shape[0])],
    })
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ionlattice",
        description="Ion Coulomb crystals in an optical lattice: "
                    "equilibria, mode spectra, scattering statistics, "
                    "thermometry and micromotion estimates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="YAML/JSON run configuration")
        p.add_argument("--out", default=None,
                       help="output directory (default: output.dir "
                            "from the config, else '.')")
        p.add_argument("--debug", action="store_true",
                       help="print the traceback of an error")

    p = sub.add_parser("equilibrium",
                       help="solve the lattice-free crystal structure")
    common(p)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("modes",
                       help="sweep lattice depth, tracking mode branches")
    common(p)
    p.add_argument("--grid", default=None,
                   help="nu_latt grid in MHz: start:stop:count:{lin|geom}")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("scatter",
                       help="scattering statistics vs lattice depth")
    common(p)
    p.add_argument("--grid", default=None,
                   help="depth grid in mK: start:stop:count:{lin|geom}")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("thermometry",
                       help="fit spot profiles and estimate temperature")
    common(p)
    p.add_argument("--spots", required=True,
                   help="CSV of spot profiles (ion_index, axis, pixel, "
                        "counts)")
    p.set_defaults(func=cmd_thermometry)

    p = sub.add_parser("micromotion",
                       help="per-ion excess-micromotion report")
    common(p)
    p.set_defaults(func=cmd_micromotion)
    return parser


def _warning_line(message, category, filename, lineno, line=None):
    # a shown warning names its category, not a source line of the package
    return f"ionlattice: warning: {category.__name__}: {message}\n"


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # the format, not ``showwarning``: a caller's ``catch_warnings(record=
    # True)`` (``pytest.warns``) still records, and the filters (``-W
    # error``) are left alone
    form, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        if args.out == "":
            raise ConfigError("--out must name a directory, not ''")
        cfg = load_config(args.config)
        out = args.out if args.out is not None else cfg.output_dir
        os.makedirs(out, exist_ok=True)
        return args.func(args, cfg, out)
    except Exception as exc:  # uniform diagnostic + exit-code mapping
        code = exit_code_for(exc)
        if args.debug:
            import traceback
            traceback.print_exc()
        if code == EXIT_BUG:
            hint = "" if args.debug else "; --debug prints the traceback"
            print(f"ionlattice: error: this is a bug in ionlattice, not a "
                  f"failure of the input or the solver: "
                  f"{type(exc).__name__}: {exc}{hint}", file=sys.stderr)
        else:
            print(f"ionlattice: error: {exc}", file=sys.stderr)
        return code
    finally:
        warnings.formatwarning = form


# The import graph lives until the process exits, so it is frozen: no
# collection traverses it again, during the run or at exit.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
