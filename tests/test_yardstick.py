"""A fixed, seeded yardstick for the crystal solver.

Draws ``DRAWS`` small ``modes`` runs from one stated distribution with
``numpy.random.default_rng(SEED)``, adds the named cases that earlier
solver changes were judged on, and checks each against the reference in
``yardstick_reference.json``:

- the outcome: the number of rows ``crystal._sweep`` yields, or the type of
  the error it raises, with RuntimeWarning raised as an error;
- the last row's frequencies, sorted, so that labels and mirror images do
  not count;
- the energy of the cold ``equilibrium`` without a lattice, or the type of
  its error, so that a change of the chosen minimum shows.

Distribution of a draw: 1-4 ions, f_z uniform in 40-250 kHz, f_radial/f_z
uniform in 0.8-5, asymmetry 0, 0.03 or 0.1, a blue or red 25 mK lattice
(detuning +-0.76 THz), seed 0-99, and ``--grid lo:hi:n:{lin|geom}`` with
1-4 nodes, hi = 10^U(-2, 3) MHz and lo = hi 10^U(-3, 0). Every such grid
lies below the depth up to which ``eigh`` resolves the trap modes.

A solver change that moves a draw lists it in CHANGES.md with its
evidence; the reference is never re-recorded just to fit. It was recorded
with

    PYTHONPATH=src python tests/test_yardstick.py
"""

import json
import math
import os
import warnings

import numpy as np
import pytest

from ionlattice import crystal, equilibrium, parse_config
from ionlattice.cli import _parse_grid
from ionlattice.errors import IonLatticeError

SEED = 2024
DRAWS = 200
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "yardstick_reference.json")
# sorted frequencies agree to the benchmark's MODES_REL_TOL, each relative
# to itself. Below ZERO_MODE f_z (an eigenvalue within the saddle test's
# 1e-8 of zero) a frequency is a free rotation about the trap axis, whose
# value the gradient tolerance leaves undetermined; it only has to stay
# below that floor
FREQ_REL_TOL = 1e-6
ZERO_MODE = 1e-4
# distinct minima of a few ions differ in energy far beyond this; mirror
# images agree to 1e-12
ENERGY_REL_TOL = 1e-9


def _config(n, f_z_khz, f_radial_khz, asymmetry, detuning_thz, seed,
            lattice=None):
    return {"trap": {"f_z_kHz": f_z_khz, "f_radial_kHz": f_radial_khz,
                     "asymmetry": asymmetry},
            "lattice": lattice or {"detuning_THz": detuning_thz,
                                   "depth_max_mK": 25.0},
            "crystal": {"n_ions": n, "seed": seed}}


def _named_cases():
    red4 = _config(4, 85.0, 170.0, 0.03, -0.76, 7)
    red4["trap"]["q_axial"] = 5.0e-4
    sym4 = _config(4, 120.0, 162.0, 0.0, 0.76, 1)
    cases = [
        # the 3-ion near-isotropic cold solves that stall (a nearly free
        # rotation of the planar triangle)
        ("near_isotropic3_seed1",
         _config(3, 248.859, 252.991, 0.03, -0.76, 1),
         "4.976852685756028:9.953705371512056:2:geom"),
        ("near_isotropic3_seed3",
         _config(3, 214.770, 226.198, 0.1, -0.76, 3), "0:1:2:lin"),
        # saddles with two unstable directions: a second kick round
        ("sym4_120MHz", sym4, "120:120:1:lin"),
        ("sym4_264MHz", sym4, "264:264:1:lin"),
        # the zigzag's warm state turns into a saddle on a red lattice
        ("red_zigzag4", red4, "0:2:2:lin"),
    ]
    # 2 ions deep in the lattice, where the gradient's rounding floor
    # decides convergence, on the default 200-node grid
    for nu in (250, 300, 500, 700, 1000):
        deep = _config(2, 85.0, 170.0, 0.03, 0.76, 1,
                       lattice={"detuning_THz": 0.76, "nu_latt_max_MHz": nu})
        deep["trap"]["q_axial"] = 5.0e-4
        cases.append((f"deep2_{nu}MHz", deep, None))
    return cases


def _drawn_cases():
    rng = np.random.default_rng(SEED)
    cases = []
    for k in range(DRAWS):
        n = int(rng.integers(1, 5))
        f_z = float(rng.uniform(40.0, 250.0))
        ratio = float(rng.uniform(0.8, 5.0))
        asymmetry = float(rng.choice([0.0, 0.03, 0.1]))
        detuning = float(rng.choice([0.76, -0.76]))
        seed = int(rng.integers(0, 100))
        nodes = int(rng.integers(1, 5))
        kind = str(rng.choice(["lin", "geom"]))
        hi = 10.0 ** rng.uniform(-2.0, 3.0)
        lo = hi * 10.0 ** rng.uniform(-3.0, 0.0)
        cases.append((f"draw{k:03d}",
                      _config(n, f_z, f_z * ratio, asymmetry, detuning, seed),
                      f"{lo!r}:{hi!r}:{nodes}:{kind}"))
    return cases


def _cases():
    return _named_cases() + _drawn_cases()


def _run(config, grid):
    """The record of one case: outcome, last row's sorted frequencies (Hz)
    and cold energy without a lattice (J), or the error types."""
    cfg = parse_config(json.dumps(config))
    nu_grid = None if grid is None else _parse_grid(grid) * 1e6
    record = {"outcome": 0, "frequencies_Hz": None}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            for row in crystal._sweep(cfg.n_ions, cfg.trap, cfg.lattice, 200,
                                      cfg.species, cfg.seed, nu_grid):
                record["outcome"] += 1
                record["frequencies_Hz"] = sorted(
                    float(f) / (2.0 * math.pi) for f in row[1])
        except (IonLatticeError, RuntimeWarning) as exc:
            record["outcome"] = type(exc).__name__
        try:
            record["cold_energy_J"] = equilibrium(
                cfg.n_ions, cfg.trap, species=cfg.species,
                seed=cfg.seed).potential_value
        except (IonLatticeError, RuntimeWarning) as exc:
            record["cold_energy_J"] = type(exc).__name__
    return record


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def test_cases_are_the_recorded_ones(reference):
    assert [(c["name"], c["config"], c["grid"]) for c in reference["cases"]] \
        == [(name, json.loads(json.dumps(config)), grid)
            for name, config, grid in _cases()]


def test_every_case_matches_its_reference(reference):
    moved = []
    for want in reference["cases"]:
        got = _run(want["config"], want["grid"])
        floor = ZERO_MODE * want["config"]["trap"]["f_z_kHz"] * 1e3
        if got["outcome"] != want["outcome"] or not _same_spectrum(
                got["frequencies_Hz"], want["frequencies_Hz"], floor) \
                or not _same_energy(got["cold_energy_J"],
                                    want["cold_energy_J"]):
            moved.append((want["name"], got, want))
    assert not moved, (f"{[name for name, *_ in moved]} moved; the first "
                       f"gave {moved[0][1]}, recorded {moved[0][2]}")


def _same_spectrum(got, want, floor):
    if got is None or want is None:
        return got is want
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    tol = np.where(want < floor, floor, FREQ_REL_TOL * want)
    return bool(np.all(np.abs(got - want) <= tol))


def _same_energy(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return abs(got - want) <= ENERGY_REL_TOL * abs(want)


if __name__ == "__main__":
    with open(REFERENCE, "w", encoding="utf-8") as fh:  # one case a line
        fh.write(f'{{"seed": {SEED}, "draws": {DRAWS}, "cases": [\n')
        fh.write(",\n".join(
            json.dumps({"name": name, "config": config, "grid": grid,
                        **_run(config, grid)})
            for name, config, grid in _cases()))
        fh.write("\n]}\n")
