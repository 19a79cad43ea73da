"""Output checks for one benchmark op, against known-good references.

An op passes when its exit code is 0 (checked by the caller), every
artifact it should write exists, no artifact holds a nan or inf, and the
values match the reference artifacts in bench/reference/<verb>-<crystal>/
(written by record_reference.py; large ones gzipped):

- scatter: p_per_ion and bunching within 1e-6 absolute (the tolerance
  of the acceptance gate's fast-path check);
- modes: at every requested grid node, the sorted branch frequencies
  within 1e-6 relative; rows the tracker inserts are ignored, so a
  tracking fix still passes. On the 4-ion zigzag, branch 2 must have
  passed the avoided crossing by nu_latt = 0.25 MHz: near 118.5 kHz, with
  an axial weight below 0.05 (criterion 3 of the acceptance gate);
- equilibrium and micromotion: equal up to ion relabelling;
- thermometry: |T - 3.5 mK| <= 3 ci95.

`check_op` returns the list of problems found; empty means the op passed.
"""

import gzip
import json
import os
import re

import numpy as np
from scipy.optimize import linear_sum_assignment

from workloads import SPOTS_T_MK

ARTIFACTS = {
    "equilibrium": ("positions.csv",),
    "modes": ("modes.csv", "modes_warnings.json"),
    "scatter": ("scatter.csv", "scatter_meta.json"),
    "thermometry": ("temperature.json",),
    "micromotion": ("micromotion.json",),
}

_NONFINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

SCATTER_ABS_TOL = 1e-6
MODES_REL_TOL = 1e-6
MATCH_REL_TOL = 1e-6
# criterion 3 of the acceptance gate, read at the grid node nearest this
ZIGZAG_AT_MHZ = 0.25
ZIGZAG_BRANCH2_KHZ = 118.5
ZIGZAG_BRANCH2_REL_TOL = 0.01
ZIGZAG_BRANCH2_MAX_AXIAL = 0.05


def read_text(path):
    """Text of path, or of path + '.gz' when only that exists."""
    if not os.path.exists(path) and os.path.exists(path + ".gz"):
        with gzip.open(path + ".gz", "rt", encoding="utf-8") as fh:
            return fh.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_csv(path):
    """(config hash, {column: list of str}) of an artifact CSV."""
    lines = read_text(path).splitlines()
    cfg_hash = lines[0].partition("=")[2]
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return cfg_hash, {h: [r[i] for r in rows] for i, h in enumerate(header)}


def _floats(values):
    return np.array([float(v) for v in values])


def _read_json(path):
    return json.loads(read_text(path))


def _close(out, ref, rel=0.0, abs_=0.0):
    out, ref = np.asarray(out, dtype=float), np.asarray(ref, dtype=float)
    return out.shape == ref.shape and bool(
        np.all(np.abs(out - ref) <= abs_ + rel * np.abs(ref)))


def _matched(out, ref, scale):
    """Max row distance after the best relabelling of out's rows onto ref's."""
    if out.shape != ref.shape:
        return np.inf
    dist = np.linalg.norm((out[None, :, :] - ref[:, None, :]) / scale, axis=2)
    rows, cols = linear_sum_assignment(dist)
    return float(np.max(dist[rows, cols]))


def _check_scatter(out, ref, crystal):
    problems = []
    out_hash, got = _read_csv(os.path.join(out, "scatter.csv"))
    ref_hash, want = _read_csv(os.path.join(ref, "scatter.csv"))
    if out_hash != ref_hash:
        problems.append("scatter.csv: config hash differs from reference")
    if not _close(_floats(got["depth_mK"]), _floats(want["depth_mK"]),
                  rel=1e-9):
        return problems + ["scatter.csv: depth grid differs from reference"]
    for col in ("p_per_ion", "bunching"):
        if not _close(_floats(got[col]), _floats(want[col]),
                      abs_=SCATTER_ABS_TOL):
            problems.append(f"scatter.csv: {col} off reference by more "
                            f"than {SCATTER_ABS_TOL}")
    return problems


def _node_spectra(path, nodes):
    """{node: sorted frequencies} at the requested grid nodes (MHz)."""
    _, cols = _read_csv(path)
    nu, freq = _floats(cols["nu_latt_MHz"]), _floats(cols["freq_kHz"])
    spectra = {}
    for node in nodes:
        at = np.isclose(nu, node, rtol=1e-8, atol=0.0)
        spectra[node] = np.sort(freq[at])
    return spectra


def _check_modes(out, ref, crystal):
    problems = []
    nodes = _read_json(os.path.join(ref, "nodes_MHz.json"))
    got = _node_spectra(os.path.join(out, "modes.csv"), nodes)
    want = _node_spectra(os.path.join(ref, "modes.csv"), nodes)
    bad = [node for node in nodes
           if not _close(got[node], want[node], rel=MODES_REL_TOL)]
    if bad:
        problems.append(f"modes.csv: spectrum off reference at {len(bad)} of "
                        f"{len(nodes)} grid nodes, first at {bad[0]} MHz")
    warnings = _read_json(os.path.join(out, "modes_warnings.json"))
    if not isinstance(warnings.get("flagged"), list):
        problems.append("modes_warnings.json: no 'flagged' list")
    if crystal == "zigzag4":
        _, cols = _read_csv(os.path.join(out, "modes.csv"))
        nu = _floats(cols["nu_latt_MHz"])
        node = min(nodes, key=lambda v: abs(v - ZIGZAG_AT_MHZ))
        at = np.isclose(nu, node, rtol=1e-8, atol=0.0)
        row = [i for i in np.nonzero(at)[0] if cols["branch_id"][i] == "2"]
        if len(row) != 1:
            return problems + [f"modes.csv: no single branch-2 row at "
                               f"{node} MHz"]
        freq = float(cols["freq_kHz"][row[0]])
        axial = float(cols["axial_weight"][row[0]])
        if (abs(freq - ZIGZAG_BRANCH2_KHZ) > ZIGZAG_BRANCH2_REL_TOL
                * ZIGZAG_BRANCH2_KHZ or axial >= ZIGZAG_BRANCH2_MAX_AXIAL):
            problems.append(f"modes.csv: zigzag branch 2 is at {freq} kHz "
                            f"with axial weight {axial} at {node} MHz")
    return problems


def _positions(path):
    cfg_hash, cols = _read_csv(path)
    return cfg_hash, np.column_stack(
        [_floats(cols[c]) for c in ("x_um", "y_um", "z_um")])


def _check_equilibrium(out, ref, crystal):
    out_hash, got = _positions(os.path.join(out, "positions.csv"))
    ref_hash, want = _positions(os.path.join(ref, "positions.csv"))
    problems = []
    if out_hash != ref_hash:
        problems.append("positions.csv: config hash differs from reference")
    if _matched(got, want, np.max(np.abs(want))) > MATCH_REL_TOL:
        problems.append("positions.csv: no relabelling of the ions matches "
                        "the reference")
    return problems


_MICROMOTION_FIELDS = ("amplitude_um", "kinetic_energy_J",
                       "equivalent_temperature_mK")


def _per_ion(report):
    return np.array([sum((list(ion[f]) for f in _MICROMOTION_FIELDS), [])
                     for ion in report["per_ion"]], dtype=float)


def _check_micromotion(out, ref, crystal):
    got = _read_json(os.path.join(out, "micromotion.json"))
    want = _read_json(os.path.join(ref, "micromotion.json"))
    problems = []
    if got.get("config_hash") != want["config_hash"]:
        problems.append("micromotion.json: config hash differs from "
                        "reference")
    for key in ("q_radial", "effective_q_axial",
                "variance_broadening_factor"):
        if not _close(got.get(key, np.nan), want[key], rel=MATCH_REL_TOL):
            problems.append(f"micromotion.json: {key} differs from "
                            "reference")
    a, b = _per_ion(got), _per_ion(want)
    # each field scaled by its largest reference magnitude
    scale = np.repeat([np.max(np.abs(b[:, 3 * k:3 * k + 3]))
                       for k in range(3)], 3)
    if _matched(a, b, scale) > MATCH_REL_TOL:
        problems.append("micromotion.json: no relabelling of the ions "
                        "matches the reference")
    return problems


def _check_thermometry(out, ref, crystal):
    got = _read_json(os.path.join(out, "temperature.json"))
    t, ci = got["T_mK"], got["ci95_mK"]
    if not abs(t - SPOTS_T_MK) <= 3.0 * ci:
        return [f"temperature.json: T = {t} mK is more than 3 ci95 "
                f"({ci} mK) from {SPOTS_T_MK} mK"]
    return []


_CHECKS = {
    "equilibrium": _check_equilibrium,
    "modes": _check_modes,
    "scatter": _check_scatter,
    "thermometry": _check_thermometry,
    "micromotion": _check_micromotion,
}


def check_op(verb, crystal, out_dir, ref_dir):
    """Problems with the artifacts of one op; an empty list means it passed."""
    problems = []
    for name in ARTIFACTS[verb]:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name}: missing")
        elif _NONFINITE.search(read_text(path)):
            problems.append(f"{name}: holds a nan or inf")
    if problems:
        return problems
    try:
        return _CHECKS[verb](out_dir, ref_dir, crystal)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return [f"{verb} artifacts do not parse: {exc!r}"]
