"""Config parsing, hashing, and the command-line surface."""

import csv
import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import ionlattice
from ionlattice import (
    AdiabaticityWarning,
    ConfigError,
    DomainError,
    EquilibriumError,
    classify_structure,
    continuation,
    parse_config,
)
from ionlattice import cli, crystal
from ionlattice import constants as cn
from ionlattice.cli import _parse_grid, main
from ionlattice.errors import EXIT_CONFIG, EXIT_IO, EXIT_SOLVER

BASE_YAML = """\
schema_version: 1
trap:
  f_z_kHz: 85.0
  f_radial_kHz: 170.0
  q_axial: 5.0e-4
lattice:
  detuning_THz: 0.76
  depth_max_mK: 25.0
crystal:
  n_ions: 4
  seed: 7
  T0_mK: 3.6
"""

STRING_YAML = """\
schema_version: 1
trap:
  f_z_kHz: 70.0
  f_radial_kHz: 350.0
crystal:
  n_ions: 8
  seed: 3
"""


class TestParsing:
    def test_yaml_json_same_hash(self):
        cfg_y = parse_config(BASE_YAML)
        as_json = json.dumps({
            "schema_version": 1,
            "trap": {"f_z_kHz": 85.0, "f_radial_kHz": 170.0,
                     "q_axial": 5.0e-4},
            "lattice": {"detuning_THz": 0.76, "depth_max_mK": 25.0},
            "crystal": {"n_ions": 4, "seed": 7, "T0_mK": 3.6},
        })
        cfg_j = parse_config(as_json)
        assert cfg_y.config_hash == cfg_j.config_hash
        assert cfg_y.normalized == cfg_j.normalized

    def test_unit_conversions(self):
        cfg = parse_config(BASE_YAML)
        assert cfg.trap.omega_z == pytest.approx(2 * math.pi * 85e3,
                                                 rel=1e-12)
        assert cfg.lattice.depth_U0 == pytest.approx(cn.KB * 25e-3,
                                                     rel=1e-12)
        assert cfg.lattice.detuning == pytest.approx(
            2 * math.pi * 0.76e12, rel=1e-12)
        assert cfg.T0 == pytest.approx(3.6e-3, rel=1e-12)
        assert cfg.n_ions == 4 and cfg.seed == 7

    def test_red_detuning_flips_depth_sign(self):
        cfg = parse_config(BASE_YAML.replace("detuning_THz: 0.76",
                                             "detuning_THz: -0.76"))
        assert cfg.lattice.depth_U0 == pytest.approx(-cn.KB * 25e-3,
                                                     rel=1e-12)
        assert cfg.lattice.detuning < 0

    def test_frequency_depth_equivalence(self):
        # nu_latt_max_MHz is an alternative way to give depth: U0 = M (2 pi nu)^2
        # / (2 k^2)
        cfg = parse_config(BASE_YAML.replace(
            "depth_max_mK: 25.0", "nu_latt_max_MHz: 1.0"))
        m = cfg.species.mass
        k = cfg.species.lattice_wavevector
        expect = m * (2 * math.pi * 1e6) ** 2 / (2 * k * k)
        assert cfg.lattice.depth_U0 == pytest.approx(expect, rel=1e-12)

    def test_depth_spec_xor(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(BASE_YAML.replace(
                "depth_max_mK: 25.0",
                "depth_max_mK: 25.0\n  nu_latt_max_MHz: 1.0"))
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(BASE_YAML.replace("  depth_max_mK: 25.0\n", ""))

    def test_unknown_key_suggests(self):
        with pytest.raises(ConfigError, match="f_z_kHz"):
            parse_config(BASE_YAML.replace("f_z_kHz", "f_z_khz"))

    def test_unknown_block(self):
        with pytest.raises(ConfigError, match="laser"):
            parse_config(BASE_YAML + "laser:\n  power: 1.0\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="f_radial_kHz"):
            parse_config(BASE_YAML.replace("  f_radial_kHz: 170.0\n", ""))
        with pytest.raises(ConfigError, match="crystal"):
            parse_config("schema_version: 1\ntrap:\n  f_z_kHz: 85.0\n"
                         "  f_radial_kHz: 170.0\n")

    def test_seed_required(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(BASE_YAML.replace("  seed: 7\n", ""))

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="f_z_kHz"):
            parse_config(BASE_YAML.replace("f_z_kHz: 85.0",
                                           "f_z_kHz: true"))

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ConfigError, match="depth_max_mK"):
            parse_config(BASE_YAML.replace("depth_max_mK: 25.0",
                                           f"depth_max_mK: {value}"))

    def test_json_exponent_numbers(self):
        # YAML 1.1 reads 1e-05 as a string; JSON text must not go that way
        cfg = parse_config(json.dumps({
            "trap": {"f_z_kHz": 85, "f_radial_kHz": 170, "q_axial": 1e-05},
            "crystal": {"n_ions": 2, "seed": 1}}))
        assert cfg.trap.q_axial == 1e-05

    @pytest.mark.parametrize("old, new, match", [
        ("f_z_kHz: 85.0", "f_z_kHz: 1.7e+308", "f_z_kHz"),  # inf in Hz
        ("f_z_kHz: 85.0", "f_z_kHz: 1" + "0" * 400, "f_z_kHz"),
        ("depth_max_mK: 25.0", "nu_latt_max_MHz: 1.0e+300", "lattice"),
        ("seed: 7", "seed: 7\n  7: 1", "crystal.7"),
    ], ids=["inf_in_si", "huge_int", "overflowing_depth", "int_key"])
    def test_out_of_range_values_are_config_errors(self, old, new, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(BASE_YAML.replace(old, new))

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(BASE_YAML.replace("schema_version: 1",
                                           "schema_version: 2"))

    @pytest.mark.parametrize("value", ["true", "1.0", '"1"'])
    def test_schema_version_must_be_int(self, value, tmp_path):
        text = BASE_YAML.replace("schema_version: 1",
                                 f"schema_version: {value}")
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(text)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text)
        assert main(["equilibrium", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_hash_ignores_formatting(self):
        noisy = BASE_YAML.replace("f_z_kHz: 85.0", "f_z_kHz: 85.00")
        assert parse_config(noisy).config_hash == \
            parse_config(BASE_YAML).config_hash

    def test_hash_tracks_content(self):
        other = BASE_YAML.replace("seed: 7", "seed: 8")
        assert parse_config(other).config_hash != \
            parse_config(BASE_YAML).config_hash

    def test_no_lattice_block(self):
        cfg = parse_config(STRING_YAML)
        assert cfg.lattice is None and cfg.ramp is None
        assert cfg.T0 is None


@pytest.fixture()
def ws(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(BASE_YAML)
    out = tmp_path / "out"
    return cfg, out


@pytest.fixture()
def ws8(tmp_path):
    cfg = tmp_path / "string.yaml"
    cfg.write_text(STRING_YAML)
    out = tmp_path / "out8"
    return cfg, out


def _read_rows(path):
    with open(path, newline="") as fh:
        first = fh.readline()
        rows = list(csv.DictReader(fh))
    return first, rows


class TestEquilibriumCommand:
    def test_positions_csv(self, ws):
        cfg, out = ws
        assert main(["equilibrium", "--config", str(cfg),
                     "--out", str(out)]) == 0
        first, rows = _read_rows(out / "positions.csv")
        assert first.startswith("# config_hash=")
        assert len(rows) == 4
        assert set(rows[0]) == {"ion", "x_um", "y_um", "z_um"}

    def test_hash_line_matches_config(self, ws):
        cfg, out = ws
        main(["equilibrium", "--config", str(cfg), "--out", str(out)])
        first, _ = _read_rows(out / "positions.csv")
        assert first.strip() == \
            f"# config_hash={parse_config(BASE_YAML).config_hash}"

    def test_reruns_byte_identical(self, ws, tmp_path):
        cfg, out = ws
        out2 = tmp_path / "out2"
        main(["equilibrium", "--config", str(cfg), "--out", str(out)])
        main(["equilibrium", "--config", str(cfg), "--out", str(out2)])
        assert (out / "positions.csv").read_bytes() == \
            (out2 / "positions.csv").read_bytes()

    def test_lf_line_endings(self, ws):
        cfg, out = ws
        main(["equilibrium", "--config", str(cfg), "--out", str(out)])
        raw = (out / "positions.csv").read_bytes()
        assert b"\r" not in raw

    def test_round_trip_precision(self, ws):
        # %.9g must reproduce library values to 1e-8 relative
        from ionlattice import equilibrium
        cfg, out = ws
        main(["equilibrium", "--config", str(cfg), "--out", str(out)])
        _, rows = _read_rows(out / "positions.csv")
        parsed = parse_config(BASE_YAML)
        st = equilibrium(4, parsed.trap, species=parsed.species, seed=7)
        got = np.array([[float(r["x_um"]), float(r["y_um"]),
                         float(r["z_um"])] for r in rows]) * 1e-6
        np.testing.assert_allclose(got, st.positions, rtol=1e-8,
                                   atol=1e-14)


class TestModesCommand:
    def test_zero_depth_row_matches_free_modes(self, ws):
        from ionlattice import equilibrium, normal_modes
        cfg, out = ws
        assert main(["modes", "--config", str(cfg), "--out", str(out),
                     "--grid", "0.01:0.2:6:geom"]) == 0
        _, rows = _read_rows(out / "modes.csv")
        zero = sorted(float(r["freq_kHz"]) for r in rows
                      if float(r["nu_latt_MHz"]) == 0.0)
        parsed = parse_config(BASE_YAML)
        st = equilibrium(4, parsed.trap, species=parsed.species, seed=7)
        md = normal_modes(st, parsed.trap, species=parsed.species)
        ref = sorted(md.frequencies / (2 * math.pi) / 1e3)
        np.testing.assert_allclose(zero, ref, rtol=1e-7)

    def test_warning_sidecar(self, ws):
        cfg, out = ws
        main(["modes", "--config", str(cfg), "--out", str(out),
              "--grid", "0.01:0.2:6:geom"])
        meta = json.loads((out / "modes_warnings.json").read_text())
        assert meta["config_hash"] == parse_config(BASE_YAML).config_hash
        assert isinstance(meta["flagged"], list)

    def test_requires_lattice_block(self, ws8, capsys):
        cfg, out = ws8
        code = main(["modes", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "lattice" in capsys.readouterr().err

    def test_bad_grid_spec(self, ws, capsys):
        cfg, out = ws
        assert main(["modes", "--config", str(cfg), "--out", str(out),
                     "--grid", "0.0:bad:7"]) == EXIT_CONFIG
        assert "grid" in capsys.readouterr().err

    def test_negative_grid_rejected(self, ws, capsys):
        cfg, out = ws
        assert main(["modes", "--config", str(cfg), "--out", str(out),
                     "--grid=-0.1:0.1:5:lin"]) == EXIT_CONFIG
        assert "--grid" in capsys.readouterr().err
        assert not (out / "modes.csv").exists()

    @pytest.mark.parametrize("spec", ["1e303:1e303:1:lin",
                                      "1e150:1e150:1:lin"])
    def test_grid_beyond_float_range_in_si_rejected(self, ws, capsys,
                                                    monkeypatch, spec):
        # 1e303 MHz overflows as Hz, 1e150 MHz as a depth in J; both are
        # refused before any solve
        cfg, out = ws

        def no_solve(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(crystal, "_stationary", no_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["modes", "--config", str(cfg), "--out", str(out),
                         "--grid", spec]) == EXIT_CONFIG
        assert "--grid" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key", ["depth_max_mK", "nu_latt_max_MHz"])
    def test_zero_depth_needs_grid(self, tmp_path, capsys, key):
        cfg = tmp_path / "flat.yaml"
        cfg.write_text(BASE_YAML.replace("depth_max_mK: 25.0", f"{key}: 0"))
        out = tmp_path / "out"
        assert main(["modes", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "depth_max_mK" in err and "nu_latt_max_MHz" in err
        # an explicit grid does not depend on the configured depth
        assert main(["modes", "--config", str(cfg), "--out", str(out),
                     "--grid", "0.01:0.2:3:geom"]) == 0

    def test_default_grid(self, ws):
        # without --grid: 0, then 199 geometric nodes up to the configured
        # nu_latt (25 mK here); step halving may add rows between them
        cfg, out = ws
        assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = _read_rows(out / "modes.csv")
        nu = [r["nu_latt_MHz"] for r in rows]
        parsed = parse_config(BASE_YAML)
        nu_max = parsed.lattice.vibrational_frequency(parsed.species)
        grid = np.concatenate([[0.0], np.geomspace(1e-3 * nu_max, nu_max,
                                                   199)])
        assert float(nu[0]) == 0.0
        assert nu[-1] == "%.9g" % (nu_max / 1e6)
        assert {"%.9g" % (g / 1e6) for g in grid} <= set(nu)
        assert len(set(nu)) >= 200 and len(rows) == 12 * len(set(nu))

    def test_stream_matches_collected_result(self, ws):
        # modes.csv is streamed row by row; it must read exactly like the
        # rows formatted from the collected ContinuationResult, with weights
        # below 1e-14 (rounding noise) written as 0
        def floor(w):
            return 0.0 if abs(w) < 1e-14 else w

        cfg, out = ws
        grid = "0.01:0.25:8:geom"
        assert main(["modes", "--config", str(cfg), "--out", str(out),
                     "--grid", grid]) == 0
        parsed = parse_config(BASE_YAML)
        res = continuation(4, parsed.trap, parsed.lattice,
                           species=parsed.species, seed=7,
                           nu_grid=_parse_grid(grid) * 1e6)
        phi = classify_structure(res.positions[0], parsed.trap,
                                 species=parsed.species).plane_angle
        nx, ny = -math.sin(phi), math.cos(phi)
        axial = res.block_weight("z")
        want = [f"# config_hash={parsed.config_hash}",
                "nu_latt_MHz,branch_id,freq_kHz,plane_weight,axial_weight"]
        for i in range(len(res.nu_latt)):
            c = res.by_axis[i]
            normal_comp = nx * c[0] + ny * c[1]
            plane = 1.0 - np.sum(normal_comp * normal_comp, axis=0)
            for p in range(res.n_branches):
                row = (res.nu_latt[i] / 1e6, str(p),
                       res.frequencies[p, i] / 1e3, floor(plane[p]),
                       floor(axial[p, i]))
                want.append(",".join(
                    v if isinstance(v, str) else "%.9g" % v for v in row))
        assert (out / "modes.csv").read_bytes() == \
            ("\n".join(want) + "\n").encode()
        assert len(want) == 2 + 12 * len(res.nu_latt)
        # this grid has noise in both columns: the floor is exercised
        assert any(",0," in line for line in want)
        assert any(line.endswith(",0") for line in want)

    def test_failure_midway_leaves_earlier_artifacts(self, ws, monkeypatch,
                                                     capsys):
        cfg, out = ws
        argv = ["modes", "--config", str(cfg), "--out", str(out),
                "--grid", "0.01:0.2:6:geom"]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real, warm = crystal._stationary, []

        def fails_on_third_warm_solve(scaled, n, guess, seed):
            if guess is not None:
                warm.append(guess)
                if len(warm) == 3:
                    raise EquilibriumError("stalled", gradient_norm=1.0)
            return real(scaled, n, guess, seed)

        monkeypatch.setattr(crystal, "_stationary", fails_on_third_warm_solve)
        assert main(argv) == EXIT_SOLVER
        assert "stalled" in capsys.readouterr().err
        assert len(warm) == 3
        # the two rows already streamed went to a temporary file, now gone
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_early_errors_leave_nothing(self, ws, monkeypatch, capsys):
        cfg, out = ws
        assert main(["modes", "--config", str(cfg), "--out", str(out),
                     "--grid", "0.01:0.2:0:geom"]) == EXIT_CONFIG
        assert "count" in capsys.readouterr().err
        assert list(out.iterdir()) == []

        def refuses_cold_solve(scaled, n, guess, seed):
            raise DomainError("no cold solve here")

        monkeypatch.setattr(crystal, "_stationary", refuses_cold_solve)
        assert main(["modes", "--config", str(cfg), "--out", str(out),
                     "--grid", "0.01:0.2:3:geom"]) == EXIT_SOLVER
        assert "no cold solve" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        # the sweep streams: the traced peak of a 200-node run stays near
        # that of a 20-node run (a collecting sweep grows about 8-fold)
        cfg = tmp_path / "ions12.yaml"
        cfg.write_text(BASE_YAML.replace("n_ions: 4", "n_ions: 12")
                       .replace("170.0", "300.0"))

        def traced_peak(nodes):
            tracemalloc.start()
            try:
                assert main(["modes", "--config", str(cfg),
                             "--out", str(tmp_path / "out"),
                             "--grid", f"0.01:0.5:{nodes}:geom"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(20)  # one-time allocations (caches, lazy tables)
        small, large = traced_peak(20), traced_peak(200)
        assert large < 1.5 * small, (small, large)


class TestScatterCommand:
    def test_outputs(self, ws):
        cfg, out = ws
        # the 2 us reference ramp is shorter than ten lattice periods, so
        # the adiabatic-model caveat must surface, exactly once
        with pytest.warns(AdiabaticityWarning) as rec:
            assert main(["scatter", "--config", str(cfg), "--out", str(out),
                         "--grid", "0:25:6:lin"]) == 0
        assert len([w for w in rec
                    if w.category is AdiabaticityWarning]) == 1
        first, rows = _read_rows(out / "scatter.csv")
        assert first.startswith("# config_hash=")
        assert [c for c in rows[0]] == ["depth_mK", "nu_latt_MHz",
                                        "p_per_ion", "subsequent_fraction",
                                        "bunching"]
        assert float(rows[0]["depth_mK"]) == 0.0
        assert float(rows[0]["bunching"]) == 0.5
        p = [float(r["p_per_ion"]) for r in rows]
        assert p == sorted(p)
        meta = json.loads((out / "scatter_meta.json").read_text())
        for key in ("config_hash", "package_version", "schema_version",
                    "seed", "n_ions", "T0_mK", "depth_grid_mK"):
            assert key in meta
        assert meta["n_ions"] == 4 and meta["seed"] == 7

    def test_default_grid(self, ws):
        # without --grid: 26 depths from 0 to lattice.depth_max_mK
        cfg, out = ws
        with pytest.warns(AdiabaticityWarning):
            assert main(["scatter", "--config", str(cfg),
                         "--out", str(out)]) == 0
        _, rows = _read_rows(out / "scatter.csv")
        depth = [float(r["depth_mK"]) for r in rows]
        assert len(rows) == 26
        assert depth[0] == 0.0 and depth[-1] == pytest.approx(25.0,
                                                              rel=1e-12)
        np.testing.assert_allclose(np.diff(depth), 1.0, rtol=1e-8)
        assert float(rows[0]["bunching"]) == 0.5
        meta = json.loads((out / "scatter_meta.json").read_text())
        assert len(meta["depth_grid_mK"]) == 26

    def test_negative_grid_rejected(self, ws, capsys):
        cfg, out = ws
        assert main(["scatter", "--config", str(cfg), "--out", str(out),
                     "--grid=-5:5:3:lin"]) == EXIT_CONFIG
        assert "--grid" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["nan:5:3:lin", "0:inf:3:lin"])
    def test_non_finite_grid_rejected(self, ws, capsys, spec):
        cfg, out = ws
        assert main(["scatter", "--config", str(cfg), "--out", str(out),
                     "--grid", spec]) == EXIT_CONFIG
        assert "--grid" in capsys.readouterr().err
        assert not (out / "scatter.csv").exists()

    def test_zero_depth_config_stays_finite(self, tmp_path):
        # the scan takes the grid depths as they are: a lattice block at
        # zero depth must not divide by it
        cfg = tmp_path / "flat.yaml"
        cfg.write_text(BASE_YAML.replace("depth_max_mK: 25.0",
                                         "depth_max_mK: 0"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["scatter", "--config", str(cfg), "--out", str(out),
                         "--grid", "0:5:3:lin"]) == 0
        _, rows = _read_rows(out / "scatter.csv")
        assert len(rows) == 3
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row.values())
        assert float(rows[-1]["p_per_ion"]) > 0.0

    def test_t0_whose_kb_t0_underflows_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cold.yaml"
        cfg.write_text(BASE_YAML.replace("T0_mK: 3.6", "T0_mK: 1.0e-300"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["scatter", "--config", str(cfg),
                         "--out", str(out)]) == EXIT_CONFIG
        assert "crystal.T0_mK" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_t0_with_positive_kb_t0_runs(self, tmp_path):
        cfg = tmp_path / "cold.yaml"
        cfg.write_text(BASE_YAML.replace("T0_mK: 3.6", "T0_mK: 1.0e-290"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["scatter", "--config", str(cfg),
                         "--out", str(out)]) == 0
        _, rows = _read_rows(out / "scatter.csv")
        assert len(rows) == 26

    def test_depths_where_p_is_one_do_not_warn(self, tmp_path):
        # the photon count's error bound is huge there, its error in p
        # e^(-I) dI is not
        cfg = tmp_path / "string8.yaml"
        cfg.write_text(STRING_YAML + "  T0_mK: 3.6\nlattice:\n"
                       "  detuning_THz: 0.76\n  depth_max_mK: 25.0\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["scatter", "--config", str(cfg), "--out", str(out),
                         "--grid", "1e9:1e45:5:geom"]) == 0
        _, rows = _read_rows(out / "scatter.csv")
        assert [float(r["p_per_ion"]) for r in rows] == [1.0] * 5

    @pytest.mark.parametrize("lattice, extra", [
        ("depth_max_mK: 25.0", ["--grid", "1e280:1e300:3:geom"]),
        ("depth_max_mK: 1.0e+300", []),
    ], ids=["grid", "default grid"])
    def test_theta_underflow_rejected_before_solve(self, tmp_path, capsys,
                                                   monkeypatch, lattice,
                                                   extra):
        # kB*T0 > 0, but kB*T0/U0 underflows to 0 at the deepest depths
        def no_solve(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(crystal, "_stationary", no_solve)
        cfg = tmp_path / "cold.yaml"
        cfg.write_text(BASE_YAML.replace("T0_mK: 3.6", "T0_mK: 1.0e-290")
                       .replace("depth_max_mK: 25.0", lattice))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["scatter", "--config", str(cfg), "--out", str(out)]
                        + extra) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "crystal.T0_mK" in err and "underflows" in err
        assert list(out.iterdir()) == []

    # theta = kB*T0/depth leaves the float range at the top: at a ramp
    # node whose depth underflows to 0, or with a huge T0. That is the
    # free limit: the rows hold B = 1/2 and a rate of 0 at depth 0, and
    # no RuntimeWarning leaks
    @pytest.mark.parametrize("t0_mk, grid, row", [
        ("3.6", "1e-285:1e-285:1:lin",
         "1e-285,2.35552317e-143,3.63379671e-288,0,0.5"),
        ("1.0e+300", "1e-20:1e-20:1:lin",
         "1e-20,7.44881829e-11,3.63379671e-23,0,0.5"),
    ], ids=["depth underflow", "huge T0"])
    def test_theta_overflow_is_the_free_limit(self, tmp_path, t0_mk, grid,
                                              row):
        cfg = tmp_path / "string8.yaml"
        cfg.write_text(STRING_YAML + f"  T0_mK: {t0_mk}\nlattice:\n"
                       "  detuning_THz: 0.76\n  depth_max_mK: 25.0\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["scatter", "--config", str(cfg), "--out", str(out),
                         "--grid", grid]) == 0
        lines = (out / "scatter.csv").read_text().splitlines()
        assert lines[1:] == [
            "depth_mK,nu_latt_MHz,p_per_ion,subsequent_fraction,bunching",
            row]

    def test_needs_temperature(self, ws, tmp_path, capsys):
        text = BASE_YAML.replace("  T0_mK: 3.6\n", "")
        cfg = tmp_path / "no_t0.yaml"
        cfg.write_text(text)
        code = main(["scatter", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "T0" in capsys.readouterr().err


class TestThermometryCommand:
    def _spots_csv(self, tmp_path):
        from ionlattice import (equilibrium, gamma_parameters, normal_modes,
                                synthesize_spots, write_spot_profiles)
        parsed = parse_config(STRING_YAML)
        st = equilibrium(8, parsed.trap, species=parsed.species, seed=3)
        md = normal_modes(st, parsed.trap, species=parsed.species)
        g = gamma_parameters(md)
        spots = synthesize_spots(3.5e-3, st, g, parsed.imaging,
                                 photon_budget=2e4, seed=5,
                                 trap=parsed.trap, species=parsed.species,
                                 axes=("axial",))
        path = tmp_path / "spots.csv"
        write_spot_profiles(spots, path)
        return path

    def test_estimates_temperature(self, ws8, tmp_path):
        cfg, out = ws8
        spots = self._spots_csv(tmp_path)
        assert main(["thermometry", "--config", str(cfg), "--out", str(out),
                     "--spots", str(spots)]) == 0
        rep = json.loads((out / "temperature.json").read_text())
        assert rep["T_mK"] == pytest.approx(3.5, rel=0.2)
        assert rep["ci95_mK"] > 0
        assert rep["n_spots_used"] == 8
        assert len(rep["gamma_axial"]) == 8

    def test_missing_spots_file_is_io_error(self, ws8, capsys):
        cfg, out = ws8
        code = main(["thermometry", "--config", str(cfg), "--out", str(out),
                     "--spots", "/nonexistent/spots.csv"])
        assert code == EXIT_IO
        assert "error" in capsys.readouterr().err

    def test_bad_header_is_config_error(self, ws8, tmp_path, capsys):
        cfg, out = ws8
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c,d\n0,axial,0,10\n")
        code = main(["thermometry", "--config", str(cfg), "--out", str(out),
                     "--spots", str(bad)])
        assert code == EXIT_CONFIG
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("row, named", [
        ("8,axial,0,10", "ion_index 8"),  # the crystal has ions 0..7
        ("-1,axial,0,10", "line 3"),
        ("0,axial,0,nan", "line 3"),
        ("0,axial,inf,10", "line 3"),
        ("0,axial,0,-3", "line 3"),  # negative counts
    ])
    def test_bad_spot_row_is_config_error(self, ws8, tmp_path, capsys,
                                          monkeypatch, row, named):
        def no_solve(*args, **kwargs):
            raise AssertionError("the crystal was solved before the check")

        monkeypatch.setattr(cli, "equilibrium", no_solve)
        cfg, out = ws8
        bad = tmp_path / "bad.csv"
        # every group has the 5 rows a fit needs; the row is first on line 3
        bad.write_text("ion_index,axis,pixel,counts\n0,axial,1,10\n"
                       + (row + "\n") * 5
                       + "".join(f"0,axial,{p},10\n" for p in range(2, 6)))
        code = main(["thermometry", "--config", str(cfg), "--out", str(out),
                     "--spots", str(bad)])
        assert code == EXIT_CONFIG
        assert named in capsys.readouterr().err

    def test_short_spot_group_is_config_error(self, ws8, tmp_path, capsys,
                                              monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the crystal was solved before the check")

        monkeypatch.setattr(cli, "equilibrium", no_solve)
        cfg, out = ws8
        bad = tmp_path / "short.csv"
        bad.write_text("ion_index,axis,pixel,counts\n"
                       + "".join(f"0,axial,{p},10\n" for p in range(5))
                       + "1,axial,0,10\n1,axial,1,12\n")
        code = main(["thermometry", "--config", str(cfg), "--out", str(out),
                     "--spots", str(bad)])
        assert code == EXIT_CONFIG
        assert "line 7" in capsys.readouterr().err

    @pytest.mark.parametrize("radial, rows", [
        (False, "".join(f"0,radial,{p},10\n" for p in range(5))),
        (True, ""),
    ], ids=["radial-only", "empty"])
    def test_no_usable_spots_is_config_error(self, ws8, tmp_path, capsys,
                                             monkeypatch, radial, rows):
        # rejected before any fit or crystal solve
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the check")

        monkeypatch.setattr(cli, "equilibrium", no_work)
        monkeypatch.setattr(cli, "fit_spot_profiles", no_work)
        cfg, out = ws8
        if radial:
            cfg = tmp_path / "radial.yaml"
            cfg.write_text(STRING_YAML
                           + "thermometry:\n  include_radial: true\n")
        spots = tmp_path / "radial.csv"
        spots.write_text("ion_index,axis,pixel,counts\n" + rows)
        code = main(["thermometry", "--config", str(cfg), "--out", str(out),
                     "--spots", str(spots)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no axial" in err and "thermometry.include_radial" in err
        assert not (out / "temperature.json").exists()

    @staticmethod
    def _with_group(spots, path, ion, axis, counts):
        # spots' rows, without any of (ion, axis), then 20 rows of counts
        lines = spots.read_text().splitlines(keepends=True)
        path.write_text("".join(
            line for line in lines if not line.startswith(f"{ion},{axis},"))
            + "".join(f"{ion},{axis},{p},{counts}\n" for p in range(20)))
        return path

    def test_unfittable_spot_is_solver_error_naming_it(self, ws8, tmp_path,
                                                       capsys):
        cfg, out = ws8
        flat = self._with_group(self._spots_csv(tmp_path),
                                tmp_path / "flat.csv", 3, "axial", 7)
        code = main(["thermometry", "--config", str(cfg), "--out", str(out),
                     "--spots", str(flat)])
        assert code == EXIT_SOLVER
        assert "spot (ion_index 3, axis axial): constant profile has no " \
            "peak to fit" in capsys.readouterr().err
        assert not (out / "temperature.json").exists()

    def test_unused_axis_is_read_but_not_fitted(self, ws8, tmp_path,
                                                capsys):
        # a constant radial group is no error while radial spots are
        # excluded, and the result is that of the file without it
        cfg, out = ws8
        spots = self._spots_csv(tmp_path)
        flat = self._with_group(spots, tmp_path / "flat.csv", 2, "radial",
                                7)
        for name, path in (("with", flat), ("without", spots)):
            assert main(["thermometry", "--config", str(cfg), "--out",
                         str(out / name), "--spots", str(path)]) == 0
        assert (out / "with" / "temperature.json").read_bytes() \
            == (out / "without" / "temperature.json").read_bytes()
        radial = tmp_path / "radial.yaml"
        radial.write_text(STRING_YAML
                          + "thermometry:\n  include_radial: true\n")
        code = main(["thermometry", "--config", str(radial), "--out",
                     str(out / "radial"), "--spots", str(flat)])
        assert code == EXIT_SOLVER
        assert "spot (ion_index 2, axis radial): constant profile" \
            in capsys.readouterr().err

    def test_unused_axis_is_still_validated(self, ws8, tmp_path, capsys,
                                            monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the check")

        monkeypatch.setattr(cli, "equilibrium", no_work)
        monkeypatch.setattr(cli, "fit_spot_profiles", no_work)
        cfg, out = ws8
        spots = self._spots_csv(tmp_path)
        bad = self._with_group(spots, tmp_path / "bad.csv", 2, "radial", 7)
        bad.write_text(bad.read_text() + "2,radial,20,-1\n")
        code = main(["thermometry", "--config", str(cfg), "--out", str(out),
                     "--spots", str(bad)])
        assert code == EXIT_CONFIG
        assert "counts must be non-negative" in capsys.readouterr().err

    def test_negative_variance_is_solver_error(self, ws8, tmp_path, capsys):
        from ionlattice import (ImagingConfig, equilibrium,
                                gamma_parameters, normal_modes,
                                synthesize_spots, write_spot_profiles)
        cfg, out = ws8
        parsed = parse_config(STRING_YAML)
        st = equilibrium(8, parsed.trap, species=parsed.species, seed=3)
        g = gamma_parameters(normal_modes(st, parsed.trap,
                                          species=parsed.species))
        # synthesize narrower than the config's claimed resolution
        narrow = ImagingConfig(sigma_res_axial=0.5e-6,
                               sigma_res_radial=0.5e-6,
                               pixel_pitch=parsed.imaging.pixel_pitch)
        spots = synthesize_spots(0.0, st, g, narrow, photon_budget=2e4,
                                 seed=5, trap=parsed.trap,
                                 species=parsed.species, axes=("axial",),
                                 noise=False)
        path = tmp_path / "narrow.csv"
        write_spot_profiles(spots, path)
        code = main(["thermometry", "--config", str(cfg), "--out", str(out),
                     "--spots", str(path)])
        assert code == EXIT_SOLVER
        assert "negative" in capsys.readouterr().err


class TestMicromotionCommand:
    def test_report_fields(self, ws):
        cfg, out = ws
        assert main(["micromotion", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rep = json.loads((out / "micromotion.json").read_text())
        assert rep["q_radial"] == pytest.approx(0.1208, rel=1e-3)
        assert len(rep["per_ion"]) == 4
        hottest = max(sum(i["equivalent_temperature_mK"][:2])
                      for i in rep["per_ion"])
        assert hottest == pytest.approx(156.0, rel=0.1)

    @pytest.mark.parametrize("entry", ["mass_amu: 0", "mass_amu: -1",
                                       "lattice_wavelength_nm: 0"])
    def test_bad_species_is_config_error(self, tmp_path, capsys, entry):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(BASE_YAML + f"species:\n  {entry}\n")
        code = main(["micromotion", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "species" in capsys.readouterr().err

    def test_derived_q_out_of_range_is_config_error(self, tmp_path, capsys):
        # q_radial = 2 sqrt(2) 2500 kHz / 3.98 MHz = 1.78, above 0.92
        cfg = tmp_path / "run.yaml"
        cfg.write_text(BASE_YAML.replace("f_radial_kHz: 170.0",
                                         "f_radial_kHz: 2500.0"))
        code = main(["micromotion", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "q_radial" in capsys.readouterr().err


class TestCliPlumbing:
    def test_unknown_verb(self):
        with pytest.raises(SystemExit) as exc:
            main(["orbit", "--config", "x.yaml"])
        assert exc.value.code == 2

    def test_json_writer_refuses_nan(self, tmp_path):
        from ionlattice.cli import _write_json
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError):
            _write_json(path, {"T_mK": float("nan")})
        assert not path.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["equilibrium", "--config",
                     str(tmp_path / "none.yaml")])
        assert code == EXIT_IO
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["yaml", "json"])
    def test_verbs_never_import_scipy(self, ws, tmp_path, form):
        # scipy's import costs more start-up than any one verb's work, so
        # the library implements what it needed (ionlattice._optim); a
        # JSON config does not import PyYAML either
        import yaml
        from ionlattice import (equilibrium, gamma_parameters, normal_modes,
                                synthesize_spots, write_spot_profiles)
        cfg, out = ws
        if form == "json":
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(yaml.safe_load(BASE_YAML)))
        parsed = parse_config(BASE_YAML)
        st = equilibrium(4, parsed.trap, species=parsed.species, seed=7)
        md = normal_modes(st, parsed.trap, species=parsed.species)
        spots = synthesize_spots(3.5e-3, st, gamma_parameters(md),
                                 parsed.imaging, photon_budget=2e4, seed=5,
                                 trap=parsed.trap, species=parsed.species)
        write_spot_profiles(spots, tmp_path / "spots.csv")
        script = (
            "import sys, warnings\n"
            "from ionlattice.cli import main\n"
            "warnings.simplefilter('ignore')\n"
            "cfg, out, spots = sys.argv[1:]\n"
            "for verb, extra in (('equilibrium', []),\n"
            "                    ('modes', ['--grid', '0:0.4:4:lin']),\n"
            "                    ('scatter', ['--grid', '0:25:3:lin']),\n"
            "                    ('thermometry', ['--spots', spots]),\n"
            "                    ('micromotion', [])):\n"
            "    assert main([verb, '--config', cfg, '--out', out]\n"
            "                + extra) == 0, verb\n"
            "for top in ('scipy', 'yaml'):\n"
            "    print(' '.join(m for m in sys.modules\n"
            "                   if m.partition('.')[0] == top))\n")
        src = os.path.dirname(os.path.dirname(ionlattice.__file__))
        run = subprocess.run(
            [sys.executable, "-c", script, str(cfg), str(out),
             str(tmp_path / "spots.csv")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True)
        assert run.returncode == 0, run.stderr
        scipy_modules, yaml_modules = run.stdout.split("\n")[:2]
        assert scipy_modules == ""
        if form == "json":
            assert yaml_modules == ""
        for name in ("positions.csv", "modes.csv", "scatter.csv",
                     "temperature.json", "micromotion.json"):
            assert (out / name).exists()


def _oracle_csv(cfg_hash, header, rows):
    # the per-value CSV formatting of the writer the table writer replaced,
    # frozen here as the oracle its bytes must match
    lines = [f"# config_hash={cfg_hash}", ",".join(header)]
    lines += [",".join(v if isinstance(v, str) else "%.9g" % v for v in row)
              for row in rows]
    return ("\n".join(lines) + "\n").encode()


class _FullDisk:
    """A file on a disk that fills after the first write: the second write
    fails with ENOSPC, or the close of a file written in one piece."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        n = self.fh.write(text)
        self.fh.flush()  # the first write reaches the disk
        return n

    def __enter__(self):
        return self

    def __exit__(self, kind, value, tb):
        self.fh.close()
        if kind is None and self.writes < 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestArtifactWriter:
    def test_positions_bytes(self, ws):
        from ionlattice import equilibrium
        cfg, out = ws
        assert main(["equilibrium", "--config", str(cfg),
                     "--out", str(out)]) == 0
        parsed = parse_config(BASE_YAML)
        st = equilibrium(4, parsed.trap, species=parsed.species, seed=7)
        rows = [(i, x / 1e-6, y / 1e-6, z / 1e-6)
                for i, (x, y, z) in enumerate(st.positions)]
        assert (out / "positions.csv").read_bytes() == _oracle_csv(
            parsed.config_hash, ["ion", "x_um", "y_um", "z_um"], rows)

    def test_scatter_bytes(self, ws):
        from ionlattice import ScatteringScenario, equilibrium, scan_depth
        cfg, out = ws
        grid = "0.5:30:7:geom"
        parsed = parse_config(BASE_YAML)
        st = equilibrium(4, parsed.trap, species=parsed.species, seed=7)
        scenario = ScatteringScenario(crystal=st, species=parsed.species,
                                      lattice=parsed.lattice,
                                      ramp=parsed.ramp, T0=parsed.T0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            assert main(["scatter", "--config", str(cfg), "--out", str(out),
                         "--grid", grid]) == 0
            table = scan_depth(scenario, parsed.beam,
                               _parse_grid(grid) * 1e-3 * cn.KB)
        rows = [(r["depth"] / cn.KB / 1e-3, r["nu_latt"] / 1e6,
                 r["p_per_ion"], r["subsequent_fraction"], r["bunching"])
                for r in table]
        assert (out / "scatter.csv").read_bytes() == _oracle_csv(
            parsed.config_hash, ["depth_mK", "nu_latt_MHz", "p_per_ion",
                                 "subsequent_fraction", "bunching"], rows)

    @pytest.mark.parametrize("verb, name", [
        ("equilibrium", "positions.csv"),
        ("modes", "modes.csv"),
        ("modes", "modes_warnings.json"),
        ("scatter", "scatter.csv"),
        ("scatter", "scatter_meta.json"),
        ("thermometry", "temperature.json"),
        ("micromotion", "micromotion.json"),
    ])
    def test_full_disk_leaves_no_partial_artifact(self, ws, tmp_path,
                                                  monkeypatch, capsys,
                                                  verb, name):
        from ionlattice import (equilibrium, gamma_parameters, normal_modes,
                                synthesize_spots, write_spot_profiles)
        cfg, out = ws
        argv = [verb, "--config", str(cfg), "--out", str(out)]
        argv += {"modes": ["--grid", "0.01:0.2:3:geom"],
                 "scatter": ["--grid", "0:25:3:lin"]}.get(verb, [])
        if verb == "thermometry":
            parsed = parse_config(BASE_YAML)
            st = equilibrium(4, parsed.trap, species=parsed.species, seed=7)
            spots = synthesize_spots(
                3.5e-3, st, gamma_parameters(normal_modes(
                    st, parsed.trap, species=parsed.species)),
                parsed.imaging, photon_budget=2e4, seed=5, trap=parsed.trap,
                species=parsed.species, axes=("axial",))
            write_spot_profiles(spots, tmp_path / "spots.csv")
            argv += ["--spots", str(tmp_path / "spots.csv")]

        def full_disk_run():
            def fake_open(file, *args, **kwargs):
                fh = open(file, *args, **kwargs)
                if os.path.basename(file).startswith(name):
                    return _FullDisk(fh)
                return fh

            with monkeypatch.context() as m, warnings.catch_warnings():
                warnings.simplefilter("ignore", AdiabaticityWarning)
                m.setattr(cli, "open", fake_open, raising=False)
                assert main(argv) == EXIT_IO
            assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
            assert not [p for p in out.iterdir() if p.suffix == ".tmp"]

        full_disk_run()  # into a fresh directory
        assert not (out / name).exists()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdiabaticityWarning)
            assert main(argv) == 0
        (out / name).write_text("from an earlier run\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        full_disk_run()  # over the artifacts of a successful run
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
