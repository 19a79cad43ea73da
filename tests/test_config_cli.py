"""Config parsing, hashing, and the command-line surface."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ionlattice
from ionlattice import AdiabaticityWarning, ConfigError, parse_config
from ionlattice import constants as cn
from ionlattice.cli import main
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
        import ionlattice.cli as cli

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
        import ionlattice.cli as cli

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

    def test_verbs_never_import_scipy(self, ws, tmp_path):
        # scipy's import costs more start-up than any one verb's work, so
        # the library implements what it needed (ionlattice._optim)
        from ionlattice import (equilibrium, gamma_parameters, normal_modes,
                                synthesize_spots, write_spot_profiles)
        cfg, out = ws
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
            "print(' '.join(m for m in sys.modules\n"
            "               if m == 'scipy' or m.startswith('scipy.')))\n")
        src = os.path.dirname(os.path.dirname(ionlattice.__file__))
        run = subprocess.run(
            [sys.executable, "-c", script, str(cfg), str(out),
             str(tmp_path / "spots.csv")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == []
        for name in ("positions.csv", "modes.csv", "scatter.csv",
                     "temperature.json", "micromotion.json"):
            assert (out / name).exists()
