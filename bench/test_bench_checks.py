"""Self-test of the benchmark: the output checks and BENCHMARK.json.

Unmodified reference artifacts must pass the checks; a shifted
probability or a nan written into an artifact must fail the op.

    python3 -m pytest bench/test_bench_checks.py
"""

import json
import os

import pytest

import checks
import run
from workloads import WORKLOADS, op_name

OPS = sorted({op for _, ops in WORKLOADS.values() for op in ops})


def _reference(verb, crystal):
    return os.path.join(run.REFERENCE, op_name(verb, crystal))


def _as_output(verb, crystal, tmp_path):
    """The reference artifacts of one op, unpacked as if the op wrote them."""
    out = tmp_path / op_name(verb, crystal)
    out.mkdir()
    for name in checks.ARTIFACTS[verb]:
        (out / name).write_text(
            checks.read_text(os.path.join(_reference(verb, crystal), name)),
            encoding="utf-8")
    return str(out)


@pytest.mark.parametrize("verb,crystal", OPS)
def test_reference_artifacts_pass(verb, crystal, tmp_path):
    out = _as_output(verb, crystal, tmp_path)
    assert checks.check_op(verb, crystal, out, _reference(verb, crystal)) == []


def _edit_csv(path, column, edit):
    """Apply edit(old text) to the first nonzero cell of a CSV column."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    col = lines[1].split(",").index(column)
    for i in range(2, len(lines)):
        cells = lines[i].split(",")
        if float(cells[col]) != 0.0:
            cells[col] = edit(cells[col])
            lines[i] = ",".join(cells)
            break
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_shifted_probability_fails(tmp_path):
    out = _as_output("scatter", "string8", tmp_path)
    _edit_csv(os.path.join(out, "scatter.csv"), "p_per_ion",
              lambda v: "%.9g" % (float(v) + 1e-5))
    problems = checks.check_op("scatter", "string8", out,
                               _reference("scatter", "string8"))
    assert any("p_per_ion" in p for p in problems)


@pytest.mark.parametrize("verb,crystal,artifact", [
    ("scatter", "zigzag4", "scatter.csv"),
    ("micromotion", "crystal64", "micromotion.json"),
])
def test_nan_fails(verb, crystal, artifact, tmp_path):
    out = _as_output(verb, crystal, tmp_path)
    path = os.path.join(out, artifact)
    if artifact.endswith(".csv"):
        _edit_csv(path, "bunching", lambda v: "nan")
    else:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        report["per_ion"][0]["amplitude_um"][0] = float("nan")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    problems = checks.check_op(verb, crystal, out, _reference(verb, crystal))
    assert any("nan or inf" in p for p in problems)


def test_relabelled_ions_pass(tmp_path):
    out = _as_output("equilibrium", "crystal64", tmp_path)
    path = os.path.join(out, "positions.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:2] + lines[:1:-1]) + "\n")
    assert checks.check_op("equilibrium", "crystal64", out,
                           _reference("equilibrium", "crystal64")) == []


def test_missing_artifact_fails(tmp_path):
    out = _as_output("modes", "zigzag4", tmp_path)
    os.remove(os.path.join(out, "modes_warnings.json"))
    assert checks.check_op("modes", "zigzag4", out,
                           _reference("modes", "zigzag4")) \
        == ["modes_warnings.json: missing"]


def test_benchmark_json_matches_the_runner():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["bench"]
    assert {(w["name"], w["why"]) for w in spec["workloads"]} \
        == {(name, why) for name, (why, _) in WORKLOADS.items()}
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} \
        == set(run.END_TO_END)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} \
        == set(run.PER_LAYER.items())

