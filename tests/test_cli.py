"""End-to-end tests of the scenario front end."""

import argparse
import copy
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from textwrap import dedent

import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import numpy as np

from exchangelab import cli, gates, hilbert
from exchangelab.cli import (MAX_ATOMS, MAX_GRID_COUNT, MAX_NESTING,
                             MAX_PARALLEL, MAX_SCHEDULE_WORK, MAX_SECTOR_DIM,
                             MAX_TRAJECTORY_ROWS, ScenarioError, main,
                             parse_scenario)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def test_documented_scenarios_parse_and_roundtrip():
    files = sorted(SCENARIOS.glob("*.yaml"))
    assert len(files) >= 10
    for path in files:
        scenario = parse_scenario(path.read_text())
        assert scenario.kind in ("simulate", "gate", "five-pulse", "perturb",
                                 "rates", "sweep")
        # the document survives a dump/parse cycle
        again = parse_scenario(yaml.safe_dump(yaml.safe_load(path.read_text())))
        assert again == scenario
    kinds = {yaml.safe_load(path.read_text())["kind"] for path in files}
    assert kinds == set(cli.KINDS)


def test_sweep_points_leave_the_document_alone():
    doc = yaml.safe_load((SCENARIOS / "sweep_perturb_width.yaml").read_text())
    snapshot = copy.deepcopy(doc)
    scenario = cli.validate_scenario(doc)
    assert doc == snapshot
    points = [point for _, point in scenario.parameters["points"]]
    assert [p.parameters["rule"].width for p in points] == [0.0, 0.0001, 0.001, 0.01]
    # point documents differ from the base in the swept value only, and own
    # the mappings on its path
    base, keys = doc["parameters"]["base"], ["parameters", "rule", "width"]
    first, second = (cli._point_data(base, keys, w) for w in (0.5, 0.25))
    assert doc == snapshot
    assert [p["parameters"]["rule"]["width"] for p in (first, second)] == [0.5, 0.25]
    for point in (first, second):
        point["parameters"]["rule"]["width"] = 0.0     # the base's value
        assert point == base
    assert doc == snapshot


def test_unknown_key_gets_suggestion():
    text = dedent("""
        kind: simulate
        model: {type: bosonized}
        schedule:
          segments:
            - duration: 1.0
              detunnings: {collective: 0.5}
        parameters:
          experiment: schedule-run
          initial: [1, 0, 0]
    """)
    with pytest.raises(ScenarioError, match="detunings"):
        parse_scenario(text)


def test_negative_duration_is_named():
    text = dedent("""
        kind: simulate
        model: {type: bosonized}
        schedule:
          segments:
            - duration: -2.0
        parameters:
          experiment: schedule-run
          initial: [1, 0, 0]
    """)
    with pytest.raises(ScenarioError, match="duration"):
        parse_scenario(text)


def test_unknown_kind_mentions_valid_kinds():
    with pytest.raises(ScenarioError, match="gate"):
        parse_scenario("kind: gates\n")


def test_transmission_rejects_model_block():
    text = dedent("""
        kind: simulate
        model: {type: bosonized}
        parameters:
          experiment: transmission
          rate: 1.0
          durations: [0.0, 1.0]
    """)
    with pytest.raises(ScenarioError):
        parse_scenario(text)


_RATES_PARAMETERS = yaml.safe_load(
    (SCENARIOS / "rates_high_density.yaml").read_text())["parameters"]


def test_output_paths_must_be_relative():
    text = dedent("""
        kind: gate
        schedule: {preset: three-pulse, rate: 1.0}
        output: {report: /tmp/gate.json}
    """)
    with pytest.raises(ScenarioError, match="relative"):
        parse_scenario(text)
    for name in ("../escaped.csv", "sub/rates.json", "./rates.json", "..",
                 ".", "", "run.meta.json", "rates.json/", "nul\0.csv"):
        data = {"kind": "rates", "parameters": _RATES_PARAMETERS,
                "output": {"table": name}}
        with pytest.raises(ScenarioError, match="relative"):
            cli.validate_scenario(data)
    for output in ({"table": "rates.json"},
                   {"table": "same.csv", "report": "same.csv"}):
        data = {"kind": "rates", "parameters": _RATES_PARAMETERS,
                "output": output}
        with pytest.raises(ScenarioError, match="must be distinct"):
            cli.validate_scenario(data)
    assert cli.validate_scenario(
        {"kind": "rates", "parameters": _RATES_PARAMETERS,
         "output": {"table": "..map.csv", "report": "r"}}).output == {
            "table": "..map.csv", "report": "r"}


def test_output_outside_out_is_refused_before_compute(tmp_path, monkeypatch,
                                                      capsys):
    _refuse_compute(monkeypatch, "rates")
    out = tmp_path / "out"
    for output in ({"table": "../escaped.csv"}, {"report": "sub/rates.json"}):
        path = tmp_path / "rates.yaml"
        path.write_text(yaml.safe_dump({"kind": "rates",
                                        "parameters": _RATES_PARAMETERS,
                                        "output": output}))
        assert main(["rates", "--scenario", str(path), "--out", str(out)]) == 1
        assert "must be a plain file name relative to --out" in (
            capsys.readouterr().err)
    assert not (tmp_path / "escaped.csv").exists()
    assert not out.exists()


def test_minimal_gate_scenario_uses_defaults():
    scenario = parse_scenario("kind: gate\nschedule: {preset: three-pulse, rate: 1.0}\n")
    assert scenario.output["report"] == "gate.json"
    assert scenario.model.bosonized
    assert scenario.preset == "three-pulse"


def test_initial_state_must_fit_model():
    text = dedent("""
        kind: simulate
        model: {type: tavis-cummings, atoms: 1}
        schedule:
          segments: [{duration: 1.0}]
        parameters:
          experiment: schedule-run
          initial: [0, 0, 2]
    """)
    with pytest.raises(ScenarioError, match="capacity"):
        parse_scenario(text)


# ---------------------------------------------------------------------------
# Running documented scenarios
# ---------------------------------------------------------------------------


def test_gate_scenario_run(tmp_path):
    code = main(["gate", "--scenario", str(SCENARIOS / "gate_three_pulse.yaml"),
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "gate.json").read_text())
    assert payload["entangling"] is False
    assert payload["three_pulse_deviation"] < 1e-12
    diag = [payload["matrix"][i][i] for i in range(4)]
    assert [round(entry[0]) for entry in diag] == [1, -1, 1, -1]
    meta = json.loads((tmp_path / "run.meta.json").read_text())
    assert meta["kind"] == "gate"
    assert "written_at" in meta


def test_finite_gate_scenario_run(tmp_path):
    code = main(["gate", "--scenario", str(SCENARIOS / "gate_finite_atoms.yaml"),
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "gate_n8.json").read_text())
    assert payload["three_pulse_deviation"] == pytest.approx(
        1.0 - math.cos(2 * math.pi * math.sqrt(1.0 - 1.0 / 16.0)), rel=1e-6)
    assert max(payload["leakage"]) > 1e-4


def test_transmission_scenario_run(tmp_path):
    code = main(["simulate", "--scenario", str(SCENARIOS / "transmission.yaml"),
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "transmission.csv")
    assert header == ["duration", "survival"]
    assert len(rows) == 129
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
    survivals = [float(row[1]) for row in rows]
    assert min(survivals) < 1e-9
    assert max(survivals) == pytest.approx(1.0, abs=1e-9)


def test_schedule_run_scenario(tmp_path):
    code = main(["simulate", "--scenario", str(SCENARIOS / "schedule_run.yaml"),
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "trajectory.csv")
    assert header == ["time", "state_index", "re", "im", "norm"]
    norms = [float(row[4]) for row in rows]
    assert norms[-1] == pytest.approx(1.0, abs=1e-12)


def test_five_pulse_scenario_run(tmp_path):
    code = main(["five-pulse", "--scenario", str(SCENARIOS / "five_pulse.yaml"),
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "five_pulse.csv")
    assert header == ["theta", "p_two_photon", "p_two_excitation", "p_return"]
    assert len(rows) == 65
    peaks = max(float(row[1]) for row in rows)
    assert peaks == pytest.approx(0.5, abs=1e-9)
    report = json.loads((tmp_path / "five_pulse.json").read_text())
    assert report["emission_absorption_ratio"] == pytest.approx(1.0)


def test_perturb_none_scenario_run(tmp_path):
    code = main(["perturb", "--scenario", str(SCENARIOS / "perturb_none.yaml"),
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "perturb_none.json").read_text())
    assert payload["relative_magnitude"] < 1e-10
    assert payload["franson_delta_e"] == [0.0, 0.0]
    assert payload["diagnostics"]["basis_size"] > 0


def test_perturb_exchanged_scenario_run(tmp_path):
    code = main(["perturb", "--scenario", str(SCENARIOS / "perturb_exchanged.yaml"),
                 "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "perturb_exchanged.json").read_text())
    re, im = payload["cross_coefficient"]
    assert abs(im) > 10 * abs(re)
    assert payload["relative_magnitude"] > 1e-8


def test_rates_scenario_run(tmp_path):
    code = main(["rates", "--scenario", str(SCENARIOS / "rates_high_density.yaml"),
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "regime_map.csv")
    assert header == ["density", "wavenumber", "regime", "dominant_rate",
                      "cooperative_rate", "cooperation_wins"]
    assert len(rows) == 1
    assert rows[0][2] == "high-density"
    report = json.loads((tmp_path / "rates.json").read_text())
    assert report["kind"] == "regime_report"


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_gate_convergence_sweep(tmp_path):
    code = main(["sweep", "--scenario", str(SCENARIOS / "sweep_gate_atoms.yaml"),
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "gate_convergence.csv")
    assert header[:3] == ["index", "value", "status"]
    assert [row[0] for row in rows] == [str(i) for i in range(6)]
    assert all(row[2] == "ok" for row in rows)
    deviations = [float(row[header.index("deviation")]) for row in rows]
    assert all(b < a for a, b in zip(deviations, deviations[1:]))


def test_sweep_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    scenario = str(SCENARIOS / "sweep_perturb_width.yaml")
    assert main(["sweep", "--scenario", scenario, "--out", str(serial)]) == 0
    assert main(["sweep", "--scenario", scenario, "--out", str(parallel),
                 "--parallel", "4"]) == 0
    assert ((serial / "perturb_width.csv").read_bytes()
            == (parallel / "perturb_width.csv").read_bytes())


def test_sweep_single_point_matches_direct_run(tmp_path):
    sweep_yaml = tmp_path / "sweep.yaml"
    sweep_yaml.write_text(dedent("""
        kind: sweep
        parameters:
          parameter: model.atoms
          values: [8]
          base:
            kind: gate
            model: {type: tavis-cummings, atoms: 2}
            schedule: {preset: three-pulse, rate: 1.0}
    """))
    sweep_out = tmp_path / "sweep_out"
    direct_out = tmp_path / "direct_out"
    assert main(["sweep", "--scenario", str(sweep_yaml),
                 "--out", str(sweep_out)]) == 0
    assert main(["gate", "--scenario", str(SCENARIOS / "gate_finite_atoms.yaml"),
                 "--out", str(direct_out)]) == 0
    header, rows = _read_csv(sweep_out / "sweep.csv")
    payload = json.loads((direct_out / "gate_n8.json").read_text())
    sweep_deviation = float(rows[0][header.index("deviation")])
    assert sweep_deviation == payload["three_pulse_deviation"]


def test_sweep_reports_failed_points(tmp_path):
    sweep_yaml = tmp_path / "sweep.yaml"
    sweep_yaml.write_text(dedent("""
        kind: sweep
        parameters:
          parameter: parameters.rule.width
          values: [-0.5, 0.01]
          base:
            kind: perturb
            parameters:
              coupling: 0.05
              atoms: 2
              delta_1: 1.0
              delta_2: 0.9
              rule: {selector: exchanged-photon-ground-states, width: 0.0}
    """))
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(sweep_yaml), "--out", str(out)]) == 0
    header, rows = _read_csv(out / "sweep.csv")
    assert rows[0][2] == "validation-error"
    assert rows[0][header.index("cross_abs")] == ""
    assert rows[1][2] == "ok"
    assert float(rows[1][header.index("cross_abs")]) > 0.0
    meta = json.loads((out / "run.meta.json").read_text())
    assert meta["failed_points"] == [{
        "index": 0, "status": "validation-error",
        "error": "ScenarioError: parameters.rule.width must be >= 0.0, "
                 "got -0.5"}]
    assert "ScenarioError" not in (out / "sweep.csv").read_text()


def test_sweep_all_points_failing_numerically_exits_2(tmp_path):
    sweep_yaml = tmp_path / "sweep.yaml"
    sweep_yaml.write_text(dedent("""
        kind: sweep
        parameters:
          parameter: parameters.delta_2
          values: [-1.0]
          base:
            kind: perturb
            parameters:
              coupling: 0.05
              atoms: 2
              delta_1: 1.0
              delta_2: 0.9
              delta: 1.0
              rule: {selector: none}
    """))
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(sweep_yaml), "--out", str(out)]) == 2
    _, rows = _read_csv(out / "sweep.csv")
    assert rows[0][2] == "numerical-error"
    [failed] = json.loads((out / "run.meta.json").read_text())["failed_points"]
    assert failed["index"] == 0 and failed["status"] == "numerical-error"
    assert failed["error"].startswith("SingularityError: ")


_SUMMARY_COLUMNS = {
    "simulate": ["survival_min", "survival_max", "final_norm"],
    "gate": ["deviation", "entangling", "max_leakage", "unitarity_defect"],
    "five-pulse": ["p_two_photon", "p_two_excitation", "p_return"],
    "perturb": ["cross_re", "cross_im", "cross_abs", "path_scale"],
    "rates": ["regime", "cooperative_rate", "dominant_rate",
              "cooperation_wins"],
}

_BASE_SCENARIOS = sorted(
    path.name for path in SCENARIOS.glob("*.yaml")
    if yaml.safe_load(path.read_text())["kind"] != "sweep")


@pytest.mark.parametrize("name", _BASE_SCENARIOS)
def test_one_point_sweep_fills_the_kind_columns(tmp_path, name):
    base = yaml.safe_load((SCENARIOS / name).read_text())
    kind = base["kind"]
    sweep_yaml = tmp_path / "sweep.yaml"
    sweep_yaml.write_text(yaml.safe_dump({"kind": "sweep", "parameters": {
        "parameter": "kind", "values": [kind], "base": base}}))
    assert main(["sweep", "--scenario", str(sweep_yaml),
                 "--out", str(tmp_path)]) == 0
    header, [row] = _read_csv(tmp_path / "sweep.csv")
    columns = _SUMMARY_COLUMNS[kind]
    assert header == ["index", "value", "status"] + columns
    assert row[:3] == ["0", kind, "ok"]
    filled = {"transmission": ["survival_min", "survival_max"],
              "schedule-run": ["final_norm"]}.get(
        base.get("parameters", {}).get("experiment"), columns)
    assert [column for column, cell in zip(columns, row[3:]) if cell] == filled


# ---------------------------------------------------------------------------
# Determinism and exit codes
# ---------------------------------------------------------------------------


def test_payloads_are_byte_identical_across_runs(tmp_path):
    for name in ("gate_three_pulse.yaml", "perturb_exchanged.yaml"):
        first = tmp_path / f"{name}.first"
        second = tmp_path / f"{name}.second"
        command = parse_scenario((SCENARIOS / name).read_text()).kind
        for out in (first, second):
            assert main([command, "--scenario", str(SCENARIOS / name),
                         "--out", str(out)]) == 0
        payloads = [sorted(p.name for p in out.iterdir() if p.name != "run.meta.json")
                    for out in (first, second)]
        assert payloads[0] == payloads[1]
        for file_name in payloads[0]:
            assert ((first / file_name).read_bytes()
                    == (second / file_name).read_bytes())


def _transmission_grid(count):
    return dedent(f"""
        kind: simulate
        parameters:
          experiment: transmission
          rate: 1.0
          durations: {{start: 0.0, stop: 1.0, count: {count}}}
    """)


def test_grid_count_is_capped_before_allocation(tmp_path, monkeypatch, capsys):
    assert len(parse_scenario(_transmission_grid(MAX_GRID_COUNT))
               .parameters["durations"]) == MAX_GRID_COUNT
    assert MAX_GRID_COUNT >= 10 * 512   # the largest grid the scenarios use

    def refuse(*args, **kwargs):
        raise AssertionError("an oversized grid reached np.linspace")

    monkeypatch.setattr(np, "linspace", refuse)
    for count in (MAX_GRID_COUNT + 1, 10 ** 9):
        with pytest.raises(ScenarioError, match=f"count must be <= {MAX_GRID_COUNT}"):
            parse_scenario(_transmission_grid(count))
    path = tmp_path / "huge.yaml"
    path.write_text(_transmission_grid(10 ** 9))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert "durations.count" in capsys.readouterr().err


def test_grid_span_beyond_a_double_is_refused(tmp_path, capsys):
    message = ("parameters.values grid spans -1.7e+308 to 1.7e+308, a range "
               "beyond a double")
    data = {"kind": "sweep", "parameters": {
        "parameter": "parameters.omega",
        "values": {"start": -1.7e+308, "stop": 1.7e+308, "count": 3},
        "base": _rates()}}
    with pytest.raises(ScenarioError, match=re.escape(message)):
        cli.validate_scenario(data)
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sweep", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert caught == []
    assert not (tmp_path / "sweep.csv").exists()


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_finite, _finite, st.integers(1, MAX_GRID_COUNT))
@example(0.5, 7.0, 1)
@example(-3.0, 2.0, 1)
@example(2.5, 2.5, 7)
@example(3.0, -1.0, 5)
@example(1.0e300, -1.0e300, MAX_GRID_COUNT)
@example(-0.0, 0.0, 3)
@example(0.0, -0.0, 3)
@example(-0.0, -0.0, 1)
@example(-0.0, 1.0, 4)
@example(5e-324, 1e-322, 4)
@example(0.0, 5e-324, 3)            # the step underflows to zero
@example(-5e-324, 5e-324, MAX_GRID_COUNT)
@example(2.2250738585072014e-308, 0.0, 9)
def test_grid_matches_numpy_linspace(start, stop, count):
    assume(math.isfinite(stop - start))     # refused at validation otherwise
    grid = cli._value_list({"start": start, "stop": stop, "count": count}, "grid")
    want = np.linspace(start, stop, count)
    assert [x.hex() for x in grid] == [float(x).hex() for x in want]


def test_parallel_is_capped_before_threads_start(tmp_path, monkeypatch, capsys):
    _refuse_compute(monkeypatch, "perturb")
    scenario = str(SCENARIOS / "sweep_perturb_width.yaml")
    for value in (MAX_PARALLEL + 1, 10 ** 9, 0):
        code = main(["sweep", "--scenario", scenario, "--out", str(tmp_path),
                     "--parallel", str(value)])
        assert code == 1
        assert f"--parallel must lie in 1..{MAX_PARALLEL}" in capsys.readouterr().err
    assert not (tmp_path / "perturb_width.csv").exists()
    monkeypatch.undo()
    assert main(["sweep", "--scenario", scenario, "--out", str(tmp_path),
                 "--parallel", str(MAX_PARALLEL)]) == 0


_TWO_POINT_SWEEP = dedent("""
    kind: sweep
    parameters:
      parameter: parameters.rule.width
      values: [0.0, 0.01]
      base:
        kind: perturb
        parameters:
          coupling: 0.05
          atoms: 2
          delta_1: 1.0
          delta_2: 0.9
          rule: {selector: exchanged-photon-ground-states, width: 0.005}
""")


def test_sweep_runs_in_order_without_threads(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    scenario = tmp_path / "two.yaml"
    scenario.write_text(_TWO_POINT_SWEEP)
    for parallel in ("64", "1"):
        assert main(["sweep", "--scenario", str(scenario),
                     "--out", str(tmp_path / parallel),
                     "--parallel", parallel]) == 0
    assert ((tmp_path / "64" / "sweep.csv").read_bytes()
            == (tmp_path / "1" / "sweep.csv").read_bytes())


def test_each_sweep_point_is_validated_once(tmp_path, monkeypatch):
    widths = []
    real_validate = cli.validate_scenario

    def counting_validate(data):
        if data.get("kind") == "perturb":
            widths.append(data["parameters"]["rule"]["width"])
        return real_validate(data)

    monkeypatch.setattr(cli, "validate_scenario", counting_validate)
    text = _TWO_POINT_SWEEP.replace("[0.0, 0.01]", "[0.0, -1.0, 0.01]")
    scenario = parse_scenario(text)
    assert widths == [0.005, 0.0, -1.0, 0.01]    # the base, then each point
    widths.clear()
    assert cli.run_scenario(scenario, tmp_path / "run") == 0
    assert widths == []
    # and once in total over a whole CLI run
    path = tmp_path / "three.yaml"
    path.write_text(text)
    assert main(["sweep", "--scenario", str(path),
                 "--out", str(tmp_path / "main")]) == 0
    assert widths == [0.005, 0.0, -1.0, 0.01]
    _, rows = _read_csv(tmp_path / "main" / "sweep.csv")
    assert [row[2] for row in rows] == ["ok", "validation-error", "ok"]


def _refuse_compute(monkeypatch, kind):
    def refuse(scenario):
        raise AssertionError(f"an oversized {kind} scenario reached compute")

    monkeypatch.setitem(cli._KINDS, kind, cli._KINDS[kind]._replace(compute=refuse))


def test_rates_table_is_capped_before_allocation(tmp_path, monkeypatch, capsys):
    _refuse_compute(monkeypatch, "rates")
    data = yaml.safe_load((SCENARIOS / "rates_high_density.yaml").read_text())
    data["parameters"]["density"] = {"start": 1e23, "stop": 1e25, "count": 100}
    data["parameters"]["wavenumber"] = {"start": 4e6, "stop": 8e6,
                                        "count": MAX_GRID_COUNT // 100}
    assert cli.validate_scenario(data).kind == "rates"   # exactly at the cap
    for density_count in (101, MAX_GRID_COUNT):
        data["parameters"]["density"]["count"] = density_count
        rows = density_count * (MAX_GRID_COUNT // 100)
        message = f"makes a table of {rows} rows, more than {MAX_GRID_COUNT}"
        with pytest.raises(ScenarioError, match=message):
            cli.validate_scenario(data)
    path = tmp_path / "huge_rates.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["rates", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "regime_map.csv").exists()


def _schedule_run(initial, samples, *, atoms=None, segments=1):
    model = ({"type": "bosonized"} if atoms is None
             else {"type": "tavis-cummings", "atoms": atoms})
    return {"kind": "simulate", "model": model,
            "schedule": {"segments": [{"duration": 1.0}] * segments},
            "parameters": {"experiment": "schedule-run", "initial": initial,
                           "samples_per_segment": samples}}


def test_schedule_run_sector_bound_matches_enumeration(monkeypatch):
    for atoms, initial in ((None, [2, 1, 0]), (None, [0, 0, 5]), (1, [3, 0, 1]),
                           (3, [2, 2, 1]), (4, [1, 0, 2]), (7, [6, 5, 4])):
        modes = gates.ExchangeModel(atoms=atoms).modes()
        dim = hilbert.enumerate_basis(modes, sum(initial)).dim
        monkeypatch.setattr(cli, "MAX_SECTOR_DIM", dim)
        cli.validate_scenario(_schedule_run(initial, 1, atoms=atoms))
        monkeypatch.setattr(cli, "MAX_SECTOR_DIM", dim - 1)
        with pytest.raises(ScenarioError,
                           match=f"dimension {dim}, more than {dim - 1}"):
            cli.validate_scenario(_schedule_run(initial, 1, atoms=atoms))


def test_schedule_run_is_bounded_before_allocation(tmp_path, monkeypatch,
                                                   capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized schedule-run reached the basis")

    monkeypatch.setattr(hilbert, "enumerate_basis", refuse)
    _refuse_compute(monkeypatch, "simulate")
    # No sector has dimension exactly 2048: one atom gives 2 * quanta + 1.
    assert MAX_SECTOR_DIM == 2048
    cli.validate_scenario(_schedule_run([1023, 0, 0], 1, atoms=1))
    with pytest.raises(ScenarioError, match="dimension 2049, more than 2048"):
        cli.validate_scenario(_schedule_run([1024, 0, 0], 1, atoms=1))
    cli.validate_scenario(_schedule_run([1, 0, 0], MAX_GRID_COUNT))
    cli.validate_scenario(_schedule_run([1, 0, 0], MAX_GRID_COUNT // 4,
                                        segments=4))
    for samples, segments in ((MAX_GRID_COUNT + 1, 1), (2501, 4), (10 ** 9, 3)):
        message = (f"makes {samples * segments} samples, "
                   f"more than {MAX_GRID_COUNT}")
        with pytest.raises(ScenarioError, match=message):
            cli.validate_scenario(_schedule_run([1, 0, 0], samples,
                                                segments=segments))
    path = tmp_path / "huge_run.yaml"
    path.write_text(yaml.safe_dump(_schedule_run([200, 200, 0], 10 ** 9)))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert ("parameters.initial spans a sector of dimension 80601, more than "
            "2048") in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_schedule_run_work_is_bounded_before_allocation(tmp_path, monkeypatch,
                                                        capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized schedule-run reached the basis")

    monkeypatch.setattr(hilbert, "enumerate_basis", refuse)
    _refuse_compute(monkeypatch, "simulate")
    # one atom and 500 quanta span dimension 1001; 999 x 1001 rows fit
    assert MAX_TRAJECTORY_ROWS == 10 ** 6
    cli.validate_scenario(_schedule_run([500, 0, 0], 998, atoms=1))
    rows = "makes a trajectory of 1001000 rows, more than 1000000"
    with pytest.raises(ScenarioError, match=rows):
        cli.validate_scenario(_schedule_run([500, 0, 0], 999, atoms=1))
    # dimension 2047: eight segments fit 8 x 2048^3, nine do not
    assert MAX_SCHEDULE_WORK == 8 * MAX_SECTOR_DIM ** 3
    cli.validate_scenario(_schedule_run([1023, 0, 0], 1, atoms=1, segments=8))
    work = f"makes {9 * 2047 ** 3} units of work, more than {MAX_SCHEDULE_WORK}"
    with pytest.raises(ScenarioError, match=work):
        cli.validate_scenario(_schedule_run([1023, 0, 0], 1, atoms=1, segments=9))
    path = tmp_path / "long_run.yaml"
    path.write_text(yaml.safe_dump(_schedule_run([500, 0, 0], 999, atoms=1)))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert rows in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()
    # a sweep point over the bound is refused by its own validation
    sweep = cli.validate_scenario({"kind": "sweep", "parameters": {
        "parameter": "parameters.samples_per_segment", "values": [998, 999],
        "base": _schedule_run([500, 0, 0], 1, atoms=1)}})
    (_, fits), (_, refused) = sweep.parameters["points"]
    assert isinstance(fits, cli.Scenario)
    assert refused.startswith("ScenarioError: ") and refused.endswith(rows)


def test_sweep_schedule_work_is_capped_before_compute(tmp_path, monkeypatch,
                                                     capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized sweep reached the basis")

    monkeypatch.setattr(hilbert, "enumerate_basis", refuse)
    _refuse_compute(monkeypatch, "simulate")
    # each point is eight segments at dimension 2047, under the per-run bound
    one = 8 * 2047 ** 3
    data = {"kind": "sweep", "parameters": {
        "parameter": "parameters.samples_per_segment", "values": [1],
        "base": _schedule_run([1023, 0, 0], 1, atoms=1, segments=8)}}
    assert cli.validate_scenario(data).work == one
    data["parameters"]["values"] = [1, 1]
    message = (f"the sweep points make at least {2 * one} units of schedule "
               f"work in total, more than {MAX_SCHEDULE_WORK}")
    with pytest.raises(ScenarioError, match=message):
        cli.validate_scenario(data)
    path = tmp_path / "long_sweep.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "sweep.csv").exists()


def test_literal_sweep_values_are_capped(tmp_path, monkeypatch, capsys):
    _refuse_compute(monkeypatch, "perturb")
    data = yaml.safe_load((SCENARIOS / "sweep_perturb_width.yaml").read_text())
    data["parameters"]["values"] = [0.0] * (MAX_GRID_COUNT + 1)
    message = (f"parameters.values lists {MAX_GRID_COUNT + 1} values, "
               f"more than {MAX_GRID_COUNT}")
    with pytest.raises(ScenarioError, match=message):
        cli.validate_scenario(data)
    path = tmp_path / "long_sweep.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "perturb_width.csv").exists()


def test_sweep_work_is_capped_before_compute(tmp_path, monkeypatch, capsys):
    # Every point computes its base's whole table, theta grid or trajectory,
    # so the rows or samples are capped summed over the points.
    for kind in ("rates", "five-pulse", "simulate"):
        _refuse_compute(monkeypatch, kind)

    def sweep(name, parameter, values, **grid):
        base = yaml.safe_load((SCENARIOS / name).read_text())
        for key, spec in grid.items():
            base["parameters"][key] = spec
        return {"kind": "sweep", "parameters": {
            "parameter": parameter, "values": values, "base": base}}

    table = {"start": 1e23, "stop": 1e25, "count": 100}
    full = sweep("rates_high_density.yaml", "parameters.omega",
                 [2.4e15] * 100 + [-1.0], density=table)
    # the invalid last point computes nothing and is not counted
    assert cli.validate_scenario(full).rows == MAX_GRID_COUNT
    theta = {"start": 0.0, "stop": 1.0, "count": 5000}
    durations = {"start": 0.0, "stop": 1.0, "count": MAX_GRID_COUNT}
    oversized = [
        (sweep("rates_high_density.yaml", "parameters.omega", [2.4e15] * 101,
               density=table), 10100),
        (sweep("five_pulse.yaml", "parameters.rate", [1.0, 2.0, 3.0],
               theta=theta), 15000),
        (sweep("transmission.yaml", "parameters.rate", [1.0, 2.0],
               durations=durations), 2 * MAX_GRID_COUNT),
        # two segments; the samples per point come from the swept value
        (sweep("schedule_run.yaml", "parameters.samples_per_segment",
               [1, MAX_GRID_COUNT // 2]), 2 + MAX_GRID_COUNT),
    ]
    for data, total in oversized:
        message = (f"compute at least {total} rows or samples in total, "
                   f"more than {MAX_GRID_COUNT}")
        with pytest.raises(ScenarioError, match=message):
            cli.validate_scenario(data)
    path = tmp_path / "wide_sweep.yaml"
    path.write_text(yaml.safe_dump(oversized[0][0]))
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert "compute at least 10100 rows or samples" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_unusable_out_exits_1_before_compute(tmp_path, monkeypatch, capsys):
    _refuse_compute(monkeypatch, "gate")
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    for out in (blocker, blocker / "sub"):
        assert main(["gate", "--scenario", str(SCENARIOS / "gate_three_pulse.yaml"),
                     "--out", str(out)]) == 1
        assert "error: cannot write outputs: " in capsys.readouterr().err
    assert blocker.read_text() == "a file, not a directory\n"


def test_missing_scenario_file_exits_1(tmp_path, capsys):
    code = main(["gate", "--scenario", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "cannot read scenario" in capsys.readouterr().err


def test_non_utf8_scenario_file_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"kind: gate\n\xff\xfe\n")
    assert main(["gate", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read scenario: 'utf-8' codec can't decode")
    assert not (tmp_path / "run.meta.json").exists()


def test_invalid_yaml_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: [unclosed\n")
    code = main(["gate", "--scenario", str(bad), "--out", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_kind_command_mismatch_exits_1(tmp_path, capsys):
    code = main(["simulate", "--scenario",
                 str(SCENARIOS / "gate_three_pulse.yaml"), "--out", str(tmp_path)])
    assert code == 1
    assert "does not match" in capsys.readouterr().err


def test_degenerate_perturbation_exits_2(tmp_path, capsys):
    singular = tmp_path / "singular.yaml"
    singular.write_text(dedent("""
        kind: perturb
        parameters:
          coupling: 0.05
          atoms: 2
          delta_1: 1.0
          delta_2: -1.0
          delta: 1.0
          rule: {selector: none}
    """))
    code = main(["perturb", "--scenario", str(singular), "--out", str(tmp_path)])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


_PERTURB = {"kind": "perturb", "parameters": {
    "coupling": 0.05, "atoms": 3, "delta_1": 1.0, "delta_2": 0.9,
    "rule": {"selector": "none"}}}


def _perturb(**params):
    data = copy.deepcopy(_PERTURB)
    data["parameters"].update(params)
    return data


def _rates(**params):
    data = yaml.safe_load((SCENARIOS / "rates_high_density.yaml").read_text())
    data["parameters"].update(params)
    return data


@pytest.mark.parametrize("data", [
    _perturb(coupling=1.0e100),                       # OverflowError
    _perturb(delta_1=1.0e-300, delta_2=2.0e-300),     # ZeroDivisionError
    _rates(density=1.0e300, omega=1.0e300),           # ValueError: inf rate
], ids=["overflow", "zero-division", "infinite-rate"])
def test_numerical_failures_exit_2(tmp_path, capsys, data):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data))
    with np.errstate(all="ignore"):
        code = main([data["kind"], "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "error: numerical failure: " in capsys.readouterr().err


def test_sweep_point_overflow_is_a_numerical_error_row(tmp_path):
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump({"kind": "sweep", "parameters": {
        "parameter": "parameters.coupling", "values": [0.05, 1.0e100],
        "base": _PERTURB}}))
    with np.errstate(all="ignore"):
        code = main(["sweep", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 0
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [row[2] for row in rows] == ["ok", "numerical-error"]
    [failed] = json.loads((tmp_path / "run.meta.json").read_text())["failed_points"]
    assert failed["index"] == 1 and failed["error"].startswith("OverflowError: ")


def test_perturb_overflow_is_a_numerical_failure_without_warnings(tmp_path, capsys):
    # the fourth order overflows at this coupling before any output exists
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(_perturb(atoms=2, coupling=1.0e77)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["perturb", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert ("error: numerical failure: overflow encountered"
            in capsys.readouterr().err)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_perturb_sweep_overflow_keeps_its_ok_rows(tmp_path):
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump({"kind": "sweep", "parameters": {
        "parameter": "parameters.coupling", "values": [0.05, 1.0e77],
        "base": _perturb(atoms=2)}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sweep", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 0
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [row[2] for row in rows] == ["ok", "numerical-error"]
    [failed] = json.loads((tmp_path / "run.meta.json").read_text())["failed_points"]
    assert failed == {"index": 1, "status": "numerical-error",
                      "error": "FloatingPointError: overflow encountered in the "
                               "fourth order"}
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_zero_reference_detuning_is_a_validation_error(tmp_path, monkeypatch,
                                                       capsys):
    # no delta and delta_1 = -delta_2: the closed forms would divide by zero
    message = "delta_1 + delta_2 must be non-zero when delta is omitted"
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump({"kind": "sweep", "parameters": {
        "parameter": "parameters.delta_2", "values": [0.9, -1.0],
        "base": _perturb(atoms=2)}}))
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [row[2] for row in rows] == ["ok", "validation-error"]
    [failed] = json.loads((tmp_path / "run.meta.json").read_text())["failed_points"]
    assert failed["error"] == f"ScenarioError: {message}"
    _refuse_compute(monkeypatch, "perturb")
    path.write_text(yaml.safe_dump(_perturb(atoms=2, delta_2=-1.0)))
    assert main(["perturb", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_underflowing_fourth_order_is_a_numerical_failure(tmp_path, capsys):
    message = "fourth-order path terms underflow to zero"
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(_perturb(atoms=2, coupling=1.0e-200)))
    assert main(["perturb", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: numerical failure: {message}\n"
    assert not (tmp_path / "perturbation.json").exists()
    path.write_text(yaml.safe_dump({"kind": "sweep", "parameters": {
        "parameter": "parameters.coupling", "values": [0.05, 1.0e-200],
        "base": _perturb(atoms=2)}}))
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [row[2] for row in rows] == ["ok", "numerical-error"]
    [failed] = json.loads((tmp_path / "run.meta.json").read_text())["failed_points"]
    assert failed["error"] == f"FloatingPointError: {message}"


def test_subnormal_path_scale_is_a_numerical_failure(tmp_path, capsys):
    # at coupling 1e-78 the largest path term is ~1.5e-310, below the
    # smallest normal double, and has lost the digits that call the pair
    # coefficient zero; at 1e-77 it is ~1.5e-306
    message = "fourth-order path terms underflow to zero"
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(_perturb(atoms=2, coupling=1.0e-77)))
    assert main(["perturb", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "perturbation.json").read_text())
    assert report["path_scale"] >= sys.float_info.min
    assert report["relative_magnitude"] == 0
    path.write_text(yaml.safe_dump(_perturb(atoms=2, coupling=1.0e-78)))
    assert main(["perturb", "--scenario", str(path), "--out", str(tmp_path / "tiny")]) == 2
    assert capsys.readouterr().err == f"error: numerical failure: {message}\n"
    path.write_text(yaml.safe_dump({"kind": "sweep", "parameters": {
        "parameter": "parameters.coupling", "values": [1.0e-77, 1.0e-78],
        "base": _perturb(atoms=2)}}))
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [row[2] for row in rows] == ["ok", "numerical-error"]
    [failed] = json.loads((tmp_path / "run.meta.json").read_text())["failed_points"]
    assert failed["error"] == f"FloatingPointError: {message}"


_FIVE_PULSE = ("kind: five-pulse\nmodel: {model}\n"
               "parameters: {{theta: 0.5, rate: {rate}}}\n")
_TEXT_HINT = ("; YAML 1.1 reads this as text: write a dot and a signed exponent, "
              "as in 1.0e-3")


@pytest.mark.parametrize("model, rate, refusal", [
    ("{type: bosonized}", "1e-3",
     "parameters.rate must be a number, got '1e-3'" + _TEXT_HINT),
    ("{type: bosonized}", "abc", "parameters.rate must be a number, got 'abc'"),
    ("{type: tavis-cummings, atoms: 1e3}", "1.0",
     "model.atoms must be an integer, got '1e3'" + _TEXT_HINT),
], ids=["number", "not-a-number", "integer"])
def test_exponent_read_as_text_gets_a_hint(tmp_path, monkeypatch, capsys, model,
                                           rate, refusal):
    _refuse_compute(monkeypatch, "five-pulse")
    path = tmp_path / "scenario.yaml"
    path.write_text(_FIVE_PULSE.format(model=model, rate=rate))
    assert main(["five-pulse", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {refusal}\n"
    # the hinted spelling is a number
    fixed = _FIVE_PULSE.format(model="{type: tavis-cummings, atoms: 1.0e+3}",
                               rate="1.0e-3")
    assert parse_scenario(fixed).parameters["rate"] == 1.0e-3


@pytest.mark.parametrize("digits, message", [
    (400, "parameters.rabi must be finite"),
    (5000, "invalid YAML"),     # past Python's integer-string limit
])
def test_integer_beyond_a_double_is_a_validation_error(tmp_path, monkeypatch,
                                                       capsys, digits, message):
    _refuse_compute(monkeypatch, "rates")
    text = (SCENARIOS / "rates_high_density.yaml").read_text()
    path = tmp_path / "huge.yaml"
    path.write_text(text.replace("rabi: 1.0e+11", "rabi: 1" + "0" * (digits - 1)))
    assert main(["rates", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


def test_atom_count_is_bounded_at_validation(tmp_path, monkeypatch, capsys):
    path = tmp_path / "atoms.yaml"
    path.write_text(yaml.safe_dump(_perturb(atoms=MAX_ATOMS)))
    assert main(["perturb", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    _refuse_compute(monkeypatch, "perturb")
    for atoms in (MAX_ATOMS + 1, 2**63):
        path.write_text(yaml.safe_dump(_perturb(atoms=atoms)))
        assert main(["perturb", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 1
        assert f"parameters.atoms must be <= {MAX_ATOMS}" in capsys.readouterr().err


def test_photon_numbers_are_bounded_at_validation(tmp_path, monkeypatch, capsys):
    path = tmp_path / "photons.yaml"
    path.write_text(yaml.safe_dump(_perturb(n_1=MAX_ATOMS, n_2=MAX_ATOMS)))
    assert main(["perturb", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    _refuse_compute(monkeypatch, "perturb")
    for key in ("n_1", "n_2"):
        path.write_text(yaml.safe_dump(_perturb(**{key: 10**19})))
        assert main(["perturb", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 1
        assert (f"error: parameters.{key} must be <= {MAX_ATOMS}, got {10**19}"
                in capsys.readouterr().err)


def _tavis_cummings(kind, atoms):
    model = {"type": "tavis-cummings", "atoms": atoms}
    if kind == "gate":
        return {"kind": kind, "model": model, "schedule": {"preset": "three-pulse"}}
    return {"kind": kind, "model": model, "parameters": {"theta": 0.5}}


@pytest.mark.parametrize("kind", ["gate", "five-pulse"])
def test_model_atom_count_is_bounded_at_validation(tmp_path, monkeypatch,
                                                   capsys, kind):
    path = tmp_path / "atoms.yaml"
    path.write_text(yaml.safe_dump(_tavis_cummings(kind, MAX_ATOMS)))
    assert main([kind, "--scenario", str(path), "--out", str(tmp_path)]) == 0
    _refuse_compute(monkeypatch, kind)
    for atoms in (MAX_ATOMS + 1, 10**400):
        path.write_text(yaml.safe_dump(_tavis_cummings(kind, atoms)))
        assert main([kind, "--scenario", str(path), "--out", str(tmp_path)]) == 1
        assert (f"error: model.atoms must be <= {MAX_ATOMS}, got {atoms}"
                in capsys.readouterr().err)


def test_gate_sweep_over_too_many_atoms_has_a_validation_error_row(tmp_path):
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump({"kind": "sweep", "parameters": {
        "parameter": "model.atoms", "values": [2, 10**400],
        "base": _tavis_cummings("gate", 2)}}))
    assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [row[2] for row in rows] == ["ok", "validation-error"]
    [failed] = json.loads((tmp_path / "run.meta.json").read_text())["failed_points"]
    assert failed["error"].startswith(
        f"ScenarioError: model.atoms must be <= {MAX_ATOMS}, got 1000")


# ---------------------------------------------------------------------------
# YAML loading and the command-line parser
# ---------------------------------------------------------------------------

_LOADERS = [
    pytest.param(yaml.SafeLoader, id="SafeLoader"),
    pytest.param(getattr(yaml, "CSafeLoader", None), id="CSafeLoader",
                 marks=pytest.mark.skipif(not yaml.__with_libyaml__,
                                          reason="PyYAML built without libyaml")),
]


def _nested(depth, style):
    """A document of ``depth`` nested sequences: ``[[…]]`` or ``- - … x``."""
    return "[" * depth + "]" * depth if style == "flow" else "- " * depth + "x"


@pytest.mark.parametrize("style", ["flow", "block"])
@pytest.mark.parametrize("loader", _LOADERS)
def test_nesting_is_bounded_before_composing(tmp_path, monkeypatch, capsys,
                                             loader, style):
    monkeypatch.setattr(cli, "_LOADER", loader)
    # at the bound the document is composed, and fails for being a list
    with pytest.raises(ScenarioError, match="scenario must be a mapping"):
        parse_scenario(_nested(MAX_NESTING, style))
    path = tmp_path / "deep.yaml"
    for depth in (MAX_NESTING + 1, 600):
        path.write_text(_nested(depth, style))
        assert main(["gate", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        assert (f"error: invalid YAML: mappings and sequences nest more than "
                f"{MAX_NESTING} deep") in capsys.readouterr().err


_DEEP_RUN = """
import sys, yaml
from exchangelab import cli
cli._LOADER = getattr(yaml, sys.argv[1])
sys.exit(cli.main(["gate", "--scenario", sys.argv[2], "--out", sys.argv[3]]))
"""


@pytest.mark.parametrize("style", ["flow", "block"])
@pytest.mark.parametrize("loader", _LOADERS)
def test_very_deep_document_exits_1_without_a_crash(tmp_path, loader, style):
    # in a child process: composing this depth in C would end it by SIGSEGV
    path = tmp_path / "deep.yaml"
    path.write_text(_nested(200_000, style))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]),
                      env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _DEEP_RUN, loader.__name__, str(path),
         str(tmp_path)], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr[-2000:]
    assert done.stderr == (f"error: invalid YAML: mappings and sequences nest "
                           f"more than {MAX_NESTING} deep\n")


_MALFORMED = {
    "unclosed": "kind: [unclosed\n",
    "tab-indent": "kind: gate\nparameters:\n\t- 1\n",
    "two-documents": "kind: gate\n---\nkind: gate\n",
    "undefined-alias": "kind: *nope\n",
    "python-tag": "kind: !!python/object/apply:os.getcwd []\n",
    "control-character": "kind: gate\x07\n",
    "integer-past-the-string-limit": "kind: rates\nx: 1" + "0" * 5000 + "\n",
}

_DECODED = {
    "merge-key": "base: &b {kind: gate}\n<<: *b\n",
    "infinity": "kind: perturb\nparameters: {coupling: .inf, atoms: 2, "
                "delta_1: 1.0, delta_2: 0.9, rule: {selector: none}}\n",
    "hex-and-octal": "kind: perturb\nparameters: {coupling: 0.05, atoms: 0x10, "
                     "delta_1: 0o7, delta_2: 0.9, rule: {selector: none}}\n",
}


def _outcome(text):
    """The parsed scenario, or the error; YAML errors are compared by kind
    only, since libyaml words its messages differently."""
    try:
        return parse_scenario(text)
    except ScenarioError as exc:
        return "invalid YAML" if str(exc).startswith("invalid YAML: ") else str(exc)


@pytest.mark.parametrize("loader", _LOADERS)
def test_loaders_decode_documents_alike(monkeypatch, loader):
    monkeypatch.setattr(cli, "_LOADER", loader)
    texts = {path.name: path.read_text() for path in SCENARIOS.glob("*.yaml")}
    for name, text in {**texts, **_DECODED}.items():
        # the reference: PyYAML's pure-Python safe_load, then validation
        try:
            expected = cli.validate_scenario(yaml.safe_load(text))
        except ScenarioError as exc:
            expected = str(exc)
        assert _outcome(text) == expected, name
    for name, text in _MALFORMED.items():
        assert _outcome(text) == "invalid YAML", name


def test_parser_is_built_once(tmp_path, monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _refuse_compute(monkeypatch, "perturb")
    cli._parser.cache_clear()
    try:
        assert main(["gate", "--scenario", str(SCENARIOS / "gate_three_pulse.yaml"),
                     "--out", str(tmp_path)]) == 0
        after_first = len(built)
        assert main(["sweep", "--scenario",
                     str(SCENARIOS / "sweep_perturb_width.yaml"),
                     "--out", str(tmp_path), "--parallel", "65"]) == 1
        assert "--parallel must lie in 1..64" in capsys.readouterr().err
        with pytest.raises(SystemExit) as unknown:
            main(["nope", "--scenario", "x.yaml"])
        assert unknown.value.code == 2
        with pytest.raises(SystemExit) as shown:
            main(["--help"])
        assert shown.value.code == 0
        assert len(built) == after_first
        assert built.count("exchangelab") == 1
        # the cached parser prints the help a freshly built one prints
        cached_help = capsys.readouterr().out
        cli._parser.cache_clear()
        assert cached_help == cli._parser().format_help()
        assert all(kind in cached_help for kind in cli.KINDS)
    finally:
        cli._parser.cache_clear()
