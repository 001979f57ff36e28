"""Scenario-driven command-line front end.

A scenario is a single YAML document with a ``kind`` selecting the
experiment (simulate, gate, five-pulse, perturb, rates, sweep) and
kind-specific blocks.  Validation is strict: unknown keys are rejected
with a nearest-key suggestion, every numeric field is checked before
any computation runs, and a document whose mappings and sequences nest
more than ``MAX_NESTING`` deep is refused before it is composed.

Reports are written with deterministic formatting (sorted JSON keys,
17-significant-digit floats), so repeated runs produce byte-identical
payload files; the wall-clock timestamp lives in a ``run.meta.json``
sidecar instead.

Exit codes: 0 success, 1 validation error, 2 numerical failure
(degenerate perturbation denominator, a result outside the range of a
double).

Importing this module loads no compute module and no numpy.  Each kind
imports what it computes with the first time it is parsed or run:
``simulate``, ``gate`` and ``five-pulse`` load ``gates`` or ``dynamics``
(with ``hilbert`` and numpy), ``perturb`` loads only ``perturbation``
and ``rates`` only ``estimates``, so cold ``perturb`` and ``rates`` runs
never import numpy.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

import yaml

from .serialize import write_csv, write_json

if TYPE_CHECKING:
    from .dynamics import PulseSegment
    from .gates import ExchangeModel

__all__ = ["ScenarioError", "Scenario", "parse_scenario", "run_scenario", "main"]

#: Largest number of points of a grid or literal value list, of rows of a
#: ``rates`` table, of samples of a ``schedule-run`` trajectory, and of such
#: rows or samples summed over the points of a sweep.
MAX_GRID_COUNT = 10_000

#: Largest ``--parallel`` value of a sweep.  The flag is accepted for
#: compatibility only: sweep points run in order on the calling thread.
MAX_PARALLEL = 64

#: Largest sector dimension of a ``schedule-run`` model.
MAX_SECTOR_DIM = 2048

#: Largest number of trajectory CSV rows of a ``schedule-run``: one per
#: basis state at each sample, the initial one included.
MAX_TRAJECTORY_ROWS = 10**6

#: Largest schedule work, segments x dimension cubed (one factorisation
#: per segment): eight factorisations at the largest dimension, about a
#: minute.
MAX_SCHEDULE_WORK = 8 * MAX_SECTOR_DIM ** 3

#: Largest ``model.atoms`` of a dynamics scenario and ``parameters.atoms``
#: of a ``perturb`` one: far above paper-scale clouds and below 2^53, so
#: that the closed forms of ``perturbation`` take it as an exact double.
#: It also caps a ``perturb`` scenario's photon numbers ``parameters.n_1``
#: and ``n_2``.
MAX_ATOMS = 10**15

#: What computing a validated scenario may raise on awkward numbers: a
#: degenerate denominator (``perturbation.SingularityError``), or an
#: overflow, underflow or division that leaves the range of a double.
_NUMERICAL_ERRORS = (ValueError, ArithmeticError)

#: Deepest nesting of mappings and sequences in a scenario document.  The
#: deepest valid document, a sweep over a ``schedule-run`` base, nests 8
#: deep; libyaml composes by C recursion, which tens of thousands of
#: levels crash.
MAX_NESTING = 32

#: PyYAML's libyaml loader, or its pure-Python one where PyYAML was built
#: without libyaml.  Both share the Python constructor and resolver, so a
#: document decodes to the same values either way.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_META = "run.meta.json"


class ScenarioError(ValueError):
    """A scenario failed parsing or validation."""


def _fail(message: str) -> None:
    raise ScenarioError(message)


def _hint(word: str, choices: Sequence[str]) -> str:
    """A nearest-choice suggestion for an error message, or ''."""
    import difflib

    hints = difflib.get_close_matches(word, choices, n=1)
    return f"; did you mean {hints[0]!r}?" if hints else ""


def _check_keys(mapping: dict, allowed: Sequence[str], context: str) -> None:
    for key in mapping:
        if key not in allowed:
            _fail(f"unknown key {key!r} in {context}{_hint(str(key), allowed)}")


def _require_mapping(value, context: str) -> dict:
    if not isinstance(value, dict):
        _fail(f"{context} must be a mapping, got {type(value).__name__}")
    return value


def _text_hint(value) -> str:
    """A hint for text with an exponent that ``float()`` reads, else ''."""
    if isinstance(value, str) and "e" in value.lower():
        try:
            float(value)
        except ValueError:
            return ""
        return ("; YAML 1.1 reads this as text: write a dot and a signed "
                "exponent, as in 1.0e-3")
    return ""


def _number(value, context: str, *, minimum=None, strict_min=None,
            allow_zero=True) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{context} must be a number, got {value!r}{_text_hint(value)}")
    try:
        value = float(value)
    except OverflowError:
        _fail(f"{context} must be finite, got an integer too large for a float")
    if not math.isfinite(value):
        _fail(f"{context} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(f"{context} must be >= {minimum}, got {value!r}")
    if strict_min is not None and value <= strict_min:
        _fail(f"{context} must be > {strict_min}, got {value!r}")
    if not allow_zero and value == 0.0:
        _fail(f"{context} must be non-zero")
    return value


def _integer(value, context: str, *, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and float(value).is_integer():
            value = int(value)
        else:
            _fail(f"{context} must be an integer, got {value!r}{_text_hint(value)}")
    if minimum is not None and value < minimum:
        _fail(f"{context} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        _fail(f"{context} must be <= {maximum}, got {value!r}")
    return int(value)


def _check_length(values: list, context: str) -> None:
    if len(values) > MAX_GRID_COUNT:
        _fail(f"{context} lists {len(values)} values, more than "
              f"{MAX_GRID_COUNT}")


def _linspace(start: float, stop: float, count: int) -> List[float]:
    """``count`` evenly spaced floats from ``start`` to ``stop``: the floats
    of ``np.linspace(start, stop, count)``, by the same arithmetic."""
    delta = stop - start
    div = count - 1
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:   # delta is zero, or so small that delta / div underflows
        return [i / div * delta + start for i in range(div)] + [stop]
    return [i * step + start for i in range(div)] + [stop]


def _value_list(spec, context: str, *, minimum=None) -> List[float]:
    """A list of numbers, given either literally or as start/stop/count."""
    if isinstance(spec, list):
        if not spec:
            _fail(f"{context} must not be empty")
        _check_length(spec, context)
        return [_number(v, f"{context}[{i}]", minimum=minimum)
                for i, v in enumerate(spec)]
    if not isinstance(spec, dict):
        _fail(f"{context} must be a number, a list of numbers, or a "
              f"start/stop/count grid, got {spec!r}")
    grid = _require_mapping(spec, context)
    _check_keys(grid, ("start", "stop", "count"), context)
    for key in ("start", "stop", "count"):
        if key not in grid:
            _fail(f"{context} grid requires key {key!r}")
    start = _number(grid["start"], f"{context}.start", minimum=minimum)
    stop = _number(grid["stop"], f"{context}.stop", minimum=minimum)
    count = _integer(grid["count"], f"{context}.count", minimum=1,
                     maximum=MAX_GRID_COUNT)
    if not math.isfinite(stop - start):
        _fail(f"{context} grid spans {start!r} to {stop!r}, a range beyond "
              f"a double")
    return _linspace(start, stop, count)


def _scalar_or_values(spec, context: str, *, minimum=None) -> List[float]:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return [_number(spec, context, minimum=minimum)]
    return _value_list(spec, context, minimum=minimum)


@dataclass
class Scenario:
    """A validated scenario ready to run."""

    kind: str
    model: Optional[ExchangeModel] = None
    schedule: Optional[List[PulseSegment]] = None
    preset: Optional[str] = None
    parameters: dict = field(default_factory=dict)
    output: Dict[str, str] = field(default_factory=dict)
    rows: int = 1   # table rows or trajectory samples one run computes
    work: int = 0   # schedule-run segments x sector dimension cubed


def _parse_model(data: dict) -> ExchangeModel:
    from . import gates

    spec = data.get("model", {"type": "bosonized"})
    spec = _require_mapping(spec, "model")
    _check_keys(spec, ("type", "atoms"), "model")
    kind = spec.get("type")
    if kind == "bosonized":
        if "atoms" in spec:
            _fail("model.atoms is only valid for type tavis-cummings")
        return gates.ExchangeModel(atoms=None)
    if kind == "tavis-cummings":
        if "atoms" not in spec:
            _fail("model type tavis-cummings requires atoms")
        return gates.ExchangeModel(atoms=_integer(spec["atoms"], "model.atoms",
                                                  minimum=1, maximum=MAX_ATOMS))
    _fail(f"model.type must be bosonized or tavis-cummings, got {kind!r}")


def _parse_segment(spec, index: int, labels: Sequence[str]) -> PulseSegment:
    from .dynamics import PulseSegment

    context = f"schedule.segments[{index}]"
    spec = _require_mapping(spec, context)
    _check_keys(spec, ("duration", "coupling", "detunings", "widths"), context)
    if "duration" not in spec:
        _fail(f"{context} requires duration")
    duration = _number(spec["duration"], f"{context}.duration", minimum=0.0)
    coupling = None
    if "coupling" in spec:
        cspec = _require_mapping(spec["coupling"], f"{context}.coupling")
        _check_keys(cspec, ("modes", "rate"), f"{context}.coupling")
        modes = cspec.get("modes")
        if (not isinstance(modes, list) or len(modes) != 2
                or modes[0] == modes[1]):
            _fail(f"{context}.coupling.modes must list two distinct modes")
        for label in modes:
            if label not in labels:
                _fail(f"{context}.coupling references unknown mode {label!r}")
        rate = _number(cspec.get("rate"), f"{context}.coupling.rate")
        coupling = (modes[0], modes[1], rate)

    def diagonal(key: str, minimum) -> dict:
        out = {}
        if key in spec:
            block = _require_mapping(spec[key], f"{context}.{key}")
            _check_keys(block, labels, f"{context}.{key}")
            for label, value in block.items():
                out[label] = _number(value, f"{context}.{key}.{label}",
                                     minimum=minimum)
        return out

    return PulseSegment(duration=duration, coupling=coupling,
                        detunings=diagonal("detunings", None),
                        widths=diagonal("widths", 0.0))


def _parse_schedule(data: dict, model: ExchangeModel,
                    ) -> Tuple[List[PulseSegment], Optional[str]]:
    from . import gates

    spec = data.get("schedule")
    if spec is None:
        _fail("this scenario kind requires a schedule")
    spec = _require_mapping(spec, "schedule")
    labels = tuple(mode.label for mode in model.modes())
    if "preset" in spec:
        _check_keys(spec, ("preset", "rate"), "schedule")
        if spec["preset"] != "three-pulse":
            _fail(f"unknown schedule preset {spec['preset']!r}")
        rate = _number(spec.get("rate", 1.0), "schedule.rate", strict_min=0.0)
        return gates.three_pulse_schedule(model, rate), "three-pulse"
    _check_keys(spec, ("segments",), "schedule")
    segments = spec.get("segments")
    if not isinstance(segments, list) or not segments:
        _fail("schedule.segments must be a non-empty list")
    return [_parse_segment(seg, i, labels) for i, seg in enumerate(segments)], None


def _parse_output(data: dict, defaults: Dict[str, str]) -> Dict[str, str]:
    """Output file names: plain, distinct names inside ``--out``."""
    spec = _require_mapping(data.get("output", {}), "output")
    _check_keys(spec, tuple(defaults), "output")
    for key, value in spec.items():
        if (not isinstance(value, str) or value in ("", "..", _META)
                or "\0" in value or Path(value).name != value):
            _fail(f"output.{key} must be a plain file name relative to --out, "
                  f"without a directory part and other than {_META}, "
                  f"got {value!r}")
    out = {**defaults, **spec}
    if len(set(out.values())) < len(out):
        _fail(f"output file names must be distinct, got {out}")
    return out


def _parse_simulate(data: dict, scenario: Scenario) -> None:
    params = _require_mapping(data.get("parameters"), "parameters")
    experiment = params.get("experiment")
    if experiment == "transmission":
        _check_keys(params, ("experiment", "rate", "durations"), "parameters")
        for unused in ("model", "schedule"):
            if unused in data:
                _fail(f"{unused} is not used by the transmission experiment")
        if "durations" not in params:
            _fail("parameters.durations is required for transmission")
        scenario.parameters = {
            "experiment": experiment,
            "rate": _number(params.get("rate", 1.0), "parameters.rate",
                            strict_min=0.0),
            "durations": _value_list(params["durations"],
                                     "parameters.durations", minimum=0.0),
        }
        scenario.rows = len(scenario.parameters["durations"])
        return
    if experiment == "schedule-run":
        _check_keys(params, ("experiment", "initial", "samples_per_segment"),
                    "parameters")
        scenario.model = _parse_model(data)
        scenario.schedule, scenario.preset = _parse_schedule(data, scenario.model)
        initial = params.get("initial")
        labels = [mode.label for mode in scenario.model.modes()]
        if not isinstance(initial, list) or len(initial) != len(labels):
            _fail(f"parameters.initial must list {len(labels)} occupations "
                  f"(modes {', '.join(labels)})")
        occ = tuple(_integer(v, f"parameters.initial[{i}]", minimum=0)
                    for i, v in enumerate(initial))
        total = sum(occ)
        cap = scenario.model.modes()[2].max_occupation(total)
        if occ[2] > cap:
            _fail(f"parameters.initial[2] exceeds the collective capacity {cap}")
        # (n1, n2, k) with n1 + n2 + k = total and k <= cap
        dim = (cap + 1) * (total + 1) - cap * (cap + 1) // 2
        if dim > MAX_SECTOR_DIM:
            _fail(f"parameters.initial spans a sector of dimension {dim}, "
                  f"more than {MAX_SECTOR_DIM}")
        samples = _integer(params.get("samples_per_segment", 32),
                           "parameters.samples_per_segment", minimum=1)
        count = len(scenario.schedule) * samples
        if count > MAX_GRID_COUNT:
            _fail(f"schedule segments x parameters.samples_per_segment makes "
                  f"{count} samples, more than {MAX_GRID_COUNT}")
        rows = (count + 1) * dim
        if rows > MAX_TRAJECTORY_ROWS:
            _fail(f"(samples + 1) x sector dimension {dim} makes a trajectory of "
                  f"{rows} rows, more than {MAX_TRAJECTORY_ROWS}")
        work = len(scenario.schedule) * dim ** 3
        if work > MAX_SCHEDULE_WORK:
            _fail(f"schedule segments x sector dimension {dim} cubed makes "
                  f"{work} units of work, more than {MAX_SCHEDULE_WORK}")
        scenario.parameters = {"experiment": experiment, "initial": occ,
                               "samples_per_segment": samples}
        scenario.rows = count
        scenario.work = work
        return
    _fail("parameters.experiment must be transmission or schedule-run, "
          f"got {experiment!r}")


def _parse_gate(data: dict, scenario: Scenario) -> None:
    scenario.model = _parse_model(data)
    scenario.schedule, scenario.preset = _parse_schedule(data, scenario.model)
    params = data.get("parameters", {})
    params = _require_mapping(params, "parameters")
    _check_keys(params, ("tolerance",), "parameters")
    scenario.parameters = {
        "tolerance": _number(params.get("tolerance", 1e-8),
                             "parameters.tolerance", strict_min=0.0),
    }


def _parse_five_pulse(data: dict, scenario: Scenario) -> None:
    scenario.model = _parse_model(data)
    params = _require_mapping(data.get("parameters"), "parameters")
    _check_keys(params, ("theta", "rate"), "parameters")
    if "theta" not in params:
        _fail("parameters.theta is required")
    scenario.parameters = {
        "theta": _scalar_or_values(params["theta"], "parameters.theta",
                                   minimum=0.0),
        "rate": _number(params.get("rate", 1.0), "parameters.rate",
                        strict_min=0.0),
    }
    scenario.rows = len(scenario.parameters["theta"])


def _parse_perturb(data: dict, scenario: Scenario) -> None:
    from . import perturbation

    params = _require_mapping(data.get("parameters"), "parameters")
    allowed = ("coupling", "atoms", "delta_1", "delta_2", "delta", "width",
               "raman_factor", "n_1", "n_2", "rule")
    _check_keys(params, allowed, "parameters")
    for key in ("coupling", "atoms", "delta_1", "delta_2", "rule"):
        if key not in params:
            _fail(f"parameters.{key} is required")
    rule_spec = _require_mapping(params["rule"], "parameters.rule")
    _check_keys(rule_spec, ("selector", "width"), "parameters.rule")
    selector = rule_spec.get("selector")
    if selector not in perturbation.WIDTH_SELECTORS:
        known = ", ".join(perturbation.WIDTH_SELECTORS)
        _fail(f"parameters.rule.selector must be one of {known}, got {selector!r}")
    kwargs = {
        "coupling": _number(params["coupling"], "parameters.coupling",
                            allow_zero=False),
        "atoms": _integer(params["atoms"], "parameters.atoms", minimum=2,
                          maximum=MAX_ATOMS),
        "delta_1": _number(params["delta_1"], "parameters.delta_1",
                           allow_zero=False),
        "delta_2": _number(params["delta_2"], "parameters.delta_2",
                           allow_zero=False),
    }
    if "delta" in params:
        kwargs["delta"] = _number(params["delta"], "parameters.delta",
                                  allow_zero=False)
    if "width" in params:
        kwargs["width"] = _number(params["width"], "parameters.width",
                                  minimum=0.0)
    if "raman_factor" in params:
        kwargs["raman_factor"] = _number(params["raman_factor"],
                                         "parameters.raman_factor",
                                         strict_min=0.0)
    for key in ("n_1", "n_2"):
        if key in params:
            kwargs[key] = _integer(params[key], f"parameters.{key}", minimum=1,
                                   maximum=MAX_ATOMS)
    if kwargs["delta_1"] == kwargs["delta_2"]:
        _fail("parameters.delta_1 and delta_2 must differ")
    try:
        model_params = perturbation.CollisionModelParams(**kwargs)
        rule = perturbation.WidthRule(
            selector, _number(rule_spec.get("width", 0.0),
                              "parameters.rule.width", minimum=0.0))
    except ValueError as exc:
        _fail(str(exc))
    scenario.parameters = {"params": model_params, "rule": rule}


def _parse_rates(data: dict, scenario: Scenario) -> None:
    params = _require_mapping(data.get("parameters"), "parameters")
    allowed = ("density", "omega", "dipole", "detuning", "rabi", "gamma",
               "wavenumber", "t2")
    _check_keys(params, allowed, "parameters")
    for key in allowed:
        if key not in params:
            _fail(f"parameters.{key} is required")
    parsed = {}
    for key in allowed:
        context = f"parameters.{key}"
        if key in ("density", "wavenumber"):
            values = _scalar_or_values(params[key], context, minimum=0.0)
            if any(v <= 0 for v in values):
                _fail(f"{context} values must be positive")
            parsed[key] = values
        else:
            parsed[key] = _number(params[key], context, strict_min=0.0)
    rows = len(parsed["density"]) * len(parsed["wavenumber"])
    if rows > MAX_GRID_COUNT:
        _fail(f"parameters.density x parameters.wavenumber makes a table of "
              f"{rows} rows, more than {MAX_GRID_COUNT}")
    scenario.parameters = parsed
    scenario.rows = rows


def _parse_sweep(data: dict, scenario: Scenario) -> None:
    params = _require_mapping(data.get("parameters"), "parameters")
    _check_keys(params, ("parameter", "values", "base"), "parameters")
    for key in ("parameter", "values", "base"):
        if key not in params:
            _fail(f"parameters.{key} is required")
    path = params["parameter"]
    if not isinstance(path, str) or not path:
        _fail("parameters.parameter must be a dotted key path")
    base = _require_mapping(params["base"], "parameters.base")
    if base.get("kind") == "sweep":
        _fail("sweep scenarios cannot nest")
    validate_scenario(base)  # fail fast on an invalid base
    cursor = base
    keys = path.split(".")
    for key in keys[:-1]:
        cursor = cursor.get(key)
        if not isinstance(cursor, dict):
            _fail(f"parameters.parameter {path!r} does not resolve at {key!r}")
    if keys[-1] not in cursor:
        _fail(f"parameters.parameter {path!r} does not resolve: "
              f"missing {keys[-1]!r}")
    values = params["values"]
    if isinstance(values, list):
        if not values:
            _fail("parameters.values must not be empty")
        _check_length(values, "parameters.values")
        points = list(values)
    else:
        points = _value_list(values, "parameters.values")
    # Each point is validated once, here: the run walks these points.  A
    # point computes its whole base (every table row, theta or sample, and
    # every factorisation of a schedule-run), so the rows and the schedule
    # work are bounded summed over the points.
    validated = []
    total = work = 0
    for value in points:
        try:
            point = validate_scenario(_point_data(base, keys, value))
        except ScenarioError as exc:
            validated.append((value, f"{type(exc).__name__}: {exc}"))
            continue    # reported as a validation-error row when run
        validated.append((value, point))
        total += point.rows
        work += point.work
        if total > MAX_GRID_COUNT:
            _fail(f"the sweep points compute at least {total} rows or "
                  f"samples in total, more than {MAX_GRID_COUNT}")
        if work > MAX_SCHEDULE_WORK:
            _fail(f"the sweep points make at least {work} units of schedule "
                  f"work in total, more than {MAX_SCHEDULE_WORK}")
    scenario.parameters = {"parameter": keys, "base": base, "points": validated}
    scenario.rows = total
    scenario.work = work


def validate_scenario(data: dict) -> Scenario:
    """Validate an already-decoded scenario document."""
    data = _require_mapping(data, "scenario")
    kind = data.get("kind")
    if kind not in _KINDS:
        _fail(f"kind must be one of {', '.join(KINDS)}, got {kind!r}"
              f"{_hint(str(kind), KINDS)}")
    entry = _KINDS[kind]
    _check_keys(data, ("kind", *entry.sections, "output"), "scenario")
    scenario = Scenario(kind=kind)
    entry.parse(data, scenario)
    scenario.output = _parse_output(data, entry.outputs)
    return scenario


def _check_nesting(text: str) -> None:
    """Refuse a document nested deeper than ``MAX_NESTING``, walking its
    parse events without recursion."""
    depth = 0
    for event in yaml.parse(text, Loader=_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_NESTING:
                raise yaml.YAMLError(f"mappings and sequences nest more than "
                                     f"{MAX_NESTING} deep")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a YAML scenario document."""
    try:
        _check_nesting(text)
        data = yaml.load(text, Loader=_LOADER)
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: an integer literal past Python's integer-string limit
        raise ScenarioError(f"invalid YAML: {exc}") from exc
    return validate_scenario(data)


# --------------------------------------------------------------------------
# Runners: each kind has a pure compute step (shared with sweeps) and an
# emit step that writes the artifacts.  A compute result holds the kind's
# sweep columns under their column names.  Each step imports the compute
# module it uses (see the module docstring).

def _compute_simulate(scenario: Scenario) -> dict:
    from . import dynamics
    from .hilbert import enumerate_basis

    params = scenario.parameters
    if params["experiment"] == "transmission":
        scan = dynamics.transmission_scan(params["rate"], params["durations"])
        survivals = [s for _, s in scan]
        return {"scan": scan, "survival_min": min(survivals),
                "survival_max": max(survivals)}
    basis = enumerate_basis(scenario.model.modes(), sum(params["initial"]))
    trajectory = dynamics.run_schedule(
        scenario.schedule, basis, params["initial"],
        samples_per_segment=params["samples_per_segment"])
    return {"trajectory": trajectory,
            "final_norm": float(trajectory.norms[-1])}


def _emit_simulate(result: dict, scenario: Scenario, out_dir: Path) -> List[Path]:
    if "scan" in result:
        path = out_dir / scenario.output["scan"]
        write_csv(path, ["duration", "survival"],
                  [[t, p] for t, p in result["scan"]])
        return [path]
    path = out_dir / scenario.output["trajectory"]
    result["trajectory"].to_csv(path)
    return [path]


def _compute_gate(scenario: Scenario) -> dict:
    import numpy as np

    from . import gates

    report = gates.extract_gate(scenario.schedule, gates.LogicalEncoding(),
                                scenario.model,
                                tol=scenario.parameters["tolerance"])
    deviation = float(np.max(np.abs(report.matrix - gates.THREE_PULSE_TARGET)))
    return {"report": report, "deviation": deviation,
            "entangling": report.entangling,
            "max_leakage": float(np.max(report.leakage)),
            "unitarity_defect": report.unitarity_defect}


def _emit_gate(result: dict, scenario: Scenario, out_dir: Path) -> List[Path]:
    payload = result["report"].to_payload()
    if scenario.preset == "three-pulse":
        payload["three_pulse_deviation"] = result["deviation"]
    path = out_dir / scenario.output["report"]
    write_json(path, payload)
    return [path]


def _compute_five_pulse(scenario: Scenario) -> dict:
    from . import gates

    params = scenario.parameters
    rows = []
    for theta in params["theta"]:
        leak = gates.five_pulse_leakage(scenario.model, theta, params["rate"])
        rows.append([theta, leak.p_two_photon, leak.p_two_excitation,
                     leak.p_return])
    couplings = gates.stimulated_couplings(scenario.model, params["rate"])
    _, p_two_photon, p_two_excitation, p_return = rows[0]
    return {"rows": rows, "couplings": couplings, "p_two_photon": p_two_photon,
            "p_two_excitation": p_two_excitation, "p_return": p_return}


def _emit_five_pulse(result: dict, scenario: Scenario,
                     out_dir: Path) -> List[Path]:
    table = out_dir / scenario.output["table"]
    write_csv(table, ["theta", "p_two_photon", "p_two_excitation", "p_return"],
              result["rows"])
    couplings = result["couplings"]
    ratio = (couplings.emission / couplings.absorption
             if couplings.absorption > 0 else None)
    report = out_dir / scenario.output["report"]
    write_json(report, {
        "schema_version": 1,
        "kind": "five_pulse_report",
        "emission_coupling": couplings.emission,
        "absorption_coupling": couplings.absorption,
        "emission_absorption_ratio": ratio,
    })
    return [table, report]


def _compute_perturb(scenario: Scenario) -> dict:
    from . import perturbation

    params = scenario.parameters["params"]
    rule = scenario.parameters["rule"]
    # the Franson form first: a coupling whose M^4 leaves the range of a
    # double fails here, as an OverflowError, before the fourth order does
    d_e, d_e_prime = perturbation.franson_formula(params)
    fit = perturbation.cross_fit(params, rule)
    result = perturbation.fourth_order(params, rule)
    return {"fit": fit, "orders": result.orders,
            "diagnostics": result.diagnostics,
            "franson": (d_e, d_e_prime),
            "cross_re": fit.value.real, "cross_im": fit.value.imag,
            "cross_abs": abs(fit.value), "path_scale": fit.path_scale}


def _emit_perturb(result: dict, scenario: Scenario, out_dir: Path) -> List[Path]:
    fit = result["fit"]
    d_e, d_e_prime = result["franson"]
    payload = {
        "schema_version": 1,
        "kind": "perturbation_report",
        "cross_coefficient": fit.value,
        "total_coefficient": fit.total_value,
        "single_atom_coefficient": fit.single_atom_value,
        "fit_residual": fit.fit_residual,
        "path_scale": fit.path_scale,
        "relative_magnitude": abs(fit.value) / fit.path_scale,
        "orders": {str(k): v for k, v in result["orders"].items()},
        "diagnostics": result["diagnostics"],
        "franson_delta_e": d_e,
        "franson_delta_e_prime": d_e_prime,
    }
    path = out_dir / scenario.output["report"]
    write_json(path, payload)
    return [path]


def _compute_rates(scenario: Scenario) -> dict:
    from . import estimates

    params = scenario.parameters
    rows = []
    reports = []
    for density in params["density"]:
        for wavenumber in params["wavenumber"]:
            medium = estimates.MediumParams(
                density=density, omega=params["omega"], dipole=params["dipole"],
                detuning=params["detuning"], rabi=params["rabi"],
                gamma=params["gamma"], wavenumber=wavenumber, t2=params["t2"])
            coop = estimates.cooperative_raman_rate(medium)
            report = estimates.regime_classify(
                density, wavenumber, params["gamma"], params["t2"], coop)
            reports.append(report)
            rows.append([density, wavenumber, report.regime,
                         report.dominant_rate, report.cooperative_rate,
                         report.cooperation_wins])
    first = reports[0]
    return {"rows": rows, "reports": reports, "regime": first.regime,
            "cooperative_rate": first.cooperative_rate,
            "dominant_rate": first.dominant_rate,
            "cooperation_wins": first.cooperation_wins}


def _emit_rates(result: dict, scenario: Scenario, out_dir: Path) -> List[Path]:
    table = out_dir / scenario.output["table"]
    write_csv(table, ["density", "wavenumber", "regime", "dominant_rate",
                      "cooperative_rate", "cooperation_wins"], result["rows"])
    written = [table]
    if len(result["reports"]) == 1:
        report = out_dir / scenario.output["report"]
        write_json(report, result["reports"][0].to_payload())
        written.append(report)
    return written


class _Kind(NamedTuple):
    """Everything the CLI knows about one scenario kind."""

    sections: Tuple[str, ...]           # top-level keys besides kind, output
    outputs: Dict[str, str]             # output key -> default file name
    parse: Callable[[dict, Scenario], None]
    compute: Optional[Callable[[Scenario], dict]]   # None: run as a sweep
    emit: Optional[Callable[[dict, Scenario, Path], List[Path]]]
    columns: Tuple[str, ...]            # sweep summary columns


_DYNAMICS = ("model", "schedule", "parameters")

_KINDS: Dict[str, _Kind] = {
    "simulate": _Kind(
        _DYNAMICS, {"scan": "transmission.csv", "trajectory": "trajectory.csv"},
        _parse_simulate, _compute_simulate, _emit_simulate,
        ("survival_min", "survival_max", "final_norm")),
    "gate": _Kind(
        _DYNAMICS, {"report": "gate.json"},
        _parse_gate, _compute_gate, _emit_gate,
        ("deviation", "entangling", "max_leakage", "unitarity_defect")),
    "five-pulse": _Kind(
        ("model", "parameters"),
        {"table": "five_pulse.csv", "report": "five_pulse.json"},
        _parse_five_pulse, _compute_five_pulse, _emit_five_pulse,
        ("p_two_photon", "p_two_excitation", "p_return")),
    "perturb": _Kind(
        ("parameters",), {"report": "perturbation.json"},
        _parse_perturb, _compute_perturb, _emit_perturb,
        ("cross_re", "cross_im", "cross_abs", "path_scale")),
    "rates": _Kind(
        ("parameters",), {"table": "regime_map.csv", "report": "rates.json"},
        _parse_rates, _compute_rates, _emit_rates,
        ("regime", "cooperative_rate", "dominant_rate", "cooperation_wins")),
    "sweep": _Kind(("parameters",), {"table": "sweep.csv"},
                   _parse_sweep, None, None, ()),
}

KINDS = tuple(_KINDS)


def _point_data(base: dict, keys: List[str], value) -> dict:
    """The scenario document of one sweep point: ``base`` with ``value`` at
    the key path, copying only the mappings on that path.  Sweeps cannot
    nest and the other kinds' parsers keep no reference into their document,
    so points may share everything else."""
    key, *rest = keys
    return {**base, key: _point_data(base[key], rest, value) if rest else value}


def _sweep_point(point: Scenario | str, columns: Tuple[str, ...],
                 ) -> Tuple[str, list, Optional[str]]:
    """Run one validated sweep point, or pass on its validation error;
    returns (status, summary cells, error)."""
    blank = [""] * len(columns)
    if isinstance(point, str):
        return "validation-error", blank, point
    try:
        result = _KINDS[point.kind].compute(point)
    except _NUMERICAL_ERRORS as exc:
        return "numerical-error", blank, f"{type(exc).__name__}: {exc}"
    return "ok", [result.get(column, "") for column in columns], None


def _run_sweep(scenario: Scenario, out_dir: Path) -> Tuple[int, List[dict]]:
    """Run and tabulate a sweep in point order; returns (exit code, failed
    points)."""
    columns = _KINDS[scenario.parameters["base"]["kind"]].columns
    rows = []
    failures = []
    for index, (value, point) in enumerate(scenario.parameters["points"]):
        status, cells, error = _sweep_point(point, columns)
        rows.append([index, value, status] + cells)
        if status != "ok":
            failures.append({"index": index, "status": status, "error": error})
    write_csv(out_dir / scenario.output["table"],
              ["index", "value", "status", *columns], rows)
    statuses = {row[2] for row in rows}
    if "ok" in statuses:
        return 0, failures
    return (2 if "numerical-error" in statuses else 1), failures


def run_scenario(scenario: Scenario, out_dir) -> int:
    """Execute a validated scenario, writing artifacts into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"schema_version": 1, "kind": scenario.kind}
    entry = _KINDS[scenario.kind]
    if entry.compute is None:
        code, meta["failed_points"] = _run_sweep(scenario, out_dir)
    else:
        entry.emit(entry.compute(scenario), scenario, out_dir)
        code = 0
    meta["written_at"] = datetime.now(timezone.utc).isoformat()
    write_json(out_dir / _META, meta)
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: it depends only on ``_KINDS``."""
    parser = argparse.ArgumentParser(
        prog="exchangelab",
        description="Numerical laboratory for photon-exchange gate schemes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in KINDS:
        cmd = sub.add_parser(command, help=f"run a {command} scenario")
        cmd.add_argument("--scenario", required=True,
                         help="path to the YAML scenario file")
        cmd.add_argument("--out", default=".",
                         help="output directory (default: current)")
        if _KINDS[command].compute is None:
            cmd.add_argument("--parallel", type=int, default=1,
                             help=f"accepted, 1 to {MAX_PARALLEL} (default 1); "
                                  "points run in order, so it changes "
                                  "neither results nor speed")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    parallel = getattr(args, "parallel", 1)
    if not 1 <= parallel <= MAX_PARALLEL:
        print(f"error: --parallel must lie in 1..{MAX_PARALLEL}, got {parallel}",
              file=sys.stderr)
        return 1

    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 1
    try:
        scenario = parse_scenario(text)
        if scenario.kind != args.command:
            raise ScenarioError(
                f"scenario kind {scenario.kind!r} does not match "
                f"command {args.command!r}")
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run_scenario(scenario, args.out)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
