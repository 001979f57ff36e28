"""Import-weight guard: scipy loads only when a lossy segment is evolved
(``scipy.linalg``; the two-level probes, lossy or not, use a closed form,
and no path loads ``scipy.optimize``), and
``concurrent.futures`` on none (sweep points run in order).  The CLI reads
scenarios with PyYAML's libyaml loader wherever PyYAML has one.  Importing
``exchangelab.cli`` loads no compute module and no numpy; a CLI run loads
only the compute modules of its kind, so ``rates`` and ``perturb`` run
without numpy.

Each check runs in a fresh interpreter, since the test process itself has
long since imported scipy through other tests.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import pytest

ROOT = Path(__file__).resolve().parent.parent

_ALL_SCENARIOS = """
import importlib, json, pkgutil, sys
from pathlib import Path
import yaml
loaders = set()
def record(cls, init):
    def __init__(self, *args, **kwargs):
        loaders.add(type(self).__name__)
        init(self, *args, **kwargs)
    cls.__init__ = __init__
for name in ("SafeLoader", "CSafeLoader"):
    if hasattr(yaml, name):
        record(getattr(yaml, name), getattr(yaml, name).__init__)
import exchangelab
from exchangelab import cli
for info in pkgutil.iter_modules(exchangelab.__path__):
    importlib.import_module(f"exchangelab.{info.name}")
codes = {}
for path in sorted(Path(sys.argv[1]).glob("*.yaml")):
    kind = cli.parse_scenario(path.read_text()).kind
    codes[path.name] = cli.main([kind, "--scenario", str(path),
                                 "--out", str(Path(sys.argv[2]) / path.stem)])
print(json.dumps({"codes": codes, "loaders": sorted(loaders),
                  "libyaml": yaml.__with_libyaml__,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "concurrent": sorted(m for m in sys.modules
                                       if m.split(".")[0] == "concurrent")}))
"""

_LOSSY_RUN = """
import json, sys
from pathlib import Path
from exchangelab import cli
path = Path(sys.argv[2]) / "lossy.yaml"
path.write_text('''
kind: simulate
model: {type: bosonized}
schedule:
  segments:
    - duration: 1.0
      coupling: {modes: [photon_1, collective], rate: 1.0}
      widths: {collective: 0.2}
parameters: {experiment: schedule-run, initial: [1, 0, 0]}
''')
code = cli.main(["simulate", "--scenario", str(path), "--out", sys.argv[2]])
print(json.dumps({"codes": {"lossy.yaml": code},
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

_README_TOUR = """
import contextlib, io, json, sys
out = io.StringIO()
with contextlib.redirect_stdout(out):
    exec(sys.argv[3], {"__name__": "__main__"})
print(json.dumps({"lines": out.getvalue().splitlines(),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _readme_tour() -> str:
    """The fenced code block under the README's "Python API tour" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Python API tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


_TWO_LEVEL_PROBES = """
import json, sys
from exchangelab.dynamics import phase_vs_loss, transmission_scan
phase, loss = phase_vs_loss(1.0, 0.5, 0.2, 30.0)
scan = transmission_scan(0.8, [0.0, 1.0, 2.0])
print(json.dumps({"loss": loss, "survival": [p for _, p in scan],
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


_CLI_RUN = """
import json, sys
import exchangelab.cli as cli
on_import = sorted(sys.modules)
code = cli.main([sys.argv[3], "--scenario", sys.argv[4], "--out", sys.argv[2]])
print(json.dumps({"code": code, "on_import": on_import,
                  "modules": sorted(sys.modules)}))
"""


def _fresh_run(script, tmp_path, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "scenarios"), str(tmp_path),
         *args],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_package_and_documented_scenarios_load_no_scipy(tmp_path):
    out = _fresh_run(_ALL_SCENARIOS, tmp_path)
    assert len(out["codes"]) == len(list((ROOT / "scenarios").glob("*.yaml")))
    assert set(out["codes"].values()) == {0}
    assert out["scipy"] == []
    assert out["concurrent"] == []
    assert out["loaders"] == ["CSafeLoader" if out["libyaml"] else "SafeLoader"]


def test_lossy_segment_loads_scipy_linalg(tmp_path):
    out = _fresh_run(_LOSSY_RUN, tmp_path)
    assert out["codes"] == {"lossy.yaml": 0}
    assert "scipy.linalg" in out["scipy"]
    assert (tmp_path / "trajectory.csv").is_file()


def test_readme_api_tour_runs_without_scipy(tmp_path):
    out = _fresh_run(_README_TOUR, tmp_path, _readme_tour())
    assert abs(float(out["lines"][0]) - 4.0) < 1e-12
    gate_line = next(line for line in out["lines"]
                     if line.endswith(("True", "False")))
    assert gate_line.endswith("False")
    assert out["scipy"] == []


def test_two_level_probes_load_no_scipy(tmp_path):
    out = _fresh_run(_TWO_LEVEL_PROBES, tmp_path)
    assert 0.0 < out["loss"] < 1.0
    assert out["survival"][0] == 1.0
    assert out["scipy"] == []


_COMPUTE = {f"exchangelab.{name}" for name in
            ("hilbert", "dynamics", "gates", "perturbation", "estimates")}

_RATES_ABSENT = {"numpy", "exchangelab.hilbert", "exchangelab.dynamics",
                 "exchangelab.gates", "exchangelab.perturbation"}

_PERTURB_ABSENT = {"numpy", "exchangelab.hilbert", "exchangelab.dynamics",
                   "exchangelab.gates"}

_RATES_SWEEP = """
kind: sweep
parameters:
  parameter: parameters.omega
  values: {start: 1.0e+15, stop: 3.0e+15, count: 3}
  base:
    kind: rates
    parameters: {density: 1.0e+24, omega: 2.4e+15, dipole: 3.0e-29,
                 detuning: 1.0e+12, rabi: 1.0e+11, gamma: 1.0e+8,
                 wavenumber: 8.0e+6, t2: 1.0e-6}
"""

#: delta_1 = -delta_2 makes a fourth-order denominator vanish.
_SINGULAR_PERTURB = """
kind: perturb
parameters: {coupling: 0.05, atoms: 2, delta_1: 1.0, delta_2: -1.0,
             delta: 1.0, rule: {selector: none}}
"""

_SINGULAR_SWEEP = """
kind: sweep
parameters:
  parameter: parameters.delta_2
  values: [0.9, -1.0]
  base:
    kind: perturb
    parameters: {coupling: 0.05, atoms: 2, delta_1: 1.0, delta_2: 0.9,
                 delta: 1.0, rule: {selector: none}}
"""


def _cli_run(tmp_path, kind, scenario):
    """Run one CLI call in a fresh interpreter; ``scenario`` is a file of
    ``scenarios/`` or the text of a document."""
    if scenario.endswith(".yaml"):
        path = ROOT / "scenarios" / scenario
    else:
        path = tmp_path / "scenario.yaml"
        path.write_text(dedent(scenario))
    return _fresh_run(_CLI_RUN, tmp_path / "out", kind, str(path))


@pytest.mark.parametrize("kind, scenario, absent", [
    ("rates", "rates_high_density.yaml", _RATES_ABSENT),
    ("sweep", _RATES_SWEEP, _RATES_ABSENT),
    ("perturb", "perturb_none.yaml", _PERTURB_ABSENT),
    ("gate", "gate_three_pulse.yaml",
     {"exchangelab.perturbation", "exchangelab.estimates"}),
    ("five-pulse", "five_pulse.yaml",
     {"exchangelab.perturbation", "exchangelab.estimates"}),
    ("simulate", "transmission.yaml",
     {"exchangelab.perturbation", "exchangelab.estimates"}),
    ("simulate", "schedule_run.yaml",
     {"exchangelab.perturbation", "exchangelab.estimates"}),
], ids=["rates", "rates-sweep", "perturb", "gate", "five-pulse", "transmission",
        "schedule-run"])
def test_a_run_loads_only_the_modules_of_its_kind(tmp_path, kind, scenario,
                                                   absent):
    out = _cli_run(tmp_path, kind, scenario)
    assert not set(out["on_import"]) & (_COMPUTE | {"numpy", "difflib"})
    assert out["code"] == 0
    assert not absent & set(out["modules"])


def test_numerical_failures_are_caught_without_dynamics(tmp_path):
    out = _cli_run(tmp_path, "perturb", _SINGULAR_PERTURB)
    assert out["code"] == 2
    assert not _PERTURB_ABSENT & set(out["modules"])
    out = _cli_run(tmp_path, "sweep", _SINGULAR_SWEEP)
    assert out["code"] == 0
    assert not _PERTURB_ABSENT & set(out["modules"])
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["ok", "numerical-error"]
    [failed] = json.loads(
        (tmp_path / "out" / "run.meta.json").read_text())["failed_points"]
    assert failed["error"].startswith("SingularityError: ")



def _package_modules():
    import exchangelab

    return ["exchangelab"] + [f"exchangelab.{info.name}" for info
                              in pkgutil.iter_modules(exchangelab.__path__)]


_MODULES = _package_modules()


@pytest.mark.parametrize("name", _MODULES)
def test_every_public_name_exists(name):
    # perfbench's tracer wraps each ``__all__`` entry and skips a missing one
    # silently, so a stale entry would drop a layer from its timings.  The
    # package lists its submodules, which are attributes once imported.
    for module in _MODULES:
        importlib.import_module(module)
    module = sys.modules[name]
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
