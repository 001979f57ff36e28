"""Import-weight guard: scipy loads only when a lossy segment is evolved
(``scipy.linalg``; the two-level probes, lossy or not, use a closed form,
and no path loads ``scipy.optimize``), and
``concurrent.futures`` on none (sweep points run in order).  The CLI reads
scenarios with PyYAML's libyaml loader wherever PyYAML has one.

Each check runs in a fresh interpreter, since the test process itself has
long since imported scipy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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

_README_RABI = """
import json, sys
from exchangelab.hilbert import (photon_mode, collective_mode,
                                 enumerate_basis, exchange_coupling)
from exchangelab.dynamics import rabi_frequency
basis = enumerate_basis([photon_mode("field"), collective_mode("atoms")], 2)
coupling = exchange_coupling(basis, "field", "atoms", rate=1.0)
print(json.dumps({"frequency": rabi_frequency(coupling, (1, 1)),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

_TWO_LEVEL_PROBES = """
import json, sys
from exchangelab.dynamics import phase_vs_loss, transmission_scan
phase, loss = phase_vs_loss(1.0, 0.5, 0.2, 30.0)
scan = transmission_scan(0.8, [0.0, 1.0, 2.0])
print(json.dumps({"loss": loss, "survival": [p for _, p in scan],
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _fresh_run(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "scenarios"), str(tmp_path)],
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


def test_readme_rabi_example_loads_no_scipy(tmp_path):
    out = _fresh_run(_README_RABI, tmp_path)
    assert abs(out["frequency"] - 4.0) < 1e-12
    assert out["scipy"] == []


def test_two_level_probes_load_no_scipy(tmp_path):
    out = _fresh_run(_TWO_LEVEL_PROBES, tmp_path)
    assert 0.0 < out["loss"] < 1.0
    assert out["survival"][0] == 1.0
    assert out["scipy"] == []
