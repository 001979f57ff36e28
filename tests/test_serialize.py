"""Round trips of the deterministic JSON and CSV writers.

Every finite double, subnormals and -0.0 included, must read back from a
payload as an equal float: ``.17g`` text is exact for IEEE doubles, and
the ``-0`` normalisation keeps equality (-0.0 == 0.0).
"""

import csv
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from exchangelab.serialize import format_float, write_csv, write_json

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)

doubles = st.floats(allow_nan=False, allow_infinity=False)


@_SETTINGS
@given(value=doubles)
@example(value=-0.0)
@example(value=5e-324)            # the smallest subnormal
@example(value=-1.7976931348623157e308)
def test_format_float_round_trips(value):
    assert float(format_float(value)) == value


@_SETTINGS
@given(value=doubles, imag=doubles)
@example(value=-0.0, imag=-5e-324)
def test_json_round_trips_floats_and_complex_pairs(tmp_path_factory, value, imag):
    path = tmp_path_factory.getbasetemp() / "payload.json"
    write_json(path, {"real": value, "pair": complex(value, imag),
                      "list": [value, imag]})
    payload = json.loads(path.read_text())
    assert payload["real"] == value
    assert payload["pair"] == [value, imag]
    assert payload["list"] == [value, imag]


@_SETTINGS
@given(row=st.lists(doubles, min_size=1, max_size=5))
@example(row=[-0.0, 2.2250738585072009e-308, 1e-320])
def test_csv_round_trips_floats(tmp_path_factory, row):
    path = tmp_path_factory.getbasetemp() / "table.csv"
    header = [f"c{i}" for i in range(len(row))]
    write_csv(path, header, [row, row[::-1]])
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == header
    assert [float(cell) for cell in lines[1]] == row
    assert [float(cell) for cell in lines[2]] == row[::-1]
