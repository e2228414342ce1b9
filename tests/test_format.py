import pytest

from bathlink._format import fmt, write_json, write_table
from bathlink.errors import NumericalInvariantError


def test_fmt_renders_negative_zero_as_zero():
    assert fmt(-0.0) == "0"
    assert fmt(0.0) == "0"
    assert fmt(-1e-300) == "-1e-300"
    assert fmt(0.1 + 0.2) == "0.3"


def test_write_table_bytes(tmp_path):
    rows = [[0.0, -0.0, 1.0 / 3.0], [1e-300, 2.5, -7.0]]
    csv, js = tmp_path / "t.csv", tmp_path / "t.json"
    write_table(str(csv), "csv", ["t", "a", "b"], rows)
    write_table(str(js), "json", ["t", "a", "b"], rows)
    assert csv.read_bytes() == b"t,a,b\n0,0,0.333333333333\n1e-300,2.5,-7\n"
    assert js.read_bytes() == (
        b'{\n  "columns": [\n    "t",\n    "a",\n    "b"\n  ],\n  "rows": [\n'
        b'    [\n      0.0,\n      0.0,\n      0.333333333333\n    ],\n'
        b'    [\n      1e-300,\n      2.5,\n      -7.0\n    ]\n  ]\n}\n'
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.json"]


def test_write_table_extreme_cells(tmp_path):
    path = tmp_path / "x.csv"
    write_table(str(path), "csv", ["a", "b", "c"],
                [[-0.0, 5e-324, 1e300], [-1e300, 1e-17, -1e-17]])
    assert path.read_bytes() == b"a,b,c\n0,4.94065645841e-324,1e+300\n-1e+300,1e-17,-1e-17\n"


@pytest.mark.parametrize("kind", ["csv", "json"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_write_table_rejects_non_finite_cells(tmp_path, kind, bad):
    with pytest.raises(NumericalInvariantError, match=r"row 1, column 'b'"):
        write_table(str(tmp_path / "x"), kind, ["a", "b"], [[1.0, 2.0], [3.0, bad]])
    assert list(tmp_path.iterdir()) == []


def test_write_json_rejects_non_finite_values(tmp_path):
    with pytest.raises(NumericalInvariantError, match="not JSON compliant"):
        write_json(str(tmp_path / "x.json"), {"ok": 1.0, "excess": float("nan")})
    assert list(tmp_path.iterdir()) == []
