import math
import os

import numpy as np
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


def test_write_table_blocks_render_every_row_as_fmt(tmp_path):
    # 2,500 rows cross the formatting blocks twice; every cell is fmt's text
    rng = np.random.default_rng(11)
    table = rng.normal(size=(2500, 5)) * 10.0 ** rng.integers(-300, 300, size=(2500, 5))
    extremes = [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e-20, -1e-20, 1e300, -1e300, 0.1 + 0.2]
    for k, x in enumerate(extremes):
        table[[k, 1023 + k % 3, 1024 + k % 2, 2047, 2048 + k, 2499 - k], k % 5] = x
    path = tmp_path / "big.csv"
    write_table(str(path), "csv", ["a", "b", "c", "d", "e"], table)
    expected = "a,b,c,d,e\n" + "".join(",".join(map(fmt, row)) + "\n" for row in table)
    assert path.read_text(encoding="utf-8") == expected


def _fmt_text(columns, table):
    return ",".join(columns) + "\n" + "".join(",".join(map(fmt, row)) + "\n" for row in table)


#: Cells that test the distinct-value path: signed zeros, distinct floats
#: that print the same 12 digits, subnormals and the ends of the range.
REPEATED = [0.0, -0.0, 0.1 + 0.2, 0.3, 1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 5e-324, -5e-324,
            2.2e-310, -1e-320, 1e300, -1e300, 1.0 / 3.0, 2.0 / 6.0 + 1e-17, 123456789012.5]


@pytest.mark.parametrize("rows", [1024, 1025, 3000])
def test_write_table_repeated_values_render_as_fmt(tmp_path, monkeypatch, rows):
    # tables longer than one block format each column's distinct values once
    import bathlink._format as format_module

    rng = np.random.default_rng(12)
    pool = np.array(REPEATED)
    table = pool[rng.integers(0, pool.size, size=(rows, 4))]
    table[:, 3] = rng.normal(size=rows)  # one column with no repeats
    for k, x in enumerate(REPEATED):  # every value on both sides of each block edge
        for edge in range(1024, rows, 1024):
            table[[edge - 1, edge], k % 3] = x
    seen = []
    column_text = format_module._column_text
    monkeypatch.setattr(format_module, "_column_text",
                        lambda column: seen.append(column.size) or column_text(column))
    path = tmp_path / "repeats.csv"
    write_table(str(path), "csv", ["a", "b", "c", "d"], table)
    assert path.read_text(encoding="utf-8") == _fmt_text(["a", "b", "c", "d"], table)
    assert seen == ([] if rows <= 1024 else [rows] * 4)


@pytest.mark.parametrize("rows", [1, 3000])
def test_json_cells_are_the_floats_of_the_csv_cells(tmp_path, rows):
    import json

    from bathlink._format import _BLOCK_ROWS

    rng = np.random.default_rng(13)
    pool = np.array(REPEATED)
    table = pool[rng.integers(0, pool.size, size=(rows, 4))]
    table[:, 3] = rng.normal(size=rows)
    table[0, :3] = [-0.0, 0.1 + 0.2, 5e-324]
    assert rows == 1 or rows > _BLOCK_ROWS
    columns = ["a", "b", "c", "d"]
    write_table(str(tmp_path / "t.csv"), "csv", columns, table)
    write_table(str(tmp_path / "t.json"), "json", columns, table)
    lines = (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()[1:]
    expected = [[float(cell) for cell in line.split(",")] for line in lines]
    payload = json.loads((tmp_path / "t.json").read_text(encoding="utf-8"))
    assert payload == {"columns": columns, "rows": expected}
    assert math.copysign(1.0, payload["rows"][0][0]) == 1.0  # -0.0 is written as 0.0


def test_region_and_heatmap_tables_render_as_fmt(tmp_path, monkeypatch):
    import bathlink.cli as cli

    tables = []

    def record(path, kind, columns, rows):
        tables.append((path, columns, np.asarray(rows, dtype=float)))
        write_table(path, kind, columns, rows)

    monkeypatch.setattr(cli, "write_table", record)
    canon = ["--gamma1", "1.01", "--gamma2", "0.01", "--omega", "0.001"]
    assert cli.main(["region", *canon, "--eta", "1", "--n", "121", "--confirm-dynamics",
                     "--out", str(tmp_path / "region.csv")]) == 0
    assert cli.main(["heatmap", *canon, "--observable", "negativity", "--axis", "eta",
                     "--axis-min", "0", "--axis-max", "1", "--axis-steps", "41", "--p", "0.6",
                     "--q", "0.3", "--t-max", "6", "--samples", "250",
                     "--out", str(tmp_path / "heat.csv")]) == 0
    assert [len(rows) for _, _, rows in tables] == [14641, 10291]
    for path, columns, rows in tables:
        with open(path, encoding="utf-8") as f:
            assert f.read() == _fmt_text(columns, rows)


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


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_files_get_the_mode_open_would_give(tmp_path, umask):
    previous = os.umask(umask)
    try:
        write_json(str(tmp_path / "x.json"), {"a": 1.0})
        write_table(str(tmp_path / "x.csv"), "csv", ["a"], [[1.0]])
    finally:
        os.umask(previous)
    for name in ("x.json", "x.csv"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask
