"""The shared ``--baseline`` regression gate of the benchmarks."""

from __future__ import annotations

import json

import pytest

from benchmarks._gate import check_ratios

ROWS = {
    "metric": "speedup",
    "what": "speedup",
    "fields": ("d", "K"),
    "rows": lambda p: p["results"],
}


def _baseline(tmp_path, rows):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps({"results": rows}))
    return path


def test_matching_rows_within_2x_pass(tmp_path, capsys):
    path = _baseline(
        tmp_path,
        [
            {"d": 2, "K": 100, "speedup": 4.0},
            {"d": 2, "K": 1000, "speedup": 9.0},
        ],
    )
    run = {"results": [{"d": 2, "K": 100, "speedup": 2.5}]}
    check_ratios(run, path, **ROWS)
    assert "1 speedup value(s) within 2x" in capsys.readouterr().out


def test_regression_beyond_2x_fails(tmp_path):
    path = _baseline(tmp_path, [{"d": 2, "K": 100, "speedup": 4.0}])
    run = {"results": [{"d": 2, "K": 100, "speedup": 1.9}]}
    with pytest.raises(SystemExit, match="d=2 K=100: 1.90x"):
        check_ratios(run, path, **ROWS)


def test_no_matching_row_fails(tmp_path):
    path = _baseline(tmp_path, [{"d": 2, "K": 100, "speedup": 4.0}])
    run = {"results": [{"d": 2, "K": 50, "speedup": 40.0}]}
    with pytest.raises(SystemExit, match="compared nothing"):
        check_ratios(run, path, **ROWS)


def test_single_value_payloads(tmp_path):
    path = tmp_path / "BENCH_y.json"
    path.write_text(json.dumps({"ratio": 10.0}))
    check_ratios({"ratio": 5.0}, path, metric="ratio", what="ratio")
    with pytest.raises(SystemExit, match="regressed"):
        check_ratios({"ratio": 4.9}, path, metric="ratio", what="ratio")
    path.write_text(json.dumps({}))
    with pytest.raises(SystemExit, match="compared nothing"):
        check_ratios({"ratio": 5.0}, path, metric="ratio", what="ratio")
