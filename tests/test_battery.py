"""The byte battery's diff: where two outputs first differ, and by how much."""

import importlib.util
import json
import math
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "battery.py")
_spec = importlib.util.spec_from_file_location("battery", _PATH)
battery = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(battery)


def dumps(value) -> bytes:
    return json.dumps(value).encode()


def test_equal_bytes_are_no_difference():
    assert battery.describe("r.json", b'{"a": 1}', b'{"a": 1}') is None


def test_json_names_its_first_leaf_and_every_section():
    ours = {"headline": {"eer": 0.1, "sc": 0.5}, "separability": [{"dbi": 2.0}]}
    theirs = {"headline": {"eer": 0.1, "sc": 0.25}, "separability": [{"dbi": 1.0}]}
    assert battery.describe("r.json", dumps(ours), dumps(theirs)) == (
        "r.json: headline.sc: 0.5 against 0.25 (relative 0.5); 2 leaves differ, "
        "the largest relative difference is 0.5, under headline.sc, separability[].dbi"
    )


def test_json_leaves_in_lists_and_nulls():
    line = battery.describe(
        "r.json", dumps({"x": [1.0, None]}), dumps({"x": [1.0, 3.0]})
    )
    assert line.startswith("r.json: x[1]: None against 3.0 (relative inf)")


def test_csv_names_its_first_cell():
    ours = b"kind,x,y\ncmc,1.0,0.5\ncmc,2.0,1.0\n"
    theirs = b"kind,x,y\ncmc,1.0,0.5000000000000001\ncmc,2.0,1.0\n"
    line = battery.describe("r.cmc.csv", ours, theirs)
    assert line.startswith("r.cmc.csv: row 2, column 3: 0.5 against 0.5000000000000001")
    assert line.endswith("(relative 2.22e-16)")


def test_jsonl_names_its_line():
    ours = b'{"id": "a", "frames": [[1.0]]}\n{"id": "b", "frames": [[2.0]]}\n'
    theirs = b'{"id": "a", "frames": [[1.0]]}\n{"id": "c", "frames": [[2.0]]}\n'
    assert battery.describe("d.jsonl", ours, theirs) == (
        "d.jsonl: line 2: id: 'b' against 'c' (relative inf)"
    )


def test_same_values_in_other_bytes_and_extra_leaves():
    assert battery.describe("r.json", b'{"a": 1.0}', b'{"a": 1.00}') == (
        "r.json: the same values written with different bytes"
    )
    assert battery.describe("r.json", dumps([1, 2]), dumps([1, 2, 3])) == (
        "r.json: 2 against 3 leaves; the common ones are equal"
    )


def test_text_that_does_not_parse_falls_back_to_bytes():
    line = battery.describe("r.json", b"{1", b"{2")
    assert line == "r.json: bytes differ from offset 1"


@pytest.mark.parametrize("a, b, want", [
    (1.0, 1.0, 0.0), (2.0, 1.0, 0.5), (-1.0, 1.0, 2.0), ("a", "b", math.inf),
    (True, 1.0, math.inf),
])
def test_relative_difference(a, b, want):
    assert battery.relative(a, b) == want


def test_wall_clock_figures_of_the_verdicts_are_masked():
    lines = (
        "criterion  1: PASS  worst angle 3.94e-08 rad, 0 dimension mismatches, "
        "100 datasets in 0.2s\n"
        "criterion  6: PASS  mmc ccr=1.0000 auc=1.0000 sc=0.9763, "
        "pca_lda sc=0.9763, 12.5s\n"
        "criterion  8: PASS  report + 4 curve csvs, 180342/180342 bytes, "
        "workers 1 vs 8\n"
    )
    assert battery.mask_wall_clock(lines) == (
        "criterion  1: PASS  worst angle 3.94e-08 rad, 0 dimension mismatches, "
        "100 datasets in ?s\n"
        "criterion  6: PASS  mmc ccr=1.0000 auc=1.0000 sc=0.9763, "
        "pca_lda sc=0.9763, ?s\n"
        "criterion  8: PASS  report + 4 curve csvs, 180342/180342 bytes, "
        "workers 1 vs 8\n"
    )
