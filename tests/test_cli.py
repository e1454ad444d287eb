"""Command-line interface: pipeline wiring, config merge, exit codes."""

import argparse
import contextlib
import io
import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import marginforge
from conftest import dtw_bytes, traced_peak, walking_sample
from marginforge import (
    GaitSample,
    LabeledDataset,
    align_walk_direction,
    average_length,
    center_on_root,
    cli,
    curve_csv_text,
    learner_for,
    learners,
    load_dataset,
    load_transform,
    plan_folds,
    resample_time,
    run_protocol,
    save_dataset,
)
from marginforge._jsonio import json_as, load_json
from marginforge.cli import build_parser, main
from marginforge.dataset import MAX_COORDINATE, _read_csv_rows
from marginforge.errors import (
    AlignmentError,
    ContractError,
    DegenerateDataError,
    MarginforgeError,
    ParseError,
    SchemaError,
    ValidationError,
)
from oracles import rowwise_dtw


def run(*argv) -> int:
    return main([str(a) for a in argv])


def unchecked_jsonl(path, records):
    """Write (sample_id, label, frames) records in save_dataset's JSONL
    format without making GaitSamples, as a tool that knows no coordinate
    bound would."""
    path.write_text("".join(
        json.dumps({"sample_id": i, "label": label, "frames": np.asarray(
            frames, dtype=float).tolist()}) + "\n"
        for i, label, frames in records
    ))
    return path


# The one stderr line of the coordinate gate, given the sample's id and
# its largest coordinate magnitude.
PAST_BOUND = (
    "marginforge: SchemaError: sample {!r}: coordinate magnitude {} is past "
    "the limit 3.12e+144\n"
)


# The one stderr line of gen's refusal of a spread and noise whose draws
# could pass the coordinate bound.
DRAWS_PAST_BOUND = (
    "marginforge: ValidationError: class_spread + noise must be at most "
    "1.95e+143, so that every draw is within the limit 3.12e+144\n"
)


# The one stderr line of a size refusal, given the coordinate count.
PAST_MEMORY = (
    r"marginforge: ValidationError: the dataset would hold %d coordinates "
    r"\(\d+ bytes\), more than this machine's \d+ bytes of memory\n"
)


def gen_args(out, classes=3, per_class=6, seed=3):
    return (
        "gen",
        "--classes", classes,
        "--per-class", per_class,
        "--joints", 2,
        "--frames", 5,
        "--class-spread", 4.0,
        "--noise", 0.4,
        "--seed", seed,
        "--output", out,
    )


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(*gen_args(a)) == 0
        assert run(*gen_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(*gen_args(a, seed=3)) == 0
        assert run(*gen_args(b, seed=4)) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_csv_extension_selects_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run(*gen_args(out)) == 0
        header = out.read_text().splitlines()[0]
        assert header == "sample_id,label,frame,joint,x,y,z"
        ds = load_dataset(out, format="csv")
        assert ds.num_samples == 18


class TestPipeline:
    def test_end_to_end(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        prep = tmp_path / "prep.jsonl"
        transform = tmp_path / "mmc.json"
        rpt_mmc = tmp_path / "rpt_mmc.json"
        rpt_id = tmp_path / "rpt_id.json"
        table = tmp_path / "table.txt"

        assert run(*gen_args(data)) == 0
        assert run(
            "preprocess",
            "--input", data,
            "--output", prep,
            "--root-joint", 0,
            "--target-frames", 4,
        ) == 0
        prepped = load_dataset(prep, format="jsonl")
        assert prepped.num_samples == 18
        assert all(s.frame_count == 4 for s in prepped.samples)
        # Root pinned at the origin in every frame after centering.
        for s in prepped.samples:
            assert np.max(np.abs(s.frames[:, 0, :])) < 1e-12

        assert run(
            "learn", "--input", prep, "--output", transform, "--method", "mmc"
        ) == 0
        assert json.loads(transform.read_text())["method"] == "mmc"

        for method, out in (("mmc", rpt_mmc), ("identity", rpt_id)):
            assert run(
                "evaluate",
                "--input", prep,
                "--output", out,
                "--method", method,
                "--outer-folds", 3,
                "--inner-folds", 2,
                "--seed", 7,
            ) == 0
            stem = str(out)[: -len(".json")]
            for kind in ("cmc", "far_frr", "roc", "rcl_pcn"):
                csv_path = tmp_path / f"{stem.rsplit('/', 1)[-1]}.{kind}.csv"
                assert csv_path.exists()
                assert csv_path.read_text().startswith("kind,x,y\n")

        capsys.readouterr()
        assert run("compare", rpt_mmc, rpt_id, "--output", table) == 0
        shown = capsys.readouterr().out
        assert shown == table.read_text()
        assert "method" in shown and "mmc" in shown and "identity" in shown

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_outputs_get_the_mode_open_gives(self, tmp_path, umask):
        data = tmp_path / "data.jsonl"
        prep = tmp_path / "prep.csv"
        rpt = tmp_path / "rpt.json"
        previous = os.umask(umask)
        try:
            assert run(*gen_args(data)) == 0
            assert run("preprocess", "--input", data, "--output", prep) == 0
            assert run("learn", "--input", data, "--output", tmp_path / "t.json",
                       "--method", "mmc") == 0
            assert run("evaluate", "--input", data, "--output", rpt,
                       "--outer-folds", 3, "--inner-folds", 2) == 0
            assert run("compare", rpt, rpt, "--output", tmp_path / "table.txt") == 0
            with open(tmp_path / "control", "w"):
                pass
        finally:
            os.umask(previous)
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        assert len(modes) == 10  # 9 outputs, 4 of them curve CSVs
        assert set(modes.values()) == {0o666 & ~umask}

    @pytest.mark.parametrize("mode", [0o600, 0o640], ids=["600", "640"])
    def test_rewritten_outputs_keep_their_mode(self, tmp_path, mode):
        # As with open(path, "w"), an existing file keeps its mode.
        data = tmp_path / "data.jsonl"
        rpt = tmp_path / "rpt.json"
        for path in (data, rpt):
            path.write_text("old")
            path.chmod(mode)
        previous = os.umask(0o022)
        try:
            assert run(*gen_args(data)) == 0
            assert run("evaluate", "--input", data, "--output", rpt,
                       "--outer-folds", 3, "--inner-folds", 2) == 0
        finally:
            os.umask(previous)
        assert data.stat().st_mode & 0o777 == mode
        assert rpt.stat().st_mode & 0o777 == mode
        assert (tmp_path / "rpt.cmc.csv").stat().st_mode & 0o777 == 0o644

    def test_report_matches_shipped_schema(self, tmp_path):
        data = tmp_path / "data.jsonl"
        rpt = tmp_path / "rpt.json"
        assert run(*gen_args(data)) == 0
        assert run(
            "evaluate",
            "--input", data,
            "--output", rpt,
            "--method", "mmc",
            "--outer-folds", 3,
            "--inner-folds", 2,
            "--pair-policy", "class-best",
        ) == 0
        schema = json.loads(
            resources.files("marginforge")
            .joinpath("schemas/report.schema.json")
            .read_text()
        )
        report = json.loads(rpt.read_text())
        jsonschema.validate(instance=report, schema=schema)
        assert report["config"]["pair_policy"] == "class_best"
        assert list(report["config"]) == [
            "method", "outer_folds", "inner_folds", "seed", "pair_policy", "pca_dim"]

    def test_schema_refuses_the_keys_reports_no_longer_write(self, tmp_path):
        # The curves are the four CSVs beside the report; the two config
        # keys read the same on every route.
        data = tmp_path / "data.jsonl"
        rpt = tmp_path / "rpt.json"
        assert run(*gen_args(data)) == 0
        assert run(
            "evaluate", "--input", data, "--output", rpt, "--inner-folds", 2,
        ) == 0
        schema = json.loads(
            resources.files("marginforge")
            .joinpath("schemas/report.schema.json")
            .read_text()
        )
        report = json.loads(rpt.read_text())
        jsonschema.validate(instance=report, schema=schema)
        for section, key, value in (
            (report["config"], "context_source", "learning"),
            (report["config"], "stratified", True),
            (report, "curves", {}),
        ):
            section[key] = value
            with pytest.raises(jsonschema.ValidationError,
                               match=f"'{key}' was unexpected"):
                jsonschema.validate(instance=report, schema=schema)
            del section[key]

    def test_degenerate_metric_is_strict_json_null(self, tmp_path, capsys):
        # Zero noise puts every member on its class centroid, so the Dunn
        # index has no within-class spread to divide by.
        data = tmp_path / "data.jsonl"
        rpt = tmp_path / "rpt.json"
        assert run(
            "gen",
            "--classes", 4,
            "--per-class", 6,
            "--joints", 2,
            "--frames", 3,
            "--class-spread", 3,
            "--noise", 0,
            "--seed", 5,
            "--output", data,
        ) == 0
        # Each outer fold leaves 4 evaluation samples per class; 4 inner
        # folds give every inner fold one of each.
        assert run(
            "evaluate", "--input", data, "--output", rpt, "--method", "mmc",
            "--inner-folds", 4,
        ) == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(rpt.read_text(), parse_constant=refuse)
        schema = json.loads(
            resources.files("marginforge")
            .joinpath("schemas/report.schema.json")
            .read_text()
        )
        jsonschema.validate(instance=report, schema=schema)
        assert report["headline"]["di"] is None
        assert all(fold["di"] is None for fold in report["separability"])
        assert any("Dunn undefined" in w for w in report["warnings"])

        capsys.readouterr()
        assert run("compare", rpt) == 0
        assert "n/a" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["mmc", "pca-lda", "identity"])
    def test_worker_count_is_invisible_in_the_files(self, tmp_path, method):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        outs = []
        for workers in (1, 8):
            out = tmp_path / f"rpt_w{workers}.json"
            assert run(
                "evaluate",
                "--input", data,
                "--output", out,
                "--method", method,
                "--outer-folds", 3,
                "--inner-folds", 2,
                "--workers", workers,
            ) == 0
            outs.append(out)
        a, b = outs
        assert a.read_bytes() == b.read_bytes()
        for kind in ("cmc", "far_frr", "roc", "rcl_pcn"):
            ca = tmp_path / f"rpt_w1.{kind}.csv"
            cb = tmp_path / f"rpt_w8.{kind}.csv"
            assert ca.read_bytes() == cb.read_bytes()

    def test_resample_only_preprocess_is_idempotent(self, tmp_path):
        data = tmp_path / "data.jsonl"
        once = tmp_path / "once.jsonl"
        twice = tmp_path / "twice.jsonl"
        assert run(*gen_args(data)) == 0
        assert run(
            "preprocess", "--input", data, "--output", once, "--target-frames", 4
        ) == 0
        assert run(
            "preprocess", "--input", once, "--output", twice, "--target-frames", 4
        ) == 0
        assert once.read_bytes() == twice.read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out1 = tmp_path / "out1.jsonl"
        out2 = tmp_path / "out2.jsonl"
        cfg.write_text(
            json.dumps(
                {
                    "classes": 3,
                    "per_class": 4,
                    "joints": 2,
                    "frames": 3,
                    "seed": 1,
                    "output": str(out1),
                }
            )
        )
        assert run("gen", "--config", cfg) == 0
        assert load_dataset(out1, format="jsonl").num_samples == 12
        assert run("gen", "--config", cfg, "--per-class", 2, "--output", out2) == 0
        assert load_dataset(out2, format="jsonl").num_samples == 6

    def test_whole_number_float_reads_as_int(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out.jsonl"
        cfg.write_text(json.dumps({"classes": 3.0, "per_class": 2.0}))
        assert run("gen", "--config", cfg, "--output", out) == 0
        samples = load_dataset(out, format="jsonl").samples
        assert len(samples) == 6
        assert len({s.label for s in samples}) == 3

    def test_config_null_keeps_the_parser_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"joints": None, "noise": None, "seed": None}))
        args = ("gen", "--classes", 3, "--per-class", 4)
        assert run(*args, "--config", cfg, "--output", tmp_path / "a.jsonl") == 0
        assert run(*args, "--output", tmp_path / "b.jsonl") == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_config_is_typed_whole_before_any_input_is_read(self, tmp_path, capsys):
        # Every value is typed, even one a flag overrides, and before the
        # command opens its input.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classes": "abc"}))
        out = tmp_path / "out.jsonl"
        capsys.readouterr()
        assert run("gen", "--classes", 3, "--per-class", 2, "--output", out,
                   "--config", cfg) == 2
        cfg.write_text(json.dumps({"inner_folds": "x"}))
        assert run("evaluate", "--input", tmp_path / "missing.jsonl",
                   "--output", out, "--config", cfg) == 2
        assert capsys.readouterr().err == (
            "marginforge: ValidationError: option --classes must be int, got 'abc'\n"
            "marginforge: ValidationError: option --inner-folds must be int, got 'x'\n"
        )
        assert not out.exists()

    def test_config_must_be_an_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        assert run("gen", "--config", cfg) == 2


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        assert run(*gen_args(tmp_path / "x.jsonl", classes=1)) == 2

    def test_contract_error_is_2(self, tmp_path):
        frames = np.arange(18, dtype=float).reshape(3, 2, 3)
        samples = [
            GaitSample(frames=frames + k, label="solo", sample_id=f"s{k}")
            for k in range(4)
        ]
        path = tmp_path / "one_class.jsonl"
        save_dataset(LabeledDataset.from_samples(samples), path, format="jsonl")
        assert run(
            "learn", "--input", path, "--output", tmp_path / "t.json"
        ) == 2

    @pytest.mark.parametrize("command", ["learn", "evaluate"])
    def test_mixed_frame_counts_are_2(self, tmp_path, capsys, command):
        samples = [
            GaitSample(
                frames=np.full((3 + (k == 5), 2, 3), float(k)),
                label=lab,
                sample_id=f"{lab}{k}",
            )
            for lab in ("a", "b")
            for k in range(6)
        ]
        data = tmp_path / "mixed.jsonl"
        save_dataset(LabeledDataset.from_samples(samples), data, format="jsonl")
        argv = {
            "learn": ("--output", tmp_path / "t.json"),
            "evaluate": (
                "--output", tmp_path / "r.json", "--method", "identity",
                "--inner-folds", 4,
            ),
        }[command]
        assert run(command, "--input", data, *argv) == 2
        assert capsys.readouterr().err == (
            "marginforge: ContractError: sample 'a5' has 4 frames, expected 3: "
            "run preprocess with --target-frames first\n"
        )

    @pytest.mark.parametrize("spread, magnitude", [
        pytest.param("5e307", "6.515786158021805e+307", id="5e307-6.52e+307"),
        pytest.param("3e307", "3.9094716948130826e+307", id="3e307-3.91e+307"),
    ])
    @pytest.mark.parametrize(
        "command, method",
        [
            ("learn", "mmc"),
            ("learn", "pca-lda"),
            ("evaluate", "mmc"),
            ("evaluate", "pca-lda"),
            ("evaluate", "identity"),
        ],
    )
    def test_coordinates_that_overflow_learning_are_4(
        self, tmp_path, capsys, monkeypatch, command, method, spread, magnitude
    ):
        # Scatter sums, class means and the identity route's raw-space
        # centroids of these coordinates would overflow float64. gen refuses
        # the spread that draws them; a file that holds them anyway is
        # refused at the load.
        data = tmp_path / "huge.jsonl"
        gen = (
            "gen", "--classes", 3, "--per-class", 6, "--joints", 2, "--frames", 3,
            "--class-spread", spread, "--noise", 0.5, "--seed", 1, "--output", data,
        )
        refused = PAST_BOUND.format("id000s000", magnitude)
        assert run(*gen) == 2
        assert capsys.readouterr().err == DRAWS_PAST_BOUND
        assert not data.exists()
        with monkeypatch.context() as unbounded:
            unbounded.setattr(marginforge.dataset, "MAX_COORDINATE", np.inf)
            assert run(*gen) == 0
        argv = ("--inner-folds", 2) if command == "evaluate" else ()
        assert run(
            command, "--input", data, "--output", tmp_path / "out.json",
            "--method", method, *argv,
        ) == 4
        assert capsys.readouterr().err == refused
        assert not (tmp_path / "out.json").exists()

    def test_parse_error_is_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {{{")
        assert run(*gen_args(tmp_path / "x.jsonl"), "--config", bad) == 3

    @pytest.mark.parametrize("name", ["data.csv", "data.jsonl"])
    def test_non_utf8_dataset_is_3(self, tmp_path, capsys, name):
        data = tmp_path / name
        assert run(*gen_args(data)) == 0
        data.write_bytes(data.read_bytes() + b"\xff\n")
        assert run("learn", "--input", data, "--output", tmp_path / "t.json") == 3
        assert capsys.readouterr().err == (
            "marginforge: ParseError: not utf-8 text: invalid start byte\n"
        )

    @pytest.mark.parametrize("command", ["compare", "gen"])
    def test_non_utf8_json_is_3(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"classes": 3}\xff\n')
        argv = {
            "compare": ("compare", bad),
            "gen": (*gen_args(tmp_path / "x.jsonl"), "--config", bad),
        }[command]
        assert run(*argv) == 3
        what = "report" if command == "compare" else "config"
        assert capsys.readouterr().err == (
            f"marginforge: ParseError: {what} {bad}: not utf-8 text: "
            "invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "value", ["9" * 5000, "[" * 200_000 + "]" * 200_000], ids=["digits", "depth"]
    )
    @pytest.mark.parametrize("command", ["compare", "gen"])
    def test_json_past_python_limits_is_3(self, tmp_path, capsys, command, value):
        # An integer past Python's digit limit, or nesting past its
        # recursion limit, is malformed input like any other.
        bad = tmp_path / "bad.json"
        bad.write_text('{"classes": %s}' % value)
        argv = {
            "compare": ("compare", bad),
            "gen": (*gen_args(tmp_path / "x.jsonl"), "--config", bad),
        }[command]
        assert run(*argv) == 3
        what = "report" if command == "compare" else "config"
        err = capsys.readouterr().err
        assert err.startswith(f"marginforge: ParseError: {what} {bad}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_a_dataset_line_nested_past_the_recursion_limit_is_3(
        self, tmp_path, capsys
    ):
        data = tmp_path / "deep.jsonl"
        data.write_text("[" * 200_000 + "]" * 200_000 + "\n")
        assert run("learn", "--input", data, "--output", tmp_path / "t.json") == 3
        err = capsys.readouterr().err
        assert err.startswith("marginforge: ParseError: line 1: invalid JSON (")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("line", ["[1, 2]", '"s0"', "5", "null"])
    def test_a_dataset_line_that_is_not_an_object_is_3(self, tmp_path, capsys, line):
        data = tmp_path / "lines.jsonl"
        good = {"sample_id": "s0", "label": "a", "frames": [[[0, 0, 0]], [[1, 1, 1]]]}
        data.write_text(json.dumps(good) + "\n" + line + "\n")
        assert run("learn", "--input", data, "--output", tmp_path / "t.json") == 3
        assert capsys.readouterr().err == (
            "marginforge: ParseError: line 2: a record must be a JSON object\n"
        )

    @pytest.mark.parametrize("frames", [
        {"a": 1},
        [[[{"x": 1}, 0, 0]], [[0, 0, 0]]],
    ], ids=["object", "object-inside"])
    def test_a_json_object_in_frames_is_3(self, tmp_path, capsys, frames):
        data = tmp_path / "objects.jsonl"
        good = {"sample_id": "s0", "label": "a", "frames": [[[0, 0, 0]], [[1, 1, 1]]]}
        bad = {"sample_id": "s1", "label": "a", "frames": frames}
        data.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        assert run("learn", "--input", data, "--output", tmp_path / "t.json") == 3
        err = capsys.readouterr().err
        assert err == "marginforge: ParseError: line 2: frames hold a JSON object\n"

    @pytest.mark.parametrize("coordinate, shown", [
        ("1.5", '"1.5"'),
        (" 2 ", '" 2 "'),
        (True, "true"),
        (False, "false"),
        (None, "null"),
    ], ids=["number-string", "padded-string", "true", "false", "null"])
    def test_a_coordinate_that_is_not_a_number_is_3(
        self, tmp_path, capsys, coordinate, shown
    ):
        # Among floats, true would convert to 1.0 and "1.5" to 1.5.
        data = tmp_path / "coordinates.jsonl"
        good = {"sample_id": "s0", "label": "a", "frames": [[[0, 0, 0]], [[1, 1, 1]]]}
        bad = {"sample_id": "s1", "label": "a",
               "frames": [[[0.5, coordinate, 0]], [[1, 1, 1]]]}
        data.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        out = tmp_path / "out.csv"
        assert run("preprocess", "--input", data, "--output", out) == 3
        err = capsys.readouterr().err
        assert err == (
            f"marginforge: ParseError: line 2: coordinate {shown} is not a number\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_bare_non_finite_token_in_a_report_is_3(self, tmp_path, capsys, token):
        report = tmp_path / "report.json"
        report.write_text(
            '{"config": {"method": "mmc"}, "headline": {"ccr": %s}}' % token
        )
        assert run("compare", report) == 3
        assert capsys.readouterr().err == (
            f"marginforge: ParseError: report {report}: {token} is not a JSON value\n"
        )

    def test_schema_error_is_4(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text('{"config": {"method": "mmc"}}')
        assert run("compare", report) == 4

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"headline": {"ccr": "abc"}}, "headline.ccr is not a number"),
            ({"config": {"method": 5}}, "config.method is not a string"),
            ({"headline": {"eer": 10**400}}, "headline.eer is not a number"),
            # Written as the literal 1e400, which json reads as inf.
            ({"headline": {"sc": math.inf}}, "headline.sc is not a number"),
        ],
    )
    def test_malformed_report_values_are_4(self, tmp_path, capsys, edit, message):
        report = {
            "config": {"method": "mmc"},
            "headline": dict.fromkeys(
                ("dbi", "di", "sc", "fdr", "ccr", "eer", "auc", "map"), 0.5
            ),
        }
        for section, values in edit.items():
            report[section].update(values)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report).replace("Infinity", "1e400"))
        assert run("compare", path) == 4
        assert capsys.readouterr().err == (
            f"marginforge: SchemaError: report {path}: {message}\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "a report must be a JSON object"),
            ('"report"', "a report must be a JSON object"),
            ('{"config": ["mmc"], "headline": {}}', "config is not an object"),
            ('{"config": {"method": "mmc"}, "headline": "x"}',
             "headline is not an object"),
        ],
        ids=["list", "string", "config-list", "headline-string"],
    )
    def test_a_report_or_section_that_is_not_an_object_is_4(
        self, tmp_path, capsys, text, message
    ):
        path = tmp_path / "report.json"
        path.write_text(text)
        assert run("compare", path) == 4
        assert capsys.readouterr() == (
            "", f"marginforge: SchemaError: report {path}: {message}\n"
        )

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("gen", {"classes": "abc"}, "option --classes must be int, got 'abc'"),
            (
                "preprocess",
                {"dtw_threshold": "x"},
                "option --dtw-threshold must be float, got 'x'",
            ),
            (
                "learn",
                {"method": "pca-lda", "pca_dim": [2]},
                "option --pca-dim must be int, got [2]",
            ),
            (
                "evaluate",
                {"outer_folds": "x"},
                "option --outer-folds must be int, got 'x'",
            ),
            ("gen", {"classes": 2.7}, "option --classes must be int, got 2.7"),
            ("gen", {"classes": True}, "option --classes must be int, got True"),
            (
                "gen",
                {"classes": 3, "noise": False},
                "option --noise must be float, got False",
            ),
            # Past 2**53 a float may not be the integer the file spelled.
            (
                "gen",
                {"classes": 3, "seed": 2.0**53 + 2},
                "option --seed must be int, got 9007199254740994.0",
            ),
            (
                "evaluate",
                {"outer_folds": 1e308},
                "option --outer-folds must be int, got 1e+308",
            ),
            pytest.param(
                "gen",
                {"classes": 3, "noise": 10**400},
                f"option --noise must be float, got {10**400}",
                id="gen-noise-past-the-float-range",
            ),
            ("gen", {"classes": 3, "seed": "7"}, "option --seed must be int, got '7'"),
        ],
    )
    def test_config_value_of_the_wrong_type_is_2(
        self, tmp_path, capsys, command, config, message
    ):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.json"
        argv = {
            "gen": ("gen", "--per-class", 4, "--output", out),
            "preprocess": ("preprocess", "--input", data, "--output", out),
            "learn": ("learn", "--input", data, "--output", out),
            "evaluate": ("evaluate", "--input", data, "--output", out),
        }[command]
        capsys.readouterr()
        assert run(*argv, "--config", cfg) == 2
        assert capsys.readouterr().err == f"marginforge: ValidationError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value, kind, read", [
        (7, int, 7),
        (7.0, int, 7),
        (2.0**53, int, 2**53),
        (10**400, int, 10**400),
        (2.0**53 + 2, int, None),
        (2.5, int, None),
        (True, int, None),
        ("7", int, None),
        (5, float, 5.0),
        # Past the float64 maximum, but rounds to it.
        (2**1024 - 2**970 - 1, float, sys.float_info.max),
        (2**1024 - 2**970, float, None),
        (math.inf, float, None),
        (False, float, None),
        ("1.5", float, None),
        (None, float, None),
        (True, bool, True),
        (1, bool, None),
        ("x", str, "x"),
        (5, str, None),
        (["x"], str, None),
    ], ids=[
        "int", "whole-float", "float-2-53", "int-past-floats", "float-past-2-53",
        "fraction", "true-as-int", "string-as-int", "int-as-float",
        "int-rounding-to-max", "int-rounding-past-max", "inf", "false-as-float",
        "string-as-float", "null", "true", "one-as-bool", "string", "int-as-str",
        "list-as-str",
    ])
    def test_json_as_reads_by_one_rule(self, value, kind, read):
        if read is None:
            with pytest.raises(ValueError):
                json_as(value, kind)
        else:
            assert type(json_as(value, kind)) is kind
            assert json_as(value, kind) == read

    def test_config_whole_float_up_to_2_53_is_that_int(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 2.0**53}))
        args = ("gen", "--classes", 3, "--per-class", 4)
        assert run(*args, "--config", cfg, "--output", tmp_path / "a.jsonl") == 0
        assert run(*args, "--seed", 2**53, "--output", tmp_path / "b.jsonl") == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("evaluate", {"input": 0}, "option --input must be str, got 0"),
            ("gen", {"output": 5}, "option --output must be str, got 5"),
            ("gen", {"output": True}, "option --output must be str, got True"),
            ("gen", {"format": 0}, "option --format must be str, got 0"),
            ("learn", {"method": 1}, "option --method must be str, got 1"),
            (
                "evaluate",
                {"pair_policy": ["all"]},
                "option --pair-policy must be str, got ['all']",
            ),
            ("preprocess", {"up_axis": 1}, "option --up-axis must be str, got 1"),
        ],
    )
    def test_config_path_or_name_that_is_not_a_string_is_2(
        self, tmp_path, capsys, command, config, message
    ):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.json"
        argv = {
            "gen": ("gen", "--classes", 2, "--per-class", 4),
            "preprocess": ("preprocess", "--root-joint", 0),
            "learn": ("learn",),
            "evaluate": ("evaluate", "--inner-folds", 2),
        }[command]
        if "input" not in config and command != "gen":
            argv += ("--input", data)
        if "output" not in config:
            argv += ("--output", out)
        capsys.readouterr()
        assert run(*argv, "--config", cfg) == 2
        assert capsys.readouterr().err == f"marginforge: ValidationError: {message}\n"
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "data.jsonl"]

    def test_unknown_subcommand_is_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run("enroll", "--input", "data.jsonl")
        assert exc.value.code == 2

    def test_duplicate_sample_id_is_4(self, tmp_path):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        records = [json.loads(line) for line in data.read_text().splitlines()]
        dup = tmp_path / "dup.jsonl"
        dup.write_text(
            "".join(json.dumps({**r, "sample_id": "x"}) + "\n" for r in records)
        )
        report = tmp_path / "report.json"
        assert run(
            "evaluate", "--input", dup, "--output", report, "--method", "identity"
        ) == 4
        assert not report.exists()

    @pytest.mark.parametrize(
        "field, value, every, named",
        [
            # The reader parses an integer as a float.
            ("sample_id", 1, False, "1.0"),
            ("sample_id", ["x"], False, "['x']"),
            ("sample_id", True, False, "True"),
            ("label", 1, True, "'id000s000'"),
            ("label", ["x"], True, "'id000s000'"),
            ("label", True, True, "'id000s000'"),
            # One int label among string labels.
            ("label", 1, False, "'id000s000'"),
            ("label", None, False, "'id000s000'"),
        ],
    )
    def test_a_non_string_id_or_label_is_4(
        self, tmp_path, capsys, field, value, every, named
    ):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        records = [json.loads(line) for line in data.read_text().splitlines()]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(
            json.dumps({**r, field: value} if every or i == 0 else r) + "\n"
            for i, r in enumerate(records)
        ))
        report = tmp_path / "report.json"
        assert run(
            "evaluate", "--input", bad, "--output", report, "--method", "identity"
        ) == 4
        assert capsys.readouterr().err == (
            f"marginforge: SchemaError: sample {named}: {field} must be a string\n"
        )
        assert not report.exists()

    def test_an_integer_coordinate_too_large_for_a_float_is_4(self, tmp_path, capsys):
        # 401 digits overflow a float; 5000 pass Python's int-parsing limit.
        data = tmp_path / "big.jsonl"
        for digits in ("1" + "0" * 400, "9" * 5000):
            data.write_text(
                '{"sample_id": "s0", "label": "a", '
                f'"frames": [[[{digits}, 0, 0]], [[0, 0, 0]]]}}\n'
            )
            assert run("learn", "--input", data, "--output", tmp_path / "t.json") == 4
            assert capsys.readouterr().err == (
                "marginforge: SchemaError: sample 's0': non-finite coordinate\n"
            )

    def test_dtw_costs_past_the_float_range_are_4(self, tmp_path, capsys):
        # Pose differences past about 1e154 square past the float64 maximum;
        # the cycles' true DTW distances lie far below 1e250. The load
        # refuses them, whatever the threshold. A threshold that is not a
        # number >= 0 is refused before any DTW work.
        grid = np.broadcast_to(
            np.arange(1.0, 4.0)[:, None, None] * np.arange(1.0, 3.0)[None, :, None],
            (3, 2, 3),
        )

        def cycles(path, scale):
            frames = {"e": grid * scale, "neg": -grid * scale, "one": grid}
            return unchecked_jsonl(path, [(k, "a", f) for k, f in frames.items()])

        big = cycles(tmp_path / "big.jsonl", 1e200)
        plain = cycles(tmp_path / "plain.jsonl", 1.0)
        out = tmp_path / "out.jsonl"

        def preprocess(data, threshold):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(
                    "preprocess", "--input", data, "--output", out,
                    "--dtw-threshold", threshold,
                )
            assert [str(w.message) for w in caught] == []
            return code, capsys.readouterr().err

        refused = PAST_BOUND.format("e", "6e+200")
        for threshold in ("1e250", "inf"):
            assert preprocess(big, threshold) == (4, refused)
            assert not out.exists()
        for threshold in ("nan", "-1"):
            assert preprocess(plain, threshold) == (
                2, "marginforge: ContractError: threshold must be >= 0\n"
            )
            assert not out.exists()
        assert preprocess(plain, "inf") == (0, "")
        assert [s.sample_id for s in load_dataset(out).samples] == ["e", "neg", "one"]

    @pytest.mark.parametrize(
        "root, joint, magnitude",
        [
            # Aligned in place (the heading is +z), then the joint's offset
            # from the root is -2.7e308.
            ([[1.7e308, 0, 0], [1.7e308, 0, 1]], [-1e308, 0, 0], "1.7e+308"),
            # The root travels from x = -1e308 to x = 1e308.
            ([[-1e308, 0, 0], [1e308, 0, 0]], [0, 0, 0], "1e+308"),
            # Both horizontal components are finite, their length is not.
            ([[0, 0, 0], [1.5e308, 0, 1.5e308]], [1, 2, 3], "1.5e+308"),
            # A 45-degree heading turns (B, 0, B) into z = B * sqrt(2).
            ([[0, 0, 0], [1, 0, 1]], [1.7e308, 0, 1.7e308], "1.7e+308"),
            # At the bound the cycle loads. The heading is +z, so alignment
            # moves nothing, and centering moves the joint to 2^481.
            ([[-MAX_COORDINATE, 0, 0], [-MAX_COORDINATE, 0, 1]], [MAX_COORDINATE, 0, 0],
             "6.243497100631985e+144"),
            # The 45-degree rotation moves the joint to z = 2^480 * sqrt(2).
            ([[0, 0, 0], [1, 0, 1]], [MAX_COORDINATE, 0, MAX_COORDINATE],
             "4.414819138175424e+144"),
        ],
        ids=["center", "heading", "heading-length", "rotation", "center-at-the-bound",
             "rotation-at-the-bound"],
    )
    def test_root_joint_steps_past_the_float_range_are_4(
        self, tmp_path, capsys, root, joint, magnitude
    ):
        # Each step would overflow float64, so the load refuses the cycle;
        # at the bound, the gate refuses the step's output.
        frames = [[r, joint] for r in root]
        path = unchecked_jsonl(tmp_path / "far.jsonl", [("s0", "a", frames)])
        out = tmp_path / "out.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(
                "preprocess", "--input", path, "--output", out, "--root-joint", 0
            )
        assert [str(w.message) for w in caught] == []
        assert (code, capsys.readouterr().err) == (
            4, PAST_BOUND.format("s0", magnitude)
        )
        assert not out.exists()

    def test_resampling_past_the_float_range_is_4(self, tmp_path, capsys):
        # Each step between frames would span 3.4e308; the load refuses it.
        frames = np.zeros((3, 1, 3))
        frames[:, 0, 0] = [1.7e308, -1.7e308, 1.7e308]
        path = unchecked_jsonl(tmp_path / "steep.jsonl", [("s0", "a", frames)])
        out = tmp_path / "out.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(
                "preprocess", "--input", path, "--output", out, "--target-frames", 4
            )
        assert [str(w.message) for w in caught] == []
        assert (code, capsys.readouterr().err) == (
            4, PAST_BOUND.format("s0", "1.7e+308")
        )
        assert not out.exists()

    def test_alignment_error_is_5(self, tmp_path):
        still = np.tile(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.5]]), (3, 1, 1))
        samples = [
            GaitSample(frames=still, label=lab, sample_id=f"{lab}0")
            for lab in ("a", "b")
        ]
        path = tmp_path / "still.jsonl"
        save_dataset(LabeledDataset.from_samples(samples), path, format="jsonl")
        assert run(
            "preprocess",
            "--input", path,
            "--output", tmp_path / "out.jsonl",
            "--root-joint", 0,
        ) == 5

    def test_degenerate_data_is_6(self, tmp_path):
        frames = np.ones((3, 2, 3))
        samples = [
            GaitSample(frames=frames, label=lab, sample_id=f"{lab}{k}")
            for lab in ("a", "b")
            for k in range(2)
        ]
        path = tmp_path / "flat.jsonl"
        save_dataset(LabeledDataset.from_samples(samples), path, format="jsonl")
        assert run(
            "learn", "--input", path, "--output", tmp_path / "t.json"
        ) == 6

    def test_missing_file_is_8(self, tmp_path):
        assert run(
            "learn",
            "--input", tmp_path / "nope.jsonl",
            "--output", tmp_path / "t.json",
        ) == 8

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "seed must be >= 0"),
            ("--noise", "nan", "noise must be finite and >= 0"),
            ("--noise", "-0.5", "noise must be finite and >= 0"),
            ("--noise", "inf", "noise must be finite and >= 0"),
            ("--class-spread", "inf", "class_spread must be finite and > 0"),
            ("--class-spread", "nan", "class_spread must be finite and > 0"),
        ],
    )
    def test_invalid_generator_spec_is_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x.jsonl"
        assert run(*gen_args(out), flag, value) == 2
        assert capsys.readouterr().err == f"marginforge: ValidationError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("spread, noise", [
        pytest.param("1e308", "0.5", id="spread-1e308"),
        pytest.param("1", "1e200", id="noise-1e200"),
        pytest.param("1.9e143", "1e142", id="sum-past-the-bound"),
    ])
    def test_draws_that_could_pass_the_coordinate_bound_are_2(
        self, tmp_path, capsys, monkeypatch, spread, noise
    ):
        # Refused as a bad option before any draw, not as a schema violation
        # of the drawn data.
        def no_sample(**fields):
            raise AssertionError("a sample was generated")

        monkeypatch.setattr(marginforge.dataset, "GaitSample", no_sample)
        out = tmp_path / "x.jsonl"
        assert run(
            "gen", "--classes", 2, "--per-class", 2, "--class-spread", spread,
            "--noise", noise, "--output", out,
        ) == 2
        assert capsys.readouterr().err == DRAWS_PAST_BOUND
        assert not out.exists()

    @pytest.mark.parametrize("method, code", [
        pytest.param("mmc", 2, id="mmc"),
        pytest.param("pca-lda", 2, id="pca-lda"),
        pytest.param("identity", 0, id="identity"),
    ])
    def test_matched_rows_past_the_coordinate_bound_are_2(
        self, tmp_path, capsys, method, code
    ):
        # A learning fold at 1e-200 scale whitens by about 1e200, so the
        # evaluation row with a coordinate at the bound leaves it once
        # templated: refused with one line naming that sample, and no numpy
        # warning, on both learned routes. The identity route matches the
        # raw rows, which the bound keeps finite: a report, and no warning.
        rng = np.random.default_rng(1)
        means = rng.normal(0.0, 4.0, size=(3, 1, 3, 2, 3))
        frames = 1e-200 * (means + rng.normal(0.0, 0.4, size=(3, 6, 3, 2, 3)))
        frames = frames.reshape(18, 3, 2, 3)
        frames[-1, 0, 0, 0] = MAX_COORDINATE
        data = unchecked_jsonl(tmp_path / "tiny.jsonl", [
            (f"id{n // 6}s{n % 6}", f"id{n // 6}", f) for n, f in enumerate(frames)
        ])
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(
                "evaluate", "--input", data, "--output", out, "--method", method,
                "--inner-folds", 2,
            ) == code
        assert caught == []
        refusal = (
            "marginforge: ContractError: outer fold 0: template 'id2s5': an entry "
            "is not within the limit 3.12e+144\n"
        )
        assert capsys.readouterr().err == (refusal if code else "")
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("flag, coordinates", [
        ("--joints", 270 * 10**18), ("--frames", 108 * 10**18),
    ])
    def test_a_dataset_past_memory_is_2(self, tmp_path, capsys, flag, coordinates):
        # 3 x 6 samples of 10**18 joints or frames: over 8e20 bytes, past any
        # address space, refused before numpy is asked for them.
        out = tmp_path / "x.jsonl"
        assert run(*gen_args(out), flag, 10**18) == 2
        assert re.fullmatch(PAST_MEMORY % coordinates, capsys.readouterr().err)
        assert not out.exists()

    def test_many_small_samples_past_memory_are_2(self, tmp_path, capsys, monkeypatch):
        # 50 000 samples hold 2.4 MB of coordinates but need over 30 MB with
        # each one's own overhead, past a 16 MiB machine: refused before the
        # generator makes one sample.
        def no_sample(**fields):
            raise AssertionError("a sample was generated")

        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(marginforge.dataset, "GaitSample", no_sample)
        out = tmp_path / "x.jsonl"
        assert run(
            "gen", "--classes", 5000, "--per-class", 10, "--joints", 1,
            "--frames", 2, "--output", out,
        ) == 2
        assert re.fullmatch(PAST_MEMORY % 300_000, capsys.readouterr().err)
        assert not out.exists()

    def test_resampling_past_memory_is_2(self, tmp_path, capsys):
        data, out = tmp_path / "data.jsonl", tmp_path / "out.jsonl"
        assert run(*gen_args(data)) == 0
        capsys.readouterr()
        assert run(
            "preprocess", "--input", data, "--output", out, "--target-frames", 10**18
        ) == 2
        assert re.fullmatch(PAST_MEMORY % (108 * 10**18), capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, coordinates", [
        ("--classes", 180 * 10**18), ("--per-class", 90 * 10**18),
    ])
    def test_a_sample_count_past_memory_is_2(self, tmp_path, flag, coordinates):
        # Refused before the generator's loop draws one sample. Run in a
        # child with a 1 GiB address-space cap and a timeout, so a generator
        # that loops anyway ends the child, not the whole pytest run.
        def cap_memory():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        out = tmp_path / "x.jsonl"
        argv = [str(a) for a in (*gen_args(out), flag, 10**18)]
        src = os.path.dirname(os.path.dirname(marginforge.__file__))
        child = subprocess.run(
            [sys.executable, "-m", "marginforge.cli", *argv],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        )
        assert child.returncode == 2
        assert re.fullmatch(PAST_MEMORY % coordinates, child.stderr)
        assert not out.exists()

    def test_negative_evaluate_seed_is_2(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        capsys.readouterr()
        assert run(
            "evaluate", "--input", data, "--output", tmp_path / "r.json", "--seed", -1
        ) == 2
        assert capsys.readouterr().err == (
            "marginforge: ValidationError: seed must be >= 0\n"
        )

    def test_output_in_a_missing_directory_is_8(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "x.jsonl"
        assert run(*gen_args(out)) == 8
        err = capsys.readouterr().err
        assert err.startswith("marginforge: FileNotFoundError: ")
        assert repr(str(out)) in err
        assert ".tmp-" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--dtw-threshold", "-1"], "ContractError: threshold must be >= 0"),
        (["--dtw-threshold", "nan"], "ContractError: threshold must be >= 0"),
        (["--target-frames", "1"], "ContractError: target_frames must be >= 2"),
        (["--target-frames", "-3"], "ContractError: target_frames must be >= 2"),
        (["--up-axis", "z"], "ValidationError: --up-axis applies only with --root-joint"),
        (["--target-frames", "0", "--dtw-threshold", "0"], None),
        (["--root-joint", "0", "--up-axis", "z", "--target-frames", "2"], None),
    ], ids=["threshold-negative", "threshold-nan", "target-1", "target-negative",
            "up-axis-alone", "valid-threshold", "valid-axis"])
    def test_preprocess_flags_are_refused_before_the_load(
        self, tmp_path, capsys, flags, message
    ):
        # The input does not exist: a flag refused before the load exits 2
        # with its own message, and valid flags reach the load, which exits 8.
        missing, out = tmp_path / "missing.jsonl", tmp_path / "out.jsonl"
        code = run("preprocess", "--input", missing, "--output", out, *flags)
        err = capsys.readouterr().err
        if message is None:
            assert code == 8
            assert err.startswith("marginforge: FileNotFoundError: ")
        else:
            assert (code, err) == (2, f"marginforge: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("error, code", [
        (MarginforgeError, 1),
        (ContractError, 2),
        (ValidationError, 2),
        (ParseError, 3),
        (SchemaError, 4),
        (AlignmentError, 5),
        (DegenerateDataError, 6),
        (FileNotFoundError, 8),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
    def test_each_error_class_exits_with_its_code(
        self, tmp_path, capsys, monkeypatch, error, code
    ):
        def command(args):
            raise error("refused")

        monkeypatch.setitem(cli.COMMANDS, "gen", command)
        assert run(*gen_args(tmp_path / "x.jsonl")) == code
        assert capsys.readouterr() == (
            "", f"marginforge: {error.__name__}: refused\n"
        )

    def test_context_source_flag_is_gone(self, tmp_path):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        with pytest.raises(SystemExit) as exc:
            run(
                "evaluate",
                "--input", data,
                "--output", tmp_path / "r.json",
                "--context-source", "learning",
            )
        assert exc.value.code == 2
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("word", ["-x", "-info", "-1e", "-nana"])
    def test_a_dash_word_that_is_no_number_is_an_unknown_option(self, capsys, word):
        # Only a float's spellings read as negative values.
        with pytest.raises(SystemExit) as exc:
            run("gen", word)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {word}\n")

    def test_unknown_config_key_is_2(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"context_source": "gallery", "inner_fold": 5}))
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert run("evaluate", "--input", data, "--output", out, "--config", cfg) == 2
        assert capsys.readouterr().err == (
            "marginforge: ValidationError: unknown config keys for evaluate: "
            "'context_source', 'inner_fold'\n"
        )
        assert not out.exists()

    @staticmethod
    def valid_report(path):
        path.write_text(json.dumps({
            "config": {"method": "mmc"},
            "headline": dict.fromkeys(
                ("dbi", "di", "sc", "fdr", "ccr", "eer", "auc", "map"), 0.5
            ),
        }))
        return path

    def test_compare_refuses_the_format_flag(self, tmp_path, capsys):
        # compare reads reports, never a dataset file.
        report = self.valid_report(tmp_path / "r.json")
        assert run("compare", report) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run("compare", report, "--format", "csv")
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_compare_refuses_a_format_config_key(self, tmp_path, capsys):
        report = self.valid_report(tmp_path / "r.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        capsys.readouterr()
        assert run("compare", report, "--config", cfg) == 2
        assert capsys.readouterr() == (
            "",
            "marginforge: ValidationError: unknown config keys for compare: "
            "'format'\n",
        )

    def test_compare_refuses_an_inputs_config_key(self, tmp_path, capsys):
        # Report files are positional; no flag takes them.
        report = self.valid_report(tmp_path / "r.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inputs": [str(report)]}))
        capsys.readouterr()
        assert run("compare", report, "--config", cfg) == 2
        assert capsys.readouterr() == (
            "",
            "marginforge: ValidationError: unknown config keys for compare: "
            "'inputs'\n",
        )

    def test_compare_widens_a_column_past_its_widest_cell(self, tmp_path, capsys):
        # A column is 10 wide, or one wider than its widest cell, so a
        # space parts every two cells.
        report = self.valid_report(tmp_path / "r.json")
        doc = json.loads(report.read_text())
        doc["headline"].update(di=-1000, sc=123456.7)
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("compare", report) == 0
        assert capsys.readouterr().out == (
            "method       dbi         di          sc       fdr       ccr"
            "       eer       auc       map\n"
            + "-" * 89 + "\n"
            "mmc       0.5000 -1000.0000 123456.7000    0.5000    0.5000"
            "    0.5000    0.5000    0.5000\n"
        )

    def test_missing_required_option_is_2(self, tmp_path):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        assert run("learn", "--input", data) == 2  # no --output anywhere

    @pytest.mark.parametrize("inner", [9, 100])
    def test_empty_inner_fold_is_2(self, tmp_path, capsys, inner):
        # 3 classes of 4: each outer fold leaves 8 evaluation samples.
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data, classes=3, per_class=4)) == 0
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert run(
            "evaluate", "--input", data, "--output", out, "--inner-folds", inner
        ) == 2
        assert capsys.readouterr().err == (
            f"marginforge: ValidationError: outer fold 0: {inner} inner folds "
            "over 8 evaluation samples leave an inner fold empty\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, method, source",
        [
            ("learn", "mmc", "flag"),
            ("learn", "mmc", "config"),
            ("evaluate", "mmc", "flag"),
            ("evaluate", "mmc", "config"),
            ("evaluate", "identity", "flag"),
            ("evaluate", "identity", "config"),
        ],
    )
    def test_pca_dim_outside_pca_lda_is_2(
        self, tmp_path, capsys, command, method, source
    ):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        if source == "flag":
            argv = ["--pca-dim", 5]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"pca_dim": 5}))
            argv = ["--config", cfg]
        if command == "evaluate":
            argv += ["--inner-folds", 2]
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert run(
            command, "--input", data, "--output", out, "--method", method, *argv
        ) == 2
        assert capsys.readouterr().err == (
            "marginforge: ValidationError: pca_dim applies to pca_lda only, "
            f"not '{method}'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, pca_dim, message",
        [
            ("svm", None, "unknown method 'svm'"),
            ("pca-svm", None, "unknown method 'pca_svm'"),
            ("svm", 5, "unknown method 'svm'"),
            ("mmc", 5, "pca_dim applies to pca_lda only, not 'mmc'"),
            ("identity", 5, "pca_dim applies to pca_lda only, not 'identity'"),
        ],
    )
    def test_every_entry_refuses_a_method_alike(
        self, tmp_path, capsys, method, pca_dim, message
    ):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        with pytest.raises(ValidationError) as caught:
            learner_for(method, pca_dim)
        assert str(caught.value) == message
        dataset = load_dataset(data)
        plan = plan_folds(dataset, outer=3, inner=2, seed=0)
        with pytest.raises(ValidationError) as caught:
            run_protocol(dataset, method, plan, pca_dim=pca_dim)
        assert str(caught.value) == message
        # The method flag's choices stop an unknown name; the config does not.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": method, "pca_dim": pca_dim}))
        out = tmp_path / "out.json"
        for command, extra in (("learn", []), ("evaluate", ["--inner-folds", 2])):
            capsys.readouterr()
            assert run(
                command, "--input", data, "--output", out, "--config", cfg, *extra
            ) == 2
            err = capsys.readouterr().err
            assert err == f"marginforge: ValidationError: {message}\n"
            assert not out.exists()

    def test_learn_refuses_identity_is_2(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "identity"}))
        out = tmp_path / "t.json"
        capsys.readouterr()
        assert run("learn", "--input", data, "--output", out, "--config", cfg) == 2
        assert capsys.readouterr().err == (
            "marginforge: ValidationError: learn supports mmc or pca-lda, "
            "got 'identity'\n"
        )
        assert not out.exists()

    def test_up_axis_without_root_joint_is_2(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        out = tmp_path / "p.jsonl"
        capsys.readouterr()
        assert run(
            "preprocess", "--input", data, "--output", out, "--up-axis", "z"
        ) == 2
        assert capsys.readouterr().err == (
            "marginforge: ValidationError: --up-axis applies only with --root-joint\n"
        )
        assert not out.exists()


# Magnitudes just past the coordinate bound and near the float64 maximum.
PAST_THE_BOUND = [float(np.nextafter(MAX_COORDINATE, np.inf)), 1.7e308,
                  float(np.finfo(np.float64).max)]
PREPROCESS_STEPS = ("--root-joint", "--target-frames", "--dtw-threshold")
# preprocess with each combination of its steps, learn with both methods
# and evaluate with every method.
COMMAND_SHAPES = [
    *(("preprocess", *steps) for r in (1, 2, 3)
      for steps in itertools.combinations(PREPROCESS_STEPS, r)),
    *(("learn", "--method", method) for method in ("mmc", "pca-lda")),
    *(("evaluate", "--method", method) for method in ("mmc", "pca-lda", "identity")),
]
DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6, 8}


@st.composite
def extreme_records(draw):
    """3 identities x 6 cycles of 2 joints x 3 frames, as gen draws them,
    with either every coordinate scaled so the largest magnitude is an
    extreme, or 1 to 3 coordinates set to extremes. An extreme is the
    bound itself or a magnitude past it, of either sign."""
    extreme = st.builds(
        lambda inside, past, sign: sign * (MAX_COORDINATE if inside else past),
        st.booleans(), st.sampled_from(PAST_THE_BOUND), st.sampled_from([1.0, -1.0]),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = rng.normal(0.0, 4.0, size=(3, 1, 3, 2, 3))
    frames = (means + rng.normal(0.0, 0.4, size=(3, 6, 3, 2, 3))).reshape(18, 3, 2, 3)
    if draw(st.booleans()):
        frames = frames / np.abs(frames).max() * draw(extreme)
    else:
        for _ in range(draw(st.integers(1, 3))):
            frames.flat[draw(st.integers(0, frames.size - 1))] = draw(extreme)
    return [(f"id{n // 6}s{n % 6}", f"id{n // 6}", f) for n, f in enumerate(frames)]


@pytest.mark.parametrize("shape", COMMAND_SHAPES, ids=" ".join)
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(
    records=extreme_records(),
    values=st.fixed_dictionaries({
        "--root-joint": st.sampled_from([0, 1]),
        "--target-frames": st.sampled_from([0, 2, 5]),
        "--dtw-threshold": st.sampled_from([0.0, 10.0, 1e150, np.inf]),
        "--pair-policy": st.sampled_from(["all", "class-best"]),
    }),
)
def test_extreme_coordinates_end_in_a_documented_exit(
    tmp_path_factory, shape, records, values
):
    # No floating-point error or warning on any path: a run exits 0, or with
    # a documented code and one error line, and an exit-0 run's outputs load.
    command, *flags = shape
    if command == "preprocess":
        flags = [a for flag in flags for a in (flag, values[flag])]
    elif command == "evaluate":
        flags += ["--pair-policy", values["--pair-policy"], "--inner-folds", 2]
    folder = tmp_path_factory.mktemp("extremes")
    data = unchecked_jsonl(folder / "in.jsonl", records)
    out = folder / ("out.jsonl" if command == "preprocess" else "out.json")
    stderr = io.StringIO()
    with np.errstate(over="raise", invalid="raise", divide="raise"), \
            contextlib.redirect_stderr(stderr):
        code = run(command, "--input", data, "--output", out, *flags)
    assert code in DOCUMENTED_EXITS
    errors = re.findall(r"^marginforge: [A-Za-z]+: ", stderr.getvalue(), re.MULTILINE)
    assert len(errors) == (1 if code else 0)
    if code != 0:
        assert not out.exists()
    elif command == "preprocess":
        load_dataset(out)
    elif command == "learn":
        load_transform(out)
    else:
        load_json(out, what="report")
        for kind in ("cmc", "far_frr", "roc", "rcl_pcn"):
            np.loadtxt(folder / f"out.{kind}.csv", delimiter=",", skiprows=1,
                       usecols=(1, 2), ndmin=2)


# The numeric options of gen, preprocess and evaluate, and the values a
# property gives them: as flags, and as config values, which also take a
# fraction and a float too large for any count.
NUMERIC_OPTIONS = {
    "gen": ("classes", "per_class", "joints", "frames", "class_spread", "noise",
            "seed"),
    "preprocess": ("root_joint", "target_frames", "dtw_threshold"),
    "evaluate": ("seed", "outer_folds", "inner_folds", "pca_dim", "workers"),
}
FLAG_VALUES = [0, -1, 1, 2, 2**62]
CONFIG_VALUES = [*FLAG_VALUES, 2.5, 1e308]
# The options each command is given when the property sets none: a
# 3 x 6 set of 2 joints x 5 frames, evaluated over 2 inner folds.
BASE_OPTIONS = {
    "gen": {"classes": 3, "per_class": 6, "joints": 2, "frames": 5,
            "class_spread": 4.0, "noise": 0.4},
    "preprocess": {},
    "evaluate": {"inner_folds": 2},
}


@pytest.mark.parametrize("command", list(NUMERIC_OPTIONS))
@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_numeric_options_end_in_a_documented_exit(tmp_path_factory, command, data):
    # Each drawn option is a flag or a config value; argparse accepts every
    # flag value drawn, so each refusal is the program's own. Every count
    # is 2 or less or far past the memory check, so nothing large is
    # allocated; a large --workers starts at most one thread per fold.
    placed = st.one_of(
        st.tuples(st.just("flag"), st.sampled_from(FLAG_VALUES)),
        st.tuples(st.just("config"), st.sampled_from(CONFIG_VALUES)),
    )
    drawn = data.draw(st.dictionaries(
        st.sampled_from(NUMERIC_OPTIONS[command]), placed, min_size=1))
    folder = tmp_path_factory.mktemp("numeric")
    out = folder / ("out.json" if command == "evaluate" else "out.jsonl")
    argv = [command, "--output", out]
    if command != "gen":
        assert run(*gen_args(folder / "in.jsonl")) == 0
        argv += ["--input", folder / "in.jsonl"]
    if command == "evaluate":
        argv += ["--method", data.draw(st.sampled_from(["mmc", "pca-lda", "identity"]))]
    options = {**BASE_OPTIONS[command], **{k: v for k, (_, v) in drawn.items()}}
    config = {k: v for k, (where, v) in drawn.items() if where == "config"}
    for key, value in options.items():
        if key not in config:
            argv += [f"--{key.replace('_', '-')}", value]
    if config:
        (folder / "config.json").write_text(json.dumps(config))
        argv += ["--config", folder / "config.json"]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run(*argv)
    assert code in DOCUMENTED_EXITS
    assert "Traceback" not in stderr.getvalue()
    # Drawn integers are at most 2**62, and no product of four of them has
    # 100 digits; a run that long is a config float past 2**53 read as the
    # exact integer it rounds to (1e308 has 309 digits) and printed whole.
    assert not re.search(r"\d{100}", stderr.getvalue())
    if code == 0:
        assert stderr.getvalue() == ""
        assert out.exists()
    else:
        assert re.fullmatch(r"marginforge: [A-Za-z]+: [^\n]*\n", stderr.getvalue())
        assert not out.exists()


# The options of gen, preprocess, learn and evaluate that name no file,
# the flags each is given where a config sets none, and config values of
# every JSON type but numbers: none but null is a value any of them takes.
CONFIG_OPTIONS = {
    "gen": ("classes", "per_class", "joints", "frames", "class_spread", "noise",
            "seed", "format"),
    "preprocess": ("root_joint", "up_axis", "target_frames", "dtw_threshold",
                   "format"),
    "learn": ("method", "pca_dim", "format"),
    "evaluate": ("method", "seed", "outer_folds", "inner_folds", "pair_policy",
                 "pca_dim", "workers", "format"),
}
CONFIG_FLAGS = {
    "gen": BASE_OPTIONS["gen"],
    "preprocess": {},
    "learn": {"method": "pca-lda", "pca_dim": 2},
    "evaluate": {"method": "pca-lda", "inner_folds": 2},
}
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(["7", "a"]))
NON_NUMBERS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["7", "2.5", "nan", "1e400", "abc"]),
    st.lists(JSON_SCALARS, max_size=2),
    st.dictionaries(st.sampled_from(["a", "7"]), JSON_SCALARS, max_size=2),
)


@pytest.mark.parametrize("command", list(CONFIG_OPTIONS))
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_config_values_that_are_not_numbers_end_in_a_documented_exit(
    tmp_path_factory, command, data
):
    # A null counts as unset; any other value here is of the wrong type for
    # its option and is refused (exit 2) before any output is written.
    config = data.draw(st.dictionaries(
        st.sampled_from(CONFIG_OPTIONS[command]), NON_NUMBERS, min_size=1))
    folder = tmp_path_factory.mktemp("config")
    out = folder / ("out.json" if command == "evaluate" else "out.jsonl")
    argv = [command, "--output", out, "--config", folder / "config.json"]
    if command != "gen":
        assert run(*gen_args(folder / "in.jsonl")) == 0
        argv += ["--input", folder / "in.jsonl"]
    for key, value in CONFIG_FLAGS[command].items():
        if key not in config:
            argv += [f"--{key.replace('_', '-')}", value]
    (folder / "config.json").write_text(json.dumps(config))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run(*argv)
    assert code in DOCUMENTED_EXITS - {1}
    if any(value is not None for value in config.values()):
        assert code == 2
    if code == 0:
        assert stderr.getvalue() == ""
        assert out.exists()
    else:
        assert re.fullmatch(r"marginforge: [A-Za-z]+: [^\n]*\n", stderr.getvalue())
        assert not out.exists()


HEADLINE_KEYS = ("dbi", "di", "sc", "fdr", "ccr", "eer", "auc", "map")


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    field=st.sampled_from(["method", *HEADLINE_KEYS]),
    text=st.one_of(
        st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=4))
        .map(json.dumps),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
            | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=2)
            | st.dictionaries(st.text(max_size=2), inner, max_size=2),
            max_leaves=4,
        ).map(json.dumps),
        st.sampled_from(["1e400", "-1e400", "1" + "0" * 400]),
    ),
)
def test_compare_of_an_edited_report_shows_finite_numbers_or_exits_3_or_4(
    tmp_path_factory, field, text
):
    # One headline value or config.method of a valid report set to a JSON
    # value of any type, or to a literal past the float64 range (json reads
    # 1e400 as inf). json.dumps writes an infinite float as Infinity, a
    # token the report reader refuses (exit 3).
    report = {"config": {"method": "mmc"},
              "headline": dict.fromkeys(HEADLINE_KEYS, 0.5)}
    section = "config" if field == "method" else "headline"
    report[section][field] = "@edit@"
    path = tmp_path_factory.mktemp("compare") / "report.json"
    path.write_text(json.dumps(report).replace('"@edit@"', text))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run("compare", path)
    if code == 0:
        assert stderr.getvalue() == ""
        row = stdout.getvalue().splitlines()[-1]
        if field == "method":
            assert row.endswith("    0.5000" * 8)
        else:
            # Eight cells, each n/a or a finite number with four decimals,
            # and a space before each.
            assert re.fullmatch(r"mmc   ( +(n/a|-?\d+\.\d{4})){8}", row)
    else:
        assert code in (3, 4)
        assert stdout.getvalue() == ""
        assert re.fullmatch(
            r"marginforge: (ParseError|SchemaError): report [^\n]*\n",
            stderr.getvalue(),
        )


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_datasets_end_in_a_documented_exit(tmp_path_factory, fmt, data):
    # One byte of a valid 3 x 6 set (2 joints x 3 frames) set to any value,
    # or the file cut at any offset: evaluate and preprocess each exit 0,
    # or with a documented code other than 1 and one error line.
    folder = tmp_path_factory.mktemp("mutated")
    valid = folder / f"valid.{fmt}"
    assert run("gen", "--classes", 3, "--per-class", 6, "--joints", 2,
               "--frames", 3, "--output", valid) == 0
    raw = bytearray(valid.read_bytes())
    offset = data.draw(st.integers(0, len(raw)), label="offset")
    if offset < len(raw) and data.draw(st.booleans(), label="flip"):
        raw[offset] = data.draw(st.integers(0, 255), label="byte")
    else:
        del raw[offset:]
    path = folder / f"data.{fmt}"
    path.write_bytes(raw)
    for argv in (
        ("evaluate", "--inner-folds", 2, "--output", folder / "r.json"),
        ("preprocess", "--output", folder / "p.jsonl"),
    ):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = run(*argv, "--input", path)
        assert "Traceback" not in stderr.getvalue()
        if code != 0:
            assert code in DOCUMENTED_EXITS - {1}
            assert re.fullmatch(r"marginforge: [A-Za-z]+: [^\n]*\n", stderr.getvalue())
    if fmt == "csv":
        # The fast reader's contract: a file it loads reads as the row
        # parser reads it.
        try:
            loaded = load_dataset(path, format="csv").samples
        except MarginforgeError:
            return
        rows = _read_csv_rows(path)
        assert [(s.sample_id, s.label) for s in loaded] == [
            (s.sample_id, s.label) for s in rows]
        assert [s.frames.tobytes() for s in loaded] == [s.frames.tobytes() for s in rows]


def numeric_flags():
    """(command, flag) for every int and float option of every command."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, a.option_strings[0]) for name, command in sub.choices.items()
            for a in command._actions if a.type in (int, float)]


EXTREME_FLAG_VALUES = ("nan", "inf", "-inf", "-1", "0", str(10**30))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(case=st.sampled_from([
    (command, flag, value)
    for (command, flag), value in itertools.product(numeric_flags(),
                                                     EXTREME_FLAG_VALUES)
    # A valid worker count this large would be a pool of that many threads.
    if (flag, value) != ("--workers", str(10**30))
]))
def test_numeric_flags_at_extremes_end_in_a_documented_exit(tmp_path_factory, case):
    # Each value reaches the option's type, as --flag=value and as
    # --flag value alike: argparse's own exit 2 (SystemExit) when the type
    # cannot read it, else exit 0 or a documented code other than 1 with
    # one error line. The two forms end the same way, which fails loudly
    # if argparse renames the negative-number pattern the parser widens.
    command, flag, value = case
    folder = tmp_path_factory.mktemp("flags")
    data = folder / "data.jsonl"
    assert run("gen", "--classes", 3, "--per-class", 6, "--joints", 2,
               "--frames", 3, "--output", data) == 0
    argv = {
        "gen": ("gen", "--classes", 3, "--per-class", 6, "--joints", 2,
                "--frames", 3),
        "preprocess": ("preprocess", "--input", data),
        "learn": ("learn", "--input", data, "--method", "pca-lda"),
        "evaluate": ("evaluate", "--input", data, "--inner-folds", 2,
                     *(("--method", "pca-lda") if flag == "--pca-dim" else ())),
    }[command]
    outcomes = []
    for given in ((f"{flag}={value}",), (flag, value)):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                ending = ("return", run(*argv, "--output", folder / "out", *given))
            except SystemExit as exc:
                ending = ("exit", exc.code)
        outcomes.append((ending, stderr.getvalue()))
    assert outcomes[0] == outcomes[1]
    (how, code), err = outcomes[0]
    if how == "exit":
        assert code == 2
        assert f"error: argument {flag}: invalid" in err
        return
    assert "Traceback" not in err
    if code != 0:
        assert code in DOCUMENTED_EXITS - {1}
        assert re.fullmatch(r"marginforge: [A-Za-z]+: [^\n]*\n", err)


REPORT_SCHEMA = json.loads(
    resources.files("marginforge").joinpath("schemas/report.schema.json").read_text()
)


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(
    classes=st.integers(2, 4),
    per_class=st.integers(6, 8),
    joints=st.integers(1, 2),
    frames=st.integers(2, 4),
    noise=st.sampled_from([0.0, 0.4]),
    seed=st.integers(0, 2**16),
    method=st.sampled_from(["mmc", "pca-lda", "identity"]),
    policy=st.sampled_from(["all", "class-best"]),
)
def test_reports_round_trip_and_match_the_schema(
    tmp_path_factory, classes, per_class, joints, frames, noise, seed, method, policy
):
    # The report evaluate writes reloads to the value run_protocol gives
    # on the same set and plan, and validates against the shipped schema;
    # each curve CSV beside it holds that run's curve.
    folder = tmp_path_factory.mktemp("report")
    data, out = folder / "data.jsonl", folder / "r.json"
    assert run(
        "gen", "--classes", classes, "--per-class", per_class, "--joints", joints,
        "--frames", frames, "--noise", noise, "--seed", seed, "--output", data,
    ) == 0
    assert run(
        "evaluate", "--input", data, "--output", out, "--method", method,
        "--pair-policy", policy, "--inner-folds", 2,
    ) == 0
    report = load_json(out, what="report")
    jsonschema.validate(instance=report, schema=REPORT_SCHEMA)
    dataset = load_dataset(data)
    want = run_protocol(
        dataset, method, plan_folds(dataset, inner=2),
        pair_policy=policy.replace("-", "_"),
    )
    assert report == want.to_json_dict()
    for kind, series in want.curves.items():
        assert (folder / f"r.{kind}.csv").read_text() == curve_csv_text(series)


class TestLogEnvironment:
    def test_unknown_level_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MARGINFORGE_LOG", "banana")
        assert run(*gen_args(tmp_path / "x.jsonl")) == 0

    @pytest.mark.parametrize("name", ["BASIC_FORMAT", "_styles"])
    def test_a_logging_attribute_that_is_no_level_falls_back(self, tmp_path, name):
        # In a fresh process, where basicConfig sets the root level; under
        # pytest the root logger already has handlers and it does nothing.
        src = os.path.dirname(os.path.dirname(marginforge.__file__))
        argv = map(str, gen_args(tmp_path / "x.jsonl"))
        done = subprocess.run(
            [sys.executable, "-m", "marginforge.cli", *argv],
            env={**os.environ, "PYTHONPATH": src, "MARGINFORGE_LOG": name},
            capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")

    def test_learn_logs_each_learner_finding(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(learners, "OFF_DIAGONAL_WARN", -1.0)
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        with caplog.at_level(logging.WARNING, logger="marginforge"):
            assert run("learn", "--input", data, "--output", tmp_path / "t.json") == 0
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert record.getMessage().startswith(
            "RuntimeWarning: between-class scatter not diagonalized: "
        )


def test_import_leaves_scipy_unloaded():
    # scipy.spatial was most of the package's import time, which every
    # CLI call pays; no module of the package imports it.
    src = os.path.dirname(os.path.dirname(marginforge.__file__))
    code = "import sys, marginforge.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False\n"


SCIPY_BLOCKED = """
import json
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
from marginforge.cli import main

for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
print("scipy" in sys.modules)
"""


def run_scipy_blocked(commands):
    """Run CLI commands in one fresh interpreter that cannot import scipy;
    return its stdout, which says whether scipy got loaded anyway."""
    src = os.path.dirname(os.path.dirname(marginforge.__file__))
    argvs = [[str(a) for a in argv] for argv in commands]
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_evaluate_needs_no_scipy(tmp_path):
    # Separability and matching read one numpy distance matrix; no
    # evaluate run may import scipy, even when it is installed.
    data = tmp_path / "data.jsonl"
    assert run(*gen_args(data)) == 0
    commands = [
        ("evaluate", "--input", data, "--output", tmp_path / f"{method}.json",
         "--method", method, "--outer-folds", 3, "--inner-folds", 2)
        for method in ("mmc", "pca-lda", "identity")
    ]
    assert run_scipy_blocked(commands) == "False\n"
    for method in ("mmc", "pca-lda", "identity"):
        assert (tmp_path / f"{method}.json").exists()


def test_preprocess_needs_no_scipy(tmp_path):
    # The DTW filter's local costs come from a numpy kernel, at a common
    # length and at raw, mixed lengths alike.
    rng = np.random.default_rng(14)
    samples = []
    for label in ("a", "b"):
        for k, frames in enumerate((5, 4, 6, 5, 7)):
            s = walking_sample(
                np.array([1.0, 0.0, 0.5]), frames=frames, label=label,
                sample_id=f"{label}{k}", rng=rng,
            )
            if k == 3:  # an outlier: every non-root joint moved by 5
                s = s.with_frames(s.frames + np.array([[0.0], [5.0], [5.0]]))
            samples.append(s)
    data = tmp_path / "mixed.jsonl"
    save_dataset(LabeledDataset.from_samples(samples), data, format="jsonl")
    common, raw = tmp_path / "common.jsonl", tmp_path / "raw.jsonl"
    dtw = ("preprocess", "--input", data, "--root-joint", 0, "--dtw-threshold", 5.0)
    commands = [
        (*dtw, "--output", common, "--target-frames", 0),
        (*dtw, "--output", raw),
    ]
    assert run_scipy_blocked(commands) == "False\n"
    kept = ["a0", "a1", "a2", "a4", "b0", "b1", "b2", "b4"]
    for path, lengths in ((common, {5}), (raw, {4, 5, 6, 7})):
        got = load_dataset(path, format="jsonl").samples
        assert [s.sample_id for s in got] == kept
        assert {s.frame_count for s in got} == lengths


def raw_cycles(seed, identities, cycles, frames):
    """Raw 3-joint cycles of lengths drawn from the inclusive range frames,
    each walking a random heading from a random start, with the identities
    interleaved. Cycle 1 of each identity is an outlier: every non-root
    joint moved by 5. Returns the samples and the outliers' ids."""
    rng = np.random.default_rng(seed)
    samples = []
    for k in range(cycles):
        for c in range(identities):
            angle = rng.uniform(0.0, 2 * np.pi)
            s = walking_sample(
                1.5 * np.array([np.cos(angle), 0.0, np.sin(angle)]),
                frames=int(rng.integers(frames[0], frames[1], endpoint=True)),
                label=f"id{c}", sample_id=f"id{c}c{k}", rng=rng,
            )
            shift = rng.uniform(-5.0, 5.0, size=3) * np.array([1.0, 0.0, 1.0])
            if k == 1:
                shift = shift + np.array([[0.0], [5.0], [5.0]])
            samples.append(s.with_frames(s.frames + shift))
    return samples, [f"id{c}c1" for c in range(identities)]


class TestPreprocess:
    # Above every inlier's DTW distance to its exemplar and below every
    # outlier's on the sets raw_cycles makes here.
    THRESHOLD = 20.0
    # Peak bytes the command may hold beyond one copy of the frames and the
    # DTW bound: one sample's parsed JSON line, its copies between steps
    # and its CSV text, the samples' Python objects, and numpy's ufunc
    # buffers. The worst case measured on the set below was 118 813.
    SLACK = 128 * 1024

    def argv(self, data, out, target):
        argv = ["preprocess", "--input", data, "--output", out, "--root-joint", 0,
                "--dtw-threshold", self.THRESHOLD]
        return argv if target is None else [*argv, "--target-frames", target]

    @pytest.mark.parametrize("target", [None, 0])
    def test_writes_what_its_steps_compose_to(self, tmp_path, target):
        samples, planted = raw_cycles(15, identities=3, cycles=5, frames=(4, 9))
        data, out = tmp_path / "raw.jsonl", tmp_path / "prep.csv"
        save_dataset(LabeledDataset.from_samples(samples), data, format="jsonl")
        assert run(*self.argv(data, out, target)) == 0

        steps = [center_on_root(align_walk_direction(s, 0), 0) for s in samples]
        if target is not None:
            steps = [resample_time(s, average_length(samples)) for s in steps]
        exemplars = {}
        for s in steps:
            exemplars.setdefault(s.label, s)

        def dtw(s):
            e = exemplars[s.label]
            return rowwise_dtw(cdist(s.frames.reshape(s.frame_count, -1),
                                     e.frames.reshape(e.frame_count, -1)))

        kept = [s for s in steps if dtw(s) <= self.THRESHOLD]
        dropped = {s.sample_id for s in steps} - {s.sample_id for s in kept}
        assert sorted(dropped) == planted
        expected = tmp_path / "expected.csv"
        save_dataset(LabeledDataset.from_samples(kept), expected, format="csv")
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("target", [None, 0])
    def test_holds_one_copy_of_the_frames(self, tmp_path, target):
        samples, _ = raw_cycles(16, identities=4, cycles=12, frames=(40, 60))
        data, out = tmp_path / "raw.jsonl", tmp_path / "prep.csv"
        save_dataset(LabeledDataset.from_samples(samples), data, format="jsonl")
        argv = self.argv(data, out, target)
        assert run(*argv) == 0  # warm up lazy imports and caches
        peak = traced_peak(lambda: run(*argv))

        # Each sample counts at the longer of its raw and resampled lengths.
        t = average_length(samples) if target == 0 else None
        frames = sum(max(s.frame_count, t or 0) * s.frames[0].nbytes for s in samples)
        groups: dict = {}
        for s in samples:
            groups.setdefault(s.label, []).append(t or s.frame_count)
        dtw = max(dtw_bytes(g[1:], t or g[0], 3) for g in groups.values())
        assert peak <= frames + dtw + self.SLACK
