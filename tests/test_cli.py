"""Command-line interface: pipeline wiring, config merge, exit codes."""

import json
import logging
import os
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from scipy.spatial.distance import cdist

import marginforge
from conftest import dtw_bytes, traced_peak, walking_sample
from marginforge import (
    GaitSample,
    LabeledDataset,
    ProtocolConfig,
    align_walk_direction,
    average_length,
    center_on_root,
    learner_for,
    learners,
    load_dataset,
    plan_folds,
    resample_time,
    run_protocol,
    save_dataset,
)
from marginforge.cli import main
from marginforge.errors import ValidationError
from oracles import rowwise_dtw


def run(*argv) -> int:
    return main([str(a) for a in argv])


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
        assert report["config"]["context_source"] == "learning"

    def test_schema_refuses_the_deleted_gallery_context_source(self, tmp_path):
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
        report["config"]["context_source"] = "gallery"
        with pytest.raises(jsonschema.ValidationError, match="'gallery' is not one of"):
            jsonschema.validate(instance=report, schema=schema)

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

    def test_worker_count_is_invisible_in_the_files(self, tmp_path):
        data = tmp_path / "data.jsonl"
        assert run(*gen_args(data)) == 0
        outs = []
        for workers in (1, 8):
            out = tmp_path / f"rpt_w{workers}.json"
            assert run(
                "evaluate",
                "--input", data,
                "--output", out,
                "--method", "mmc",
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
            ({"headline": {"eer": 10**400}}, "headline.eer is too large for a float"),
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
        path.write_text(json.dumps(report))
        assert run("compare", path) == 4
        assert capsys.readouterr().err == (
            f"marginforge: SchemaError: report {path}: {message}\n"
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
        must = {"sample_id": "a string", "label": "a string or null"}[field]
        assert capsys.readouterr().err == (
            f"marginforge: SchemaError: sample {named}: {field} must be {must}\n"
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
        # the cycles' true DTW distances lie far below 1e250. The refusal
        # does not depend on the threshold or on which bound would settle
        # a cycle. A threshold that is not a number >= 0 is refused first.
        grid = np.broadcast_to(
            np.arange(1.0, 4.0)[:, None, None] * np.arange(1.0, 3.0)[None, :, None],
            (3, 2, 3),
        )

        def cycles(path, scale):
            frames = {"e": grid * scale, "neg": -grid * scale, "one": grid}
            samples = [
                GaitSample(frames=f, label="a", sample_id=k) for k, f in frames.items()
            ]
            save_dataset(LabeledDataset.from_samples(samples), path, format="jsonl")
            return path

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

        refused = (
            "marginforge: SchemaError: sample 'e': coordinate magnitude 6e+200 "
            "is too large for DTW costs (limit 1.94e+153)\n"
        )
        for threshold in ("1e250", "inf"):
            assert preprocess(big, threshold) == (4, refused)
            assert not out.exists()
        for threshold in ("nan", "-1"):
            assert preprocess(big, threshold) == (
                2, "marginforge: ContractError: threshold must be >= 0\n"
            )
            assert not out.exists()
        assert preprocess(plain, "inf") == (0, "")
        assert [s.sample_id for s in load_dataset(out).samples] == ["e", "neg", "one"]

    @pytest.mark.parametrize(
        "root, joint, step",
        [
            # Aligned in place (the heading is +z), then the joint's offset
            # from the root is -2.7e308.
            ([[1.7e308, 0, 0], [1.7e308, 0, 1]], [-1e308, 0, 0],
             "centering on root joint 0"),
            # The root travels from x = -1e308 to x = 1e308.
            ([[-1e308, 0, 0], [1e308, 0, 0]], [0, 0, 0], "the walk heading"),
            # Both horizontal components are finite, their length is not.
            ([[0, 0, 0], [1.5e308, 0, 1.5e308]], [1, 2, 3], "the walk heading"),
            # A 45-degree heading turns (B, 0, B) into z = B * sqrt(2).
            ([[0, 0, 0], [1, 0, 1]], [1.7e308, 0, 1.7e308],
             "the rotation onto the walk heading"),
        ],
        ids=["center", "heading", "heading-length", "rotation"],
    )
    def test_root_joint_steps_past_the_float_range_are_4(
        self, tmp_path, capsys, root, joint, step
    ):
        frames = np.array([[r, joint] for r in root], dtype=float)
        sample = GaitSample(frames=frames, label="a", sample_id="s0")
        path = tmp_path / "far.jsonl"
        save_dataset(LabeledDataset.from_samples([sample]), path, format="jsonl")
        out = tmp_path / "out.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(
                "preprocess", "--input", path, "--output", out, "--root-joint", 0
            )
        assert [str(w.message) for w in caught] == []
        assert (code, capsys.readouterr().err) == (
            4,
            f"marginforge: SchemaError: sample 's0': {step} overflows the float64 "
            "range\n",
        )
        assert not out.exists()

    def test_resampling_past_the_float_range_is_4(self, tmp_path, capsys):
        frames = np.zeros((3, 1, 3))
        frames[:, 0, 0] = [1.7e308, -1.7e308, 1.7e308]
        sample = GaitSample(frames=frames, label="a", sample_id="s0")
        path = tmp_path / "steep.jsonl"
        save_dataset(LabeledDataset.from_samples([sample]), path, format="jsonl")
        out = tmp_path / "out.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(
                "preprocess", "--input", path, "--output", out, "--target-frames", 4
            )
        assert [str(w.message) for w in caught] == []
        assert (code, capsys.readouterr().err) == (
            4,
            "marginforge: SchemaError: sample 's0': resampling to 4 frames "
            "overflows the float64 range\n",
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
            run_protocol(dataset, method, plan, ProtocolConfig(pca_dim=pca_dim))
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


class TestLogEnvironment:
    def test_unknown_level_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MARGINFORGE_LOG", "banana")
        assert run(*gen_args(tmp_path / "x.jsonl")) == 0

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
