"""Data model, file round trips, flattening, synthetic generation."""

import json

import numpy as np
import pytest

from marginforge import (
    FlatSample,
    GaitSample,
    LabeledDataset,
    SyntheticSpec,
    flatten,
    generate_synthetic,
    load_dataset,
    save_dataset,
    unflatten,
)
from marginforge.errors import (
    ContractError,
    ParseError,
    SchemaError,
    ValidationError,
)
from oracles import csv_writer_text


def sample(frames, label="a", sample_id="s0"):
    return GaitSample(frames=np.asarray(frames, dtype=float), label=label, sample_id=sample_id)


class TestFlatten:
    def test_layout_one_joint_two_frames(self):
        s = sample([[[1, 2, 3]], [[4, 5, 6]]])
        flat = flatten(s, 2)
        assert flat.vector.tolist() == [1, 2, 3, 4, 5, 6]
        assert flat.dimension == 6

    def test_layout_two_joints_one_frame(self):
        # A single frame is below the GaitSample minimum, so the sample
        # carries two identical frames and only the first is inspected.
        s = sample([[[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0]]])
        flat = flatten(s, 2)
        assert flat.vector[:6].tolist() == [1, 0, 0, 0, 1, 0]

    def test_frame_count_mismatch(self):
        s = sample([[[0, 0, 0]], [[1, 1, 1]]])
        with pytest.raises(ContractError):
            flatten(s, 3)

    def test_unlabeled_sample_rejected(self):
        s = GaitSample(frames=np.zeros((2, 1, 3)), label=None, sample_id="s0")
        with pytest.raises(ContractError):
            flatten(s, 2)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = int(rng.integers(2, 7))
            j = int(rng.integers(1, 5))
            frames = rng.normal(size=(t, j, 3))
            s = sample(frames)
            back = unflatten(flatten(s, t), j, t)
            assert np.array_equal(back.frames, s.frames)
            assert back.label == s.label and back.sample_id == s.sample_id

    def test_unflatten_dimension_check(self):
        flat = FlatSample(vector=np.zeros(6), label="a", sample_id="s0")
        with pytest.raises(ContractError):
            unflatten(flat, 2, 2)


class TestDatasetModel:
    def test_class_index_partitions(self):
        samples = [
            sample(np.zeros((2, 1, 3)), label=lab, sample_id=f"s{i}")
            for i, lab in enumerate(["b", "a", "b", "a", "c"])
        ]
        ds = LabeledDataset.from_samples(samples)
        assert ds.labels == ("a", "b", "c")
        covered = sorted(i for idx in ds.class_index.values() for i in idx)
        assert covered == list(range(5))

    def test_inconsistent_joint_count(self):
        s1 = sample(np.zeros((2, 1, 3)), sample_id="s1")
        s2 = sample(np.zeros((2, 2, 3)), sample_id="s2")
        with pytest.raises(SchemaError):
            LabeledDataset.from_samples([s1, s2])

    def test_no_samples(self):
        with pytest.raises(SchemaError, match="no samples"):
            LabeledDataset.from_samples([])

    def test_duplicate_sample_id_rejected(self):
        # Scoring keys probes by position; a repeated id would make two
        # probes one in the per-id view, so it is refused up front.
        s1 = sample(np.zeros((2, 1, 3)), label="a", sample_id="x")
        s2 = sample(np.ones((2, 1, 3)), label="b", sample_id="x")
        with pytest.raises(SchemaError, match="duplicate sample_id 'x'"):
            LabeledDataset.from_samples([s1, s2])

    def test_non_finite_rejected(self):
        with pytest.raises(SchemaError):
            sample([[[0, 0, np.nan]], [[0, 0, 0]]])


class TestFileFormats:
    def test_jsonl_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = [
            sample(rng.normal(size=(3, 2, 3)), label=lab, sample_id=f"s{i}")
            for i, lab in enumerate(["a", "b"])
        ]
        ds = LabeledDataset.from_samples(samples)
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.num_classes == 2 and back.num_samples == 2
        for s_in, s_out in zip(ds.samples, back.samples):
            assert np.array_equal(s_in.frames, s_out.frames)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        samples = [
            sample(rng.normal(size=(2, 2, 3)), label=lab, sample_id=f"s{i}")
            for i, lab in enumerate(["a", "b", "a"])
        ]
        ds = LabeledDataset.from_samples(samples)
        path = tmp_path / "d.csv"
        save_dataset(ds, path, format="csv")
        back = load_dataset(path, format="csv")
        assert back.num_samples == 3
        for s_in, s_out in zip(ds.samples, back.samples):
            assert np.array_equal(s_in.frames, s_out.frames)

    def test_csv_bytes_match_the_row_writer(self, tmp_path):
        # Ids and labels that csv.writer must quote or keep verbatim, and
        # floats whose repr is signed, subnormal, exponent-form or long.
        special = [-0.0, 5e-324, 1e22, np.pi, -1e-7, 123456.789]
        rng = np.random.default_rng(5)
        names = [("plain", "a"), ("com,ma", ' "q"'), ("line\nbreak", " lead"),
                 (' "quoted"', "a"), ("  two spaces", "cr\rlf\n")]
        samples = []
        for i, (sid, lab) in enumerate(names):
            frames = rng.normal(size=(2 + i, 2, 3))
            frames.reshape(-1)[: len(special)] = special
            samples.append(sample(frames, label=lab, sample_id=sid))
        ds = LabeledDataset.from_samples(samples)
        path = tmp_path / "d.csv"
        save_dataset(ds, path, format="csv")
        assert path.read_bytes() == csv_writer_text(ds).encode()
        back = load_dataset(path, format="csv")
        assert [s.sample_id for s in back.samples] == [s.sample_id for s in ds.samples]
        assert [s.label for s in back.samples] == [s.label for s in ds.samples]
        for s_in, s_out in zip(ds.samples, back.samples):
            assert s_in.frames.tobytes() == s_out.frames.tobytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SchemaError, match="no samples"):
            load_dataset(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(
            {"sample_id": "s0", "label": "a", "frames": [[[0, 0, 0]], [[1, 1, 1]]]}
        )
        path.write_text(good + "\n{broken\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_inconsistent_joints_across_file(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        rows = [
            {"sample_id": "s0", "label": "a",
             "frames": [[[0, 0, 0], [1, 1, 1]], [[0, 0, 0], [1, 1, 1]]]},
            {"sample_id": "s1", "label": "b",
             "frames": [[[0, 0, 0]], [[1, 1, 1]]]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(SchemaError):
            load_dataset(path)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError):
            load_dataset(tmp_path / "x", format="parquet")


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(classes=3, samples_per_class=4, joints=2,
                             frames=5, class_spread=2.0, noise=0.3, seed=7)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.num_samples == b.num_samples == 12
        for s, t in zip(a.samples, b.samples):
            assert np.array_equal(s.frames, t.frames)
            assert s.sample_id == t.sample_id

    def test_zero_noise_duplicates_class_members(self):
        spec = SyntheticSpec(classes=2, samples_per_class=3, joints=1,
                             frames=4, class_spread=1.0, noise=0.0, seed=5)
        ds = generate_synthetic(spec)
        for indices in ds.class_index.values():
            first = ds.samples[indices[0]].frames
            for i in indices[1:]:
                assert np.array_equal(ds.samples[i].frames, first)

    def test_spec_validation(self):
        good = dict(classes=2, samples_per_class=2, joints=1, frames=2,
                    class_spread=1.0, noise=0.0, seed=0)
        for field, bad in [("classes", 1), ("samples_per_class", 1),
                           ("class_spread", 0.0), ("noise", -1.0)]:
            with pytest.raises(ValidationError):
                generate_synthetic(SyntheticSpec(**{**good, field: bad}))
