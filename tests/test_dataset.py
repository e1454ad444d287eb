"""Data model, file round trips, the sample matrix, synthetic generation."""

import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marginforge.dataset
from marginforge import (
    GaitSample,
    LabeledDataset,
    SyntheticSpec,
    flatten_all,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from marginforge.errors import (
    ContractError,
    ParseError,
    SchemaError,
    ValidationError,
)
from marginforge.dataset import MAX_COORDINATE, _read_csv_fast, _read_csv_rows
from oracles import csv_writer_text


def sample(frames, label="a", sample_id="s0"):
    return GaitSample(frames=np.asarray(frames, dtype=float), label=label, sample_id=sample_id)


class TestFlatten:
    def test_layout_one_joint_two_frames(self):
        s = sample([[[1, 2, 3]], [[4, 5, 6]]])
        rows = flatten_all([s])
        assert rows.tolist() == [[1, 2, 3, 4, 5, 6]]
        assert rows.shape == (1, 6)

    def test_layout_two_joints_one_frame(self):
        # A single frame is below the GaitSample minimum, so the sample
        # carries two identical frames and only the first is inspected.
        s = sample([[[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0]]])
        rows = flatten_all([s])
        assert rows[0, :6].tolist() == [1, 0, 0, 0, 1, 0]

    def test_frame_count_mismatch(self):
        s = sample([[[0, 0, 0]], [[1, 1, 1]]])
        longer = sample(np.zeros((3, 1, 3)), sample_id="s1")
        with pytest.raises(ContractError, match="'s1' has 3 frames, expected 2"):
            flatten_all([s, longer])

    def test_no_samples(self):
        with pytest.raises(ContractError, match="no samples"):
            flatten_all([])

    def test_unlabeled_sample_rejected(self):
        # The constructor refuses it, so no unlabeled sample reaches the
        # sample matrix.
        with pytest.raises(SchemaError, match="^sample 's0': label must be a string$"):
            GaitSample(frames=np.zeros((2, 1, 3)), label=None, sample_id="s0")


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
        # Ids and labels that csv.writer must quote or keep verbatim or
        # that hold % directives, and floats whose repr is signed,
        # subnormal, exponent-form or long.
        special = [-0.0, 5e-324, 1e22, np.pi, -1e-7, 123456.789]
        rng = np.random.default_rng(5)
        names = [("plain", "a"), ("com,ma", ' "q"'), ("line\nbreak", " lead"),
                 (' "quoted"', "a"), ("  two spaces", "cr\rlf\n"),
                 ("100%", "%r"), ("%%d", "a,%")]
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

    @pytest.mark.parametrize("format", ["jsonl", "csv"])
    def test_a_failed_save_keeps_the_old_file(self, tmp_path, format):
        # Samples are written as they are formatted, so the error below
        # comes after the temp file holds the first sample's text.
        path = tmp_path / f"d.{format}"
        path.write_bytes(b"old")
        broken = LabeledDataset(samples=(sample(np.zeros((2, 1, 3))), None),
                                joint_count=1, class_index={})
        with pytest.raises(AttributeError):
            save_dataset(broken, path, format=format)
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

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

    def test_true_and_false_outside_frames_load(self, tmp_path):
        # A line that spells true or false has its frames walked; numbers
        # alone still load.
        path = tmp_path / "words.jsonl"
        frames = [[[0, 1.5, 2]], [[1, 1, 1]]]
        row = {"sample_id": "true", "label": "false", "frames": frames}
        path.write_text(json.dumps(row) + "\n")
        (sample,) = load_dataset(path).samples
        assert sample.sample_id == "true" and sample.label == "false"
        assert sample.frames.tolist() == [[[0.0, 1.5, 2.0]], [[1.0, 1.0, 1.0]]]

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


HEADER = "sample_id,label,frame,joint,x,y,z\r\n"
# One well-formed 2-frame, 1-joint sample.
S0 = "s0,a,0,0,1,2,3\r\ns0,a,1,0,4,5,6\r\n"

# (file body after the header, error class, full message). CSV line
# numbers count records: the header is line 1, and a skipped blank
# record still takes a number.
CSV_ERRORS = [
    pytest.param("s0,a,0,0,1,2\r\n", ParseError,
                 "line 2: expected 7 columns, got 6", id="six-columns"),
    pytest.param(S0 + "s1,a,0,0,1,2,3,4\r\n", ParseError,
                 "line 4: expected 7 columns, got 8", id="eight-columns"),
    pytest.param("s0,a,x,0,1,2,3\r\n", ParseError,
                 "line 2: invalid literal for int() with base 10: 'x'", id="bad-int"),
    pytest.param("s0,a,0,0,1,2,3\r\ns0,a,1,0,4,q,6\r\n", ParseError,
                 "line 3: could not convert string to float: 'q'", id="bad-float"),
    pytest.param("s0,a,0,0,1,2,3\r\ns0,b,1,0,4,5,6\r\n", SchemaError,
                 "sample 's0' has conflicting labels", id="conflicting-labels"),
    pytest.param(S0 + "s0,a,0,0,7,8,9\r\n", SchemaError,
                 "sample 's0': duplicate cell (0, 0)", id="duplicate-cell"),
    pytest.param("s0,a,0,0,1,2,3\r\ns0,a,0,0,1,2,3\r\ns0,a,1,1,4,5,6\r\n"
                 "s0,a,1,0,4,5,6\r\n", SchemaError, "sample 's0': duplicate cell (0, 0)",
                 id="duplicate-cell-as-many-rows-as-cells"),
    pytest.param(S0 + "s0,a,0,1,7,8,9\r\n", SchemaError,
                 "sample 's0': incomplete frame/joint grid (3 of 4 cells)",
                 id="incomplete-grid"),
    pytest.param("", SchemaError, "no samples", id="header-only"),
    pytest.param("\r\n", SchemaError, "no samples", id="header-and-blank"),
    pytest.param(S0 + "\r\ns1,b\r\n", ParseError,
                 "line 5: expected 7 columns, got 2", id="blank-line-is-counted"),
    pytest.param("s0,a,0,0,1,nan,3\r\ns0,a,1,0,4,5,6\r\n", SchemaError,
                 "sample 's0': non-finite coordinate", id="non-finite"),
    pytest.param("s0,a,0,0,1,2,3\r\n", SchemaError,
                 "sample 's0': needs at least 2 frames", id="one-frame"),
    # Frame -1 used to index from the end: it overwrote frame 1 and left
    # frame 0 uninitialized, with a grid that looked complete.
    pytest.param("s0,a,-1,0,1,2,3\r\ns0,a,1,0,4,5,6\r\n", ParseError,
                 "line 2: frame and joint must be >= 0, got (-1, 0)",
                 id="negative-frame"),
    pytest.param(S0 + "s1,a,0,-1,1,2,3\r\n", ParseError,
                 "line 4: frame and joint must be >= 0, got (0, -1)",
                 id="negative-joint"),
    # The bad float sends the file to the row parser, whose csv.reader
    # refuses the 140 000-character id before it reaches that row.
    pytest.param(f'"{"s" * 140_000}",a,0,0,1,2,3\r\ns1,b,0,0,x,2,3\r\n',
                 ParseError, "line 2: field larger than field limit (131072)",
                 id="field-over-csv-size-limit"),
]


class TestCsvErrors:
    @pytest.mark.parametrize("body, cls, message", CSV_ERRORS)
    def test_class_message_and_line(self, tmp_path, body, cls, message):
        path = tmp_path / "d.csv"
        path.write_bytes((HEADER + body).encode())
        with pytest.raises(cls) as info:
            load_dataset(path, format="csv")
        assert type(info.value) is cls
        assert str(info.value) == message

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(("id,label,frame,joint,x,y,z\r\n" + S0).encode())
        with pytest.raises(ParseError) as info:
            load_dataset(path, format="csv")
        assert str(info.value) == "line 1: expected header sample_id,label,frame,joint,x,y,z"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"")
        with pytest.raises(SchemaError, match="^no samples$"):
            load_dataset(path, format="csv")

    @pytest.mark.parametrize("body", ["", "\r\n\r\n", "\r\n" + S0, S0 + "\r\n"])
    def test_header_only_and_blank_lines_warn_nothing(self, tmp_path, recwarn, body):
        path = tmp_path / "d.csv"
        path.write_bytes((HEADER + body).encode())
        if S0 in body:
            assert load_dataset(path, format="csv").num_samples == 1
        else:
            with pytest.raises(SchemaError, match="^no samples$"):
                load_dataset(path, format="csv")
        assert len(recwarn) == 0

    def test_loose_header_and_quoting_still_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(
            (' sample_id ,label,frame,joint,x,y,"z"\n'
             '"s0",a,0,0, 1.5 ,2,3\ns0,a,+1,0,4,5,6').encode()
        )
        (s,) = load_dataset(path, format="csv").samples
        assert s.frames.tolist() == [[[1.5, 2.0, 3.0]], [[4.0, 5.0, 6.0]]]


@pytest.mark.parametrize("format, good", [
    pytest.param("csv", HEADER + S0, id="csv"),
    pytest.param("jsonl", '{"sample_id": "s0", "label": "a", '
                 '"frames": [[[0, 0, 0]], [[1, 1, 1]]]}\n', id="jsonl"),
])
def test_non_utf8_input_is_a_parse_error(tmp_path, format, good):
    path = tmp_path / f"d.{format}"
    path.write_bytes(good.encode() + b"s\xff\n")
    with pytest.raises(ParseError) as info:
        load_dataset(path, format=format)
    assert str(info.value) == "not utf-8 text: invalid start byte"


def read_outcome(read, path):
    """(id, label, shape, frame bytes) of each sample read, or the class
    and message of the error raised."""
    try:
        dataset = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return [(s.sample_id, s.label, s.frames.shape, s.frames.tobytes())
            for s in dataset.samples]


def assert_readers_agree(path):
    assert read_outcome(lambda p: load_dataset(p, format="csv"), path) == read_outcome(
        lambda p: LabeledDataset.from_samples(_read_csv_rows(p)), path
    )


# Characters the writer must quote or keep verbatim, that a CSV
# tokenizer may treat as comments or whitespace, and % directives.
CSV_NAME = st.text(alphabet=st.sampled_from(list(',"\r\n #\ta%')), max_size=3)
EDIT = st.tuples(
    st.integers(0, 2**16),
    st.sampled_from(["insert", "delete", "replace"]),
    st.sampled_from(["-", "_", "e", "\x00", "\r\n", ",", '"', "\n", "\r", " ", "1", "."]),
)


@st.composite
def csv_datasets(draw):
    joints = draw(st.integers(1, 2))
    names = draw(st.lists(st.tuples(CSV_NAME, CSV_NAME), min_size=1, max_size=3,
                          unique_by=lambda name: name[0]))
    samples = []
    for sample_id, label in names:
        frames = draw(st.integers(2, 3))
        # A valid sample's domain: finite and within the coordinate bound.
        coords = draw(st.lists(st.floats(-MAX_COORDINATE, MAX_COORDINATE),
                               min_size=frames * joints * 3, max_size=frames * joints * 3))
        samples.append(GaitSample(frames=np.reshape(coords, (frames, joints, 3)),
                                  label=label, sample_id=sample_id))
    return LabeledDataset.from_samples(samples)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(dataset=csv_datasets(), edits=st.lists(EDIT, max_size=3))
def test_csv_reader_matches_the_row_parser(tmp_path_factory, dataset, edits):
    # Either both readers return the same samples bit for bit, or both
    # raise the same error class and message.
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    save_dataset(dataset, path, format="csv")
    if not edits:
        assert _read_csv_fast(path) is not None
    text = path.read_bytes().decode()
    for position, op, chars in edits:
        at = position % (len(text) + 1)
        if op == "insert":
            text = text[:at] + chars + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + chars + text[at + 1:]
    path.write_bytes(text.encode())
    assert_readers_agree(path)


# Files whose every record parses and whose grids are complete, but whose
# first sample the GaitSample gate refuses.
GATE_REFUSALS = [
    pytest.param(f"s0,a,0,0,0,{float(np.nextafter(MAX_COORDINATE, np.inf))!r},0\r\n"
                 "s0,a,1,0,4,5,6\r\n", id="past-the-bound"),
    pytest.param("s0,a,0,0,1,2,3\r\ns1,a,0,0,1,2,3\r\n", id="one-frame"),
    pytest.param(S0 + "s1,a,0,0,1,nan,3\r\ns1,a,1,0,4,5,6\r\n", id="nan-coordinate"),
]


@pytest.mark.parametrize("body", [
    # usecols would drop the eighth column and read the row.
    pytest.param(S0 + "s1,a,0,0,1,2,3,4\r\ns1,a,1,0,4,5,6\r\n", id="extra-column"),
    # Newline translation would turn the quoted \r into \n.
    pytest.param('"x\r",a,0,0,1,2,3\r\n"x\r",a,1,0,4,5,6\r\n', id="cr-in-id"),
    # The fast reader codes ids and labels in order of first appearance.
    pytest.param("s0,a,0,0,1,2,3\r\ns1,b,0,0,7,8,9\r\n"
                 "s0,a,1,0,4,5,6\r\ns1,b,1,0,1,1,1\r\n", id="interleaved-samples"),
    pytest.param("s0,a,0,0,1,2,3\r\ns1,b,0,0,7,8,9\r\n"
                 "s0,b,1,0,4,5,6\r\ns1,b,1,0,1,1,1\r\n", id="one-id-two-labels"),
    pytest.param("a,b,0,0,1,2,3\r\na,b,1,0,4,5,6\r\n"
                 "s1,a,0,0,7,8,9\r\ns1,a,1,0,1,1,1\r\n", id="id-equal-to-a-label"),
    pytest.param('"s0",a,0,0,1,2,3\r\ns0,a,1,0,4,5,6\r\n', id="quoted-and-bare-id"),
    # Coordinates at the bound load; one float past it is refused by both,
    # and so are a one-frame sample and a nan.
    pytest.param(f"s0,a,0,0,{MAX_COORDINATE!r},0,0\r\n"
                 f"s0,a,1,0,{-MAX_COORDINATE!r},0,0\r\n", id="at-the-bound"),
    *GATE_REFUSALS,
    # numpy's parser reads \x1c-\x1f beside a number as blanks: the sign
    # would be dropped, and the frame read as 1.
    pytest.param("s0,a,0,0,1,\x1c2,3\r\ns0,a,1,0,4,5,6\r\n", id="control-for-a-sign"),
    pytest.param("s0,a,0,0,1,2,3\r\ns0,a,1\x1f,0,4,5,6\r\n", id="control-after-a-frame"),
    # numpy's parser reads a non-ASCII character in an int field as a digit,
    # its code point less ord("0"): U+01FE would be read as frame 462.
    pytest.param("".join(f"s0,a,{t},0,1,2,3\r\n" for t in range(462))
                 + "s0,a,\u01fe,0,1,2,3\r\n", id="non-ascii-digit"),
])
def test_csv_reader_traps(tmp_path, body):
    path = tmp_path / "d.csv"
    path.write_bytes((HEADER + body).encode())
    assert_readers_agree(path)


@pytest.mark.parametrize("body", GATE_REFUSALS)
def test_gate_refusals_parse_the_csv_once(tmp_path, monkeypatch, body):
    # The C parser's one pass raises the gate's SchemaError, with the
    # message the row parser gives; the file is not read a second time.
    path = tmp_path / "d.csv"
    path.write_bytes((HEADER + body).encode())
    with pytest.raises(SchemaError) as by_rows:
        _read_csv_rows(path)

    def second_pass(path):
        raise AssertionError("the file was parsed a second time")

    monkeypatch.setattr(marginforge.dataset, "_read_csv_rows", second_pass)
    with pytest.raises(SchemaError) as by_load:
        load_dataset(path, format="csv")
    assert str(by_load.value) == str(by_rows.value)


def test_readme_states_the_coordinate_bound():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    stated = re.findall(r"`MAX_COORDINATE` = 2\^480 \(([^)]*)\)", readme)
    assert stated == [f"{MAX_COORDINATE:.3g}"]


class TestCsvMemory:
    """Traced heap peaks of a CSV round trip, against the 20 000-row file's
    size: both directions hold typed arrays and one sample's text, never a
    Python object per row or the whole file's text."""

    ROWS = 20_000  # 100 samples of 20 frames x 10 joints

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_synthetic(SyntheticSpec(
            classes=10, samples_per_class=10, joints=10, frames=20,
            class_spread=5.0, noise=0.5, seed=1))

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_load_peak_per_row(self, tmp_path, dataset):
        path = tmp_path / "d.csv"
        save_dataset(dataset, path, format="csv")
        back, peak = self.traced_peak(lambda: load_dataset(path, format="csv"))
        assert sum(s.frames.shape[0] * s.frames.shape[1] for s in back.samples) == self.ROWS
        assert peak <= 160 * self.ROWS

    def test_save_peak_against_file_size(self, tmp_path, dataset):
        path = tmp_path / "d.csv"
        _, peak = self.traced_peak(lambda: save_dataset(dataset, path, format="csv"))
        assert peak <= 0.5 * path.stat().st_size


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
