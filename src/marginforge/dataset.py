"""Labeled gait samples: data model, file ingestion, synthetic generation.

A gait sample is one gait cycle stored as a (T, J, 3) array of 3D joint
coordinates in meters. flatten_all stacks time-normalized samples into
the sample matrix the learners read, one D = 3*J*T row per sample, laid
out frame-major, joint-minor, coordinate-innermost:
[x11 y11 z11 ... xJ1 yJ1 zJ1 ... xJT yJT zJT].

Loads, gen and every preprocess step make their samples through
GaitSample, whose one gate, MAX_COORDINATE, keeps the sums and steps
later stages form from coordinates finite.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ._jsonio import atomic_write_text
from .errors import ContractError, ParseError, SchemaError, ValidationError

CSV_HEADER = ["sample_id", "label", "frame", "joint", "x", "y", "z"]

MAX_COORDINATE = 2.0**480  # about 3.12e144: see GaitSample


@dataclass(frozen=True, eq=False)
class GaitSample:
    """One gait cycle: frames of shape (T, J, 3) and its identity label.

    A coordinate that is not finite, or past MAX_COORDINATE = 2^480 in
    magnitude, raises SchemaError naming the sample. The bound keeps what
    later stages form from coordinates finite. Two coordinates differ by
    at most 2^481, so any 2^60 squared differences sum to at most 2^1022,
    a quarter of the float64 maximum, and a dataset that fits in memory
    has N * D < 2^60 coordinates (8 EiB). That bounds the DTW local
    costs, the distances between raw rows, the scatter sums and the
    noise-floor edge (at most 7/3 of such a sum, as D >= 6); the filter
    bounds chain under 2^61 costs of at most 2^511, and a class mean sums
    under 2^60 coordinates. Rounding lifts a sum of nonnegative terms by
    less than the factor 1.65 for any addition tree under 2^52 deep.
    Centering, the walk heading and the rotation form values of at most
    2^482, and a resampling slope divides a difference by a frame step of
    at least 2^-60. A step whose output passes the bound is refused when
    its output sample is made.
    """

    frames: np.ndarray
    label: str
    sample_id: str

    def __post_init__(self):
        if not isinstance(self.sample_id, str):
            raise SchemaError(f"sample {self.sample_id!r}: sample_id must be a string")
        if not isinstance(self.label, str):
            raise SchemaError(f"sample {self.sample_id!r}: label must be a string")
        frames = np.array(self.frames, dtype=np.float64, order="C")  # own copy
        if frames.ndim != 3 or frames.shape[2] != 3:
            raise SchemaError(
                f"sample {self.sample_id!r}: frames must have shape (T, J, 3), "
                f"got {frames.shape}"
            )
        if frames.shape[0] < 2:
            raise SchemaError(f"sample {self.sample_id!r}: needs at least 2 frames")
        if frames.shape[1] < 1:
            raise SchemaError(f"sample {self.sample_id!r}: needs at least 1 joint")
        magnitude = np.abs(frames).max()  # nan if any coordinate is nan
        if not magnitude <= MAX_COORDINATE:
            if not np.isfinite(magnitude):
                raise SchemaError(f"sample {self.sample_id!r}: non-finite coordinate")
            raise SchemaError(
                f"sample {self.sample_id!r}: coordinate magnitude {float(magnitude)} "
                f"is past the limit {MAX_COORDINATE:.3g}"
            )
        frames.flags.writeable = False
        object.__setattr__(self, "frames", frames)

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def joint_count(self) -> int:
        return self.frames.shape[1]

    def with_frames(self, frames: np.ndarray) -> "GaitSample":
        """Copy of this sample with new coordinates, keeping id and label."""
        return GaitSample(frames=frames, label=self.label, sample_id=self.sample_id)


@dataclass(frozen=True)
class LabeledDataset:
    """A collection of labeled gait samples partitioned into identity classes.

    class_index maps each label to the indices of its samples, in sorted
    label order; every sample index appears under exactly one label.
    """

    samples: tuple
    joint_count: int
    class_index: Mapping[str, tuple]

    @classmethod
    def from_samples(cls, samples: Iterable[GaitSample]) -> "LabeledDataset":
        samples = tuple(samples)
        if not samples:
            raise SchemaError("no samples")
        joint_count = samples[0].joint_count
        index: dict[str, list[int]] = {}
        seen: set[str] = set()
        for i, s in enumerate(samples):
            if s.sample_id in seen:
                raise SchemaError(f"duplicate sample_id {s.sample_id!r}")
            seen.add(s.sample_id)
            if s.joint_count != joint_count:
                raise SchemaError(
                    f"inconsistent joint counts: sample {s.sample_id!r} has "
                    f"{s.joint_count} joints, expected {joint_count}"
                )
            index.setdefault(s.label, []).append(i)
        class_index = {label: tuple(index[label]) for label in sorted(index)}
        return cls(samples=samples, joint_count=joint_count, class_index=class_index)

    @property
    def labels(self) -> tuple:
        return tuple(self.class_index)

    @property
    def num_classes(self) -> int:
        return len(self.class_index)

    @property
    def num_samples(self) -> int:
        return len(self.samples)


def flatten_all(samples: Sequence[GaitSample]) -> np.ndarray:
    """The (N, D) sample matrix: row n is sample n's frames flattened.

    Every sample must have the first one's frame count T, the
    dataset-wide normalized length; any other length is a contract
    violation rather than silently resampled. Every sum that learning and
    matching form over the matrix stays finite by GaitSample's bound.
    """
    if not samples:
        raise ContractError("no samples")
    frame_count = samples[0].frame_count
    for s in samples:
        if s.frame_count != frame_count:
            raise ContractError(
                f"sample {s.sample_id!r} has {s.frame_count} frames, "
                f"expected {frame_count}: run preprocess with --target-frames first"
            )
    return np.stack([s.frames.reshape(-1) for s in samples])


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the Gaussian synthetic-dataset generator."""

    classes: int
    samples_per_class: int
    joints: int
    frames: int
    class_spread: float  # scale of the per-class mean trajectories
    noise: float  # scale of the per-sample perturbations
    seed: int = 0

    def validate(self):
        """Raise ValidationError for a spec that cannot make a dataset.

        A spread and noise whose draws could pass MAX_COORDINATE (read at
        each call) are refused before any draw: numpy's ziggurat normal
        returns rabs * w < r = 3.6542 from a 52-bit rabs, or, in its tail,
        r - log1p(-u) / r with a 53-bit uniform u <= 1 - 2^-53, which is
        below 3.6542 + 53 ln 2 / 3.6542 < 13.8. So a mean and its noise
        stay below 13.8 * (class_spread + noise) with rounding, and
        16 * (class_spread + noise) <= MAX_COORDINATE is enough.
        """
        if self.classes < 2:
            raise ValidationError("need at least 2 classes")
        if self.samples_per_class < 2:
            raise ValidationError("need at least 2 samples per class")
        if self.joints < 1:
            raise ValidationError("need at least 1 joint")
        if self.frames < 2:
            raise ValidationError("need at least 2 frames")
        if not self.class_spread > 0 or not math.isfinite(self.class_spread):
            raise ValidationError("class_spread must be finite and > 0")
        if not self.noise >= 0 or not math.isfinite(self.noise):
            raise ValidationError("noise must be finite and >= 0")
        if not 16 * (self.class_spread + self.noise) <= MAX_COORDINATE:
            raise ValidationError(
                f"class_spread + noise must be at most {MAX_COORDINATE / 16:.3g}, "
                f"so that every draw is within the limit {MAX_COORDINATE:.3g}"
            )
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        samples = int(self.classes) * int(self.samples_per_class)
        check_fits_in_memory(samples * int(self.frames) * int(self.joints) * 3, samples)


SAMPLE_OVERHEAD = 600  # bytes a sample needs besides its coordinates


def check_fits_in_memory(coordinates: int, samples: int):
    """Refuse, before anything is allocated, a dataset of that many float64
    coordinates in that many samples when it would need more bytes than
    the machine's memory: 8 per coordinate and SAMPLE_OVERHEAD per sample.
    The overhead was measured with tracemalloc: generate_synthetic's
    20 000 samples of 1 joint x 2 frames, 48 coordinate bytes each, peaked
    at 531-586 bytes per sample in classes of 10 to 2000."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    needed = 8 * coordinates + SAMPLE_OVERHEAD * samples
    if needed > memory:
        raise ValidationError(
            f"the dataset would hold {coordinates} coordinates ({needed} "
            f"bytes), more than this machine's {memory} bytes of memory"
        )


def generate_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Generate a labeled dataset of noisy copies of per-class mean trajectories.

    Each class mean trajectory is drawn from an isotropic Gaussian with scale
    spec.class_spread; each sample adds isotropic Gaussian noise with scale
    spec.noise. Pure function of spec: the same spec yields the same dataset.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    shape = (spec.frames, spec.joints, 3)
    samples = []
    for c in range(spec.classes):
        label = f"id{c:03d}"
        mean = rng.normal(0.0, spec.class_spread, size=shape)
        for k in range(spec.samples_per_class):
            frames = mean + rng.normal(0.0, spec.noise, size=shape)
            samples.append(
                GaitSample(frames=frames, label=label, sample_id=f"{label}s{k:03d}")
            )
    return LabeledDataset.from_samples(samples)


def load_dataset(path, format: str = "jsonl") -> LabeledDataset:
    """Load a dataset file in the jsonl or csv on-disk format."""
    try:
        if format == "jsonl":
            samples = _load_jsonl(path)
        elif format == "csv":
            samples = _read_csv_fast(path) or _read_csv_rows(path)
        else:
            raise ValidationError(f"unknown dataset format {format!r}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not {exc.encoding} text: {exc.reason}") from exc
    return LabeledDataset.from_samples(samples)


def save_dataset(dataset: LabeledDataset, path, format: str = "jsonl"):
    """Write a dataset file atomically, one sample's text at a time;
    coordinates round-trip exactly."""
    if format == "jsonl":
        chunks = (
            json.dumps({
                "sample_id": s.sample_id,
                "label": s.label,
                "frames": s.frames.tolist(),
            }) + "\n"
            for s in dataset.samples
        )
    elif format == "csv":
        chunks = _csv_chunks(dataset.samples)
    else:
        raise ValidationError(f"unknown dataset format {format!r}")
    atomic_write_text(path, chunks)


def _csv_chunks(samples):
    """The csv file's text: the header, then one string per sample.

    csv.writer quotes the two text fields; the numeric fields never need
    quoting, so each sample's text is one %-format: its quoted key, with
    every % doubled, before each of its (T, J) shape's ",t,j,%r,%r,%r"
    cells and the CRLF terminator csv.writer writes, applied to its
    coordinates. %r is the float's repr. The cells are rebuilt only when
    the shape changes.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_HEADER)
    yield buffer.getvalue()
    shape = cells = None
    for s in samples:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([s.sample_id, s.label])
        key = buffer.getvalue()[:-2].replace("%", "%%")
        if s.frames.shape != shape:
            shape = s.frames.shape
            cells = [f",{t},{j},%r,%r,%r\r\n"
                     for t in range(shape[0]) for j in range(shape[1])]
        yield (key + key.join(cells)) % tuple(s.frames.reshape(-1).tolist())


def _load_jsonl(path) -> list:
    samples = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                # An integer parses as the float that the CSV reader's
                # float() gives, so one too large to hold is non-finite.
                record = json.loads(line, parse_int=float)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            except RecursionError as exc:
                raise ParseError(f"line {lineno}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise ParseError(f"line {lineno}: a record must be a JSON object")
            try:
                sample_id, label, frames = (
                    record[key] for key in ("sample_id", "label", "frames"))
            except KeyError as exc:
                raise ParseError(f"line {lineno}: missing field {exc}") from exc
            try:
                # No dtype: float() would read "1.5" and true as numbers.
                array = np.asarray(frames)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: ragged frames array") from exc
            # Numbers alone (all floats here) give float64, but so do true and
            # false among them, as 1.0 and 0.0: a line that may hold one is walked.
            if array.dtype != np.float64 or (
                np.any((array == 0.0) | (array == 1.0))
                and ("true" in line or "false" in line)
            ):
                _refuse_non_numbers(frames, lineno)
            samples.append(GaitSample(frames=array, label=label, sample_id=sample_id))
    return samples


def _refuse_non_numbers(frames, lineno: int):
    """Raise ParseError at the first leaf of a JSON value of nested lists
    that is not a float: a string, a boolean, null or an object."""
    stack = [frames]
    while stack:
        value = stack.pop()
        if isinstance(value, list):
            stack.extend(reversed(value))
        elif isinstance(value, dict):
            raise ParseError(f"line {lineno}: frames hold a JSON object")
        elif type(value) is not float:
            raise ParseError(
                f"line {lineno}: coordinate {json.dumps(value)} is not a number"
            )


# One CSV record: sample_id,label,frame,joint,x,y,z, with the id and
# label read as int codes.
_CSV_RECORD = np.dtype([
    ("sample_id", np.int64),
    ("label", np.int64),
    ("frame", np.int64),
    ("joint", np.int64),
    ("xyz", np.float64, (3,)),
])


def _coder() -> defaultdict:
    """A map that gives each new key the next int code, in order of first
    appearance; its __getitem__ is a C-level converter for loadtxt."""
    codes = defaultdict()
    codes.default_factory = codes.__len__
    return codes


def _read_csv_fast(path) -> Optional[list]:
    """The samples of a csv dataset file, read by numpy's C parser, or None.

    None means the file does not open with the header the writer writes,
    or fails a check; _read_csv_rows then reads it and raises any error.
    The first sample GaitSample refuses raises here, as in the row parser.
    numpy's parser reads the control bytes 0x1C-0x1F beside a number as
    blanks, and a non-ASCII character in an int field as a digit, where
    int() and float() refuse them: a file holding one, or any byte past
    ASCII, is None.
    """
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if not chunk.isascii() or any(c in chunk for c in range(0x1C, 0x20)):
                return None
    ids, labels = _coder(), _coder()
    # newline="" keeps a quoted \r in an id or label as written.
    with open(path, newline="") as fh:
        if fh.readline().rstrip("\r\n") != ",".join(CSV_HEADER):
            return None
        body = fh.tell()
        # loadtxt warns on a body without rows, so a blank first record
        # goes to the row parser.
        if not fh.readline().strip():
            return None
        fh.seek(body)
        try:
            # Every field is typed, so a row with an extra column raises.
            rows = np.loadtxt(fh, dtype=_CSV_RECORD, delimiter=",", quotechar='"',
                              comments=None, ndmin=1,
                              converters={0: ids.__getitem__, 1: labels.__getitem__})
        except ValueError:  # includes UnicodeDecodeError
            return None

    code, label = rows["sample_id"], rows["label"]
    frame, joint = rows["frame"], rows["joint"]
    first = np.unique(code, return_index=True)[1]
    if (label != label[first][code]).any() or min(frame.min(), joint.min()) < 0:
        return None
    counts = np.bincount(code)
    last_frame = np.zeros(len(first), np.int64)
    last_joint = np.zeros(len(first), np.int64)
    np.maximum.at(last_frame, code, frame)
    np.maximum.at(last_joint, code, joint)
    # A complete grid has no index past its cell count; checking that
    # first keeps the products below from overflowing.
    if (last_frame >= counts).any() or (last_joint >= counts).any():
        return None
    n_frames, n_joints = last_frame + 1, last_joint + 1
    sizes = n_frames * n_joints
    if (sizes != counts).any():
        return None
    # Each sample's cells fill its own block of the flat frame buffer;
    # as many cells as slots, so every slot hit once means no duplicate.
    starts = np.cumsum(sizes) - sizes
    cell = starts[code] + frame * n_joints[code] + joint
    if (np.bincount(cell, minlength=len(rows)) != 1).any():
        return None
    flat = np.empty((len(rows), 3))
    flat[cell] = rows["xyz"]
    names = list(labels)
    sample_labels = [names[c] for c in label[first].tolist()]
    # Free the records before each sample copies its frames out of flat.
    del rows, code, label, frame, joint, cell
    return [
        GaitSample(frames=flat[a : a + t * j].reshape(t, j, 3), label=sample_label,
                   sample_id=sample_id)
        for sample_id, sample_label, a, t, j in zip(
            ids, sample_labels, starts.tolist(), n_frames.tolist(), n_joints.tolist())
    ]


def _csv_rows(fh):
    """csv.reader over fh whose errors, such as a field longer than the
    csv module's size limit, are ParseErrors naming the line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from exc


def _read_csv_rows(path) -> list:
    """Read a csv dataset file one record at a time; raises the error, with
    its line number, of a file that is not well-formed."""
    # rows: sample_id,label,frame,joint,x,y,z sorted by (sample_id, frame, joint)
    order = []
    cells: dict[str, dict] = {}
    labels: dict[str, str] = {}
    with open(path, newline="") as fh:
        reader = _csv_rows(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("no samples") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise ParseError(f"line 1: expected header {','.join(CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 7:
                raise ParseError(f"line {lineno}: expected 7 columns, got {len(row)}")
            sample_id, label = row[0], row[1]
            try:
                t, j = int(row[2]), int(row[3])
                xyz = (float(row[4]), float(row[5]), float(row[6]))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if t < 0 or j < 0:
                raise ParseError(
                    f"line {lineno}: frame and joint must be >= 0, got ({t}, {j})"
                )
            if sample_id not in cells:
                order.append(sample_id)
                cells[sample_id] = {}
                labels[sample_id] = label
            elif labels[sample_id] != label:
                raise SchemaError(f"sample {sample_id!r} has conflicting labels")
            if (t, j) in cells[sample_id]:
                raise SchemaError(f"sample {sample_id!r}: duplicate cell ({t}, {j})")
            cells[sample_id][(t, j)] = xyz

    samples = []
    for sample_id in order:
        grid = cells[sample_id]
        n_frames = max(t for t, _ in grid) + 1
        n_joints = max(j for _, j in grid) + 1
        if len(grid) != n_frames * n_joints:
            raise SchemaError(
                f"sample {sample_id!r}: incomplete frame/joint grid "
                f"({len(grid)} of {n_frames * n_joints} cells)"
            )
        frames = np.empty((n_frames, n_joints, 3))
        for (t, j), xyz in grid.items():
            frames[t, j] = xyz
        samples.append(
            GaitSample(frames=frames, label=labels[sample_id], sample_id=sample_id)
        )
    return samples
