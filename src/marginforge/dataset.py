"""Labeled gait samples: data model, file ingestion, synthetic generation.

A gait sample is one gait cycle stored as a (T, J, 3) array of 3D joint
coordinates in meters. flatten_all stacks time-normalized samples into
the sample matrix the learners read, one D = 3*J*T row per sample, laid
out frame-major, joint-minor, coordinate-innermost:
[x11 y11 z11 ... xJ1 yJ1 zJ1 ... xJT yJT zJT].
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ._jsonio import atomic_write_text
from .errors import ContractError, ParseError, SchemaError, ValidationError

CSV_HEADER = ["sample_id", "label", "frame", "joint", "x", "y", "z"]


@dataclass(frozen=True, eq=False)
class GaitSample:
    """One gait cycle: frames of shape (T, J, 3), optional identity label."""

    frames: np.ndarray
    label: Optional[str]
    sample_id: str

    def __post_init__(self):
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
        if not np.all(np.isfinite(frames)):
            raise SchemaError(f"sample {self.sample_id!r}: non-finite coordinate")
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
            if s.label is None:
                raise SchemaError(f"sample {s.sample_id!r} is unlabeled")
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

    Every sample must be labeled and have the first one's frame count T,
    the dataset-wide normalized length; any other length is a contract
    violation rather than silently resampled.
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
        if s.label is None:
            raise ContractError(f"sample {s.sample_id!r} is unlabeled")
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
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


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
            samples = _read_csv_fast(path)
            if samples is None:
                samples = _read_csv_rows(path)
        else:
            raise ValidationError(f"unknown dataset format {format!r}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not {exc.encoding} text: {exc.reason}") from exc
    return LabeledDataset.from_samples(samples)


def save_dataset(dataset: LabeledDataset, path, format: str = "jsonl"):
    """Write a dataset file atomically; coordinates round-trip exactly."""
    if format == "jsonl":
        lines = []
        for s in dataset.samples:
            record = {
                "sample_id": s.sample_id,
                "label": s.label,
                "frames": s.frames.tolist(),
            }
            lines.append(json.dumps(record))
        text = "\n".join(lines) + "\n"
    elif format == "csv":
        # csv.writer quotes the two text fields; the numeric fields never
        # need quoting, so they are formatted directly, with repr floats
        # and the \r\n terminator csv.writer writes. Rows are joined per
        # sample: one flat list of every row string raises peak memory.
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(CSV_HEADER)
        parts = [buffer.getvalue()]
        for s in dataset.samples:
            buffer.seek(0)
            buffer.truncate()
            writer.writerow([s.sample_id, s.label])
            key = buffer.getvalue()[:-2]
            parts.append(
                "".join(
                    f"{key},{t},{j},{x!r},{y!r},{z!r}\r\n"
                    for t, frame in enumerate(s.frames.tolist())
                    for j, (x, y, z) in enumerate(frame)
                )
            )
        text = "".join(parts)
    else:
        raise ValidationError(f"unknown dataset format {format!r}")
    atomic_write_text(path, text)


def _load_jsonl(path) -> list:
    samples = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            try:
                sample_id = record["sample_id"]
                label = record["label"]
                frames = record["frames"]
            except (TypeError, KeyError) as exc:
                raise ParseError(f"line {lineno}: missing field {exc}") from exc
            try:
                frames = np.asarray(frames, dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: ragged frames array") from exc
            samples.append(GaitSample(frames=frames, label=label, sample_id=sample_id))
    return samples


# One CSV record: sample_id,label,frame,joint,x,y,z.
_CSV_RECORD = np.dtype([
    ("sample_id", object),
    ("label", object),
    ("frame", np.int64),
    ("joint", np.int64),
    ("xyz", np.float64, (3,)),
])


def _read_csv_fast(path) -> Optional[list]:
    """The samples of a csv dataset file, read by numpy's C parser, or None.

    None means the file does not open with the header the writer writes,
    or fails a check; _read_csv_rows then reads it and raises any error.
    """
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
                              comments=None, ndmin=1)
        except ValueError:  # includes UnicodeDecodeError
            return None

    ids, labels = rows["sample_id"], rows["label"]
    frame, joint = rows["frame"], rows["joint"]
    index: dict = {}
    code = np.array([index.setdefault(s, len(index)) for s in ids.tolist()])
    first = np.unique(code, return_index=True)[1]
    if (labels != labels[first][code]).any() or min(frame.min(), joint.min()) < 0:
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
    try:
        return [
            GaitSample(
                frames=flat[a : a + t * j].reshape(t, j, 3),
                label=labels[f],
                sample_id=ids[f],
            )
            for a, t, j, f in zip(starts.tolist(), n_frames.tolist(),
                                  n_joints.tolist(), first.tolist())
        ]
    except SchemaError:
        return None


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
