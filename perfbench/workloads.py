"""Workload definitions and their seeded input generators.

Each workload names its input file, the `marginforge` command lines that
make up one operation, and why it was chosen. Inputs are a pure function
of the seed. Set-up runs this file in a fresh interpreter:

    python3 perfbench/workloads.py --workload eval-pairs --seed 1 --out DIR --src src

It writes the input file and `meta.json` (sizes, threshold, planted ids,
set-up time) into DIR. The set-up time is the program's part only:
importing `marginforge` plus its `save_dataset` writing the input; the
benchmark's own generator and meta writing are left out.

Sizes are chosen so that one operation takes a few seconds on a 2-core
host: a run then holds several warm operations of each kind, and the
full set of benchmark runs fits its time budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

# Eval workloads: sizes of the `generate_synthetic` call.
EVAL_SPECS = {
    # Two fifths of ROADMAP's reference N: ~190k pairs per op, so pair
    # scoring and curve sweeps do nearly all the work and the learners
    # almost none. Runnable by hand but not listed in BENCHMARK.json: on a
    # 2-vCPU host its --workers nproc walls, GIL-bound, spread past the
    # largest bound a benchmark metric may have.
    "eval-pairs": dict(classes=10, samples_per_class=40, joints=5, frames=10),
    # The paper's small-sample regime: ~100 learning samples against
    # D=600, so scatter and the learners dominate and scoring is small;
    # it also reads CSV where eval-pairs reads JSONL.
    "eval-wide": dict(classes=10, samples_per_class=30, joints=10, frames=20),
}
EVAL_FORMATS = {"eval-pairs": "jsonl", "eval-wide": "csv"}

# preprocess-dtw: variable-length, heading-rotated raw cycles with planted
# outliers. It exercises every preprocess step plus dataset reads beside
# writes, and never reaches scatter, the learners or the protocol.
GAIT_IDENTITIES = 10
GAIT_CYCLES = 10  # per identity
GAIT_OUTLIERS = 1  # per identity, never cycle 0 (the DTW exemplar)
GAIT_JOINTS = 5
GAIT_FRAMES = (80, 120)  # inclusive range of raw cycle lengths
GAIT_BODY = 0.3  # scale of joint offsets from the root, m
GAIT_SWING = 0.1  # largest per-coordinate swing amplitude, m
GAIT_NOISE = 0.01  # per-coordinate capture noise, m
GAIT_STRIDE = 1.2  # root travel over one cycle, m
GAIT_SHIFT = 0.6  # per-joint displacement of a planted outlier, m

WORKLOADS = ("eval-pairs", "eval-wide", "preprocess-dtw")


def input_name(workload: str) -> str:
    if workload == "eval-wide":
        return "input.csv"
    return "input.jsonl"


def dtw_threshold() -> float:
    """Threshold between the inlier and outlier DTW distances.

    After resampling to the mean length T, an inlier differs from its
    exemplar by noise only: about 2*noise per coordinate over 3*(J-1)
    non-root coordinates, on each of about T path steps. Every pose of an
    outlier sits at least SHIFT*sqrt(J-1) - 2*SWING*sqrt(3*(J-1)) from
    every exemplar pose, and a warping path has at least T steps. The
    threshold is the geometric mean of the two.
    """
    t = sum(GAIT_FRAMES) / 2
    coords = 3 * (GAIT_JOINTS - 1)
    inlier = t * 2 * GAIT_NOISE * math.sqrt(coords)
    outlier = t * (
        GAIT_SHIFT * math.sqrt(GAIT_JOINTS - 1) - 2 * GAIT_SWING * math.sqrt(coords)
    )
    return math.sqrt(inlier * outlier)


def gait_cycles(seed: int):
    """Raw gait cycles and the ids of the planted outliers.

    Each identity has fixed joint offsets from the root plus a sinusoidal
    swing per coordinate. A cycle walks its root a stride along a random
    heading, is rotated to that heading about the vertical (y) axis, has a
    random length and carries capture noise. A planted outlier moves every
    non-root joint by GAIT_SHIFT in a random direction.
    """
    import numpy as np

    from marginforge import GaitSample, LabeledDataset

    rng = np.random.default_rng(seed)
    j = GAIT_JOINTS
    samples, planted = [], []
    for c in range(GAIT_IDENTITIES):
        label = f"id{c:03d}"
        body = rng.normal(0.0, GAIT_BODY, size=(j, 3))
        swing = rng.uniform(-GAIT_SWING, GAIT_SWING, size=(j, 3))
        phase = rng.uniform(0.0, 2 * np.pi, size=(j, 3))
        body[0] = swing[0] = 0.0  # the root joint carries the walk only
        outliers = set(
            rng.choice(np.arange(1, GAIT_CYCLES), GAIT_OUTLIERS, replace=False).tolist()
        )
        for k in range(GAIT_CYCLES):
            sample_id = f"{label}c{k:03d}"
            frames = int(rng.integers(GAIT_FRAMES[0], GAIT_FRAMES[1] + 1))
            t = np.linspace(0.0, 1.0, frames)[:, None, None]
            offsets = body + swing * np.sin(2 * np.pi * t + phase)
            if k in outliers:
                way = rng.normal(size=(j - 1, 3))
                offsets[:, 1:] += GAIT_SHIFT * way / np.linalg.norm(
                    way, axis=1, keepdims=True
                )
                planted.append(sample_id)
            theta = rng.uniform(0.0, 2 * np.pi)
            cos_t, sin_t = np.cos(theta), np.sin(theta)
            # Rotation about y taking the body's front (+z) to the heading.
            rot = np.array([[cos_t, 0.0, sin_t], [0.0, 1.0, 0.0], [-sin_t, 0.0, cos_t]])
            heading = rot @ np.array([0.0, 0.0, 1.0])
            start = rng.uniform(-5.0, 5.0, size=3) * np.array([1.0, 0.0, 1.0])
            root = start + GAIT_STRIDE * t[:, :, 0] * heading  # (T, 3)
            pose = root[:, None, :] + offsets @ rot.T
            pose = pose + rng.normal(0.0, GAIT_NOISE, size=pose.shape)
            samples.append(GaitSample(frames=pose, label=label, sample_id=sample_id))
    return LabeledDataset.from_samples(samples), planted


def make_inputs(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's input file into out_dir and return its meta.

    meta["save_s"] is the time `save_dataset` took.
    """
    from marginforge import SyntheticSpec, generate_synthetic, save_dataset

    path = os.path.join(out_dir, input_name(workload))
    if workload in EVAL_SPECS:
        spec = SyntheticSpec(
            class_spread=5.0, noise=0.5, seed=seed, **EVAL_SPECS[workload]
        )
        dataset = generate_synthetic(spec)
        start = time.perf_counter()
        save_dataset(dataset, path, format=EVAL_FORMATS[workload])
        save_s = time.perf_counter() - start
        meta = {"frames": spec.frames, "planted": [], "dtw_threshold": None}
    elif workload == "preprocess-dtw":
        from marginforge import average_length

        dataset, planted = gait_cycles(seed)
        start = time.perf_counter()
        save_dataset(dataset, path, format="jsonl")
        save_s = time.perf_counter() - start
        lengths = [s.frame_count for s in dataset.samples]
        meta = {
            "frames": [min(lengths), max(lengths)],
            "target_frames": average_length(dataset.samples),
            "planted": planted,
            "dtw_threshold": dtw_threshold(),
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    meta.update(
        save_s=save_s,
        input=path,
        n=dataset.num_samples,
        classes=dataset.num_classes,
        joints=dataset.joint_count,
        sample_ids=[s.sample_id for s in dataset.samples],
    )
    return meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="directory holding marginforge")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    start = time.perf_counter()
    import marginforge  # noqa: F401
    import_s = time.perf_counter() - start
    meta = make_inputs(args.workload, args.seed, args.out)
    meta["setup_s"] = import_s + meta.pop("save_s")
    with open(os.path.join(args.out, "meta.json"), "w") as fh:
        json.dump(meta, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
