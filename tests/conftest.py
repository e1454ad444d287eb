"""Shared builders for the test suite. No fixtures with state, just
constructors that keep the test bodies close to the numbers they assert."""

from __future__ import annotations

import tracemalloc
from collections import namedtuple

import numpy as np

from marginforge import (
    FeatureTransform,
    GaitSample,
    MatchingContext,
    context_of_rows,
    learn_mmc,
    pairwise_distances,
    template_rows,
)
from marginforge.metrics_classification import ThresholdSweep, cmc_fractions

# One probe-against-gallery-identity distance, read field by field by the
# brute-force oracles; the helpers below turn a list of them into the
# library's inputs.
Pair = namedtuple("Pair", "probe_id gallery_label distance genuine")


def score_block(pairs) -> tuple:
    """(best, genuine, probe_ids), cmc_fractions' inputs: best[p, c] is
    the minimum distance of the Pairs of probe p and gallery identity c
    (+inf where there is none) and genuine[p, c] marks a genuine one, with
    probes and identities in sorted order."""
    probe_ids = sorted({p.probe_id for p in pairs})
    labels = sorted({p.gallery_label for p in pairs})
    best = np.full((len(probe_ids), len(labels)), np.inf)
    genuine = np.zeros(best.shape, dtype=bool)
    for p in pairs:
        cell = probe_ids.index(p.probe_id), labels.index(p.gallery_label)
        best[cell] = min(best[cell], p.distance)
        genuine[cell] |= p.genuine
    return best, genuine, tuple(probe_ids)


def sweep_of(pairs) -> ThresholdSweep:
    """The ThresholdSweep of the Pairs' distances and genuine flags."""
    return ThresholdSweep.of(
        np.array([p.distance for p in pairs], dtype=np.float64),
        np.array([p.genuine for p in pairs], dtype=bool),
    )


def curve_points(x, y) -> list:
    """A library curve as the oracles' list of (x, y) float pairs."""
    return list(zip(x.tolist(), y.tolist()))


def cmc_points(pairs) -> list:
    """(rank, cumulative match fraction) pairs, ranks from 1.0."""
    cmc, _ = cmc_fractions(*score_block(pairs))
    return curve_points(np.arange(1.0, cmc.size + 1), cmc)


def flats_1d(groups: dict) -> tuple:
    """(rows, labels): one 1-D row per value of {label: [value, ...]}."""
    return flats_nd({label: [[v] for v in values] for label, values in groups.items()})


def flats_nd(groups: dict) -> tuple:
    """(rows, labels): one row per vector of {label: [vector, ...]},
    labels in sorted order, each keeping its vectors' order."""
    order = sorted(groups)
    rows = np.array([v for label in order for v in groups[label]], dtype=np.float64)
    return rows, [label for label in order for _ in groups[label]]


# One labeled row, read field by field by oracles.brute_separability.
Row = namedtuple("Row", "vector label")


def records(rows, labels) -> list:
    """The Row records of a labeled population."""
    return [Row(vector, label) for vector, label in zip(rows, labels)]


def template_matrix(transform: FeatureTransform, rows) -> np.ndarray:
    """template_rows of a row matrix, its rows named by their index."""
    return template_rows(transform, rows, [f"r{n}" for n in range(len(rows))])


def identity_ctx(dim: int) -> MatchingContext:
    return MatchingContext(whitener=np.eye(dim))


def random_spd_ctx(rng: np.random.Generator, dim: int) -> tuple:
    """(context, m): a context whose quadratic form is the random
    positive-definite m, whitened by the Cholesky factor of m; m goes to
    the oracles, which never touch the whitener."""
    a = rng.normal(size=(dim, dim))
    m = a @ a.T + 0.1 * np.eye(dim)
    m = (m + m.T) / 2.0
    return MatchingContext(whitener=np.linalg.cholesky(m)), m


def random_flats(
    rng: np.random.Generator,
    classes: int,
    dim: int,
    members_low: int = 3,
    members_high: int = 20,
    spread: float = 3.0,
    noise: float = 1.0,
) -> tuple:
    """(rows, labels) of a Gaussian class population: the standard
    battery instance."""
    rows, labels = [], []
    for c in range(classes):
        label = f"c{c:02d}"
        mean = rng.normal(0.0, spread, size=dim)
        for _ in range(int(rng.integers(members_low, members_high + 1))):
            rows.append(mean + rng.normal(0.0, noise, size=dim))
            labels.append(label)
    return np.array(rows), labels


def walking_sample(
    heading: np.ndarray,
    frames: int = 4,
    joints: int = 3,
    label: str = "w",
    sample_id: str = "w0",
    rng: np.random.Generator = None,
) -> GaitSample:
    """A sample whose root joint (index 0) drifts along `heading`.

    Non-root joints sit at fixed offsets from the root, optionally
    jittered, so the geometry is rigid enough to reason about.
    """
    heading = np.asarray(heading, dtype=np.float64)
    offsets = np.array(
        [[0.0, 0.0, 0.0], [0.3, 0.9, 0.1], [-0.2, 0.5, -0.4]][:joints]
    )
    if rng is not None:
        offsets = offsets + rng.normal(0.0, 0.05, size=offsets.shape)
    data = np.empty((frames, joints, 3))
    for t in range(frames):
        root = heading * (t / (frames - 1))
        data[t] = root + offsets
    return GaitSample(frames=data, label=label, sample_id=sample_id)


def swinging_cycles(
    rng: np.random.Generator,
    cycles: int,
    frames: tuple,
    joints: int = 5,
    label: str = "id0",
) -> list:
    """One identity's centred, aligned gait cycles, shaped like the bench's
    preprocess-dtw input: fixed joint offsets from the root plus a
    sinusoidal swing per coordinate over one cycle, lengths drawn from the
    inclusive range `frames` and 1 cm of capture noise. Cycle 1 is an
    outlier: every non-root joint moved 0.6 m in a random direction.
    DTW_GAP_THRESHOLD lies between the inliers' distances to cycle 0 and
    the outlier's."""
    body = rng.normal(0.0, 0.3, size=(joints, 3))
    swing = rng.uniform(-0.1, 0.1, size=(joints, 3))
    phase = rng.uniform(0.0, 2 * np.pi, size=(joints, 3))
    body[0] = swing[0] = 0.0
    samples = []
    for k in range(cycles):
        length = int(rng.integers(frames[0], frames[1], endpoint=True))
        t = np.linspace(0.0, 1.0, length)
        pose = body + swing * np.sin(2 * np.pi * t[:, None, None] + phase)
        if k == 1:
            way = rng.normal(size=(joints - 1, 3))
            pose[:, 1:] += 0.6 * way / np.linalg.norm(way, axis=1, keepdims=True)
        pose = pose + rng.normal(0.0, 0.01, size=pose.shape)
        samples.append(GaitSample(frames=pose, label=label, sample_id=f"{label}c{k}"))
    return samples


# For swinging_cycles at about 100 frames and 5 joints: the geometric mean
# of an inlier's distance (about 100 steps of 2 cm noise over 12 non-root
# coordinates) and an outlier's (about 100 steps of the 0.6 m shift less
# the swing), as the bench's preprocess-dtw workload sets it.
DTW_GAP_THRESHOLD = 18.75


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles between the column spans of a and b, in radians."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))


def metric_axiom_violation(rng: np.random.Generator) -> float:
    """Worst metric-axiom violation for one random matcher instance.

    Draws a random positive-definite context and three templates, then
    measures nonnegativity, symmetry, identity, and the triangle
    inequality. A correct matcher returns at most rounding noise.
    """
    dim = int(rng.integers(1, 6))
    ctx, _ = random_spd_ctx(rng, dim)
    rows = np.stack([rng.normal(0.0, 3.0, size=dim) for _ in range(3)])
    d = pairwise_distances(ctx.whiten(rows))
    a, b, c = 0, 1, 2
    return float(
        max(
            -min(d[a, b], d[a, c], d[c, b]),
            abs(d[a, b] - d[b, a]),
            d[a, a],
            d[a, b] - (d[a, c] + d[c, b]),
        )
    )


def recombination_violation(rng: np.random.Generator) -> float:
    """Distance drift when feature columns are invertibly recombined.

    The context is re-estimated from the recombined templates, so the
    Mahalanobis form must cancel the mixing exactly; returns the worst
    relative pairwise-distance change.
    """
    classes = int(rng.integers(2, 5))
    dim = int(rng.integers(3, 8))
    rows, labels = random_flats(
        rng, classes=classes, dim=dim, members_low=4, members_high=8
    )
    base = learn_mmc(rows, labels)
    k = base.feature_dim
    while True:
        mix = rng.normal(size=(k, k))
        if abs(np.linalg.det(mix)) > 1e-3:
            break
    mixed = FeatureTransform(method=base.method, phi=base.phi @ mix, delta=base.delta)
    d1, d2 = (
        pairwise_distances(context_of_rows(temps, labels).whiten(temps))
        for temps in (template_matrix(base, rows), template_matrix(mixed, rows))
    )
    worst = 0.0
    probes = min(6, len(rows))
    for i in range(probes):
        for j in range(i + 1, probes):
            worst = max(
                worst, abs(d1[i, j] - d2[i, j]) / max(d1[i, j], d2[i, j], 1e-9)
            )
    return float(worst)


def mmc_euclidean_violation(rng: np.random.Generator) -> float:
    """Gap between matcher output and plain Euclidean distance after the
    margin learner, whose transforms whiten total scatter. Returns the
    worst relative difference over a handful of template pairs."""
    classes = int(rng.integers(2, 5))
    dim = int(rng.integers(3, 8))
    rows, labels = random_flats(
        rng, classes=classes, dim=dim, members_low=4, members_high=8
    )
    temps = template_matrix(learn_mmc(rows, labels), rows)
    d = pairwise_distances(context_of_rows(temps, labels).whiten(temps))
    worst = 0.0
    probes = min(8, len(temps))
    for i in range(probes):
        for j in range(i + 1, probes):
            e = float(np.linalg.norm(temps[i] - temps[j]))
            worst = max(worst, abs(d[i, j] - e) / max(e, 1e-9))
    return float(worst)


def traced_peak(call) -> int:
    """Peak bytes that call() holds beyond what was live before it, as
    tracemalloc counts them (numpy reports its array buffers to it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def dtw_bytes(lengths, exemplar_frames: int, joints: int) -> int:
    """What dtw_distances may hold for candidates of the given frame
    counts: its (n+1, m+1, P) table and two (3J, n, P) blocks, in float64."""
    n, p = max(lengths), len(lengths)
    return 8 * p * ((n + 1) * (exemplar_frames + 1) + 2 * 3 * joints * n)
