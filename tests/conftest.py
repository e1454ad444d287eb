"""Shared builders for the test suite. No fixtures with state, just
constructors that keep the test bodies close to the numbers they assert."""

from __future__ import annotations

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
from marginforge.metrics_classification import ScoreBlock, ThresholdSweep, cmc_fractions

# One probe-against-gallery-identity distance: a score block row for the
# library, read field by field by the brute-force oracles.
Pair = namedtuple("Pair", "probe_id gallery_label distance genuine")


def score_block(pairs) -> ScoreBlock:
    """A ScoreBlock with one row per Pair."""
    probe_ids, probe = np.unique([p.probe_id for p in pairs], return_inverse=True)
    _, label = np.unique([p.gallery_label for p in pairs], return_inverse=True)
    return ScoreBlock(
        distance=np.array([p.distance for p in pairs], dtype=np.float64),
        probe=probe,
        label=label,
        genuine=np.array([p.genuine for p in pairs], dtype=bool),
        probe_ids=tuple(probe_ids.tolist()),
    )


def sweep_of(pairs) -> ThresholdSweep:
    return ThresholdSweep.of(score_block(pairs))


def curve_points(x, y) -> list:
    """A library curve as the oracles' list of (x, y) float pairs."""
    return list(zip(x.tolist(), y.tolist()))


def cmc_points(pairs) -> list:
    """(rank, cumulative match fraction) pairs, ranks from 1.0."""
    cmc, _ = cmc_fractions(score_block(pairs))
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
