"""Independent reference implementations used only by the tests.

Everything here is written the dumbest defensible way: per-threshold
counting loops over the records, exhaustive recursion over warping paths.
Slow on purpose. The library has to agree with these without sharing a
line of code with them; the one exception is the eigen oracles, which
borrow the learners' sign convention so their vectors compare column by
column.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Tuple

import numpy as np
import scipy.linalg

from marginforge.errors import ContractError, DegenerateDataError
from marginforge.learners import FeatureTransform, _canonical_signs
from marginforge.reference import ScatterStatistics


def threshold_sweep(records) -> list:
    distances = sorted({r.distance for r in records})
    return [-math.inf] + distances + [math.inf]


def brute_far_frr_points(records) -> list:
    """(FAR, FRR) at every sweep threshold, accept iff distance <= tau."""
    genuine = [r.distance for r in records if r.genuine]
    impostor = [r.distance for r in records if not r.genuine]
    points = []
    for tau in threshold_sweep(records):
        far = sum(1 for d in impostor if d <= tau) / len(impostor)
        frr = sum(1 for d in genuine if d > tau) / len(genuine)
        points.append((far, frr))
    return points


def brute_eer(records) -> float:
    """Linear interpolation at the first sign change of FAR - FRR."""
    points = brute_far_frr_points(records)
    for i, (far, frr) in enumerate(points):
        gap = far - frr
        if gap == 0.0:
            return far
        if gap > 0.0:
            far0, frr0 = points[i - 1]
            gap0 = far0 - frr0
            lam = -gap0 / (gap - gap0)
            return far0 + lam * (far - far0)
    raise AssertionError("no crossing: FAR - FRR never reached zero")


def brute_roc_points(records) -> list:
    """(FAR, TAR) deduplicated by FAR keeping the largest TAR."""
    best = {}
    for far, frr in brute_far_frr_points(records):
        tar = 1.0 - frr
        if far not in best or tar > best[far]:
            best[far] = tar
    return sorted(best.items())


def trapezoid_area(points) -> float:
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def brute_rcl_pcn_points(records) -> list:
    """(recall, precision) per the declared sweep rules.

    Thresholds accepting nothing are skipped; the first point at each
    recall value wins; the curve is fronted with (0, first precision).
    """
    genuine = [r.distance for r in records if r.genuine]
    impostor = [r.distance for r in records if not r.genuine]
    raw = []
    for tau in threshold_sweep(records):
        acc_gen = sum(1 for d in genuine if d <= tau)
        acc_imp = sum(1 for d in impostor if d <= tau)
        if acc_gen + acc_imp == 0:
            continue
        raw.append((acc_gen / len(genuine), acc_gen / (acc_gen + acc_imp)))
    seen = {}
    for recall, precision in raw:
        if recall not in seen:
            seen[recall] = precision
    points = sorted(seen.items())
    if points[0][0] > 0.0:
        points.insert(0, (0.0, raw[0][1]))
    return points


def brute_cmc_points(records) -> list:
    """(rank, cumulative match fraction) by direct per-probe enumeration."""
    labels = sorted({r.gallery_label for r in records})
    best = {}
    truth = {}
    for r in records:
        per_probe = best.setdefault(r.probe_id, {})
        if r.gallery_label not in per_probe or r.distance < per_probe[r.gallery_label]:
            per_probe[r.gallery_label] = r.distance
        if r.genuine:
            truth[r.probe_id] = r.gallery_label
    ranks = []
    for probe_id, per_probe in best.items():
        if probe_id not in truth:
            continue  # identity not enrolled: never matched at any rank
        own = per_probe[truth[probe_id]]
        ranks.append(1 + sum(1 for d in per_probe.values() if d < own))
    n_probes = len(best)
    points = []
    for k in range(1, len(labels) + 1):
        points.append((float(k), sum(1 for r in ranks if r <= k) / n_probes))
    return points


def exhaustive_dtw(a, b) -> float:
    """Minimum alignment cost over every monotone warping path.

    a and b are sequences of equal-length coordinate tuples. Exponential
    enumeration, fine for the handful-of-frames fixtures it serves.
    """

    def local(i, j):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a[i], b[j])))

    def walk(i, j):
        if i == len(a) - 1 and j == len(b) - 1:
            return 0.0
        options = []
        if i + 1 < len(a):
            options.append(local(i + 1, j) + walk(i + 1, j))
        if j + 1 < len(b):
            options.append(local(i, j + 1) + walk(i, j + 1))
        if i + 1 < len(a) and j + 1 < len(b):
            options.append(local(i + 1, j + 1) + walk(i + 1, j + 1))
        return min(options)

    return local(0, 0) + walk(0, 0)


def rowwise_dtw(cost) -> float:
    """DTW accumulated cost over an (n, m) local-cost table, one cell at a
    time in row-major order: each cell is its cost plus the minimum of its
    up, left and diagonal neighbours, with full endpoint alignment."""
    n, m = cost.shape
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            acc[i, j] = cost[i - 1, j - 1] + min(
                acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1]
            )
    return float(acc[n, m])


def csv_writer_text(dataset) -> str:
    """The csv dataset format written one csv.writer row per joint-frame:
    sample_id,label,frame,joint,x,y,z with repr floats."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["sample_id", "label", "frame", "joint", "x", "y", "z"])
    for s in dataset.samples:
        for t in range(s.frame_count):
            for j in range(s.joint_count):
                x, y, z = (float(v) for v in s.frames[t, j])
                writer.writerow([s.sample_id, s.label, t, j, repr(x), repr(y), repr(z)])
    return buffer.getvalue()


def oracle_eigen(stats: ScatterStatistics) -> Tuple[np.ndarray, np.ndarray]:
    """Margin spectrum by direct symmetric eigendecomposition.

    Independent of the SVD route: whiten with the pseudo-inverse square
    root of St from eigh, then take eigh of the whitened Sb. Returns
    (eigenvalues, eigenvectors): values descending and clipped to [0, 1],
    vectors as columns in the original space (total-scatter orthonormal,
    sign-canonicalized), one per value.
    """
    w, q = np.linalg.eigh(stats.sigma_t)
    w = w[::-1]
    q = q[:, ::-1]
    cutoff = stats.dimension * np.finfo(np.float64).eps * max(w[0], 0.0)
    rank = int(np.sum(w > cutoff))
    if rank == 0:
        raise DegenerateDataError("total scatter is zero: no usable variance")
    whiten = q[:, :rank] / np.sqrt(w[:rank])
    m = whiten.T @ stats.sigma_b @ whiten
    m = (m + m.T) / 2.0
    vals, vecs = np.linalg.eigh(m)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    return np.clip(vals, 0.0, 1.0), _canonical_signs(whiten @ vecs)


def oracle_pcalda(stats: ScatterStatistics, pca_dim=None) -> FeatureTransform:
    """PCA + LDA straight from the scatter matrices, by eigensolvers.

    Projects onto the pca_dim (default: number of classes) leading
    eigenvectors of St from eigh, then solves the generalized Sb/Sw
    eigenproblem there with scipy. phi is Sw-orthonormal in the subspace
    and delta holds the LDA eigenvalues lambda. A trace-scaled ridge is
    added to projected within-class scatter when it is singular;
    ridge_used records that.
    """
    n, c, d = int(np.sum(stats.class_sizes)), stats.num_classes, stats.dimension
    if pca_dim is None:
        pca_dim = c
    if pca_dim < c or pca_dim > n - c:
        raise ContractError(
            f"pca_dim must lie in [{c}, {n - c}] "
            f"(classes {c}, samples {n}), got {pca_dim}"
        )
    if pca_dim > d:
        raise ContractError(f"pca_dim {pca_dim} exceeds input dimension {d}")

    w, q = np.linalg.eigh(stats.sigma_t)
    if not np.max(w) > 0:
        raise DegenerateDataError("total scatter is zero: no usable variance")
    p = q[:, ::-1][:, :pca_dim]

    sb_p = p.T @ stats.sigma_b @ p
    sw_p = p.T @ stats.sigma_w @ p
    sb_p = (sb_p + sb_p.T) / 2.0
    sw_p = (sw_p + sw_p.T) / 2.0

    def with_ridge(sw):
        trace_w = float(np.trace(sw))
        base = trace_w if trace_w > 0 else float(np.trace(p.T @ stats.sigma_t @ p))
        return sw + (1e-8 * base / pca_dim) * np.eye(pca_dim)

    ew = np.linalg.eigvalsh(sw_p)
    ridge_used = bool(ew[0] <= max(ew[-1], 0.0) * 1e-12)
    if ridge_used:
        sw_p = with_ridge(sw_p)
    try:
        lam, vecs = scipy.linalg.eigh(sb_p, sw_p)
    except scipy.linalg.LinAlgError:
        sw_p = with_ridge(sw_p)
        ridge_used = True
        lam, vecs = scipy.linalg.eigh(sb_p, sw_p)
    lam = lam[::-1]
    vecs = vecs[:, ::-1]

    # Between-class rank bounds the useful directions at C - 1; treat
    # eigenvalues within 1e-9 of the largest magnitude as zero.
    tol = max(abs(lam[0]), abs(lam[-1])) * 1e-9
    kept = tuple(int(i) for i in np.flatnonzero(lam > tol)[: c - 1])
    fallback = not kept
    if fallback:
        kept = (0,)
    phi = _canonical_signs(p @ vecs[:, list(kept)])
    return FeatureTransform(
        method="pca_lda",
        phi=phi,
        delta=lam[list(kept)],
        fallback_used=fallback,
        ridge_used=ridge_used,
    )


def brute_separability(templates, m) -> dict:
    """dbi, di, sc, fdr, per_class_sigma and class_centroids, pair by pair.

    Every distance is sqrt(gap' m gap) on the quadratic-form matrix m, one
    pair at a time; no whitener is involved. Silhouette visits one sample
    per loop turn. Assumes no degenerate geometry.
    """

    def dist(u, v):
        gap = u - v
        return math.sqrt(max(float(gap @ m @ gap), 0.0))

    labels = sorted({t.label for t in templates})
    members = {lab: [t.vector for t in templates if t.label == lab] for lab in labels}
    centroid = {lab: np.stack(members[lab]).mean(axis=0) for lab in labels}
    sigma = {
        lab: sum(dist(v, centroid[lab]) for v in members[lab]) / len(members[lab])
        for lab in labels
    }

    dbi = 0.0
    for i in labels:
        dbi += max(
            (sigma[i] + sigma[j]) / dist(centroid[i], centroid[j])
            for j in labels
            if j != i
        )
    separation = min(
        dist(centroid[i], centroid[j]) for i in labels for j in labels if i < j
    )

    sc = 0.0
    for t in templates:
        mean_to = {
            lab: sum(dist(t.vector, v) for v in members[lab]) / len(members[lab])
            for lab in labels
        }
        a = mean_to[t.label]
        b = min(d for lab, d in mean_to.items() if lab != t.label)
        if max(a, b) > 0.0:
            sc += (b - a) / max(a, b)

    global_mean = np.stack([t.vector for t in templates]).mean(axis=0)
    spread = sum(dist(centroid[lab], global_mean) for lab in labels) / len(labels)
    within = sum(dist(t.vector, centroid[t.label]) for t in templates) / len(templates)
    return {
        "dbi": dbi / len(labels),
        "di": separation / max(sigma.values()),
        "sc": sc / len(templates),
        "fdr": spread / within,
        "per_class_sigma": sigma,
        "class_centroids": centroid,
    }
