"""Class-separability coefficients over labeled template populations.

All four coefficients run in feature space under the matching context's
metric, so they describe exactly the geometry the matcher sees. Degenerate
geometry (coincident centroids, zero dispersion) yields an infinity marker
plus a DegenerateMetricWarning instead of an exception: a degenerate fold
should show up in a report, not kill a run. Reports write the marker as
JSON null; the warning names the metric.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ._jsonio import finite_or_null
from .errors import ContractError, DegenerateMetricWarning
from .template_space import GaitTemplate, MatchingContext, mahalanobis


def _degenerate(message: str) -> float:
    warnings.warn(message, DegenerateMetricWarning)
    return float("inf")


def _grouped(templates: Sequence[GaitTemplate], context: MatchingContext):
    templates = list(templates)
    if not templates:
        raise ContractError("no templates")
    dim = templates[0].dimension
    if context.dimension != dim:
        raise ContractError("context dimension does not match templates")
    by_label: dict[str, list[int]] = {}
    for i, t in enumerate(templates):
        if t.dimension != dim:
            raise ContractError("templates differ in dimension")
        by_label.setdefault(t.label, []).append(i)
    if len(by_label) < 2:
        raise ContractError("need at least 2 classes")
    labels = sorted(by_label)
    vectors = np.stack([t.vector for t in templates])
    members = {lab: np.array(by_label[lab]) for lab in labels}
    centroids = np.stack([vectors[members[lab]].mean(axis=0) for lab in labels])
    return labels, vectors, members, centroids


def _pairwise(vectors: np.ndarray, context: MatchingContext) -> np.ndarray:
    g = vectors @ context.sigma_t_feature_inv @ vectors.T
    q = np.diag(g)
    d2 = q[:, None] + q[None, :] - 2.0 * g
    return np.sqrt(np.clip(d2, 0.0, None))


def _point_to(vectors: np.ndarray, point: np.ndarray, context) -> np.ndarray:
    gap = vectors - point
    d2 = np.einsum("ni,ij,nj->n", gap, context.sigma_t_feature_inv, gap)
    return np.sqrt(np.clip(d2, 0.0, None))


def _dispersions(labels, vectors, members, centroids, context) -> np.ndarray:
    # sigma_c: mean member-to-centroid distance of each class.
    return np.array(
        [
            float(_point_to(vectors[members[lab]], centroids[k], context).mean())
            for k, lab in enumerate(labels)
        ]
    )


def _centroid_distance(centroids, i, j, context) -> float:
    return mahalanobis(
        context,
        GaitTemplate(centroids[i], label="_", sample_id="_"),
        GaitTemplate(centroids[j], label="_", sample_id="_"),
    )


def davies_bouldin(
    templates: Sequence[GaitTemplate], context: MatchingContext
) -> float:
    """Mean over classes of the worst dispersion-to-separation ratio.

    Dispersion of a class is the mean distance of members to their
    centroid; separation of a pair is the centroid distance. Lower is
    better. Coincident centroids make the ratio undefined: infinity marker.
    """
    labels, vectors, members, centroids = _grouped(templates, context)
    c = len(labels)
    disp = _dispersions(labels, vectors, members, centroids, context)
    total = 0.0
    for i in range(c):
        worst = -np.inf
        for j in range(c):
            if i == j:
                continue
            gap = _centroid_distance(centroids, i, j, context)
            if gap == 0.0:
                return _degenerate(
                    f"coincident centroids for classes {labels[i]!r} and "
                    f"{labels[j]!r}: Davies-Bouldin undefined"
                )
            worst = max(worst, (disp[i] + disp[j]) / gap)
        total += worst
    return float(total / c)


def dunn(templates: Sequence[GaitTemplate], context: MatchingContext) -> float:
    """Smallest centroid separation over largest class dispersion.

    Dispersion is the mean member-to-centroid distance, matching the
    Davies-Bouldin convention. Higher is better. Zero dispersion everywhere
    (every member sits on its centroid) yields the infinity marker.
    """
    labels, vectors, members, centroids = _grouped(templates, context)
    c = len(labels)
    sigma_max = float(
        _dispersions(labels, vectors, members, centroids, context).max()
    )
    separation = min(
        _centroid_distance(centroids, i, j, context)
        for i in range(c)
        for j in range(i + 1, c)
    )
    if sigma_max == 0.0:
        return _degenerate("all classes have zero dispersion: Dunn undefined")
    return float(separation / sigma_max)


def silhouette(templates: Sequence[GaitTemplate], context: MatchingContext) -> float:
    """Mean silhouette value in [-1, 1].

    Cohesion a(n) averages distance over the sample's own class with the
    class size as divisor (the zero self-distance included), so a
    singleton class gives a(n) = 0. A sample with max(a, b) = 0
    contributes 0.
    """
    labels, vectors, members, _ = _grouped(templates, context)
    dist = _pairwise(vectors, context)
    n = vectors.shape[0]
    label_of = np.empty(n, dtype=object)
    for lab in labels:
        label_of[members[lab]] = lab

    total = 0.0
    for i in range(n):
        own = label_of[i]
        a = float(dist[i, members[own]].sum() / len(members[own]))
        b = min(
            float(dist[i, members[lab]].mean()) for lab in labels if lab != own
        )
        peak = max(a, b)
        if peak > 0.0:
            total += (b - a) / peak
    return float(total / n)


def fisher_ratio(
    templates: Sequence[GaitTemplate], context: MatchingContext
) -> float:
    """Mean centroid-to-global-mean distance over mean member-to-centroid
    distance. Higher is better; zero within-class spread yields the
    infinity marker."""
    labels, vectors, members, centroids = _grouped(templates, context)
    global_mean = vectors.mean(axis=0)
    numerator = float(_point_to(centroids, global_mean, context).mean())
    within = np.concatenate(
        [
            _point_to(vectors[members[lab]], centroids[k], context)
            for k, lab in enumerate(labels)
        ]
    )
    denominator = float(within.mean())
    if denominator == 0.0:
        return _degenerate("zero within-class spread: Fisher ratio undefined")
    return numerator / denominator


@dataclass(frozen=True)
class SeparabilityReport:
    """All four coefficients for one template population, plus the
    per-class geometry (dispersions and centroids) they came from."""

    dbi: float
    di: float
    sc: float
    fdr: float
    per_class_sigma: Dict[str, float]
    class_centroids: Dict[str, np.ndarray]

    def __post_init__(self):
        if not -1.0 - 1e-9 <= self.sc <= 1.0 + 1e-9:
            raise ContractError(f"sc must lie in [-1, 1], got {self.sc}")
        for name, value in (("dbi", self.dbi), ("di", self.di), ("fdr", self.fdr)):
            if not (value >= 0.0 or np.isinf(value)):
                raise ContractError(f"{name} must be nonnegative, got {value}")

    def to_json_dict(self) -> dict:
        return {
            "dbi": finite_or_null(self.dbi),
            "di": finite_or_null(self.di),
            "sc": self.sc,
            "fdr": finite_or_null(self.fdr),
            "per_class_sigma": {k: v for k, v in self.per_class_sigma.items()},
            "class_centroids": {
                k: np.asarray(v).tolist() for k, v in self.class_centroids.items()
            },
        }


def compute_separability(
    templates: Sequence[GaitTemplate], context: MatchingContext
) -> SeparabilityReport:
    labels, vectors, members, centroids = _grouped(templates, context)
    disp = _dispersions(labels, vectors, members, centroids, context)
    return SeparabilityReport(
        dbi=davies_bouldin(templates, context),
        di=dunn(templates, context),
        sc=silhouette(templates, context),
        fdr=fisher_ratio(templates, context),
        per_class_sigma={lab: float(disp[k]) for k, lab in enumerate(labels)},
        class_centroids={lab: centroids[k].copy() for k, lab in enumerate(labels)},
    )
