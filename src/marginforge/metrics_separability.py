"""Class-separability coefficients over a labeled template population.

separability_of_rows takes the templates as rows of a matrix, one label
per row, the matching context and the template-to-template distances,
template_space.pairwise_distances of the whitened rows: the evaluator's
matching reads the same matrix. All four coefficients run in feature
space under the context's metric, so they describe exactly the geometry
the matcher sees. One geometry pass groups the rows, takes feature-space
class centroids, and measures every other distance it needs as a
Euclidean distance in the context's whitened coordinates; the four
scorers only read it. Degenerate geometry (coincident centroids, zero
dispersion) yields an infinity marker plus a DegenerateMetricWarning
instead of an exception: a degenerate fold should show up in a report,
not kill a run. Reports write the marker as JSON null; the warning names
the metric.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ._jsonio import finite_or_null
from .errors import ContractError, DegenerateMetricWarning
from .template_space import MatchingContext


def _degenerate(message: str) -> float:
    warnings.warn(message, DegenerateMetricWarning)
    return float("inf")


@dataclass(frozen=True, eq=False)
class _Geometry:
    """Feature-space class centroids plus every distance the scorers read,
    each Euclidean in whitened coordinates. Gaps are taken before
    whitening, so coincident points sit at exactly zero distance."""

    labels: list  # sorted; class k is labels[k]
    codes: np.ndarray  # (n,) class index of each template
    centroids: np.ndarray  # (C, k)
    sigma: np.ndarray  # (C,) mean member-to-centroid distance
    gaps: np.ndarray  # (C, C) centroid-to-centroid distance
    dist: np.ndarray  # (n, n) template-to-template distance
    spread: float  # mean centroid-to-global-mean distance
    within: float  # mean member-to-centroid distance over all templates


def _row_geometry(
    vectors: np.ndarray, labels: Sequence, context: MatchingContext, dist: np.ndarray
) -> _Geometry:
    labels, codes = np.unique(labels, return_inverse=True)
    if len(labels) < 2:
        raise ContractError("need at least 2 classes")
    centroids = np.stack(
        [vectors[codes == k].mean(axis=0) for k in range(len(labels))]
    )
    radius = np.linalg.norm(context.whiten(vectors - centroids[codes]), axis=1)
    pair_gaps = centroids[:, None, :] - centroids[None, :, :]
    spread = context.whiten(centroids - vectors.mean(axis=0))
    return _Geometry(
        labels=labels.tolist(),
        codes=codes,
        centroids=centroids,
        sigma=np.bincount(codes, weights=radius) / np.bincount(codes),
        gaps=np.linalg.norm(context.whiten(pair_gaps), axis=2),
        dist=dist,
        spread=float(np.linalg.norm(spread, axis=1).mean()),
        within=float(radius.mean()),
    )


def _davies_bouldin(g: _Geometry) -> float:
    """Mean over classes of the worst dispersion-to-separation ratio, the
    separation of a pair being their centroid distance. Lower is better."""
    others = ~np.eye(len(g.labels), dtype=bool)
    coincident = np.argwhere(others & (g.gaps == 0.0))
    if len(coincident):
        i, j = coincident[0]
        return _degenerate(
            f"coincident centroids for classes {g.labels[i]!r} and "
            f"{g.labels[j]!r}: Davies-Bouldin undefined"
        )
    # The diagonal divides by +inf and scores 0, below every true ratio.
    ratio = (g.sigma[:, None] + g.sigma[None, :]) / np.where(others, g.gaps, np.inf)
    return float(ratio.max(axis=1).mean())


def _dunn(g: _Geometry) -> float:
    """Smallest centroid separation over largest class dispersion. Higher
    is better."""
    sigma_max = float(g.sigma.max())
    if sigma_max == 0.0:
        return _degenerate("all classes have zero dispersion: Dunn undefined")
    separation = g.gaps[np.triu_indices(len(g.labels), k=1)].min()
    return float(separation / sigma_max)


def _silhouette(g: _Geometry) -> float:
    """Mean silhouette value in [-1, 1]. Cohesion a(n) averages distance
    over the sample's own class with the class size as divisor (the zero
    self-distance included), so a singleton class gives a(n) = 0. A sample
    with max(a, b) = 0 contributes 0."""
    n = len(g.codes)
    own = (np.arange(n), g.codes)
    one_hot = (g.codes[:, None] == np.arange(len(g.labels))).astype(np.float64)
    mean_to = (g.dist @ one_hot) / one_hot.sum(axis=0)
    a = mean_to[own]
    mean_to[own] = np.inf
    b = mean_to.min(axis=1)
    peak = np.maximum(a, b)
    score = np.divide(b - a, peak, out=np.zeros(n), where=peak > 0.0)
    return float(score.mean())


def _fisher_ratio(g: _Geometry) -> float:
    """Mean centroid-to-global-mean distance over mean member-to-centroid
    distance. Higher is better."""
    if g.within == 0.0:
        return _degenerate("zero within-class spread: Fisher ratio undefined")
    return g.spread / g.within


@dataclass(frozen=True, eq=False)
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


def separability_of_rows(
    vectors: np.ndarray, labels: Sequence, context: MatchingContext, dist: np.ndarray
) -> SeparabilityReport:
    """All four coefficients of the templates given as rows: labels[n]
    names the class of row n, and dist is pairwise_distances of the
    whitened rows. Raises ContractError on fewer than 2 classes, a context
    of another width, and labels or dist that do not match the rows."""
    n, width = vectors.shape
    if context.dimension != width:
        raise ContractError(
            f"context dimension {context.dimension} does not match "
            f"templates of dimension {width}"
        )
    if len(labels) != n:
        raise ContractError(f"{len(labels)} labels for {n} templates")
    if dist.shape != (n, n):
        raise ContractError(f"dist must be ({n}, {n}), got {dist.shape}")
    g = _row_geometry(vectors, labels, context, dist)
    return SeparabilityReport(
        dbi=_davies_bouldin(g),
        di=_dunn(g),
        sc=_silhouette(g),
        fdr=_fisher_ratio(g),
        per_class_sigma={lab: float(g.sigma[k]) for k, lab in enumerate(g.labels)},
        class_centroids={lab: g.centroids[k].copy() for k, lab in enumerate(g.labels)},
    )
