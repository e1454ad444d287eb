"""Class-separability coefficients over a labeled template population.

separability_of_rows takes the templates as rows of a matrix, one label
per row, and pairwise_distances of the rows, which the evaluator's
matching reads too: the learned routes' templates, which whiten the
learning fold's total scatter, or the identity route's raw rows. All four
coefficients are plain Euclidean geometry on those rows, so they describe
exactly the geometry the matcher sees. separability_of_rows groups the
rows, takes their class means (the reported centroids; a class whose
rows are all equal takes that row, so its dispersion is exactly 0), and
measures the dispersions, the centroid gaps and the spread from them;
each scorer takes only the arrays it reads. Degenerate geometry
(coincident class means, zero dispersion) yields an infinity marker
instead of an exception, plus a "DegenerateMetricWarning: ..." finding
on the report that names the metric: a degenerate fold should show up in
a report, not kill a run. Reports write the marker as JSON null.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ._jsonio import finite_or_null
from .errors import ContractError
from .template_space import pairwise_distances


def _degenerate(findings: list, message: str) -> float:
    findings.append(f"DegenerateMetricWarning: {message}")
    return float("inf")


def _davies_bouldin(
    labels: list, sigma: np.ndarray, gaps: np.ndarray, findings: list
) -> float:
    """Mean over classes of the worst dispersion-to-separation ratio, the
    separation of a pair being their centroid distance. Lower is better."""
    others = ~np.eye(len(labels), dtype=bool)
    coincident = np.argwhere(others & (gaps == 0.0))
    if len(coincident):
        i, j = coincident[0]
        return _degenerate(
            findings,
            f"coincident centroids for classes {labels[i]!r} and "
            f"{labels[j]!r}: Davies-Bouldin undefined"
        )
    # The diagonal divides by +inf and scores 0, below every true ratio.
    ratio = (sigma[:, None] + sigma[None, :]) / np.where(others, gaps, np.inf)
    return float(ratio.max(axis=1).mean())


def _dunn(sigma: np.ndarray, gaps: np.ndarray, findings: list) -> float:
    """Smallest centroid separation over largest class dispersion. Higher
    is better."""
    sigma_max = float(sigma.max())
    if sigma_max == 0.0:
        return _degenerate(findings, "all classes have zero dispersion: Dunn undefined")
    separation = gaps[np.triu_indices(len(gaps), k=1)].min()
    return float(separation / sigma_max)


def _silhouette(codes: np.ndarray, classes: int, dist: np.ndarray) -> float:
    """Mean silhouette value in [-1, 1]. Cohesion a(n) averages distance
    over the sample's own class with the class size as divisor (the zero
    self-distance included), so a singleton class gives a(n) = 0. A sample
    with max(a, b) = 0 contributes 0. Each row's per-class sums add up
    dist over one class's columns at a time: no BLAS product, whose bits
    can depend on its thread count."""
    n = len(codes)
    own = (np.arange(n), codes)
    sums = np.stack([dist[:, codes == k].sum(axis=1) for k in range(classes)], axis=1)
    mean_to = sums / np.bincount(codes)
    a = mean_to[own]
    mean_to[own] = np.inf
    b = mean_to.min(axis=1)
    peak = np.maximum(a, b)
    score = np.divide(b - a, peak, out=np.zeros(n), where=peak > 0.0)
    return float(score.mean())


def _fisher_ratio(spread: float, within: float, findings: list) -> float:
    """Mean centroid-to-global-mean distance (spread) over mean
    member-to-centroid distance (within). Higher is better."""
    if within == 0.0:
        return _degenerate(findings, "zero within-class spread: Fisher ratio undefined")
    return spread / within


@dataclass(frozen=True, eq=False)
class SeparabilityReport:
    """All four coefficients for one template population, the per-class
    geometry (dispersions and centroids) they came from, and in warnings,
    not in the JSON form, one finding per degenerate coefficient."""

    dbi: float
    di: float
    sc: float
    fdr: float
    per_class_sigma: Dict[str, float]
    class_centroids: Dict[str, np.ndarray]
    warnings: tuple = ()

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
    vectors: np.ndarray, labels: Sequence, dist: np.ndarray
) -> SeparabilityReport:
    """All four coefficients of the templates given as rows: labels[n]
    names the class of row n, and dist is pairwise_distances of the rows.
    Raises ContractError on fewer than 2 classes, and on labels or a dist
    that do not match the rows."""
    n = len(vectors)
    if len(labels) != n:
        raise ContractError(f"{len(labels)} labels for {n} templates")
    if dist.shape != (n, n):
        raise ContractError(f"need a ({n}, {n}) dist, got {dist.shape}")
    labels, codes = np.unique(labels, return_inverse=True)
    if len(labels) < 2:
        raise ContractError("need at least 2 classes")
    labels = labels.tolist()  # sorted; class k is labels[k]
    # sigma: each class's mean member-to-centroid distance; gaps: the
    # centroid-to-centroid distances; spread: the centroids' mean distance
    # to the global mean. A class of equal rows is centered on that row, as
    # its mean can round off it and leave a dispersion of about 1e-16.
    groups = [vectors[codes == k] for k in range(len(labels))]
    centroids = np.stack([g[0] if (g == g[0]).all() else g.mean(axis=0) for g in groups])
    radius = np.linalg.norm(vectors - centroids[codes], axis=1)
    sigma = np.bincount(codes, weights=radius) / np.bincount(codes)
    gaps = pairwise_distances(centroids)
    spread = float(np.linalg.norm(centroids - vectors.mean(axis=0), axis=1).mean())
    findings = []  # arguments evaluate in order: the scorers fill it first
    return SeparabilityReport(
        dbi=_davies_bouldin(labels, sigma, gaps, findings),
        di=_dunn(sigma, gaps, findings),
        sc=_silhouette(codes, len(labels), dist),
        fdr=_fisher_ratio(spread, float(radius.mean()), findings),
        per_class_sigma={lab: float(sigma[k]) for k, lab in enumerate(labels)},
        class_centroids={lab: centroids[k].copy() for k, lab in enumerate(labels)},
        warnings=tuple(findings),
    )
