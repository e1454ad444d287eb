"""Templates and the Mahalanobis matcher, one template per matrix row.

A template is a gait sample pushed through a feature transform;
template_rows pushes a whole (n, input_dim) matrix of flattened samples.
The identity route has no transform: its templates are the raw rows.
Matching uses the Mahalanobis distance of a reference template
population's total scatter St, estimated once (normally from the learning
fold) by context_of_rows and frozen into a MatchingContext. On the span of
the data that distance is sqrt(g^T St^+ g) under the pseudo-inverse St^+
(Penrose 1955). The context holds the D x r whitener W = Omega_r diag(1/s_r)
read off the thin SVD of the population's data matrix
(scatter.total_scatter_basis), where r is the numerical rank, so
W W^T = St^+. whiten() maps templates to v @ W: every Mahalanobis distance
is then a plain Euclidean distance between whitened templates, and a
direction that carries no data contributes nothing. pairwise_distances
measures every pair of whitened rows, each row against itself and the rows
after it. The evaluator whitens each fold's evaluation rows once; matching
and separability both read those whitened rows. Because the margin learner
whitens total scatter, its context is numerically an orthogonal matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError
from .learners import FeatureTransform
from .scatter import total_scatter_basis


@dataclass(frozen=True, eq=False)
class MatchingContext:
    """Whitener of feature-space total scatter for the Mahalanobis form.

    whitener is (dimension, rank) with 1 <= rank <= dimension; Euclidean
    distance between whitened rows is the Mahalanobis distance under the
    pseudo-inverse of the scatter it was read from.
    """

    whitener: np.ndarray

    def __post_init__(self):
        whitener = np.array(self.whitener, dtype=np.float64, order="C")  # own copy
        if whitener.ndim != 2 or not 1 <= whitener.shape[1] <= whitener.shape[0]:
            raise ContractError("whitener must be a (dimension, rank) matrix")
        if not np.all(np.isfinite(whitener)):
            raise ContractError("whitener has a non-finite entry")
        whitener.flags.writeable = False
        object.__setattr__(self, "whitener", whitener)

    def whiten(self, vectors: np.ndarray) -> np.ndarray:
        """Map feature vectors (rows) to rank coordinates where this
        context's Mahalanobis distance is the Euclidean one."""
        return vectors @ self.whitener


def template_rows(
    transform: FeatureTransform, vectors: np.ndarray, sample_ids: Sequence[str]
) -> np.ndarray:
    """Templates of the rows of a (n, input_dim) matrix: row i is
    vectors[i] @ transform.phi, bit for bit. One vector-matrix product per
    row keeps that summation order; a single matrix product sums in
    another. sample_ids name the rows in the ContractError a non-finite
    template raises."""
    if vectors.shape[1] != transform.input_dim:
        raise ContractError(
            f"expected vectors of dimension {transform.input_dim}, "
            f"got {vectors.shape[1]}"
        )
    rows = np.matmul(vectors[:, None, :], transform.phi)[:, 0, :]
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        bad = sample_ids[int(np.argmin(finite))]
        raise ContractError(f"template {bad!r}: non-finite entry")
    return rows


def context_of_rows(rows: np.ndarray, labels: Sequence) -> MatchingContext:
    """Whiten the feature-space total scatter of a template population
    given as rows, labels[n] naming the class of row n.

    Total scatter follows the same per-class-normalized convention as the
    measurement-space statistics; the whitener comes from the thin SVD of
    the templates' data matrix, cut at its numerical rank, and no D x D
    matrix is formed. Raises ContractError and DegenerateDataError as
    scatter.total_scatter_basis does.
    """
    basis = total_scatter_basis(rows, labels)
    return MatchingContext(whitener=basis.omega / basis.s)


def pairwise_distances(rows: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances between the rows of a matrix.

    Entry (i, j) is np.linalg.norm(rows - rows[i], axis=1)[j], bit for bit:
    that norm is sqrt(add.reduce(d * d, axis=1)) over the contiguous last
    axis, so no entry depends on which other rows share the call. Row i
    computes j >= i and mirrors it into column i; rows[j] - rows[i] is the
    exact negation of rows[i] - rows[j], so the result is bit-symmetric
    with a zero diagonal. Each step holds one (n - i, width) difference.
    """
    n = len(rows)
    dist = np.empty((n, n))
    for i in range(n):
        diff = rows[i:] - rows[i]
        np.multiply(diff, diff, out=diff)
        dist[i, i:] = dist[i:, i] = np.sqrt(np.add.reduce(diff, axis=1))
        del diff  # freed before the next row's difference is made
    return dist
