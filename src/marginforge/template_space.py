"""Templates and the Mahalanobis matcher, one template per matrix row.

A template is a gait sample pushed through a feature transform;
template_rows pushes a whole (n, input_dim) matrix of flattened samples.
Both learners whiten the learning fold's total scatter (Phi^T St Phi = I),
so the Euclidean distance between their templates is already its
Mahalanobis distance, and the evaluator matches them as they are. The
identity route has no transform: the evaluator matches its raw rows as
they are, by Euclidean distance, so it is a baseline with no learning.
pairwise_distances measures every pair of rows, each row against itself
and the rows after it.

MatchingContext is the public Mahalanobis matcher, which the evaluator
does not use: the distance of a population's total scatter St,
estimated by context_of_rows. On the span of the data that distance is
sqrt(g^T St^+ g) under the pseudo-inverse St^+ (Penrose 1955). The
context holds the D x r whitener W = Omega_r diag(1/s_r) read off the
thin SVD of the rows' data matrix (scatter.total_scatter_basis), where r
is the numerical rank, so W W^T = St^+; whiten() maps rows to v @ W,
where the Mahalanobis distance is the Euclidean one and a direction that
carries no data contributes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import MAX_COORDINATE
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
        context's Mahalanobis distance is the Euclidean one; a row refused
        by the bound of _row_products is named by its index."""
        return _row_products(vectors, self.whitener, range(len(vectors)))


def _row_products(vectors: np.ndarray, matrix: np.ndarray, sample_ids) -> np.ndarray:
    """vectors @ matrix, one vector-matrix product per row, so no row's bits
    depend on the other rows or on the BLAS thread count. A row with a NaN or
    an entry past MAX_COORDINATE raises ContractError naming its sample_ids
    entry: rows within GaitSample's bound keep every distance, separability
    sum and sweep finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.matmul(vectors[..., None, :], matrix)[..., 0, :]
        bad = np.flatnonzero(~(np.abs(rows) <= MAX_COORDINATE).all(axis=-1))
    if bad.size:
        raise ContractError(f"template {sample_ids[bad[0]]!r}: an entry is not "
                            f"within the limit {MAX_COORDINATE:.3g}")
    return rows


def template_rows(
    transform: FeatureTransform, vectors: np.ndarray, sample_ids: Sequence[str]
) -> np.ndarray:
    """Templates of the rows of a (n, input_dim) matrix: row i is
    vectors[i] @ transform.phi, bit for bit (one vector-matrix product per
    row). sample_ids name the rows in the ContractError of _row_products."""
    if vectors.shape[1] != transform.input_dim:
        raise ContractError(
            f"expected vectors of dimension {transform.input_dim}, "
            f"got {vectors.shape[1]}"
        )
    return _row_products(vectors, transform.phi, sample_ids)


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
