"""Templates, one per matrix row, and the distances between rows.

A template is a gait sample pushed through a feature transform;
template_rows pushes a whole (n, input_dim) matrix of flattened samples.
Both learners whiten the learning fold's total scatter (Phi^T St Phi = I),
so the Euclidean distance between their templates is already its
Mahalanobis distance, and the evaluator matches them as they are. The
identity route has no transform: the evaluator matches its raw rows as
they are, by Euclidean distance, so it is a baseline with no learning.
pairwise_distances measures every pair of rows, each row against itself
and the rows after it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dataset import MAX_COORDINATE
from .errors import ContractError
from .learners import FeatureTransform


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
