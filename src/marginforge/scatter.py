"""Total-scatter eigenbasis of a labeled vector population.

A labeled population is a matrix with one vector per row plus one label
per row; any sortable labels do, such as names or integer codes. It is
grouped into classes in sorted label order, each keeping its rows' order.
total_scatter_basis takes the thin SVD of the data matrix X, with one
column (x_n - mu) / sqrt(N_c(n)) per row, mu the mean of all N rows and
N_c(n) the size of row n's class, so that X X^T is the per-class
normalized total scatter St. It keeps the St eigenbasis of the data's
span, and never forms a D x D matrix. The learners run on that basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DegenerateDataError


def _class_stacks(rows: np.ndarray, labels: Sequence) -> tuple:
    """(labels, stacks): the sorted distinct labels and each one's
    (N_c, D) stack of rows, in row order; labels[n] names the class of
    row n.

    Raises ContractError on a non-2-D input, no rows, a label count other
    than the row count, a non-finite entry or fewer than 2 classes.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ContractError(f"rows must form a 2-D matrix, got {rows.ndim}-D")
    if not len(rows):
        raise ContractError("no samples")
    if len(labels) != len(rows):
        raise ContractError(f"{len(labels)} labels for {len(rows)} rows")
    if not np.isfinite(rows).all():
        raise ContractError("non-finite entry")
    names, codes = np.unique(labels, return_inverse=True)
    if len(names) < 2:
        raise ContractError("need at least 2 classes")
    return tuple(names.tolist()), [rows[codes == k] for k in range(len(names))]


@dataclass(frozen=True, eq=False)
class ScatterBasis:
    """The total-scatter eigenbasis of a population's span.

    omega (D x rank) holds the left singular vectors of X whose singular
    values s (descending) lie above the numerical-rank cutoff, so St =
    omega diag(s**2) omega^T. Class means follow sorted label order,
    recorded in labels; samples counts the rows.
    """

    omega: np.ndarray
    s: np.ndarray
    class_means: np.ndarray
    overall_mean: np.ndarray
    labels: tuple
    samples: int

    @property
    def rank(self) -> int:
        return self.s.shape[0]


def total_scatter_basis(rows: np.ndarray, labels: Sequence) -> ScatterBasis:
    """Thin SVD of the per-class-scaled data matrix, cut at its numerical rank.

    Raises ContractError as _class_stacks does, and DegenerateDataError
    when the data has no variance at all.
    """
    labels, stacks = _class_stacks(rows, labels)
    class_means = np.stack([stack.mean(axis=0) for stack in stacks])
    overall_mean = np.concatenate(stacks).mean(axis=0)
    x = np.concatenate(
        [(stack - overall_mean) * (1.0 / np.sqrt(len(stack))) for stack in stacks]
    ).T
    omega, s, _ = np.linalg.svd(x, full_matrices=False)
    cutoff = max(x.shape) * np.finfo(np.float64).eps * s[0]
    rank = int(np.sum(s > cutoff))
    if rank == 0:
        raise DegenerateDataError("total scatter is zero: no usable variance")
    omega, s = omega[:, :rank], s[:rank]
    for a in (omega, s, class_means, overall_mean):
        a.flags.writeable = False
    return ScatterBasis(
        omega=omega,
        s=s,
        class_means=class_means,
        overall_mean=overall_mean,
        labels=labels,
        samples=x.shape[1],
    )
