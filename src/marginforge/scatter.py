"""Scatter statistics of a labeled vector population.

Conventions, for classes c with N_c members, class means mu_c, and global
mean mu over all N vectors:

    between class  Sb = sum_c (mu_c - mu)(mu_c - mu)^T
    within class   Sw = sum_c (1/N_c) sum_n (x_n - mu_c)(x_n - mu_c)^T
    total          St = sum_c (1/N_c) sum_n (x_n - mu)(x_n - mu)^T

The between-class sum is over classes, not samples, so class sizes do not
weight it; the within and total sums normalize per class. Under these
conventions St = Sb + Sw holds identically.

A labeled population is a matrix with one vector per row plus one label
per row; any sortable labels do, such as names or integer codes. Both
entry points group it the same way: classes in sorted label order, each
keeping its rows' order. compute_scatter forms the three D x D matrices.
total_scatter_basis never does: it takes the thin SVD of the data matrix
X, with one column (x_n - mu) / sqrt(N_c(n)) per row so that X X^T = St,
and keeps the St eigenbasis of the data's span. The learners and the
matching context run on that basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DegenerateDataError


@dataclass(frozen=True, eq=False)
class ScatterStatistics:
    """Scatter matrices plus the means they were computed from.

    Class-indexed arrays (class_means, class_sizes) follow sorted label
    order, recorded in labels.
    """

    sigma_b: np.ndarray
    sigma_w: np.ndarray
    sigma_t: np.ndarray
    overall_mean: np.ndarray
    class_means: np.ndarray
    class_sizes: np.ndarray
    labels: tuple

    @property
    def dimension(self) -> int:
        return self.overall_mean.shape[0]

    @property
    def num_classes(self) -> int:
        return len(self.labels)


def _kahan_add(total: np.ndarray, comp: np.ndarray, term: np.ndarray):
    # Compensated accumulation keeps the class-sum order-exact enough that
    # a run is reproducible bit for bit across repeats.
    y = term - comp
    t = total + y
    comp[...] = (t - total) - y
    total[...] = t


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


def compute_scatter(rows: np.ndarray, labels: Sequence) -> ScatterStatistics:
    """Compute scatter statistics of a labeled population.

    Accumulation over classes runs in sorted label order with compensated
    summation, so the result is deterministic for a fixed input set.
    """
    labels, stacks = _class_stacks(rows, labels)
    dim = stacks[0].shape[1]
    class_sizes = np.array([s.shape[0] for s in stacks], dtype=np.int64)
    class_means = np.stack([s.mean(axis=0) for s in stacks])
    overall_mean = np.concatenate(stacks).mean(axis=0)

    sigma_b, sigma_w, sigma_t, comp_b, comp_w, comp_t = (
        np.zeros((dim, dim)) for _ in range(6)
    )
    for k, stack in enumerate(stacks):
        n_c = class_sizes[k]
        gap = class_means[k] - overall_mean
        _kahan_add(sigma_b, comp_b, np.outer(gap, gap))
        dev_w = stack - class_means[k]
        _kahan_add(sigma_w, comp_w, dev_w.T @ dev_w / n_c)
        dev_t = stack - overall_mean
        _kahan_add(sigma_t, comp_t, dev_t.T @ dev_t / n_c)

    for a in (sigma_b, sigma_w, sigma_t, overall_mean, class_means, class_sizes):
        a.flags.writeable = False
    return ScatterStatistics(
        sigma_b=sigma_b,
        sigma_w=sigma_w,
        sigma_t=sigma_t,
        overall_mean=overall_mean,
        class_means=class_means,
        class_sizes=class_sizes,
        labels=labels,
    )


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

    Means are taken in compute_scatter's order. Raises ContractError like
    compute_scatter, and DegenerateDataError when the data has no
    variance at all.
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
