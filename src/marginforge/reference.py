"""The independent D x D route that acceptance criteria 1-3 and 9 check
the program against: the scatter matrices, the margin trace read off
them, and the Mahalanobis matcher. Nothing the program runs imports it.

Conventions, for classes c with N_c members, class means mu_c, and global
mean mu over all N vectors:

    between class  Sb = sum_c (mu_c - mu)(mu_c - mu)^T
    within class   Sw = sum_c (1/N_c) sum_n (x_n - mu_c)(x_n - mu_c)^T
    total          St = sum_c (1/N_c) sum_n (x_n - mu)(x_n - mu)^T

The between-class sum is over classes, not samples, so class sizes do not
weight it; the within and total sums normalize per class. Under these
conventions St = Sb + Sw holds identically.

MatchingContext is the Mahalanobis matcher: the distance of a
population's total scatter St, estimated by context_of_rows. On the
span of the data that distance is sqrt(g^T St^+ g) under the
pseudo-inverse St^+ (Penrose 1955). The context holds the D x r whitener
W = Omega_r diag(1/s_r) read off the thin SVD of the rows' data matrix
(scatter.total_scatter_basis), where r is the numerical rank, so
W W^T = St^+; whiten() maps rows to v @ W, where the Mahalanobis distance
is the Euclidean one and a direction that carries no data contributes
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError
from .learners import FeatureTransform
from .scatter import _class_stacks, total_scatter_basis
from .template_space import _row_products


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


def margin_trace(stats: ScatterStatistics, phi: np.ndarray) -> float:
    """tr(phi^T (Sb - Sw) phi) for an arbitrary column matrix phi."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[0] != stats.dimension:
        raise ContractError(
            f"phi rows ({phi.shape[0] if phi.ndim == 2 else 'n/a'}) must "
            f"match statistics dimension {stats.dimension}"
        )
    m = stats.sigma_b - stats.sigma_w
    return float(np.trace(phi.T @ m @ phi))


def mmc_objective(transform: FeatureTransform, stats: ScatterStatistics) -> float:
    """Margin trace of the learned transform against the given statistics;
    margin_trace refuses a transform of another input dimension."""
    return margin_trace(stats, transform.phi)


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
