"""Linear feature-transform learners.

Both learners read a labeled population as scatter does: a matrix with
one vector per row and one label per row. They run one kernel that
whitens total scatter and diagonalizes whitened between-class scatter.
It never forms a D x D scatter matrix; a two-step SVD route (data
matrix, then whitened class-mean matrix) solves the Sb/St pencil with
better conditioning:

    1. X has one column (x_n - mu) / sqrt(N_c(n)) per sample, so
       X X^T = St; U has one column (mu_c - mu) per class, so U U^T = Sb.
    2. SVD of X yields the St eigenbasis Omega and eigenvalues Theta = s^2
       (columns at or below the numerical-rank cutoff are dropped, and
       at most r leading columns are kept when a rank r is given).
    3. B = Theta^(-1/2) Omega^T U; the left singular vectors Xi of B
       diagonalize whitened between-class scatter.
    4. Psi = Omega Theta^(-1/2) Xi satisfies Psi^T St Psi = I and
       Psi^T Sb Psi = diag(delta) with delta in [0, 1] descending.

The learners differ only in the rank and the keep rule:

    learn_mmc     full numerical rank; keep columns with delta >= 1/2,
                  exactly the directions where the margin 2*delta - 1 is
                  nonnegative. At most C - 1 can qualify.
    learn_pcalda  rank pca_dim (PCA), then keep the C - 1 leading columns
                  with nonzero delta (LDA). Since St = Sb + Sw, an LDA
                  eigenvalue lambda of the Sb/Sw pencil is the share
                  delta = lambda / (1 + lambda) on the same direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._jsonio import load_json, write_json
from .errors import ContractError, SchemaError, ValidationError
from .scatter import ScatterBasis, ScatterStatistics, total_scatter_basis

METHODS = ("mmc", "pca_lda", "identity")

# Margin selection boundary: a direction is kept iff its between-class
# share delta satisfies delta >= DELTA_KEEP. The comparison is exact.
DELTA_KEEP = 0.5

# Off-diagonal mass in Psi^T Sb Psi beyond this (Frobenius) means the two
# SVD steps failed to diagonalize between-class scatter; diagnose, don't
# hide: the transform carries a finding.
OFF_DIAGONAL_WARN = 1e-6


@dataclass(frozen=True)
class EigenSelection:
    """Which candidate columns survived the selection rule.

    kept_indices index into the descending-ordered candidate columns;
    discarded_count is how many candidates were rejected. kept_indices is
    never empty: when nothing qualifies, the top column is kept and
    fallback_used is set.
    """

    kept_indices: tuple
    discarded_count: int
    fallback_used: bool

    def __post_init__(self):
        if not self.kept_indices:
            raise ContractError("kept_indices must not be empty")
        if self.discarded_count < 0:
            raise ContractError("discarded_count must be nonnegative")


def select_margin_columns(values: np.ndarray, limit: Optional[int] = None) -> EigenSelection:
    """Apply the keep-at-least-1/2 rule to a descending score vector.

    limit caps how many leading columns are eligible (the between-class
    rank bound). Empty selections fall back to the single top column.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ContractError("values must be a nonempty vector")
    eligible = values if limit is None else values[:limit]
    kept = tuple(int(i) for i in np.flatnonzero(eligible >= DELTA_KEEP))
    fallback = not kept
    if fallback:
        kept = (0,)
    return EigenSelection(
        kept_indices=kept,
        discarded_count=values.size - len(kept),
        fallback_used=fallback,
    )


@dataclass(frozen=True, eq=False)
class FeatureTransform:
    """A learned linear map from measurement space to feature space.

    phi has shape (input_dim, feature_dim); a row vector x maps to x @ phi.
    The learned methods (mmc, pca_lda) whiten total scatter,
    phi^T St phi = I, and delta holds each column's between-class share
    of total scatter, phi^T Sb phi = diag(delta); identity has ones.
    warnings holds the learner's findings; it is not part of the JSON form.
    """

    method: str
    phi: np.ndarray
    delta: np.ndarray
    fallback_used: bool = False
    ridge_used: bool = False
    warnings: tuple = ()

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        phi = np.array(self.phi, dtype=np.float64, order="C")  # own copy
        delta = np.array(self.delta, dtype=np.float64, order="C")
        if phi.ndim != 2 or phi.shape[1] < 1:
            raise ContractError("phi must be a (input_dim, feature_dim) matrix")
        if delta.shape != (phi.shape[1],):
            raise ContractError("delta must have one entry per phi column")
        phi.flags.writeable = False
        delta.flags.writeable = False
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "delta", delta)

    @property
    def input_dim(self) -> int:
        return self.phi.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.phi.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "input_dim": self.input_dim,
            "feature_dim": self.feature_dim,
            "delta": self.delta.tolist(),
            "phi": self.phi.reshape(-1).tolist(),  # row-major
            "fallback_used": self.fallback_used,
            "ridge_used": self.ridge_used,
        }

    @classmethod
    def from_json_dict(cls, obj) -> "FeatureTransform":
        if not isinstance(obj, dict):
            raise SchemaError("transform document must be a JSON object")
        try:
            method = obj["method"]
            input_dim = int(obj["input_dim"])
            feature_dim = int(obj["feature_dim"])
            delta = obj["delta"]
            phi = obj["phi"]
            fallback_used = bool(obj["fallback_used"])
            ridge_used = bool(obj["ridge_used"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"transform document missing/invalid field: {exc}")
        if method not in METHODS:
            raise SchemaError(f"unknown method {method!r}")
        if input_dim < 1 or feature_dim < 1:
            raise SchemaError("dimensions must be positive")
        if len(phi) != input_dim * feature_dim:
            raise SchemaError(
                f"phi has {len(phi)} entries, expected "
                f"{input_dim}*{feature_dim} = {input_dim * feature_dim}"
            )
        if len(delta) != feature_dim:
            raise SchemaError("delta length must equal feature_dim")
        phi = np.asarray(phi, dtype=np.float64).reshape(input_dim, feature_dim)
        return cls(
            method=method,
            phi=phi,
            delta=np.asarray(delta, dtype=np.float64),
            fallback_used=fallback_used,
            ridge_used=ridge_used,
        )


def save_transform(transform: FeatureTransform, path):
    write_json(path, transform.to_json_dict())


def load_transform(path) -> FeatureTransform:
    return FeatureTransform.from_json_dict(load_json(path, what="transform"))


def identity_transform(dim: int) -> FeatureTransform:
    """Pass-through transform; the no-learning baseline."""
    if dim < 1:
        raise ContractError("dim must be positive")
    return FeatureTransform(method="identity", phi=np.eye(dim), delta=np.ones(dim))


def _canonical_signs(phi: np.ndarray) -> np.ndarray:
    # Eigenvector signs are arbitrary; fix each column so its largest-
    # magnitude entry (first such on ties) is positive.
    phi = phi.copy()
    for j in range(phi.shape[1]):
        k = int(np.argmax(np.abs(phi[:, j])))
        if phi[k, j] < 0:
            phi[:, j] = -phi[:, j]
    return phi


def _whitened_discriminants(basis: ScatterBasis, rank: Optional[int] = None):
    """The shared learner kernel: steps 3-4 of the module docstring on the
    basis of steps 1-2, scatter.total_scatter_basis.

    rank truncates the total-scatter basis (None: its numerical rank).
    Returns (psi, delta, findings): psi^T St psi = I, psi^T Sb psi =
    diag(delta) with delta descending; findings names an off-diagonal residue.
    """
    r = basis.rank if rank is None else min(rank, basis.rank)
    omega = basis.omega[:, :r]
    inv_sqrt_theta = 1.0 / basis.s[:r]
    u_means = (basis.class_means - basis.overall_mean).T  # (D, C)

    b = inv_sqrt_theta[:, None] * (omega.T @ u_means)
    xi, _, _ = np.linalg.svd(b, full_matrices=False)
    psi = omega @ (inv_sqrt_theta[:, None] * xi)

    # U U^T = Sb, so (psi^T U)(psi^T U)^T is psi^T Sb psi.
    projected_u = psi.T @ u_means
    projected_b = projected_u @ projected_u.T
    delta = np.diag(projected_b).copy()
    off_norm = float(np.linalg.norm(projected_b - np.diag(delta)))
    findings = ()
    if off_norm > OFF_DIAGONAL_WARN:
        findings = (
            "RuntimeWarning: between-class scatter not diagonalized: "
            f"off-diagonal norm {off_norm:.3e}",
        )
    return psi, delta, findings


def learn_mmc(rows: np.ndarray, labels: Sequence) -> FeatureTransform:
    """Learn the maximum-margin transform from labeled rows.

    The result whitens total scatter (phi^T St phi = I) and keeps the
    margin-positive directions.

    Raises ContractError and DegenerateDataError as
    scatter.total_scatter_basis does. When no direction reaches
    delta >= 1/2, the single best direction is kept and fallback_used is
    set.
    """
    basis = total_scatter_basis(rows, labels)
    psi, delta, findings = _whitened_discriminants(basis)
    selection = select_margin_columns(delta, limit=len(basis.labels) - 1)
    kept = list(selection.kept_indices)
    return FeatureTransform(
        method="mmc",
        phi=_canonical_signs(psi[:, kept]),
        delta=delta[kept],
        fallback_used=selection.fallback_used,
        warnings=findings,
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
    """Margin trace of the learned transform against the given statistics."""
    if transform.input_dim != stats.dimension:
        raise ContractError(
            f"transform input dimension {transform.input_dim} does not "
            f"match statistics dimension {stats.dimension}"
        )
    return margin_trace(stats, transform.phi)


def learn_pcalda(
    rows: np.ndarray, labels: Sequence, pca_dim: Optional[int] = None
) -> FeatureTransform:
    """Learn the PCA + LDA comparison transform.

    Keeps the pca_dim (default: number of classes) leading principal
    directions of total scatter and solves LDA there. That is the shared
    kernel at rank pca_dim: each LDA eigenvalue lambda appears as the
    between-class share delta = lambda / (1 + lambda), with the same
    directions, scaled so that phi^T St phi = I. ridge_used records that
    projected within-class scatter is singular: the top delta is 1, or
    total scatter has fewer than pca_dim nonzero directions.
    """
    basis = total_scatter_basis(rows, labels)
    n, c, dim = len(labels), len(basis.labels), basis.omega.shape[0]
    if pca_dim is None:
        pca_dim = c
    if pca_dim < c or pca_dim > n - c:
        raise ContractError(
            f"pca_dim must lie in [{c}, {n - c}] "
            f"(classes {c}, samples {n}), got {pca_dim}"
        )
    if pca_dim > dim:
        raise ContractError(f"pca_dim {pca_dim} exceeds input dimension {dim}")
    psi, delta, findings = _whitened_discriminants(basis, pca_dim)

    # Between-class rank bounds the useful directions at C - 1; treat
    # shares within 1e-9 of the largest as zero.
    kept = [int(i) for i in np.flatnonzero(delta > delta[0] * 1e-9)[: c - 1]]
    fallback = not kept
    if fallback:
        kept = [0]
    return FeatureTransform(
        method="pca_lda",
        phi=_canonical_signs(psi[:, kept]),
        delta=delta[kept],
        fallback_used=fallback,
        ridge_used=bool(basis.rank < pca_dim or abs(delta[0] - 1.0) <= 1e-12),
        warnings=findings,
    )
