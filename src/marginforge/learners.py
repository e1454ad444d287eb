"""Linear feature-transform learners.

learn_mmc maximizes the margin trace tr(Sb - Sw) = tr(2 Sb - St) over
transforms that whiten total scatter. It never forms St eigenvectors
directly; a two-step SVD route (data matrix, then whitened class-mean
matrix) gives the same pencil solution with better conditioning:

    1. X has one column (x_n - mu) / sqrt(N_c(n)) per sample, so
       X X^T = St; U has one column (mu_c - mu) per class, so U U^T = Sb.
    2. SVD of X yields the St eigenbasis Omega and eigenvalues Theta = s^2
       (columns at or below the numerical-rank cutoff are dropped).
    3. B = Theta^(-1/2) Omega^T U; the left singular vectors Xi of B
       diagonalize whitened between-class scatter.
    4. Psi = Omega Theta^(-1/2) Xi satisfies Psi^T St Psi = I and
       Psi^T Sb Psi = diag(delta) with delta in [0, 1] descending.
    5. Keep columns with delta >= 1/2: exactly the directions where the
       margin 2*delta - 1 is nonnegative. At most C - 1 can qualify.

learn_pcalda is the comparison route: project onto the top principal
directions of St, then solve the LDA generalized problem in that subspace,
with a trace-scaled ridge when projected within-class scatter is singular.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from ._jsonio import canonical_dumps, load_json, write_json
from .dataset import FlatSample
from .errors import ContractError, DegenerateDataError, SchemaError, ValidationError
from .scatter import ScatterStatistics

METHODS = ("mmc", "pca_lda", "identity")

# Margin selection boundary: a direction is kept iff its between-class
# share delta satisfies delta >= DELTA_KEEP. The comparison is exact.
DELTA_KEEP = 0.5

# Off-diagonal mass in Psi^T Sb Psi beyond this (Frobenius) means the two
# SVD steps disagreed with the scatter computation; diagnose, don't hide.
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


@dataclass(frozen=True)
class FeatureTransform:
    """A learned linear map from measurement space to feature space.

    phi has shape (input_dim, feature_dim); a row vector x maps to x @ phi.
    delta holds the per-column selection scores (margin shares for mmc,
    generalized eigenvalues for pca_lda, ones for identity).
    """

    method: str
    phi: np.ndarray
    delta: np.ndarray
    fallback_used: bool = False
    ridge_used: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        phi = np.asarray(self.phi, dtype=np.float64)
        delta = np.asarray(self.delta, dtype=np.float64)
        if phi.ndim != 2 or phi.shape[1] < 1:
            raise ContractError("phi must be a (input_dim, feature_dim) matrix")
        if delta.shape != (phi.shape[1],):
            raise ContractError("delta must have one entry per phi column")
        phi = np.ascontiguousarray(phi)
        phi.flags.writeable = False
        delta = np.ascontiguousarray(delta)
        delta.flags.writeable = False
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "delta", delta)

    @property
    def input_dim(self) -> int:
        return self.phi.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.phi.shape[1]

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Map vectors (..., input_dim) into feature space (..., feature_dim)."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.shape[-1] != self.input_dim:
            raise ContractError(
                f"expected vectors of dimension {self.input_dim}, "
                f"got {vectors.shape[-1]}"
            )
        return vectors @ self.phi

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

    def fingerprint(self) -> str:
        """Content hash binding galleries to the transform that built them."""
        return hashlib.sha256(
            canonical_dumps(self.to_json_dict()).encode()
        ).hexdigest()


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


def _check_stats_match(stats: ScatterStatistics, data: Sequence[FlatSample]):
    # Guard the "stats computed from data" precondition cheaply: same
    # dimensionality, same labels, same per-class counts.
    if stats.num_classes < 2:
        raise ContractError("need at least 2 classes")
    counts: dict[str, int] = {}
    for f in data:
        counts[f.label] = counts.get(f.label, 0) + 1
        if f.dimension != stats.dimension:
            raise ContractError(
                f"sample dimension {f.dimension} does not match "
                f"statistics dimension {stats.dimension}"
            )
    if tuple(sorted(counts)) != stats.labels:
        raise ContractError("statistics labels do not match data labels")
    for k, lab in enumerate(stats.labels):
        if counts[lab] != stats.class_sizes[k]:
            raise ContractError(
                f"statistics class sizes do not match data (class {lab!r})"
            )


def learn_mmc(stats: ScatterStatistics, data: Sequence[FlatSample]) -> FeatureTransform:
    """Learn the maximum-margin transform from labeled vectors.

    stats must be the scatter statistics of data. The result whitens total
    scatter (phi^T St phi = I) and keeps the margin-positive directions.

    Raises DegenerateDataError when the data has no variance at all. When
    no direction reaches delta >= 1/2, the single best direction is kept
    and fallback_used is set.
    """
    data = list(data)
    _check_stats_match(stats, data)
    by_label: dict[str, list[np.ndarray]] = {lab: [] for lab in stats.labels}
    for f in data:
        by_label[f.label].append(f.vector)

    # Data matrix with per-class 1/sqrt(N_c) column scaling: X X^T equals
    # the per-class-normalized total scatter exactly.
    cols = []
    for k, lab in enumerate(stats.labels):
        scale = 1.0 / np.sqrt(stats.class_sizes[k])
        for v in by_label[lab]:
            cols.append((v - stats.overall_mean) * scale)
    x = np.stack(cols, axis=1)
    u_means = (stats.class_means - stats.overall_mean).T  # (D, C)

    omega, s, _ = np.linalg.svd(x, full_matrices=False)
    cutoff = max(x.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    if rank == 0:
        raise DegenerateDataError("total scatter is zero: no usable variance")
    omega = omega[:, :rank]
    inv_sqrt_theta = 1.0 / s[:rank]

    b = inv_sqrt_theta[:, None] * (omega.T @ u_means)
    xi, _, _ = np.linalg.svd(b, full_matrices=False)
    psi = omega @ (inv_sqrt_theta[:, None] * xi)

    projected_b = psi.T @ stats.sigma_b @ psi
    delta_full = np.diag(projected_b).copy()
    off = projected_b - np.diag(delta_full)
    off_norm = float(np.linalg.norm(off))
    if off_norm > OFF_DIAGONAL_WARN:
        warnings.warn(
            f"between-class scatter not diagonalized: off-diagonal norm "
            f"{off_norm:.3e}",
            RuntimeWarning,
        )

    selection = select_margin_columns(delta_full, limit=stats.num_classes - 1)
    kept = list(selection.kept_indices)
    phi = _canonical_signs(psi[:, kept])
    return FeatureTransform(
        method="mmc",
        phi=phi,
        delta=delta_full[kept],
        fallback_used=selection.fallback_used,
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
    stats: ScatterStatistics,
    data: Sequence[FlatSample],
    pca_dim: Optional[int] = None,
) -> FeatureTransform:
    """Learn the PCA + LDA comparison transform.

    Projects onto the pca_dim (default: number of classes) leading
    principal directions of total scatter, then solves the generalized
    between/within eigenproblem there. A trace-scaled ridge is added to
    projected within-class scatter when it is singular; ridge_used records
    that.
    """
    data = list(data)
    _check_stats_match(stats, data)
    n, c, d = len(data), stats.num_classes, stats.dimension
    if pca_dim is None:
        pca_dim = c
    if pca_dim < c or pca_dim > n - c:
        raise ContractError(
            f"pca_dim must lie in [{c}, {n - c}] "
            f"(classes {c}, samples {n}), got {pca_dim}"
        )
    if pca_dim > d:
        raise ContractError(f"pca_dim {pca_dim} exceeds input dimension {d}")

    w, q = np.linalg.eigh(stats.sigma_t)
    if not np.max(w) > 0:
        raise DegenerateDataError("total scatter is zero: no usable variance")
    p = q[:, ::-1][:, :pca_dim]

    sb_p = p.T @ stats.sigma_b @ p
    sw_p = p.T @ stats.sigma_w @ p
    sb_p = (sb_p + sb_p.T) / 2.0
    sw_p = (sw_p + sw_p.T) / 2.0

    def with_ridge(sw):
        trace_w = float(np.trace(sw))
        base = trace_w if trace_w > 0 else float(np.trace(p.T @ stats.sigma_t @ p))
        return sw + (1e-8 * base / pca_dim) * np.eye(pca_dim)

    ew = np.linalg.eigvalsh(sw_p)
    ridge_used = bool(ew[0] <= max(ew[-1], 0.0) * 1e-12)
    if ridge_used:
        sw_p = with_ridge(sw_p)
    try:
        lam, vecs = scipy.linalg.eigh(sb_p, sw_p)
    except scipy.linalg.LinAlgError:
        sw_p = with_ridge(sw_p)
        ridge_used = True
        lam, vecs = scipy.linalg.eigh(sb_p, sw_p)
    lam = lam[::-1]
    vecs = vecs[:, ::-1]

    # Between-class rank bounds the useful directions at C - 1; treat
    # eigenvalues within 1e-9 of the largest magnitude as zero.
    tol = max(abs(lam[0]), abs(lam[-1])) * 1e-9
    kept = tuple(int(i) for i in np.flatnonzero(lam > tol)[: c - 1])
    fallback = not kept
    if fallback:
        kept = (0,)
    phi = _canonical_signs(p @ vecs[:, list(kept)])
    return FeatureTransform(
        method="pca_lda",
        phi=phi,
        delta=lam[list(kept)],
        fallback_used=fallback,
        ridge_used=ridge_used,
    )
