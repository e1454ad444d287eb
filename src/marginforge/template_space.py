"""Templates, galleries, and the Mahalanobis matcher.

A template is a gait sample pushed through a feature transform. Matching
uses the Mahalanobis distance under the inverse total scatter of a
reference template population, estimated once (normally from the learning
fold) and frozen into a MatchingContext. The context factors that inverse
once as L L^T (Cholesky), and whiten() maps templates to v @ L: every
Mahalanobis distance is then a plain Euclidean distance between whitened
templates, and no other module touches the inverse. Because the margin
learner whitens total scatter, its context comes out numerically close to
the identity.

A gallery persists templates together with the matching context and a
fingerprint of the transform that produced them, so a gallery can never
be silently matched against features from a different transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._jsonio import load_json, write_json
from .dataset import FlatSample
from .errors import (
    ContractError,
    DegenerateDataError,
    SchemaError,
    StaleGalleryError,
    ValidationError,
)
from .learners import FeatureTransform
from .scatter import compute_scatter

# The source records how the inverse was obtained: a plain inversion, or
# one rescued by a ridge because the scatter was ill-conditioned.
CONTEXT_SOURCES = ("exact", "ridge")

# Worse conditioning than this and the template scatter inverse is noise;
# a trace-scaled ridge restores it and the context records that.
CONDITION_LIMIT = 1e12
RIDGE_SCALE = 1e-10

# Contexts must be symmetric to this tolerance, relative to matrix norm.
SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class GaitTemplate:
    """A feature-space vector with its identity label and provenance id."""

    vector: np.ndarray
    label: str
    sample_id: str

    def __post_init__(self):
        vector = np.ascontiguousarray(self.vector, dtype=np.float64)
        if vector.ndim != 1:
            raise ContractError("template vector must be 1-D")
        if not np.all(np.isfinite(vector)):
            raise ContractError(f"template {self.sample_id!r}: non-finite entry")
        vector.flags.writeable = False
        object.__setattr__(self, "vector", vector)

    @property
    def dimension(self) -> int:
        return self.vector.shape[0]


@dataclass(frozen=True)
class MatchingContext:
    """Inverse feature-space total scatter for the Mahalanobis form."""

    sigma_t_feature_inv: np.ndarray
    source: str
    # Lower Cholesky factor of the symmetrized inverse; derived, not stored.
    whitener: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.source not in CONTEXT_SOURCES:
            raise ValidationError(f"unknown context source {self.source!r}")
        inv = np.ascontiguousarray(self.sigma_t_feature_inv, dtype=np.float64)
        if inv.ndim != 2 or inv.shape[0] != inv.shape[1]:
            raise ContractError("context matrix must be square")
        if not np.all(np.isfinite(inv)):
            raise ContractError("context matrix has a non-finite entry")
        scale = max(float(np.linalg.norm(inv)), 1.0)
        if float(np.linalg.norm(inv - inv.T)) > SYMMETRY_TOL * scale:
            raise ContractError("context matrix must be symmetric")
        try:
            whitener = np.linalg.cholesky((inv + inv.T) / 2.0)
        except np.linalg.LinAlgError:
            raise ContractError("context matrix must be positive definite")
        inv.flags.writeable = False
        whitener.flags.writeable = False
        object.__setattr__(self, "sigma_t_feature_inv", inv)
        object.__setattr__(self, "whitener", whitener)

    @property
    def dimension(self) -> int:
        return self.sigma_t_feature_inv.shape[0]

    def whiten(self, vectors: np.ndarray) -> np.ndarray:
        """Map feature vectors (rows) to coordinates where this context's
        Mahalanobis distance is the Euclidean one."""
        return vectors @ self.whitener

    def to_json_dict(self) -> dict:
        return {
            "inverse": self.sigma_t_feature_inv.reshape(-1).tolist(),  # row-major
            "source": self.source,
        }

    @classmethod
    def from_json_dict(cls, obj, dimension: int) -> "MatchingContext":
        try:
            inverse = obj["inverse"]
            source = obj["source"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"context missing field: {exc}")
        if len(inverse) != dimension * dimension:
            raise SchemaError(
                f"context inverse has {len(inverse)} entries, expected "
                f"{dimension}*{dimension}"
            )
        inverse = np.asarray(inverse, dtype=np.float64).reshape(dimension, dimension)
        if source not in CONTEXT_SOURCES:
            raise SchemaError(f"unknown context source {source!r}")
        return cls(sigma_t_feature_inv=inverse, source=source)


def extract_template(transform: FeatureTransform, sample: FlatSample) -> GaitTemplate:
    """Push one flattened sample through the transform."""
    return GaitTemplate(
        vector=transform.apply(sample.vector),
        label=sample.label,
        sample_id=sample.sample_id,
    )


def build_matching_context(
    transform: FeatureTransform, learning_templates: Sequence[GaitTemplate]
) -> MatchingContext:
    """Estimate the inverse total scatter of a template population.

    Feature-space total scatter follows the same per-class-normalized
    convention as the measurement-space statistics. If the matrix is
    ill-conditioned a trace-scaled ridge is added and the recorded source
    becomes "ridge"; otherwise it is "exact".
    """
    templates = list(learning_templates)
    if not templates:
        raise ContractError("no templates")
    for t in templates:
        if t.dimension != transform.feature_dim:
            raise ContractError(
                f"template {t.sample_id!r} has dimension {t.dimension}, "
                f"transform produces {transform.feature_dim}"
            )
    stats = compute_scatter(templates)
    sigma = stats.sigma_t.copy()
    dim = sigma.shape[0]
    if not np.any(sigma):
        raise DegenerateDataError("template scatter is zero: cannot invert")
    source = "exact"
    if np.linalg.cond(sigma) > CONDITION_LIMIT:
        trace = float(np.trace(sigma))
        if trace <= 0:
            raise DegenerateDataError("template scatter is zero: cannot invert")
        sigma = sigma + (RIDGE_SCALE * trace / dim) * np.eye(dim)
        source = "ridge"
        if np.linalg.cond(sigma) > CONDITION_LIMIT:
            raise DegenerateDataError(
                "template scatter is numerically singular even after ridge"
            )
    inverse = np.linalg.inv(sigma)
    inverse = (inverse + inverse.T) / 2.0
    return MatchingContext(sigma_t_feature_inv=inverse, source=source)


def mahalanobis(context: MatchingContext, a: GaitTemplate, b: GaitTemplate) -> float:
    """Mahalanobis distance between two templates under the context."""
    if a.dimension != b.dimension or a.dimension != context.dimension:
        raise ContractError(
            f"dimension mismatch: {a.dimension}, {b.dimension}, "
            f"context {context.dimension}"
        )
    return float(np.linalg.norm(context.whiten(a.vector - b.vector)))


@dataclass(frozen=True)
class GalleryStore:
    """Enrolled templates bound to their transform and matching context."""

    transform_fingerprint: str
    context: MatchingContext
    templates: tuple

    def __post_init__(self):
        if not self.templates:
            raise ContractError("gallery needs at least one template")
        dim = self.templates[0].dimension
        for t in self.templates:
            if t.dimension != dim:
                raise ContractError(
                    f"template {t.sample_id!r} has dimension {t.dimension}, "
                    f"expected {dim}"
                )
        if self.context.dimension != dim:
            raise ContractError("context dimension does not match templates")

    @property
    def dimension(self) -> int:
        return self.templates[0].dimension

    @property
    def labels(self) -> tuple:
        return tuple(sorted({t.label for t in self.templates}))

    def ensure_matches(self, transform: FeatureTransform):
        """Refuse to pair this gallery with a transform it was not built from."""
        fp = transform.fingerprint()
        if fp != self.transform_fingerprint:
            raise StaleGalleryError(
                f"gallery was built with transform {self.transform_fingerprint[:12]}, "
                f"got {fp[:12]}"
            )

    def to_json_dict(self) -> dict:
        return {
            "transform_fingerprint": self.transform_fingerprint,
            "context": self.context.to_json_dict(),
            "templates": [
                {
                    "sample_id": t.sample_id,
                    "label": t.label,
                    "vector": t.vector.tolist(),
                }
                for t in self.templates
            ],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "GalleryStore":
        if not isinstance(obj, dict):
            raise SchemaError("gallery document must be a JSON object")
        try:
            fingerprint = obj["transform_fingerprint"]
            context_obj = obj["context"]
            template_objs = obj["templates"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"gallery document missing field: {exc}")
        if not template_objs:
            raise SchemaError("gallery has no templates")
        templates = []
        for i, t in enumerate(template_objs):
            try:
                templates.append(
                    GaitTemplate(
                        vector=np.asarray(t["vector"], dtype=np.float64),
                        label=t["label"],
                        sample_id=t["sample_id"],
                    )
                )
            except (KeyError, TypeError) as exc:
                raise SchemaError(f"gallery template {i}: missing field {exc}")
        dim = templates[0].dimension
        context = MatchingContext.from_json_dict(context_obj, dimension=dim)
        return cls(
            transform_fingerprint=fingerprint,
            context=context,
            templates=tuple(templates),
        )


def build_gallery(
    flats: Sequence[FlatSample],
    transform: FeatureTransform,
    context: Optional[MatchingContext] = None,
) -> GalleryStore:
    """Enroll flattened samples: template extraction plus context binding.

    Without an explicit context, one is estimated from the enrolled
    templates themselves.
    """
    templates = tuple(extract_template(transform, f) for f in flats)
    if not templates:
        raise ContractError("no samples to enroll")
    if context is None:
        context = build_matching_context(transform, templates)
    return GalleryStore(
        transform_fingerprint=transform.fingerprint(),
        context=context,
        templates=templates,
    )


def save_gallery(store: GalleryStore, path):
    write_json(path, store.to_json_dict())


def load_gallery(path) -> GalleryStore:
    return GalleryStore.from_json_dict(load_json(path, what="gallery"))
