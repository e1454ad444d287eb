"""Nested cross-validation: outer learning folds, inner matching folds.

The outer loop splits the dataset into disjoint folds (3 by default),
learns the feature transform on ONE fold, and evaluates on the union of
the remaining folds: separability coefficients over the evaluation
templates, then an inner loop (10 by default) that takes each inner fold
as probes against the other inner folds as gallery, filling one score
block of probe-to-identity distances for the rank and threshold metrics.
The learning fold's matching context whitens the evaluation templates
once, and one matrix of Euclidean distances between the whitened rows
serves both: separability reads all of it, and each inner fold reads its
probe-by-gallery block.

Leakage is structural: the transform and the matching context are
functions of the learning fold only, and probes are stripped of their
labels before matching; true labels come back only for scoring.

Reports are deterministic: fold tasks are pure and internally sequential,
results are assembled in fold order, and the findings each fold returns
(from the learner, separability and the rank metrics) are deduplicated
and sorted, so the report bytes do not depend on how many worker threads
ran the folds, nor on anything else in the process that warns.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._jsonio import finite_or_null
from .dataset import LabeledDataset, flatten_all
from .errors import ContractError, MarginforgeError, ValidationError
from .learners import identity_transform, learn_mmc, learn_pcalda
from .metrics_classification import (
    CurveSeries,
    ScoreBlock,
    ThresholdSweep,
    cmc_fractions,
)
from .metrics_separability import SeparabilityReport, separability_of_rows
from .template_space import context_of_rows, pairwise_distances, template_rows

PROTOCOL_METHODS = ("mmc", "pca_lda", "identity")
PAIR_POLICIES = ("all", "class_best")

# Common grid for pointwise curve averaging across folds.
GRID_POINTS = 1001


@dataclass(frozen=True)
class FoldPlan:
    """Index sets for the nested loops.

    outer_folds partition all sample indices. inner_folds[f] partitions
    the evaluation set of outer fold f (everything outside fold f).
    """

    outer_folds: tuple
    inner_folds: tuple
    seed: int

    @property
    def n_outer(self) -> int:
        return len(self.outer_folds)

    @property
    def n_inner(self) -> int:
        return len(self.inner_folds[0]) if self.inner_folds else 0

    def evaluation_indices(self, fold: int) -> tuple:
        return tuple(sorted(i for part in self.inner_folds[fold] for i in part))


def _deal(indices: Sequence[int], n_folds: int, offset: int) -> list:
    folds = [[] for _ in range(n_folds)]
    for k, idx in enumerate(indices):
        folds[(k + offset) % n_folds].append(idx)
    return folds


def plan_folds(
    dataset: LabeledDataset, outer: int = 3, inner: int = 10, seed: int = 0
) -> FoldPlan:
    """Stratified nested fold assignment, deterministic under seed.

    Each class is shuffled once and dealt round-robin to the outer folds
    (with a per-class offset so remainders spread evenly); the evaluation
    set of every outer fold is dealt the same way to the inner folds.
    Every class must have at least `outer` samples, and every inner fold
    must receive at least one sample.
    """
    if outer < 2:
        raise ValidationError("need at least 2 outer folds")
    if inner < 2:
        raise ValidationError("need at least 2 inner folds")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    for label, members in dataset.class_index.items():
        if len(members) < outer:
            raise ValidationError(
                f"class {label!r} has {len(members)} samples; "
                f"need at least {outer} for {outer} outer folds"
            )

    rng = np.random.default_rng(seed)
    outer_folds = [[] for _ in range(outer)]
    for ci, label in enumerate(dataset.labels):
        members = np.array(dataset.class_index[label])
        shuffled = members[rng.permutation(len(members))]
        for k, part in enumerate(_deal(list(shuffled), outer, ci % outer)):
            outer_folds[k].extend(part)

    inner_folds = []
    for f in range(outer):
        in_fold = set(outer_folds[f])
        n_eval = dataset.num_samples - len(in_fold)
        empty = (
            f"outer fold {f}: {inner} inner folds over {n_eval} evaluation "
            "samples leave an inner fold empty"
        )
        if n_eval < inner:  # refuse before allocating `inner` lists
            raise ValidationError(empty)
        fold_parts = [[] for _ in range(inner)]
        for ci, label in enumerate(dataset.labels):
            members = np.array(
                [i for i in dataset.class_index[label] if i not in in_fold]
            )
            shuffled = members[rng.permutation(len(members))]
            for k, part in enumerate(_deal(list(shuffled), inner, ci % inner)):
                fold_parts[k].extend(part)
        if not all(fold_parts):
            raise ValidationError(empty)
        inner_folds.append(tuple(tuple(sorted(p)) for p in fold_parts))

    return FoldPlan(
        outer_folds=tuple(tuple(sorted(f)) for f in outer_folds),
        inner_folds=tuple(inner_folds),
        seed=seed,
    )


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs of run_protocol that belong in the report's config echo.

    workers is deliberately not echoed: it cannot change any number in
    the report, and echoing it would break byte-identity across worker
    counts.
    """

    pair_policy: str = "all"
    pca_dim: Optional[int] = None
    workers: int = 1

    def __post_init__(self):
        if self.pair_policy not in PAIR_POLICIES:
            raise ValidationError(f"unknown pair policy {self.pair_policy!r}")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")


@dataclass(frozen=True)
class EvaluationReport:
    """Everything one protocol run produces."""

    separability: tuple
    curves: dict
    headline: dict
    config: dict
    warnings: tuple

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "headline": {
                k: finite_or_null(v) if k in ("dbi", "di", "fdr") else v
                for k, v in self.headline.items()
            },
            "separability": [s.to_json_dict() for s in self.separability],
            "curves": {k: c.to_json_dict() for k, c in self.curves.items()},
            "warnings": list(self.warnings),
        }


@dataclass(eq=False)
class _FoldResult:
    separability: SeparabilityReport
    scalars: dict
    cmc_y: np.ndarray
    far_grid: np.ndarray
    frr_grid: np.ndarray
    tar_grid: np.ndarray
    precision_grid: np.ndarray
    warnings: tuple


def _run_fold(
    fold: int,
    vectors: np.ndarray,
    sample_ids: Sequence[str],
    label_codes: np.ndarray,
    label_names: np.ndarray,
    method: str,
    plan: FoldPlan,
    config: ProtocolConfig,
    grid: np.ndarray,
) -> _FoldResult:
    # vectors is the sample matrix, one row per sample id; label_codes
    # index label_names, which are sorted.
    learn_idx = list(plan.outer_folds[fold])
    learn_codes = label_codes[learn_idx]
    if method == "identity":
        transform = identity_transform(vectors.shape[1])
    elif method == "mmc":
        transform = learn_mmc(vectors[learn_idx], learn_codes)
    else:
        transform = learn_pcalda(vectors[learn_idx], learn_codes, config.pca_dim)

    templates = template_rows(transform, vectors, sample_ids)
    context = context_of_rows(templates[learn_idx], learn_codes)

    eval_idx = np.array(plan.evaluation_indices(fold))
    evaluation = templates[eval_idx]
    codes = label_codes[eval_idx]
    # Whitened rows, so Euclidean distance is the context's Mahalanobis
    # distance; every probe/gallery pair of every inner fold is an entry.
    dist = pairwise_distances(context.whiten(evaluation))
    separability = separability_of_rows(evaluation, label_names[codes], context, dist)

    # Inner fold of each evaluation row.
    inner = np.empty(len(eval_idx), dtype=np.intp)
    for k, part in enumerate(plan.inner_folds[fold]):
        inner[np.searchsorted(eval_idx, part)] = k
    n_labels = len(label_names)
    distance, label, probe_rows = [], [], []
    for k in range(plan.n_inner):
        probes = np.flatnonzero(inner == k)
        gallery = np.flatnonzero(inner != k)
        # The probes' labels play no part in matching; only the distances
        # reach the scorer, plus the true labels for the genuine flags.
        d = dist[np.ix_(probes, gallery)]
        gallery_codes = codes[gallery]
        if config.pair_policy == "class_best":
            best = np.full((len(probes), n_labels), np.inf)
            np.minimum.at(best.T, gallery_codes, d.T)
            gallery_codes = np.unique(gallery_codes)
            d = best[:, gallery_codes]
        distance.append(d.ravel())
        label.append(np.tile(gallery_codes, len(probes)))
        probe_rows.append(np.repeat(probes, len(gallery_codes)))

    rows = np.concatenate(probe_rows)  # the probe's evaluation row, per pair
    probed, probe = np.unique(rows, return_inverse=True)
    label = np.concatenate(label)
    block = ScoreBlock(
        distance=np.concatenate(distance),
        probe=probe,
        label=label,
        genuine=label == codes[rows],
        probe_ids=tuple(sample_ids[i] for i in eval_idx[probed]),
    )
    cmc_y, cmc_findings = cmc_fractions(block)
    sweep = ThresholdSweep.of(block)
    eer = sweep.eer()
    roc_far, roc_tar, auc = sweep.roc()
    recall, precision, map_value = sweep.rcl_pcn()
    # Parameterize the sweep by the empirical quantile of each threshold
    # among all observed distances; folds then share the [0, 1] axis.
    # The +inf sentinel duplicates the largest threshold's rates and is
    # dropped; -inf lands at quantile 0 by itself.
    qs = sweep.quantile[:-1]

    return _FoldResult(
        separability=separability,
        scalars={"ccr": float(cmc_y[0]), "eer": eer, "auc": auc, "map": map_value},
        cmc_y=cmc_y,
        far_grid=np.interp(grid, qs, sweep.far[:-1]),
        frr_grid=np.interp(grid, qs, sweep.frr[:-1]),
        tar_grid=np.interp(grid, roc_far, roc_tar),
        precision_grid=np.interp(grid, recall, precision),
        warnings=transform.warnings + separability.warnings + cmc_findings,
    )


def run_protocol(
    dataset: LabeledDataset,
    method: str,
    plan: FoldPlan,
    config: Optional[ProtocolConfig] = None,
) -> EvaluationReport:
    """Run the full nested evaluation and aggregate over outer folds.

    Headline scalars are unweighted means of the per-fold values; curves
    are pointwise means after resampling every fold onto a common grid
    (integer ranks for cmc, a 1001-point [0, 1] grid for the others).
    """
    config = config or ProtocolConfig()
    method = method.replace("-", "_")
    if method not in PROTOCOL_METHODS:
        raise ValidationError(f"unknown method {method!r}")
    if config.pca_dim is not None and method != "pca_lda":
        raise ValidationError(f"pca_dim applies to pca_lda only, not {method!r}")

    vectors = flatten_all(dataset.samples)
    covered = sorted(i for fold in plan.outer_folds for i in fold)
    if covered != list(range(dataset.num_samples)):
        raise ContractError("fold plan does not partition this dataset")

    sample_ids = [s.sample_id for s in dataset.samples]
    label_names, label_codes = np.unique(
        [s.label for s in dataset.samples], return_inverse=True
    )
    grid = np.linspace(0.0, 1.0, GRID_POINTS)

    def fold_task(f: int) -> _FoldResult:
        try:
            return _run_fold(
                f, vectors, sample_ids, label_codes, label_names, method, plan,
                config, grid
            )
        except MarginforgeError as exc:
            raise type(exc)(f"outer fold {f}: {exc}") from exc

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(fold_task, range(plan.n_outer)))
    else:
        results = [fold_task(f) for f in range(plan.n_outer)]

    headline = {}
    for key in ("ccr", "eer", "auc", "map"):
        headline[key] = float(np.mean([r.scalars[key] for r in results]))
    for key in ("dbi", "di", "sc", "fdr"):
        headline[key] = float(
            np.mean([getattr(r.separability, key) for r in results])
        )

    max_ranks = max(len(r.cmc_y) for r in results)
    cmc_stack = np.stack(
        [
            np.concatenate([r.cmc_y, np.full(max_ranks - len(r.cmc_y), r.cmc_y[-1])])
            for r in results
        ]
    )
    cmc_mean = cmc_stack.mean(axis=0)
    curves = {
        "cmc": CurveSeries(
            kind="cmc",
            points=tuple(
                (float(k + 1), float(cmc_mean[k])) for k in range(max_ranks)
            ),
        ),
        "far_frr": CurveSeries(
            kind="far_frr",
            points=tuple(
                zip(
                    np.mean([r.far_grid for r in results], axis=0),
                    np.mean([r.frr_grid for r in results], axis=0),
                )
            ),
        ),
        "roc": CurveSeries(
            kind="roc",
            points=tuple(zip(grid, np.mean([r.tar_grid for r in results], axis=0))),
        ),
        "rcl_pcn": CurveSeries(
            kind="rcl_pcn",
            points=tuple(
                zip(grid, np.mean([r.precision_grid for r in results], axis=0))
            ),
        ),
    }

    config_echo = {
        "method": method,
        "outer_folds": plan.n_outer,
        "inner_folds": plan.n_inner,
        "seed": plan.seed,
        "stratified": True,
        "pair_policy": config.pair_policy,
        "context_source": "learning",
        "pca_dim": config.pca_dim,
    }
    return EvaluationReport(
        separability=tuple(r.separability for r in results),
        curves=curves,
        headline=headline,
        config=config_echo,
        warnings=tuple(sorted({w for r in results for w in r.warnings})),
    )


def curve_csv_text(series: CurveSeries) -> str:
    """Plot-ready CSV rows for one curve: kind,x,y with a header line."""
    lines = ["kind,x,y"]
    for x, y in series.points:
        lines.append(f"{series.kind},{x!r},{y!r}")
    return "\n".join(lines) + "\n"
