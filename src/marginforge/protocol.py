"""Nested cross-validation: outer learning folds, inner matching folds.

The outer loop splits the dataset into disjoint folds (3 by default),
learns the feature transform on ONE fold, and evaluates on the union of
the remaining folds: separability coefficients over the evaluation
templates, then the rank and threshold metrics, in which every
evaluation template is a probe once, against the templates of the other
inner folds (10 by default) as gallery. Every route matches its rows as
they are, by Euclidean distance: learned templates, which whiten the
learning fold's total scatter, or for the identity route the raw rows,
the baseline with no learning. One matrix of distances between those
rows serves both: separability reads the rows and all of the matrix, and
the metrics read each entry whose two rows lie in different inner folds,
as per-identity minima and one threshold sweep.

Leakage is structural: the transform is a function of the learning fold
only, and probes are stripped of their labels before matching; true
labels come back only for scoring.

Reports are deterministic: fold tasks are pure and internally sequential,
results are assembled in fold order, and the findings each fold returns
(from the learner, separability and the rank metrics) are deduplicated
and sorted, so the report bytes do not depend on how many worker threads
ran the folds, nor on anything else in the process that warns.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._jsonio import finite_or_null, json_fields
from .dataset import LabeledDataset, flatten_all
from .errors import ContractError, MarginforgeError, ValidationError
from .learners import learner_for
from .metrics_classification import CurveSeries, ThresholdSweep, cmc_fractions
from .metrics_separability import SeparabilityReport, separability_of_rows
from .template_space import pairwise_distances, template_rows

PAIR_POLICIES = ("all", "class_best")

# The headline keys: the rank and threshold metrics, in the report's
# order, then the separability coefficients, which compare prints first.
RECOGNITION_KEYS = ("ccr", "eer", "auc", "map")
SEPARABILITY_KEYS = ("dbi", "di", "sc", "fdr")

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
    _deal(rng, dataset, outer_folds)

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
        _deal(rng, dataset, fold_parts, in_fold)
        if not all(fold_parts):
            raise ValidationError(empty)
        inner_folds.append(tuple(tuple(sorted(p)) for p in fold_parts))

    return FoldPlan(
        outer_folds=tuple(tuple(sorted(f)) for f in outer_folds),
        inner_folds=tuple(inner_folds),
        seed=seed,
    )


def _deal(rng: np.random.Generator, dataset, parts: list, held=()) -> None:
    """Shuffle each class's members outside held; deal them from part ci."""
    for ci, label in enumerate(dataset.labels):
        members = np.array([i for i in dataset.class_index[label] if i not in held])
        for k, idx in enumerate(members[rng.permutation(len(members))]):
            parts[(k + ci) % len(parts)].append(idx)


@dataclass(frozen=True)
class EvaluationReport:
    """Everything one protocol run produces. Its JSON document holds all
    but the curves, which are written apart, one curve_csv_text each."""

    separability: tuple
    curves: dict
    headline: dict
    config: dict
    warnings: tuple

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "headline": {k: finite_or_null(v) for k, v in self.headline.items()},
            "separability": [s.to_json_dict() for s in self.separability],
            "warnings": list(self.warnings),
        }


def headline_of(report: dict, where: str) -> tuple:
    """(method, headline) of a report document, as to_json_dict writes it:
    config.method, and a dict of the separability then the recognition
    values, each a float or None (null). A missing field or a value of
    another kind is a SchemaError that names where."""
    config, headline = json_fields(report, {"config": dict, "headline": dict}, where)
    (method,) = json_fields(config, {"method": str}, where, "config.")
    kinds = dict.fromkeys(SEPARABILITY_KEYS + RECOGNITION_KEYS, float | None)
    return method, dict(zip(kinds, json_fields(headline, kinds, where, "headline.")))


@dataclass(eq=False)
class _FoldResult:
    separability: SeparabilityReport
    scalars: dict
    curves: dict  # cmc fractions by rank; far, frr, tar, precision on the grid
    warnings: tuple


def _fold_rows(fold, vectors, sample_ids, label_codes, label_names, learn, plan):
    """(eval_idx, eval_ids, dist, separability, findings): the evaluation
    rows' distances and separability, from matched rows only this stage
    holds. Every route matches its rows as they are: the identity route
    its raw rows, the learners their templates."""
    eval_idx = np.array(plan.evaluation_indices(fold))
    eval_ids = [sample_ids[i] for i in eval_idx]
    rows, findings = vectors[eval_idx], ()
    if learn is not None:
        learn_idx = list(plan.outer_folds[fold])
        transform = learn(vectors[learn_idx], label_codes[learn_idx])
        rows, findings = template_rows(transform, rows, eval_ids), transform.warnings
    dist = pairwise_distances(rows)
    separability = separability_of_rows(rows, label_names[label_codes[eval_idx]], dist)
    return eval_idx, eval_ids, dist, separability, findings


def _fold_pairs(dist, eval_idx, label_codes, inner_folds, pair_policy):
    """(best, own, distance, genuine): the rank metrics' score block and
    the sweep's pairs under pair_policy. Every two evaluation rows in
    different inner folds are a probe/gallery pair; a probe's own label
    only flags its genuine pairs. Takes over dist, which separability has
    already read: each inner fold's own block, diagonal included, is set
    to +inf, so every finite entry left is a pair (distances are finite)."""
    codes = label_codes[eval_idx]
    for part in inner_folds:
        rows = np.searchsorted(eval_idx, part)
        dist[np.ix_(rows, rows)] = np.inf
    # best[p, k]: probe p's minimum distance to the gallery rows of the k-th
    # identity present; +inf exactly where it has none.
    present = np.flatnonzero(np.bincount(codes))
    best = np.empty((len(eval_idx), len(present)))
    for k, c in enumerate(present):
        best[:, k] = dist[:, codes == c].min(axis=1)
    own = codes[:, None] == present
    if pair_policy == "class_best":
        # One pair per probe and gallery identity, at its best distance.
        enrolled = best < np.inf
        return best, own, best[enrolled], own[enrolled]
    # dist is symmetric and +inf on the diagonal, so the upper triangle
    # holds each pair once, not twice; the rates the sweep gives are the same.
    upper = np.triu(dist < np.inf)
    return best, own, dist[upper], (codes[:, None] == codes)[upper]


def _fold_metrics(best, own, distance, genuine, probe_ids, separability, grid):
    """(scalars, curves, findings): the fold's headline scalars, its grid
    curves and the rank findings. One sweep of the pairs serves every
    threshold metric; each is built in turn and is on the grid before
    the next one is built."""
    sweep = ThresholdSweep.of(distance, genuine)
    cmc_y, findings = cmc_fractions(best, own, probe_ids)
    eer = sweep.eer()
    far, frr = sweep.far_frr_at(grid)
    roc_far, roc_tar, auc = sweep.roc()
    tar = np.interp(grid, roc_far, roc_tar)
    recall, precision, map_value = sweep.rcl_pcn()
    precision = np.interp(grid, recall, precision)
    scalars = dict(zip(RECOGNITION_KEYS, (float(cmc_y[0]), eer, auc, map_value)))
    scalars.update((k, getattr(separability, k)) for k in SEPARABILITY_KEYS)
    curves = {"cmc": cmc_y, "far": far, "frr": frr, "tar": tar, "precision": precision}
    return scalars, curves, findings


def run_protocol(
    dataset: LabeledDataset,
    method: str,
    plan: FoldPlan,
    *,
    pair_policy: str = "all",
    pca_dim: int | None = None,
    workers: int = 1,
) -> EvaluationReport:
    """Run the full nested evaluation and aggregate over outer folds.

    Headline scalars are unweighted means of the per-fold values; curves
    are pointwise means after resampling every fold onto a common grid
    (integer ranks for cmc, a 1001-point [0, 1] grid for the others).
    pair_policy is "all" (every probe/gallery pair) or "class_best" (one
    pair per probe and gallery identity); pca_dim is pca_lda's rank;
    workers threads run the outer folds. An unknown pair policy or
    workers < 1 is a ValidationError, raised before any other work.
    """
    if pair_policy not in PAIR_POLICIES:
        raise ValidationError(f"unknown pair policy {pair_policy!r}")
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    method, learn = learner_for(method, pca_dim)

    vectors = flatten_all(dataset.samples)
    everything = list(range(dataset.num_samples))
    if sorted(i for fold in plan.outer_folds for i in fold) != everything:
        raise ContractError("fold plan does not partition this dataset")
    for f in range(plan.n_outer):
        parts = plan.inner_folds[f] if f < len(plan.inner_folds) else ()
        outside = sorted(set(everything) - set(plan.outer_folds[f]))
        if len(parts) != plan.n_inner or sorted(i for p in parts for i in p) != outside:
            raise ContractError(
                f"fold plan: the inner folds of outer fold {f} do not "
                "partition the samples outside it")

    sample_ids = [s.sample_id for s in dataset.samples]
    label_names, label_codes = np.unique(
        [s.label for s in dataset.samples], return_inverse=True
    )
    grid = np.linspace(0.0, 1.0, GRID_POINTS)

    def fold_task(f: int) -> _FoldResult:
        # _fold_rows allocates the fold's own distance matrix, so threads
        # running other folds share none of it; separability reads it
        # there, before _fold_pairs writes into it.
        try:
            eval_idx, eval_ids, dist, separability, findings = _fold_rows(
                f, vectors, sample_ids, label_codes, label_names, learn, plan)
            best, own, distance, genuine = _fold_pairs(
                dist, eval_idx, label_codes, plan.inner_folds[f], pair_policy)
            del dist  # the metrics read only the pairs, not the n x n matrix
            scalars, curves, metric_findings = _fold_metrics(
                best, own, distance, genuine, eval_ids, separability, grid)
        except MarginforgeError as exc:
            raise type(exc)(f"outer fold {f}: {exc}") from exc
        warnings = findings + separability.warnings + metric_findings
        return _FoldResult(separability, scalars, curves, warnings)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fold_task, range(plan.n_outer)))
    else:
        results = [fold_task(f) for f in range(plan.n_outer)]

    headline = {
        key: float(np.mean([r.scalars[key] for r in results]))
        for key in results[0].scalars
    }
    # Pointwise fold means. A fold's curve holds at its last value past its
    # end; only cmc lengths differ, one rank per identity in the gallery.
    mean = {"grid": grid}
    for key in results[0].curves:
        folds = [r.curves[key] for r in results]
        n = max(map(len, folds))
        mean[key] = np.mean([np.pad(c, (0, n - len(c)), "edge") for c in folds], axis=0)
    mean["rank"] = np.arange(1.0, len(mean["cmc"]) + 1)
    curves = {
        kind: CurveSeries(kind=kind, x=mean[x], y=mean[y])
        for kind, x, y in (
            ("cmc", "rank", "cmc"),
            ("far_frr", "far", "frr"),
            ("roc", "grid", "tar"),
            ("rcl_pcn", "grid", "precision"),
        )
    }

    # workers is not echoed: it cannot change any number in the report,
    # and echoing it would break byte identity across worker counts.
    config_echo = {
        "method": method,
        "outer_folds": plan.n_outer,
        "inner_folds": plan.n_inner,
        "seed": plan.seed,
        "pair_policy": pair_policy,
        "pca_dim": pca_dim,
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
    rows = (f"{series.kind},{x!r},{y!r}\n"
            for x, y in zip(series.x.tolist(), series.y.tolist()))
    return "kind,x,y\n" + "".join(rows)
