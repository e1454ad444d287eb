"""Nested cross-validation protocol and report aggregation."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from conftest import Pair
from marginforge import (
    GaitSample,
    LabeledDataset,
    ProtocolConfig,
    SyntheticSpec,
    compute_scatter,
    curve_csv_text,
    flatten_all,
    generate_synthetic,
    learn_mmc,
    learners,
    plan_folds,
    protocol,
    run_protocol,
)
from marginforge.errors import ContractError, DegenerateDataError, ValidationError


def small_dataset(noise=0.3, classes=3, per_class=6, seed=5):
    spec = SyntheticSpec(
        classes=classes,
        samples_per_class=per_class,
        joints=2,
        frames=3,
        class_spread=3.0,
        noise=noise,
        seed=seed,
    )
    return generate_synthetic(spec)


class TestPlanFolds:
    def test_outer_folds_partition_the_dataset(self):
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        seen = sorted(i for fold in plan.outer_folds for i in fold)
        assert seen == list(range(ds.num_samples))
        assert plan.n_outer == 3 and plan.n_inner == 2

    def test_inner_folds_partition_each_evaluation_set(self):
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        for f in range(plan.n_outer):
            eval_idx = plan.evaluation_indices(f)
            assert set(eval_idx).isdisjoint(plan.outer_folds[f])
            assert sorted(eval_idx) == sorted(
                set(range(ds.num_samples)) - set(plan.outer_folds[f])
            )
            dealt = sorted(i for part in plan.inner_folds[f] for i in part)
            assert dealt == sorted(eval_idx)

    def test_stratified_within_one_member(self):
        ds = small_dataset(per_class=7)
        plan = plan_folds(ds, outer=3, inner=2, seed=1)
        for label, members in ds.class_index.items():
            counts = [
                len(set(members) & set(fold)) for fold in plan.outer_folds
            ]
            assert max(counts) - min(counts) <= 1

    def test_deterministic_under_seed(self):
        ds = small_dataset()
        a = plan_folds(ds, outer=3, inner=2, seed=9)
        b = plan_folds(ds, outer=3, inner=2, seed=9)
        c = plan_folds(ds, outer=3, inner=2, seed=10)
        assert a == b
        assert a != c

    def test_validation(self):
        ds = small_dataset()
        with pytest.raises(ValidationError):
            plan_folds(ds, outer=1, inner=2)
        with pytest.raises(ValidationError):
            plan_folds(ds, outer=3, inner=1)
        tiny = small_dataset(per_class=2)
        with pytest.raises(ValidationError):
            plan_folds(tiny, outer=3, inner=2)

    def test_rejects_an_empty_inner_fold(self):
        # 3 classes of 4 leave 8 evaluation samples per outer fold.
        ds = small_dataset(per_class=4)
        with pytest.raises(ValidationError, match=(
            "^outer fold 0: 9 inner folds over 8 evaluation samples leave an "
            "inner fold empty$"
        )):
            plan_folds(ds, outer=3, inner=9)
        # 8 samples could fill 5 inner folds, but each class deals its 2 or
        # 3 samples from its own offset, and in outer fold 2 none reaches
        # the fifth.
        with pytest.raises(ValidationError, match="^outer fold 2: 5 inner folds"):
            plan_folds(ds, outer=3, inner=5)
        plan = plan_folds(ds, outer=3, inner=4)
        assert all(part for parts in plan.inner_folds for part in parts)

    def test_impossible_inner_count_is_rejected_before_dealing(self):
        # 4 classes of 6 leave 16 evaluation samples per outer fold; dealing
        # them to a million inner folds would build a million lists first.
        ds = small_dataset(noise=0.0, classes=4)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=(
                "^outer fold 0: 1000000 inner folds over 16 evaluation samples "
                "leave an inner fold empty$"
            )):
                plan_folds(ds, outer=3, inner=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestProtocolConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(pair_policy="best")
        with pytest.raises(ValidationError):
            ProtocolConfig(workers=0)


class TestRunProtocol:
    def test_pca_dim_only_with_pca_lda(self):
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        for method in ("mmc", "identity"):
            with pytest.raises(ValidationError, match="pca_lda only"):
                run_protocol(ds, method, plan, ProtocolConfig(pca_dim=3))

    def test_report_shape(self):
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        report = run_protocol(ds, "mmc", plan)
        assert len(report.separability) == 3
        assert set(report.curves) == {"cmc", "far_frr", "roc", "rcl_pcn"}
        for kind, series in report.curves.items():
            assert series.kind == kind
        assert set(report.headline) == {
            "ccr", "eer", "auc", "map", "dbi", "di", "sc", "fdr"
        }
        assert report.config == {
            "method": "mmc",
            "outer_folds": 3,
            "inner_folds": 2,
            "seed": 0,
            "stratified": True,
            "pair_policy": "all",
            "context_source": "learning",
            "pca_dim": None,
        }

    def test_curve_grids(self):
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        report = run_protocol(ds, "mmc", plan)
        assert len(report.curves["cmc"].points) == 3  # one per identity
        for kind in ("far_frr", "roc", "rcl_pcn"):
            assert len(report.curves[kind].points) == 1001
        far_frr = report.curves["far_frr"]
        assert far_frr.points[0] == (0.0, 1.0)
        assert far_frr.points[-1] == (1.0, 0.0)
        assert report.curves["roc"].points[-1] == (1.0, 1.0)

    def test_noise_free_classes_are_perfectly_matched(self):
        ds = small_dataset(noise=0.0)
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        report = run_protocol(ds, "mmc", plan)
        assert report.headline["ccr"] == 1.0
        assert report.headline["eer"] == 0.0
        assert report.headline["auc"] == 1.0
        assert report.headline["map"] == 1.0
        # Zero within-class spread degenerates two coefficients, and the
        # report says so instead of failing.
        assert np.isinf(report.headline["di"])
        assert np.isinf(report.headline["fdr"])
        assert any("DegenerateMetricWarning" in w for w in report.warnings)

    def test_unrelated_warnings_stay_with_the_caller(self, monkeypatch):
        def chatty_learn_mmc(rows, labels):
            warnings.warn("unrelated library chatter", UserWarning)
            return learn_mmc(rows, labels)

        monkeypatch.setattr(protocol, "learn_mmc", chatty_learn_mmc)
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        with pytest.warns(UserWarning, match="^unrelated library chatter$"):
            report = run_protocol(ds, "mmc", plan)
        assert report.warnings == ()

    def test_learner_findings_reach_the_report(self, monkeypatch):
        monkeypatch.setattr(learners, "OFF_DIAGONAL_WARN", -1.0)
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        report = run_protocol(ds, "pca_lda", plan)
        assert report.warnings
        assert all(
            w.startswith("RuntimeWarning: between-class scatter not diagonalized")
            for w in report.warnings
        )
        assert list(report.warnings) == sorted(set(report.warnings))

    def test_shuffled_labels_sit_near_chance(self):
        ds = small_dataset(per_class=9, seed=11)
        rng = np.random.default_rng(12)
        labels = [s.label for s in ds.samples]
        shuffled = [labels[i] for i in rng.permutation(len(labels))]
        scrambled = LabeledDataset.from_samples(
            [
                GaitSample(frames=s.frames, label=lab, sample_id=s.sample_id)
                for s, lab in zip(ds.samples, shuffled)
            ]
        )
        plan = plan_folds(scrambled, outer=3, inner=3, seed=12)
        report = run_protocol(scrambled, "mmc", plan)
        assert 0.05 <= report.headline["ccr"] <= 0.65

    def test_worker_count_cannot_change_the_report(self):
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=3)
        serial = run_protocol(ds, "mmc", plan, ProtocolConfig(workers=1))
        threaded = run_protocol(ds, "mmc", plan, ProtocolConfig(workers=4))
        assert json.dumps(serial.to_json_dict(), sort_keys=True) == json.dumps(
            threaded.to_json_dict(), sort_keys=True
        )

    def test_learning_uses_only_the_fold_samples(self):
        # Perturbing every sample outside the learning fold must leave the
        # fold's learned transform bit-identical.
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=4)
        rows = flatten_all(ds.samples)
        labels = np.array([s.label for s in ds.samples])
        fold0 = sorted(plan.outer_folds[0])
        outside = np.setdiff1d(np.arange(len(rows)), fold0)
        perturbed = rows.copy()
        perturbed[outside] += 100.0
        ta = learn_mmc(rows[fold0], labels[fold0])
        tb = learn_mmc(perturbed[fold0], labels[fold0])
        assert ta.phi.tobytes() == tb.phi.tobytes()

    def test_method_token_normalization(self):
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        report = run_protocol(ds, "pca-lda", plan)
        assert report.config["method"] == "pca_lda"

    def test_alternate_policies_run(self):
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        config = ProtocolConfig(pair_policy="class_best")
        report = run_protocol(ds, "mmc", plan, config)
        assert report.config["pair_policy"] == "class_best"
        assert 0.0 <= report.headline["ccr"] <= 1.0

    def test_identity_method(self):
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        report = run_protocol(ds, "identity", plan)
        assert report.config["method"] == "identity"
        assert report.config["pca_dim"] is None

    def test_plan_must_match_dataset(self):
        ds = small_dataset()
        other = small_dataset(per_class=7, seed=6)
        plan = plan_folds(other, outer=3, inner=2, seed=0)
        with pytest.raises(ContractError):
            run_protocol(ds, "mmc", plan)

    def test_mixed_frame_counts_rejected(self):
        ds = small_dataset()
        stretched = list(ds.samples[:-1]) + [
            GaitSample(
                frames=np.concatenate(
                    [ds.samples[-1].frames, ds.samples[-1].frames[-1:]]
                ),
                label=ds.samples[-1].label,
                sample_id=ds.samples[-1].sample_id,
            )
        ]
        mixed = LabeledDataset.from_samples(stretched)
        plan = plan_folds(mixed, outer=3, inner=2, seed=0)
        with pytest.raises(ContractError):
            run_protocol(mixed, "mmc", plan)

    def test_unknown_method(self):
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        with pytest.raises(ValidationError):
            run_protocol(ds, "svm", plan)

    def test_fold_errors_name_the_fold(self):
        # Identical samples everywhere: fold 0's learner sees zero total
        # scatter and the error must say which fold died.
        frames = np.zeros((3, 2, 3))
        samples = [
            GaitSample(frames=frames, label=lab, sample_id=f"{lab}{k}")
            for lab in ("a", "b")
            for k in range(3)
        ]
        ds = LabeledDataset.from_samples(samples)
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        with pytest.raises(DegenerateDataError, match="^outer fold 0:"):
            run_protocol(ds, "mmc", plan)


def two_sample_class_dataset():
    # id003 keeps two samples, so with two outer folds each evaluation
    # half holds one of them, and as a probe it meets a gallery that has
    # no other member of its identity.
    ds = small_dataset(classes=4, per_class=4)
    return LabeledDataset.from_samples(
        s for s in ds.samples
        if s.label != "id003" or s.sample_id in ("id003s000", "id003s001")
    )


def scatter_pinv(rows, labels) -> np.ndarray:
    """The Mahalanobis matrix of a template population, on a route that
    shares nothing with the whitener: the pseudo-inverse of the D x D
    total scatter."""
    return np.linalg.pinv(
        compute_scatter(rows, labels).sigma_t, rcond=1e-10, hermitian=True
    )


def brute_force_fold_records(ds, plan, fold, pair_policy):
    """Every probe/gallery record of one identity-method fold, built one
    pair at a time as sqrt(gap' inv gap) on the pseudo-inverse of the
    learning fold's total scatter. The identity method's template of a
    sample is its flattened vector."""
    vectors = flatten_all(ds.samples)
    labels = [s.label for s in ds.samples]
    learn_idx = list(plan.outer_folds[fold])
    inv = scatter_pinv(vectors[learn_idx], [labels[i] for i in learn_idx])
    eval_idx = plan.evaluation_indices(fold)
    records = []
    for part in plan.inner_folds[fold]:
        gallery = [i for i in eval_idx if i not in part]
        for p in part:
            best = {}
            pairs = []
            for g in gallery:
                gap = vectors[p] - vectors[g]
                d = math.sqrt(max(float(gap @ inv @ gap), 0.0))
                pairs.append((labels[g], d))
                best[labels[g]] = min(d, best.get(labels[g], d))
            if pair_policy == "class_best":
                pairs = sorted(best.items())
            records += [
                Pair(ds.samples[p].sample_id, label, d, label == labels[p])
                for label, d in pairs
            ]
    return records


class TestScoreBlockAgainstRecords:
    @pytest.mark.parametrize("pair_policy", ["all", "class_best"])
    @pytest.mark.parametrize("dataset", ["full", "two_sample_class"])
    def test_headline_matches_brute_force_oracles(self, pair_policy, dataset):
        if dataset == "full":
            ds = small_dataset()
            plan = plan_folds(ds, outer=3, inner=2, seed=0)
        else:
            ds = two_sample_class_dataset()
            plan = plan_folds(ds, outer=2, inner=2, seed=0)
        config = ProtocolConfig(pair_policy=pair_policy)
        report = run_protocol(ds, "identity", plan, config)
        folds = [
            brute_force_fold_records(ds, plan, f, pair_policy)
            for f in range(plan.n_outer)
        ]
        ccr = [oracles.brute_cmc_points(r)[0][1] for r in folds]
        assert report.headline["ccr"] == float(np.mean(ccr))
        for key, fold_value in (
            ("eer", oracles.brute_eer),
            ("auc", lambda r: oracles.trapezoid_area(oracles.brute_roc_points(r))),
            ("map", lambda r: oracles.trapezoid_area(oracles.brute_rcl_pcn_points(r))),
        ):
            expected = float(np.mean([fold_value(r) for r in folds]))
            assert report.headline[key] == pytest.approx(expected, abs=1e-12)

    def test_identity_missing_from_gallery_warns(self):
        ds = two_sample_class_dataset()
        plan = plan_folds(ds, outer=2, inner=2, seed=0)
        report = run_protocol(ds, "identity", plan)
        assert report.warnings == tuple(
            f"RuntimeWarning: probe {sample_id!r}: its identity is not in "
            "the gallery; counted as never matched"
            for sample_id in ("id003s000", "id003s001")
        )
        assert report.headline["ccr"] < 1.0


class TestCurveCsv:
    def test_format(self):
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        report = run_protocol(ds, "mmc", plan)
        text = curve_csv_text(report.curves["cmc"])
        lines = text.splitlines()
        assert lines[0] == "kind,x,y"
        assert len(lines) == 1 + len(report.curves["cmc"].points)
        kind, x, y = lines[1].split(",")
        assert kind == "cmc"
        assert float(x) == 1.0
        assert 0.0 <= float(y) <= 1.0
        assert text.endswith("\n")
