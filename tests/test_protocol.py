"""Nested cross-validation protocol and report aggregation."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import Pair, traced_peak
from marginforge import (
    GaitSample,
    LabeledDataset,
    ProtocolConfig,
    SeparabilityReport,
    SyntheticSpec,
    context_of_rows,
    curve_csv_text,
    flatten_all,
    generate_synthetic,
    learn_mmc,
    learners,
    pairwise_distances,
    plan_folds,
    protocol,
    reference,
    run_protocol,
)
from marginforge.errors import ContractError, DegenerateDataError, ValidationError
from marginforge.scatter import total_scatter_basis


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
        def chatty_learn_mmc(*args, **kwargs):
            warnings.warn("unrelated library chatter", UserWarning)
            return learn_mmc(*args, **kwargs)

        monkeypatch.setattr(learners, "learn_mmc", chatty_learn_mmc)
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

    @pytest.mark.parametrize("method", ["mmc", "pca_lda", "identity"])
    def test_worker_count_cannot_change_the_report(self, method):
        ds = small_dataset()
        plan = plan_folds(ds, outer=3, inner=2, seed=3)
        serial = run_protocol(ds, method, plan, ProtocolConfig(workers=1))
        threaded = run_protocol(ds, method, plan, ProtocolConfig(workers=4))
        assert json.dumps(serial.to_json_dict(), sort_keys=True) == json.dumps(
            threaded.to_json_dict(), sort_keys=True
        )

    def test_identity_folds_form_no_square_matrix(self):
        # The identity route matches the raw rows: no fold may build a
        # D x D matrix (8 * D**2 bytes, 11 MiB at D = 1200).
        ds = generate_synthetic(SyntheticSpec(
            classes=3, samples_per_class=6, joints=20, frames=20,
            class_spread=3.0, noise=0.3, seed=5,
        ))
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        dim = 3 * 20 * 20
        tracemalloc.start()
        try:
            run_protocol(ds, "identity", plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * dim**2

    @staticmethod
    def fold_of_600_rows():
        # 600 rows of 20 classes over 10 inner folds, every distance
        # distinct: (dist, eval_idx, codes, inner_folds) for _fold_pairs.
        n, rng = 600, np.random.default_rng(0)
        dist = np.zeros((n, n))
        dist[np.triu_indices(n, 1)] = rng.permutation(n * (n - 1) // 2) + 1.0
        dist += dist.T
        inner_folds = tuple(tuple(range(k, n, 10)) for k in range(10))
        return dist, np.arange(n), np.arange(n) // 30, inner_folds

    def test_a_folds_sweep_holds_at_most_8_times_its_pair_distances(self):
        # Every distance is distinct, so the sweep has one threshold per
        # pair: its counts and each metric's arrays are as long as the pair
        # list. The pair stage writes into its matrix, so each call gets its
        # own, and the copy is made before the trace starts.
        dist, eval_idx, codes, inner_folds = self.fold_of_600_rows()
        separability = SeparabilityReport(
            dbi=0.5, di=2.0, sc=0.5, fdr=3.0, per_class_sigma={}, class_centroids={}
        )
        grid = np.linspace(0.0, 1.0, protocol.GRID_POINTS)

        def pairs(matrix):
            return protocol._fold_pairs(matrix, eval_idx, codes, inner_folds, "all")

        pair_bytes = pairs(dist.copy())[2].nbytes  # 162000 pairs
        probe_ids = [f"s{i}" for i in range(len(eval_idx))]
        peak = traced_peak(lambda: protocol._fold_metrics(
            *pairs(dist), probe_ids, separability, grid))
        assert peak <= 8 * pair_bytes

    @pytest.mark.parametrize("policy, bound", [("class_best", 4), ("all", 2)])
    def test_a_folds_pair_stage_holds_a_small_multiple_of_its_pairs(
        self, policy, bound
    ):
        # The stage reads the matrix it is given in place: beside its pairs
        # it holds one identity's columns or the all policy's two masks.
        dist, eval_idx, codes, inner_folds = self.fold_of_600_rows()
        pair_bytes = protocol._fold_pairs(
            dist.copy(), eval_idx, codes, inner_folds, policy)[2].nbytes
        peak = traced_peak(lambda: protocol._fold_pairs(
            dist, eval_idx, codes, inner_folds, policy))
        assert peak <= bound * pair_bytes

    @pytest.mark.parametrize("method, calls", [
        ("mmc", 3), ("pca_lda", 3), ("identity", 0),
    ])
    def test_only_the_learned_routes_take_a_scatter_basis(
        self, monkeypatch, method, calls
    ):
        # Each learner factors its outer fold's total scatter once, and its
        # templates are matched as they are; raw rows are matched as they
        # are, with no SVD of the learning fold.
        made = []

        def counted(rows, labels):
            made.append(len(rows))
            return total_scatter_basis(rows, labels)

        for module in (learners, reference):
            monkeypatch.setattr(module, "total_scatter_basis", counted)
        ds = small_dataset()
        run_protocol(ds, method, plan_folds(ds, outer=3, inner=2, seed=0))
        assert len(made) == calls

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

    @pytest.mark.parametrize("edit", ["leak", "overlap", "miss", "count"])
    def test_inner_folds_must_partition_each_evaluation_set(self, edit):
        # Each outer fold's inner folds must hold each sample outside it
        # exactly once, in as many parts as the config echo reports (the
        # first fold's count).
        ds = small_dataset(seed=1)
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        first, second = plan.inner_folds[0]
        fold, parts = {
            "leak": (0, (first + plan.outer_folds[0][:1], second)),
            "overlap": (0, (first, second + first[:1])),
            "miss": (0, (first[1:], second)),
            "count": (2, (sum(plan.inner_folds[2], ()),)),
        }[edit]
        inner_folds = list(plan.inner_folds)
        inner_folds[fold] = parts
        bad = dataclasses.replace(plan, inner_folds=tuple(inner_folds))
        with pytest.raises(ContractError, match=(
            f"^fold plan: the inner folds of outer fold {fold} do not "
            "partition the samples outside it$"
        )):
            run_protocol(ds, "mmc", bad)

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


def grid_dataset():
    """3 identities x 10 samples, each a copy of one of 12 patterns on the
    0..3 integer grid drawn from one pool, so samples of different
    identities coincide and genuine and impostor distances tie exactly.
    No two pattern pairs share a difference vector, so the oracle's ties
    are ties of the same two patterns, which the library's distances
    share bit for bit."""
    rng = np.random.default_rng(2)
    pool = rng.integers(0, 4, size=(12, 2, 1, 3)).astype(np.float64)
    flat = pool.reshape(12, -1)
    assert len({tuple(a - b) for a in flat for b in flat}) == 12 * 11 + 1
    return LabeledDataset.from_samples(
        GaitSample(
            frames=pool[int(rng.integers(12))], label=f"id{c}", sample_id=f"id{c}s{k}"
        )
        for c in range(3)
        for k in range(10)
    )


def brute_force_fold_records(ds, plan, fold, pair_policy):
    """Every probe/gallery record of one identity-method fold, built one
    pair at a time as sqrt(gap' gap), the Euclidean distance of the two
    raw rows. The identity method's template of a sample is its flattened
    vector, and it learns nothing from the fold."""
    vectors = flatten_all(ds.samples)
    labels = [s.label for s in ds.samples]
    eval_idx = plan.evaluation_indices(fold)
    records = []
    for part in plan.inner_folds[fold]:
        gallery = [i for i in eval_idx if i not in part]
        for p in part:
            best = {}
            pairs = []
            for g in gallery:
                gap = vectors[p] - vectors[g]
                d = math.sqrt(float(gap @ gap))
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
    @pytest.mark.parametrize("dataset", ["full", "full3", "two_sample_class", "grid"])
    def test_headline_matches_brute_force_oracles(self, pair_policy, dataset):
        # With 3 inner folds a probe's gallery spans two other folds, so
        # "every other fold" and "the next fold" differ.
        if dataset in ("full", "full3"):
            ds = small_dataset()
            plan = plan_folds(ds, outer=3, inner=2 if dataset == "full" else 3, seed=0)
        elif dataset == "grid":
            ds = grid_dataset()
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
        if dataset == "grid":
            for r in folds:
                # A genuine and an impostor record tie, and distinct
                # distances lie too far apart for rounding to reorder them.
                assert {p.distance for p in r if p.genuine} & {
                    p.distance for p in r if not p.genuine
                }
                distinct = np.unique([p.distance for p in r])
                assert np.all(np.diff(distinct) > 1e-9 * distinct[1:])
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


def mapped_dataset(ds, f):
    """ds with each sample's flattened vector x replaced by f(x)."""
    return LabeledDataset.from_samples(
        GaitSample(
            frames=f(s.frames.reshape(-1)).reshape(s.frames.shape),
            label=s.label,
            sample_id=s.sample_id,
        )
        for s in ds.samples
    )


def random_orthogonal(rng, n) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


class TestMetamorphicInvariance:
    """Whitening total scatter makes the report independent of the
    measurement basis (Mahalanobis 1936), so a change of basis that the
    route can see through must leave the report in place.

    The tolerances were fixed from the worst case of 400 random draws of
    each map on these sets, before the properties first ran: headlines
    moved 6.7e-14 (A) relative, and no curve point moved. Curves are
    rank-based, so a near-tie could still flip a point. With the identity
    route matching raw rows, 400 fresh draws moved A's headlines 3.1e-14
    and B's whitened distances 7.6e-14 relative.
    """

    HEADLINE_RTOL = 1e-12
    CURVE_ATOL = 1e-12

    def assert_same_report(self, a, b):
        for key, value in a.headline.items():
            expected = pytest.approx(value, rel=self.HEADLINE_RTOL, abs=0)
            assert b.headline[key] == expected, key
        for kind, series in a.curves.items():
            np.testing.assert_allclose(
                b.curves[kind].points, series.points, rtol=0, atol=self.CURVE_ATOL
            )

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        map_seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.25, 4.0),
    )
    def test_a_similarity_map_moves_no_method(self, data_seed, map_seed, alpha):
        # A: x -> alpha x Q + b, Q orthogonal, on rank-deficient folds (D=18,
        # 6 learning samples); every route sees through it.
        ds = small_dataset(seed=data_seed)
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        rng = np.random.default_rng(map_seed)
        dim = ds.samples[0].frames.size
        q = random_orthogonal(rng, dim)
        b = rng.normal(scale=5.0, size=dim)
        moved = mapped_dataset(ds, lambda x: alpha * (x @ q) + b)
        for method in learners.METHODS:
            self.assert_same_report(
                run_protocol(ds, method, plan), run_protocol(moved, method, plan)
            )

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(data_seed=st.integers(0, 2**32 - 1), map_seed=st.integers(0, 2**32 - 1))
    def test_an_invertible_map_moves_no_full_rank_identity_route(
        self, data_seed, map_seed
    ):
        # B: x -> x G, G invertible with condition number <= 4, on the
        # public Mahalanobis matcher, which the evaluator does not use: the
        # learning fold's context whitens the other folds' rows. Its
        # pseudo-inverse metric is invariant only where every learning fold
        # spans all D = 6 dimensions, and PCA is not invariant at all.
        spec = SyntheticSpec(
            classes=3,
            samples_per_class=9,
            joints=1,
            frames=2,
            class_spread=3.0,
            noise=0.3,
            seed=data_seed,
        )
        ds = generate_synthetic(spec)
        plan = plan_folds(ds, outer=3, inner=2, seed=0)
        labels = [s.label for s in ds.samples]
        rng = np.random.default_rng(map_seed)
        u, v = random_orthogonal(rng, 6), random_orthogonal(rng, 6)
        g = (u * rng.uniform(0.5, 2.0, size=6)) @ v.T
        moved = mapped_dataset(ds, lambda x: x @ g)
        both = flatten_all(ds.samples), flatten_all(moved.samples)
        for f, fold in enumerate(plan.outer_folds):
            learn_idx, eval_idx = list(fold), list(plan.evaluation_indices(f))
            fold_labels = [labels[i] for i in learn_idx]
            distances = []
            for rows in both:
                context = context_of_rows(rows[learn_idx], fold_labels)
                assert context.whitener.shape == (6, 6)
                distances.append(pairwise_distances(context.whiten(rows[eval_idx])))
            np.testing.assert_allclose(
                distances[1], distances[0], rtol=self.HEADLINE_RTOL, atol=0)


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
