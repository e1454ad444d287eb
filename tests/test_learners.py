"""Margin-maximizing and PCA+LDA transform learners."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import flats_1d, flats_nd, principal_angles, random_flats
from marginforge import (
    EigenSelection,
    FeatureTransform,
    compute_scatter,
    learn_mmc,
    learn_pcalda,
    learner_for,
    learners,
    load_transform,
    margin_trace,
    mmc_objective,
    noise_floor_rank,
    save_transform,
    select_margin_columns,
)
from marginforge.errors import (
    ContractError,
    DegenerateDataError,
    SchemaError,
    ValidationError,
)
from marginforge.scatter import total_scatter_basis

FIXTURE = {"a": [0.0, 2.0], "b": [4.0, 6.0]}


def eye_transform(dim: int) -> FeatureTransform:
    """A pass-through mmc transform of width dim."""
    return FeatureTransform(method="mmc", phi=np.eye(dim), delta=np.ones(dim))


class TestSelectMarginColumns:
    def test_keeps_scores_of_at_least_half(self):
        sel = select_margin_columns(np.array([0.8, 0.6, 0.4]))
        assert sel.kept_indices == (0, 1)
        assert sel.discarded_count == 1
        assert not sel.fallback_used

    def test_boundary_is_inclusive(self):
        sel = select_margin_columns(np.array([0.5]))
        assert sel.kept_indices == (0,)
        assert not sel.fallback_used

    def test_just_below_boundary_falls_back(self):
        sel = select_margin_columns(np.array([0.4999999]))
        assert sel.kept_indices == (0,)
        assert sel.fallback_used
        assert sel.discarded_count == 0

    def test_limit_caps_eligible_prefix(self):
        sel = select_margin_columns(np.array([0.9, 0.8, 0.7]), limit=2)
        assert sel.kept_indices == (0, 1)
        assert sel.discarded_count == 1

    def test_rejects_empty_and_matrix_input(self):
        with pytest.raises(ContractError):
            select_margin_columns(np.array([]))
        with pytest.raises(ContractError):
            select_margin_columns(np.zeros((2, 2)))

    def test_selection_record_validates(self):
        with pytest.raises(ContractError):
            EigenSelection(kept_indices=(), discarded_count=0, fallback_used=False)


class TestFeatureTransform:
    def test_unknown_method_rejected(self):
        # identity is an evaluate route that learns no transform.
        for method in ("rbf", "identity"):
            with pytest.raises(ValidationError, match=f"unknown method '{method}'"):
                FeatureTransform(method=method, phi=np.eye(1), delta=np.ones(1))

    def test_delta_length_must_match_columns(self):
        with pytest.raises(ContractError):
            FeatureTransform(method="mmc", phi=np.eye(2), delta=np.ones(3))

    def test_json_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(44)
        t = FeatureTransform(
            method="pca_lda",
            phi=rng.normal(size=(5, 2)),
            delta=rng.uniform(size=2),
            ridge_used=True,
        )
        path = tmp_path / "transform.json"
        save_transform(t, path)
        back = load_transform(path)
        assert back.method == t.method
        assert back.phi.tobytes() == t.phi.tobytes()
        assert back.delta.tobytes() == t.delta.tobytes()
        assert back.ridge_used and not back.fallback_used

    def test_from_json_dict_validates(self):
        good = eye_transform(2).to_json_dict()
        with pytest.raises(SchemaError):
            FeatureTransform.from_json_dict([good])
        for breakage in (
            {"method": "rbf"},
            {"method": "identity"},
            {"phi": [1.0, 0.0, 0.0]},
            {"delta": [1.0]},
            {"input_dim": 0},
            {"input_dim": float("inf")},
        ):
            doc = dict(good)
            doc.update(breakage)
            with pytest.raises(SchemaError):
                FeatureTransform.from_json_dict(doc)
        doc = dict(good)
        del doc["feature_dim"]
        with pytest.raises(SchemaError):
            FeatureTransform.from_json_dict(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("phi", [None, 0.0, 0.0, 1.0]),
            ("delta", [True, 1.0]),
            ("phi", ["1.0", 0.0, 0.0, 1.0]),
            ("delta", ["x", 1.0]),
            ("phi", [[1.0], [0.0], [0.0], [1.0]]),
            ("delta", [10**400, 1.0]),
            ("phi", 4),
            ("delta", "ab"),
        ],
        ids=[
            "null", "true", "number-string", "word", "nested", "huge-int",
            "number-phi", "string-delta",
        ],
    )
    def test_load_refuses_entries_that_are_not_finite_reals(self, tmp_path, key, value):
        doc = eye_transform(2).to_json_dict()
        doc[key] = value
        path = tmp_path / "transform.json"
        path.write_text(json.dumps(doc))
        message = f"transform document: {key} is not a list of finite numbers"
        with pytest.raises(SchemaError, match=f"^{message}$"):
            load_transform(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("fallback_used", "no", "transform document: fallback_used is not a boolean"),
            ("ridge_used", 1, "transform document: ridge_used is not a boolean"),
            ("input_dim", 2.9, "transform document: input_dim is not a whole number"),
            ("feature_dim", "2", "transform document: feature_dim is not a whole number"),
            ("input_dim", True, "transform document: input_dim is not a whole number"),
            # Past 2**53 a float may not be the integer the file spelled.
            ("input_dim", 1e308, "transform document: input_dim is not a whole number"),
        ],
        ids=[
            "string-flag", "number-flag", "fraction", "number-string", "true",
            "past-2-53",
        ],
    )
    def test_load_refuses_scalars_of_another_json_type(
        self, tmp_path, key, value, message
    ):
        # Coercion would read "no" as true and 2.9 as 2 without a word.
        doc = eye_transform(2).to_json_dict()
        doc[key] = value
        path = tmp_path / "transform.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"^{message}$"):
            load_transform(path)

    def test_load_names_a_missing_field(self, tmp_path):
        doc = eye_transform(2).to_json_dict()
        del doc["phi"]
        path = tmp_path / "transform.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="^transform document: missing field 'phi'$"):
            load_transform(path)

    def test_off_diagonal_residue_is_a_finding_outside_the_json(self, monkeypatch):
        rows, labels = random_flats(np.random.default_rng(45), classes=3, dim=4)
        assert learn_mmc(rows, labels).warnings == ()
        monkeypatch.setattr(learners, "OFF_DIAGONAL_WARN", -1.0)
        for t in (learn_mmc(rows, labels), learn_pcalda(rows, labels)):
            (finding,) = t.warnings
            assert finding.startswith(
                "RuntimeWarning: between-class scatter not diagonalized: "
                "off-diagonal norm "
            )
            doc = t.to_json_dict()
            assert "warnings" not in doc
            assert FeatureTransform.from_json_dict(doc).warnings == ()


class TestLearnerFor:
    @pytest.mark.parametrize("findings", [False, True], ids=["plain", "findings"])
    @pytest.mark.parametrize(
        "method, pca_dim, direct",
        [
            # The mmc route learns at the noise-floor rank.
            pytest.param(
                "mmc", None, lambda rows, labels: learn_mmc(rows, labels, noise_floor_rank),
                id="mmc-None-learn_mmc",
            ),
            ("pca_lda", None, learn_pcalda),
            ("pca-lda", 5, lambda rows, labels: learn_pcalda(rows, labels, 5)),
        ],
    )
    def test_learns_what_the_direct_learner_learns(
        self, monkeypatch, findings, method, pca_dim, direct
    ):
        rows, labels = random_flats(np.random.default_rng(46), classes=3, dim=6)
        if findings:
            monkeypatch.setattr(learners, "OFF_DIAGONAL_WARN", -1.0)
        name, learn = learner_for(method, pca_dim)
        assert name == method.replace("-", "_")
        got, want = learn(rows, labels), direct(rows, labels)
        assert got.method == want.method == name
        assert got.phi.shape == want.phi.shape
        assert got.phi.tobytes() == want.phi.tobytes()
        assert got.delta.tobytes() == want.delta.tobytes()
        assert got.fallback_used == want.fallback_used
        assert got.ridge_used == want.ridge_used
        assert got.warnings == want.warnings
        assert bool(got.warnings) == findings

    def test_identity_learns_nothing(self):
        # The identity route has no transform: run_protocol matches its
        # raw rows, and learn refuses it.
        assert learner_for("identity") == ("identity", None)


class TestLearnMmc:
    def test_one_dimensional_fixture(self):
        # Total scatter 10 forces phi = 1/sqrt(10) after sign fixing;
        # the between share is 8/10 and the margin 2*0.8 - 1 = 0.6.
        flats = flats_1d(FIXTURE)
        stats = compute_scatter(*flats)
        t = learn_mmc(*flats)
        assert t.feature_dim == 1
        assert t.phi[0, 0] == pytest.approx(1.0 / np.sqrt(10.0), abs=1e-12)
        assert t.delta[0] == pytest.approx(0.8, abs=1e-12)
        assert not t.fallback_used
        assert mmc_objective(t, stats) == pytest.approx(0.6, abs=1e-12)

    def test_objective_of_hand_built_transform(self):
        stats = compute_scatter(*flats_1d(FIXTURE))
        t = FeatureTransform(
            method="mmc",
            phi=np.array([[1.0 / np.sqrt(10.0)]]),
            delta=np.array([0.8]),
        )
        assert mmc_objective(t, stats) == pytest.approx(0.6, abs=1e-12)

    def test_coincident_class_means_fall_back(self):
        flats = flats_1d({"a": [0.0, 2.0], "b": [0.0, 2.0]})
        t = learn_mmc(*flats)
        assert t.fallback_used
        assert t.feature_dim == 1
        assert t.delta[0] < 0.5

    def test_zero_variance_is_degenerate(self):
        flats = flats_1d({"a": [3.0, 3.0], "b": [3.0, 3.0]})
        with pytest.raises(DegenerateDataError):
            learn_mmc(*flats)

    def test_zero_within_scatter_keeps_class_count_minus_one(self):
        # Points sit exactly on their class means; every usable direction
        # is pure between-class variance, so delta saturates at 1.
        flats = flats_nd(
            {
                "a": [[0.0, 0.0, 0.0, 0.0]] * 3,
                "b": [[4.0, 0.0, 0.0, 0.0]] * 3,
                "c": [[0.0, 4.0, 0.0, 0.0]] * 3,
            }
        )
        t = learn_mmc(*flats)
        assert t.feature_dim == 2
        assert np.allclose(t.delta, [1.0, 1.0], atol=1e-9)

    def test_matches_direct_eigensolver(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            c = int(rng.integers(2, 7))
            d = int(rng.integers(3, 14))
            flats = random_flats(rng, classes=c, dim=d)
            stats = compute_scatter(*flats)
            t = learn_mmc(*flats)
            vals, vecs = oracles.oracle_eigen(stats)
            sel = select_margin_columns(vals, limit=c - 1)
            ref = vecs[:, list(sel.kept_indices)]
            assert t.feature_dim == ref.shape[1]
            assert t.fallback_used == sel.fallback_used
            assert principal_angles(t.phi, ref).max() < 1e-6

    @pytest.mark.parametrize("learn", [learn_mmc, learn_pcalda], ids=["mmc", "pca_lda"])
    def test_whitens_total_and_diagonalizes_between(self, learn):
        rng = np.random.default_rng(46)
        for _ in range(20):
            flats = random_flats(
                rng,
                classes=int(rng.integers(2, 6)),
                dim=int(rng.integers(3, 10)),
            )
            stats = compute_scatter(*flats)
            if learn is learn_pcalda and stats.num_classes > stats.dimension:
                continue  # no pca_dim can reach the class count
            t = learn(*flats)
            gram = t.phi.T @ stats.sigma_t @ t.phi
            assert np.max(np.abs(gram - np.eye(t.feature_dim))) < 1e-6
            proj_b = t.phi.T @ stats.sigma_b @ t.phi
            off = proj_b - np.diag(np.diag(proj_b))
            assert np.max(np.abs(off)) < 1e-6
            assert np.allclose(np.diag(proj_b), t.delta, atol=1e-8)

    def test_objective_equals_margin_sum(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            flats = random_flats(
                rng,
                classes=int(rng.integers(2, 6)),
                dim=int(rng.integers(3, 10)),
            )
            stats = compute_scatter(*flats)
            t = learn_mmc(*flats)
            got = mmc_objective(t, stats)
            want = float(np.sum(2.0 * t.delta - 1.0))
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_objective_beats_random_whitened_competitors(self):
        # Any other total-scatter-orthonormal column set of the same width
        # scores at most the learned margin trace.
        rng = np.random.default_rng(48)
        for _ in range(10):
            flats = random_flats(rng, classes=4, dim=6)
            stats = compute_scatter(*flats)
            t = learn_mmc(*flats)
            best = mmc_objective(t, stats)
            w, q = np.linalg.eigh(stats.sigma_t)
            order = np.argsort(w)[::-1]
            w, q = w[order], q[:, order]
            r = int(np.sum(w > w[0] * 1e-12))
            whiten = q[:, :r] / np.sqrt(w[:r])
            for _ in range(20):
                g = rng.normal(size=(r, t.feature_dim))
                qq, _ = np.linalg.qr(g)
                rival = whiten @ qq[:, : t.feature_dim]
                assert margin_trace(stats, rival) <= best + 1e-8

    def test_rotation_leaves_objective_unchanged(self):
        rng = np.random.default_rng(49)
        flats = random_flats(rng, classes=3, dim=5)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        rotated = (flats[0] @ q.T, flats[1])
        stats, stats_r = compute_scatter(*flats), compute_scatter(*rotated)
        a = mmc_objective(learn_mmc(*flats), stats)
        b = mmc_objective(learn_mmc(*rotated), stats_r)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    def test_spherical_within_recovers_mean_difference(self):
        # Cross-polytope clouds have exactly isotropic within-class
        # scatter, so the top margin direction is the mean-difference axis.
        d = 4
        offsets = [e * s for e in np.eye(d) for s in (1.0, -1.0)]
        pts = {
            "a": [(-2.0 * np.eye(d)[0] + o).tolist() for o in offsets],
            "b": [(2.0 * np.eye(d)[0] + o).tolist() for o in offsets],
        }
        flats = flats_nd(pts)
        t = learn_mmc(*flats)
        direction = t.phi[:, 0] / np.linalg.norm(t.phi[:, 0])
        assert abs(abs(direction[0]) - 1.0) < 1e-9

    @pytest.mark.parametrize("learn", [learn_mmc, learn_pcalda], ids=["mmc", "pca_lda"])
    def test_learners_reject_malformed_input(self, learn):
        with pytest.raises(ContractError, match="at least 2 classes"):
            learn(*flats_1d({"a": [0.0, 1.0, 2.0]}))
        with pytest.raises(ContractError, match="no samples"):
            learn(np.empty((0, 2)), [])

    def test_objective_dimension_check(self):
        stats = compute_scatter(*flats_1d(FIXTURE))
        with pytest.raises(ContractError):
            mmc_objective(eye_transform(2), stats)
        with pytest.raises(ContractError):
            margin_trace(stats, np.eye(3))


def noise_floor_band(rows, labels, rel=1e-9):
    """(lo, hi): the noise-floor rank of rows from eigh of the D x D
    scatter matrices, counting the St eigenvalues above the edge raised
    (lo) and lowered (hi) by rel, each clipped to [1, numerical rank].
    The two differ only when an eigenvalue lies within rel of the edge."""
    stats = compute_scatter(rows, labels)
    w = np.linalg.eigvalsh(stats.sigma_t)
    d, c = stats.dimension, stats.num_classes
    sigma2 = max(np.trace(stats.sigma_t) - np.trace(stats.sigma_b), 0.0) / d
    edge = sigma2 * (1.0 + np.sqrt(d / max(len(rows) - c, 1))) ** 2
    rank = total_scatter_basis(rows, labels).rank
    return tuple(
        min(max(int(np.sum(w > edge * (1.0 + k * rel))), 1), rank) for k in (1, -1)
    )


class TestNoiseFloorRank:
    def test_learn_mmc_at_rank_matches_the_oracle_on_the_projected_statistics(self):
        # The top-r St eigenvectors from eigh span the subspace that rank r
        # keeps; the direct eigensolver on the statistics of the projected
        # rows, mapped back, must give learn_mmc's columns and deltas.
        rng = np.random.default_rng(53)
        truncated = 0
        for _ in range(30):
            c = int(rng.integers(2, 6))
            d = int(rng.integers(6, 30))
            rows, labels = random_flats(rng, classes=c, dim=d, members_high=8)
            basis = total_scatter_basis(rows, labels)
            r = noise_floor_rank(basis)
            truncated += r < basis.rank
            _, q = np.linalg.eigh(compute_scatter(rows, labels).sigma_t)
            top = q[:, ::-1][:, :r]
            vals, vecs = oracles.oracle_eigen(compute_scatter(rows @ top, labels))
            sel = select_margin_columns(vals, limit=c - 1)
            ref = top @ vecs[:, list(sel.kept_indices)]
            t = learn_mmc(rows, labels, rank=r)
            assert t.feature_dim == ref.shape[1]
            assert t.fallback_used == sel.fallback_used
            assert principal_angles(t.phi, ref).max() < 1e-6
            assert np.max(np.abs(t.delta - vals[list(sel.kept_indices)])) < 1e-8
        assert truncated  # the rule cut below full rank on some sets

    def test_full_rank_stays_the_default(self):
        rows, labels = random_flats(np.random.default_rng(54), classes=3, dim=20)
        basis = total_scatter_basis(rows, labels)
        assert noise_floor_rank(basis) < basis.rank
        full = learn_mmc(rows, labels, rank=basis.rank)
        assert learn_mmc(rows, labels).phi.tobytes() == full.phi.tobytes()

    def test_rank_must_be_positive(self):
        with pytest.raises(ContractError, match="rank must be positive, got 0"):
            learn_mmc(*flats_1d(FIXTURE), rank=0)

    def test_noiseless_classes_keep_every_direction(self):
        # Rows on their class means: no within-class scatter, no floor.
        rows, labels = flats_nd({"a": [[0.0, 0.0]] * 2, "b": [[4.0, 1.0]] * 2,
                                 "c": [[1.0, 5.0]] * 2})
        basis = total_scatter_basis(rows, labels)
        assert noise_floor_rank(basis) == basis.rank == 2


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    classes=st.integers(2, 5),
    dim=st.integers(1, 40),
    scale=st.floats(1e-3, 1e3),
)
def test_noise_floor_rank_is_bounded_and_invariant(seed, classes, dim, scale):
    # r is the oracle's count, in [1, rank], and stays so after a random
    # rotation and a positive scaling of the rows; only an eigenvalue
    # within 1e-9 of the edge could let rounding move it.
    rng = np.random.default_rng(seed)
    rows, labels = random_flats(rng, classes=classes, dim=dim, members_high=10)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    lo, hi = noise_floor_band(rows, labels)
    for moved in (rows, rows @ q, scale * rows, scale * rows @ q):
        basis = total_scatter_basis(moved, labels)
        r = noise_floor_rank(basis)
        assert 1 <= r <= basis.rank
        assert lo <= r <= hi


class TestOracleEigen:
    def test_values_live_in_unit_interval(self):
        rng = np.random.default_rng(50)
        for _ in range(15):
            flats = random_flats(
                rng,
                classes=int(rng.integers(2, 6)),
                dim=int(rng.integers(2, 8)),
            )
            stats = compute_scatter(*flats)
            vals, vecs = oracles.oracle_eigen(stats)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
            assert np.all(np.diff(vals) <= 1e-12)
            gram = vecs.T @ stats.sigma_t @ vecs
            assert np.max(np.abs(gram - np.eye(vecs.shape[1]))) < 1e-8

    def test_zero_between_gives_zero_values(self):
        flats = flats_1d({"a": [0.0, 2.0], "b": [0.0, 2.0]})
        vals, _ = oracles.oracle_eigen(compute_scatter(*flats))
        assert np.max(vals) < 1e-12

    def test_zero_total_is_degenerate(self):
        flats = flats_1d({"a": [3.0, 3.0], "b": [3.0, 3.0]})
        with pytest.raises(DegenerateDataError):
            oracles.oracle_eigen(compute_scatter(*flats))


class TestLearnPcaLda:
    def test_two_class_direction_matches_margin_learner(self):
        # With the projection kept full-width both routes solve the same
        # rank-one discriminant, so the 1-D subspaces must agree.
        rng = np.random.default_rng(51)
        for _ in range(10):
            flats = random_flats(rng, classes=2, dim=3, members_low=20, members_high=30)
            a = learn_mmc(*flats)
            b = learn_pcalda(*flats, pca_dim=3)
            assert a.feature_dim == b.feature_dim == 1
            assert principal_angles(a.phi, b.phi).max() < 1e-3

    def test_feature_count_bounded_by_classes(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            c = int(rng.integers(2, 6))
            flats = random_flats(rng, classes=c, dim=8)
            t = learn_pcalda(*flats)
            assert t.method == "pca_lda"
            assert 1 <= t.feature_dim <= c - 1
            assert np.all(np.diff(t.delta) <= 1e-9)

    def test_default_projection_width_is_class_count(self):
        flats = flats_nd(
            {
                "a": [[0.0, 0.0, 1.0], [0.1, 0.2, 0.9], [0.2, 0.1, 1.1]],
                "b": [[4.0, 0.1, 0.0], [4.1, 0.0, 0.2], [3.9, 0.2, 0.1]],
            }
        )
        t = learn_pcalda(*flats)
        assert t.feature_dim == 1

    def test_projection_width_range_enforced(self):
        rng = np.random.default_rng(53)
        flats = random_flats(rng, classes=3, dim=6, members_low=4, members_high=4)
        with pytest.raises(ContractError):
            learn_pcalda(*flats, pca_dim=2)  # below class count
        with pytest.raises(ContractError):
            learn_pcalda(*flats, pca_dim=10)  # above samples - classes
        narrow = random_flats(rng, classes=3, dim=4, members_low=6, members_high=6)
        with pytest.raises(ContractError):
            learn_pcalda(*narrow, pca_dim=5)  # above dim

    def test_singular_within_uses_ridge(self):
        flats = flats_nd(
            {
                "a": [[0.0, 0.0, 0.0, 0.0]] * 3,
                "b": [[4.0, 0.0, 0.0, 0.0]] * 3,
                "c": [[0.0, 4.0, 0.0, 0.0]] * 3,
            }
        )
        t = learn_pcalda(*flats)
        assert t.ridge_used
        assert t.feature_dim <= 2

    def test_zero_variance_is_degenerate(self):
        flats = flats_nd({"a": [[3.0, 1.0]] * 2, "b": [[3.0, 1.0]] * 2})
        with pytest.raises(DegenerateDataError):
            learn_pcalda(*flats)

    def test_matches_generalized_eigen_oracle(self):
        # With nonsingular projected within-class scatter the scatter-matrix
        # eigensolver route finds the same directions, and its LDA
        # eigenvalue lambda is the between-class share lambda / (1 + lambda).
        rng = np.random.default_rng(54)
        for _ in range(30):
            c = int(rng.integers(2, 6))
            d = int(rng.integers(c, 12))
            flats = random_flats(rng, classes=c, dim=d, members_low=4)
            pca_dim = int(rng.integers(c, min(d, len(flats[0]) - c) + 1))
            ref = oracles.oracle_pcalda(compute_scatter(*flats), pca_dim)
            assert not ref.ridge_used
            t = learn_pcalda(*flats, pca_dim)
            assert t.feature_dim == ref.feature_dim
            assert not t.ridge_used
            assert t.fallback_used == ref.fallback_used
            for j in range(t.feature_dim):
                assert principal_angles(t.phi[:, [j]], ref.phi[:, [j]])[0] < 1e-6
            lam = ref.delta
            assert np.max(np.abs(t.delta - lam / (1.0 + lam))) < 1e-9


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    classes=st.integers(2, 4),
    dim=st.integers(4, 7),
    method=st.sampled_from(["mmc", "pca_lda"]),
)
def test_learned_transform_json_round_trip_is_bit_exact(seed, classes, dim, method):
    rng = np.random.default_rng(seed)
    flats = random_flats(rng, classes=classes, dim=dim, members_high=6)
    t = learn_mmc(*flats) if method == "mmc" else learn_pcalda(*flats)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "transform.json")
        save_transform(t, path)
        back = load_transform(path)
    assert back.phi.tobytes() == t.phi.tobytes()
    assert back.delta.tobytes() == t.delta.tobytes()
