"""Margin-maximizing and PCA+LDA transform learners."""

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
    identity_transform,
    learn_mmc,
    learn_pcalda,
    learners,
    load_transform,
    margin_trace,
    mmc_objective,
    save_transform,
    select_margin_columns,
)
from marginforge.errors import (
    ContractError,
    DegenerateDataError,
    SchemaError,
    ValidationError,
)

FIXTURE = {"a": [0.0, 2.0], "b": [4.0, 6.0]}


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
        with pytest.raises(ValidationError):
            FeatureTransform(method="rbf", phi=np.eye(1), delta=np.ones(1))

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
        good = identity_transform(2).to_json_dict()
        with pytest.raises(SchemaError):
            FeatureTransform.from_json_dict([good])
        for breakage in (
            {"method": "rbf"},
            {"phi": [1.0, 0.0, 0.0]},
            {"delta": [1.0]},
            {"input_dim": 0},
        ):
            doc = dict(good)
            doc.update(breakage)
            with pytest.raises(SchemaError):
                FeatureTransform.from_json_dict(doc)
        doc = dict(good)
        del doc["feature_dim"]
        with pytest.raises(SchemaError):
            FeatureTransform.from_json_dict(doc)

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

    def test_identity_transform(self):
        t = identity_transform(3)
        assert t.method == "identity"
        assert np.array_equal(t.phi, np.eye(3))
        assert np.array_equal(t.delta, np.ones(3))
        with pytest.raises(ContractError):
            identity_transform(0)


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
            mmc_objective(identity_transform(2), stats)
        with pytest.raises(ContractError):
            margin_trace(stats, np.eye(3))


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
