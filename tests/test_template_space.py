"""Template extraction, matching contexts, Mahalanobis distance, galleries."""

import numpy as np
import pytest

from conftest import (
    flats_nd,
    identity_ctx,
    metric_axiom_violation,
    mmc_euclidean_violation,
    random_flats,
    random_spd_ctx,
    recombination_violation,
    templates_1d,
    templates_nd,
)
from marginforge import (
    FeatureTransform,
    FlatSample,
    GaitTemplate,
    GalleryStore,
    MatchingContext,
    build_gallery,
    build_matching_context,
    extract_template,
    identity_transform,
    learn_mmc,
    load_gallery,
    mahalanobis,
    save_gallery,
)
from marginforge.errors import (
    ContractError,
    DegenerateDataError,
    ParseError,
    SchemaError,
    StaleGalleryError,
    ValidationError,
)


def pick_first_coordinate(width: int) -> FeatureTransform:
    phi = np.zeros((width, 1))
    phi[0, 0] = 1.0
    return FeatureTransform(method="identity", phi=phi, delta=np.ones(1))


class TestExtractTemplate:
    def test_projects_and_keeps_identity(self):
        flat = FlatSample(
            vector=np.array([5.0, 7.0, 9.0]), label="a", sample_id="s0"
        )
        t = extract_template(pick_first_coordinate(3), flat)
        assert t.vector.tolist() == [5.0]
        assert t.label == "a"
        assert t.sample_id == "s0"

    def test_linear_in_the_input(self):
        rng = np.random.default_rng(60)
        transform = FeatureTransform(
            method="identity", phi=rng.normal(size=(4, 2)), delta=np.ones(2)
        )
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        combo = FlatSample(vector=2.0 * x - 3.0 * y, label="a", sample_id="c")
        tc = extract_template(transform, combo)
        tx = extract_template(transform, FlatSample(vector=x, label="a", sample_id="x"))
        ty = extract_template(transform, FlatSample(vector=y, label="a", sample_id="y"))
        want = 2.0 * tx.vector - 3.0 * ty.vector
        assert np.max(np.abs(tc.vector - want)) < 1e-12

    def test_template_validation(self):
        with pytest.raises(ContractError):
            GaitTemplate(vector=np.zeros((2, 2)), label="a", sample_id="s")
        with pytest.raises(ContractError):
            GaitTemplate(vector=np.array([np.nan]), label="a", sample_id="s")
        t = GaitTemplate(vector=np.array([1.0]), label="a", sample_id="s")
        with pytest.raises(ValueError):
            t.vector[0] = 2.0


class TestBuildMatchingContext:
    def test_one_dimensional_inverse(self):
        # Coincident class point sets: total scatter is pure within, 2,
        # so the stored inverse must be exactly 0.5.
        temps = templates_1d({"a": [0.0, 2.0], "b": [0.0, 2.0]})
        ctx = build_matching_context(identity_transform(1), temps)
        assert ctx.source == "exact"
        assert ctx.sigma_t_feature_inv[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_margin_learner_context_is_near_identity(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            flats = random_flats(rng, classes=3, dim=6)
            t = learn_mmc(flats)
            temps = [extract_template(t, f) for f in flats]
            ctx = build_matching_context(t, temps)
            gap = ctx.sigma_t_feature_inv - np.eye(t.feature_dim)
            assert np.max(np.abs(gap)) < 1e-6

    def test_flat_direction_triggers_ridge(self):
        temps = templates_nd(
            {"a": [[0.0, 0.0], [2.0, 0.0]], "b": [[4.0, 0.0], [6.0, 0.0]]}
        )
        ctx = build_matching_context(identity_transform(2), temps)
        assert ctx.source == "ridge"
        assert np.min(np.linalg.eigvalsh(ctx.sigma_t_feature_inv)) > 0.0

    def test_zero_scatter_is_degenerate(self):
        temps = templates_1d({"a": [3.0, 3.0], "b": [3.0, 3.0]})
        with pytest.raises(DegenerateDataError):
            build_matching_context(identity_transform(1), temps)

    def test_requires_templates_of_matching_width(self):
        with pytest.raises(ContractError):
            build_matching_context(identity_transform(1), [])
        temps = templates_nd({"a": [[0.0, 1.0]], "b": [[2.0, 3.0]]})
        with pytest.raises(ContractError):
            build_matching_context(identity_transform(1), temps)


class TestMahalanobis:
    def test_identity_context_is_euclidean(self):
        a = GaitTemplate(vector=np.array([0.0, 0.0]), label="a", sample_id="a")
        b = GaitTemplate(vector=np.array([3.0, 4.0]), label="b", sample_id="b")
        assert mahalanobis(identity_ctx(2), a, b) == pytest.approx(5.0, abs=1e-12)

    def test_self_distance_is_zero(self):
        a = GaitTemplate(vector=np.array([2.5, -1.0]), label="a", sample_id="a")
        assert mahalanobis(identity_ctx(2), a, a) == 0.0

    def test_diagonal_context_rescales_axes(self):
        ctx = MatchingContext(
            sigma_t_feature_inv=np.diag([0.25, 1.0]), source="exact"
        )
        a = GaitTemplate(vector=np.array([0.0, 0.0]), label="a", sample_id="a")
        b = GaitTemplate(vector=np.array([2.0, 0.0]), label="b", sample_id="b")
        assert mahalanobis(ctx, a, b) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        a = GaitTemplate(vector=np.array([0.0]), label="a", sample_id="a")
        b = GaitTemplate(vector=np.array([0.0, 1.0]), label="b", sample_id="b")
        with pytest.raises(ContractError):
            mahalanobis(identity_ctx(1), a, b)
        c = GaitTemplate(vector=np.array([1.0]), label="c", sample_id="c")
        with pytest.raises(ContractError):
            mahalanobis(identity_ctx(2), a, c)

    def test_metric_axioms_hold(self):
        rng = np.random.default_rng(62)
        worst = max(metric_axiom_violation(rng) for _ in range(200))
        assert worst <= 1e-9

    def test_invariant_under_feature_recombination(self):
        rng = np.random.default_rng(63)
        worst = max(recombination_violation(rng) for _ in range(25))
        assert worst <= 1e-6

    def test_margin_features_match_euclidean(self):
        rng = np.random.default_rng(64)
        worst = max(mmc_euclidean_violation(rng) for _ in range(25))
        assert worst <= 1e-5


class TestMatchingContextValidation:
    def test_rejects_bad_matrices(self):
        with pytest.raises(ContractError):
            MatchingContext(sigma_t_feature_inv=np.zeros((2, 3)), source="exact")
        with pytest.raises(ContractError):
            MatchingContext(
                sigma_t_feature_inv=np.array([[1.0, 0.5], [0.0, 1.0]]),
                source="exact",
            )
        with pytest.raises(ContractError):
            MatchingContext(
                sigma_t_feature_inv=np.diag([1.0, -1.0]), source="exact"
            )
        for bad in (np.nan, np.inf):
            with pytest.raises(ContractError, match="non-finite"):
                MatchingContext(
                    sigma_t_feature_inv=np.diag([1.0, bad]), source="exact"
                )

    def test_rejects_unknown_source(self):
        with pytest.raises(ValidationError):
            MatchingContext(sigma_t_feature_inv=np.eye(1), source="guess")

    def test_json_round_trip_and_length_check(self):
        ctx = identity_ctx(2)
        back = MatchingContext.from_json_dict(ctx.to_json_dict(), dimension=2)
        assert np.array_equal(back.sigma_t_feature_inv, ctx.sigma_t_feature_inv)
        with pytest.raises(SchemaError):
            MatchingContext.from_json_dict(ctx.to_json_dict(), dimension=3)
        with pytest.raises(SchemaError):
            MatchingContext.from_json_dict({"source": "exact"}, dimension=2)


class TestWhitener:
    def test_whitened_norm_is_the_quadratic_form(self):
        rng = np.random.default_rng(65)
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            ctx = random_spd_ctx(rng, dim)
            gap = rng.normal(0.0, 3.0, size=dim)
            quad = float(gap @ ctx.sigma_t_feature_inv @ gap)
            whitened = ctx.whiten(gap)
            assert float(whitened @ whitened) == pytest.approx(quad, rel=1e-12)

    def test_json_round_trip_rebuilds_the_same_whitener(self):
        rng = np.random.default_rng(66)
        for dim in range(1, 7):
            ctx = random_spd_ctx(rng, dim)
            back = MatchingContext.from_json_dict(ctx.to_json_dict(), dim)
            assert back.whitener.tobytes() == ctx.whitener.tobytes()

    def test_whitener_is_read_only(self):
        with pytest.raises(ValueError):
            identity_ctx(2).whitener[0, 0] = 2.0


class TestGallery:
    def build(self):
        flats = flats_nd(
            {
                "a": [[0.0, 0.1], [0.4, -0.2], [0.2, 0.3]],
                "b": [[4.0, 1.0], [4.2, 0.8], [3.8, 1.2]],
            }
        )
        transform = identity_transform(2)
        return flats, transform, build_gallery(flats, transform)

    def test_round_trip_preserves_everything(self, tmp_path):
        flats, transform, store = self.build()
        path = tmp_path / "gallery.json"
        save_gallery(store, path)
        back = load_gallery(path)
        back.ensure_matches(transform)
        assert back.transform_fingerprint == store.transform_fingerprint
        assert back.labels == ("a", "b")
        assert len(back.templates) == len(store.templates)
        for t0, t1 in zip(store.templates, back.templates):
            assert t0.sample_id == t1.sample_id
            assert t0.label == t1.label
            assert np.array_equal(t0.vector, t1.vector)
        assert np.array_equal(
            back.context.sigma_t_feature_inv, store.context.sigma_t_feature_inv
        )

    def test_default_context_comes_from_enrolled_templates(self):
        flats, transform, store = self.build()
        temps = [extract_template(transform, f) for f in flats]
        want = build_matching_context(transform, temps)
        assert np.array_equal(
            store.context.sigma_t_feature_inv, want.sigma_t_feature_inv
        )

    def test_stale_transform_is_refused(self):
        _, _, store = self.build()
        other = FeatureTransform(
            method="identity", phi=np.eye(2) * 2.0, delta=np.ones(2)
        )
        with pytest.raises(StaleGalleryError):
            store.ensure_matches(other)

    def test_truncated_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "gallery.json"
        path.write_text('{"transform_fingerprint": "abc", "cont')
        with pytest.raises(ParseError):
            load_gallery(path)

    def test_structural_validation(self):
        _, _, store = self.build()
        with pytest.raises(ContractError):
            GalleryStore(
                transform_fingerprint="x", context=identity_ctx(2), templates=()
            )
        with pytest.raises(ContractError):
            GalleryStore(
                transform_fingerprint="x",
                context=identity_ctx(3),
                templates=store.templates,
            )
        doc = store.to_json_dict()
        doc["templates"] = []
        with pytest.raises(SchemaError):
            GalleryStore.from_json_dict(doc)
        with pytest.raises(SchemaError):
            GalleryStore.from_json_dict("not a dict")

    def test_enrolling_nothing_is_an_error(self):
        with pytest.raises(ContractError):
            build_gallery([], identity_transform(2))
