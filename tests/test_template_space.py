"""Template rows, matching contexts, Mahalanobis distance."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    flats_1d,
    flats_nd,
    identity_ctx,
    metric_axiom_violation,
    mmc_euclidean_violation,
    random_flats,
    random_spd_ctx,
    recombination_violation,
    template_matrix,
    traced_peak,
)
from marginforge import (
    FeatureTransform,
    MatchingContext,
    compute_scatter,
    context_of_rows,
    identity_transform,
    learn_mmc,
    pairwise_distances,
    template_rows,
)
from marginforge.errors import ContractError, DegenerateDataError


def pick_first_coordinate(width: int) -> FeatureTransform:
    phi = np.zeros((width, 1))
    phi[0, 0] = 1.0
    return FeatureTransform(method="identity", phi=phi, delta=np.ones(1))


class TestExtractTemplate:
    def test_projects_and_keeps_identity(self):
        t = template_matrix(pick_first_coordinate(3), np.array([[5.0, 7.0, 9.0]]))
        assert t.tolist() == [[5.0]]

    def test_linear_in_the_input(self):
        rng = np.random.default_rng(60)
        transform = FeatureTransform(
            method="identity", phi=rng.normal(size=(4, 2)), delta=np.ones(2)
        )
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        tc, tx, ty = template_rows(
            transform, np.stack([2.0 * x - 3.0 * y, x, y]), ["c", "x", "y"]
        )
        want = 2.0 * tx - 3.0 * ty
        assert np.max(np.abs(tc - want)) < 1e-12


class TestBuildMatchingContext:
    def test_one_dimensional_inverse(self):
        # Coincident class point sets: total scatter is pure within, 2,
        # so a unit gap whitens to squared length exactly 0.5.
        temps = flats_1d({"a": [0.0, 2.0], "b": [0.0, 2.0]})
        ctx = context_of_rows(*temps)
        whitened = ctx.whiten(np.ones(1))
        assert float(whitened @ whitened) == pytest.approx(0.5, abs=1e-12)

    def test_margin_learner_context_is_near_identity(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            flats = random_flats(rng, classes=3, dim=6)
            t = learn_mmc(*flats)
            ctx = context_of_rows(template_matrix(t, flats[0]), flats[1])
            gap = ctx.whitener @ ctx.whitener.T - np.eye(t.feature_dim)
            assert np.max(np.abs(gap)) < 1e-6

    def test_flat_direction_whitens_to_zero(self):
        # Total scatter is diag(10, 0): the second axis carries no data.
        temps = flats_nd(
            {"a": [[0.0, 0.0], [2.0, 0.0]], "b": [[4.0, 0.0], [6.0, 0.0]]}
        )
        ctx = context_of_rows(*temps)
        assert ctx.whitener.shape == (2, 1)
        assert ctx.whiten(np.array([0.0, 1.0])).tolist() == [0.0]
        gap = np.linalg.norm(ctx.whiten(np.array([2.0, 0.0])))
        assert gap == pytest.approx(2.0 / np.sqrt(10.0), rel=1e-12)

    def test_zero_scatter_is_degenerate(self):
        temps = flats_1d({"a": [3.0, 3.0], "b": [3.0, 3.0]})
        with pytest.raises(DegenerateDataError):
            context_of_rows(*temps)

    def test_requires_templates_of_matching_width(self):
        with pytest.raises(ContractError):
            context_of_rows(np.empty((0, 1)), [])
        temps = flats_nd({"a": [[0.0, 1.0]], "b": [[2.0, 3.0]]})
        with pytest.raises(ContractError):
            context_of_rows(
                template_matrix(identity_transform(1), temps[0]), temps[1]
            )

    @pytest.mark.parametrize("count", [3, 5])
    def test_labels_must_match_the_rows(self, count):
        labels = ["a", "a", "b", "b", "b"][:count]
        with pytest.raises(ContractError, match=f"^{count} labels for 4 rows$"):
            context_of_rows(np.arange(8.0).reshape(4, 2), labels)


def whitened_distance(ctx: MatchingContext, a, b) -> float:
    """The matcher's distance between two feature vectors: entry (0, 1) of
    pairwise_distances of their whitened rows."""
    return float(pairwise_distances(ctx.whiten(np.stack([a, b])))[0, 1])


class TestMahalanobis:
    def test_identity_context_is_euclidean(self):
        a, b = np.array([0.0, 0.0]), np.array([3.0, 4.0])
        assert whitened_distance(identity_ctx(2), a, b) == pytest.approx(
            5.0, abs=1e-12
        )

    def test_self_distance_is_zero(self):
        a = np.array([2.5, -1.0])
        assert whitened_distance(identity_ctx(2), a, a) == 0.0

    def test_diagonal_context_rescales_axes(self):
        ctx = MatchingContext(whitener=np.diag([0.5, 1.0]))
        a, b = np.array([0.0, 0.0]), np.array([2.0, 0.0])
        assert whitened_distance(ctx, a, b) == pytest.approx(1.0, abs=1e-12)

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
            MatchingContext(whitener=np.zeros((2, 3)))
        with pytest.raises(ContractError):
            MatchingContext(whitener=np.zeros((2, 0)))
        with pytest.raises(ContractError):
            MatchingContext(whitener=np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ContractError, match="non-finite"):
            MatchingContext(whitener=np.diag([1.0, bad]))


class TestWhitener:
    def test_whitened_norm_is_the_quadratic_form(self):
        rng = np.random.default_rng(65)
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            ctx, m = random_spd_ctx(rng, dim)
            gap = rng.normal(0.0, 3.0, size=dim)
            quad = float(gap @ m @ gap)
            whitened = ctx.whiten(gap)
            assert float(whitened @ whitened) == pytest.approx(quad, rel=1e-12)

    def test_whitener_is_read_only(self):
        with pytest.raises(ValueError):
            identity_ctx(2).whitener[0, 0] = 2.0


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    classes=st.integers(2, 4),
    members=st.integers(1, 5),
    deficient=st.booleans(),
    extra=st.integers(1, 6),
)
def test_whitener_is_the_pseudo_inverse_metric(seed, classes, members, deficient, extra):
    # N samples span N - 1 centred directions: a dimension above that is
    # rank-deficient, one at or below it is full rank.
    n = classes * members
    dim = n - 1 + extra if deficient else max(1, n - extra)
    rng = np.random.default_rng(seed)
    flats = random_flats(
        rng, classes=classes, dim=dim, members_low=members, members_high=members
    )
    temps = template_matrix(identity_transform(dim), flats[0])
    ctx = context_of_rows(temps, flats[1])
    assert ctx.whitener.shape[1] == min(n - 1, dim)

    m = np.linalg.pinv(compute_scatter(*flats).sigma_t, rcond=1e-10, hermitian=True)
    for _ in range(5):
        gap = rng.normal(0.0, 3.0, size=dim) - rng.normal(0.0, 3.0, size=dim)
        whitened = ctx.whiten(gap)
        assert float(whitened @ whitened) == pytest.approx(
            float(gap @ m @ gap), rel=1e-9
        )

    centred = temps - temps.mean(axis=0)
    _, _, vt = np.linalg.svd(centred)
    off_span = vt[min(n - 1, dim):].T @ rng.normal(size=dim - min(n - 1, dim))
    scale = np.linalg.norm(ctx.whitener, 2) * max(np.linalg.norm(off_span), 1.0)
    assert np.linalg.norm(ctx.whiten(off_span)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 20),
    dim=st.integers(1, 300),
    k=st.integers(1, 40),
)
@example(seed=0, n=7, dim=150, k=1)
def test_template_rows_equal_extract_template(seed, n, dim, k):
    # One vector-matrix product per row sums in the order of a single row's
    # v @ phi; a single (n, dim) @ (dim, k) product would not.
    rng = np.random.default_rng(seed)
    transform = FeatureTransform(
        method="identity", phi=rng.normal(size=(dim, k)), delta=np.ones(k)
    )
    vectors = rng.normal(0.0, 3.0, size=(n, dim))
    ids = [f"s{i}" for i in range(n)]
    want = np.stack([v @ transform.phi for v in vectors])
    got = template_rows(transform, vectors, ids)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_template_rows_name_the_non_finite_row():
    transform = FeatureTransform(
        method="identity", phi=np.full((2, 1), 1e300), delta=np.ones(1)
    )
    vectors = np.array([[1.0, 1.0], [1e10, 1e10]])
    with np.errstate(over="ignore"), pytest.raises(
        ContractError, match="^template 'b': non-finite entry$"
    ):
        template_rows(transform, vectors, ["a", "b"])
    with pytest.raises(ContractError):
        template_rows(transform, np.ones((2, 3)), ["a", "b"])


def one_norm_per_row(rows: np.ndarray) -> np.ndarray:
    return np.stack([np.linalg.norm(rows - rows[i], axis=1) for i in range(len(rows))])


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    width=st.integers(1, 30),
)
# An evaluation fold's shape, mmc's one-column fallback, a single row, and
# a wide matrix whose rows are long enough for pairwise summation.
@example(seed=0, n=200, width=9)
@example(seed=0, n=200, width=1)
@example(seed=0, n=1, width=5)
@example(seed=63, n=205, width=99)
def test_pairwise_distances_equal_one_norm_per_row(seed, n, width):
    rows = np.random.default_rng(seed).normal(0.0, 2.0, size=(n, width))
    got = pairwise_distances(rows)
    assert got.tobytes() == one_norm_per_row(rows).tobytes()
    # The protocol's "all" sweep reads the upper triangle alone, which
    # holds every pair once only because of these two.
    assert got.tobytes() == got.T.tobytes()
    assert np.all(np.diagonal(got) == 0.0)


@pytest.mark.parametrize("n, width", [(200, 9), (200, 1), (60, 150)])
def test_pairwise_distances_hold_about_one_copy_of_the_rows(n, width):
    # Beyond the (n, n) result, a few (n, width) temporaries at most: no
    # difference of every row against a block of rows.
    rows = np.random.default_rng(5).normal(size=(n, width))
    peak = traced_peak(lambda: pairwise_distances(rows))
    assert peak <= 8 * n * n + 3 * 8 * n * width + 64 * 1024
