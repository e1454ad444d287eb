"""Between/within/total scatter statistics."""

import ast
import os

import numpy as np
import pytest

import marginforge
from conftest import flats_1d, random_flats
from marginforge import compute_scatter, context_of_rows, learn_mmc, learn_pcalda
from marginforge import reference
from marginforge.errors import ContractError, DegenerateDataError
from marginforge.scatter import total_scatter_basis


class TestFixtures:
    def test_two_singleton_pairs(self):
        # Class means 1 and 5, overall mean 3. Between is the unweighted
        # class sum (1-3)^2 + (5-3)^2 = 8; within normalizes per class,
        # 1 + 1 = 2; total is their sum.
        flats = flats_1d({"a": [0.0, 2.0], "b": [4.0, 6.0]})
        stats = compute_scatter(*flats)
        assert stats.sigma_b[0, 0] == pytest.approx(8.0, abs=1e-12)
        assert stats.sigma_w[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert stats.sigma_t[0, 0] == pytest.approx(10.0, abs=1e-12)
        assert stats.overall_mean[0] == pytest.approx(3.0, abs=1e-12)
        assert stats.labels == ("a", "b")
        assert stats.class_means.tolist() == [[1.0], [5.0]]
        assert stats.class_sizes.tolist() == [2, 2]

    def test_duplicate_class_means_zero_between(self):
        flats = flats_1d({"a": [0.0, 2.0], "b": [0.0, 2.0]})
        stats = compute_scatter(*flats)
        assert np.array_equal(stats.sigma_b, np.zeros((1, 1)))
        assert stats.sigma_w[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_all_identical_points(self):
        flats = flats_1d({"a": [3.0, 3.0], "b": [3.0, 3.0]})
        stats = compute_scatter(*flats)
        assert np.array_equal(stats.sigma_b, np.zeros((1, 1)))
        assert np.array_equal(stats.sigma_w, np.zeros((1, 1)))
        assert np.array_equal(stats.sigma_t, np.zeros((1, 1)))


class TestAlgebraicInvariants:
    def test_total_is_between_plus_within(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            flats = random_flats(
                rng,
                classes=int(rng.integers(2, 7)),
                dim=int(rng.integers(2, 12)),
            )
            stats = compute_scatter(*flats)
            lhs = stats.sigma_t
            rhs = stats.sigma_b + stats.sigma_w
            scale = max(np.linalg.norm(lhs), 1.0)
            assert np.linalg.norm(lhs - rhs) / scale < 1e-9

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            flats = random_flats(rng, classes=3, dim=int(rng.integers(2, 8)))
            stats = compute_scatter(*flats)
            for m in (stats.sigma_b, stats.sigma_w, stats.sigma_t):
                assert np.array_equal(m, m.T)
                assert np.min(np.linalg.eigvalsh(m)) > -1e-10

    def test_between_rank_bounded_by_classes(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            c = int(rng.integers(2, 6))
            flats = random_flats(rng, classes=c, dim=10)
            stats = compute_scatter(*flats)
            assert np.linalg.matrix_rank(stats.sigma_b, tol=1e-8) <= c - 1

    def test_translation_invariance(self):
        rng = np.random.default_rng(34)
        flats = random_flats(rng, classes=3, dim=5)
        shift = rng.normal(size=5) * 50.0
        shifted = (flats[0] + shift, flats[1])
        a, b = compute_scatter(*flats), compute_scatter(*shifted)
        assert np.allclose(a.sigma_b, b.sigma_b, atol=1e-9)
        assert np.allclose(a.sigma_w, b.sigma_w, atol=1e-9)
        assert np.allclose(a.sigma_t, b.sigma_t, atol=1e-9)

    def test_orthogonal_equivariance(self):
        # Rotating every vector by Q conjugates each scatter matrix by Q.
        rng = np.random.default_rng(35)
        flats = random_flats(rng, classes=3, dim=4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated = (flats[0] @ q.T, flats[1])
        a, b = compute_scatter(*flats), compute_scatter(*rotated)
        assert np.allclose(q @ a.sigma_b @ q.T, b.sigma_b, atol=1e-9)
        assert np.allclose(q @ a.sigma_w @ q.T, b.sigma_w, atol=1e-9)
        assert np.allclose(q @ a.sigma_t @ q.T, b.sigma_t, atol=1e-9)

    def test_unbalanced_classes(self):
        # Overall mean runs over all 4 vectors: 6/4 = 1.5. Between sums
        # the class gaps without size weights: (0-1.5)^2 + (6-1.5)^2.
        flats = flats_1d({"a": [-1.0, 0.0, 1.0], "b": [6.0]})
        stats = compute_scatter(*flats)
        assert stats.overall_mean[0] == pytest.approx(1.5, abs=1e-12)
        assert stats.sigma_b[0, 0] == pytest.approx(22.5, abs=1e-12)
        lhs, rhs = stats.sigma_t, stats.sigma_b + stats.sigma_w
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestValidation:
    def test_empty_input(self):
        with pytest.raises(ContractError):
            compute_scatter(np.empty((0, 1)), [])

    def test_single_class(self):
        with pytest.raises(ContractError):
            compute_scatter(*flats_1d({"a": [0.0, 1.0]}))

    def test_results_are_read_only(self):
        stats = compute_scatter(*flats_1d({"a": [0.0, 2.0], "b": [4.0, 6.0]}))
        with pytest.raises(ValueError):
            stats.sigma_b[0, 0] = 99.0


class TestTotalScatterBasis:
    def test_two_singleton_pairs(self):
        # Total scatter is 10 (TestFixtures): one singular value sqrt(10).
        basis = total_scatter_basis(*flats_1d({"a": [0.0, 2.0], "b": [4.0, 6.0]}))
        assert basis.rank == 1
        assert basis.s[0] == pytest.approx(np.sqrt(10.0), rel=1e-12)
        assert abs(basis.omega[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_reconstructs_total_scatter(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            flats = random_flats(
                rng,
                classes=int(rng.integers(2, 6)),
                dim=int(rng.integers(1, 30)),
            )
            basis = total_scatter_basis(*flats)
            sigma_t = compute_scatter(*flats).sigma_t
            rebuilt = (basis.omega * basis.s**2) @ basis.omega.T
            scale = max(np.linalg.norm(sigma_t), 1.0)
            assert np.linalg.norm(rebuilt - sigma_t) / scale < 1e-9

    def test_rank_is_that_of_the_span(self):
        # N centred samples span at most N - 1 directions.
        rng = np.random.default_rng(37)
        for dim in (3, 11, 40):
            flats = random_flats(
                rng, classes=3, dim=dim, members_low=4, members_high=4
            )
            assert total_scatter_basis(*flats).rank == min(dim, 11)

    def test_basis_is_orthonormal_and_values_descend(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            flats = random_flats(rng, classes=4, dim=int(rng.integers(2, 25)))
            basis = total_scatter_basis(*flats)
            gram = basis.omega.T @ basis.omega
            assert np.max(np.abs(gram - np.eye(basis.rank))) < 1e-12
            assert np.all(basis.s > 0.0)
            assert np.all(np.diff(basis.s) <= 0.0)

    def test_means_and_labels_match_compute_scatter(self):
        flats = flats_1d({"b": [-1.0, 0.0, 1.0], "a": [6.0]})
        basis = total_scatter_basis(*flats)
        stats = compute_scatter(*flats)
        assert basis.labels == stats.labels == ("a", "b")
        assert np.array_equal(basis.class_means, stats.class_means)
        assert np.array_equal(basis.overall_mean, stats.overall_mean)

    def test_zero_variance_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            total_scatter_basis(*flats_1d({"a": [3.0, 3.0], "b": [3.0, 3.0]}))

    @pytest.mark.parametrize("coded", [False, True])
    def test_rows_give_the_bits_of_the_samples(self, coded):
        # Shuffled rows, labelled by name or by integer code in sorted name
        # order: each class stacks its rows in their order, so the bits are
        # those of the same rows grouped class by class under their names.
        rng = np.random.default_rng(39)
        rows, labels = random_flats(rng, classes=4, dim=12)
        order = rng.permutation(len(rows))
        rows = rows[order]
        names, codes = np.unique(np.array(labels)[order], return_inverse=True)
        got = total_scatter_basis(rows, codes if coded else names[codes])
        grouped = np.argsort(codes, kind="stable")
        want = total_scatter_basis(rows[grouped], names[codes[grouped]])
        for field in ("omega", "s", "class_means", "overall_mean"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        with pytest.raises(ContractError):
            total_scatter_basis(rows, np.zeros(len(rows)))

    @pytest.mark.parametrize("case", ["empty", "single_class"])
    def test_rejects_what_compute_scatter_rejects(self, case):
        flats = {
            "empty": (np.empty((0, 1)), []),
            "single_class": flats_1d({"a": [0.0, 1.0]}),
        }[case]
        with pytest.raises(ContractError):
            compute_scatter(*flats)
        with pytest.raises(ContractError):
            total_scatter_basis(*flats)

    def test_results_are_read_only(self):
        basis = total_scatter_basis(*flats_1d({"a": [0.0, 2.0], "b": [4.0, 6.0]}))
        for a in (basis.omega, basis.s, basis.class_means, basis.overall_mean):
            with pytest.raises(ValueError):
                a[0] = 99.0


# Every entry point of a labeled population checks it the same way.
CONSUMERS = {
    f.__name__: f
    for f in (learn_mmc, learn_pcalda, compute_scatter, total_scatter_basis,
              context_of_rows)
}
PAIRS = ["a", "a", "b", "b"]
MALFORMED = {
    "not_2d": (np.arange(4.0), PAIRS, "2-D"),
    "no_rows": (np.empty((0, 2)), [], "no samples"),
    "label_count": (np.arange(8.0).reshape(4, 2), PAIRS[:3], "3 labels for 4 rows"),
    "non_finite": (np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0], [5.0, 7.0]]),
                   PAIRS, "non-finite"),
    "one_class": (np.arange(8.0).reshape(4, 2), ["a"] * 4, "at least 2 classes"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_every_consumer_rejects_a_malformed_population(consumer, case):
    rows, labels, message = MALFORMED[case]
    with pytest.raises(ContractError, match=message):
        CONSUMERS[consumer](rows, labels)


def test_only_the_package_imports_the_reference_route():
    # The program's modules never run the D x D route; the package
    # re-exports it for the criteria and the library.
    package = os.path.dirname(marginforge.__file__)
    importers = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                targets = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            else:
                continue
            if any(t.split(".")[-1] == "reference" for t in targets):
                importers.append(name)
    assert importers == []


def test_the_reference_names_are_the_package_names():
    moved = sorted(
        name for name, value in vars(reference).items()
        if getattr(value, "__module__", None) == reference.__name__
        and not name.startswith("_")
    )
    assert moved == ["MatchingContext", "ScatterStatistics", "compute_scatter",
                     "context_of_rows", "margin_trace", "mmc_objective"]
    for name in moved:
        assert getattr(marginforge, name) is getattr(reference, name)
