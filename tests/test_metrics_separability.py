"""Davies-Bouldin, Dunn, silhouette, Fisher ratio."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import (
    flats_1d,
    flats_nd,
    identity_ctx,
    random_flats,
    random_spd_ctx,
    records,
    template_matrix,
)
import marginforge
from marginforge import (
    MatchingContext,
    SeparabilityReport,
    context_of_rows,
    learn_mmc,
    pairwise_distances,
    separability_of_rows,
)
from marginforge.errors import ContractError
from oracles import brute_separability

FIXTURE = {"a": [0.0, 2.0], "b": [4.0, 6.0]}
COINCIDENT = (
    "DegenerateMetricWarning: coincident centroids for classes 'a' and 'b': "
    "Davies-Bouldin undefined",
)
ZERO_DISPERSION = (
    "DegenerateMetricWarning: all classes have zero dispersion: Dunn undefined",
    "DegenerateMetricWarning: zero within-class spread: Fisher ratio undefined",
)


def separability(rows, labels, ctx):
    """separability_of_rows of the rows whitened by ctx, with the distance
    matrix the evaluator passes: pairwise_distances of those rows."""
    whitened = ctx.whiten(rows)
    return separability_of_rows(whitened, labels, pairwise_distances(whitened))


def separability_of(population, ctx):
    """separability of a (rows, labels) population."""
    return separability(*population, ctx)


class TestDaviesBouldin:
    def test_fixture_value(self):
        # Dispersions 1 and 1; centroid gap 4; both classes share the
        # worst ratio (1+1)/4, so the mean is 0.5.
        got = separability_of(flats_1d(FIXTURE), identity_ctx(1)).dbi
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_larger_separation_scores_lower(self):
        near = separability_of(flats_1d(FIXTURE), identity_ctx(1)).dbi
        far = separability_of(
            flats_1d({"a": [0.0, 2.0], "b": [40.0, 42.0]}), identity_ctx(1)
        ).dbi
        assert far == pytest.approx(0.05, abs=1e-12)
        assert far < near

    def test_coincident_centroids_degenerate(self):
        temps = flats_1d({"a": [0.0, 2.0], "b": [0.0, 2.0]})
        report = separability_of(temps, identity_ctx(1))
        assert report.warnings == COINCIDENT
        assert np.isinf(report.dbi)

    def test_coincident_whitened_means_degenerate_under_a_scaled_metric(self):
        # Both classes hold the same rows, so their whitened class means
        # coincide under any context: the gap is exactly zero.
        temps = flats_nd(
            {"a": [[0.0, 1.0], [2.0, 3.0]], "b": [[0.0, 1.0], [2.0, 3.0]]}
        )
        ctx = MatchingContext(whitener=np.diag([0.5, 3.0]))
        report = separability_of(temps, ctx)
        assert report.warnings == COINCIDENT
        assert report.dbi == float("inf")

    def test_degenerate_is_a_finding_even_when_warnings_are_errors(self):
        temps = flats_1d({"a": [0.0, 2.0], "b": [0.0, 2.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = separability_of(temps, identity_ctx(1))
        assert report.dbi == float("inf")
        assert report.warnings == COINCIDENT


class TestDunn:
    def test_fixture_value(self):
        got = separability_of(flats_1d(FIXTURE), identity_ctx(1)).di
        assert got == pytest.approx(4.0, abs=1e-12)

    def test_three_equally_spaced_classes(self):
        temps = flats_1d(
            {"a": [-1.0, 1.0], "b": [4.0, 6.0], "c": [9.0, 11.0]}
        )
        got = separability_of(temps, identity_ctx(1)).di
        assert got == pytest.approx(5.0, abs=1e-12)

    def test_coincident_centroids_score_zero(self):
        temps = flats_1d({"a": [0.0, 2.0], "b": [0.0, 2.0]})
        assert separability_of(temps, identity_ctx(1)).di == 0.0

    def test_zero_dispersion_degenerate(self):
        temps = flats_1d({"a": [1.0, 1.0], "b": [5.0, 5.0]})
        report = separability_of(temps, identity_ctx(1))
        assert report.warnings == ZERO_DISPERSION
        assert np.isinf(report.di)


class TestSilhouette:
    def test_fixture_value(self):
        # Outer points score 0.8, inner points 2/3; the mean is 11/15.
        got = separability_of(flats_1d(FIXTURE), identity_ctx(1)).sc
        assert got == pytest.approx(11.0 / 15.0, abs=1e-12)

    def test_zero_dispersion_scores_one(self):
        temps = flats_1d({"a": [0.0, 0.0], "b": [10.0, 10.0]})
        got = separability_of(temps, identity_ctx(1)).sc
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_identical_point_sets_score_zero(self):
        temps = flats_1d({"a": [0.0, 10.0], "b": [0.0, 10.0]})
        assert separability_of(temps, identity_ctx(1)).sc == 0.0

    def test_singleton_class_has_zero_cohesion(self):
        # Member 3 is alone: a = 0, b = 3, silhouette 1. The pair at 5
        # and 7 contribute 0.5 and 0.75.
        temps = flats_1d({"a": [3.0], "b": [5.0, 7.0]})
        got = separability_of(temps, identity_ctx(1)).sc
        assert got == pytest.approx((1.0 + 0.5 + 0.75) / 3.0, abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            flats = random_flats(rng, classes=int(rng.integers(2, 5)), dim=3)
            got = separability(*flats, identity_ctx(3)).sc
            assert -1.0 <= got <= 1.0


class TestFisherRatio:
    def test_fixture_value(self):
        got = separability_of(flats_1d(FIXTURE), identity_ctx(1)).fdr
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_translation_invariant(self):
        shifted = flats_1d({"a": [100.0, 102.0], "b": [104.0, 106.0]})
        got = separability_of(shifted, identity_ctx(1)).fdr
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_zero_within_spread_degenerate(self):
        temps = flats_1d({"a": [1.0, 1.0], "b": [5.0, 5.0]})
        report = separability_of(temps, identity_ctx(1))
        assert report.warnings == ZERO_DISPERSION
        assert np.isinf(report.fdr)


class TestComputeSeparability:
    def test_fixture_report(self):
        report = separability_of(flats_1d(FIXTURE), identity_ctx(1))
        assert report.dbi == pytest.approx(0.5, abs=1e-12)
        assert report.di == pytest.approx(4.0, abs=1e-12)
        assert report.sc == pytest.approx(11.0 / 15.0, abs=1e-12)
        assert report.fdr == pytest.approx(2.0, abs=1e-12)
        assert report.per_class_sigma == {"a": 1.0, "b": 1.0}
        assert report.class_centroids["a"].tolist() == [1.0]
        assert report.class_centroids["b"].tolist() == [5.0]

    def test_json_dict_is_plain(self):
        report = separability_of(flats_1d(FIXTURE), identity_ctx(1))
        doc = report.to_json_dict()
        assert doc["class_centroids"] == {"a": [1.0], "b": [5.0]}
        assert set(doc) == {
            "dbi", "di", "sc", "fdr", "per_class_sigma", "class_centroids"
        }

    def test_context_metric_is_used(self):
        # Shrinking the first axis by half shrinks every distance here,
        # so dispersions halve while the ratio-valued scores hold still.
        temps = flats_nd(
            {"a": [[0.0, 0.0], [2.0, 0.0]], "b": [[4.0, 0.0], [6.0, 0.0]]}
        )
        ctx = MatchingContext(whitener=np.diag([0.5, 1.0]))
        report = separability_of(temps, ctx)
        assert report.per_class_sigma == {"a": 0.5, "b": 0.5}
        assert report.dbi == pytest.approx(0.5, abs=1e-12)
        assert report.di == pytest.approx(4.0, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        # Random populations under identity and random SPD contexts, with
        # class c00 cut to a single member every time.
        rng = np.random.default_rng(73)
        for trial in range(40):
            dim = int(rng.integers(1, 7))
            rows, labels = random_flats(
                rng, classes=int(rng.integers(2, 6)), dim=dim, members_high=8
            )
            keep = [n for n, label in enumerate(labels) if label != "c00"] + [0]
            rows, labels = rows[keep], [labels[n] for n in keep]
            if trial % 2:
                ctx, m = identity_ctx(dim), np.eye(dim)
            else:
                ctx, m = random_spd_ctx(rng, dim)
            got = separability(rows, labels, ctx)
            want = brute_separability(records(rows, labels), m)
            whitened = ctx.whiten(rows)
            for name in ("dbi", "di", "sc", "fdr"):
                assert getattr(got, name) == pytest.approx(want[name], rel=1e-9)
            assert got.per_class_sigma.keys() == want["per_class_sigma"].keys()
            for lab, sigma in want["per_class_sigma"].items():
                assert got.per_class_sigma[lab] == pytest.approx(sigma, rel=1e-9)
            assert got.per_class_sigma["c00"] == 0.0
            # The centroids are the class means of the rows passed: here,
            # the whitened rows.
            assert got.class_centroids.keys() == want["class_centroids"].keys()
            for lab, centroid in got.class_centroids.items():
                mean = whitened[np.array(labels) == lab].mean(axis=0)
                assert centroid.tobytes() == mean.tobytes()

    def test_separation_ordering(self):
        near = separability_of(flats_1d(FIXTURE), identity_ctx(1))
        far = separability_of(
            flats_1d({"a": [0.0, 2.0], "b": [40.0, 42.0]}), identity_ctx(1)
        )
        assert far.dbi < near.dbi
        assert far.di > near.di
        assert far.sc > near.sc
        assert far.fdr > near.fdr

    def test_invariant_under_feature_recombination(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            flats = random_flats(rng, classes=3, dim=5, members_low=4, members_high=8)
            base = learn_mmc(*flats)
            k = base.feature_dim
            mix = rng.normal(size=(k, k)) + np.eye(k)
            mixed = type(base)(
                method=base.method, phi=base.phi @ mix, delta=base.delta
            )
            reports = []
            for t in (base, mixed):
                temps = template_matrix(t, flats[0])
                ctx = context_of_rows(temps, flats[1])
                reports.append(separability(temps, flats[1], ctx))
            a, b = reports
            for name in ("dbi", "di", "sc", "fdr"):
                x, y = getattr(a, name), getattr(b, name)
                assert abs(x - y) <= 1e-6 * max(abs(x), abs(y), 1.0)

    def test_report_bounds_enforced(self):
        with pytest.raises(ContractError):
            SeparabilityReport(
                dbi=0.5, di=1.0, sc=1.5, fdr=1.0,
                per_class_sigma={}, class_centroids={},
            )
        with pytest.raises(ContractError):
            SeparabilityReport(
                dbi=-0.5, di=1.0, sc=0.0, fdr=1.0,
                per_class_sigma={}, class_centroids={},
            )

    def test_input_validation(self):
        with pytest.raises(ContractError):
            separability(np.empty((0, 1)), [], identity_ctx(1))
        with pytest.raises(ContractError):
            separability_of(
                flats_1d({"a": [0.0, 1.0]}), identity_ctx(1)
            )
        rows, labels = flats_1d(FIXTURE)
        dist = pairwise_distances(rows)
        with pytest.raises(ContractError, match="3 labels for 4 templates"):
            separability_of_rows(rows, labels[:3], dist)
        with pytest.raises(ContractError, match=r"a \(4, 4\) dist"):
            separability_of_rows(rows, labels, dist[:, :3])


# One report of 400 overlapping rows in 20 classes, written as JSON; a
# BLAS product in the silhouette's per-class sums gives other bits at 2
# threads than at 1 on these rows.
THREADED_REPORT = """
import json, sys
import numpy as np
from marginforge import pairwise_distances, separability_of_rows
rng = np.random.default_rng(2)
codes = rng.permutation(np.arange(400) % 20)
rows = rng.normal(size=(20, 12))[codes] + rng.normal(size=(400, 12))
labels = [f"c{c:02d}" for c in codes]
report = separability_of_rows(rows, labels, pairwise_distances(rows))
sys.stdout.write(json.dumps(report.to_json_dict()))
"""

# The identity route's report on a generated set, at the eval-wide shape
# (N = 300, D = 600) and at a paper-shaped width (N = 80, D = 1860). Raw
# rows are matched as they are, so no SVD or BLAS product moves a bit; an
# SVD of the learning fold on this route gives other bits at 2 threads
# than at 1 on the second set.
THREADED_IDENTITY_REPORT = """
import os, sys, tempfile
from marginforge.cli import main
with tempfile.TemporaryDirectory() as tmp:
    data, out = os.path.join(tmp, "set.csv"), os.path.join(tmp, "r.json")
    assert main(["gen", *sys.argv[1:], "--output", data]) == 0
    assert main(["evaluate", "--input", data, "--output", out, "--method",
                 "identity", "--pair-policy", "class-best"]) == 0
    with open(out, "rb") as f:
        sys.stdout.buffer.write(f.read())
"""
GEN_FLAGS = ("--classes", "--per-class", "--joints", "--frames", "--seed")


@pytest.mark.parametrize(
    "script, args",
    [
        (THREADED_REPORT, ()),
        (THREADED_IDENTITY_REPORT, (10, 30, 10, 20, 1)),
        (THREADED_IDENTITY_REPORT, (10, 8, 31, 20, 3)),
    ],
    ids=["separability", "evaluate-identity", "evaluate-identity-d1860"],
)
def test_report_bytes_do_not_depend_on_blas_threads(script, args):
    src = os.path.dirname(os.path.dirname(marginforge.__file__))
    argv = [str(a) for pair in zip(GEN_FLAGS, args) for a in pair]
    reports = [
        subprocess.run(
            [sys.executable, "-c", script, *argv],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, check=True, timeout=120,
        ).stdout
        for threads in ("1", "2")
    ]
    assert reports[0]
    assert reports[0] == reports[1]
