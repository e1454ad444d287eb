"""Rank and threshold curves over a score block."""

import numpy as np
import pytest

import oracles
from conftest import Pair, cmc_points, curve_points, score_block, sweep_of
from marginforge import CurveSeries
from marginforge.errors import ContractError, ValidationError
from marginforge.metrics_classification import cmc_fractions


def score_pairs(pairs):
    """Rows from (genuine_distances, impostor_distances)."""
    genuine, impostor = pairs
    out = [Pair(f"g{i}", "self", d, True) for i, d in enumerate(genuine)]
    out += [Pair(f"i{i}", "other", d, False) for i, d in enumerate(impostor)]
    return out


def random_pairs(rng, n_probes, n_labels):
    """A random but well-formed row set: every probe scores every
    identity exactly once, and every probe's identity is enrolled."""
    labels = [f"c{j}" for j in range(n_labels)]
    pairs = []
    for i in range(n_probes):
        own = labels[int(rng.integers(n_labels))]
        for lab in labels:
            # Coarse grid so exact ties actually happen.
            d = float(rng.integers(0, 6)) / 2.0
            pairs.append(Pair(f"p{i}", lab, d, lab == own))
    return pairs


class TestCmcCurve:
    def test_two_probe_fixture(self):
        # p1 ranks first (1 < 2); p2 ranks second (3 > 2).
        pairs = [
            Pair("p1", "a", 1.0, True),
            Pair("p1", "b", 2.0, False),
            Pair("p2", "a", 2.0, False),
            Pair("p2", "b", 3.0, True),
        ]
        assert cmc_points(pairs) == [(1.0, 0.5), (2.0, 1.0)]

    def test_best_distance_per_identity(self):
        # The second, closer row for identity a must drive the rank.
        pairs = [
            Pair("p1", "a", 5.0, True),
            Pair("p1", "a", 1.0, True),
            Pair("p1", "b", 2.0, False),
        ]
        assert cmc_fractions(score_block(pairs))[0][0] == 1.0

    def test_ties_rank_optimistically(self):
        pairs = [
            Pair("p1", "a", 2.0, True),
            Pair("p1", "b", 2.0, False),
        ]
        assert cmc_points(pairs)[0] == (1.0, 1.0)

    def test_unenrolled_probe_identity_warns(self):
        pairs = [
            Pair("p1", "a", 1.0, True),
            Pair("p1", "b", 2.0, False),
            Pair("p2", "a", 1.0, False),
            Pair("p2", "b", 2.0, False),
        ]
        _, findings = cmc_fractions(score_block(pairs))
        assert findings == (
            "RuntimeWarning: probe 'p2': its identity is not in the gallery; "
            "counted as never matched",
        )
        points = cmc_points(pairs)
        assert points[0] == (1.0, 0.5)
        assert points[-1] == (2.0, 0.5)

    def test_monotone_and_capped(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            pairs = random_pairs(
                rng, n_probes=int(rng.integers(2, 8)), n_labels=int(rng.integers(2, 5))
            )
            y, _ = cmc_fractions(score_block(pairs))
            assert np.all(np.diff(y) >= 0)
            assert 0.0 <= y[0] <= y[-1] <= 1.0

    def test_empty_records(self):
        with pytest.raises(ContractError):
            cmc_fractions(score_block([]))


class TestFarFrrCurves:
    def test_separable_scores_have_zero_eer(self):
        s = sweep_of(score_pairs(([1.0, 2.0], [3.0, 4.0])))
        assert s.eer() == 0.0
        points = curve_points(s.far, s.frr)
        assert points[0] == (0.0, 1.0)
        assert points[-1] == (1.0, 0.0)

    def test_identical_score_multisets_give_half(self):
        eer = sweep_of(score_pairs(([1.0, 2.0], [1.0, 2.0]))).eer()
        assert eer == pytest.approx(0.5, abs=1e-12)

    def test_interpolated_crossing(self):
        # FAR - FRR jumps from -1/3 at tau=2 to +2/3 at tau=2.5; the
        # interpolated zero sits a third of the way along FAR 0 -> 1.
        eer = sweep_of(score_pairs(([1.0, 2.0, 3.0], [2.5]))).eer()
        assert eer == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_requires_both_populations(self):
        with pytest.raises(ContractError):
            sweep_of(score_pairs(([1.0], []))).eer()
        with pytest.raises(ContractError):
            sweep_of(score_pairs(([], [1.0])))


class TestRocCurve:
    def test_perfect_separation(self):
        far, tar, auc = sweep_of(score_pairs(([1.0, 2.0], [3.0, 4.0]))).roc()
        assert auc == pytest.approx(1.0, abs=1e-12)
        assert (0.0, 1.0) in curve_points(far, tar)

    def test_identical_score_multisets(self):
        _, _, auc = sweep_of(score_pairs(([1.0, 2.0], [1.0, 2.0]))).roc()
        assert auc == pytest.approx(0.5, abs=1e-9)

    def test_single_genuine_below_all_impostors(self):
        _, _, auc = sweep_of(score_pairs(([1.0], [2.0, 3.0]))).roc()
        assert auc == pytest.approx(1.0, abs=1e-12)

    def test_x_strictly_increasing(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            genuine = rng.integers(0, 5, size=int(rng.integers(1, 6))) / 2.0
            impostor = rng.integers(0, 5, size=int(rng.integers(1, 6))) / 2.0
            pairs = score_pairs((genuine.tolist(), impostor.tolist()))
            far, _, auc = sweep_of(pairs).roc()
            assert np.all(np.diff(far) > 0)
            assert 0.0 <= auc <= 1.0


class TestRclPcnCurve:
    def test_fixture_map(self):
        # Points (0, 1), (0.5, 1), (1, 2/3): area 1/2 + 5/12 = 11/12.
        s = sweep_of(score_pairs(([1.0, 3.0], [2.0])))
        recall, precision, map_value = s.rcl_pcn()
        points = curve_points(recall, precision)
        assert points == [(0.0, 1.0), (0.5, 1.0), (1.0, 2.0 / 3.0)]
        assert map_value == pytest.approx(11.0 / 12.0, abs=1e-12)

    def test_impostor_free_records_are_legal(self):
        _, precision, map_value = sweep_of(score_pairs(([1.0, 2.0], []))).rcl_pcn()
        assert map_value == pytest.approx(1.0, abs=1e-12)
        assert all(p == 1.0 for p in precision)

    def test_requires_genuine(self):
        with pytest.raises(ContractError):
            sweep_of(score_pairs(([], [1.0]))).rcl_pcn()


class TestAgainstBruteForce:
    def test_small_record_sets_match_exactly(self):
        # Coarse random scores with deliberate ties: every curve and every
        # scalar has to equal the counting-loop reference, no tolerance.
        rng = np.random.default_rng(82)
        for _ in range(40):
            pairs = random_pairs(
                rng, n_probes=int(rng.integers(2, 6)), n_labels=int(rng.integers(2, 4))
            )
            s = sweep_of(pairs)
            assert curve_points(s.far, s.frr) == oracles.brute_far_frr_points(pairs)
            assert s.eer() == oracles.brute_eer(pairs)
            far, tar, auc = s.roc()
            assert curve_points(far, tar) == oracles.brute_roc_points(pairs)
            assert auc == pytest.approx(
                oracles.trapezoid_area(oracles.brute_roc_points(pairs)), abs=1e-15
            )
            recall, precision, map_value = s.rcl_pcn()
            rcl_pcn = curve_points(recall, precision)
            assert rcl_pcn == oracles.brute_rcl_pcn_points(pairs)
            assert map_value == pytest.approx(
                oracles.trapezoid_area(oracles.brute_rcl_pcn_points(pairs)),
                abs=1e-15,
            )
            assert cmc_points(pairs) == oracles.brute_cmc_points(pairs)

    def test_monotone_distance_transform_changes_nothing(self):
        # Rank and threshold metrics only see the ordering, so a strictly
        # increasing transform of the distances is invisible.
        rng = np.random.default_rng(83)
        for _ in range(15):
            pairs = random_pairs(rng, n_probes=4, n_labels=3)
            warped = [p._replace(distance=p.distance**3 + 2.0) for p in pairs]
            s0, s1 = sweep_of(pairs), sweep_of(warped)
            assert s0.eer() == s1.eer()
            assert s0.roc()[2] == s1.roc()[2]
            assert s0.rcl_pcn()[2] == s1.rcl_pcn()[2]
            assert cmc_points(pairs) == cmc_points(warped)


class TestValidation:
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_score_block_rejects_bad_values(self, bad):
        with pytest.raises(ContractError, match="distance must be finite and >= 0"):
            score_block([Pair("p", "a", 1.0, True), Pair("p", "b", bad, False)])

    def test_curve_series_validation(self):
        with pytest.raises(ValidationError):
            CurveSeries(kind="precision", points=((0.0, 1.0),))
        with pytest.raises(ContractError):
            CurveSeries(kind="roc", points=())
        with pytest.raises(ContractError):
            CurveSeries(kind="roc", points=((0.5, 0.5), (0.5, 0.7)))
        series = CurveSeries(kind="far_frr", points=((0.0, 1.0), (0.0, 0.5)))
        assert series.to_json_dict() == {
            "kind": "far_frr",
            "x": [0.0, 0.0],
            "y": [1.0, 0.5],
        }
