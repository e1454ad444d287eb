"""Centering, alignment, resampling, cycle length, DTW filtering."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from conftest import dtw_bytes, traced_peak, walking_sample
from marginforge import (
    GaitSample,
    align_walk_direction,
    average_length,
    center_on_root,
    dtw_distance,
    dtw_distances,
    filter_gait_cycles,
    resample_time,
)
from marginforge.errors import AlignmentError, ContractError
from marginforge.preprocess import _local_costs
from oracles import exhaustive_dtw, rowwise_dtw


def sample(frames, label="a", sample_id="s0"):
    return GaitSample(frames=np.asarray(frames, dtype=float), label=label, sample_id=sample_id)


def scalar_sequence(values, sample_id="s0"):
    """1-joint sample whose x coordinate follows `values`, y = z = 0."""
    frames = np.zeros((len(values), 1, 3))
    frames[:, 0, 0] = values
    return sample(frames, sample_id=sample_id)


class TestCenterOnRoot:
    def test_translates_against_root(self):
        frames = [[[1, 2, 3], [1, 3, 3]], [[1, 2, 3], [1, 3, 3]]]
        out = center_on_root(sample(frames), 0)
        assert out.frames[0, 0].tolist() == [0, 0, 0]
        assert out.frames[0, 1].tolist() == [0, 1, 0]

    def test_per_frame_independent(self):
        frames = [[[1, 0, 0], [2, 0, 0]], [[5, 5, 5], [7, 5, 5]]]
        out = center_on_root(sample(frames), 0)
        assert np.array_equal(out.frames[:, 0, :], np.zeros((2, 3)))
        assert out.frames[0, 1].tolist() == [1, 0, 0]
        assert out.frames[1, 1].tolist() == [2, 0, 0]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        s = sample(rng.normal(size=(4, 3, 3)))
        once = center_on_root(s, 1)
        twice = center_on_root(once, 1)
        assert np.array_equal(once.frames, twice.frames)

    def test_root_out_of_range(self):
        with pytest.raises(ContractError):
            center_on_root(sample(np.zeros((2, 2, 3))), 2)


class TestAlignWalkDirection:
    def test_already_front_facing_is_identity(self):
        s = walking_sample(heading=np.array([0.0, 0.0, 2.0]))
        out = align_walk_direction(s, 0, "y")
        assert np.max(np.abs(out.frames - s.frames)) < 1e-12

    def test_plus_x_walker_rotates_to_plus_z(self):
        # Root walks 0 -> (2, 0, 0); rotating about y by 90 degrees sends
        # +x to +z, so a displacement (2, 0, 0) must become (0, 0, 2) and
        # a point at (x, y, z) lands on (-z, y, x).
        frames = np.zeros((2, 2, 3))
        frames[1, 0] = [2.0, 0.0, 0.0]
        frames[:, 1] = [1.0, 5.0, 3.0]
        out = align_walk_direction(sample(frames), 0, "y")
        d = out.frames[1, 0] - out.frames[0, 0]
        assert np.allclose(d, [0, 0, 2], atol=1e-12)
        assert np.allclose(out.frames[0, 1], [-3.0, 5.0, 1.0], atol=1e-12)

    def test_stationary_root_is_an_error(self):
        frames = np.zeros((3, 2, 3))
        frames[:, 1] = [1.0, 1.0, 1.0]
        with pytest.raises(AlignmentError):
            align_walk_direction(sample(frames), 0, "y")

    def test_vertical_only_motion_is_an_error(self):
        # Displacement purely along the up axis has no horizontal part.
        frames = np.zeros((2, 1, 3))
        frames[1, 0] = [0.0, 3.0, 0.0]
        with pytest.raises(AlignmentError):
            align_walk_direction(sample(frames), 0, "y")

    def test_rigid_rotation_preserves_inter_joint_distances(self):
        rng = np.random.default_rng(21)
        for k in range(25):
            s = walking_sample(
                heading=rng.normal(size=3) * 3.0,
                frames=4,
                joints=3,
                sample_id=f"w{k}",
                rng=rng,
            )
            try:
                out = align_walk_direction(s, 0, "y")
            except AlignmentError:
                continue  # a nearly vertical heading draw; not this test's target
            for t in range(s.frame_count):
                before = np.linalg.norm(
                    s.frames[t][:, None, :] - s.frames[t][None, :, :], axis=2
                )
                after = np.linalg.norm(
                    out.frames[t][:, None, :] - out.frames[t][None, :, :], axis=2
                )
                scale = np.maximum(before, 1.0)
                assert np.max(np.abs(after - before) / scale) < 1e-9

    def test_up_axis_choices_all_resolve(self):
        s = walking_sample(heading=np.array([1.0, 1.0, 1.0]))
        for axis in ("x", "y", "z"):
            out = align_walk_direction(s, 0, axis)
            assert out.frames.shape == s.frames.shape


class TestResampleTime:
    def test_same_length_is_identity(self):
        rng = np.random.default_rng(1)
        s = sample(rng.normal(size=(5, 2, 3)))
        out = resample_time(s, 5)
        assert np.array_equal(out.frames, s.frames)

    def test_linear_midpoint(self):
        s = scalar_sequence([0.0, 2.0])
        out = resample_time(s, 3)
        assert out.frames[:, 0, 0].tolist() == [0.0, 1.0, 2.0]

    def test_endpoints_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            t_raw = int(rng.integers(2, 9))
            t_new = int(rng.integers(2, 9))
            s = sample(rng.normal(size=(t_raw, 2, 3)))
            out = resample_time(s, t_new)
            assert np.array_equal(out.frames[0], s.frames[0])
            assert np.array_equal(out.frames[-1], s.frames[-1])

    def test_constant_signal_exact(self):
        s = sample(np.full((4, 2, 3), 2.5))
        out = resample_time(s, 7)
        assert np.array_equal(out.frames, np.full((7, 2, 3), 2.5))

    def test_too_short_target(self):
        with pytest.raises(ContractError):
            resample_time(scalar_sequence([0.0, 1.0]), 1)


class TestAverageLength:
    def test_constant(self):
        samples = [scalar_sequence([0] * 10, sample_id=f"s{i}") for i in range(3)]
        assert average_length(samples) == 10

    def test_round_half_up(self):
        samples = [
            scalar_sequence([0] * 9, sample_id="s0"),
            scalar_sequence([0] * 10, sample_id="s1"),
        ]
        assert average_length(samples) == 10

    def test_lower_bound(self):
        samples = [scalar_sequence([0, 0], sample_id=f"s{i}") for i in range(2)]
        assert average_length(samples) == 2

    def test_empty(self):
        with pytest.raises(ContractError):
            average_length([])


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 60),
    cols=st.integers(1, 60),
    coords=st.integers(1, 93),
    integral=st.booleans(),
)
@example(seed=0, rows=1, cols=1, coords=1, integral=False)
@example(seed=1, rows=60, cols=60, coords=93, integral=False)
@example(seed=2, rows=60, cols=1, coords=93, integral=True)
def test_local_costs_equal_cdist_exactly(seed, rows, cols, coords, integral):
    # Coordinate scales from 1e-3 to 1e3 make the order of the sum show in
    # the last bits; integral coordinates make equal costs and zero
    # differences common; signed zeros must cost what plain zeros do.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, size=coords)
    a = rng.normal(size=(rows, coords)) * scale
    b = rng.normal(size=(cols, coords)) * scale
    if integral:
        a, b = np.round(a), np.round(b)
    a[rng.random(a.shape) < 0.1] = -0.0
    b[rng.random(b.shape) < 0.1] = -0.0
    # a is one candidate and b the exemplar, laid out as dtw_distances
    # lays them out. A one-frame a is zero-padded, as a shorter candidate
    # is, to the 2 frames every cycle has: with one cell per exemplar
    # frame numpy would sum the coordinates pairwise (see _local_costs).
    stack = np.zeros((coords, max(rows, 2), 1))
    stack[:, :rows, 0] = a.T
    got = _local_costs(stack, b)[1 : rows + 1, 1:, 0]
    assert got.shape == (rows, cols)
    assert got.tobytes() == cdist(a, b).tobytes()


class TestDtwDistance:
    def test_identical_sequences(self):
        s = scalar_sequence([0.5, 1.5, -2.0])
        assert dtw_distance(s, s) == 0.0

    def test_repeated_frame_alignment(self):
        a = scalar_sequence([0.0, 0.0])
        b = scalar_sequence([0.0, 0.0, 0.0])
        assert dtw_distance(a, b) == 0.0

    def test_three_against_two(self):
        a = scalar_sequence([0.0, 1.0, 2.0])
        b = scalar_sequence([0.0, 2.0])
        assert dtw_distance(a, b) == 1.0

    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            a = scalar_sequence(rng.normal(size=int(rng.integers(2, 6))))
            b = scalar_sequence(rng.normal(size=int(rng.integers(2, 6))))
            dab = dtw_distance(a, b)
            assert dab >= 0.0
            assert dab == dtw_distance(b, a)

    def test_matches_exhaustive_path_enumeration(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            ta, tb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            fa = rng.normal(size=(ta, 2, 3))
            fb = rng.normal(size=(tb, 2, 3))
            a, b = sample(fa, sample_id="a"), sample(fb, sample_id="b")
            expected = exhaustive_dtw(
                [tuple(f.reshape(-1)) for f in fa],
                [tuple(f.reshape(-1)) for f in fb],
            )
            assert abs(dtw_distance(a, b) - expected) < 1e-12

    def test_dimensionality_mismatch(self):
        a = sample(np.zeros((2, 1, 3)))
        b = sample(np.zeros((2, 2, 3)))
        with pytest.raises(ContractError):
            dtw_distance(a, b)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    m=st.integers(2, 40),
    joints=st.integers(1, 4),
    integral=st.booleans(),
)
@example(seed=0, n=2, m=2, joints=1, integral=False)
@example(seed=1, n=2, m=40, joints=4, integral=False)
@example(seed=2, n=40, m=2, joints=2, integral=True)
def test_dtw_equals_the_rowwise_recurrence_exactly(seed, n, m, joints, integral):
    # Integral coordinates make equal local costs and tied neighbours common.
    rng = np.random.default_rng(seed)
    fa = rng.normal(size=(n, joints, 3))
    fb = rng.normal(size=(m, joints, 3))
    if integral:
        fa, fb = np.round(2 * fa), np.round(2 * fb)
    a, b = sample(fa, sample_id="a"), sample(fb, sample_id="b")
    expected = rowwise_dtw(cdist(fa.reshape(n, -1), fb.reshape(m, -1)))
    assert dtw_distance(a, b) == expected


class TestDtwDistances:
    def test_no_candidates(self):
        exemplar = scalar_sequence([0.0, 1.0], sample_id="e")
        got = dtw_distances([], exemplar)
        assert isinstance(got, np.ndarray)
        assert got.shape == (0,)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_joint_count_mismatch_anywhere(self, position):
        exemplar = sample(np.zeros((3, 1, 3)), sample_id="e")
        candidates = [
            sample(np.zeros((t, 1, 3)), sample_id=f"s{t}") for t in (2, 3, 4)
        ]
        candidates[position] = sample(np.zeros((3, 2, 3)), sample_id="bad")
        with pytest.raises(ContractError, match="joint counts differ: 2 vs 1"):
            dtw_distances(candidates, exemplar)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    # Lengths come from a pool of at most three, so candidates often share
    # one length and often do not.
    lengths=st.lists(st.integers(2, 40), min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)
    ),
    m=st.integers(2, 40),
    joints=st.integers(1, 4),
    integral=st.booleans(),
)
@example(seed=0, lengths=[2, 2], m=2, joints=1, integral=True)
@example(seed=1, lengths=[40, 2, 40, 17, 2, 40], m=40, joints=4, integral=False)
@example(seed=2, lengths=[2, 40], m=2, joints=1, integral=True)
def test_dtw_distances_equal_the_rowwise_recurrence_exactly(
    seed, lengths, m, joints, integral
):
    # Integral coordinates make equal local costs and tied neighbours common.
    rng = np.random.default_rng(seed)
    frames = [rng.normal(size=(n, joints, 3)) for n in lengths]
    fe = rng.normal(size=(m, joints, 3))
    if integral:
        frames, fe = [np.round(2 * f) for f in frames], np.round(2 * fe)
    candidates = [sample(f, sample_id=f"s{i}") for i, f in enumerate(frames)]
    got = dtw_distances(candidates, sample(fe, sample_id="e"))
    expected = [
        rowwise_dtw(cdist(f.reshape(len(f), -1), fe.reshape(m, -1))) for f in frames
    ]
    assert got.tolist() == expected


# numpy's ufunc buffers: 8192 float64 elements. The worst case measured
# over the shapes below was 59 544 bytes beyond the table and two blocks.
DTW_SLACK = 64 * 1024


@pytest.mark.parametrize(
    "lengths, m, joints",
    [
        ([80, 120, 95, 101, 88, 117, 80, 99, 110, 92], 100, 5),
        ([40, 60, 55], 120, 5),
        ([200], 200, 2),
    ],
    ids=["mixed", "short-candidates", "one-candidate"],
)
def test_dtw_distances_hold_one_table_and_two_candidate_blocks(lengths, m, joints):
    rng = np.random.default_rng(len(lengths))
    candidates = [
        sample(rng.normal(size=(t, joints, 3)), sample_id=f"s{i}")
        for i, t in enumerate(lengths)
    ]
    exemplar = sample(rng.normal(size=(m, joints, 3)), sample_id="e")
    peak = traced_peak(lambda: dtw_distances(candidates, exemplar))
    assert peak <= dtw_bytes(lengths, m, joints) + DTW_SLACK


class TestFilterGaitCycles:
    def test_infinite_threshold_keeps_all(self):
        rng = np.random.default_rng(10)
        candidates = [
            scalar_sequence(rng.normal(size=4), sample_id=f"s{i}") for i in range(5)
        ]
        kept = filter_gait_cycles(candidates, candidates[0], np.inf)
        assert list(kept) == candidates

    def test_zero_threshold_keeps_exact_duplicates(self):
        exemplar = scalar_sequence([0.0, 1.0], sample_id="e")
        twin = scalar_sequence([0.0, 1.0], sample_id="t")
        far = scalar_sequence([5.0, 6.0], sample_id="f")
        kept = filter_gait_cycles([exemplar, far, twin], exemplar, 0.0)
        assert [s.sample_id for s in kept] == ["e", "t"]

    def test_derived_distances_split_at_threshold(self):
        # Two-frame scalar cycles [0, d] against exemplar [0, 0]: every
        # warping path must pay at least |d| at the last frame, so the
        # DTW distance is exactly d. Verified through dtw_distance itself.
        exemplar = scalar_sequence([0.0, 0.0], sample_id="e")
        candidates = [
            scalar_sequence([0.0, d], sample_id=f"s{i}")
            for i, d in enumerate([0.1, 0.5, 0.9])
        ]
        got = [dtw_distance(c, exemplar) for c in candidates]
        assert np.allclose(got, [0.1, 0.5, 0.9], atol=1e-12)
        kept = filter_gait_cycles(candidates, exemplar, 0.5)
        assert [s.sample_id for s in kept] == ["s0", "s1"]

    def test_order_preserved(self):
        exemplar = scalar_sequence([0.0, 0.0], sample_id="e")
        candidates = [
            scalar_sequence([0.0, d], sample_id=f"s{i}")
            for i, d in enumerate([0.4, 0.9, 0.2, 0.3])
        ]
        kept = filter_gait_cycles(candidates, exemplar, 0.45)
        assert [s.sample_id for s in kept] == ["s0", "s2", "s3"]

    def test_exemplar_is_kept_without_a_dtw_run(self, monkeypatch):
        # The exemplar's distance to itself is 0, within every threshold,
        # so only the other candidates pay for the dynamic program.
        import marginforge.preprocess as preprocess

        calls = []

        def counting(candidates, exemplar):
            calls.extend((c.sample_id, exemplar.sample_id) for c in candidates)
            return dtw_distances(candidates, exemplar)

        monkeypatch.setattr(preprocess, "dtw_distances", counting)
        exemplar = scalar_sequence([0.0, 0.0], sample_id="e")
        candidates = [
            scalar_sequence([0.0, d], sample_id=f"s{i}")
            for i, d in enumerate([0.4, 0.9])
        ]
        kept = filter_gait_cycles(
            [candidates[0], exemplar, candidates[1]], exemplar, 0.0
        )
        assert [s.sample_id for s in kept] == ["e"]
        assert calls == [("s0", "e"), ("s1", "e")]
