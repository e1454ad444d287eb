"""Centering, alignment, resampling, cycle length, DTW filtering."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from conftest import (
    DTW_GAP_THRESHOLD,
    dtw_bytes,
    swinging_cycles,
    traced_peak,
    walking_sample,
)
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
from marginforge.dataset import MAX_COORDINATE
from marginforge.errors import AlignmentError, ContractError, SchemaError
from marginforge.preprocess import (
    _dtw_table,
    _local_costs,
    _lower_bounds,
    _path_costs,
)
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

    def test_a_slope_past_the_float_range_is_refused(self):
        # Each finite step between frames would span 3.4e308, where np.interp
        # leaves the points between them non-finite without a floating-point
        # flag; the cycle is refused when it is made. At the bound the same
        # shape resamples to finite frames within it.
        with pytest.raises(SchemaError, match=(
            r"^sample 's0': coordinate magnitude 1\.7e\+308 is past the limit "
            r"3\.12e\+144$"
        )):
            scalar_sequence([1.7e308, -1.7e308, 1.7e308])
        steep = scalar_sequence([MAX_COORDINATE, -MAX_COORDINATE, MAX_COORDINATE])
        out = resample_time(steep, 4).frames[:, 0, 0]
        third = np.array([3.0, -1.0, -1.0, 3.0]) * MAX_COORDINATE / 3
        assert np.allclose(out, third, rtol=1e-15, atol=0)


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
        # so it enters no bound, table or sweep; only the other candidates
        # pay for DTW work, and each of them is decided.
        calls = spy_on_dtw_steps(monkeypatch)
        exemplar = scalar_sequence([0.0, 0.0], sample_id="e")
        candidates = [
            scalar_sequence([0.0, d], sample_id=f"s{i}")
            for i, d in enumerate([0.4, 0.9])
        ]
        kept = filter_gait_cycles(
            [candidates[0], exemplar, candidates[1]], exemplar, 0.0
        )
        assert [s.sample_id for s in kept] == ["e"]
        # U (0.4 and 0.9) leaves both open; B (the same) drops both.
        assert [call for call in calls if call[0] != "_local_costs"] == [
            ("_path_costs", ["s0"]),
            ("_path_costs", ["s1"]),
            ("_dtw_table", ["s0", "s1"]),
            ("_lower_bounds", ["s0", "s1"]),
        ]


def spy_on_dtw_steps(monkeypatch) -> list:
    """Record every bound, table and sweep entry of the DTW filter as
    (name, ids of the cycles it works on), and every _local_costs call as
    ("_local_costs", None)."""
    import marginforge.preprocess as preprocess

    calls = []

    def wrap(name, cycles_of):
        inner = getattr(preprocess, name)

        def spy(*args):
            calls.append((name, cycles_of(*args)))
            return inner(*args)

        monkeypatch.setattr(preprocess, name, spy)

    wrap("_path_costs", lambda candidate, exemplar: [candidate.sample_id])
    wrap("_dtw_table", lambda candidates, exemplar: [c.sample_id for c in candidates])
    wrap("_lower_bounds", lambda table, candidates: [c.sample_id for c in candidates])
    wrap("_sweep", lambda acc, m, candidates: [c.sample_id for c in candidates])
    wrap("_local_costs", lambda coords, exemplar: None)
    return calls


def upper_bound(candidate, exemplar_poses) -> float:
    """U: the chained local costs of the candidate's linear warping path."""
    return np.add.accumulate(_path_costs(candidate, exemplar_poses))[-1]


def random_cycles(seed, lengths, m, joints, integral) -> tuple:
    """Candidates of the given frame counts and an m-frame exemplar "e".
    Coordinate scales from 1e-3 to 1e3 make the order of each sum show in
    the last bits; integral coordinates make equal costs and ties common."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4, size=(joints, 3))
    frames = [rng.normal(size=(n, joints, 3)) * scale for n in (*lengths, m)]
    if integral:
        frames = [np.round(f) for f in frames]
    *candidates, exemplar = [sample(f, sample_id=f"s{i}") for i, f in enumerate(frames)]
    return candidates, sample(exemplar.frames, sample_id="e")


# Mixed lengths from a pool of at most three; 3J >= 9 coordinates.
CYCLE_SETS = dict(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(2, 40), min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)
    ),
    m=st.integers(2, 40),
    joints=st.integers(3, 5),
    integral=st.booleans(),
)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(**CYCLE_SETS)
@example(seed=0, lengths=[2, 2], m=2, joints=3, integral=True)
@example(seed=1, lengths=[40, 2, 40, 17, 2, 40], m=40, joints=5, integral=False)
@example(seed=2, lengths=[2, 40], m=3, joints=3, integral=False)
def test_bounds_hold_bit_for_bit(seed, lengths, m, joints, integral):
    candidates, exemplar = random_cycles(seed, lengths, m, joints, integral)
    pb = exemplar.frames.reshape(m, -1)
    table = _dtw_table(candidates, pb)
    lower = _lower_bounds(table, candidates)
    distances = dtw_distances(candidates, exemplar)
    for p, c in enumerate(candidates):
        n = c.frame_count
        k = np.arange(max(n, m))
        i, j = k * (n - 1) // k[-1], k * (m - 1) // k[-1]
        assert (i[-1], j[-1]) == (n - 1, m - 1)
        assert set(zip(np.diff(i).tolist(), np.diff(j).tolist())) <= {
            (1, 0), (0, 1), (1, 1)
        }
        costs = _path_costs(c, pb)
        assert costs.tobytes() == table[i + 1, j + 1, p].tobytes()
        assert lower[p] <= distances[p] <= upper_bound(c, pb)
        # Padded rows enter no minimum: B is what the cycle's own table gives.
        assert lower[p] == _lower_bounds(_dtw_table([c], pb), [c])[0]


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(**CYCLE_SETS)
@example(seed=0, lengths=[2, 2], m=2, joints=3, integral=True)
@example(seed=3, lengths=[9, 30, 9], m=20, joints=4, integral=True)
def test_filter_keeps_exactly_what_the_distances_keep(
    seed, lengths, m, joints, integral
):
    candidates, exemplar = random_cycles(seed, lengths, m, joints, integral)
    # A copy of the exemplar is at distance 0, where every bound ties.
    candidates.append(sample(exemplar.frames.copy(), sample_id="twin"))
    distances = dtw_distances(candidates, exemplar)
    thresholds = {0.0, np.inf}
    for d in distances:
        thresholds |= {d, np.nextafter(d, -np.inf), np.nextafter(d, np.inf)}
    for threshold in sorted(t for t in thresholds if t >= 0):
        kept = filter_gait_cycles(candidates, exemplar, threshold)
        assert list(kept) == [
            c for c, d in zip(candidates, distances) if d <= threshold
        ]


def test_cycles_whose_bounds_equal_their_distance_are_decided_at_the_last_bit():
    # The exemplar's frames lie far apart and each candidate is a jittered
    # copy of it, so the linear path (here the diagonal) is optimal, its row
    # and column minima lie on it, and B = DTW = U. Chained any other way,
    # B or U would miss the distance by an ulp for some of the candidates.
    rng = np.random.default_rng(26)
    steps = np.arange(30.0)[:, None, None] * np.array([10.0, 0.0, 0.0])
    exemplar = sample(steps + rng.normal(size=(30, 3, 3)), sample_id="e")
    candidates = [
        sample(
            exemplar.frames + rng.normal(0.0, 0.3, size=(30, 3, 3)),
            sample_id=f"s{i}",
        )
        for i in range(20)
    ]
    pb = exemplar.frames.reshape(30, -1)
    distances = dtw_distances(candidates, exemplar)
    lower = _lower_bounds(_dtw_table(candidates, pb), candidates)
    upper = [upper_bound(c, pb) for c in candidates]
    assert lower.tolist() == distances.tolist() == upper
    for d in distances:
        for threshold in (np.nextafter(d, -np.inf), d, np.nextafter(d, np.inf)):
            kept = filter_gait_cycles(candidates, exemplar, threshold)
            assert list(kept) == [
                c for c, e in zip(candidates, distances) if e <= threshold
            ]


class TestFilterRoutes:
    @pytest.mark.parametrize(
        "frames", [(80, 120), (100, 100)], ids=["raw", "resampled"]
    )
    def test_a_bench_shaped_set_reaches_no_sweep(self, monkeypatch, frames):
        calls = spy_on_dtw_steps(monkeypatch)
        rng = np.random.default_rng(23)
        labels = ("id0", "id1", "id2")
        for label in labels:
            cycles = swinging_cycles(rng, 10, frames, label=label)
            kept = filter_gait_cycles(cycles, cycles[0], DTW_GAP_THRESHOLD)
            assert kept == tuple(c for c in cycles if c is not cycles[1])
        # U keeps every inlier; only the outliers reach a table, where B
        # drops them.
        assert [ids for name, ids in calls if name == "_dtw_table"] == [
            [f"{label}c1"] for label in labels
        ]
        assert "_sweep" not in [name for name, _ in calls]

    def test_open_cycles_are_swept_once_on_their_bound_table(self, monkeypatch):
        calls = spy_on_dtw_steps(monkeypatch)
        rng = np.random.default_rng(24)
        for label in ("id0", "id1", "id2"):
            cycles = swinging_cycles(rng, 10, (80, 120), label=label)
            exemplar, others = cycles[0], cycles[1:]
            distances = dtw_distances(others, exemplar)
            threshold = float(np.median(distances))
            pb = exemplar.frames.reshape(exemplar.frame_count, -1)
            lower = _lower_bounds(_dtw_table(others, pb), others)
            left_open = [
                c.sample_id
                for c, b in zip(others, lower)
                if b <= threshold < upper_bound(c, pb)
            ]
            assert left_open  # a threshold between B and U for some cycle
            calls.clear()
            kept = filter_gait_cycles(cycles, exemplar, threshold)
            assert kept == (
                exemplar, *(c for c, d in zip(others, distances) if d <= threshold)
            )
            assert [name for name, _ in calls].count("_local_costs") == 1
            assert [ids for name, ids in calls if name == "_sweep"] == [left_open]

    @pytest.mark.parametrize("threshold", [0.0, "median", DTW_GAP_THRESHOLD])
    def test_filter_holds_the_table_of_the_cycles_u_left_open(self, threshold):
        rng = np.random.default_rng(25)
        cycles = swinging_cycles(rng, 10, (80, 120))
        exemplar, others = cycles[0], cycles[1:]
        if threshold == "median":
            threshold = float(np.median(dtw_distances(others, exemplar)))
        pb = exemplar.frames.reshape(exemplar.frame_count, -1)
        left_open = [
            c.frame_count for c in others if upper_bound(c, pb) > threshold
        ]
        peak = traced_peak(lambda: filter_gait_cycles(cycles, exemplar, threshold))
        assert peak <= dtw_bytes(left_open, exemplar.frame_count, 5) + DTW_SLACK

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_joint_count_mismatch_anywhere_raises_before_any_bound(
        self, monkeypatch, position
    ):
        calls = spy_on_dtw_steps(monkeypatch)
        exemplar = sample(np.zeros((3, 1, 3)), sample_id="e")
        candidates = [
            sample(np.ones((t, 1, 3)), sample_id=f"s{t}") for t in (2, 3, 4)
        ]
        candidates[position] = sample(np.zeros((3, 2, 3)), sample_id="bad")
        with pytest.raises(ContractError, match="joint counts differ: 2 vs 1"):
            filter_gait_cycles([exemplar, *candidates], exemplar, 1.0)
        assert calls == []

    @pytest.mark.parametrize("threshold", [0.0, 1e250, np.inf])
    def test_costs_past_the_float_range_raise_before_any_bound(
        self, monkeypatch, threshold
    ):
        # Pose differences past about 1e154 square past the float64
        # maximum, whichever bound would settle the cycle: the cycle is
        # refused when it is made. At the bound every cost is finite, and
        # the DTW distance is the bound itself.
        calls = spy_on_dtw_steps(monkeypatch)
        exemplar = scalar_sequence([0.0, 1.0], sample_id="e")
        with pytest.raises(SchemaError, match=(
            r"^sample 'far': coordinate magnitude 1e\+200 is past the limit "
            r"3\.12e\+144$"
        )):
            scalar_sequence([0.0, -1e200], sample_id="far")
        assert calls == []
        far = scalar_sequence([0.0, -MAX_COORDINATE], sample_id="far")
        assert dtw_distances([far], exemplar).tolist() == [MAX_COORDINATE]
        kept = filter_gait_cycles([exemplar, far], exemplar, threshold)
        assert kept == ((exemplar, far) if threshold >= MAX_COORDINATE else (exemplar,))
