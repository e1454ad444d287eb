"""Pose normalization and gait-cycle selection.

Raw capture sequences vary in position, heading, duration, and quality.
The pipeline here brings them into a common frame: center on a root joint,
rotate the walk direction onto a canonical axis, resample every cycle to a
shared length, and drop outlier cycles by dynamic-time-warping distance to
an exemplar.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .dataset import GaitSample
from .errors import AlignmentError, ContractError, SchemaError, ValidationError

AXIS_INDEX = {"x": 0, "y": 1, "z": 2}

# Below this net horizontal displacement of the root joint the heading is
# numerically undefined and alignment refuses to guess.
MIN_DISPLACEMENT = 1e-12


def _check_root(sample: GaitSample, root_joint: int):
    if not 0 <= root_joint < sample.joint_count:
        raise ContractError(
            f"root joint {root_joint} out of range for {sample.joint_count} joints"
        )


@contextmanager
def _within_float_range(sample: GaitSample, step: str):
    """Refuse, with SchemaError naming the sample and the step, float
    arithmetic in the block that overflows float64: finite coordinates
    whose result numpy would leave as inf or nan, with a RuntimeWarning."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise SchemaError(
            f"sample {sample.sample_id!r}: {step} overflows the float64 range"
        ) from None


def center_on_root(sample: GaitSample, root_joint: int) -> GaitSample:
    """Translate each frame so the root joint sits at the origin. A
    coordinate whose offset from the root overflows float64 raises
    SchemaError."""
    _check_root(sample, root_joint)
    with _within_float_range(sample, f"centering on root joint {root_joint}"):
        frames = sample.frames - sample.frames[:, root_joint : root_joint + 1, :]
    return sample.with_frames(frames)


def align_walk_direction(
    sample: GaitSample, root_joint: int, up_axis: str = "y"
) -> GaitSample:
    """Rotate about the up axis so the walk heading lies along the front axis.

    The heading is the net horizontal displacement of the root joint between
    the first and last frame. With up_axis "y" the front axis is z, so a
    subject walking toward +x comes out walking toward +z. A sample whose
    root joint shows no net horizontal displacement has no defined heading
    and raises AlignmentError; one whose heading or rotated coordinates
    overflow float64 raises SchemaError.
    """
    _check_root(sample, root_joint)
    if up_axis not in AXIS_INDEX:
        raise ValidationError(f"unknown up axis {up_axis!r}")
    up = AXIS_INDEX[up_axis]
    front = (up + 1) % 3
    side = (up + 2) % 3

    with _within_float_range(sample, "the walk heading"):
        d = sample.frames[-1, root_joint] - sample.frames[0, root_joint]
        norm = float(np.hypot(d[side], d[front]))
    if norm < MIN_DISPLACEMENT:
        raise AlignmentError(
            f"sample {sample.sample_id!r}: zero net horizontal displacement, "
            "walk direction undefined"
        )
    cos_a = d[front] / norm
    sin_a = d[side] / norm

    frames = sample.frames.copy()
    s_old = sample.frames[:, :, side]
    f_old = sample.frames[:, :, front]
    with _within_float_range(sample, "the rotation onto the walk heading"):
        frames[:, :, side] = s_old * cos_a - f_old * sin_a
        frames[:, :, front] = s_old * sin_a + f_old * cos_a
    return sample.with_frames(frames)


def resample_time(sample: GaitSample, target_frames: int) -> GaitSample:
    """Linearly resample the cycle to target_frames frames.

    Each of the 3*J coordinate signals is interpolated independently over a
    normalized time axis; endpoints are preserved exactly. A sample already
    at the target length is returned unchanged. A frame-to-frame slope past
    the float64 range raises SchemaError.
    """
    if target_frames < 2:
        raise ContractError("target_frames must be >= 2")
    t_raw = sample.frame_count
    if t_raw == target_frames:
        return sample
    old_t = np.linspace(0.0, 1.0, t_raw)
    new_t = np.linspace(0.0, 1.0, target_frames)
    flat = sample.frames.reshape(t_raw, -1)
    out = np.empty((target_frames, flat.shape[1]))
    for k in range(flat.shape[1]):
        out[:, k] = np.interp(new_t, old_t, flat[:, k])
    # np.interp sets no floating-point flag, and its inputs are finite, so a
    # non-finite output is an overflow.
    if not np.isfinite(out).all():
        raise SchemaError(
            f"sample {sample.sample_id!r}: resampling to {target_frames} frames "
            "overflows the float64 range"
        )
    return sample.with_frames(out.reshape(target_frames, sample.joint_count, 3))


def average_length(samples: Sequence[GaitSample]) -> int:
    """Round-half-up mean frame count over samples, floored at 2."""
    if not samples:
        raise ContractError("average_length of an empty collection")
    mean = sum(s.frame_count for s in samples) / len(samples)
    return max(2, int(np.floor(mean + 0.5)))


def _poses(sample: GaitSample) -> np.ndarray:
    """The sample's frames as (T, 3J) pose rows."""
    return sample.frames.reshape(sample.frame_count, -1)


def _check_poses(candidates: Sequence[GaitSample], exemplar: GaitSample):
    """Refuse, before any DTW work, candidates whose poses cannot be scored
    against the exemplar's: other joint counts (ContractError), and a
    coordinate of any of them past the magnitude `limit` (SchemaError).
    Within `limit` a squared coordinate difference summed over a pose's 3J
    coordinates stays below half the float64 maximum, so no local cost,
    path sum or bound overflows.
    """
    for sample in candidates:
        if sample.joint_count != exemplar.joint_count:
            raise ContractError(
                f"joint counts differ: {sample.joint_count} vs {exemplar.joint_count}"
            )
    limit = np.sqrt(np.finfo(float).max / (6 * exemplar.joint_count)) / 2
    for sample in (exemplar, *candidates):
        magnitude = np.abs(sample.frames).max()
        if magnitude > limit:
            raise SchemaError(
                f"sample {sample.sample_id!r}: coordinate magnitude {magnitude:.3g} "
                f"is too large for DTW costs (limit {limit:.3g})"
            )


def _local_costs(coords: np.ndarray, exemplar: np.ndarray) -> np.ndarray:
    """The (n+1, m+1, P) DTW table of the (D, n, P) coordinate-major
    candidate stack against the (m, D) exemplar: 0 at the corner, inf on
    the rest of row and column 0, and the frames' Euclidean distances inside.

    Per exemplar frame, one workspace of the stack's size holds the squared
    differences, summed over the leading axis, so in coordinate order, as
    the Euclidean cdist loop sums them. That order rests on the coordinate
    axis being the C-ordered workspace's outermost axis, so that numpy adds
    one whole (n, P) slab at a time, and on n * P >= 2 (else numpy sums
    pairwise); entries are then bit-equal to cdist, which the tests keep as
    the oracle. The root comes last and keeps the boundary.
    """
    _, n, p = coords.shape
    table = np.full((n + 1, len(exemplar) + 1, p), np.inf)
    table[0, 0] = 0.0
    work = np.empty_like(coords)
    for j, pose in enumerate(exemplar, start=1):
        np.subtract(coords, pose[:, None, None], out=work)
        np.square(work, out=work)
        np.add.reduce(work, axis=0, out=table[1:, j])
    return np.sqrt(table, out=table)


def _dtw_table(candidates: Sequence[GaitSample], exemplar: np.ndarray) -> np.ndarray:
    """The _local_costs table of the candidates against the (m, D) exemplar
    poses, with the candidate axis innermost. Each candidate is padded to
    the longest with inf poses, so its rows past its own frames cost inf."""
    n = max((sample.frame_count for sample in candidates), default=2)
    coords = np.full((exemplar.shape[1], n, len(candidates)), np.inf)
    for p, c in enumerate(candidates):
        coords[:, : c.frame_count, p] = _poses(c).T
    return _local_costs(coords, exemplar)


def _sweep(acc: np.ndarray, m: int, candidates: Sequence[GaitSample]) -> np.ndarray:
    """Accumulate, in place, the flat ((n+1)(m+1), P) view `acc` of the
    candidates' _dtw_table columns, and return their DTW distances.

    Row r of acc is cell r of every table. Cell (i, j) needs only cells of
    the two anti-diagonals before its own, i + j = k, so each diagonal is
    filled in one step, adding to each cell's local cost. Along it the
    cells, and each of their up, left and diagonal neighbours, lie m rows
    apart (m >= 2, since every sample has at least 2 frames). Every cell
    gets the same sum as the row-by-row recurrence, so values are
    bit-equal. Cell (i, j) reads no row below i, so a candidate of t frames
    ends at cell (t, m), which never reads its padding, and the sweep stops
    at the longest candidate's last row.
    """
    n = max((sample.frame_count for sample in candidates), default=2)
    for k in range(2, n + m + 1):
        lo, hi = max(1, k - m), min(n, k - 1)
        s, e = lo * m + k, hi * m + k + 1
        best = np.minimum(acc[s - m - 1 : e - m - 1 : m], acc[s - 1 : e - 1 : m])
        np.minimum(best, acc[s - m - 2 : e - m - 2 : m], out=best)
        np.add(acc[s:e:m], best, out=acc[s:e:m])
    ends = [sample.frame_count * (m + 1) + m for sample in candidates]
    return acc[ends, np.arange(len(candidates))]


def dtw_distances(
    candidates: Sequence[GaitSample], exemplar: GaitSample
) -> np.ndarray:
    """Dynamic-time-warping distance of each candidate to the exemplar.

    Classic dynamic program with Euclidean local cost between whole poses
    (frames flattened to 3*J vectors), step set {(1,0), (0,1), (1,1)}, and
    full endpoint alignment. Returns the unnormalized accumulated costs in
    candidate order. It is two steps over one table: _dtw_table stacks the
    candidates, padded to the longest at any mix of frame counts, and holds
    their local costs; _sweep then accumulates them in place, one numpy
    step per anti-diagonal for all candidates at once. Besides the table
    the call holds two blocks of the candidates' size; it needs numpy alone.
    """
    _check_poses(candidates, exemplar)
    pb = _poses(exemplar)
    table = _dtw_table(candidates, pb)
    return _sweep(table.reshape(len(table) * (len(pb) + 1), -1), len(pb), candidates)


def dtw_distance(a: GaitSample, b: GaitSample) -> float:
    """Dynamic-time-warping distance between two cycles (see dtw_distances)."""
    return float(dtw_distances([a], b)[0])


def _path_costs(candidate: GaitSample, exemplar: np.ndarray) -> np.ndarray:
    """Local costs along the linear warping path of the candidate against
    the (m, D) exemplar poses: frames i_k = k(n-1)//(L-1) and
    j_k = k(m-1)//(L-1) for k < L = max(n, m), so each step is (1,0), (0,1)
    or (1,1). The loop adds the squared differences in coordinate order,
    as _local_costs does, so each cost is bit-equal to its table entry;
    np.sum along a pose row may add them pairwise, an ulp away.
    """
    n, m = candidate.frame_count, len(exemplar)
    k = np.arange(max(n, m))
    diff = _poses(candidate)[k * (n - 1) // k[-1]] - exemplar[k * (m - 1) // k[-1]]
    np.square(diff, out=diff)
    costs = diff[:, 0].copy()
    for column in diff.T[1:]:
        costs += column
    return np.sqrt(costs, out=costs)


def _lower_bounds(table: np.ndarray, candidates: Sequence[GaitSample]) -> np.ndarray:
    """Per candidate of a _dtw_table, the larger of the chained sums of its
    row minima and of its column minima: every warping path visits every
    row and every column. Padded rows cost inf, so they enter no minimum
    that a candidate's chain reads."""
    cells = table[1:, 1:]
    rows = np.add.accumulate(cells.min(axis=1), axis=0)
    columns = np.add.accumulate(cells.min(axis=0), axis=0)
    ends = [sample.frame_count - 1 for sample in candidates]
    return np.maximum(rows[ends, np.arange(len(candidates))], columns[-1])


def filter_gait_cycles(
    candidates: Sequence[GaitSample], exemplar: GaitSample, threshold: float
) -> tuple:
    """Keep candidates whose DTW distance to the exemplar is <= threshold.

    Order is preserved; the boundary is inclusive, so a candidate exactly at
    the threshold survives. The exemplar itself, when among the candidates,
    is kept without any DTW work: its distance to itself is 0.

    Two bounds settle most candidates without the dynamic program. The
    upper bound U chains the local costs of one warping path (_path_costs);
    U <= threshold keeps the candidate, with no table. The rest share one
    _dtw_table, whose chained row and column minima give the lower bound B
    (_lower_bounds); B > threshold drops the candidate, and only those
    that neither bound settles are swept, on that same table.

    Both bounds hold bit for bit on the computed values. Rounded addition
    is monotone, and the sweep sets each cell to one rounded sum, its local
    cost plus the least of its neighbours, as the chains add one cost per
    step. By induction, each cell on the path is then at most the path's
    chained sum up to it, and every cell is at least the chained minima of
    the rows, and of the columns, up to its own. So B <= DTW <= U exactly,
    and the verdicts are those of dtw_distances.
    """
    if not threshold >= 0:
        raise ContractError("threshold must be >= 0")
    others = [c for c in candidates if c is not exemplar]
    _check_poses(others, exemplar)
    pb = _poses(exemplar)
    upper = np.array([np.add.accumulate(_path_costs(c, pb))[-1] for c in others])
    within = upper <= threshold
    beyond = np.flatnonzero(~within)
    if beyond.size:
        cycles = [others[i] for i in beyond]
        table = _dtw_table(cycles, pb)
        undecided = np.flatnonzero(_lower_bounds(table, cycles) <= threshold)
        if undecided.size:
            # Move the open cycles' columns to the front and sweep only them.
            acc = table.reshape(-1, len(cycles))
            for dst, src in enumerate(undecided):
                acc[:, dst] = acc[:, src]
            swept = [cycles[i] for i in undecided]
            distances = _sweep(acc[:, : len(swept)], len(pb), swept)
            within[beyond[undecided]] = distances <= threshold
    verdicts = iter(within)
    return tuple(c for c in candidates if c is exemplar or next(verdicts))
