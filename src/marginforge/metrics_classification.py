"""Rank and threshold metrics over probe-to-gallery distances.

CMC/CCR reads each probe's best (minimum) distance to each gallery
identity; the threshold metrics read one ThresholdSweep of the pair
distances, each pair genuine (same identity) or impostor. Curves are
exact, not sampled: the sweep visits every distinct observed distance
plus -inf/+inf sentinels, and acceptance is distance <= threshold
(inclusive), so each curve equals an exhaustive enumeration of all
meaningful thresholds.

Curve kinds and their points:
    cmc      (rank k, fraction of probes whose true class is in the top k)
    far_frr  (false accept rate, false reject rate) along the sweep
    roc      (false accept rate, true accept rate), deduplicated x
    rcl_pcn  (recall, precision) with the recall-0 precision extrapolated
             from the smallest-threshold point
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError

CURVE_KINDS = ("cmc", "far_frr", "roc", "rcl_pcn")


@dataclass(frozen=True)
class CurveSeries:
    """A polyline of (x, y) points of a declared kind."""

    kind: str
    points: tuple

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValidationError(f"unknown curve kind {self.kind!r}")
        points = tuple((float(x), float(y)) for x, y in self.points)
        if not points:
            raise ContractError("curve needs at least one point")
        if self.kind in ("cmc", "roc"):
            xs = [p[0] for p in points]
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ContractError(f"{self.kind} x values must strictly increase")
        object.__setattr__(self, "points", points)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "x": [p[0] for p in self.points],
            "y": [p[1] for p in self.points],
        }


def cmc_fractions(best, genuine, probe_ids) -> tuple[np.ndarray, tuple]:
    """(fractions, findings): cumulative match fractions at ranks 1 ..
    number of gallery identities, and one finding per never-matched probe.

    best[p, c] is probe p's minimum distance to gallery identity c, +inf
    where its gallery holds none; genuine[p, c] marks its own identity and
    probe_ids[p] names it. A probe scores rank r = 1 + number of
    identities strictly closer than its own. Entry k - 1 is the fraction
    of probes with rank <= k. A probe whose identity is not in its gallery
    is never matched.
    """
    if best.size == 0:
        raise ContractError("no distance records")
    own_best = np.min(best, axis=1, where=genuine, initial=np.inf)
    findings = tuple(
        f"RuntimeWarning: probe {probe_ids[p]!r}: its identity is not in "
        "the gallery; counted as never matched"
        for p in np.flatnonzero(own_best == np.inf)
    )
    matched = own_best < np.inf
    ranks = np.sum(best[matched] < own_best[matched, None], axis=1)
    return np.cumsum(np.bincount(ranks, minlength=best.shape[1])) / len(best), findings


@dataclass(frozen=True, eq=False)
class ThresholdSweep:
    """Accept counts at every threshold that matters; rates are derived
    from them when read.

    Entry k belongs to the k-th threshold of [-inf, the distinct distances
    ascending, +inf]; a pair is accepted iff its distance <= threshold.
    Built once per fold; every threshold metric reads from it.
    """

    accepted_genuine: np.ndarray
    accepted_impostor: np.ndarray

    @classmethod
    def of(cls, distance: np.ndarray, genuine: np.ndarray) -> "ThresholdSweep":
        """The sweep over pairs given in any order: their distances, and
        genuine marking the genuine ones. Every rate is a ratio of counts,
        so giving each pair twice changes no rate."""
        ordered = np.sort(distance)
        if ordered.size and not (ordered[0] >= 0 and ordered[-1] < np.inf):
            bad = ordered[0] if ordered[0] < 0 else ordered[-1]
            raise ContractError(f"distance must be finite and >= 0, got {float(bad)!r}")
        n_gen = int(np.count_nonzero(genuine))
        n_imp = distance.size - n_gen
        if n_gen == 0:
            raise ContractError("no genuine records")
        # Last sorted pair of each distinct distance, and the genuine pairs
        # at or below it.
        ends = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True))
        accepted = np.searchsorted(np.sort(distance[genuine]), ordered[ends], "right")
        del ordered  # freed before the counts are made
        acc_gen = np.concatenate(([0], accepted, [n_gen]))
        return cls(acc_gen, np.concatenate(([0], ends + 1 - accepted, [n_imp])))

    def _require_impostors(self):
        if self.accepted_impostor[-1] == 0:
            raise ContractError("no impostor records")

    @property
    def far(self) -> np.ndarray:
        """False accept rate at each threshold; all 0 without impostors."""
        return self.accepted_impostor / max(self.accepted_impostor[-1], 1)

    @property
    def frr(self) -> np.ndarray:
        """False reject rate at each threshold."""
        n_gen = self.accepted_genuine[-1]
        return (n_gen - self.accepted_genuine) / n_gen

    @property
    def quantile(self) -> np.ndarray:
        """Fraction of all distances at or below each threshold."""
        accepted = self.accepted_genuine + self.accepted_impostor
        return accepted / accepted[-1]

    def far_frr_at(self, grid: np.ndarray) -> tuple:
        """(FAR, FRR) interpolated at the grid's quantiles of all distances,
        an axis that sweeps of any pair count share. The +inf sentinel
        repeats the largest threshold's rates and is dropped."""
        quantile = self.quantile[:-1]
        far = np.interp(grid, quantile, self.far[:-1])
        return far, np.interp(grid, quantile, self.frr[:-1])

    def eer(self) -> float:
        """Equal error rate at the sign change of FAR - FRR.

        Linearly interpolated between the adjacent sweep points when the
        difference never hits zero exactly.
        """
        self._require_impostors()
        # The gap runs from -1 to +1 along the sweep, so it always crosses.
        far = self.far
        gap = far - self.frr
        i = int(np.argmax(gap >= 0.0))
        if gap[i] == 0.0:
            return float(far[i])
        lam = -gap[i - 1] / (gap[i] - gap[i - 1])
        return float(far[i - 1] + lam * (far[i] - far[i - 1]))

    def roc(self):
        """(FAR, TAR) points with strictly increasing FAR, and the AUC.

        Sweep points sharing a FAR value collapse to the best (largest)
        TAR, which is the last of them in threshold order.
        """
        self._require_impostors()
        far = self.far
        last = np.append(far[1:] != far[:-1], True)
        far, tar = far[last], 1.0 - self.frr[last]
        return far, tar, float(np.trapezoid(tar, far))

    def rcl_pcn(self):
        """(recall, precision) points with strictly increasing recall, and MAP.

        The -inf point is the one that accepts nothing, and its undefined
        precision is skipped; the curve instead starts at recall 0 with the
        precision of the smallest-threshold point. Among points sharing a
        recall value the first in threshold order (best precision) is kept.
        """
        acc_gen = self.accepted_genuine[1:]
        recall = acc_gen / self.accepted_genuine[-1]
        first = np.insert(recall[1:] != recall[:-1], 0, True)
        recall, acc_gen = recall[first], acc_gen[first]
        precision = acc_gen / (acc_gen + self.accepted_impostor[1:][first])
        if recall[0] > 0.0:
            recall = np.insert(recall, 0, 0.0)
            precision = np.insert(precision, 0, precision[0])
        return recall, precision, float(np.trapezoid(precision, recall))
