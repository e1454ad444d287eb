"""Rank and threshold metrics over probe-to-gallery distances.

Everything here is computed from a ScoreBlock: one row per probe-template
against one gallery identity, with a flag saying whether the pair is
genuine (same identity) or impostor. Curves are exact, not sampled: one
ThresholdSweep per block visits every distinct observed distance plus
-inf/+inf sentinels, and acceptance is distance <= threshold (inclusive),
so each curve equals an exhaustive enumeration of all meaningful
thresholds.

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


@dataclass(frozen=True, eq=False)
class ScoreBlock:
    """Probe-against-gallery-identity distances as columns, one row a pair.

    probe indexes probe_ids, and every probe there has at least one row.
    label is an integer code of the gallery identity; any coding works.
    genuine marks the rows whose gallery identity is the probe's own.
    """

    distance: np.ndarray
    probe: np.ndarray
    label: np.ndarray
    genuine: np.ndarray
    probe_ids: tuple

    def __post_init__(self):
        bad = ~(np.isfinite(self.distance) & (self.distance >= 0))
        if bad.any():
            row = int(np.argmax(bad))
            raise ContractError(
                f"probe {self.probe_ids[self.probe[row]]!r}: distance must be "
                f"finite and >= 0, got {float(self.distance[row])!r}"
            )


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


def cmc_fractions(block: ScoreBlock) -> tuple[np.ndarray, tuple]:
    """(fractions, findings): cumulative match fractions at ranks 1 ..
    number of gallery identities, and one finding per never-matched probe.

    For each probe, identities are ranked by their best (minimum) distance;
    the probe scores rank r = 1 + number of identities strictly closer
    than its own. Entry k - 1 is the fraction of probes with rank <= k. A
    probe without a genuine row is never matched.
    """
    if block.distance.size == 0:
        raise ContractError("no distance records")
    present, label = np.unique(block.label, return_inverse=True)
    n_probes = len(block.probe_ids)
    best = np.full((n_probes, len(present)), np.inf)
    np.minimum.at(best, (block.probe, label), block.distance)

    # The identity a probe's genuine rows name; they all name the same one.
    own = np.full(n_probes, -1)
    rows = np.flatnonzero(block.genuine)
    own[block.probe[rows]] = label[rows]
    findings = tuple(
        f"RuntimeWarning: probe {block.probe_ids[p]!r}: its identity is not in "
        "the gallery; counted as never matched"
        for p in np.flatnonzero(own < 0)
    )
    matched = np.flatnonzero(own >= 0)
    own_best = best[matched, own[matched]]
    ranks = np.sum(best[matched] < own_best[:, None], axis=1)
    return np.cumsum(np.bincount(ranks, minlength=len(present))) / n_probes, findings


@dataclass(frozen=True, eq=False)
class ThresholdSweep:
    """Accept counts and error rates at every threshold that matters.

    Entry k belongs to the k-th threshold of [-inf, the distinct distances
    ascending, +inf]; a pair is accepted iff its distance <= threshold.
    Built once per block; every threshold metric reads from it.
    """

    accepted_genuine: np.ndarray
    accepted_impostor: np.ndarray
    far: np.ndarray
    frr: np.ndarray

    @classmethod
    def of(cls, block: ScoreBlock) -> "ThresholdSweep":
        n_gen = int(np.count_nonzero(block.genuine))
        n_imp = block.distance.size - n_gen
        if n_gen == 0:
            raise ContractError("no genuine records")
        order = np.argsort(block.distance, kind="stable")
        distance = block.distance[order]
        # Last sorted row of each distinct distance.
        ends = np.flatnonzero(np.append(distance[1:] != distance[:-1], True))
        genuine = np.cumsum(block.genuine[order])[ends]
        acc_gen = np.concatenate(([0], genuine, [n_gen]))
        acc_imp = np.concatenate(([0], ends + 1 - genuine, [n_imp]))
        far = acc_imp / n_imp if n_imp else np.zeros(acc_imp.size)
        return cls(acc_gen, acc_imp, far, (n_gen - acc_gen) / n_gen)

    def _require_impostors(self):
        if self.accepted_impostor[-1] == 0:
            raise ContractError("no impostor records")

    @property
    def quantile(self) -> np.ndarray:
        """Fraction of all distances at or below each threshold."""
        accepted = self.accepted_genuine + self.accepted_impostor
        return accepted / accepted[-1]

    def eer(self) -> float:
        """Equal error rate at the sign change of FAR - FRR.

        Linearly interpolated between the adjacent sweep points when the
        difference never hits zero exactly.
        """
        self._require_impostors()
        # The gap runs from -1 to +1 along the sweep, so it always crosses.
        gap = self.far - self.frr
        i = int(np.argmax(gap >= 0.0))
        if gap[i] == 0.0:
            return float(self.far[i])
        lam = -gap[i - 1] / (gap[i] - gap[i - 1])
        return float(self.far[i - 1] + lam * (self.far[i] - self.far[i - 1]))

    def roc(self):
        """(FAR, TAR) points with strictly increasing FAR, and the AUC.

        Sweep points sharing a FAR value collapse to the best (largest)
        TAR, which is the last of them in threshold order.
        """
        self._require_impostors()
        last = np.append(self.far[1:] != self.far[:-1], True)
        far, tar = self.far[last], (1.0 - self.frr)[last]
        return far, tar, float(np.trapezoid(tar, far))

    def rcl_pcn(self):
        """(recall, precision) points with strictly increasing recall, and MAP.

        Sweep points with nothing accepted have undefined precision and
        are skipped; the curve instead starts at recall 0 with the
        precision of the smallest-threshold point. Among points sharing a
        recall value the first in threshold order (best precision) is kept.
        """
        accepted = self.accepted_genuine + self.accepted_impostor
        acc_gen = self.accepted_genuine[accepted > 0]
        recall = acc_gen / self.accepted_genuine[-1]
        precision = acc_gen / accepted[accepted > 0]
        first = np.insert(recall[1:] != recall[:-1], 0, True)
        recall, precision = recall[first], precision[first]
        if recall[0] > 0.0:
            recall = np.insert(recall, 0, 0.0)
            precision = np.insert(precision, 0, precision[0])
        return recall, precision, float(np.trapezoid(precision, recall))

