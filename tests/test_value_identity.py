"""Equality and hashing of the frozen dataclasses that hold arrays.

A field-by-field `==` would compare ndarrays inside a tuple and raise, and
the derived hash would hash the arrays and raise. These classes compare by
identity instead, and hash like any object.
"""

import numpy as np
import pytest

from marginforge import GaitSample, SeparabilityReport, identity_transform
from marginforge.metrics_classification import ScoreBlock, ThresholdSweep
from marginforge.scatter import compute_scatter, total_scatter_basis
from marginforge.template_space import MatchingContext


def population():
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [3.0, 2.0], [2.0, 4.0]])
    return rows, ["a", "a", "b", "b"]


def block():
    return ScoreBlock(
        distance=np.array([0.5, 1.5]),
        probe=np.array([0, 0]),
        label=np.array([0, 1]),
        genuine=np.array([True, False]),
        probe_ids=("p",),
    )


FACTORIES = {
    "GaitSample": lambda: GaitSample(frames=np.zeros((2, 1, 3)), label="a", sample_id="s"),
    "FeatureTransform": lambda: identity_transform(2),
    "MatchingContext": lambda: MatchingContext(whitener=np.eye(2)),
    "ScoreBlock": block,
    "ThresholdSweep": lambda: ThresholdSweep.of(block()),
    "SeparabilityReport": lambda: SeparabilityReport(
        dbi=0.5, di=2.0, sc=0.5, fdr=3.0,
        per_class_sigma={"a": 1.0}, class_centroids={"a": np.zeros(2)},
    ),
    "ScatterStatistics": lambda: compute_scatter(*population()),
    "ScatterBasis": lambda: total_scatter_basis(*population()),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equality_is_identity_and_hash_works(name):
    x, twin = FACTORIES[name](), FACTORIES[name]()
    assert x == x
    assert x != twin
    assert x in {x} and twin not in {x}
    assert hash(x) == hash(x)
