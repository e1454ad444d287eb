"""Package-level acceptance battery: ten numbered checks.

Every check prints one verdict line (criterion N: PASS/FAIL plus the
measured numbers) before asserting, so a run doubles as a checklist.
Works under pytest or standalone:

    python3 tests/test_acceptance.py
"""

import time

import numpy as np

import oracles
from conftest import (
    Pair,
    cmc_points,
    curve_points,
    metric_axiom_violation,
    mmc_euclidean_violation,
    principal_angles,
    random_flats,
    recombination_violation,
    sweep_of,
)
from marginforge import (
    GaitSample,
    LabeledDataset,
    SyntheticSpec,
    align_walk_direction,
    average_length,
    compute_scatter,
    dtw_distance,
    filter_gait_cycles,
    generate_synthetic,
    learn_mmc,
    mmc_objective,
    plan_folds,
    resample_time,
    run_protocol,
    select_margin_columns,
)
from marginforge.cli import main as cli_main

BATTERY_SIZE = 100

# The end-to-end synthetic configuration the headline checks run on.
RUN_SPEC = SyntheticSpec(
    classes=10,
    samples_per_class=50,
    joints=5,
    frames=10,
    class_spread=5.0,
    noise=0.5,
    seed=7,
)

_battery = []
_battery_seconds = []


def _verdict(n, ok, detail):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def battery():
    """The shared random-dataset battery, built once with its clock kept.

    Sizes cover 2..8 classes, 4..50 dimensions, 3..20 members per class.
    Each entry carries the scatter statistics, the learned transform, and
    the spectrum from the independent eigen route.
    """
    if not _battery:
        rng = np.random.default_rng(1209)
        start = time.perf_counter()
        for _ in range(BATTERY_SIZE):
            classes = int(rng.integers(2, 9))
            dim = int(rng.integers(4, 51))
            flats = random_flats(rng, classes=classes, dim=dim)
            stats = compute_scatter(*flats)
            transform = learn_mmc(*flats)
            values, vectors = oracles.oracle_eigen(stats)
            _battery.append((stats, transform, values, vectors, classes))
        _battery_seconds.append(time.perf_counter() - start)
    return _battery


def test_criterion_1_margin_subspace_matches_eigen_oracle():
    instances = battery()
    start = time.perf_counter()
    worst = 0.0
    mismatches = 0
    for stats, transform, values, vectors, classes in instances:
        selection = select_margin_columns(values, limit=classes - 1)
        oracle_cols = vectors[:, list(selection.kept_indices)]
        if transform.feature_dim != oracle_cols.shape[1]:
            mismatches += 1
            continue
        worst = max(
            worst, float(np.max(principal_angles(transform.phi, oracle_cols)))
        )
    elapsed = _battery_seconds[0] + (time.perf_counter() - start)
    ok = mismatches == 0 and worst < 1e-6 and elapsed < 30.0
    assert _verdict(
        1,
        ok,
        f"worst angle {worst:.2e} rad, {mismatches} dimension mismatches, "
        f"{len(instances)} datasets in {elapsed:.1f}s",
    )


def test_criterion_2_objective_equals_kept_margin_sum():
    # The trace measured on raw scatter matrices has to reproduce the
    # margin shares reported by the SVD route: sum of (2 delta - 1).
    worst = 0.0
    for stats, transform, _, _, _ in battery():
        got = mmc_objective(transform, stats)
        expected = float(np.sum(2.0 * transform.delta - 1.0))
        worst = max(
            worst, abs(got - expected) / max(abs(got), abs(expected), 1e-12)
        )
    ok = worst < 1e-8
    assert _verdict(
        2, ok, f"worst relative gap {worst:.2e} across {BATTERY_SIZE} datasets"
    )


def test_criterion_3_scatter_decomposition():
    worst = 0.0
    for stats, _, _, _, _ in battery():
        gap = np.linalg.norm(stats.sigma_t - stats.sigma_b - stats.sigma_w)
        worst = max(worst, gap / np.linalg.norm(stats.sigma_t))
    ok = worst < 1e-9
    assert _verdict(3, ok, f"worst relative frobenius gap {worst:.2e}")


def test_criterion_4_whitening_and_diagonalization():
    worst_identity = 0.0
    worst_off = 0.0
    for stats, transform, _, _, _ in battery():
        k = transform.feature_dim
        g_t = transform.phi.T @ stats.sigma_t @ transform.phi
        g_b = transform.phi.T @ stats.sigma_b @ transform.phi
        worst_identity = max(worst_identity, float(np.max(np.abs(g_t - np.eye(k)))))
        worst_off = max(
            worst_off, float(np.max(np.abs(g_b - np.diag(np.diag(g_b)))))
        )
    ok = worst_identity < 1e-6 and worst_off < 1e-6
    assert _verdict(
        4,
        ok,
        f"total-scatter identity gap {worst_identity:.2e}, "
        f"between-scatter off-diagonal {worst_off:.2e}",
    )


def _score_records(genuine, impostor):
    out = [Pair(f"g{i}", "self", d, True) for i, d in enumerate(genuine)]
    out += [Pair(f"i{i}", "other", d, False) for i, d in enumerate(impostor)]
    return out


def _random_records(rng):
    """At most 20 records: every probe scores every identity once, on a
    coarse half-integer grid so exact ties occur."""
    n_labels = int(rng.integers(2, 6))
    n_probes = int(rng.integers(1, 20 // n_labels + 1))
    labels = [f"c{j}" for j in range(n_labels)]
    records = []
    for i in range(n_probes):
        own = labels[int(rng.integers(n_labels))]
        for lab in labels:
            d = float(rng.integers(0, 6)) / 2.0
            records.append(Pair(f"p{i}", lab, d, lab == own))
    return records


def test_criterion_5_curves_match_exhaustive_enumeration():
    rng = np.random.default_rng(55)
    exact = True
    for _ in range(100):
        records = _random_records(rng)
        sweep = sweep_of(records)
        got = [
            curve_points(sweep.far, sweep.frr),
            sweep.eer(),
            curve_points(*sweep.roc()[:2]),
            curve_points(*sweep.rcl_pcn()[:2]),
            cmc_points(records),
        ]
        want = [
            oracles.brute_far_frr_points(records),
            oracles.brute_eer(records),
            oracles.brute_roc_points(records),
            oracles.brute_rcl_pcn_points(records),
            oracles.brute_cmc_points(records),
        ]
        exact = exact and got == want

    fixtures = []
    eer = sweep_of(_score_records([1.0, 2.0], [3.0, 4.0])).eer()
    fixtures.append(("eer split", eer, 0.0))
    eer = sweep_of(_score_records([1.0, 2.0], [1.0, 2.0])).eer()
    fixtures.append(("eer overlap", eer, 0.5))
    _, _, auc = sweep_of(_score_records([1.0, 2.0], [3.0, 4.0])).roc()
    fixtures.append(("auc split", auc, 1.0))
    _, _, auc = sweep_of(_score_records([1.0, 2.0], [1.0, 2.0])).roc()
    fixtures.append(("auc overlap", auc, 0.5))
    _, _, auc = sweep_of(_score_records([1.0], [2.0, 3.0])).roc()
    fixtures.append(("auc swept", auc, 1.0))
    _, _, map_value = sweep_of(_score_records([1.0, 3.0], [2.0])).rcl_pcn()
    fixtures.append(("map", map_value, 11.0 / 12.0))
    cmc = cmc_points(
        [
            Pair("p1", "a", 1.0, True),
            Pair("p1", "b", 2.0, False),
            Pair("p2", "a", 2.0, False),
            Pair("p2", "b", 3.0, True),
        ]
    )
    fixtures.append(("ccr", cmc[0][1], 0.5))
    fixtures.append(("cmc rank 2", cmc[1][1], 1.0))

    worst = max(abs(got - want) for _, got, want in fixtures)
    ok = exact and worst < 1e-9
    assert _verdict(
        5,
        ok,
        f"curves exact on 100 record sets: {exact}; "
        f"worst scalar fixture gap {worst:.2e}",
    )


def test_criterion_6_synthetic_run_hits_headline_targets():
    start = time.perf_counter()
    dataset = generate_synthetic(RUN_SPEC)
    plan = plan_folds(dataset, outer=3, inner=10, seed=7)
    mmc = run_protocol(dataset, "mmc", plan).headline
    lda = run_protocol(dataset, "pca_lda", plan).headline
    elapsed = time.perf_counter() - start
    clauses = {
        "ccr>=0.95": mmc["ccr"] >= 0.95,
        "auc>=0.95": mmc["auc"] >= 0.95,
        "sc>0": mmc["sc"] > 0.0,
        "mmc sc>=pca_lda sc": mmc["sc"] >= lda["sc"],
        "runtime<60s": elapsed < 60.0,
    }
    failed = [name for name, good in clauses.items() if not good]
    detail = (
        f"mmc ccr={mmc['ccr']:.4f} auc={mmc['auc']:.4f} sc={mmc['sc']:.4f}, "
        f"pca_lda sc={lda['sc']:.4f}, {elapsed:.1f}s"
    )
    if failed:
        detail += f"; failed: {', '.join(failed)}"
    assert _verdict(6, not failed, detail), detail


def test_criterion_7_shuffled_labels_sit_at_chance():
    dataset = generate_synthetic(RUN_SPEC)
    rng = np.random.default_rng(7)
    labels = [s.label for s in dataset.samples]
    shuffled = [labels[i] for i in rng.permutation(len(labels))]
    scrambled = LabeledDataset.from_samples(
        GaitSample(frames=s.frames, label=lab, sample_id=s.sample_id)
        for s, lab in zip(dataset.samples, shuffled)
    )
    plan = plan_folds(scrambled, outer=3, inner=10, seed=7)
    ccr = run_protocol(scrambled, "mmc", plan).headline["ccr"]
    chance = 1.0 / RUN_SPEC.classes
    ok = chance - 0.05 <= ccr <= chance + 0.10
    assert _verdict(
        7,
        ok,
        f"shuffled ccr={ccr:.4f}, "
        f"band [{chance - 0.05:.2f}, {chance + 0.10:.2f}]",
    )


def _run_cli(*argv) -> int:
    return cli_main([str(a) for a in argv])


def test_criterion_8_worker_count_byte_identity(tmp_path):
    data = tmp_path / "data.jsonl"
    assert (
        _run_cli(
            "gen",
            "--classes", RUN_SPEC.classes,
            "--per-class", RUN_SPEC.samples_per_class,
            "--joints", RUN_SPEC.joints,
            "--frames", RUN_SPEC.frames,
            "--class-spread", RUN_SPEC.class_spread,
            "--noise", RUN_SPEC.noise,
            "--seed", RUN_SPEC.seed,
            "--output", data,
        )
        == 0
    )
    outputs = {}
    for workers in (1, 8):
        report = tmp_path / f"workers{workers}.json"
        code = _run_cli(
            "evaluate",
            "--input", data,
            "--output", report,
            "--method", "mmc",
            "--seed", 7,
            "--workers", workers,
        )
        assert code == 0
        blob = report.read_bytes()
        for kind in ("cmc", "far_frr", "roc", "rcl_pcn"):
            blob += (tmp_path / f"workers{workers}.{kind}.csv").read_bytes()
        outputs[workers] = blob
    ok = outputs[1] == outputs[8]
    assert _verdict(
        8,
        ok,
        f"report + 4 curve csvs, {len(outputs[1])}/{len(outputs[8])} bytes, "
        "workers 1 vs 8",
    )


def test_criterion_9_matcher_property_suites():
    rng = np.random.default_rng(909)
    axioms = max(metric_axiom_violation(rng) for _ in range(1000))
    recombination = max(recombination_violation(rng) for _ in range(1000))
    euclidean = max(mmc_euclidean_violation(rng) for _ in range(1000))
    ok = axioms <= 1e-9 and recombination <= 1e-6 and euclidean <= 1e-5
    assert _verdict(
        9,
        ok,
        f"1000-instance suites: axioms {axioms:.2e}, recombination "
        f"{recombination:.2e}, euclidean gap {euclidean:.2e}",
    )


def _scalar_sequence(values, label="a", sample_id="s0"):
    frames = np.zeros((len(values), 1, 3))
    frames[:, 0, 0] = values
    return GaitSample(frames=frames, label=label, sample_id=sample_id)


def test_criterion_10_preprocessing_fixtures():
    checks = {}

    # A two-frame walker heading along +x: the quarter turn about the up
    # axis sends (x, y, z) to (-z, y, x), so displacement lands on +z.
    walker = GaitSample(
        frames=np.array(
            [
                [[0.0, 0.0, 0.0], [1.0, 5.0, 3.0]],
                [[2.0, 0.0, 0.0], [3.0, 5.0, 3.0]],
            ]
        ),
        label="a",
        sample_id="w",
    )
    aligned = align_walk_direction(walker, root_joint=0, up_axis="y")
    displacement = aligned.frames[-1, 0] - aligned.frames[0, 0]
    checks["align"] = np.array_equal(
        displacement, [0.0, 0.0, 2.0]
    ) and np.array_equal(aligned.frames[0, 1], [-3.0, 5.0, 1.0])

    resampled = resample_time(_scalar_sequence([0.0, 2.0]), 3)
    checks["resample"] = resampled.frames[:, 0, 0].tolist() == [0.0, 1.0, 2.0]

    checks["average_length"] = (
        average_length(
            [
                _scalar_sequence([0.0] * 9, sample_id="n9"),
                _scalar_sequence([0.0] * 10, sample_id="n10"),
            ]
        )
        == 10
    )

    checks["dtw"] = (
        dtw_distance(
            _scalar_sequence([0.0, 1.0, 2.0]), _scalar_sequence([0.0, 2.0])
        )
        == 1.0
    )

    # Two-frame cycles [0, d] against exemplar [0, 0] cost exactly d.
    exemplar = _scalar_sequence([0.0, 0.0], sample_id="e")
    candidates = [
        _scalar_sequence([0.0, d], sample_id=f"s{i}")
        for i, d in enumerate([0.1, 0.5, 0.9])
    ]
    distances = [dtw_distance(c, exemplar) for c in candidates]
    kept = filter_gait_cycles(candidates, exemplar, 0.5)
    checks["filter"] = distances == [0.1, 0.5, 0.9] and [
        s.sample_id for s in kept
    ] == ["s0", "s1"]

    failed = [name for name, good in checks.items() if not good]
    detail = "align/resample/average-length/dtw/filter all exact"
    if failed:
        detail = f"inexact: {', '.join(failed)}"
    assert _verdict(10, not failed, detail)


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as scratch:
        checks = (
            test_criterion_1_margin_subspace_matches_eigen_oracle,
            test_criterion_2_objective_equals_kept_margin_sum,
            test_criterion_3_scatter_decomposition,
            test_criterion_4_whitening_and_diagonalization,
            test_criterion_5_curves_match_exhaustive_enumeration,
            test_criterion_6_synthetic_run_hits_headline_targets,
            test_criterion_7_shuffled_labels_sit_at_chance,
            lambda: test_criterion_8_worker_count_byte_identity(Path(scratch)),
            test_criterion_9_matcher_property_suites,
            test_criterion_10_preprocessing_fixtures,
        )
        failures = 0
        for check in checks:
            try:
                check()
            except AssertionError:
                failures += 1
        print(f"{len(checks) - failures}/{len(checks)} criteria green")
    sys.exit(1 if failures else 0)
