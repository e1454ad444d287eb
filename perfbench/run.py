"""marginforge benchmark: one workload, one seed, a closed loop of operations.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-wide --seed 1 --seconds 40 --trace 0

Set-up writes the workload's inputs several times, each in a fresh
interpreter (see workloads.py); setup_s is the median of the times that
importing `marginforge` and its `save_dataset` took. The loop then drives
`marginforge.cli.main` in this process with one client: the next
operation starts when the previous one ends. A first --workers 1
operation warms the process up and sets the reference outputs; it is
checked but enters no wall metric. Operations then keep starting until
--seconds have passed, alternating between --workers 1 and
--workers nproc (preprocess-dtw has no worker setting, so each of its
operations counts for both). Before each operation the loop times a
fixed host probe (see HostProbe). With --trace 1 the rotation is serial,
traced, serial, parallel: each traced --workers 1 operation sits between
two untraced ones, and its overhead is its wall minus their mean. The
last line then reports per-layer metrics instead of end-to-end ones.
Every operation is checked; the exit code is 1 when any check fails and
2 when the checkout holds no marginforge sources.

wall_adj_s and wall_par_adj_s are the median operation walls rescaled
to a host on which the probe takes PROBE_REF_S: median wall times
PROBE_REF_S over the median probe time of the same run. On a shared host
the speed of a core drifts by a third or more over minutes, for the
program and the probe alike, so the raw medians of runs made minutes
apart disagree by more than any bound a regression check can use; the
ratio cancels that drift. The probe is the benchmark's own code, so a
change to the program moves only the operation walls. The raw medians
(wall_s, wall_par_s) and the probe's median (host.probe_s) are per-layer
metrics of the traced run and are printed on every run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it holds the
machine, the sizes, every sample and the sha256 of every output.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: fold threads are the only parallelism, and
# there are never more of them than nproc.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402
from spans import COMPUTED, Tracer, layer_metrics, unit_of  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 4
# Host probe time that the adjusted walls are rescaled to: about the
# probe's median on a quiet 2-vCPU x86-64 cloud VM.
PROBE_REF_S = 0.1
SETUP_TIMEOUT_S = 120
CURVES = ("cmc", "far_frr", "roc", "rcl_pcn")
REPORTS = {"eval-pairs": ["mmc"], "eval-wide": ["mmc", "pca_lda"]}
# `preprocess` has no --workers flag.
SERIAL_ONLY = ("preprocess-dtw",)
RSS_NOTE = (
    "RSS is ru_maxrss from resource.getrusage(RUSAGE_SELF) of the process "
    "that runs the operations; no system-wide counters are read. "
    "peak_rss_mb is read after its first (--workers 1) operation"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Failure(Exception):
    """A correctness check did not hold."""


# --- set-up -----------------------------------------------------------------


def set_up(workload: str, seed: int, src: str, work: str):
    """Write the inputs SETUP_REPEATS times; return (set-up times, meta)."""
    times, digests, meta = [], set(), None
    for k in range(SETUP_REPEATS):
        out = os.path.join(work, f"setup{k}")
        os.makedirs(out)
        argv = [sys.executable, os.path.join(HERE, "workloads.py"),
                "--workload", workload, "--seed", str(seed), "--out", out, "--src", src]
        subprocess.run(argv, check=True, timeout=SETUP_TIMEOUT_S)
        with open(os.path.join(out, "meta.json")) as fh:
            meta = json.load(fh)
        times.append(meta.pop("setup_s"))
        digests.add(sha256(meta["input"]))
    if len(digests) != 1:
        raise Failure("the same seed wrote different input files")
    meta["input_sha256"] = digests.pop()
    return times, meta


# --- operations -------------------------------------------------------------


def op_steps(workload: str, meta: dict, out: str, workers: int) -> list:
    """The command lines of one operation, writing under out."""
    inp = meta["input"]
    if workload == "eval-pairs":
        return [["evaluate", "--input", inp, "--output", f"{out}/mmc.json",
                 "--method", "mmc", "--pair-policy", "all", "--workers", str(workers)]]
    if workload == "eval-wide":
        return [
            ["evaluate", "--input", inp, "--output", f"{out}/mmc.json",
             "--method", "mmc", "--pair-policy", "class-best", "--workers", str(workers)],
            ["evaluate", "--input", inp, "--output", f"{out}/pca_lda.json",
             "--method", "pca-lda", "--pair-policy", "class-best",
             "--workers", str(workers)],
            ["compare", f"{out}/mmc.json", f"{out}/pca_lda.json",
             "--output", f"{out}/compare.txt"],
        ]
    return [["preprocess", "--input", inp, "--output", f"{out}/prep.csv",
             "--root-joint", "0", "--target-frames", "0",
             "--dtw-threshold", repr(meta["dtw_threshold"])]]


def output_files(workload: str, out: str) -> list:
    if workload == "preprocess-dtw":
        return [f"{out}/prep.csv"]
    files = []
    for r in REPORTS[workload]:
        files.append(f"{out}/{r}.json")
        files.extend(f"{out}/{r}.{c}.csv" for c in CURVES)
    if workload == "eval-wide":
        files.append(f"{out}/compare.txt")
    return files


def silhouette(vectors, labels) -> float:
    """Mean Euclidean silhouette of vectors grouped by label."""
    import numpy as np
    from scipy.spatial.distance import cdist

    labels = np.asarray(labels)
    member = labels[:, None] == np.unique(labels)[None, :]  # (n, classes)
    # Mean distance to each class, leaving the point itself out of its own.
    means = (cdist(vectors, vectors) @ member) / (member.sum(axis=0) - member)
    a = means[member]
    b = np.where(member, np.inf, means).min(axis=1)
    return float(np.mean((b - a) / np.maximum(a, b)))


def check_content(workload: str, meta: dict, out: str, schema) -> float:
    """Check one operation's outputs in depth; return its quality (sc)."""
    import jsonschema

    if workload == "preprocess-dtw":
        frames: dict = {}
        with open(f"{out}/prep.csv", newline="") as fh:
            rows = csv.reader(fh)
            next(rows)
            for sample_id, label, t, j, x, y, z in rows:
                frames.setdefault((sample_id, label), []).extend((x, y, z))
        kept = [sid for sid, _ in frames]
        planted = set(meta["planted"])
        expected = [sid for sid in meta["sample_ids"] if sid not in planted]
        if kept != expected:
            raise Failure(
                f"kept {len(kept)} cycles, expected exactly the {len(expected)} non-planted"
            )
        vectors = [[float(v) for v in cells] for cells in frames.values()]
        return silhouette(vectors, [label for _, label in frames])

    for r in REPORTS[workload]:
        with open(f"{out}/{r}.json") as fh:
            report = json.load(fh)
        try:
            jsonschema.validate(report, schema)
        except jsonschema.ValidationError as exc:
            raise Failure(f"{r}.json does not match the report schema: {exc.message}")
        if r == "mmc":
            sc = float(report["headline"]["sc"])
    if workload == "eval-wide":
        with open(f"{out}/compare.txt") as fh:
            methods = [line.split()[0] for line in fh.read().splitlines()[2:]]
        if methods != ["mmc", "pca_lda"]:
            raise Failure(f"compare table lists {methods}, expected mmc and pca_lda")
    return sc


class Runner:
    """Runs and checks operations; the first one sets the reference bytes."""

    def __init__(self, workload, meta, work, cli, schema):
        self.workload, self.meta, self.work = workload, meta, work
        self.cli, self.schema = cli, schema
        self.reference = None
        self.sc = None
        self.count = 0
        # Peak RSS right after the first operation, which runs at
        # --workers 1 before any parallel one and before any check: a
        # parallel peak depends on how the fold threads interleave.
        self.first_peak = None

    def _main(self, argv) -> int:
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line
            return exc.code

    def run(self, workers: int, tracer=None) -> float:
        out = os.path.join(self.work, f"op{self.count}")
        self.count += 1
        os.makedirs(out)
        steps = op_steps(self.workload, self.meta, out, workers)
        sink = io.StringIO()
        traced = tracer.installed() if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with traced, contextlib.redirect_stdout(sink):
                for argv in steps:
                    with tracer.span("cli.main") if tracer else contextlib.nullcontext():
                        code = self._main(argv)
                    if code != 0:
                        break
            wall = time.perf_counter() - start
            if self.first_peak is None:
                self.first_peak = peak_rss_mib()
            if code != 0:
                raise Failure(f"marginforge {argv[0]} exited with code {code}")
            digests = {os.path.basename(f): sha256(f)
                       for f in output_files(self.workload, out)}
            if self.reference is None:
                self.sc = check_content(self.workload, self.meta, out, self.schema)
                self.reference = digests
            elif digests != self.reference:
                changed = sorted(k for k in digests if digests[k] != self.reference[k])
                raise Failure(f"outputs differ from the first operation: {changed}")
        finally:
            shutil.rmtree(out)
        return wall


class HostProbe:
    """A fixed piece of the benchmark's own work that times the host.

    It does the three kinds of work the program does, about a third of
    the time each: an interpreted dynamic program that reads and writes
    numpy scalars (the DTW loop, per-pair scoring), text formatting and
    parsing (dataset files, reports), and a single-threaded BLAS product
    (scatter, the learners). Its inputs never change, so its time moves
    only with the speed of the host.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.cost = rng.random((40, 40))
        self.acc = np.full((41, 41), np.inf)
        self.acc[0, 0] = 0.0
        self.matrix = rng.random((200, 200))
        self.rows = rng.random((400, 15)).tolist()
        self.times = []

    def __call__(self) -> None:
        acc, cost = self.acc, self.cost
        start = time.perf_counter()
        for _ in range(16):
            for i in range(1, 41):
                for j in range(1, 41):
                    acc[i, j] = cost[i - 1, j - 1] + min(
                        acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1]
                    )
        for _ in range(2):
            json.loads(json.dumps(self.rows))
            text = io.StringIO()
            csv.writer(text).writerows(self.rows)
            list(csv.reader(io.StringIO(text.getvalue())))
        for _ in range(100):
            self.matrix @ self.matrix
        self.times.append(time.perf_counter() - start)


# --- provenance ---------------------------------------------------------------


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None."""
    import ctypes

    import numpy

    base = os.path.dirname(os.path.dirname(numpy.__file__))
    for lib in glob.glob(os.path.join(base, "*.libs", "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(meta: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    frames = meta["frames"]
    t = meta.get("target_frames", frames)
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_reported": blas_threads(),
        "sizes": {"N": meta["n"], "C": meta["classes"], "J": meta["joints"],
                  "T": frames, "D": 3 * meta["joints"] * t},
        "rss_note": RSS_NOTE,
    }


# --- main -------------------------------------------------------------------


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(runner, seconds: float, trace: bool, tracer, probe):
    """Closed loop: a warm-up operation, then a rotation until the deadline.

    The probe runs right before each operation of the rotation.

    Returns the walls of each kind, the traced overheads, and the counts of
    attempted and failed operations. Every kind runs at least once, and the
    loop never stops right after a traced operation, so each traced one has
    an untraced serial neighbour on both sides. A workload whose command
    has no worker setting runs no parallel kind: each of its operations is
    a sample of both wall metrics.
    """
    kinds = ["serial", "traced", "serial", "parallel"] if trace else ["serial", "parallel"]
    if runner.workload in SERIAL_ONLY:
        kinds.remove("parallel")
    walls = {k: [] for k in kinds}
    sequence = []  # (kind, wall or None when the operation failed)
    attempted = failed = 0

    def attempt(kind):
        nonlocal attempted, failed
        attempted += 1
        workers = nproc() if kind == "parallel" else 1
        try:
            return runner.run(workers, tracer if kind == "traced" else None)
        except Failure as exc:
            failed += 1
            print(f"perfbench: check failed ({kind}): {exc}", file=sys.stderr)
        except Exception:  # an operation that crashes is a failed operation
            failed += 1
            traceback.print_exc()
        return None

    attempt("warm-up")
    deadline = time.perf_counter() + seconds
    while (len(sequence) < len(kinds) or time.perf_counter() < deadline
           or sequence[-1][0] == "traced"):
        kind = kinds[len(sequence) % len(kinds)]
        probe()
        wall = attempt(kind)
        sequence.append((kind, wall))
        if wall is not None:
            walls[kind].append(wall)
    overheads = []
    for i, (kind, wall) in enumerate(sequence):
        if kind == "traced" and wall is not None:
            before, after = sequence[i - 1][1], sequence[i + 1][1]
            if before is not None and after is not None:
                overheads.append(wall - (before + after) / 2)
    return walls, overheads, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description="marginforge benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    schema_path = os.path.join(src, "marginforge", "schemas", "report.schema.json")
    if not os.path.isfile(os.path.join(src, "marginforge", "__init__.py")) or not (
        os.path.isfile(schema_path)
    ):
        print(f"perfbench: no marginforge sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import marginforge.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"perfbench: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2
    with open(schema_path) as fh:
        schema = json.load(fh)

    state = os.path.join(root, ".perfbench")
    work = os.path.join(state, f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        setup_times, meta = set_up(args.workload, args.seed, src, work)
        runner = Runner(args.workload, meta, work, cli, schema)
        tracer = Tracer() if args.trace else None
        probe = HostProbe()
        walls, overheads, attempted, failed = measure(
            runner, args.seconds, bool(args.trace), tracer, probe
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    serial = statistics.median(walls["serial"]) if walls["serial"] else 0.0
    par_walls = walls.get("parallel", walls["serial"])
    parallel = statistics.median(par_walls) if par_walls else 0.0
    probe_s = statistics.median(probe.times)
    end_to_end = {
        "wall_adj_s": {"value": serial * PROBE_REF_S / probe_s, "unit": "s"},
        "wall_par_adj_s": {"value": parallel * PROBE_REF_S / probe_s, "unit": "s"},
        "peak_rss_mb": {"value": runner.first_peak, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "sc": {"value": runner.sc if runner.sc is not None else 0.0, "unit": "1"},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "closed_loop": "one client; the next operation starts when the previous ends",
        "machine": provenance(meta),
        "input_sha256": meta["input_sha256"],
        "output_sha256": runner.reference,
        "setup_s": setup_times,
        "walls_s": walls,
        "probe_s": probe.times,
        "wall_s": serial,
        "wall_par_s": parallel,
        "error_rate": failed / attempted,
        "process_peak_rss_mib": peak_rss_mib(),
        "end_to_end": end_to_end,
    }
    if args.trace:
        layers = layer_metrics(tracer, len(walls["traced"]))
        layers["trace_overhead_s"] = statistics.median(overheads) if overheads else 0.0
        layers["wall_par_ratio"] = parallel / serial if serial else 0.0
        layers["wall_s"] = serial
        layers["wall_par_s"] = parallel
        layers["host.probe_s"] = probe_s
        layers["error_rate"] = failed / attempted
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
        info["per_layer"] = metrics
        info["computed_counts"] = sorted(COMPUTED)
        info["missing_patch_points"] = [".".join(p) for p in tracer.missing]
        spans_path = os.path.join(state, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump(tracer.to_json(), fh)
        info["spans_file"] = os.path.relpath(spans_path, root)
    else:
        metrics = end_to_end
    print(json.dumps(info))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
