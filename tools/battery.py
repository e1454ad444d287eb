"""Byte battery: run one fixed list of `marginforge` commands on this
checkout and on a git revision, and compare every output byte for byte.

    python3 tools/battery.py --against <rev>

<rev> is unpacked with `git archive` into a temporary directory, so the
repository's .git and working files are untouched; this side is the
working files of the checkout that holds this script. Both sides run the
same commands, each in its own subprocess with OPENBLAS_NUM_THREADS=1 and
relative paths, so that a message naming a file reads the same on both:

- `gen` for the acceptance tests' RUN_SPEC (JSONL), for the eval-wide
  benchmark's shape (CSV) and for a paper-shaped width, 31 joints by 20
  frames (D = 1860, CSV); perfbench/workloads.py writes the
  preprocess-dtw benchmark's seed-1 input.
- `evaluate` on each generated set for every method, pair policy,
  plan seed (0, 7) and inner fold count (2, 3), each writing its report
  and four curve CSVs, and again at --workers 3 for plan seed 7 and 3
  inner folds; `learn` on each for mmc and pca-lda.
- `preprocess` on the preprocess-dtw input raw, at --target-frames 0, and
  through every step with its DTW threshold, to JSONL and to CSV.
- `compare` over each set's reports.
- `python3 tests/test_acceptance.py`, whose criteria run the library
  route that no command runs (the D x D scatter and the matching
  context); its verdict lines are compared with their wall-clock
  figures masked.

Every output file, exit code, stdout and stderr is compared. Each
difference is printed with the first differing JSON leaf or CSV cell and
its relative difference; for JSON, the count of differing leaves, the
largest relative difference among them and the first two keys of each
of their paths follow. The exit code is 0 when everything matches, 1 when
something differs, and 2 when the battery could not run.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (file stem, gen flags): RUN_SPEC of tests/test_acceptance.py, the
# eval-wide workload's shape at its seed 1, in its CSV format, and a
# paper-shaped width (N = 600, D = 1860) in CSV.
INPUTS = (
    ("run.jsonl", ["--classes", "10", "--per-class", "50", "--joints", "5",
                   "--frames", "10", "--class-spread", "5", "--noise", "0.5",
                   "--seed", "7"]),
    ("wide.csv", ["--classes", "10", "--per-class", "30", "--joints", "10",
                  "--frames", "20", "--class-spread", "5", "--noise", "0.5",
                  "--seed", "1"]),
    ("d1860.csv", ["--classes", "20", "--per-class", "30", "--joints", "31",
                   "--frames", "20", "--seed", "3"]),
)
METHODS = ("mmc", "pca-lda", "identity")
POLICIES = ("all", "class-best")
PLAN_SEEDS = ("0", "7")
INNER_FOLDS = ("2", "3")
THREADED = ("7", "3")  # (plan seed, inner folds) also run at --workers 3
DTW_INPUT = os.path.join("dtw", "input.jsonl")
# The wall-clock figures of the acceptance verdicts: "in 0.2s", ", 0.1s".
WALL_CLOCK = re.compile(r"(in |, )\d+\.\d+s\b")


def mask_wall_clock(text: str) -> str:
    """text with each wall-clock figure of an acceptance verdict as "?s"."""
    return WALL_CLOCK.sub(r"\1?s", text)


def commands(dtw_threshold: str) -> list:
    """The battery's command lines after the inputs exist, in run order."""
    runs, compares = [], []
    for data, _ in INPUTS:
        stem = data.split(".")[0]
        reports = []
        for method, policy, seed, inner in itertools.product(
                METHODS, POLICIES, PLAN_SEEDS, INNER_FOLDS):
            name = f"eval/{stem}-{method}-{policy}-s{seed}-i{inner}"
            flags = ["--method", method, "--pair-policy", policy,
                     "--seed", seed, "--inner-folds", inner]
            reports.append(f"{name}.json")
            runs.append(["evaluate", "--input", data, "--output", reports[-1], *flags])
            if (seed, inner) == THREADED:
                runs.append(["evaluate", "--input", data, "--output",
                             f"{name}-w3.json", *flags, "--workers", "3"])
        for method in METHODS[:2]:
            runs.append(["learn", "--input", data, "--method", method,
                         "--output", f"learn/{stem}-{method}.json"])
        compares.append(["compare", *reports, "--output", f"cmp/{stem}.txt"])
    for name, flags in (
        ("raw", []),
        ("t0", ["--target-frames", "0"]),
        ("full", ["--root-joint", "0", "--target-frames", "0",
                  "--dtw-threshold", dtw_threshold]),
    ):
        for ext in ("jsonl", "csv"):
            runs.append(["preprocess", "--input", DTW_INPUT,
                         "--output", f"pre/{name}.{ext}", *flags])
    return runs + compares


def run_side(tree: str, work: str) -> list:
    """Run the battery with tree's sources in the empty directory work;
    return one (command, exit code, stdout, stderr) per command."""
    env = {k: v for k, v in os.environ.items() if k != "MARGINFORGE_LOG"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.join(tree, "src"))
    for sub in ("eval", "learn", "pre", "cmp", "dtw"):
        os.makedirs(os.path.join(work, sub))

    def call(argv):
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        return " ".join(argv[1:]), done.returncode, done.stdout, done.stderr

    cli = [sys.executable, "-m", "marginforge.cli"]
    results = [call([*cli, "gen", *flags, "--output", data]) for data, flags in INPUTS]
    results.append(call([
        sys.executable, os.path.join(tree, "perfbench", "workloads.py"),
        "--workload", "preprocess-dtw", "--seed", "1", "--out", "dtw",
        "--src", os.path.join(tree, "src"),
    ])[:2] + ("", ""))  # its output holds set-up timings, not program output
    meta = os.path.join(work, "dtw", "meta.json")
    with open(meta) as fh:
        threshold = repr(json.load(fh)["dtw_threshold"])
    os.remove(meta)
    results += [call([*cli, *argv]) for argv in commands(threshold)]
    script = os.path.join("tests", "test_acceptance.py")
    _, code, out, err = call([sys.executable, os.path.join(tree, script)])
    results.append((script, code, mask_wall_clock(out), err))
    return results


def _leaves(value, path=""):
    """(path, leaf) for every leaf of a parsed JSON value, in order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _leaves(item, f"{path}[{k}]")
    else:
        yield path, value


def relative(a, b) -> float:
    """|a - b| over the larger magnitude; inf when either is not a number."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return math.inf
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _cells(text: str):
    """(row:column, cell) for every cell of a CSV text, cells that parse
    as floats given as floats."""
    for r, row in enumerate(csv.reader(io.StringIO(text))):
        for c, cell in enumerate(row):
            try:
                yield f"row {r + 1}, column {c + 1}", float(cell)
            except ValueError:
                yield f"row {r + 1}, column {c + 1}", cell


def describe(name: str, ours: bytes, theirs: bytes):
    """None when the bytes are equal, else one line saying where the
    first difference is and by how much."""
    if ours == theirs:
        return None
    try:
        text_a, text_b = ours.decode(), theirs.decode()
        if name.endswith(".json"):
            a, b = [list(_leaves(json.loads(t))) for t in (text_a, text_b)]
        elif name.endswith(".jsonl"):
            a, b = [
                [(f"line {k + 1}: {p}", v) for k, line in enumerate(t.splitlines())
                 for p, v in _leaves(json.loads(line))]
                for t in (text_a, text_b)
            ]
        elif name.endswith(".csv"):
            a, b = list(_cells(text_a)), list(_cells(text_b))
        else:
            a, b = [[(f"line {k + 1}", line) for k, line in enumerate(t.splitlines())]
                    for t in (text_a, text_b)]
    except (UnicodeDecodeError, json.JSONDecodeError):
        pairs = enumerate(zip(ours, theirs))
        offset = next((k for k, (x, y) in pairs if x != y), min(len(ours), len(theirs)))
        return f"{name}: bytes differ from offset {offset}"
    differing = [
        (pa, va, vb) for (pa, va), (pb, vb) in zip(a, b) if pa != pb or va != vb
    ]
    if len(a) != len(b) and not differing:
        return f"{name}: {len(a)} against {len(b)} leaves; the common ones are equal"
    if not differing:
        return f"{name}: the same values written with different bytes"
    path, va, vb = differing[0]
    line = f"{name}: {path}: {va!r} against {vb!r} (relative {relative(va, vb):.3g})"
    if name.endswith(".json"):
        # Where they sit: each path's first two keys, list indices dropped.
        sections = sorted({".".join(re.sub(r"\[\d+\]", "[]", path).split(".")[:2])
                           for path, _, _ in differing})
        worst = max(relative(x, y) for _, x, y in differing)
        line += (f"; {len(differing)} leaves differ, the largest relative "
                 f"difference is {worst:.3g}, under {', '.join(sections)}")
    if len(a) != len(b):
        line += f"; {len(a)} against {len(b)} leaves"
    return line


def files_under(root: str) -> dict:
    out = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="battery-") as tmp:
        base = os.path.join(tmp, "base")
        os.makedirs(base)
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.against],
            cwd=HERE, capture_output=True,
        )
        if archive.returncode != 0:
            print(f"battery: git archive {args.against} failed: "
                  f"{archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", base], input=archive.stdout, check=True)
        works = [os.path.join(tmp, "work-this"), os.path.join(tmp, "work-base")]
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                ours, theirs = pool.map(run_side, [HERE, base], works)
        except (OSError, KeyError, ValueError) as exc:  # no preprocess-dtw meta
            print(f"battery: could not write the inputs: {exc!r}", file=sys.stderr)
            return 2
        problems = []
        for (argv, *got), (_, *want) in zip(ours, theirs):
            for what, x, y in zip(("exit code", "stdout", "stderr"), got, want):
                if x != y:
                    problems.append(f"{argv}: {what} {x!r} against {y!r}")
        files_a, files_b = files_under(works[0]), files_under(works[1])
        for name in sorted(set(files_a) | set(files_b)):
            if name not in files_a or name not in files_b:
                side = "this checkout" if name in files_a else args.against
                problems.append(f"{name}: written only by {side}")
                continue
            line = describe(name, files_a[name], files_b[name])
            if line:
                problems.append(line)
    for line in problems:
        print(line)
    failed = sum(1 for _, code, _, _ in ours if code != 0)
    print(f"battery: {len(ours)} commands ({failed} exited nonzero here), "
          f"{len(files_a)} files against {args.against}: {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
