"""Command-line front end.

Subcommands wire the pipeline end to end: gen makes a synthetic dataset,
preprocess normalizes poses, learn fits a feature transform, evaluate
runs the nested cross-validation, and compare tabulates headline scalars
across report files.

Every command reads an optional JSON config file whose keys mirror the
long flag names (underscored): a flag wins over the file, and the file
over the parser's defaults; a key that names none of the command's
options is an error. Outputs are written atomically. Errors exit with a
class-specific code and a single machine-parsable stderr line.
MARGINFORGE_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys

from ._jsonio import atomic_write_text, json_as, load_json, write_json
from .dataset import (
    LabeledDataset,
    SyntheticSpec,
    check_fits_in_memory,
    flatten_all,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .errors import MarginforgeError, SchemaError, ValidationError
from .learners import METHODS, TRANSFORM_METHODS, learner_for, save_transform
from .preprocess import (
    _check_steps,
    align_walk_direction,
    average_length,
    center_on_root,
    filter_gait_cycles,
    resample_time,
)
from .protocol import (
    PAIR_POLICIES,
    RECOGNITION_KEYS,
    SEPARABILITY_KEYS,
    curve_csv_text,
    headline_of,
    plan_folds,
    run_protocol,
)

log = logging.getLogger("marginforge")

# The words that read as a negative value, not as an option: "-1e3",
# "-inf" and "-nan" as well as "-1" and "-.5", which are all that
# argparse's own pattern takes. Without it "--noise -inf" reads as a flag
# missing its value, and the option's type never sees the value.
NEGATIVE_NUMBER = re.compile(r"-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I)


def _config_as_defaults(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """Make the JSON object in args.config the defaults of args.command's
    parser, so that a flag overrides it and it overrides the parser's own
    defaults. A value is read as its option's type (int or float, else
    str) by _jsonio.json_as; a null is dropped, so the parser's default
    stands; a key that names no option of the command is an error."""
    obj = load_json(args.config, what="config")
    if not isinstance(obj, dict):
        raise ValidationError("config file must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices[args.command]
    options = {a.dest: a for a in command._actions
               if a.option_strings and a.dest not in ("help", "config")}
    unknown = sorted(set(obj) - set(options))
    if unknown:
        raise ValidationError(f"unknown config keys for {args.command}: "
                              + ", ".join(map(repr, unknown)))
    defaults = {}
    for key, value in obj.items():
        action = options[key]
        kind = action.type if action.type in (int, float) else str
        try:
            if value is not None:
                defaults[key] = json_as(value, kind)
        except ValueError:
            raise ValidationError(f"option {action.option_strings[0]} must be "
                                  f"{kind.__name__}, got {value!r}") from None
    command.set_defaults(**defaults)


def _required(args: argparse.Namespace, key: str):
    value = getattr(args, key)
    if value is None:
        raise ValidationError(f"missing required option --{key.replace('_', '-')}")
    return value


def _format(args: argparse.Namespace, path: str) -> str:
    if args.format and args.format != "auto":
        return args.format
    return "csv" if path.endswith(".csv") else "jsonl"


def _load(args: argparse.Namespace) -> LabeledDataset:
    path = _required(args, "input")
    return load_dataset(path, format=_format(args, path))


def cmd_gen(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        classes=_required(args, "classes"),
        samples_per_class=_required(args, "per_class"),
        joints=args.joints, frames=args.frames, class_spread=args.class_spread,
        noise=args.noise, seed=args.seed,
    )
    dataset = generate_synthetic(spec)
    output = _required(args, "output")
    save_dataset(dataset, output, format=_format(args, output))
    log.info("wrote %d samples to %s", dataset.num_samples, output)
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    root_joint, target, threshold = args.root_joint, args.target_frames, args.dtw_threshold
    # Each flag is refused before the load; a --target-frames of 0 asks
    # for the dataset's average length, which only the load gives.
    if root_joint is None and args.up_axis is not None:
        raise ValidationError("--up-axis applies only with --root-joint")
    _check_steps(target_frames=target or None, threshold=threshold)
    # Unset, the axis is align_walk_direction's own default.
    axis = () if args.up_axis is None else (args.up_axis,)

    # Each sample's next form replaces it here: with the loaded dataset
    # dropped, one copy of each is alive.
    dataset = _load(args)
    samples, class_index = list(dataset.samples), dataset.class_index
    del dataset

    if target == 0:
        target = average_length(samples)
    if target is not None:
        check_fits_in_memory(
            target * 3 * sum(s.joint_count for s in samples), len(samples)
        )
    for k, s in enumerate(samples):
        if root_joint is not None:
            # Align first: centering pins the root at the origin, which
            # erases the displacement the alignment needs.
            s = center_on_root(align_walk_direction(s, root_joint, *axis), root_joint)
        if target is not None:
            s = resample_time(s, target)
        samples[k] = s

    if threshold is not None:
        kept = set()
        for members in class_index.values():
            group = [samples[i] for i in members]
            # The identity's first cycle in file order is its exemplar.
            kept.update(
                s.sample_id for s in filter_gait_cycles(group, group[0], threshold)
            )
        samples = [s for s in samples if s.sample_id in kept]

    result = LabeledDataset.from_samples(samples)
    output = _required(args, "output")
    save_dataset(result, output, format=_format(args, output))
    log.info("wrote %d samples to %s", result.num_samples, output)
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    dataset = _load(args)
    rows = flatten_all(dataset.samples)
    labels = [s.label for s in dataset.samples]
    method, learn = learner_for(args.method, args.pca_dim)
    if learn is None:  # identity learns no transform
        raise ValidationError(f"learn supports mmc or pca-lda, got {method!r}")
    transform = learn(rows, labels)
    for finding in transform.warnings:
        log.warning("%s", finding)
    output = _required(args, "output")
    save_transform(transform, output)
    log.info("learned %s transform %d -> %d, wrote %s",
             method, transform.input_dim, transform.feature_dim, output)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = _load(args)
    plan = plan_folds(
        dataset, outer=args.outer_folds, inner=args.inner_folds, seed=args.seed
    )
    report = run_protocol(dataset, args.method, plan,
                          pair_policy=args.pair_policy.replace("-", "_"),
                          pca_dim=args.pca_dim, workers=args.workers)

    output = _required(args, "output")
    write_json(output, report.to_json_dict())
    stem = output[: -len(".json")] if output.endswith(".json") else output
    for kind, series in report.curves.items():
        atomic_write_text(f"{stem}.{kind}.csv", [curve_csv_text(series)])
    log.info("wrote report %s and %d curve files", output, len(report.curves))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    keys = SEPARABILITY_KEYS + RECOGNITION_KEYS
    rows = []
    for path in args.inputs:
        report = load_json(path, what="report")
        if not isinstance(report, dict):
            raise SchemaError(f"report {path}: a report must be a JSON object")
        method, headline = headline_of(report, f"report {path}")
        rows.append((method, ["n/a" if v is None else f"{v:.4f}"
                              for v in headline.values()]))

    # Each column is 10 wide, or one wider than its widest cell, so a
    # space always parts two cells.
    widths = [max(10, 1 + max(map(len, c))) for c in zip(*(r[1] for r in rows))]
    name_width = max(len("method"), max(len(r[0]) for r in rows))
    lines = ["method".ljust(name_width) + "".join(map(str.rjust, keys, widths))]
    lines.append("-" * len(lines[0]))
    for method, cells in rows:
        lines.append(method.ljust(name_width) + "".join(map(str.rjust, cells, widths)))
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    if args.output:
        atomic_write_text(args.output, [table])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marginforge",
        description="Gait feature learning, template matching, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def spelled(names):  # as a flag spells them
        return [name.replace("_", "-") for name in names]

    def common(p, dataset_files=True):
        p._negative_number_matcher = NEGATIVE_NUMBER
        p.add_argument("--config", help="JSON file with default option values")
        if dataset_files:
            p.add_argument("--format", choices=["auto", "jsonl", "csv"], default=None)

    p = sub.add_parser("gen", help="generate a synthetic labeled dataset")
    common(p)
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", type=int)
    p.add_argument("--joints", type=int, default=5)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--class-spread", type=float, default=5.0)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")

    p = sub.add_parser("preprocess", help="center, align, resample, filter")
    common(p)
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--root-joint", type=int)
    p.add_argument("--up-axis", choices=["x", "y", "z"])
    p.add_argument("--target-frames", type=int,
                   help="common cycle length; 0 means the dataset's average length")
    p.add_argument("--dtw-threshold", type=float)

    p = sub.add_parser("learn", help="fit a feature transform")
    common(p)
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--method", choices=spelled(TRANSFORM_METHODS), default="mmc")
    p.add_argument("--pca-dim", type=int)

    p = sub.add_parser("evaluate", help="run the nested cross-validation")
    common(p)
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--method", choices=spelled(METHODS), default="mmc")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outer-folds", type=int, default=3)
    p.add_argument("--inner-folds", type=int, default=10)
    p.add_argument("--pair-policy", choices=spelled(PAIR_POLICIES), default="all")
    p.add_argument("--pca-dim", type=int)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("compare", help="tabulate headline scalars of reports")
    common(p, dataset_files=False)
    p.add_argument("inputs", nargs="+", help="report JSON files")
    p.add_argument("--output")

    return parser


COMMANDS = {
    "gen": cmd_gen,
    "preprocess": cmd_preprocess,
    "learn": cmd_learn,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    # A level name reads as its number; any other name, even one of the
    # logging module's other attributes, as WARNING.
    level = logging.getLevelName(os.environ.get("MARGINFORGE_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _config_as_defaults(parser, args)
            args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except (MarginforgeError, OSError) as exc:
        print(f"marginforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 8)  # 8: an OSError


if __name__ == "__main__":
    sys.exit(main())
