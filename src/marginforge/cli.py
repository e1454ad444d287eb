"""Command-line front end.

Subcommands wire the pipeline end to end: gen makes a synthetic dataset,
preprocess normalizes poses, learn fits a feature transform, evaluate
runs the nested cross-validation, and compare tabulates headline scalars
across report files.

Every command reads an optional JSON config file whose keys mirror the
long flag names (underscored); explicit flags win over the file, and a
key that names none of the command's options is an error. Outputs
are written atomically. Errors exit with a class-specific code and a
single machine-parsable stderr line. MARGINFORGE_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
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
from .errors import (
    AlignmentError,
    ContractError,
    DegenerateDataError,
    MarginforgeError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .learners import learner_for, save_transform
from .preprocess import (
    align_walk_direction,
    average_length,
    center_on_root,
    filter_gait_cycles,
    resample_time,
)
from .protocol import (
    ProtocolConfig,
    curve_csv_text,
    plan_folds,
    run_protocol,
)

log = logging.getLogger("marginforge")

EXIT_CODES = (
    (ValidationError, 2),
    (ContractError, 2),
    (ParseError, 3),
    (SchemaError, 4),
    (AlignmentError, 5),
    (DegenerateDataError, 6),
    (MarginforgeError, 1),
    (OSError, 8),
)


class _Options:
    """Flag values merged over a JSON config file; flags override."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._config = {}
        config_path = self._args.get("config")
        if config_path:
            obj = load_json(config_path, what="config")
            if not isinstance(obj, dict):
                raise ValidationError("config file must hold a JSON object")
            options = set(self._args) - {"command", "config"}
            unknown = sorted(set(obj) - options)
            if unknown:
                raise ValidationError(
                    f"unknown config keys for {self._args['command']}: "
                    + ", ".join(repr(k) for k in unknown)
                )
            self._config = obj

    def get(self, key: str, default=None, kind=None):
        """The flag, as argparse typed it, else the config file's value,
        else default (a null in the file counts as unset). A file value is
        read as kind (int, float or str) by _jsonio.json_as when one is
        given, and refused when it is not one."""
        value = self._args.get(key)
        if value is None:
            value = self._config.get(key)
            if value is not None and kind is not None:
                try:
                    value = json_as(value, kind)
                except ValueError:
                    raise ValidationError(
                        f"option --{key.replace('_', '-')} must be {kind.__name__}, "
                        f"got {value!r}"
                    ) from None
        return default if value is None else value

    def require(self, key: str, kind=None):
        value = self.get(key, kind=kind)
        if value is None:
            raise ValidationError(f"missing required option --{key.replace('_', '-')}")
        return value


def _format(opts: _Options, path: str) -> str:
    explicit = opts.get("format", kind=str)
    if explicit and explicit != "auto":
        return explicit
    return "csv" if path.endswith(".csv") else "jsonl"


def _load(opts: _Options) -> LabeledDataset:
    path = opts.require("input", str)
    return load_dataset(path, format=_format(opts, path))


def cmd_gen(opts: _Options) -> int:
    spec = SyntheticSpec(
        classes=opts.require("classes", int),
        samples_per_class=opts.require("per_class", int),
        joints=opts.get("joints", 5, int),
        frames=opts.get("frames", 10, int),
        class_spread=opts.get("class_spread", 5.0, float),
        noise=opts.get("noise", 0.5, float),
        seed=opts.get("seed", 0, int),
    )
    dataset = generate_synthetic(spec)
    output = opts.require("output", str)
    save_dataset(dataset, output, format=_format(opts, output))
    log.info("wrote %d samples to %s", dataset.num_samples, output)
    return 0


def cmd_preprocess(opts: _Options) -> int:
    # Each sample's next form replaces it here: with the loaded dataset
    # dropped, one copy of each is alive.
    dataset = _load(opts)
    samples, class_index = list(dataset.samples), dataset.class_index
    del dataset

    root_joint = opts.get("root_joint", kind=int)
    if root_joint is None and opts.get("up_axis") is not None:
        raise ValidationError("--up-axis applies only with --root-joint")
    up_axis = opts.get("up_axis", "y", str)
    target = opts.get("target_frames", kind=int)
    if target == 0:  # 0 asks for the dataset's average length
        target = average_length(samples)
    if target is not None:
        check_fits_in_memory(
            target * 3 * sum(s.joint_count for s in samples), len(samples)
        )
    for k, s in enumerate(samples):
        if root_joint is not None:
            # Align first: centering pins the root at the origin, which
            # erases the displacement the alignment needs.
            s = center_on_root(align_walk_direction(s, root_joint, up_axis), root_joint)
        if target is not None:
            s = resample_time(s, target)
        samples[k] = s

    threshold = opts.get("dtw_threshold", kind=float)
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
    output = opts.require("output", str)
    save_dataset(result, output, format=_format(opts, output))
    log.info("wrote %d samples to %s", result.num_samples, output)
    return 0


def cmd_learn(opts: _Options) -> int:
    dataset = _load(opts)
    rows = flatten_all(dataset.samples)
    labels = [s.label for s in dataset.samples]
    method, learn = learner_for(
        opts.get("method", "mmc", str), opts.get("pca_dim", kind=int)
    )
    if learn is None:  # identity learns no transform
        raise ValidationError(f"learn supports mmc or pca-lda, got {method!r}")
    transform = learn(rows, labels)
    for finding in transform.warnings:
        log.warning("%s", finding)
    output = opts.require("output", str)
    save_transform(transform, output)
    log.info("learned %s transform %d -> %d, wrote %s",
             method, transform.input_dim, transform.feature_dim, output)
    return 0


def cmd_evaluate(opts: _Options) -> int:
    dataset = _load(opts)
    plan = plan_folds(
        dataset,
        outer=opts.get("outer_folds", 3, int),
        inner=opts.get("inner_folds", 10, int),
        seed=opts.get("seed", 0, int),
    )
    config = ProtocolConfig(
        pair_policy=opts.get("pair_policy", "all", str).replace("-", "_"),
        pca_dim=opts.get("pca_dim", kind=int),
        workers=opts.get("workers", 1, int),
    )
    report = run_protocol(dataset, opts.get("method", "mmc", str), plan, config)

    output = opts.require("output", str)
    write_json(output, report.to_json_dict())
    stem = output[: -len(".json")] if output.endswith(".json") else output
    for kind, series in report.curves.items():
        atomic_write_text(f"{stem}.{kind}.csv", [curve_csv_text(series)])
    log.info("wrote report %s and %d curve files", output, len(report.curves))
    return 0


def cmd_compare(opts: _Options) -> int:
    keys = ("dbi", "di", "sc", "fdr", "ccr", "eer", "auc", "map")
    rows = []
    for path in opts.require("inputs"):
        report = load_json(path, what="report")
        if not isinstance(report, dict):
            raise SchemaError(f"report {path}: a report must be a JSON object")
        try:
            for section in ("config", "headline"):
                if not isinstance(report[section], dict):
                    raise SchemaError(f"report {path}: {section} is not an object")
            method = report["config"]["method"]
            values = [report["headline"][k] for k in keys]
        except KeyError as exc:
            raise SchemaError(f"report {path}: missing field {exc}") from None
        if not isinstance(method, str):
            raise SchemaError(f"report {path}: config.method is not a string")
        numbers = []
        for key, value in zip(keys, values):
            try:
                numbers.append(None if value is None else json_as(value, float))
            except ValueError:
                raise SchemaError(
                    f"report {path}: headline.{key} is not a number"
                ) from None
        rows.append((method, numbers))

    name_width = max(len("method"), max(len(r[0]) for r in rows))
    header = "method".ljust(name_width) + "".join(k.rjust(10) for k in keys)
    lines = [header, "-" * len(header)]
    for method, values in rows:
        lines.append(
            method.ljust(name_width)
            + "".join("n/a".rjust(10) if v is None else f"{v:10.4f}" for v in values)
        )
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    output = opts.get("output", kind=str)
    if output:
        atomic_write_text(output, [table])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marginforge",
        description="Gait feature learning, template matching, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset_files=True):
        p.add_argument("--config", help="JSON file with default option values")
        if dataset_files:
            p.add_argument("--format", choices=["auto", "jsonl", "csv"], default=None)

    p = sub.add_parser("gen", help="generate a synthetic labeled dataset")
    common(p)
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", type=int)
    p.add_argument("--joints", type=int)
    p.add_argument("--frames", type=int)
    p.add_argument("--class-spread", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int)
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
    p.add_argument("--method", choices=["mmc", "pca-lda"])
    p.add_argument("--pca-dim", type=int)

    p = sub.add_parser("evaluate", help="run the nested cross-validation")
    common(p)
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--method", choices=["mmc", "pca-lda", "identity"])
    p.add_argument("--seed", type=int)
    p.add_argument("--outer-folds", type=int)
    p.add_argument("--inner-folds", type=int)
    p.add_argument("--pair-policy", choices=["all", "class-best"])
    p.add_argument("--pca-dim", type=int)
    p.add_argument("--workers", type=int)

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
        opts = _Options(args)
        return COMMANDS[args.command](opts)
    except (MarginforgeError, OSError) as exc:
        print(f"marginforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
