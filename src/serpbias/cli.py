"""Command-line interface.

Subcommands: validate (parse and sanity-check a dataset), evaluate (full
bias report), compare (paired engine comparison only), baselines (rND/rKL/
rRD scores per list). Each builds one library report and writes it through
`render_report`. Exit codes: 0 success, 1 input, validation or output error,
2 configuration error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .dataset import load_dataset
from .errors import ConfigError, InputError, choice
from .fairness import BASELINE_KINDS, DEFAULT_STEP, BaselineConfig, baseline_score
from .measures import DEFAULT_CUTOFF, DEFAULT_LOG_BASE, DEFAULT_PERSISTENCE, MeasureConfig
from .model import SIDES, IdeologyLabel, transform_list
from .report import (
    DEFAULT_ALPHA,
    MODES,
    REPORT_FORMATS,
    BaselineReport,
    BaselineScore,
    ComparisonReport,
    DatasetReport,
    evaluate,
    render_report,
    resolve_measures,
)


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError for a bad command line; subparsers share the class."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="serpbias",
        description="Quantify stance and ideological slant in ranked search results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", required=True, help="JSONL dataset path, or - for stdin")
        p.add_argument(
            "--output", choices=REPORT_FORMATS, default="json", help="output format"
        )

    def add_measure_flags(p):
        p.add_argument("--measures", default="p,rbp,dcg", help="comma-separated: p, rbp, dcg")
        p.add_argument(
            "--cutoff", type=int, default=DEFAULT_CUTOFF, help="cutoff for precision and DCG"
        )
        p.add_argument(
            "--persistence", type=float, default=DEFAULT_PERSISTENCE, help="RBP persistence"
        )
        p.add_argument("--log-base", type=float, default=DEFAULT_LOG_BASE, help="DCG log base")
        p.add_argument("--mode", choices=MODES, default="stance", help="label space to measure")
        p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="significance level")

    p_validate = sub.add_parser("validate", help="parse the dataset and report its shape")
    add_io(p_validate)

    p_evaluate = sub.add_parser("evaluate", help="per-engine slant, aggregates, and t-tests")
    add_io(p_evaluate)
    add_measure_flags(p_evaluate)

    p_compare = sub.add_parser("compare", help="paired t-tests between engines")
    add_io(p_compare)
    add_measure_flags(p_compare)

    p_base = sub.add_parser("baselines", help="rND/rKL/rRD scores per (engine, query)")
    add_io(p_base)
    p_base.add_argument("--baseline", choices=BASELINE_KINDS, default=BaselineConfig.kind)
    p_base.add_argument("--step", type=int, default=DEFAULT_STEP, help="evaluation-point spacing")
    p_base.add_argument("--mode", choices=MODES, default="stance", help="label space to measure")
    p_base.add_argument(
        "--g1",
        default=None,
        help="protected group label (default: pro, or conservative in ideology mode)",
    )
    return parser


def _evaluation(args) -> ComparisonReport:
    ds = load_dataset(args.input)
    cfg = MeasureConfig(
        cutoff=args.cutoff, persistence=args.persistence, log_base=args.log_base
    )
    measures = resolve_measures(args.measures.split(","))
    return evaluate(ds, cfg, mode=args.mode, measures=measures, alpha=args.alpha)


def _comparison(args) -> ComparisonReport:
    rep = _evaluation(args)
    if len(rep.engines) < 2:
        raise InputError("compare needs at least 2 engines in the dataset")
    return ComparisonReport(
        rep.mode, rep.config, rep.engines, rep.n_queries, rep.warnings, (), (), rep.paired_tests
    )


def _g1(args):
    """--g1 in the mode's label space, or by default that space's positive side.
    No list carries `excluded` (see transform_list), so it is no group."""
    labels = MODES[args.mode]
    if args.g1 is None:
        return SIDES[labels][0]
    if labels is IdeologyLabel and args.g1 == IdeologyLabel.EXCLUDED.value:
        raise ConfigError(
            "invalid --g1: excluded documents are scored as not-relevant, "
            "so no list carries the excluded label"
        )
    groups = {label.value: label for label in labels if label is not IdeologyLabel.EXCLUDED}
    try:
        return choice(f"{args.mode} label", args.g1, groups)
    except ConfigError as exc:
        raise ConfigError(f"invalid --g1: {exc}") from None


def _baselines(args) -> BaselineReport:
    ds = load_dataset(args.input)
    cfg = BaselineConfig(step=args.step, kind=args.baseline)
    g1 = _g1(args)
    # This per-list loop belongs in the library, next to `evaluate`. It stays
    # here while perfbench/trace.py times it by patching cli.baseline_score and
    # cli.transform_list, until the library records its own stage timings.
    scores = []
    for run in ds.runs:
        for query_id, ranked in run.lists.items():
            if args.mode == "ideology":
                ranked = transform_list(ranked)
            try:
                row = (run.engine_id, query_id, "ok", baseline_score(ranked, g1, cfg))
            except InputError as exc:  # MeasureUndefinedError included
                row = (run.engine_id, query_id, "undefined", None, str(exc))
            scores.append(BaselineScore(*row))
    engines = tuple(ds.engine_ids())
    return BaselineReport(args.mode, cfg.kind, cfg.step, str(g1), engines, tuple(scores))


# The report each subcommand builds from its parsed arguments.
_REPORTS = {
    "validate": lambda args: DatasetReport.from_dataset(load_dataset(args.input)),
    "evaluate": _evaluation,
    "compare": _comparison,
    "baselines": _baselines,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = render_report(_REPORTS[args.command](args), args.output)
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except UnicodeEncodeError as exc:
            # The whole text is encoded before anything is written.
            message = f"stdout encoding {exc.encoding!r} cannot write the report: {exc.reason}"
            raise ConfigError(f"{message}; set PYTHONIOENCODING=utf-8") from None
        except OSError as exc:  # a closed pipe or a full disk
            # What stdout still buffers goes to the null device, so the exit flush stays quiet.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print(f"output error: {exc.strerror or exc}", file=sys.stderr)
            return 1
    except (ConfigError, InputError) as exc:
        label, code = ("configuration", 2) if isinstance(exc, ConfigError) else ("input", 1)
        # Non-printable characters, such as a newline in an engine id, are escaped.
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
        print(f"{label} error: {message}", file=sys.stderr)
        return code
    return 0


def run() -> None:
    """The console script and `python -m serpbias`: main, then exit with its code."""
    code = main()
    # Objects in the permanent generation are skipped by the collection that
    # interpreter finalization forces, which would otherwise free the
    # package's objects one by one just before the process ends. Streams are
    # still flushed, and atexit handlers and refcount finalizers still run.
    # Under -X dev the full collection stays, so a file leaked in a reference
    # cycle still warns.
    if not sys.flags.dev_mode:
        gc.freeze()
    raise SystemExit(code)
