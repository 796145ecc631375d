"""Command-line interface.

Subcommands: validate (parse and sanity-check a dataset), evaluate (full
bias report), compare (paired engine comparison only), baselines (rND/rKL/
rRD scores per list). Exit codes: 0 success, 1 input or validation error,
2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .dataset import load_dataset
from .errors import ConfigError, InputError
from .fairness import BASELINE_KINDS, DEFAULT_STEP, BaselineConfig, baseline_score
from .measures import DEFAULT_CUTOFF, DEFAULT_LOG_BASE, DEFAULT_PERSISTENCE, MeasureConfig
from .model import SIDES, transform_list
from .report import (
    DEFAULT_ALPHA,
    MODES,
    REPORT_FORMATS,
    ComparisonReport,
    evaluate,
    markdown_list,
    markdown_table,
    markdown_text,
    render_report,
    resolve_measures,
    to_json_text,
    tsv_text,
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


def _cmd_validate(args) -> str:
    ds = load_dataset(args.input)
    engines = ds.engine_ids()
    counts = {
        "n_queries": len(ds.query_table),
        "n_records": sum(len(run.lists) for run in ds.runs),
        "n_documents": ds.document_count(),
    }
    if args.output == "json":
        return to_json_text({"engines": engines, **counts}) + "\n"
    if args.output == "tsv":
        return tsv_text(("field", "value"), [("engines", ",".join(engines)), *counts.items()])
    bullets = [f"engines: {', '.join(engines)}"]
    bullets += [f"{key.removeprefix('n_')}: {n}" for key, n in counts.items()]
    return markdown_text("Dataset", markdown_list(bullets))


def _evaluation(args) -> ComparisonReport:
    ds = load_dataset(args.input)
    cfg = MeasureConfig(
        cutoff=args.cutoff, persistence=args.persistence, log_base=args.log_base
    )
    measures = resolve_measures(args.measures.split(","))
    return evaluate(ds, cfg, mode=args.mode, measures=measures, alpha=args.alpha)


def _cmd_evaluate(args) -> str:
    return render_report(_evaluation(args), args.output)


def _cmd_compare(args) -> str:
    rep = _evaluation(args)
    if len(rep.engines) < 2:
        raise InputError("compare needs at least 2 engines in the dataset")
    trimmed = replace(rep, summaries=(), one_sample=())
    return render_report(trimmed, args.output)


def _g1(args):
    """--g1 in the mode's label space, or by default that space's positive side."""
    labels = MODES[args.mode]
    if args.g1 is None:
        return SIDES[labels][0]
    try:
        return labels.from_str(args.g1)
    except InputError as exc:
        raise ConfigError(f"invalid --g1: {exc}") from None


_SCORE_COLUMNS = ("engine", "query_id", "status", "score", "detail")


def _cmd_baselines(args) -> str:
    ds = load_dataset(args.input)
    cfg = BaselineConfig(step=args.step, kind=args.baseline)
    g1 = _g1(args)
    scores = []
    summary = []
    for run in ds.runs:
        defined = []
        for query_id in run.query_ids():
            ranked = run.lists[query_id]
            if args.mode == "ideology":
                ranked = transform_list(ranked)
            try:
                score = baseline_score(ranked, g1, cfg)
                status, detail = "ok", ""
                defined.append(score)
            except InputError as exc:  # MeasureUndefinedError included
                score, status, detail = None, "undefined", str(exc)
            row = (run.engine_id, query_id, status, score, detail)
            scores.append(dict(zip(_SCORE_COLUMNS, row)))
        summary.append(
            {
                "engine": run.engine_id,
                "mean_score": math.fsum(defined) / len(defined) if defined else None,
                "defined": len(defined),
                "undefined": len(run.lists) - len(defined),
            }
        )
    doc = {
        "mode": args.mode,
        "config": {"baseline": args.baseline, "step": args.step, "g1": str(g1)},
        "engines": ds.engine_ids(),
        "scores": scores,
        "summary": summary,
    }
    if args.output == "json":
        return to_json_text(doc) + "\n"
    if args.output == "tsv":
        return tsv_text(_SCORE_COLUMNS, (row.values() for row in scores))
    return markdown_text(
        f"{args.baseline} baseline (step {args.step}, g1 = {g1})",
        markdown_table(
            ("engine", "query", "status", "score"),
            [(row["engine"], row["query_id"], row["status"], row["score"]) for row in scores],
        ),
        markdown_table(
            ("engine", "mean score", "defined", "undefined"), (row.values() for row in summary)
        ),
    )


_COMMANDS = {
    "validate": _cmd_validate,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "baselines": _cmd_baselines,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = _COMMANDS[args.command](args)
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:
            # The whole text is encoded before anything is written.
            message = f"stdout encoding {exc.encoding!r} cannot write the report: {exc.reason}"
            raise ConfigError(f"{message}; set PYTHONIOENCODING=utf-8") from None
    except (ConfigError, InputError) as exc:
        label, code = ("configuration", 2) if isinstance(exc, ConfigError) else ("input", 1)
        # Non-printable characters, such as a newline in an engine id, are escaped.
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
        print(f"{label} error: {message}", file=sys.stderr)
        return code
    return 0


def run() -> None:
    raise SystemExit(main())
