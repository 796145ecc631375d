"""Per-layer timing of one workload, in process.

The layers are the modules of serpbias. Spans are recorded from this file
only: the public functions that one module calls in another are replaced,
for the length of a pass, by wrappers that time each call. A layer's self
time is its spans' duration minus the duration of the timed calls nested in
them. Nothing in serpbias itself changes.

One pass runs, on the workload's dataset:

1. bare `json.loads` of every pre-read line (the decoding floor);
2. `parse_dataset` over the same lines;
3. `cli.main(argv)` with stdout captured and every wrapper installed, and
   with `gc.callbacks` timing each collection.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

TIMED_LAYERS = (
    "dataset.load", "model.relabel", "measures.precision", "measures.rbp", "measures.dcg",
    "bias.summarize.precision", "bias.summarize.rbp", "bias.summarize.dcg",
    "stats.one_sample", "stats.paired", "report.evaluate", "report.render",
    "fairness.baseline", "fairness.normalizer",
)


def import_serpbias(src: Path) -> SimpleNamespace:
    """Import the serpbias modules from src, refusing any other copy on the path."""
    sys.path.insert(0, str(src))
    package = importlib.import_module("serpbias")
    if Path(package.__file__).resolve().parent != (src / "serpbias").resolve():
        raise ImportError(f"serpbias imported from {package.__file__}, not from {src}")
    # The package re-exports a function named bias, so modules are taken by full name.
    names = ("bias", "cli", "dataset", "fairness", "report")
    return SimpleNamespace(**{n: importlib.import_module(f"serpbias.{n}") for n in names})


class Tracer:
    """Totals, self times and call counts per span label."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.kept = defaultdict(list)  # label -> [(args, outcome)] for wrappers with keep
        self._open: list[float] = []  # time of timed children, per open span

    def wrap(self, fn, label, keep=False):
        label_of = label if callable(label) else None
        total, self_time, calls, kept, open_spans = (
            self.total, self.self_time, self.calls, self.kept, self._open,
        )

        def traced(*args, **kwargs):
            name = label_of(*args) if label_of else label
            outcome = None
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                total[name] += elapsed
                self_time[name] += elapsed - children
                calls[name] += 1
                if keep:
                    kept[name].append((args, outcome))

        return traced


@contextlib.contextmanager
def _patched(tracer: Tracer, sb):
    cli, report, bias, fairness = sb.cli, sb.report, sb.bias, sb.fairness

    def summarize_label(run, cfg):
        return f"bias.summarize.{cfg.measure_kind}"

    targets = [
        (cli, "load_dataset", "dataset.load", False),
        (cli, "evaluate", "report.evaluate", False),
        (cli, "render_report", "report.render", True),
        (cli, "baseline_score", "fairness.baseline", True),
        (cli, "transform_list", "model.relabel", True),
        (report, "transform_list", "model.relabel", True),
        (report, "summarize_run", summarize_label, True),
        (report, "one_sample_ttest", "stats.one_sample", True),
        (report, "paired_ttest", "stats.paired", True),
        (bias, "precision_at", "measures.precision", False),
        (bias, "rbp", "measures.rbp", False),
        (bias, "dcg_at", "measures.dcg", False),
        (fairness, "normalizer_z", "fairness.normalizer", True),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for (module, attr, label, keep), (_, _, fn) in zip(targets, originals):
            setattr(module, attr, tracer.wrap(fn, label, keep))
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


@contextlib.contextmanager
def _gc_timer(pauses: list[float]):
    started = []

    def callback(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        elif started:
            pauses.append(time.perf_counter() - started.pop())

    gc.callbacks.append(callback)
    try:
        yield
    finally:
        gc.callbacks.remove(callback)


def _kept_errors(tracer: Tracer, label: str) -> int:
    return sum(1 for _, outcome in tracer.kept[label] if isinstance(outcome, Exception))


def traced_pass(sb, path: str, argv: list[str]) -> tuple[dict[str, float], str, int]:
    """Run one pass; return the per-layer figures, cli.main's stdout and exit code.

    The caller's own objects are frozen out of garbage collection for the
    pass, so collections cost what they would in a fresh CLI process.
    """
    gc.collect()
    gc.freeze()
    try:
        return _pass(sb, path, argv)
    finally:
        gc.unfreeze()


def _pass(sb, path: str, argv: list[str]) -> tuple[dict[str, float], str, int]:
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    start = time.perf_counter()
    for line in lines:
        json.loads(line)
    json_floor = time.perf_counter() - start
    start = time.perf_counter()
    ds = sb.dataset.parse_dataset(lines)
    parse = time.perf_counter() - start
    records = sum(len(run.lists) for run in ds.runs)
    docs = ds.document_count()
    del ds, lines
    gc.collect()

    tracer = Tracer()
    pauses: list[float] = []
    out = io.StringIO()
    with _patched(tracer, sb), _gc_timer(pauses), contextlib.redirect_stdout(out):
        code = tracer.wrap(sb.cli.main, "cli.main")(argv)

    t, s, calls, kept = tracer.total, tracer.self_time, tracer.calls, tracer.kept
    relabeled = [args[0] for args, _ in kept["model.relabel"]]
    normalizer_keys = {args[1:3] for args, _ in kept["fairness.normalizer"]}
    main = t["cli.main"]
    figures = {
        "dataset.parse_s": parse,
        "dataset.docs_per_s": docs / parse,
        "dataset.json_floor_s": json_floor,
        "dataset.parse_over_json": parse / json_floor,
        "dataset.records": records,
        "dataset.docs": docs,
        "dataset.load_s": t["dataset.load"],
        "model.relabel_s": t["model.relabel"],
        "model.relabel_docs": sum(len(r) for r in relabeled),
        "model.excluded_docs": sum(
            1
            for r in relabeled
            if r.leaning.value == "both_or_neither"
            for doc in r.docs
            if doc.stance.value in ("pro", "against")
        ),
        "bias.self_s": sum(s[f"bias.summarize.{k}"] for k in ("precision", "rbp", "dcg")),
        "bias.lists_scored": sum(
            len(summary.per_query)
            for k in ("precision", "rbp", "dcg")
            for _, summary in kept[f"bias.summarize.{k}"]
        ),
        "stats.one_sample_s": t["stats.one_sample"],
        "stats.paired_s": t["stats.paired"],
        "stats.tests": calls["stats.one_sample"] + calls["stats.paired"],
        "stats.degenerate": _kept_errors(tracer, "stats.one_sample")
        + _kept_errors(tracer, "stats.paired"),
        "report.evaluate_s": t["report.evaluate"],
        "report.self_s": s["report.evaluate"],
        "report.render_s": t["report.render"],
        "report.render_bytes": sum(
            len(text.encode("utf-8")) for _, text in kept["report.render"]
        ),
        "fairness.baseline_s": t["fairness.baseline"],
        "fairness.normalizer_s": t["fairness.normalizer"],
        "fairness.lists": calls["fairness.baseline"],
        "fairness.undefined": _kept_errors(tracer, "fairness.baseline"),
        "fairness.normalizer_distinct_share": (
            len(normalizer_keys) / calls["fairness.baseline"] if calls["fairness.baseline"] else 0.0
        ),
        "cli.main_s": main,
        "cli.self_s": s["cli.main"],
        "interp.gc_pause_s": sum(pauses),
        "interp.gc_collections": len(pauses),
        "trace.attributed_share": sum(s[label] for label in TIMED_LAYERS) / main,
    }
    for kind in ("precision", "rbp", "dcg"):
        figures[f"measures.score_s.{kind}"] = t[f"measures.{kind}"]
        figures[f"bias.summarize_s.{kind}"] = t[f"bias.summarize.{kind}"]
    return figures, out.getvalue(), code
