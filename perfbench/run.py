"""Benchmark the serpbias CLI on one seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is taken from ./src. The run
generates the workload's dataset from the seed and computes the expected
report from the generated records. It then runs the CLI for S seconds in a
closed loop with one client: it starts one process, drains its stdout,
waits for it to exit, checks its output, and only then starts the next.

With --trace 0 the last line of stdout is a JSON object carrying the
end-to-end metrics. Every invocation is bracketed by runs of a fixed
reference task (perfbench/reference.py), and wall_ref and cpu_ref are the
medians, over the run, of the invocation's wall and CPU time divided by
the mean of its two brackets. On a shared host the CPU runs 20-60% slower
for stretches of seconds to minutes; raw times follow those stretches,
while the ratio to a task measured a moment before and after does not.
setup_s is the set-up time of `serpbias validate` on a one-record file,
spawned after every invocation, scaled the same way and expressed in
seconds at a nominal host speed: REFERENCE_SECONDS per run of the
reference task. The raw wall_s, cpu_s, docs_per_s and set-up time are
printed above the JSON line.

With --trace 1 the loop alternates one untraced CLI invocation with one
traced in-process pass (perfbench/trace.py), and the JSON carries the
per-layer metrics, as medians over passes.

Every invocation's stdout must match the oracle and the digest of the
run's first output; `failed` counts those that do not, or that exit
non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.generate import Shape, generate  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
MIN_INVOCATIONS = 3
# setup_s is reported at the speed of a host on which one run of the
# reference task takes this long (see the module docstring).
REFERENCE_SECONDS = 0.2

E2E_UNITS = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "dataset.parse_s": "s",
    "dataset.docs_per_s": "docs/s",
    "dataset.json_floor_s": "s",
    "dataset.parse_over_json": "ratio",
    "dataset.records": "count",
    "dataset.docs": "count",
    "dataset.load_s": "s",
    "dataset.shared_doc_share": "ratio",
    "model.relabel_s": "s",
    "model.relabel_docs": "count",
    "model.excluded_docs": "count",
    "measures.score_s.precision": "s",
    "measures.score_s.rbp": "s",
    "measures.score_s.dcg": "s",
    "bias.summarize_s.precision": "s",
    "bias.summarize_s.rbp": "s",
    "bias.summarize_s.dcg": "s",
    "bias.self_s": "s",
    "bias.lists_scored": "count",
    "stats.one_sample_s": "s",
    "stats.paired_s": "s",
    "stats.tests": "count",
    "stats.degenerate": "count",
    "report.evaluate_s": "s",
    "report.self_s": "s",
    "report.render_s": "s",
    "report.render_bytes": "bytes",
    "fairness.baseline_s": "s",
    "fairness.normalizer_s": "s",
    "fairness.lists": "count",
    "fairness.undefined": "count",
    "fairness.normalizer_distinct_share": "ratio",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "interp.gc_pause_s": "s",
    "interp.gc_collections": "count",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.attributed_share": "ratio",
}


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes


def spawn(argv: list[str], err_path: Path) -> Invocation:
    """Run `python ARGV` to completion; time it from spawn to exit with stdout drained."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        stdout=out,
    )


def cli(args: list[str]) -> list[str]:
    return ["-m", "serpbias", *args]


def reference(err_path: Path) -> Invocation:
    inv = spawn([str(REFERENCE)], err_path)
    if inv.exit_code != 0:
        raise RuntimeError(f"reference task exited with {inv.exit_code}")
    return inv


class Tally:
    """Counts invocations and failures; checks each distinct output once.

    An output fails when the process exits non-zero, when the check returns
    problems, or when its digest differs from the tally's first output of a
    process that exited 0: all invocations of one workload in one run must
    print the same bytes.
    """

    def __init__(self, check):
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.first_digest = None
        self.problems: list[str] = []
        self._verdicts: dict[str, list[str]] = {}

    def record(self, exit_code: int, stdout: bytes) -> bool:
        self.attempted += 1
        digest = hashlib.sha256(stdout).hexdigest()
        if exit_code != 0:
            problems = [f"exit code {exit_code}"]
        else:
            if self.first_digest is None:
                self.first_digest = digest
            if digest not in self._verdicts:
                self._verdicts[digest] = self.check(stdout.decode("utf-8", "replace"))
            problems = list(self._verdicts[digest])
            if digest != self.first_digest:
                problems.append(f"stdout digest {digest[:12]} differs from the first output")
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
        return not problems


def _validate_check(text: str) -> list[str]:
    try:
        info = json.loads(text)
        ok = info["n_records"] == 1 and info["n_documents"] == 10
    except (ValueError, KeyError, TypeError):
        ok = False
    return [] if ok else [f"unexpected validate output {text[:200]!r}"]


def run_untraced(workload, path: str, docs: int, seconds: float, work: Path, tally: Tally):
    one = work / "one.jsonl"
    generate(Shape(engines=1, queries=1, list_len=10), 0, str(one))
    validate = cli(["validate", "--input", str(one)])
    err = work / "stderr.txt"
    setup_tally = Tally(_validate_check)
    spawn(validate, err)  # let bytecode caches fill
    refs = [reference(err)]
    runs, setups = [], []
    start = time.perf_counter()
    while len(runs) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        inv = spawn(cli(workload.argv(path)), err)
        tally.record(inv.exit_code, inv.stdout)
        runs.append(inv)
        refs.append(reference(err))
        inv = spawn(validate, err)
        setup_tally.record(inv.exit_code, inv.stdout)
        setups.append(inv)
    refs.append(reference(err))
    # Invocation i sits between reference runs i and i + 1, and set-up
    # sample i between reference runs i + 1 and i + 2.
    mid = [(a.wall_s + b.wall_s) / 2 for a, b in zip(refs, refs[1:])]
    mid_cpu = [(a.cpu_s + b.cpu_s) / 2 for a, b in zip(refs, refs[1:])]
    walls = sorted(r.wall_s for r in runs)
    metrics = {
        "wall_ref": statistics.median(r.wall_s / m for r, m in zip(runs, mid)),
        "cpu_ref": statistics.median(r.cpu_s / m for r, m in zip(runs, mid_cpu)),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": REFERENCE_SECONDS
        * statistics.median(v.wall_s / m for v, m in zip(setups, mid[1:])),
    }
    wall_s = statistics.median(walls)
    notes = [
        f"invocations: {len(runs)}; set-up samples: {len(setups)}",
        f"wall_s = {wall_s:.6g} s (median; min {walls[0]:.4g}, max {walls[-1]:.4g})",
        f"cpu_s = {statistics.median(r.cpu_s for r in runs):.6g} s (median)",
        f"docs_per_s = {docs / wall_s:.6g} docs/s (at the median wall_s)",
        f"raw set-up time = {statistics.median(v.wall_s for v in setups):.6g} s (median)",
        f"reference task: median {statistics.median(r.wall_s for r in refs):.4g} s "
        f"over {len(refs)} runs",
    ]
    return metrics, [tally, setup_tally], notes


def run_traced(workload, path: str, shared: float, seconds: float, work: Path, tally: Tally):
    from perfbench.trace import import_serpbias, traced_pass

    sb = import_serpbias(SRC)
    untraced, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        inv = spawn(cli(workload.argv(path)), work / "stderr.txt")
        tally.record(inv.exit_code, inv.stdout)
        untraced.append(inv.wall_s)
        figures, text, code = traced_pass(sb, path, workload.argv(path))
        tally.record(code, text.encode("utf-8"))
        passes.append(figures)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["dataset.shared_doc_share"] = shared
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["cli.main_s"] - metrics["trace.untraced_wall_s"]
    notes = [
        f"traced passes: {len(passes)}; "
        f"untraced CLI median {metrics['trace.untraced_wall_s']:.4f} s "
        f"beside traced in-process cli.main {metrics['cli.main_s']:.4f} s",
        "share of cli.main in the self time of library layers (rest is cli.self_s): "
        f"{metrics['trace.attributed_share']:.4f}",
    ]
    return metrics, [tally], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "serpbias" / "__init__.py").is_file():
        print(f"perfbench: no serpbias package under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        path = str(work / "data.jsonl")
        gen = generate(workload.shape, args.seed, path)
        expected = workload.expected(gen.records)
        tally = Tally(lambda text: workload.check(expected, text))
        if args.trace:
            metrics, tallies, notes = run_traced(
                workload, path, gen.shared_doc_share, args.seconds, work, tally
            )
            units = LAYER_UNITS
        else:
            metrics, tallies, notes = run_untraced(
                workload, path, workload.shape.docs, args.seconds, work, tally
            )
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from the declared set: {set(metrics) ^ set(units)}")

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    shape = workload.shape
    print(f"workload {workload.name}: {shape}, {shape.docs} docs, seed {args.seed}")
    print(f"shared doc ids: {gen.shared_doc_share:.4f} of document occurrences")
    for note in notes:
        print(note)
    for problem in [p for t in tallies for p in t.problems][:20]:
        print(f"FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted} invocations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
