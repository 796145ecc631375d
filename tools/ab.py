"""Benchmark a parent commit against the working tree in alternating pairs.

    python3 tools/ab.py --parent REV --workload W --seed N

Run from anywhere inside the repository. The parent side is `git archive REV`
exported to a temporary directory, removed when the run ends; the change side
is the working tree. Each of ten pairs runs `perfbench/run.py --trace 0` once
on each side for BENCHMARK.json's `run_seconds`, the parent first in odd pairs
and the change first in even pairs. A gain claim needs at least ten pairs at
the benchmark's own run length, so neither is a setting. Both
sides must run the same benchmark, so the tool refuses to start when
`perfbench/` or `BENCHMARK.json` differ between REV and the working tree, and
it stops at the first run that is not `correct: true` with `failed` 0.

For each end-to-end metric of BENCHMARK.json it prints the parent's median
and quartiles, the change's median, the relative change, the pairs in which
the change read lower and higher, and the metric's bound. `gain` says whether
there are at least ten pairs, the change wins at least nine tenths of them
(ties count for neither side) and the medians differ by more than the
parent's interquartile range;
`within bound` says whether the change's median is worse than the parent's
by no more than the bound.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SHARED = ("perfbench", "BENCHMARK.json")
PAIRS = 10


class Summary(NamedTuple):
    name: str
    unit: str
    parent_q1: float
    parent_median: float
    parent_q3: float
    change_median: float
    relative: float  # change median / parent median - 1
    lower: int  # pairs in which the change read lower than the parent
    higher: int
    bound: float
    gain: bool
    within_bound: bool


def summarize(pairs: list[tuple[float, float]], metric: dict) -> Summary:
    """One metric's (parent, change) readings, pair by pair, against its
    BENCHMARK.json entry (name, unit, better, bound)."""
    parent = [p for p, _ in pairs]
    change = statistics.median(c for _, c in pairs)
    q1, median, q3 = statistics.quantiles(parent, n=4)
    lower = sum(c < p for p, c in pairs)
    higher = sum(c > p for p, c in pairs)
    sign = 1 if metric["better"] == "lower" else -1  # sign * (parent - change) > 0: better
    wins = lower if sign == 1 else higher
    return Summary(
        name=metric["name"],
        unit=metric["unit"],
        parent_q1=q1,
        parent_median=median,
        parent_q3=q3,
        change_median=change,
        relative=change / median - 1,
        lower=lower,
        higher=higher,
        bound=metric["bound"],
        gain=len(pairs) >= PAIRS and 10 * wins >= 9 * len(pairs)
        and sign * (median - change) > q3 - q1,
        within_bound=sign * (change - median) <= metric["bound"] * abs(median),
    )


def benchmark_differs(rev: str) -> bool:
    """Whether perfbench/ or BENCHMARK.json differ between rev and the working
    tree, untracked files under them included. Exits 2 when git cannot compare."""
    diff = subprocess.run(["git", "diff", "--quiet", rev, "--", *SHARED], cwd=ROOT)
    if diff.returncode not in (0, 1):  # git has named the problem
        raise SystemExit(2)
    untracked = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard", "--", *SHARED],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return diff.returncode == 1 or bool(untracked)


def export(rev: str, directory: str) -> None:
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", directory], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise subprocess.CalledProcessError(archive.returncode, archive.args)


def run_side(root: Path, args, seconds: float) -> dict | None:
    """The result JSON of one untraced benchmark run from root; None when the
    run exits non-zero or prints no result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    if benchmark_differs(args.parent):
        print(f"ab: {' and '.join(SHARED)} differ between {args.parent} and the working "
              "tree; both sides must run the same benchmark", file=sys.stderr)
        return 2

    metrics = bench["end_to_end"]
    readings = {m["name"]: [] for m in metrics}
    # On SIGTERM, exit as on Ctrl-C: the running side's process is killed
    # and the exported parent removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as parent_root:
        export(args.parent, parent_root)
        roots = {"parent": Path(parent_root), "change": ROOT}
        for pair in range(1, PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            values = {}
            for side in order:
                result = run_side(roots[side], args, seconds)
                if result is None or result.get("correct") is not True or result.get("failed"):
                    print(f"ab: pair {pair}: the {side} run is not correct: true with failed 0",
                          file=sys.stderr)
                    return 1
                values[side] = {name: m["value"] for name, m in result["metrics"].items()}
            for name in readings:
                readings[name].append((values["parent"][name], values["change"][name]))
            shown = ", ".join(
                f"{name} {values['parent'][name]:.4g} -> {values['change'][name]:.4g}"
                for name in readings
            )
            print(f"pair {pair} ({order[0]} first): {shown}", flush=True)

    print(f"workload {args.workload}, seed {args.seed}, {PAIRS} pairs of "
          f"{seconds:g} s, parent {args.parent} against the working tree")
    print("metric | parent median [q1, q3] | change median | change | lower/higher | bound "
          "| gain | within bound")
    for metric in metrics:
        s = summarize(readings[metric["name"]], metric)
        print(f"{s.name} ({s.unit}) | {s.parent_median:.4g} [{s.parent_q1:.4g}, "
              f"{s.parent_q3:.4g}] | {s.change_median:.4g} | {s.relative:+.1%} | "
              f"{s.lower}/{s.higher} | {s.bound:.0%} | {'yes' if s.gain else 'no'} | "
              f"{'yes' if s.within_bound else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
