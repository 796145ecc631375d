"""The benchmark's workloads: dataset shape, CLI flags and output check.

Query counts set the run length. They are sized so one CLI invocation takes
under a second on a 2-core VM with CPython 3.11, which gives each run a few
dozen invocations for a steady median. Engines and list length define the
workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .generate import Shape


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    args: tuple[str, ...]  # CLI flags after the subcommand and --input
    command: str
    mode: str
    fmt: str
    why: str

    def argv(self, path: str) -> list[str]:
        return [self.command, "--input", path, *self.args]

    def expected(self, records) -> dict:
        if self.command == "baselines":
            return oracle.expected_baselines_rkl(records, step=1)
        return oracle.expected_evaluate(records, self.mode)

    def check(self, expected: dict, text: str) -> list[str]:
        """Every way text differs from the expected report; empty when it matches."""
        try:
            if self.fmt == "markdown":
                return oracle.compare(
                    expected, oracle.parse_baselines_markdown(text), oracle.short_forms
                )
            parse = oracle.parse_evaluate_json if self.fmt == "json" else oracle.parse_evaluate_tsv
            got, p_values = parse(text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable {self.fmt} output: {exc!r}"]
        return oracle.compare(expected, got, oracle.exact_forms) + oracle.check_p_values(p_values)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="evaluate-long-stance",
            shape=Shape(engines=4, queries=300, list_len=100),
            command="evaluate",
            args=(),
            mode="stance",
            fmt="json",
            why="long lists, default evaluate: per-document parsing dominates; "
            "no relabel or baselines; RBP reads whole lists, P@10/DCG@10 stop at the cutoff",
        ),
        Workload(
            name="evaluate-wide-ideology",
            shape=Shape(engines=12, queries=200, list_len=20),
            command="evaluate",
            args=("--mode", "ideology", "--output", "tsv"),
            mode="ideology",
            fmt="tsv",
            why="many engines, short lists: per-record cost, ideology relabel, "
            "198 paired tests and TSV rendering of every per-query beta",
        ),
        Workload(
            name="baselines-long-rkl",
            shape=Shape(engines=4, queries=250, list_len=100),
            command="baselines",
            args=("--baseline", "rkl", "--step", "1", "--output", "markdown"),
            mode="stance",
            fmt="markdown",
            why="the only workload that runs the fairness baselines (rKL, every prefix) "
            "and the markdown rendering inside cli; the evaluate workloads bypass both",
        ),
    )
}
