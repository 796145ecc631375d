"""Shared builders for the test suite, and the hypothesis profiles.

HYPOTHESIS_PROFILE=ci selects the deeper `ci` profile; without it the
default profile applies. Tests that pin max_examples keep their own count.
"""

import json
import os

from hypothesis import settings

from serpbias import Document, EngineRun, LeaningLabel, RankedList, StanceLabel

settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

STANCES = tuple(StanceLabel)


def make_list(stances, engine="engine-a", query="q01", leaning=LeaningLabel.CONSERVATIVE):
    """RankedList from a stance sequence, ranks 1..len."""
    docs = tuple(
        Document(rank=i + 1, stance=s, doc_id=f"{query}-d{i + 1}")
        for i, s in enumerate(stances)
    )
    return RankedList(engine_id=engine, query_id=query, leaning=leaning, docs=docs)


def run_of(engine, stances_by_query, leaning=LeaningLabel.CONSERVATIVE):
    lists = {
        qid: make_list(stances, engine=engine, query=qid, leaning=leaning)
        for qid, stances in stances_by_query.items()
    }
    return EngineRun(engine_id=engine, lists=lists)


def random_stances(rng, length):
    return [rng.choice(STANCES) for _ in range(length)]


def record(engine, query_id, stances, leaning="conservative", query=None):
    """One JSONL record; stances are wire strings like 'pro', 'not-relevant'."""
    docs = [
        {"rank": i + 1, "doc_id": f"{query_id}-d{i + 1}", "stance": s}
        for i, s in enumerate(stances)
    ]
    return {
        "engine": engine,
        "query_id": query_id,
        "query": query or f"topic {query_id}",
        "leaning": leaning,
        "docs": docs,
    }


def jsonl(records):
    return "".join(json.dumps(r) + "\n" for r in records)


def write_jsonl(path, records):
    path.write_text(jsonl(records), encoding="utf-8")
