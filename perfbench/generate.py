"""Seeded generator of crowd-labeled result pages in the serpbias JSONL format.

The dataset is engines x queries x list length. Each query has a leaning
(about 40/40/20 conservative/liberal/both_or_neither) and a pool of labeled
documents twice the list length; every engine ranks a sample of that pool,
so engines share doc ids as real result pages do. A document keeps its stance
label whichever engine returns it. Each engine has its own stance tilt that
makes it pick and rank pro (tilt > 0) or against (tilt < 0) documents first,
so per-engine MB differs and paired tests are not degenerate. A few queries
have pools without pro documents, which leaves those lists' rKL score
undefined in stance mode.

The same shape and seed always give the same bytes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

LEANINGS = ("conservative", "liberal", "both_or_neither")
LEANING_WEIGHTS = (0.4, 0.4, 0.2)

# One-letter stance codes kept in memory for the oracle.
STANCE_TEXT = {"p": "pro", "a": "against", "n": "neutral", "r": "not-relevant"}
NO_PRO_SHARE = 0.03
POOL_FACTOR = 2


@dataclass(frozen=True)
class Shape:
    engines: int
    queries: int
    list_len: int

    @property
    def docs(self) -> int:
        return self.engines * self.queries * self.list_len


@dataclass(frozen=True)
class Record:
    """One generated line, without doc ids: stances holds one code per rank."""

    engine: str
    query_id: str
    leaning: str
    stances: str


@dataclass(frozen=True)
class Generated:
    records: tuple[Record, ...]
    shared_doc_share: float  # share of document occurrences whose id another engine also returned


def _pool_stances(rng: random.Random, size: int) -> list[str]:
    p_pro = 0.0 if rng.random() < NO_PRO_SHARE else rng.uniform(0.1, 0.4)
    p_against = rng.uniform(0.1, 0.4)
    p_neutral = rng.uniform(0.05, 0.2)
    p_irrelevant = max(0.05, 1.0 - p_pro - p_against - p_neutral)
    return rng.choices("panr", weights=(p_pro, p_against, p_neutral, p_irrelevant), k=size)


def _rank(rng: random.Random, pool: list[str], inv_weight: dict[str, float], n: int) -> list[int]:
    # Weighted sampling without replacement (Efraimidis-Spirakis keys); the
    # key order is also the rank order, so a tilt moves documents up the list.
    keys = sorted(
        ((rng.random() ** inv_weight[s], j) for j, s in enumerate(pool)), reverse=True
    )
    return [j for _, j in keys[:n]]


def generate(shape: Shape, seed: int, path: str) -> Generated:
    """Write a dataset of the given shape to path and return its records."""
    rng = random.Random(seed)
    engines = [f"engine-{i:02d}" for i in range(shape.engines)]
    # Tilts are spread evenly over [-0.8, 0.8] rather than drawn, so the
    # work per run does not depend on the seed's luck. A document of weight
    # w gets the key u ** (1 / w); pro documents weigh exp(tilt) and against
    # documents exp(-tilt).
    inv_weights = {}
    for i, engine in enumerate(engines):
        tilt = 0.8 * (2 * i / (len(engines) - 1) - 1) if len(engines) > 1 else 0.0
        inv_weights[engine] = {"p": math.exp(-tilt), "a": math.exp(tilt), "n": 1.0, "r": 1.0}
    records = []
    shared = 0
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for q in range(shape.queries):
            query_id = f"q{q:05d}"
            leaning = rng.choices(LEANINGS, weights=LEANING_WEIGHTS)[0]
            pool = _pool_stances(rng, POOL_FACTOR * shape.list_len)
            seen: dict[int, int] = {}
            for engine in engines:
                picked = _rank(rng, pool, inv_weights[engine], shape.list_len)
                for j in picked:
                    seen[j] = seen.get(j, 0) + 1
                docs = ", ".join(
                    f'{{"rank": {rank}, "doc_id": "{query_id}-d{j:03d}", '
                    f'"stance": "{STANCE_TEXT[pool[j]]}"}}'
                    for rank, j in enumerate(picked, start=1)
                )
                out.write(
                    f'{{"engine": "{engine}", "query_id": "{query_id}", '
                    f'"query": "topic {query_id}", "leaning": "{leaning}", "docs": [{docs}]}}\n'
                )
                records.append(Record(engine, query_id, leaning, "".join(pool[j] for j in picked)))
            shared += sum(count for count in seen.values() if count > 1)
    return Generated(records=tuple(records), shared_doc_share=shared / shape.docs)
