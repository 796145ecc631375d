"""Fixed reference task, the yardstick for the host's momentary speed.

The benchmark spawns this script before and after every CLI invocation and
divides the invocation's time by the mean of the two. The task resembles
the CLI's work: interpreter start, JSON decoding, building small objects,
and float sums over ranks and prefixes. It imports nothing from serpbias,
so a change to the program never moves it.

Do not change it: wall_ref and cpu_ref are measured in multiples of it,
and a change here changes every recorded baseline.
"""

import itertools
import json
import math

REPEATS = 600


def main() -> None:
    stances = ("pro", "against", "neutral", "not-relevant")
    line = json.dumps(
        {
            "engine": "engine-00",
            "query_id": "q00000",
            "docs": [
                {"rank": i, "doc_id": f"q00000-d{i:03d}", "stance": stances[i % 4]}
                for i in range(1, 101)
            ],
        }
    )
    total = 0.0
    for _ in range(REPEATS):
        docs = [(d["rank"], d["doc_id"], d["stance"]) for d in json.loads(line)["docs"]]
        member = [s == "pro" for _, _, s in docs]
        share = sum(member) / len(member)
        prefix = list(itertools.accumulate(member))
        total += math.fsum(
            abs(prefix[i - 1] / i - share) / math.log2(i) for i in range(2, len(member) + 1)
        )
    print(repr(total))


if __name__ == "__main__":
    main()
