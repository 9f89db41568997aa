"""The benchmark's four workloads: data, query mixes and harness flags.

perfbench/WORKLOADS.md explains why each one exists and what it should
show. Every workload is closed-loop: each caller waits for its reply
before it sends the next request. The seed changes only the inputs (which
baskets of the workload's fixed population a run gets, and the order and
choice of requests); the program receives only the generated inputs.
"""

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent

# How long one run measures, in seconds (BENCHMARK.json's run_seconds).
RUN_SECONDS = 20


def _serve_pool():
    """About 200 distinct MINE queries, each a cold run of roughly
    5-100 ms at threads=1 on the serve-read database."""
    pool = []
    supports = (0.05, 0.06, 0.07, 0.08, 0.09, 0.1)
    for s in supports:
        for p in range(24, 44, 2):
            pool.append("min_valid where max(S.price) <= %d with support = %g" % (p, s))
        for x in range(60, 100, 5):
            pool.append("min_valid where sum(S.price) <= %d with support = %g" % (x, s))
        for p in range(40, 60, 4):
            pool.append("min_valid where max(S.price) <= %d & min(S.price) >= 20 "
                        "with support = %g" % (p, s))
        for x in range(70, 120, 10):
            pool.append("min_valid where sum(S.price) <= %d & min(S.price) >= 10 "
                        "with support = %g" % (x, s))
    for m in (3, 4):
        for i in range(16):
            pool.append("all with support = %g, maxsize = %d" % (0.02 + 0.005 * i, m))
    return [("s%03d" % i, None, q) for i, q in enumerate(pool)]


WORKLOADS = {
    "batch-ct": {
        "mode": "batch",
        "why": "in-process BMS**/BMS* at level 4 on 50k x 200 IBM baskets: "
               "almost all time is contingency-table building",
        "flags": {"threads": 2, "baskets": 50000, "items": 200,
                  "patterns": 100, "pool-factor": 2, "setup-reps": 9},
        "mix": [
            ("ct-sum", None, "min_valid where sum(S.price) >= 200 with support = 0.1"),
            ("ct-min", None, "min_valid where min(S.price) <= 100 with support = 0.1"),
            ("ct-star-max", "BMS*", "min_valid where max(S.price) >= 120 with support = 0.1"),
        ],
    },
    "batch-candgen": {
        "mode": "batch",
        "why": "in-process BMS/BMS+/BMS++/BMS* on 2k x 100 IBM baskets: "
               "candidate generation dominates, thousands of answers per query",
        "flags": {"threads": 1, "baskets": 2000, "items": 100,
                  "patterns": 50, "pool-factor": 1.1, "samples": 4,
                  "setup-reps": 45},
        "mix": [
            ("cg-all", "BMS", "all with support = 0.02"),
            ("cg-plus-max", "BMS+", "valid_min where max(S.price) <= 60 with support = 0.02"),
            ("cg-pp-max", None, "valid_min where max(S.price) <= 60 with support = 0.02"),
            ("cg-pp-sum", None, "valid_min where sum(S.price) <= 150 with support = 0.02"),
            ("cg-star-max", "BMS*", "min_valid where max(S.price) <= 40 with support = 0.02"),
            ("cg-star-sum", "BMS*", "min_valid where sum(S.price) <= 120 with support = 0.02"),
        ],
    },
    "serve-read": {
        "mode": "serve",
        "why": "ccsmined over a Unix socket, 3 clients, 2 run slots: framing, "
               "protocol, memo, admission queueing and pool leasing",
        "flags": {"baskets": 20000, "items": 100, "patterns": 50,
                  "pool-factor": 2, "setup-reps": 15},
        "mix": _serve_pool(),
    },
    "stream-rw": {
        "mode": "stream",
        "why": "ccsmined --stream: APPEND and TICK beside MINEs on one memo; "
               "the only workload that enters the stream layer",
        "flags": {"baskets": 1000, "items": 100, "patterns": 50,
                  "pool-factor": 2, "setup-reps": 5},
        # The first query is also the daemon's per-tick --stream-query.
        "mix": [
            ("st-max", None, "min_valid where max(S.price) <= 30 with support = 0.05"),
            ("st-sum", None, "min_valid where sum(S.price) <= 60 with support = 0.07"),
            ("st-all", None, "all with support = 0.05, maxsize = 3"),
        ],
    },
}


def expected_digests(name):
    """{seed: {query id: digest}} stored for a workload, or {}."""
    path = HERE / "expected" / (name + ".json")
    return json.loads(path.read_text()) if path.is_file() else {}
