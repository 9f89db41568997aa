#!/usr/bin/env python3
"""Compares two result sets of the benchmark.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the result files run.py writes to .bench_build/results/
(one per workload, seed and trace mode); copy them aside between the two
commits. For every workload and end-to-end metric it prints each side's
median and quartiles over the runs, and a verdict:

  unresolved  fewer than MIN_PAIRS seeds were run on both sides, or the
              base's quartile spread exceeds the bound, so "no worse"
              cannot be shown (unless every change run beats, or loses to,
              every base run)
  gain        the change wins at least nine tenths of the seed pairs and the medians
              differ by more than the base's own quartile spread
  regression  the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json
  same        none of the above

Deterministic work counts of the traced batch runs (core.candidates,
core.tables_built, ...) are compared separately: a difference there is
reported as "work changed", not as a speed-up. Exit status 1 if a metric
regressed or the fingerprints differ.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_COUNTS = ("core.candidates", "core.tables_built", "core.ct_word_ops",
               "core.pair_stage_tables", "core.answers")
# choosing-metrics section 8: at least ten pairs of runs per side.
MIN_PAIRS = 10
# Workloads whose per-pass counts do not depend on timing.
COUNTED_MODES = ("batch",)


def load(directory):
    """{(workload, seed, trace): result}"""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        r = json.loads(path.read_text())
        out[(r["workload"], r["seed"], r["trace"])] = r
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, bound, higher_is_better):
    """The verdict for one metric from the two sides' {seed: value}."""
    sign = 1.0 if higher_is_better else -1.0
    bq1, bmed, bq3 = quartiles(list(base.values()))
    _, cmed, _ = quartiles(list(change.values()))
    if not bmed:
        return "unresolved"
    spread = (bq3 - bq1) / abs(bmed)
    gain = sign * (cmed - bmed) / abs(bmed)  # > 0: the change is better
    pairs = [(base[s], change[s]) for s in base if s in change]
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if wins >= 0.9 * len(pairs) and gain > spread:
        return "gain"
    if gain < -bound:
        return "regression"
    if spread > bound:
        all_better = min(sign * c for c in change.values()) > max(sign * b for b in base.values())
        all_worse = max(sign * c for c in change.values()) < min(sign * b for b in base.values())
        return "gain" if all_better else "regression" if all_worse else "unresolved"
    return "same"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    base, change = load(argv[1]), load(argv[2])
    status = 0

    prints = {json.dumps({k: v for k, v in r["fingerprint"].items() if k != "ccs_env"},
                         sort_keys=True) for r in list(base.values()) + list(change.values())}
    if len(prints) > 1:
        print("WARNING: result sets come from different machines or builds; not comparable:")
        for p in sorted(prints):
            print("  " + p)
        status = 1

    print("%-14s %-12s %-34s %-34s %8s  %s" % ("workload", "metric", "base median [q1, q3] (n)",
                                               "change median [q1, q3] (n)", "delta", "verdict"))
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            sides = []
            for results in (base, change):
                sides.append({seed: r["metrics"][m["name"]]["value"]
                              for (wl, seed, trace), r in results.items()
                              if wl == name and trace == 0 and m["name"] in r["metrics"]})
            if not sides[0] or not sides[1]:
                continue
            v = verdict(sides[0], sides[1], m["bound"], m["better"] == "higher")
            status = 1 if v == "regression" else status
            cells = []
            for side in sides:
                q1, med, q3 = quartiles(list(side.values()))
                cells.append("%.4g [%.4g, %.4g] (%d)" % (med, q1, q3, len(side)))
            delta = (quartiles(list(sides[1].values()))[1] / quartiles(list(sides[0].values()))[1] - 1) * 100
            print("%-14s %-12s %-34s %-34s %+7.1f%%  %s" % (name, m["name"], cells[0], cells[1], delta, v))

    print()
    for w in spec["workloads"]:
        name = w["name"]
        if WORKLOADS[name]["mode"] not in COUNTED_MODES:
            continue
        changed = []
        pairs = 0
        for (wl, seed, trace), r in base.items():
            other = change.get((wl, seed, trace))
            if wl != name or trace != 1 or other is None:
                continue
            pairs += 1
            for count in WORK_COUNTS:
                a, b = r["metrics"][count]["value"], other["metrics"][count]["value"]
                if a != b:
                    changed.append("%s seed %d: %g -> %g" % (count, seed, a, b))
        if not pairs:
            print("%-14s work not compared: no traced runs of the same seed on both sides" % name)
        else:
            print("%-14s work %s over %d seeds" % (
                name, "changed: " + "; ".join(changed) if changed else "unchanged", pairs))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
