#!/usr/bin/env python3
"""The ccsmine benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload batch-ct --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload,
                                                          # untraced and traced

It builds ccsmine and the harness from source under .bench_build/, runs one
workload for --seconds, checks the answers, and prints every metric by name
with its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Each run's full result set
(metrics, informational figures, checks and the machine fingerprint) is also
written to .bench_build/results/ for perfbench/compare.py.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import fingerprint  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
KILL_SWITCHES = ("CCS_CT_CACHE", "CCS_SIMD", "CCS_STREAM", "CCS_METRICS",
                 "CCS_TRACE", "CCS_FAULT")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            tail = Path(log).read_text().splitlines()[-30:]
            fail("command failed: %s\n%s" % (" ".join(map(str, cmd)), "\n".join(tail)))


def build():
    """Builds ccsmine's libraries and ccsmined, then the harness against
    them. Incremental: a second call only re-checks timestamps."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no ccsmine sources next to perfbench/ (expected CMakeLists.txt and src/)")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    ccs = BUILD / "ccs"
    harness = BUILD / "harness"
    if not (ccs / "CMakeCache.txt").is_file():
        # The build type is the repository's default, named so that it is
        # in CMakeCache.txt for the fingerprint.
        run_logged(["cmake", "-S", ROOT, "-B", ccs, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    "-DCCS_BUILD_TESTS=OFF", "-DCCS_BUILD_BENCHMARKS=OFF",
                    "-DCCS_BUILD_EXAMPLES=OFF"], log)
    run_logged(["cmake", "--build", ccs, "-j", jobs], log)
    if not (harness / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", HERE / "harness", "-B", harness,
                    "-DCCS_SOURCE_DIR=%s" % ROOT, "-DCCS_BINARY_DIR=%s" % ccs], log)
    run_logged(["cmake", "--build", harness, "-j", jobs], log)
    return harness / "ccsbench_harness", ccs / "src" / "service" / "ccsmined"


def run_workload(name, seed, seconds, trace, binaries, extra=()):
    """Runs the harness for one workload and returns its raw result."""
    spec = workloads.WORKLOADS[name]
    # Relative to ROOT, the harness's working directory, so that socket
    # paths stay short wherever the checkout lives.
    work = (BUILD / "work").relative_to(ROOT)
    (ROOT / work).mkdir(parents=True, exist_ok=True)
    mix = work / (name + ".mix")
    (ROOT / mix).write_text("".join("%s\t%s\t%s\n" % (q, a or "-", t) for q, a, t in spec["mix"]))
    out = ROOT / work / (name + ".json")
    if out.exists():
        out.unlink()
    harness, daemon = binaries
    cmd = [str(harness), "--mode", spec["mode"], "--out", str(out),
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--mix", str(mix), "--work", str(work), "--daemon", str(daemon)]
    for key, value in spec["flags"].items():
        cmd += ["--" + key, str(value)]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("%s: harness did not finish within %d s" % (name, HARNESS_TIMEOUT_S))
    if proc.returncode != 0 or not out.exists():
        fail("%s: harness exited %d\n%s" % (name, proc.returncode, proc.stderr[-2000:]))
    return json.loads(out.read_text())


def check_digests(name, seed, raw):
    """Compares the answer digests with the stored ones for this seed.
    Returns a list of (check name, ok, detail)."""
    expected = workloads.expected_digests(name).get(str(seed))
    if expected is None:
        return []
    digests = raw.get("digests", {})
    wrong = sorted(q for q, d in digests.items() if q in expected and expected[q] != d)
    known = sum(1 for q in digests if q in expected)
    return [("answers match stored digests for seed %d" % seed,
             not wrong and known > 0,
             "%d checked%s" % (known, (", differ: " + " ".join(wrong[:5])) if wrong else ""))]


def measure(name, seed, seconds, trace, binaries):
    # Seeds without stored digests are checked against a threads=1 run.
    stored = str(seed) in workloads.expected_digests(name)
    raw = run_workload(name, seed, seconds, trace, binaries,
                       () if stored else ("--reference", "1"))
    checks = [(c["name"], c["ok"], c["detail"]) for c in raw.get("checks", [])]
    checks += check_digests(name, seed, raw)
    result = report.compute(name, raw, trace)
    result["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
    result["correct"] = all(ok for _, ok, _ in checks) and result["failed"] == 0
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  fingerprint=fingerprint.collect(BUILD / "ccs"))
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    path = results / ("%s.seed%d.trace%d.json" % (name, seed, trace))
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def record_digests(name, seeds, binaries):
    """Runs each seed briefly and stores every query's answer digest.
    stream-rw has none: its final window depends on how many epochs a run
    completes, so it is checked against a batch mine of its own window."""
    if workloads.WORKLOADS[name]["mode"] == "stream":
        return
    table = workloads.expected_digests(name)
    for seed in seeds:
        raw = run_workload(name, seed, 0.2, 0, binaries, ("--check-all", "1"))
        bad = [c["name"] for c in raw["checks"] if not c["ok"]]
        if bad:
            fail("%s seed %d: %s" % (name, seed, "; ".join(bad)))
        table[str(seed)] = raw["digests"]
        print("%s seed %d: %d digests" % (name, seed, len(raw["digests"])))
    path = HERE / "expected" / (name + ".json")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="FIRST-LAST",
                        help="store the answer digests of seeds FIRST..LAST "
                             "under perfbench/expected/ (after a change that "
                             "is meant to change answers)")
    args = parser.parse_args()

    switched = [k for k in KILL_SWITCHES if k in os.environ]
    if switched:
        fail("refusing to run with kill switch(es) set: %s; the benchmark "
             "measures the default paths" % " ".join(switched))
    binaries = build()

    if args.record_digests:
        first, last = (int(x) for x in args.record_digests.split("-"))
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            record_digests(name, range(first, last + 1), binaries)
        return 0

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, args.trace, binaries)
        report.print_human(result)
        print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    # Every workload, untraced then traced, one table; exit 1 on any
    # wrong answer or failed operation.
    ok = True
    overall = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        untraced = measure(name, args.seed, args.seconds, 0, binaries)
        traced = measure(name, args.seed, args.seconds, 1, binaries)
        report.print_human(untraced, traced)
        for r in (untraced, traced):
            ok = ok and r["correct"]
            overall["attempted"] += r["attempted"]
            overall["failed"] += r["failed"]
            for metric, value in r["metrics"].items():
                overall["metrics"]["%s/%s" % (name, metric)] = value
    overall["correct"] = ok
    print(json.dumps(overall))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
