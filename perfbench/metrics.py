"""Statistics the benchmark reports, kept free of I/O so they can be tested.

- tail_percentile: the highest percentile with at least ten samples beyond it.
- fail_ratio: failed over attempted operations; anything that did not
  complete (an ERR reply, a transport error, a partial run) is a failure.
- self_times: a span's duration minus the part of it its children cover.
"""

import statistics

# Candidate percentiles for the tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(samples, p):
    """Linear-interpolated p-th percentile (0..100) of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples):
    """Returns (p, value, n): the highest candidate percentile p that leaves
    at least MIN_BEYOND of the n samples above it, and its value. With too
    few samples for any candidate, p and value are None."""
    n = len(samples)
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p, percentile(samples, p), n
    return None, None, n


def median(samples):
    return statistics.median(samples) if samples else 0.0


def fail_ratio(outcomes):
    """outcomes maps an outcome name to its count. "completed" succeeded;
    every other name ("error:<code>", "partial:<termination>", ...) failed.
    Returns (failed, attempted, ratio)."""
    attempted = int(sum(outcomes.values()))
    failed = attempted - int(outcomes.get("completed", 0))
    return failed, attempted, (failed / attempted if attempted else 0.0)


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """spans: iterable of (id, parent, request, name, start, end). Returns
    {id: self time}: the span's duration minus the union of its children's
    intervals, each clipped to the parent's edges."""
    spans = list(spans)
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    return {s[0]: (s[5] - s[4]) - covered(children.get(s[0], []), s[4], s[5])
            for s in spans}


def layer_of(name):
    """A span's layer is its name up to the first dot: core.run -> core."""
    return name.split(".", 1)[0]
