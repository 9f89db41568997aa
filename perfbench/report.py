"""Turns the harness's raw samples into the benchmark's metrics.

END_TO_END and PER_LAYER list every metric with its unit; BENCHMARK.json
names the same metrics (tests/test_benchmark_json.py keeps them in step).
Every workload reports every metric: a layer a workload does not enter
reads 0. info() adds figures printed and stored for a reader but not
gated: failures, peak RSS, requests per second, the MINE median and tail,
and the verb-specific latencies of stream-rw.
"""

import json

from metrics import fail_ratio, layer_of, median, percentile, self_times, tail_percentile
from workloads import WORKLOADS

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("mix_s", "s", "lower"),
]

PER_LAYER = [
    ("datagen.generate_ms", "ms"),
    ("txn.load_ms", "ms"),
    ("txn.finalize_ms", "ms"),
    ("session.handle_create_ms", "ms"),
    ("query.parse_us", "us"),
    ("core.run_ms", "ms"),
    ("core.candidate_gen_ms", "ms"),
    ("core.ct_build_ms", "ms"),
    ("core.cache_ms", "ms"),
    ("core.pair_stage_ms", "ms"),
    ("core.judge_ms", "ms"),
    ("core.constraint_check_ms", "ms"),
    ("core.stream_delta_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.candidates", "count"),
    ("core.tables_built", "count"),
    ("core.ct_word_ops", "count"),
    ("core.pair_stage_tables", "count"),
    ("core.answers", "count"),
    ("core.ct_cache.lookups", "count"),
    ("core.ct_cache.hit_ratio", "ratio"),
    ("core.tables_per_candidate", "ratio"),
    ("core.answers_per_table", "ratio"),
    ("report.render_ms", "ms"),
    ("service.handle_ms.mine_hit", "ms"),
    ("service.handle_ms.mine_miss", "ms"),
    ("service.memo_lookups", "count"),
    ("service.memo_hit_ratio", "ratio"),
    ("service.admitted", "count"),
    ("service.admission_wait_ms", "ms"),
    ("service.rejected", "count"),
    ("executor_pool.created", "count"),
    ("executor_pool.reused", "count"),
    ("client.transport_ms", "ms"),
    ("stream.append_ms", "ms"),
    ("stream.tick_ms", "ms"),
    ("stream.delta_ticks", "count"),
    ("stream.full_ticks", "count"),
    ("stream.delta_tables", "count"),
    ("stream.dirty_candidates", "count"),
    ("share.query", "ratio"),
    ("share.core", "ratio"),
    ("share.report", "ratio"),
    ("share.service", "ratio"),
    ("share.client", "ratio"),
    ("share.stream", "ratio"),
    ("layers.covered_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
]

UNITS = dict([(n, u) for n, u, _ in END_TO_END] + PER_LAYER)
INFO_UNITS = {"fail_ratio": "ratio", "failed": "count", "attempted": "count",
              "rss_peak_mb": "MiB", "rps": "1/s", "mine_ms.samples": "count", "tick_ms.samples": "count"}

# What each layer-time metric is a share of, per workload kind.
PER_UNIT = {
    "batch": "per pass over the query mix",
    "serve": "core.*: per cold MINE; service.*/client.*: per request",
    "stream": "per epoch (APPEND + TICK + MINEs)",
}

# Wire kinds, as the harness numbers them.
MINE, PING, STATS, APPEND, TICK = range(5)
# serve-read's fixed mix: a pass is this many completed requests.
SERVE_PASS = 120
# Top-level phases of a MiningSession::Run (phase.*_ns); ct_build contains
# cache, pair_stage and stream_delta.
TOP_PHASES = ("candidate_gen", "ct_build", "judge", "constraint_check")


def wire(raw):
    """The harness's parallel wire arrays as a list of dicts."""
    keys = ("kind", "start_ms", "end_ms", "memo", "full", "traced", "counted", "request")
    columns = [raw.get("wire_" + k, []) for k in keys]
    return [dict(zip(keys, row)) for row in zip(*columns)]


def rtt(records, kind, **match):
    return [r["end_ms"] - r["start_ms"] for r in records
            if r["kind"] == kind and r["counted"] and all(r[k] == v for k, v in match.items())]


def serve_passes(records):
    """Durations (s) of consecutive blocks of SERVE_PASS completed requests."""
    ends = sorted(r["end_ms"] for r in records if r["counted"])
    bounds = ends[::SERVE_PASS]
    return [(b - a) / 1000.0 for a, b in zip(bounds, bounds[1:])]


def end_to_end(mode, raw, records):
    return {"setup_s": median(raw["setup_s"]),
            "mix_s": median(serve_passes(records) if mode == "serve" else raw["mix_s"])}


def info(mode, raw, records):
    """Figures printed for a reader, not gated."""
    failed, attempted, ratio = fail_ratio(raw["outcomes"])
    out = {"fail_ratio": ratio, "failed": failed, "attempted": attempted,
           "outcomes": raw["outcomes"], "rss_peak_mb": raw["rss_peak_mb"],
           "rps": raw["outcomes"].get("completed", 0) / raw["window_s"]}
    mines = raw["mine_ms"] if mode == "batch" else rtt(records, MINE)
    p, value, n = tail_percentile(mines)
    out["mine_ms.samples"] = n
    out["mine_ms.p50"] = median(mines)
    if p is not None:
        out["mine_ms.p%g" % p] = value
    if mode != "batch":
        ticks = rtt(records, TICK)
        appends = rtt(records, APPEND)
        if ticks:
            out.update({"tick_ms.p50": median(ticks), "tick_ms.p90": percentile(ticks, 90),
                        "tick_ms.samples": len(ticks), "append_ms.p50": median(appends)})
    return out


def spans_of(raw):
    spans = [tuple(s) for s in raw.get("spans", [])]
    return spans, self_times(spans)


def durations(spans, name):
    return [s[5] - s[4] for s in spans if s[3] == name]


def layer_self_ms(spans, selfs, layers):
    """{layer: total self time in ms} over the spans of the given layers."""
    totals = {layer: 0.0 for layer in layers}
    for s in spans:
        layer = layer_of(s[3])
        if layer in totals:
            totals[layer] += selfs[s[0]] / 1e6
    return totals


def core_counters(counters, per):
    """core.* per-layer metrics from MiningResult::metrics sums over `per`
    units of work."""
    if per <= 0:
        return {}
    c = lambda name: counters.get(name, 0) / per  # noqa: E731
    phase = lambda name: c("phase.%s_ns" % name) / 1e6  # noqa: E731
    out = {"core.%s_ms" % p: phase(p) for p in
           ("candidate_gen", "ct_build", "cache", "pair_stage", "judge",
            "constraint_check", "stream_delta")}
    out.update({
        "core.candidates": c("engine.candidates"),
        "core.tables_built": c("ct.tables_built"),
        "core.ct_word_ops": c("ct.word_ops"),
        "core.pair_stage_tables": c("ct.pair_stage_tables"),
        "core.answers": c("engine.answers"),
        "core.ct_cache.lookups": c("ct_cache.lookups"),
        "stream.delta_tables": c("stream.delta_tables"),
        "stream.dirty_candidates": c("stream.dirty_candidates"),
    })
    lookups, candidates, tables = (counters.get(k, 0) for k in
                                   ("ct_cache.lookups", "engine.candidates", "ct.tables_built"))
    out["core.ct_cache.hit_ratio"] = counters.get("ct_cache.hits", 0) / lookups if lookups else 0.0
    out["core.tables_per_candidate"] = tables / candidates if candidates else 0.0
    out["core.answers_per_table"] = counters.get("engine.answers", 0) / tables if tables else 0.0
    return out


def service_stats(stats):
    memo = stats.get("memo", {})
    admission = stats.get("admission", {})
    pool = stats.get("executor_pool", {})
    lookups = memo.get("hits", 0) + memo.get("misses", 0)
    admitted = admission.get("admitted", 0)
    return {
        "service.memo_lookups": lookups,
        "service.memo_hit_ratio": memo.get("hits", 0) / lookups if lookups else 0.0,
        "service.admitted": admitted,
        "service.admission_wait_ms": admission.get("queue_wait_ms", 0) / admitted if admitted else 0.0,
        "service.rejected": admission.get("rejected", 0),
        "executor_pool.created": pool.get("created", 0),
        "executor_pool.reused": pool.get("reused", 0),
    }


def stats_delta(begin, end):
    """end - begin for every number in two STATS objects."""
    if isinstance(end, dict):
        return {k: stats_delta(begin.get(k, 0) if isinstance(begin, dict) else 0, v)
                for k, v in end.items()}
    if isinstance(end, (int, float)) and isinstance(begin, (int, float)):
        return end - begin
    return end


def overhead_pct(untraced, traced):
    if not untraced or not traced:
        return 0.0
    return (median(traced) / median(untraced) - 1.0) * 100.0


def per_layer(mode, raw, records):
    m = {name: 0.0 for name, _ in PER_LAYER}
    spans, selfs = spans_of(raw)
    counters = raw.get("counters", {})
    if mode == "batch":
        for name, metric in (("datagen.generate", "datagen.generate_ms"),
                             ("txn.load", "txn.load_ms"), ("txn.finalize", "txn.finalize_ms"),
                             ("session.handle_create", "session.handle_create_ms")):
            m[metric] = median(durations(spans, name)) / 1e6
        passes = raw["traced_passes"]
        m.update(core_counters(counters, passes))
        m["query.parse_us"] = sum(durations(spans, "query.parse")) / 1e3 / passes
        m["core.run_ms"] = sum(durations(spans, "core.run")) / 1e6 / passes
        m["report.render_ms"] = sum(durations(spans, "report.render")) / 1e6 / passes
        wall = sum(durations(spans, "bench.pass")) / 1e6
        layers = layer_self_ms(spans, selfs, ("query", "core", "report"))
        for layer, ms in layers.items():
            m["share." + layer] = ms / wall
        m["layers.covered_ratio"] = sum(layers.values()) / wall
        m["trace.overhead_pct"] = overhead_pct(raw["mix_s"], raw["mix_s_traced"])
    elif mode == "serve":
        stats = stats_delta(json.loads(raw["stats_begin"] or "{}"), json.loads(raw["stats"] or "{}"))
        m.update(service_stats(stats))
        distinct = raw["distinct_queries"]
        m.update(core_counters(counters, distinct))
        m["core.run_ms"] = counters.get("run.wall_ns", 0) / 1e6 / distinct if distinct else 0.0
        counted = {r["request"]: r for r in records if r["counted"]}
        replay = [(k, ms, memo, req) for k, ms, memo, req in
                  zip(raw["replay_kind"], raw["replay_ms"], raw["replay_memo"], raw["replay_request"])
                  if req in counted]
        hit = [ms for k, ms, memo, _ in replay if k == MINE and memo == 1]
        miss = [ms for k, ms, memo, _ in replay if k == MINE and memo == 0]
        m["service.handle_ms.mine_hit"] = median(hit)
        m["service.handle_ms.mine_miss"] = median(miss)
        m["client.transport_ms"] = max(0.0, median(rtt(records, MINE, memo=1)) - median(hit))
        # Coverage over the replayed part of the window: in-process
        # handling (admission waits included) plus transport, against what
        # the clients saw for the same requests.
        client_ms = sum(counted[req]["end_ms"] - counted[req]["start_ms"] for *_, req in replay)
        service_ms = sum(ms for _, ms, _, _ in replay)
        client_share = m["client.transport_ms"] * len(replay)
        if client_ms > 0:
            m["share.service"] = service_ms / client_ms
            m["share.client"] = client_share / client_ms
            m["layers.covered_ratio"] = (service_ms + client_share) / client_ms
        # Every other request is traced; memo hits only, so that the mix of
        # cold runs does not differ between the two halves.
        m["trace.overhead_pct"] = overhead_pct(rtt(records, MINE, memo=1, traced=False),
                                               rtt(records, MINE, memo=1, traced=True))
    else:
        m.update(service_stats(json.loads(raw["stats"] or "{}")))
        epochs = raw["replayed_epochs"]
        m.update(core_counters(counters, epochs))
        m["core.run_ms"] = counters.get("run.wall_ns", 0) / 1e6 / epochs if epochs else 0.0
        m["query.parse_us"] = sum(durations(spans, "query.parse")) / 1e3 / epochs if epochs else 0.0
        m["report.render_ms"] = sum(durations(spans, "report.render")) / 1e6 / epochs if epochs else 0.0
        m["stream.append_ms"] = median(raw["replay_append_ms"])
        m["stream.tick_ms"] = median(raw["replay_tick_ms"])
        ticks = [r for r in records if r["kind"] == TICK and r["counted"]]
        m["stream.full_ticks"] = sum(1 for r in ticks if r["full"] == 1)
        m["stream.delta_ticks"] = sum(1 for r in ticks if r["full"] == 0)
        handled = list(zip(raw["service_kind"], raw["service_ms"], raw["service_memo"]))
        hit = [ms for k, ms, memo in handled if k == MINE and memo == 1]
        m["service.handle_ms.mine_hit"] = median(hit)
        m["service.handle_ms.mine_miss"] = median([ms for k, ms, memo in handled
                                                   if k == MINE and memo == 0])
        m["client.transport_ms"] = max(0.0, median(rtt(records, MINE, memo=1)) - median(hit))
        # The replayed epochs against the same epochs as the client saw
        # them. The service layer's own time is what HandleLine took beyond
        # the direct Append/Tick/Run calls of the same epochs.
        wall = sum(raw["replay_live_s"]) * 1000.0
        if wall > 0:
            layers = layer_self_ms(spans, selfs, ("stream", "query", "core", "report", "service"))
            direct = sum(durations(spans, "bench.replay")) / 1e6
            layers["service"] += max(0.0, sum(ms for _, ms, _ in handled) - direct)
            client_share = m["client.transport_ms"] * len(handled)
            for layer, ms in layers.items():
                m["share." + layer] = ms / wall
            m["share.client"] = client_share / wall
            m["layers.covered_ratio"] = (sum(layers.values()) + client_share) / wall
        m["trace.overhead_pct"] = overhead_pct(raw["mix_s"], raw["mix_s_traced"])
    if m["core.run_ms"] > 0:
        m["core.unattributed_ms"] = m["core.run_ms"] - sum(m["core.%s_ms" % p] for p in TOP_PHASES)
    return m


def compute(name, raw, trace):
    """{metrics, info, attempted, failed} for one run of a workload."""
    mode = WORKLOADS[name]["mode"]
    records = wire(raw)
    values = per_layer(mode, raw, records) if trace else end_to_end(mode, raw, records)
    extra = info(mode, raw, records)
    return {
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
        "info": extra,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "per_unit": PER_UNIT[mode],
    }


def print_human(*results):
    for r in results:
        print("== %s  seed %d  %s  (%s)" % (r["workload"], r["seed"],
                                           "traced" if r["trace"] else "untraced",
                                           "correct" if r["correct"] else "WRONG"))
        for check in r["checks"]:
            print("   check %-4s %s %s" % ("ok" if check["ok"] else "FAIL",
                                          check["name"], check["detail"]))
        for name, metric in r["metrics"].items():
            print("   %-30s %14.6g %s" % (name, metric["value"], metric["unit"]))
        if r["trace"]:
            print("   (layer times %s)" % r["per_unit"])
        for name, value in r["info"].items():
            if name != "outcomes":
                unit = INFO_UNITS.get(name, "ms")
                print("   %-30s %14.6g %s (informational)" % (name, value, unit))
        print("   outcomes: %s" % json.dumps(r["info"]["outcomes"], sort_keys=True))
        fp = r["fingerprint"]
        print("   machine: %s | %s | nproc %s | %s | %s %s" % (
            fp["cpu"], " ".join(fp["isa"]), fp["nproc"], fp["compiler"],
            fp["build_type"], fp["cxx_flags"]))
