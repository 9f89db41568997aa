// serve-read: a real ccsmined over a Unix socket, serving a static
// generated database, and closed-loop clients that each send a seeded,
// Zipf-skewed stream of MINE requests with a few PING/STATS mixed in.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common.h"
#include "core/session.h"
#include "service/service.h"
#include "txn/io.h"
#include "workloads.h"

namespace ccsbench {

namespace {

// The workload's shape. Three closed-loop clients against two run slots,
// so admission queueing is entered; Zipf(1.4) popularity makes ~90% of
// MINEs memo hits; a few PING and STATS requests ride along.
constexpr std::size_t kClients = 3;
constexpr std::size_t kMaxConcurrent = 2;
constexpr double kZipf = 1.4;
constexpr double kPingRate = 0.02;
constexpr double kStatsRate = 0.005;
// Requests in the first second fill the memo and are not counted.
constexpr double kWarmupSeconds = 1;

}  // namespace

int RunServe(const Flags& flags, Result* out) {
  const std::uint64_t seed = flags.Size("seed");
  const double seconds = flags.Num("seconds");
  const bool trace = flags.Num("trace") != 0;
  const std::vector<MixQuery> pool = ReadMix(flags.Str("mix"));
  const std::string work = flags.Str("work");
  if (pool.empty() || work.empty()) return 2;
  const GenConfig config = GenConfigFromFlags(flags, seed);

  // The daemon gets only the generated inputs, as files.
  ccs::TransactionDatabase db = Load(GenerateBaskets(config), config.items);
  const std::string baskets_file = work + "/serve_baskets.txt";
  const std::string catalog_file = work + "/serve_catalog.csv";
  if (!ccs::WriteBasketsToFile(db, baskets_file) ||
      !ccs::WriteCatalogToFile(Catalog(config.items), catalog_file)) {
    return 3;
  }
  const std::string socket = work + "/serve.sock";
  const std::vector<std::string> args = {
      "--socket", socket, "--baskets-file", baskets_file,
      "--catalog-file", catalog_file, "--threads", "1",
      "--max-concurrent", std::to_string(kMaxConcurrent)};

  // Set-up: daemon spawn to first PING OK, setup-reps times, half before
  // the measured window and half after it, so that the median spans the
  // machine's state over the whole run. The last daemon spawned before
  // the window serves it.
  const std::size_t setup_reps = flags.Size("setup-reps");
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  bool clean_exit = true;
  const auto spawn = [&] {
    if (daemon) clean_exit = daemon->Stop() && clean_exit;
    daemon = std::make_unique<Daemon>();
    const std::int64_t start = NowNs();
    if (!daemon->Start(flags.Str("daemon"), args, socket,
                       work + "/serve_daemon.log", std::chrono::seconds(60))) {
      std::fprintf(stderr, "ccsmined did not come up; see %s/serve_daemon.log\n",
                   work.c_str());
      return false;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    return true;
  };
  for (std::size_t rep = 0; rep < (setup_reps + 1) / 2; ++rep) {
    if (!spawn()) return 4;
  }

  // Popularity: a fixed permutation of the pool, Zipf over the ranks. It
  // is part of the workload, like the pool: which queries are hot decides
  // the mix of cold runs, and the seed only draws the request streams.
  std::mt19937_64 rng(1);
  std::vector<std::size_t> by_rank(pool.size());
  for (std::size_t i = 0; i < by_rank.size(); ++i) by_rank[i] = i;
  std::shuffle(by_rank.begin(), by_rank.end(), rng);
  std::vector<double> cumulative;
  double total = 0;
  for (std::size_t r = 0; r < pool.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
    cumulative.push_back(total);
  }

  const std::int64_t origin = NowNs();
  const auto at = [&](double s) {
    return origin + static_cast<std::int64_t>(s * 1e9);
  };
  const std::int64_t window_begin = at(kWarmupSeconds);
  const std::int64_t window_end = at(kWarmupSeconds + seconds);

  Tracer tracer;
  tracer.set_enabled(trace);
  WireLog log(origin);
  Outcomes outcomes;
  std::atomic<std::uint64_t> next_request{1};
  std::mutex digest_mu;
  std::map<std::string, std::string> wire_digests;
  std::string mismatch;

  const auto client_loop = [&](std::size_t c) {
    std::mt19937_64 draw(seed * 1000003 + c);
    std::uniform_real_distribution<double> unit(0, 1);
    ccs::client::ClientOptions options;
    options.socket_path = socket;
    ccs::client::Client client(options);
    while (NowNs() < window_end) {
      WireRecord record;
      const double u = unit(draw);
      const MixQuery* query = nullptr;
      if (u < kPingRate) {
        record.kind = kPing;
        record.line = "PING";
      } else if (u < kPingRate + kStatsRate) {
        record.kind = kStats;
        record.line = "STATS";
      } else {
        const double x = unit(draw) * total;
        const std::size_t rank =
            std::lower_bound(cumulative.begin(), cumulative.end(), x) -
            cumulative.begin();
        query = &pool[by_rank[std::min(rank, pool.size() - 1)]];
        record.line = query->MineLine();
      }
      const std::int64_t now = NowNs();
      record.counted = now >= window_begin;
      record.request = next_request.fetch_add(1);
      record.client = c;
      // Traced runs trace every other measured request, so that the
      // tracing overhead is the difference between two halves of the same
      // request stream, interleaved in time.
      const bool traced = trace && record.counted && record.request % 2 == 0;
      const std::vector<std::string> body =
          log.Send(&client, traced ? &tracer : nullptr, record, &outcomes);
      if (query != nullptr && !body.empty()) {
        const std::string digest = Digest(SetLines(body));
        const std::lock_guard<std::mutex> lock(digest_mu);
        auto [it, inserted] = wire_digests.emplace(query->id, digest);
        if (!inserted && it->second != digest) mismatch = query->id;
      }
    }
  };
  std::vector<std::thread> client_threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    client_threads.emplace_back(client_loop, c);
  }
  // STATS at both edges of the measured window, so the service counters
  // can be read for the window alone.
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(window_begin)));
  const std::string stats_begin = StatsJson(socket);
  for (std::thread& t : client_threads) t.join();
  const std::string stats_end = StatsJson(socket);
  out->Number("rss_peak_mb", PeakRssMb(daemon->pid()));
  while (setup_s.size() < setup_reps) {
    if (!spawn()) return 4;
  }
  clean_exit = daemon->Stop() && clean_exit;

  // Every MINE answer the daemon sent must be byte-equal to the in-process
  // rendering of the same query over the same data.
  const ccs::DatabaseHandle handle = ccs::DatabaseHandle::Create(
      std::move(db), Catalog(config.items), ccs::HandleOptions{8, {}});
  const ccs::MiningSession session(handle, ccs::EngineOptions{});
  std::map<std::string, std::string> digests;
  std::map<std::string, double> cold_counters;
  std::size_t wrong = 0;
  std::size_t distinct = 0;
  std::string first_wrong;
  const bool check_all = flags.Num("check-all") != 0;
  for (const MixQuery& query : pool) {
    const auto seen = wire_digests.find(query.id);
    if (seen == wire_digests.end() && !check_all) continue;
    Mined mined = MineQuery(session, query, nullptr);
    const std::string digest = Digest(mined.rendered);
    digests[query.id] = digest;
    if (seen == wire_digests.end()) continue;
    AddCounters(mined.result.metrics, &cold_counters);
    ++distinct;
    if (digest != seen->second) {
      if (wrong++ == 0) first_wrong = query.id;
    }
  }
  out->Check("daemon answers repeat", mismatch.empty(),
             mismatch.empty() ? "" : "query " + mismatch + " changed");
  out->Check("daemon SET lines equal in-process rendering", wrong == 0,
             wrong == 0 ? std::to_string(distinct) + " queries"
                        : std::to_string(wrong) + " differ, first " + first_wrong);
  out->Check("daemon exits cleanly", clean_exit, "");

  // In-process replay of the same request streams through
  // MiningService::HandleLine, one thread per client as in the daemon, so
  // admission waits and contention between runs are part of what it
  // measures. Each thread replays its warm-up requests (they fill the
  // memo as they did in the daemon), then its measured ones for half the
  // window.
  std::vector<double> replay_kind, replay_ms, replay_memo, replay_request;
  if (trace) {
    ccs::service::ServiceOptions options;
    options.engine.num_threads = 1;
    options.admission.max_concurrent = kMaxConcurrent;
    ccs::service::MiningService service(handle, options);
    std::vector<std::vector<WireRecord>> streams(kClients);
    for (WireRecord& record : log.records()) {
      streams[record.client].push_back(std::move(record));
    }
    std::mutex replay_mu;
    const auto replay = [&](std::vector<WireRecord>* stream) {
      std::sort(stream->begin(), stream->end(),
                [](const WireRecord& a, const WireRecord& b) {
                  return a.start_ms < b.start_ms;
                });
      std::int64_t replay_end = 0;
      for (const WireRecord& record : *stream) {
        if (record.counted && replay_end == 0) {
          replay_end = NowNs() + static_cast<std::int64_t>(seconds / 2 * 1e9);
        }
        if (replay_end != 0 && NowNs() >= replay_end) break;
        std::string reply;
        const std::int64_t start = NowNs();
        {
          const Tracer::Scope root(&tracer, "bench.replay", record.request);
          const Tracer::Scope span(&tracer, "service.handle");
          reply = service.HandleLine(record.line);
        }
        const double ms = MsSince(start);
        const std::lock_guard<std::mutex> lock(replay_mu);
        replay_ms.push_back(ms);
        replay_kind.push_back(record.kind);
        replay_request.push_back(static_cast<double>(record.request));
        replay_memo.push_back(record.kind != kMine ? -1
                              : reply.find("memo=hit") != std::string::npos ? 1
                                                                           : 0);
      }
    };
    std::vector<std::thread> threads;
    for (std::vector<WireRecord>& stream : streams) {
      threads.emplace_back(replay, &stream);
    }
    for (std::thread& t : threads) t.join();
  }

  out->Numbers("setup_s", setup_s);
  out->Number("window_s", static_cast<double>(window_end - window_begin) / 1e9);
  out->Number("distinct_queries", static_cast<double>(distinct));
  log.Write(out);
  out->Counts("outcomes", outcomes.counts());
  out->Counts("counters", cold_counters);
  out->Texts("digests", digests);
  out->Text("stats_begin", stats_begin);
  out->Text("stats", stats_end);
  out->Numbers("replay_kind", replay_kind);
  out->Numbers("replay_ms", replay_ms);
  out->Numbers("replay_memo", replay_memo);
  out->Numbers("replay_request", replay_request);
  if (trace) out->Spans(tracer.spans());
  return 0;
}

}  // namespace ccsbench
