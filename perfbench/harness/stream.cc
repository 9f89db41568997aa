// stream-rw: `ccsmined --stream` and one closed-loop client. Each epoch
// APPENDs one frame of generated baskets, TICKs, then sends a fixed
// multiset of MINEs over a small query pool in a seeded order.
#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "client/client.h"
#include "common.h"
#include "core/session.h"
#include "query/parser.h"
#include "query/query.h"
#include "service/service.h"
#include "stream/delta_miner.h"
#include "stream/streaming_database.h"
#include "txn/io.h"
#include "workloads.h"

namespace ccsbench {

namespace {

std::string AppendLine(const std::vector<ccs::Transaction>& baskets) {
  std::string line = "APPEND baskets=";
  for (std::size_t b = 0; b < baskets.size(); ++b) {
    if (b > 0) line += ';';
    for (std::size_t i = 0; i < baskets[b].size(); ++i) {
      if (i > 0) line += ' ';
      line += std::to_string(baskets[b][i]);
    }
  }
  return line;
}

// Distinct frames of generated baskets, used in turn: more than the tilted
// window spans, so no frame repeats inside it.
constexpr std::size_t kFrames = 64;
// Epochs sent before the measured window, until the window saturates.
constexpr std::size_t kWarmupEpochs = 40;
// Each epoch sends the same multiset of MINEs: the first query of the mix
// three times, the second and third twice -- 3 cold runs and 4 memo hits
// per epoch.
constexpr std::size_t kCopies[] = {3, 2, 2};

// The per-tick query, assembled as ccsmined assembles --stream-query.
ccs::Query StreamQuery(const std::string& text) {
  ccs::StatusOr<ccs::Query> parsed = ccs::ParseQueryOrError(text);
  if (parsed.ok()) return std::move(parsed).value();
  ccs::Query query;
  ccs::StatusOr<ccs::ConstraintSet> constraints =
      ccs::ParseConstraintsOrError(text);
  if (constraints.ok()) query.constraints = std::move(constraints).value();
  return query;
}

}  // namespace

int RunStream(const Flags& flags, Result* out) {
  const std::uint64_t seed = flags.Size("seed");
  const double seconds = flags.Num("seconds");
  const bool trace = flags.Num("trace") != 0;
  const std::vector<MixQuery> pool = ReadMix(flags.Str("mix"));
  const std::string work = flags.Str("work");
  if (pool.empty() || work.empty()) return 2;
  // The daemon's per-tick query is the first query of the mix.
  const std::string& stream_query = pool[0].text;

  GenConfig config = GenConfigFromFlags(flags, seed);
  const std::size_t per_epoch = config.baskets;
  config.baskets = per_epoch * kFrames;
  const std::vector<ccs::Transaction> all = GenerateBaskets(config);
  std::vector<std::vector<ccs::Transaction>> frame_baskets(kFrames);
  std::vector<std::string> frame_lines(kFrames);
  for (std::size_t f = 0; f < kFrames; ++f) {
    frame_baskets[f].assign(all.begin() + f * per_epoch,
                            all.begin() + (f + 1) * per_epoch);
    frame_lines[f] = AppendLine(frame_baskets[f]);
  }

  const std::string seed_baskets = work + "/stream_seed.txt";
  const std::string catalog_file = work + "/stream_catalog.csv";
  ccs::TransactionDatabase one(config.items);
  one.Add(frame_baskets[0][0]);
  one.Finalize();
  if (!ccs::WriteBasketsToFile(one, seed_baskets) ||
      !ccs::WriteCatalogToFile(Catalog(config.items), catalog_file)) {
    return 3;
  }
  const std::string socket = work + "/stream.sock";
  const std::vector<std::string> args = {
      "--socket", socket, "--stream", "--stream-query", stream_query,
      "--baskets-file", seed_baskets, "--catalog-file", catalog_file,
      "--threads", "1", "--max-concurrent", "2"};

  ccs::client::ClientOptions client_options;
  client_options.socket_path = socket;
  const std::int64_t origin = NowNs();
  WireLog log(origin);
  Outcomes outcomes;
  Tracer tracer;
  tracer.set_enabled(trace);
  std::uint64_t next_request = 1;
  std::size_t epoch = 0;  // epochs sent to the daemon that serves the window

  const auto send = [&](ccs::client::Client* client, int kind,
                        const std::string& line, bool counted, bool traced) {
    WireRecord record;
    record.kind = kind;
    record.line = line;
    record.counted = counted;
    record.request = next_request++;
    return log.Send(client, traced ? &tracer : nullptr, record, &outcomes);
  };

  // Set-up: spawn to first PING OK, plus the warm-up epochs that fill the
  // tilted window. setup-reps times, half before the measured window and
  // half after it, so that the median spans the machine's state over the
  // whole run. The last daemon spawned before the window serves it.
  const std::size_t setup_reps = flags.Size("setup-reps");
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  bool clean_exit = true;
  const auto spawn = [&] {
    if (daemon) clean_exit = daemon->Stop() && clean_exit;
    daemon = std::make_unique<Daemon>();
    const std::int64_t start = NowNs();
    if (!daemon->Start(flags.Str("daemon"), args, socket,
                       work + "/stream_daemon.log", std::chrono::seconds(60))) {
      std::fprintf(stderr, "ccsmined did not come up; see %s/stream_daemon.log\n",
                   work.c_str());
      return false;
    }
    ccs::client::Client client(client_options);
    for (std::size_t e = 0; e < kWarmupEpochs; ++e) {
      send(&client, kAppend, frame_lines[e % kFrames], false, false);
      send(&client, kTick, "TICK", false, false);
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    return true;
  };
  for (std::size_t rep = 0; rep < (setup_reps + 1) / 2; ++rep) {
    if (!spawn()) return 4;
  }
  epoch = kWarmupEpochs;

  std::vector<std::size_t> mines;
  for (std::size_t q = 0; q < pool.size() && q < std::size(kCopies); ++q) {
    mines.insert(mines.end(), kCopies[q], q);
  }
  const auto append_frame = [&frame_baskets](ccs::stream::StreamingDatabase* stream,
                                             std::size_t frame) {
    for (const ccs::Transaction& basket : frame_baskets[frame]) {
      (void)stream->Append(basket);
    }
  };
  // An in-process copy of the daemon's stream, for the final check. In
  // untraced runs it is brought up to date after the measured window. In
  // traced runs it follows the daemon epoch by epoch, and in the second
  // half it also runs DeltaMiner::Tick and the epoch's MINEs through a
  // MiningSession over the new window, with a per-epoch memo like the
  // service's, right after the daemon did the same epoch, so both see the
  // machine in the same state.
  ccs::stream::StreamingDatabase db(config.items, Catalog(config.items));
  std::size_t db_epochs = 0;  // epochs appended to and ticked in `db`
  const auto follow = [&](std::size_t epochs) {
    for (; db_epochs < epochs; ++db_epochs) {
      append_frame(&db, db_epochs % kFrames);
      (void)db.Tick();
    }
  };
  if (trace) follow(kWarmupEpochs);
  const ccs::Query tick_query = StreamQuery(stream_query);
  // The per-tick request, assembled as ccsmined assembles it.
  const ccs::stream::RequestFactory tick_request =
      [&tick_query](const ccs::TransactionDatabase& window) {
        ccs::MiningRequest request;
        request.algorithm = tick_query.DefaultAlgorithm();
        request.options = tick_query.ResolveOptions(window);
        request.constraints = &tick_query.constraints;
        return request;
      };
  const ccs::EngineOptions engine;
  std::unique_ptr<ccs::stream::DeltaMiner> miner;
  std::map<std::string, double> counters;
  std::vector<double> tick_ms, append_ms, replay_live_s;
  double delta_ticks = 0, full_ticks = 0;
  const auto replay_epoch = [&](std::size_t frame, bool traced, double live_s) {
    if (!traced) {
      follow(db_epochs + 1);
      return;
    }
    ++db_epochs;
    // The miner's first tick is a full re-mine that builds its tables; it
    // is not timed.
    Tracer* span_tracer = miner ? &tracer : nullptr;
    const Tracer::Scope root(span_tracer, "bench.replay", next_request++);
    std::int64_t start = NowNs();
    {
      const Tracer::Scope span(span_tracer, "stream.append");
      append_frame(&db, frame);
    }
    if (span_tracer != nullptr) append_ms.push_back(MsSince(start));
    if (!miner) {
      miner = std::make_unique<ccs::stream::DeltaMiner>(
          &db,
          tick_request,
          engine, ccs::HandleOptions{8, {}});
    }
    start = NowNs();
    ccs::stream::AnswerDelta delta;
    {
      const Tracer::Scope span(span_tracer, "stream.tick");
      delta = miner->Tick();
    }
    if (span_tracer == nullptr) return;
    tick_ms.push_back(MsSince(start));
    (delta.full_remine ? full_ticks : delta_ticks) += 1;
    replay_live_s.push_back(live_s);
    AddCounters(delta.result.metrics, &counters);
    const ccs::MiningSession session(miner->handle(), engine);
    std::map<std::string, bool> memo;
    for (const std::size_t q : mines) {
      const Tracer::Scope request(&tracer, "bench.request");
      if (memo.count(pool[q].id) != 0) {
        const Tracer::Scope span(&tracer, "service.memo");
        continue;
      }
      Mined mined = MineQuery(session, pool[q], &tracer);
      AddCounters(mined.result.metrics, &counters);
      memo[pool[q].id] = true;
    }
  };

  // A second in-process copy answers the same request lines through
  // MiningService::HandleLine over a StreamingBackend, as ccsmined does,
  // so the service layer's own time is the difference between the two.
  // Traced runs only.
  ccs::stream::StreamingDatabase service_db(config.items, Catalog(config.items));
  for (std::size_t e = 0; trace && e < kWarmupEpochs; ++e) {
    append_frame(&service_db, e % kFrames);
    (void)service_db.Tick();
  }
  std::unique_ptr<ccs::stream::DeltaMiner> service_miner;
  std::unique_ptr<ccs::service::MiningService> service;
  std::vector<double> service_kind, service_ms, service_memo;
  const auto serve_epoch = [&](std::size_t frame, bool traced,
                               const std::vector<std::string>& mine_lines) {
    if (!traced) {
      append_frame(&service_db, frame);
      (void)service_db.Tick();
      return;
    }
    const bool timed = service != nullptr;
    if (!service) {
      const ccs::HandleOptions handle_options{8, {}};
      service_miner = std::make_unique<ccs::stream::DeltaMiner>(
          &service_db,
          tick_request,
          engine, handle_options);
      ccs::service::ServiceOptions options;
      options.engine = engine;
      service = std::make_unique<ccs::service::MiningService>(
          service_db.SnapshotHandle(handle_options), options, nullptr,
          ccs::service::StreamingBackend{&service_db, service_miner.get()});
    }
    std::vector<std::pair<int, const std::string*>> lines = {
        {kAppend, &frame_lines[frame]}, {kTick, nullptr}};
    for (const std::string& line : mine_lines) lines.emplace_back(kMine, &line);
    static const std::string tick_line = "TICK";
    for (const auto& [kind, line] : lines) {
      const std::int64_t start = NowNs();
      const std::string reply = service->HandleLine(line != nullptr ? *line : tick_line);
      if (!timed) continue;
      service_ms.push_back(MsSince(start));
      service_kind.push_back(kind);
      service_memo.push_back(kind != kMine ? -1
                             : reply.find("memo=hit") != std::string::npos ? 1
                                                                          : 0);
    }
  };

  std::mt19937_64 rng(seed);
  ccs::client::Client client(client_options);
  std::vector<double> mix_s, mix_s_traced;
  std::size_t measured_epochs = 0;
  std::map<std::string, std::string> epoch_reply;
  bool repeat_ok = true;
  const std::int64_t window_begin = NowNs();
  const std::int64_t window_end = window_begin + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t trace_begin = (window_begin + window_end) / 2;
  // In the second half of a traced run, a coin decides which epochs the
  // client traces, so that the tracing overhead is the difference between
  // two sets of epochs interleaved in time.
  std::mt19937_64 coin(seed + 1);
  while (NowNs() < window_end) {
    const bool replayed = trace && NowNs() >= trace_begin;
    const bool traced = replayed && coin() % 2 == 0;
    const std::int64_t start = NowNs();
    const std::size_t frame = epoch % kFrames;
    send(&client, kAppend, frame_lines[frame], true, traced);
    send(&client, kTick, "TICK", true, traced);
    std::shuffle(mines.begin(), mines.end(), rng);
    epoch_reply.clear();
    std::vector<std::string> mine_lines;
    for (const std::size_t q : mines) {
      mine_lines.push_back(pool[q].MineLine());
      const std::string body =
          SetLines(send(&client, kMine, mine_lines.back(), true, traced));
      auto [it, inserted] = epoch_reply.emplace(pool[q].id, body);
      if (!inserted && it->second != body) repeat_ok = false;
    }
    const double epoch_s = static_cast<double>(NowNs() - start) / 1e9;
    if (replayed == trace) (traced ? mix_s_traced : mix_s).push_back(epoch_s);
    if (trace) {
      replay_epoch(frame, replayed, epoch_s);
      serve_epoch(frame, replayed, mine_lines);
    }
    ++epoch;
    ++measured_epochs;
  }
  const std::map<std::string, std::string> last_reply = epoch_reply;
  const double window_s = static_cast<double>(NowNs() - window_begin) / 1e9;

  const std::string stats_json = StatsJson(socket);
  out->Number("rss_peak_mb", PeakRssMb(daemon->pid()));
  while (setup_s.size() < setup_reps) {
    if (!spawn()) return 4;
  }
  clean_exit = daemon->Stop() && clean_exit;

  follow(epoch);
  const ccs::DatabaseHandle snapshot =
      ccs::DatabaseHandle::Create(db.WindowSnapshot(), Catalog(config.items));
  const ccs::MiningSession session(snapshot, engine);
  std::map<std::string, std::string> digests;
  std::size_t wrong = 0;
  for (const auto& [id, body] : last_reply) {
    for (const MixQuery& query : pool) {
      if (query.id != id) continue;
      const std::string rendered = MineQuery(session, query, nullptr).rendered;
      digests[id] = Digest(rendered);
      if (rendered != body) ++wrong;
    }
  }
  out->Check("final MINE equals a batch mine of WindowSnapshot()",
             wrong == 0 && !last_reply.empty(),
             std::to_string(last_reply.size()) + " queries, " +
                 std::to_string(wrong) + " differ");
  out->Check("MINE answers repeat within an epoch", repeat_ok, "");
  out->Check("daemon exits cleanly", clean_exit, "");

  out->Numbers("setup_s", setup_s);
  out->Number("window_s", window_s);
  out->Number("epochs", static_cast<double>(measured_epochs));
  log.Write(out);
  out->Numbers("mix_s", mix_s);
  out->Numbers("mix_s_traced", mix_s_traced);
  out->Counts("outcomes", outcomes.counts());
  out->Counts("counters", counters);
  out->Texts("digests", digests);
  out->Text("stats", stats_json);
  out->Numbers("replay_tick_ms", tick_ms);
  out->Numbers("replay_append_ms", append_ms);
  out->Number("replayed_epochs", static_cast<double>(tick_ms.size()));
  out->Numbers("replay_live_s", replay_live_s);
  out->Numbers("service_kind", service_kind);
  out->Numbers("service_ms", service_ms);
  out->Numbers("service_memo", service_memo);
  out->Number("delta_ticks", delta_ticks);
  out->Number("full_ticks", full_ticks);
  if (trace) out->Spans(tracer.spans());
  return 0;
}

}  // namespace ccsbench
