// batch-* workloads: one in-process, closed-loop caller runs a fixed query
// mix over a generated database, pass after pass, until the time is up.
#include <unistd.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/session.h"
#include "workloads.h"

namespace ccsbench {

namespace {

struct Setup {
  ccs::DatabaseHandle handle;
  double seconds = 0;
};

// Generate, load the baskets into a fresh database and Finalize it, then
// create the handle: what a library user does before the first query.
Setup SetUp(const GenConfig& config, Tracer* tracer, std::uint64_t request) {
  const Tracer::Scope root(tracer, "bench.setup", request);
  const std::int64_t start = NowNs();
  std::vector<ccs::Transaction> baskets;
  {
    const Tracer::Scope span(tracer, "datagen.generate");
    baskets = GenerateBaskets(config);
  }
  ccs::TransactionDatabase db(config.items);
  {
    const Tracer::Scope span(tracer, "txn.load");
    for (const ccs::Transaction& basket : baskets) db.Add(basket);
  }
  {
    const Tracer::Scope span(tracer, "txn.finalize");
    db.Finalize();
  }
  Setup setup;
  {
    const Tracer::Scope span(tracer, "session.handle_create");
    setup.handle = ccs::DatabaseHandle::Create(std::move(db),
                                               Catalog(config.items));
  }
  setup.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return setup;
}

}  // namespace

int RunBatch(const Flags& flags, Result* out) {
  const std::uint64_t seed = flags.Size("seed");
  const double seconds = flags.Num("seconds");
  const bool trace = flags.Num("trace") != 0;
  const std::vector<MixQuery> mix = ReadMix(flags.Str("mix"));
  if (mix.empty()) return 2;
  Tracer tracer;
  tracer.set_enabled(trace);
  std::uint64_t next_request = 1;

  // A run mines `samples` independent samples of the population, so that
  // one sample's luck near the support threshold moves the result less.
  const std::size_t samples = flags.Size("samples", 1);
  std::vector<GenConfig> configs;
  for (std::size_t k = 0; k < samples; ++k) {
    configs.push_back(GenConfigFromFlags(flags, samples == 1 ? seed : seed * 1009 + k));
  }
  // Set-up is measured setup-reps times, half before the measured window
  // and half after it, so that the median spans the machine's state over
  // the whole run. The last set-up before the window is the one mined.
  const std::size_t setup_reps = flags.Size("setup-reps");
  std::vector<double> setup_s;
  std::vector<Setup> setups(samples);
  for (std::size_t rep = 0; rep < (setup_reps + 1) / 2; ++rep) {
    double seconds_total = 0;
    for (std::size_t k = 0; k < samples; ++k) {
      setups[k] = SetUp(configs[k], &tracer, next_request++);
      seconds_total += setups[k].seconds;
    }
    setup_s.push_back(seconds_total);
  }
  tracer.set_enabled(false);

  ccs::EngineOptions engine;
  engine.num_threads = flags.Size("threads", 1);
  std::vector<ccs::MiningSession> sessions;
  for (const Setup& setup : setups) sessions.emplace_back(setup.handle, engine);
  // A pass runs every query of the mix on every sample, in this order.
  struct Job {
    std::size_t sample;
    const MixQuery* query;
    std::string id;
  };
  std::vector<Job> jobs;
  for (std::size_t k = 0; k < samples; ++k) {
    for (const MixQuery& query : mix) {
      jobs.push_back({k, &query,
                      samples == 1 ? query.id : query.id + "@" + std::to_string(k)});
    }
  }

  Outcomes outcomes;
  std::map<std::string, std::string> digests;
  std::map<std::string, double> counters;
  bool stable = true;
  std::string unstable;
  std::vector<double> mix_s, mix_s_traced, mine_ms;
  double traced_passes = 0;

  // One pass over the jobs. The first pass warms the executor pool and
  // the caches and is not timed. Rendered answers are hashed after the
  // pass, outside its timing.
  const auto pass = [&](bool timed, bool traced) {
    tracer.set_enabled(traced);
    std::vector<std::string> rendered(jobs.size());
    std::map<std::string, double> pass_counters;
    const std::int64_t start = NowNs();
    {
      const Tracer::Scope root(&tracer, "bench.pass");
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::int64_t q_start = NowNs();
        const Tracer::Scope span(&tracer, "bench.query", next_request++);
        Mined mined = MineQuery(sessions[jobs[i].sample], *jobs[i].query, &tracer);
        if (timed) {
          outcomes.Add(mined.outcome);
          mine_ms.push_back(MsSince(q_start));
        }
        if (traced) AddCounters(mined.result.metrics, &pass_counters);
        rendered[i] = std::move(mined.rendered);
      }
    }
    const double pass_s = static_cast<double>(NowNs() - start) / 1e9;
    tracer.set_enabled(false);
    if (timed) (traced ? mix_s_traced : mix_s).push_back(pass_s);
    if (traced) {
      traced_passes += 1;
      for (const auto& [name, value] : pass_counters) counters[name] += value;
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::string digest = Digest(rendered[i]);
      auto [it, inserted] = digests.emplace(jobs[i].id, digest);
      if (!inserted && it->second != digest) {
        stable = false;
        unstable = jobs[i].id;
      }
    }
  };

  pass(/*timed=*/false, /*traced=*/false);
  // With tracing on, untraced and traced passes alternate, so that the
  // tracing overhead is the difference between two sets of passes
  // interleaved in time.
  const std::int64_t begin = NowNs();
  const auto elapsed = [&] { return static_cast<double>(NowNs() - begin) / 1e9; };
  double window_s = 0;
  {
    CpuRotation rotation(std::max<std::size_t>(1, engine.num_threads));
    bool traced = false;
    while (elapsed() < seconds || mix_s.size() < 2 ||
           (trace && mix_s_traced.size() < 2)) {
      rotation.Next();
      pass(true, traced);
      traced = trace && !traced;
    }
    window_s = elapsed();
  }
  const double rss_peak_mb = PeakRssMb(::getpid());
  while (setup_s.size() < setup_reps) {
    double seconds_total = 0;
    for (const GenConfig& config : configs) {
      seconds_total += SetUp(config, nullptr, 0).seconds;
    }
    setup_s.push_back(seconds_total);
  }

  // For seeds without stored digests: the answers must equal those of a
  // single-threaded session (answers are thread-count invariant).
  if (flags.Num("reference") != 0) {
    std::size_t wrong = 0;
    for (const Job& job : jobs) {
      const ccs::MiningSession serial(setups[job.sample].handle, ccs::EngineOptions{});
      if (Digest(MineQuery(serial, *job.query, nullptr).rendered) != digests[job.id]) {
        ++wrong;
      }
    }
    out->Check("answers equal a threads=1 run", wrong == 0,
               std::to_string(wrong) + " of " + std::to_string(jobs.size()) +
                   " queries differ");
  }

  out->Numbers("setup_s", setup_s);
  out->Number("rss_peak_mb", rss_peak_mb);
  out->Numbers("mix_s", mix_s);
  out->Numbers("mix_s_traced", mix_s_traced);
  out->Numbers("mine_ms", mine_ms);
  out->Number("window_s", window_s);
  out->Number("traced_passes", traced_passes);
  out->Number("queries_per_pass", static_cast<double>(jobs.size()));
  out->Counts("outcomes", outcomes.counts());
  out->Counts("counters", counters);
  out->Texts("digests", digests);
  out->Check("answers repeat across passes", stable,
             stable ? "" : "query " + unstable + " changed between passes");
  if (trace) out->Spans(tracer.spans());
  return 0;
}

}  // namespace ccsbench
