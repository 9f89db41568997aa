// Shared pieces of the benchmark harness: flags, spans, the JSON result
// writer, answer digests, data generation, and daemon process control.
//
// The harness only measures. It drives ccsmine through public calls, keeps
// its raw samples and spans in memory, and writes them as one JSON file;
// perfbench/run.py turns that file into metrics and checks the answers.
#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/itemset.h"
#include "core/result.h"
#include "client/client.h"
#include "core/session.h"
#include "txn/catalog.h"
#include "txn/database.h"

namespace ccsbench {

// --key value flags; every value is kept as text.
class Flags {
 public:
  Flags(int argc, char** argv);
  std::string Str(const std::string& key, const std::string& fallback = "") const;
  double Num(const std::string& key, double fallback = 0) const;
  std::size_t Size(const std::string& key, std::size_t fallback = 0) const;

 private:
  std::map<std::string, std::string> values_;
};

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double MsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// In-memory span log. A span has a name, start, end, the span open on the
// same thread when it began (its parent), and a request id shared by all
// spans of one query or wire request. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::uint32_t id;
    std::uint32_t parent;  // 0: root
    std::uint64_t request;
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  // Opens a span for its lifetime. `request` != 0 starts a new request
  // scope on this thread; 0 inherits the enclosing one.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    std::uint64_t request_ = 0;
    std::uint64_t saved_request_ = 0;
    const char* name_;
    std::int64_t start_ns_ = 0;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  std::vector<Span> spans() const;

 private:
  void Record(const Span& span);
  std::uint32_t NextId();

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::uint32_t next_id_ = 0;
  std::vector<Span> spans_;
};

// Append-only builder for the harness's result object.
class Result {
 public:
  void Number(const std::string& key, double value);
  void Numbers(const std::string& key, const std::vector<double>& values);
  void Text(const std::string& key, const std::string& value);
  // A flat object of numbers, e.g. counters or outcome counts.
  void Counts(const std::string& key, const std::map<std::string, double>& counts);
  void Texts(const std::string& key, const std::map<std::string, std::string>& texts);
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Spans(const std::vector<Tracer::Span>& spans);
  bool Write(const std::string& path) const;

 private:
  std::vector<std::string> fields_;
  std::vector<std::string> checks_;
};

std::string JsonEscape(const std::string& text);

// FNV-1a 64 of `bytes`, as 16 hex digits.
std::string Digest(const std::string& bytes);

// The wire rendering of an answer set: one "SET <itemset>" line per
// answer, byte-identical to the SET lines of a ccsmined MINE reply.
std::string RenderAnswers(const std::vector<ccs::Itemset>& answers);

// The "SET ..." lines of a MINE reply body, each with its newline: the
// bytes RenderAnswers produces for the same answers.
std::string SetLines(const std::vector<std::string>& body);

// Peak resident set (VmHWM) of a process in MiB; 0 if unreadable.
double PeakRssMb(pid_t pid);

// Moves every thread of this process over the CPUs it may run on, a
// window of `width` CPUs per Next(). On a shared machine one vCPU can run
// ~1.7x slower than the others for seconds at a time, and the scheduler
// keeps a busy thread where it is, so an unpinned run's speed is that of
// whichever vCPU it landed on. Rotating makes the passes of a run sample
// every vCPU, and their median the speed of a typical one. The destructor
// restores the original mask.
class CpuRotation {
 public:
  explicit CpuRotation(std::size_t width);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void Next();

 private:
  std::vector<int> cpus_;
  std::size_t width_;
  std::size_t next_ = 0;
};

// Tally of operation outcomes: "completed", or the reason it failed.
class Outcomes {
 public:
  void Add(const std::string& outcome);
  std::map<std::string, double> counts() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, double> counts_;
};

// One query of a workload's mix: an id, an algorithm name ("" = the
// query's default) and the query text.
struct MixQuery {
  std::string id;
  std::string algorithm;
  std::string text;
  // The MINE request line that asks the daemon for this query.
  std::string MineLine() const;
};

// Reads "id<TAB>algorithm<TAB>query" lines; algorithm "-" means default.
std::vector<MixQuery> ReadMix(const std::string& path);

// One in-process query, as ccsmined's MINE handles it: parse (full grammar,
// bare constraints as fallback), run, render. Spans query.parse, core.run
// and report.render when the tracer is on.
struct Mined {
  // "completed", the termination name of a partial run, or "error".
  std::string outcome;
  std::string rendered;
  ccs::MiningResult result;
};
Mined MineQuery(const ccs::MiningSession& session, const MixQuery& query,
                Tracer* tracer);

// Adds every scalar of `metrics` into `totals` by name.
void AddCounters(const ccs::MetricsSnapshot& metrics,
                 std::map<std::string, double>* totals);

// Baskets sampled from a fixed IBM Quest population. The population --
// the generator's pattern table and a pool of pool_factor x baskets
// baskets -- comes from generator seed 1 and is the same for every run of
// a workload; the run's seed only draws which baskets of the pool it gets.
// So runs with different seeds see different inputs of one workload,
// rather than different workloads. Basket and pattern sizes are those of
// ccsmine's own `--generate ibm`.
struct GenConfig {
  std::size_t baskets = 0;
  std::size_t items = 0;
  std::size_t patterns = 0;
  double pool_factor = 2;
  std::uint64_t seed = 1;
};
GenConfig GenConfigFromFlags(const Flags& flags, std::uint64_t seed);
std::vector<ccs::Transaction> GenerateBaskets(const GenConfig& config);
// Adds the baskets to a fresh database and finalizes it.
ccs::TransactionDatabase Load(const std::vector<ccs::Transaction>& baskets,
                              std::size_t items);
ccs::ItemCatalog Catalog(std::size_t items);

// A ccsmined child process.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns `binary args...` with stdout/stderr to `log_path`, then polls
  // with PING until the first "OK". Returns false on spawn failure,
  // early exit, or no answer within `timeout`.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& socket_path, const std::string& log_path,
             std::chrono::milliseconds timeout);
  // SHUTDOWN, then wait; SIGKILL if it has not exited within 10 s.
  // Returns true on a clean exit 0.
  bool Stop();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
};

// Request kinds in the wire log, as numbers in the result file.
enum WireKind { kMine = 0, kPing = 1, kStats = 2, kAppend = 3, kTick = 4 };

// One request sent through ccs::client::Client, as the client saw it.
struct WireRecord {
  int kind = kMine;
  double start_ms = 0;  // from the run's time origin
  double end_ms = 0;
  int memo = -1;        // MINE: 1 memo hit, 0 miss; -1 otherwise
  int full = -1;        // TICK: 1 full re-mine, 0 delta; -1 otherwise
  bool traced = false;
  bool counted = false;  // inside the measured window
  std::size_t client = 0;  // which closed-loop caller sent it
  std::uint64_t request = 0;
  std::string line;
};

// Sends `line` through `client` inside a client.request span, records it
// in `log`, and tallies its outcome when `record->counted`: "completed",
// "partial:<termination>" for a MINE or TICK that did not complete, or
// "error:<code>" for an ERR reply or a transport failure. Returns the
// reply body (empty on failure).
class WireLog {
 public:
  explicit WireLog(std::int64_t origin_ns) : origin_ns_(origin_ns) {}
  std::vector<std::string> Send(ccs::client::Client* client, Tracer* tracer,
                                WireRecord record, Outcomes* outcomes);
  std::vector<WireRecord> records() const;
  // Parallel arrays wire_kind/start_ms/end_ms/memo/full/traced/counted/
  // request.
  void Write(Result* out) const;

 private:
  const std::int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<WireRecord> records_;
};

// The JSON of a STATS reply from the daemon at `socket`; "" on failure.
std::string StatsJson(const std::string& socket);

}  // namespace ccsbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
