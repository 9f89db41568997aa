#include "common.h"

#include <dirent.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "client/client.h"
#include "datagen/catalog_generator.h"
#include "datagen/ibm_generator.h"
#include "query/parser.h"
#include "query/query.h"

namespace ccsbench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    values_[key] = argv[i + 1];
  }
}

std::string Flags::Str(const std::string& key,
                       const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Flags::Num(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

std::size_t Flags::Size(const std::string& key, std::size_t fallback) const {
  return static_cast<std::size_t>(Num(key, static_cast<double>(fallback)));
}

namespace {
thread_local std::uint32_t t_open_span = 0;
thread_local std::uint64_t t_request = 0;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t request)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
      name_(name) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NextId();
  parent_ = t_open_span;
  saved_request_ = t_request;
  if (request != 0) t_request = request;
  request_ = t_request;
  t_open_span = id_;
  start_ns_ = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end_ns = NowNs();
  t_open_span = parent_;
  t_request = saved_request_;
  tracer_->Record(Span{id_, parent_, request_, name_, start_ns_, end_ns});
}

std::uint32_t Tracer::NextId() {
  const std::lock_guard<std::mutex> lock(mu_);
  return ++next_id_;
}

void Tracer::Record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string JsonEscape(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {
std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}
}  // namespace

void Result::Number(const std::string& key, double value) {
  fields_.push_back(JsonEscape(key) + ":" + Num(value));
}

void Result::Numbers(const std::string& key, const std::vector<double>& values) {
  std::string out = JsonEscape(key) + ":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += Num(values[i]);
  }
  fields_.push_back(out + "]");
}

void Result::Text(const std::string& key, const std::string& value) {
  fields_.push_back(JsonEscape(key) + ":" + JsonEscape(value));
}

void Result::Counts(const std::string& key,
                    const std::map<std::string, double>& counts) {
  std::string out = JsonEscape(key) + ":{";
  bool first = true;
  for (const auto& [name, value] : counts) {
    if (!first) out += ',';
    first = false;
    out += JsonEscape(name) + ":" + Num(value);
  }
  fields_.push_back(out + "}");
}

void Result::Texts(const std::string& key,
                   const std::map<std::string, std::string>& texts) {
  std::string out = JsonEscape(key) + ":{";
  bool first = true;
  for (const auto& [name, value] : texts) {
    if (!first) out += ',';
    first = false;
    out += JsonEscape(name) + ":" + JsonEscape(value);
  }
  fields_.push_back(out + "}");
}

void Result::Check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back("{\"name\":" + JsonEscape(name) +
                    ",\"ok\":" + (ok ? "true" : "false") +
                    ",\"detail\":" + JsonEscape(detail) + "}");
}

void Result::Spans(const std::vector<Tracer::Span>& spans) {
  std::string out = "\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    if (i > 0) out += ',';
    out += "[" + std::to_string(s.id) + "," + std::to_string(s.parent) + "," +
           std::to_string(s.request) + "," + JsonEscape(s.name) + "," +
           std::to_string(s.start_ns) + "," + std::to_string(s.end_ns) + "]";
  }
  fields_.push_back(out + "]");
}

bool Result::Write(const std::string& path) const {
  std::string out = "{";
  for (const std::string& field : fields_) out += field + ",\n";
  out += "\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) out += ",\n";
    out += checks_[i];
  }
  out += "]}\n";
  std::ofstream file(path);
  file << out;
  return static_cast<bool>(file);
}

std::string Digest(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string RenderAnswers(const std::vector<ccs::Itemset>& answers) {
  std::string out;
  for (const ccs::Itemset& s : answers) {
    out += "SET ";
    out += s.ToString();
    out += '\n';
  }
  return out;
}

std::string SetLines(const std::vector<std::string>& body) {
  std::string out;
  for (const std::string& line : body) {
    if (line.rfind("SET ", 0) == 0) out += line + "\n";
  }
  return out;
}

double PeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

namespace {

// Sets the CPU mask of every thread of this process.
void SetProcessCpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  DIR* tasks = ::opendir("/proc/self/task");
  if (tasks == nullptr) return;
  while (const dirent* entry = ::readdir(tasks)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0) (void)::sched_setaffinity(tid, sizeof(set), &set);
  }
  ::closedir(tasks);
}

}  // namespace

CpuRotation::CpuRotation(std::size_t width) : width_(width) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (next_ > 0) SetProcessCpus(cpus_);
}

void CpuRotation::Next() {
  if (cpus_.size() <= width_) return;
  std::vector<int> window;
  for (std::size_t i = 0; i < width_; ++i) {
    window.push_back(cpus_[(next_ + i) % cpus_.size()]);
  }
  ++next_;
  SetProcessCpus(window);
}

void Outcomes::Add(const std::string& outcome) {
  const std::lock_guard<std::mutex> lock(mu_);
  counts_[outcome] += 1;
}

std::map<std::string, double> Outcomes::counts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::string MixQuery::MineLine() const {
  std::string line = "MINE ";
  if (!algorithm.empty()) line += "algorithm=" + algorithm + " ";
  return line + "query=" + text;
}

std::vector<MixQuery> ReadMix(const std::string& path) {
  std::vector<MixQuery> mix;
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    std::istringstream in(line);
    MixQuery q;
    std::getline(in, q.id, '\t');
    std::getline(in, q.algorithm, '\t');
    std::getline(in, q.text);
    if (q.algorithm == "-") q.algorithm.clear();
    mix.push_back(q);
  }
  return mix;
}

Mined MineQuery(const ccs::MiningSession& session, const MixQuery& query,
                Tracer* tracer) {
  Mined mined;
  ccs::Query parsed_query;
  {
    const Tracer::Scope span(tracer, "query.parse");
    ccs::StatusOr<ccs::Query> parsed = ccs::ParseQueryOrError(query.text);
    if (parsed.ok()) {
      parsed_query = std::move(parsed).value();
    } else {
      ccs::StatusOr<ccs::ConstraintSet> constraints =
          ccs::ParseConstraintsOrError(query.text);
      if (!constraints.ok()) {
        mined.outcome = "error";
        return mined;
      }
      parsed_query.constraints = std::move(constraints).value();
    }
  }
  ccs::MiningRequest request;
  request.algorithm = parsed_query.DefaultAlgorithm();
  if (!query.algorithm.empty()) {
    const std::optional<ccs::Algorithm> named =
        ccs::ParseAlgorithmName(query.algorithm);
    if (!named.has_value()) {
      mined.outcome = "error";
      return mined;
    }
    request.algorithm = *named;
  }
  request.options = parsed_query.ResolveOptions(session.handle().database());
  request.constraints = &parsed_query.constraints;
  {
    const Tracer::Scope span(tracer, "core.run");
    mined.result = session.Run(request);
  }
  mined.outcome = mined.result.termination == ccs::Termination::kCompleted
                      ? "completed"
                      : ccs::TerminationName(mined.result.termination);
  {
    const Tracer::Scope span(tracer, "report.render");
    mined.rendered = RenderAnswers(mined.result.answers);
  }
  return mined;
}

void AddCounters(const ccs::MetricsSnapshot& metrics,
                 std::map<std::string, double>* totals) {
  for (const ccs::MetricScalar& scalar : metrics.scalars) {
    (*totals)[scalar.name] += static_cast<double>(scalar.value);
  }
}

GenConfig GenConfigFromFlags(const Flags& flags, std::uint64_t seed) {
  GenConfig config;
  config.baskets = flags.Size("baskets");
  config.items = flags.Size("items");
  config.patterns = flags.Size("patterns");
  config.pool_factor = flags.Num("pool-factor");
  config.seed = seed;
  return config;
}

std::vector<ccs::Transaction> GenerateBaskets(const GenConfig& config) {
  ccs::IbmGeneratorConfig ibm;
  ibm.num_transactions = static_cast<std::size_t>(
      static_cast<double>(config.baskets) * config.pool_factor);
  ibm.num_items = config.items;
  ibm.avg_transaction_size = 10.0;
  ibm.avg_pattern_size = 4.0;
  ibm.num_patterns = config.patterns;
  ibm.seed = 1;
  const ccs::TransactionDatabase pool = ccs::IbmGenerator(ibm).Generate();
  std::vector<std::size_t> order(pool.num_transactions());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(config.seed);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<ccs::Transaction> baskets;
  baskets.reserve(config.baskets);
  for (std::size_t i = 0; i < config.baskets && i < order.size(); ++i) {
    baskets.push_back(pool.transaction(order[i]));
  }
  return baskets;
}

ccs::TransactionDatabase Load(const std::vector<ccs::Transaction>& baskets,
                              std::size_t items) {
  ccs::TransactionDatabase db(items);
  for (const ccs::Transaction& basket : baskets) db.Add(basket);
  db.Finalize();
  return db;
}

ccs::ItemCatalog Catalog(std::size_t items) {
  return ccs::MakeLinearPriceCatalog(items);
}

Daemon::~Daemon() {
  if (pid_ > 0) Stop();
}

bool Daemon::Start(const std::string& binary,
                   const std::vector<std::string>& args,
                   const std::string& socket_path, const std::string& log_path,
                   std::chrono::milliseconds timeout) {
  socket_path_ = socket_path;
  ::unlink(socket_path.c_str());
  std::vector<std::string> argv_text = {binary};
  argv_text.insert(argv_text.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_text) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) return false;
  if (pid_ == 0) {
    // The daemon must not outlive the harness, however the harness ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
    }
    ::execv(binary.c_str(), argv.data());
    std::_Exit(127);
  }
  ccs::client::ClientOptions options;
  options.socket_path = socket_path;
  options.backoff.max_attempts = 1;
  ccs::client::Client client(options);
  const auto deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    const auto reply = client.Request("PING");
    if (reply.ok() && reply->header.rfind("OK", 0) == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

bool Daemon::Stop() {
  if (pid_ <= 0) return false;
  ccs::client::ClientOptions options;
  options.socket_path = socket_path_;
  options.backoff.max_attempts = 1;
  (void)ccs::client::Client(options).Request("SHUTDOWN");
  int status = 0;
  bool exited = false;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  ::unlink(socket_path_.c_str());
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::vector<std::string> WireLog::Send(ccs::client::Client* client,
                                       Tracer* tracer, WireRecord record,
                                       Outcomes* outcomes) {
  const std::int64_t start = NowNs();
  ccs::StatusOr<ccs::client::Response> reply = [&] {
    const Tracer::Scope scope(tracer, "client.request", record.request);
    return client->Request(record.line);
  }();
  const std::int64_t end = NowNs();
  record.start_ms = static_cast<double>(start - origin_ns_) / 1e6;
  record.end_ms = static_cast<double>(end - origin_ns_) / 1e6;
  record.traced = tracer != nullptr && tracer->enabled();
  std::string outcome = "completed";
  std::vector<std::string> body;
  if (!reply.ok()) {
    outcome = std::string("error:") + ccs::StatusCodeName(reply.status().code());
  } else {
    const std::string& header = reply->header;
    const std::size_t term = header.find("termination=");
    if (term != std::string::npos) {
      const std::size_t begin = term + 12;
      const std::string value =
          header.substr(begin, header.find(' ', begin) - begin);
      if (value != "completed") outcome = "partial:" + value;
    }
    if (record.kind == kMine) {
      record.memo = header.find("memo=hit") != std::string::npos ? 1 : 0;
    }
    if (record.kind == kTick) {
      record.full = header.find("mode=full") != std::string::npos ? 1 : 0;
    }
    body = std::move(reply->body);
  }
  if (record.counted) outcomes->Add(outcome);
  const std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
  return body;
}

std::vector<WireRecord> WireLog::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

void WireLog::Write(Result* out) const {
  const std::vector<WireRecord> records = this->records();
  std::vector<double> kind, start, end, memo, full, traced, counted, request;
  for (const WireRecord& r : records) {
    kind.push_back(r.kind);
    start.push_back(r.start_ms);
    end.push_back(r.end_ms);
    memo.push_back(r.memo);
    full.push_back(r.full);
    traced.push_back(r.traced ? 1 : 0);
    counted.push_back(r.counted ? 1 : 0);
    request.push_back(static_cast<double>(r.request));
  }
  out->Numbers("wire_kind", kind);
  out->Numbers("wire_start_ms", start);
  out->Numbers("wire_end_ms", end);
  out->Numbers("wire_memo", memo);
  out->Numbers("wire_full", full);
  out->Numbers("wire_traced", traced);
  out->Numbers("wire_counted", counted);
  out->Numbers("wire_request", request);
}

std::string StatsJson(const std::string& socket) {
  ccs::client::ClientOptions options;
  options.socket_path = socket;
  ccs::client::Client client(options);
  const auto reply = client.Request("STATS");
  if (reply.ok()) {
    for (const std::string& line : reply->body) {
      if (line.rfind("STATS ", 0) == 0) return line.substr(6);
    }
  }
  return "";
}

}  // namespace ccsbench
