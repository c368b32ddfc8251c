#include "common.h"

#include <dirent.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "kge/trainer.h"
#include "util/rng.h"

namespace perfbench {

// ---- Command line ----------------------------------------------------------

const char* Usage() {
  return "usage: perfbench --workload <lp-wire|graph-mix-live|kge-train-eval>"
         " --seed <n> --seconds <n> --trace <0|1>"
         " [--trace-out <file>] [--work-dir <dir>]\n"
         "       perfbench --selftest\n";
}

namespace {

bool ParseUint(const std::string& s, uint64_t max, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t d = static_cast<uint64_t>(c - '0');
    if (v > (max - d) / 10) return false;
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    args->selftest = true;
    return true;
  }
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--trace-out" && flag != "--work-dir") {
      *error = "unknown argument '" + flag + "'";
      return false;
    }
    if (i + 1 >= argc) {
      *error = "flag " + flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    uint64_t v = 0;
    if (flag == "--workload") {
      if (value != "lp-wire" && value != "graph-mix-live" &&
          value != "kge-train-eval") {
        *error = "unknown workload '" + value + "'";
        return false;
      }
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, UINT64_MAX, &v)) {
        *error = "--seed needs a non-negative integer";
        return false;
      }
      args->seed = v;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, 600, &v) || v == 0) {
        *error = "--seconds needs an integer in [1, 600]";
        return false;
      }
      args->seconds = static_cast<int>(v);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace needs 0 or 1";
        return false;
      }
      args->trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      args->work_dir = value;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    *error = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

// ---- Clocks and /proc readings ---------------------------------------------

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

double ClockSec(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuSec() { return ClockSec(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSec() { return ClockSec(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

bool ReadSchedstatWait(const std::string& path, uint64_t* wait_ns) {
  std::ifstream in(path);
  uint64_t run_ns = 0;
  return static_cast<bool>(in >> run_ns >> *wait_ns);
}

}  // namespace

RunqSnapshot ReadRunqWait() {
  RunqSnapshot snap;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return snap;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    uint64_t wait_ns = 0;
    if (ReadSchedstatWait(std::string("/proc/self/task/") + e->d_name + "/schedstat",
                          &wait_ns)) {
      snap[std::atoi(e->d_name)] = wait_ns;
    }
  }
  closedir(dir);
  return snap;
}

uint64_t RunqWaitBetween(const RunqSnapshot& start, const RunqSnapshot& end) {
  uint64_t total = 0;
  for (const auto& [tid, wait] : end) {
    auto it = start.find(tid);
    const uint64_t before = it == start.end() ? 0 : it->second;
    if (wait > before) total += wait - before;
  }
  return total;
}

uint64_t ThreadRunqWaitNs() {
  uint64_t wait_ns = 0;
  return ReadSchedstatWait("/proc/thread-self/schedstat", &wait_ns) ? wait_ns : 0;
}

HostCpu ReadHostCpu() {
  HostCpu h;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t f[10] = {};
  for (int i = 0; i < 10 && (in >> f[i]); ++i) {
  }
  h.user = f[0] + f[1];
  h.steal = f[7];
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int i = 0; i < 8; ++i) h.total += f[i];
  return h;
}

// ---- Statistics -------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Next(std::mt19937_64* rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
  const size_t i = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

// ---- Tracer ------------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer* Tracer::Local() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    local = buffers_.back().get();
    local->thread = static_cast<uint32_t>(buffers_.size());
    local->spans.reserve(1 << 16);
  }
  return local;
}

// Span ids pack (thread buffer, index + 1), so 0 means "no span".
uint64_t Tracer::Begin(const char* name, uint64_t parent,
                       uint64_t request_id) {
  if (!enabled_) return 0;
  Buffer* b = Local();
  const uint64_t id = (static_cast<uint64_t>(b->thread) << 40) |
                      (static_cast<uint64_t>(b->spans.size()) + 1);
  b->spans.push_back(Span{name, id, parent, request_id, NowNs(), 0});
  return id;
}

void Tracer::End(uint64_t span) {
  if (span == 0) return;
  const uint64_t now = NowNs();
  Buffer* b = Local();
  const uint64_t index = (span & ((uint64_t{1} << 40) - 1)) - 1;
  if ((span >> 40) == b->thread && index < b->spans.size()) {
    b->spans[index].end_ns = now;
  }
}

std::map<std::string, Tracer::NameStats> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of each span, as intervals.
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      if (s.parent != 0 && s.end_ns != 0) {
        children[s.parent].push_back({s.start_ns, s.end_ns});
      }
    }
  }
  std::map<std::string, NameStats> out;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      if (s.end_ns == 0) continue;
      NameStats& st = out[s.name];
      const double total = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      double covered = 0.0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        uint64_t cur_lo = 0, cur_hi = 0;
        for (auto [lo, hi] : iv) {
          lo = std::max(lo, s.start_ns);
          hi = std::min(hi, s.end_ns);
          if (hi <= lo) continue;
          if (lo > cur_hi) {
            covered += static_cast<double>(cur_hi - cur_lo);
            cur_lo = lo;
            cur_hi = hi;
          } else {
            cur_hi = std::max(cur_hi, hi);
          }
        }
        covered += static_cast<double>(cur_hi - cur_lo);
      }
      ++st.count;
      st.total_us += total;
      st.self_us += total - covered / 1e3;
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      if (s.end_ns == 0) continue;
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"thread\":%u,\"start_ns\":%llu,"
                   "\"end_ns\":%llu}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request_id), b->thread,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

// ---- Report ------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
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

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

bool Report::Has(const std::string& metric) const {
  for (const Entry& e : metrics_) {
    if (e.name == metric) return true;
  }
  return false;
}

void Report::Context(const std::string& key, const std::string& json_value) {
  context_.push_back({key, json_value});
}

void Report::Ops(const std::string& kind, uint64_t attempted,
                 uint64_t failed) {
  auto& e = ops_[kind];
  e.first += attempted;
  e.second += failed;
}

void Report::Fail(const std::string& what) {
  if (failures_.size() < 20) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", what.c_str());
  }
  failures_.push_back(what);
}

void Report::Print() const {
  uint64_t attempted = 0, failed = 0;
  std::string ops = "{";
  for (const auto& [kind, af] : ops_) {
    if (ops.size() > 1) ops += ",";
    ops += JsonString(kind) + ":{\"attempted\":" + std::to_string(af.first) +
           ",\"failed\":" + std::to_string(af.second) + "}";
    attempted += af.first;
    failed += af.second;
  }
  ops += "}";
  std::string ctx = "{";
  for (const auto& [k, v] : context_) {
    if (ctx.size() > 1) ctx += ",";
    ctx += JsonString(k) + ":" + v;
  }
  if (ctx.size() > 1) ctx += ",";
  ctx += "\"ops\":" + ops + "}";
  std::printf("context %s\n", ctx.c_str());

  std::string m = "{";
  for (const Entry& e : metrics_) {
    if (m.size() > 1) m += ",";
    m += JsonString(e.name) + ":{\"value\":" + JsonNumber(e.value) +
         ",\"unit\":" + JsonString(e.unit) + "}";
  }
  m += "}";
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.c_str());
  std::fflush(stdout);
}

// ---- Shared set-up -----------------------------------------------------------

namespace {

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

}  // namespace

std::unique_ptr<World> BuildWorld(const Sizes& sizes, uint64_t seed,
                                  const std::string& store_dir,
                                  SetupTimes* times) {
  using namespace openbg;
  auto w = std::make_unique<World>();
  w->sizes = sizes;

  uint64_t t0 = NowNs();
  core::OpenBG::Options options;
  options.world.seed = util::SplitMix64(seed ^ 0x3A11D0Cull);
  options.world.num_products = sizes.products;
  w->kg = core::OpenBG::Build(options);
  w->mapper = std::make_unique<construction::SchemaMapper>(
      w->kg->world().brands);
  times->world_s = SecondsSince(t0);

  t0 = NowNs();
  bench_builder::BenchmarkSpec spec;
  spec.name = "perfbench";
  spec.seed = util::SplitMix64(seed ^ 0xDA7A5E7ull);
  spec.num_relations = sizes.num_relations;
  spec.dev_size = sizes.dev_size;
  spec.test_size = sizes.test_size;
  w->dataset =
      std::make_unique<kge::Dataset>(w->kg->BuildBenchmark(spec, nullptr));
  times->dataset_s = SecondsSince(t0);

  t0 = NowNs();
  util::Rng rng(util::SplitMix64(seed ^ 0x70DE1ull));
  w->model = std::make_unique<kge::TransE>(w->dataset->num_entities(),
                                           w->dataset->num_relations(),
                                           sizes.dim, 1.0f, &rng);
  kge::TrainConfig config;
  config.epochs = sizes.model_epochs;
  config.batch_size = 256;
  config.seed = util::SplitMix64(seed ^ 0x7A1Bull);
  kge::TrainKgeModel(w->model.get(), *w->dataset, config);
  w->model->PrepareEval();
  times->model_s = SecondsSince(t0);

  t0 = NowNs();
  RemoveTree(store_dir);
  w->store_dir = store_dir;
  rdf::ShardedBuildOptions build;
  build.num_shards = sizes.store_shards;
  util::Status s = rdf::BuildShardedStore(w->kg->graph().store, store_dir, build);
  if (!s.ok()) {
    std::fprintf(stderr, "[perfbench] store build: %s\n", s.message().c_str());
    return nullptr;
  }
  auto opened = rdf::ShardedStore::Open(store_dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "[perfbench] store open: %s\n",
                 opened.status().message().c_str());
    return nullptr;
  }
  w->store = opened.value();
  times->store_build_s = SecondsSince(t0);

  std::unordered_map<std::string, int> name_count;
  const auto& brands = w->kg->world().brands.nodes;
  for (const auto& node : brands) ++name_count[node.name];
  for (size_t i = 0; i < brands.size(); ++i) {
    if (name_count[brands[i].name] == 1) {
      w->unique_brands.push_back(static_cast<int>(i));
    }
  }
  return w;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
