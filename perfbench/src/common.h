// Shared pieces of the OpenBG benchmark: argument parsing, process and host
// readings from /proc, exact percentiles, the Zipf key sampler, the span
// recorder of the traced mode, the result report and the set-up every
// workload shares.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "construction/schema_mapper.h"
#include "core/openbg.h"
#include "kge/trans_models.h"
#include "rdf/sharded_store.h"

namespace perfbench {

// ---- Command line ----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string trace_out;  // trace file written by the traced mode
  std::string work_dir;   // scratch space for the sharded store
  bool selftest = false;
};

// Strict parser: every flag takes exactly one value, unknown flags and
// missing values are errors. Returns false with a message in *error.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error);
const char* Usage();

// ---- Clocks and /proc readings ---------------------------------------------

uint64_t NowNs();  // steady clock
double ProcessCpuSec();
double ThreadCpuSec();
double PeakRssMb();  // VmHWM
// Run-queue wait (ns) of every live thread of this process, by thread id,
// from /proc/self/task/*/schedstat. Read-only.
using RunqSnapshot = std::map<int, uint64_t>;
RunqSnapshot ReadRunqWait();
// Wait accumulated between two snapshots by the threads alive at `end`
// (a thread started in between counts in full). A thread that exited in
// between is lost, so threads that end inside a phase read their own wait
// with ThreadRunqWaitNs() instead.
uint64_t RunqWaitBetween(const RunqSnapshot& start, const RunqSnapshot& end);
uint64_t ThreadRunqWaitNs();  // the calling thread's

struct HostCpu {
  uint64_t user = 0;
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostCpu ReadHostCpu();  // first line of /proc/stat

// ---- Statistics -------------------------------------------------------------

// Exact percentile with linear interpolation between order statistics
// (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

// Zipf(s) over n ranks; rank r is drawn with probability ~ 1 / (r+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Next(std::mt19937_64* rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

// ---- Traced mode: spans kept in memory, written when the run ends ----------

class Tracer {
 public:
  static Tracer& Get();
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  // Opens a span on the calling thread; returns 0 when tracing is off.
  uint64_t Begin(const char* name, uint64_t parent, uint64_t request_id);
  void End(uint64_t span);

  // Per span name: count, total time and self time (total minus the part
  // of the span's interval its child spans cover), in microseconds.
  struct NameStats {
    uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, NameStats> Summarize() const;
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t request_id;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer* Local();

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t parent = 0, uint64_t request_id = 0)
      : id_(Tracer::Get().Begin(name, parent, request_id)) {}
  ~ScopedSpan() { Tracer::Get().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  uint64_t id_;
};

// ---- Report ------------------------------------------------------------------

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Context(const std::string& key, const std::string& json_value);
  // Attempted and failed operations of one kind.
  void Ops(const std::string& kind, uint64_t attempted, uint64_t failed);
  // Records a correctness failure (printed to stderr, run exits non-zero).
  void Fail(const std::string& what);
  bool correct() const { return failures_.empty(); }
  bool Has(const std::string& metric) const;

  // Prints the context stamp line, then the result object as the last line.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> ops_;
  std::vector<std::string> failures_;
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

// ---- Shared set-up -----------------------------------------------------------

// Input sizes every workload builds from; see README.md.
struct Sizes {
  size_t products = 16000;
  size_t num_relations = 24;
  size_t dev_size = 500;
  size_t test_size = 2000;
  size_t dim = 64;
  size_t model_epochs = 3;
  uint32_t store_shards = 8;
};

struct SetupTimes {
  double world_s = 0.0;
  double dataset_s = 0.0;
  double model_s = 0.0;
  double store_build_s = 0.0;
  double total() const { return world_s + dataset_s + model_s + store_build_s; }
};

// The world every workload runs over: the generated KG, its benchmark split,
// a trained serving TransE, the brand linker and an OBGSNAP2 copy of the KG.
struct World {
  Sizes sizes;
  std::unique_ptr<openbg::core::OpenBG> kg;
  std::unique_ptr<openbg::kge::Dataset> dataset;
  std::unique_ptr<openbg::kge::TransE> model;
  std::unique_ptr<openbg::construction::SchemaMapper> mapper;
  std::shared_ptr<const openbg::rdf::ShardedStore> store;
  std::string store_dir;
  // Brand nodes whose name no other brand node shares: an exact mention of
  // one of these must link to that node.
  std::vector<int> unique_brands;
};

std::unique_ptr<World> BuildWorld(const Sizes& sizes, uint64_t seed,
                                  const std::string& store_dir,
                                  SetupTimes* times);

// Removes a directory tree (the benchmark's own scratch space only).
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
