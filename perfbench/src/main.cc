// perfbench: the OpenBG benchmark binary. Builds the shared world several
// times (set-up time is the median), runs one workload for --seconds, checks
// its answers against independent oracles and prints one JSON result line.
// See perfbench/README.md.
#include <sched.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "nn/simd.h"
#include "oracles.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupRuns = 3;
// The world (KG, benchmark split, serving model, store) is the same in every
// run; --seed drives each workload's inputs: request streams and keys,
// update batches, training and ranking samples. With the world drawn from
// --seed as well, lp-wire throughput differed by up to 12 % between seeds
// while repeats of one seed agreed within 3 %.
constexpr uint64_t kWorldSeed = 1;

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order. A traced run prints all
// of them: ProbeLayers measures the times and rates its workload does not,
// and a count or ratio of a layer the workload does not exercise reads 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"serve.engine_lp_p50_us", "us"},
    {"serve.engine_lp_p99_us", "us"},
    {"net.overhead_p50_us", "us"},
    {"nn.score_tails_us", "us"},
    {"serve.select_topk_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"net.client_cpu_us_per_op", "us"},
    {"net.server_cpu_us_per_op", "us"},
    {"net.frames_out", "count"},
    {"proc.runq_wait_us_per_op", "us"},
    {"rdf.snapshot_match_us", "us"},
    {"serve.engine_graph_overhead_us", "us"},
    {"rdf.delta_entries_end", "count"},
    {"rdf.compactions_failed", "count"},
    {"serve.invalidated_per_write", "ratio"},
    {"construction.link_us", "us"},
    {"rdf.resident_mb", "MiB"},
    {"rdf.apply_p50_us", "us"},
    {"rdf.apply_p99_us", "us"},
    {"kge.epoch_ms_p50", "ms"},
    {"kge.train_busy_ratio", "ratio"},
    {"util.parallel_for_us", "us"},
    {"kge.eval_queries_per_s", "1/s"},
    {"kge.eval_cpu_us_per_query", "us"},
    {"kge.eval_busy_ratio", "ratio"},
    {"setup.world_s", "s"},
    {"setup.dataset_s", "s"},
    {"setup.model_s", "s"},
    {"setup.store_build_s", "s"},
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n%s", error.c_str(), Usage());
    return 2;
  }
  const std::string selftest = RunSelfTest();
  if (args.selftest) {
    std::printf("oracle self-test: %s\n", selftest.empty() ? "ok" : selftest.c_str());
    return selftest.empty() ? 0 : 1;
  }
  if (!selftest.empty()) {
    std::fprintf(stderr, "perfbench: oracle self-test failed: %s\n", selftest.c_str());
    return 1;
  }
  if (args.work_dir.empty()) args.work_dir = ".bench_build/perfbench-work";
  if (args.trace) Tracer::Get().Enable();
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.work_dir.c_str());
    return 1;
  }

  Report report;
  const Sizes sizes;
  const std::string store_dir = args.work_dir + "/store";
  std::unique_ptr<World> world;
  std::vector<double> total, world_s, dataset_s, model_s, store_s;
  for (int i = 0; i < kSetupRuns; ++i) {
    world.reset();
    SetupTimes t;
    {
      ScopedSpan span("setup");
      world = BuildWorld(sizes, kWorldSeed, store_dir, &t);
    }
    if (world == nullptr) {
      RemoveTree(args.work_dir);
      return 1;
    }
    total.push_back(t.total());
    world_s.push_back(t.world_s);
    dataset_s.push_back(t.dataset_s);
    model_s.push_back(t.model_s);
    store_s.push_back(t.store_build_s);
  }

  // The peak so far is set-up's: a workload's rss_mb above it is memory its
  // phase added.
  const double setup_rss_mb = PeakRssMb();
  const HostCpu host0 = ReadHostCpu();
  PhaseResult r;
  if (args.workload == "lp-wire") {
    r = RunLpWire(args, world.get(), &report);
  } else if (args.workload == "graph-mix-live") {
    r = RunGraphMixLive(args, world.get(), &report);
  } else {
    r = RunKgeTrainEval(args, world.get(), &report);
  }
  const HostCpu host1 = ReadHostCpu();

  const double steal = static_cast<double>(host1.steal - host0.steal);
  const double host_total = static_cast<double>(host1.total - host0.total);
  const double host_user = static_cast<double>(host1.user - host0.user);
  const auto& kg_stats = world->kg->graph().store;
  report.Context("workload", JsonString(args.workload));
  report.Context("seed", std::to_string(args.seed));
  report.Context("seconds", std::to_string(args.seconds));
  report.Context("trace", args.trace ? "true" : "false");
  report.Context("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Context("affinity_cpus", std::to_string(AffinityCpus()));
  report.Context("cpu_model", JsonString(CpuModel()));
  report.Context("build_type", JsonString(PERFBENCH_BUILD_TYPE));
  const char* source = std::getenv("PERFBENCH_SOURCE");
  report.Context("source", JsonString(source != nullptr ? source : "unknown"));
  report.Context("kernel_backend",
                 JsonString(openbg::nn::simd::Active().name));
  report.Context("kg_triples", std::to_string(kg_stats.size()));
  report.Context("entities", std::to_string(world->dataset->num_entities()));
  report.Context("train_triples", std::to_string(world->dataset->train.size()));
  report.Context("host_steal_share", JsonNumber(host_total > 0 ? steal / host_total : 0.0));
  report.Context("host_steal_per_user", JsonNumber(host_user > 0 ? steal / host_user : 0.0));
  report.Context("runq_wait_share",
                 JsonNumber(r.timed_s > 0 ? r.runq_wait_s / r.timed_s : 0.0));
  report.Context("timed_s", JsonNumber(r.timed_s));
  report.Context("setup_peak_rss_mb", JsonNumber(setup_rss_mb));
  // The timed phase's figures in every mode: the traced run's against the
  // untraced run's give the tracing overhead. Wall-clock throughput and
  // latency are reported here only: under host steal they move by 30 to 45 %
  // between runs of one seed set, more than any bound the benchmark may set,
  // while CPU time per operation stays within 15 %.
  report.Context("phase_throughput_per_s", JsonNumber(r.throughput_per_s));
  report.Context("phase_p50_us", JsonNumber(r.p50_us));
  report.Context("phase_p99_us", JsonNumber(r.p99_us));
  report.Context("phase_cpu_us_per_op", JsonNumber(r.cpu_us_per_op));

  if (!args.trace) {
    report.Metric("cpu_us_per_op", r.cpu_us_per_op, "us");
    report.Metric("setup_s", Median(total), "s");
    report.Metric("rss_mb", r.rss_mb, "MiB");
  } else {
    if (!report.Has("proc.runq_wait_us_per_op")) {
      report.Metric("proc.runq_wait_us_per_op", r.runq_wait_us_per_op, "us");
    }
    report.Metric("setup.world_s", Median(world_s), "s");
    report.Metric("setup.dataset_s", Median(dataset_s), "s");
    report.Metric("setup.model_s", Median(model_s), "s");
    report.Metric("setup.store_build_s", Median(store_s), "s");
    ProbeLayers(world.get(), &report);
    for (const LayerMetric& m : kLayerMetrics) {
      if (!report.Has(m.name)) report.Metric(m.name, 0.0, m.unit);
    }
    // Self time per span name, then the spans themselves.
    std::string summary = "{";
    for (const auto& [name, st] : Tracer::Get().Summarize()) {
      if (summary.size() > 1) summary += ",";
      summary += JsonString(name) + ":{\"count\":" + std::to_string(st.count) +
                 ",\"total_us\":" + JsonNumber(st.total_us) +
                 ",\"self_us\":" + JsonNumber(st.self_us) + "}";
    }
    std::printf("trace %s\n", (summary + "}").c_str());
    if (!args.trace_out.empty() && !Tracer::Get().Write(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    }
  }
  world.reset();
  RemoveTree(args.work_dir);
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
