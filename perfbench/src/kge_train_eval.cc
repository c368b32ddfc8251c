// kge-train-eval: Hogwild TransE training at nproc threads for a fixed
// number of epochs on the benchmark split, then filtered, query-batched
// ranking evaluation of the test split at nproc threads. The run repeats
// whole train+eval cycles from the same initial model.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "kge/evaluator.h"
#include "kge/trainer.h"
#include "oracles.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace openbg;

constexpr size_t kEpochs = 6;
constexpr size_t kRankSamples = 24;  // test triples ranked naively
// Filtered MRR must reach this multiple of random ranking's expected MRR.
constexpr double kMrrFloorMultiple = 10.0;

struct Cycle {
  double train_wall_s = 0.0;
  double train_cpu_s = 0.0;
  double eval_wall_s = 0.0;
  double eval_cpu_s = 0.0;
  uint64_t runq_ns = 0;
  std::vector<double> epoch_us;
  std::vector<double> loss;
  double mrr = 0.0;
  size_t queries = 0;
};

std::unique_ptr<kge::TransE> FreshModel(const World& w, uint64_t seed) {
  util::Rng rng(util::SplitMix64(seed ^ 0xC7C1E5ull));
  return std::make_unique<kge::TransE>(w.dataset->num_entities(),
                                       w.dataset->num_relations(), w.sizes.dim,
                                       1.0f, &rng);
}

Cycle RunCycle(const World& w, uint64_t seed, size_t threads,
               std::unique_ptr<kge::TransE>* out_model) {
  Cycle c;
  std::unique_ptr<kge::TransE> model = FreshModel(w, seed);
  kge::TrainConfig config;
  config.epochs = kEpochs;
  config.batch_size = 256;
  config.num_threads = threads;
  config.mode = kge::TrainMode::kHogwild;
  config.seed = util::SplitMix64(seed ^ 0x5EEDull);
  uint64_t last = 0;
  config.on_epoch = [&](size_t, double loss) {
    const uint64_t now = NowNs();
    c.epoch_us.push_back(static_cast<double>(now - last) / 1e3);
    c.loss.push_back(loss);
    last = now;
  };
  const RunqSnapshot runq0 = ReadRunqWait();
  double cpu0 = ProcessCpuSec();
  uint64_t t0 = NowNs();
  last = t0;
  {
    ScopedSpan span("kge.train");
    kge::TrainKgeModel(model.get(), *w.dataset, config);
  }
  c.train_wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  c.train_cpu_s = ProcessCpuSec() - cpu0;

  kge::RankingEvaluator::Options eo;
  eo.filtered = true;
  eo.num_threads = threads;
  eo.query_batched = true;
  const kge::RankingEvaluator evaluator(*w.dataset, eo);
  cpu0 = ProcessCpuSec();
  t0 = NowNs();
  kge::RankingMetrics m;
  {
    ScopedSpan span("kge.evaluate");
    m = evaluator.Evaluate(model.get());
  }
  c.eval_wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  c.eval_cpu_s = ProcessCpuSec() - cpu0;
  c.runq_ns = RunqWaitBetween(runq0, ReadRunqWait());
  c.mrr = m.mrr;
  c.queries = m.n;
  if (out_model != nullptr) *out_model = std::move(model);
  return c;
}

// The evaluator's filtered rank of single test triples against the naive
// rank from ScoreTriple over every candidate.
void CheckRanks(const World& w, kge::TransE* model, uint64_t seed,
                Report* report) {
  const kge::Dataset& ds = *w.dataset;
  kge::RankingEvaluator::Options eo;
  eo.filtered = true;
  const kge::RankingEvaluator evaluator(ds, eo);
  std::mt19937_64 rng(seed ^ 0xFA11ull);
  const size_t n = ds.num_entities();
  for (size_t i = 0; i < kRankSamples && !ds.test.empty(); ++i) {
    const kge::LpTriple q = ds.test[rng() % ds.test.size()];
    std::vector<double> scores(n);
    for (uint32_t c = 0; c < n; ++c) {
      scores[c] = static_cast<double>(model->ScoreTriple(q.h, q.r, c));
    }
    std::vector<uint32_t> filtered;
    for (const auto* split : {&ds.train, &ds.dev, &ds.test}) {
      for (const kge::LpTriple& t : *split) {
        if (t.h == q.h && t.r == q.r && t.t != q.t) filtered.push_back(t.t);
      }
    }
    std::sort(filtered.begin(), filtered.end());
    filtered.erase(std::unique(filtered.begin(), filtered.end()),
                   filtered.end());
    const RankRange want = NaiveFilteredRank(scores, q.t, filtered);
    const kge::RankingMetrics m = evaluator.EvaluateOn(model, {q});
    const double rank = m.mr;
    if (rank < static_cast<double>(want.lo) ||
        rank > static_cast<double>(want.hi)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "kge-train-eval: (%u, %u, %u) ranked %.0f, naive rank "
                    "in [%zu, %zu]",
                    q.h, q.r, q.t, rank, want.lo, want.hi);
      report->Fail(buf);
    }
  }
}

}  // namespace

PhaseResult RunKgeTrainEval(const Args& args, World* world, Report* report) {
  const World& w = *world;
  const size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const double n = static_cast<double>(w.dataset->num_entities());
  double harmonic = 0.0;
  for (size_t i = 1; i <= w.dataset->num_entities(); ++i) {
    harmonic += 1.0 / static_cast<double>(i);
  }
  const double random_mrr = harmonic / n;

  // One untimed cycle first: thread start-up and first-touch page faults.
  {
    std::unique_ptr<kge::TransE> checked;
    RunCycle(w, args.seed, threads, &checked);
    CheckRanks(w, checked.get(), args.seed, report);
  }

  std::vector<Cycle> cycles;
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(args.seconds) * 1000000000ull;
  do {
    cycles.push_back(RunCycle(w, args.seed, threads, nullptr));
  } while (NowNs() - start < budget);
  const double timed_s = static_cast<double>(NowNs() - start) / 1e9;
  const double rss_mb = PeakRssMb();

  const double triples_per_cycle =
      static_cast<double>(kEpochs * w.dataset->train.size());
  std::vector<double> tput, cpu, epochs, runq, eval_qps, eval_cpu, train_busy,
      eval_busy, mrrs;
  size_t bad_loss = 0, low_mrr = 0;
  uint64_t queries = 0;
  for (const Cycle& c : cycles) {
    tput.push_back(triples_per_cycle / c.train_wall_s);
    cpu.push_back(c.train_cpu_s * 1e6 / triples_per_cycle);
    epochs.insert(epochs.end(), c.epoch_us.begin(), c.epoch_us.end());
    runq.push_back(static_cast<double>(c.runq_ns) / 1e3 / triples_per_cycle);
    const double q = static_cast<double>(std::max<size_t>(1, c.queries));
    eval_qps.push_back(q / c.eval_wall_s);
    eval_cpu.push_back(c.eval_cpu_s * 1e6 / q);
    train_busy.push_back(c.train_cpu_s /
                         (c.train_wall_s * static_cast<double>(threads)));
    eval_busy.push_back(c.eval_cpu_s /
                        (c.eval_wall_s * static_cast<double>(threads)));
    mrrs.push_back(c.mrr);
    if (c.loss.size() != kEpochs || !(c.loss.back() < c.loss.front())) {
      ++bad_loss;
    }
    if (!(c.mrr >= kMrrFloorMultiple * random_mrr)) ++low_mrr;
    queries += c.queries;
  }
  report->Ops("kge-train-eval.train_epoch", cycles.size() * kEpochs, 0);
  report->Ops("kge-train-eval.ranked_query", queries, 0);
  if (bad_loss != 0) {
    report->Fail("kge-train-eval: final-epoch loss not below the first in " +
                 std::to_string(bad_loss) + " cycles");
  }
  if (low_mrr != 0) {
    report->Fail("kge-train-eval: filtered MRR under " +
                 JsonNumber(kMrrFloorMultiple) + "x random (" +
                 JsonNumber(random_mrr) + ") in " + std::to_string(low_mrr) +
                 " cycles");
  }
  report->Context("kge_cycles", std::to_string(cycles.size()));
  report->Context("kge_filtered_mrr_median", JsonNumber(Median(mrrs)));
  report->Context("kge_random_mrr", JsonNumber(random_mrr));

  PhaseResult r;
  r.throughput_per_s = Median(tput);
  r.cpu_us_per_op = Median(cpu);
  r.p50_us = Percentile(epochs, 50.0);
  r.p99_us = Percentile(epochs, 99.0);
  r.timed_s = timed_s;
  r.rss_mb = rss_mb;
  r.runq_wait_us_per_op = Median(runq);
  for (const Cycle& c : cycles) r.runq_wait_s += static_cast<double>(c.runq_ns) / 1e9;
  if (!Tracer::Get().enabled()) return r;

  report->Metric("kge.epoch_ms_p50", Percentile(epochs, 50.0) / 1e3, "ms");
  report->Metric("kge.train_busy_ratio", Median(train_busy), "ratio");
  report->Metric("kge.eval_queries_per_s", Median(eval_qps), "1/s");
  report->Metric("kge.eval_cpu_us_per_query", Median(eval_cpu), "us");
  report->Metric("kge.eval_busy_ratio", Median(eval_busy), "ratio");
  report->Metric("proc.runq_wait_us_per_op", r.runq_wait_us_per_op, "us");
  return r;
}

}  // namespace perfbench
