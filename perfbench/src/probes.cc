// Short direct probes of every layer, on the shared set-up. A traced run
// calls them after its workload for each per-layer metric the workload did
// not measure in its own phase, so every traced run reports a measured
// figure for every time and rate metric. Counts and ratios of a layer the
// workload does not exercise stay 0.
#include <algorithm>
#include <thread>
#include <vector>

#include "kge/evaluator.h"
#include "kge/trainer.h"
#include "net/client.h"
#include "net/server.h"
#include "rdf/live_graph.h"
#include "serve/engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace openbg;

constexpr int kProbeOps = 500;

template <typename Fn>
std::vector<double> TimeUs(int reps, Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const uint64_t t0 = NowNs();
    fn(i);
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return us;
}

// Adds a metric unless the workload's own phase already reported it.
void Put(Report* report, const char* name, double value, const char* unit) {
  if (!report->Has(name)) report->Metric(name, value, unit);
}

size_t Threads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

// LinkPredictTopK one request at a time over OBGWIRE1, then in process on a
// fresh engine: the wire's overhead, its CPU split, and engine latency. Both
// sides send the same 500 test queries to a fresh result cache, so they time
// the same mix of misses and hits, and with one request outstanding the
// difference is the wire's own hand-off cost, not time spent queued behind
// other requests. This is the only definition of
// net.overhead_p50_us; lp-wire keeps its own pipelined figures for the rest.
void ProbeWire(World& w, Report* report) {
  const auto& test = w.dataset->test;
  serve::ServeContext::Bindings b;
  b.graph = &w.kg->graph();
  b.ontology = &w.kg->ontology();
  b.dataset = w.dataset.get();
  b.model = w.model.get();
  b.mapper = w.mapper.get();
  serve::ServeContext ctx(b);
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  net::ServerOptions sopts;
  sopts.governor.default_tenant = {1e12, 1e12, net::Tier::kPaid};
  net::Server server(&engine, sopts);
  if (!server.Start().ok()) {
    report->Fail("wire probe: server did not start");
    return;
  }
  net::Client::Options copts;
  copts.port = server.port();
  net::Client client(copts);
  if (!client.Connect().ok()) {
    report->Fail("wire probe: connect failed");
    server.Stop();
    return;
  }
  const double cpu0 = ProcessCpuSec();
  const double gen0 = ThreadCpuSec();
  net::WireResponse resp;
  const std::vector<double> wire = TimeUs(kProbeOps, [&](int i) {
    const auto& q = test[static_cast<size_t>(i) % test.size()];
    const uint64_t id = client.SendLinkPredict(q.h, q.r, 10);
    if (!client.Flush().ok() || !client.Recv(&resp).ok() ||
        resp.request_id != id || resp.status != net::WireStatus::kOk) {
      report->Fail("wire probe: request not answered");
    }
  });
  const double gen = ThreadCpuSec() - gen0;
  const double cpu = ProcessCpuSec() - cpu0;
  const uint64_t frames = server.stats().frames_out;
  server.Stop();

  serve::QueryEngine fresh(&ctx, serve::EngineOptions{});
  const std::vector<double> inproc = TimeUs(kProbeOps, [&](int i) {
    const auto& q = test[static_cast<size_t>(i) % test.size()];
    if (!fresh.LinkPredictTopK(q.h, q.r, 10).ok()) {
      report->Fail("engine probe: LinkPredictTopK failed");
    }
  });
  Put(report, "net.overhead_p50_us",
      Percentile(wire, 50.0) - Percentile(inproc, 50.0), "us");
  Put(report, "net.client_cpu_us_per_op", gen * 1e6 / kProbeOps, "us");
  Put(report, "net.server_cpu_us_per_op", (cpu - gen) * 1e6 / kProbeOps, "us");
  Put(report, "net.frames_out", static_cast<double>(frames), "count");
  Put(report, "serve.engine_lp_p50_us", Percentile(inproc, 50.0), "us");
  Put(report, "serve.engine_lp_p99_us", Percentile(inproc, 99.0), "us");
}

// Small batches applied to a live graph over the sharded store, then engine
// Neighbors misses against direct snapshot matches.
void ProbeLiveGraph(World& w, Report* report) {
  rdf::LiveGraph live(w.store);
  serve::ServeContext::Bindings b;
  b.ontology = &w.kg->ontology();
  b.mapper = w.mapper.get();
  b.live = &live;
  b.sharded = w.store;
  serve::ServeContext ctx(b);
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  const auto& products = w.kg->assembly().product_terms;
  const auto& scenes = w.kg->assembly().node_terms[static_cast<size_t>(
      ontology::CoreKind::kScene)];
  const rdf::TermId scene_prop = w.kg->ontology().related_scene();
  const std::vector<double> apply = TimeUs(kProbeOps, [&](int i) {
    rdf::UpdateBatch batch;
    const rdf::TermId p = products[static_cast<size_t>(i) * 7919 % products.size()];
    for (size_t j = 0; batch.adds.size() < 4 && j < scenes.size(); ++j) {
      const rdf::Triple t{p, scene_prop, scenes[(static_cast<size_t>(i) + j) % scenes.size()]};
      if (!live.Acquire()->Contains(t.s, t.p, t.o)) batch.adds.push_back(t);
    }
    if (!live.Apply(batch).ok()) report->Fail("live graph probe: Apply failed");
  });
  const std::vector<double> engine_us = TimeUs(kProbeOps, [&](int i) {
    if (!engine.Neighbors(products[static_cast<size_t>(i) * 31 % products.size()]).ok()) {
      report->Fail("live graph probe: Neighbors failed");
    }
  });
  const std::vector<double> match_us = TimeUs(kProbeOps, [&](int i) {
    const rdf::TermId e = products[static_cast<size_t>(i) * 31 % products.size()];
    auto snap = live.Acquire();
    auto out = snap->Match({e, rdf::TriplePattern::kAny, rdf::TriplePattern::kAny});
    auto in = snap->Match({rdf::TriplePattern::kAny, rdf::TriplePattern::kAny, e});
    if (out.empty()) report->Fail("live graph probe: product without out-edges");
  });
  report->Metric("rdf.apply_p50_us", Percentile(apply, 50.0), "us");
  report->Metric("rdf.apply_p99_us", Percentile(apply, 99.0), "us");
  report->Metric("serve.engine_graph_overhead_us",
                 Percentile(engine_us, 50.0) - Percentile(match_us, 50.0), "us");
  Put(report, "rdf.snapshot_match_us", Percentile(match_us, 50.0), "us");
}

// Two Hogwild epochs and a filtered evaluation of 500 test triples, at the
// kge-train-eval width.
void ProbeKge(World& w, Report* report) {
  const size_t threads = Threads();
  util::Rng rng(0xC7C1E5ull);
  kge::TransE model(w.dataset->num_entities(), w.dataset->num_relations(),
                    w.sizes.dim, 1.0f, &rng);
  kge::TrainConfig config;
  config.epochs = 2;
  config.num_threads = threads;
  std::vector<double> epoch_ms;
  uint64_t last = NowNs();
  config.on_epoch = [&](size_t, double) {
    const uint64_t now = NowNs();
    epoch_ms.push_back(static_cast<double>(now - last) / 1e6);
    last = now;
  };
  double cpu0 = ProcessCpuSec();
  uint64_t t0 = NowNs();
  kge::TrainKgeModel(&model, *w.dataset, config);
  const double train_wall = static_cast<double>(NowNs() - t0) / 1e9;
  const double train_cpu = ProcessCpuSec() - cpu0;

  kge::RankingEvaluator::Options eo;
  eo.num_threads = threads;
  const kge::RankingEvaluator evaluator(*w.dataset, eo);
  const std::vector<kge::LpTriple> sample(
      w.dataset->test.begin(),
      w.dataset->test.begin() + static_cast<ptrdiff_t>(std::min<size_t>(500, w.dataset->test.size())));
  cpu0 = ProcessCpuSec();
  t0 = NowNs();
  const kge::RankingMetrics m = evaluator.EvaluateOn(&model, sample);
  const double eval_wall = static_cast<double>(NowNs() - t0) / 1e9;
  const double eval_cpu = ProcessCpuSec() - cpu0;
  const double q = static_cast<double>(std::max<size_t>(1, m.n));
  const double width = static_cast<double>(threads);
  report->Metric("kge.epoch_ms_p50", Median(epoch_ms), "ms");
  report->Metric("kge.train_busy_ratio", train_cpu / (train_wall * width), "ratio");
  report->Metric("kge.eval_queries_per_s", q / eval_wall, "1/s");
  report->Metric("kge.eval_cpu_us_per_query", eval_cpu * 1e6 / q, "us");
  report->Metric("kge.eval_busy_ratio", eval_cpu / (eval_wall * width), "ratio");
}

}  // namespace

void ProbeLayers(World* world, Report* report) {
  World& w = *world;
  const auto& test = w.dataset->test;
  ProbeWire(w, report);
  if (!report->Has("rdf.apply_p50_us")) ProbeLiveGraph(w, report);
  if (!report->Has("kge.epoch_ms_p50")) ProbeKge(w, report);
  std::vector<float> scores;
  if (!report->Has("nn.score_tails_us")) {
    report->Metric("nn.score_tails_us", Median(TimeUs(kProbeOps, [&](int i) {
                     const auto& q = test[static_cast<size_t>(i) % test.size()];
                     w.model->ScoreTails(q.h, q.r, &scores);
                   })), "us");
  }
  if (!report->Has("serve.select_topk_us")) {
    w.model->ScoreTails(test[0].h, test[0].r, &scores);
    report->Metric("serve.select_topk_us", Median(TimeUs(kProbeOps, [&](int) {
                     if (serve::SelectTopK(scores, 10).empty()) {
                       report->Fail("SelectTopK returned nothing");
                     }
                   })), "us");
  }
  if (!report->Has("construction.link_us")) {
    const auto& brands = w.kg->world().brands.nodes;
    report->Metric("construction.link_us", Median(TimeUs(kProbeOps, [&](int i) {
                     const int b = w.unique_brands[static_cast<size_t>(i) % w.unique_brands.size()];
                     if (w.mapper->Link(brands[static_cast<size_t>(b)].name).node != b) {
                       report->Fail("exact brand mention linked elsewhere");
                     }
                   })), "us");
  }
  if (!report->Has("util.parallel_for_us")) {
    const size_t threads = Threads();
    util::ThreadPool pool(threads);
    report->Metric("util.parallel_for_us", Median(TimeUs(2000, [&](int) {
                     util::ParallelFor(&pool, threads, [](size_t, size_t, size_t) {});
                   })), "us");
  }
  report->Metric("rdf.resident_mb",
                 static_cast<double>(w.store->Stats().resident_bytes) / (1024.0 * 1024.0),
                 "MiB");
}

}  // namespace perfbench
