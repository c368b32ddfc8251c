// graph-mix-live: reader threads issue Neighbors, ConceptsOf and EntityLink
// through the query engine against a LiveGraph over an OBGSNAP2
// ShardedStore, while one writer applies small UpdateBatches at a fixed
// ratio to reads and calls Compact() at a fixed interval.
//
// The run is made of whole passes. Each pass starts a fresh LiveGraph over
// the same store, so the delta grows the same way in every pass whatever the
// run length, and every pass performs the same operations.
#include <algorithm>
#include <latch>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "oracles.h"
#include "rdf/live_graph.h"
#include "serve/engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace openbg;

constexpr size_t kReaders = 3;
constexpr size_t kBatches = 600;          // writes per pass
constexpr size_t kTriplesPerBatch = 4;
constexpr size_t kCompactEvery = 50;      // writes between Compact() calls
constexpr size_t kReadsPerWrite = 8;      // per reader
constexpr size_t kReadsPerPass = kBatches * kReadsPerWrite;  // per reader
constexpr size_t kVerifyExtra = 64;       // untouched products checked too
constexpr double kZipfS = 0.9;            // reads and writes alike

enum Kind : uint8_t { kNeighbors = 0, kConcepts = 1, kLink = 2 };

struct Read {
  Kind kind;
  uint32_t key;  // product index or unique-brand index
};

struct Schedule {
  std::vector<rdf::TermId> products;     // Zipf rank order
  std::vector<rdf::UpdateBatch> batches;
  std::vector<std::vector<Read>> reads;  // per reader
  std::vector<rdf::TermId> verify;       // products checked after each pass
  // The replay oracle of the products in `verify`: their base triples plus
  // every batch, the graph every pass must reach for them.
  std::unique_ptr<SetGraph> oracle;
};

// Draws the products the writer's batches touch and the products read back
// after each pass, builds the oracle over the base triples that touch them
// (their Neighbors and ConceptsOf read nothing else, and the benchmark's own
// memory stays out of the peak resident set), then generates the batches
// against it: 3 adds of absent concept links and 1 retract of a present one
// per batch, on Zipf-skewed products. Readers draw products from the same
// skewed order, so hot keys are both read and rewritten.
Schedule MakeSchedule(const World& w, uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x6A09E667F3BCC909ull);
  Schedule s;
  const auto& a = w.kg->assembly();
  const auto& onto = w.kg->ontology();
  s.products = a.product_terms;
  std::shuffle(s.products.begin(), s.products.end(), rng);
  const std::vector<rdf::TermId>& products = s.products;
  const Zipf zipf(products.size(), kZipfS);
  std::vector<rdf::TermId> written(kBatches);
  for (rdf::TermId& p : written) p = products[zipf.Next(&rng)];
  std::set<rdf::TermId> verify(written.begin(), written.end());
  for (size_t i = 0; i < kVerifyExtra; ++i) {
    verify.insert(products[rng() % products.size()]);
  }
  s.verify.assign(verify.begin(), verify.end());
  std::vector<rdf::Triple> base;
  for (const rdf::Triple& t : w.kg->graph().store.triples()) {
    if (verify.count(t.s) != 0 || verify.count(t.o) != 0) base.push_back(t);
  }
  s.oracle = std::make_unique<SetGraph>(base);
  SetGraph* oracle = s.oracle.get();

  using ontology::CoreKind;
  const std::pair<rdf::TermId, const std::vector<rdf::TermId>*> links[4] = {
      {onto.related_scene(), &a.node_terms[static_cast<size_t>(CoreKind::kScene)]},
      {onto.for_crowd(), &a.node_terms[static_cast<size_t>(CoreKind::kCrowd)]},
      {onto.about_theme(), &a.node_terms[static_cast<size_t>(CoreKind::kTheme)]},
      {onto.applied_time(), &a.node_terms[static_cast<size_t>(CoreKind::kTime)]},
  };
  const std::vector<rdf::TermId> props = ConceptProperties(onto);
  for (const rdf::TermId p : written) {
    rdf::UpdateBatch batch;
    const std::vector<rdf::Triple> present = oracle->OutEdges(p, props);
    if (!present.empty()) {
      const rdf::Triple t = present[rng() % present.size()];
      batch.retracts.push_back(t);
    }
    while (batch.adds.size() + batch.retracts.size() < kTriplesPerBatch) {
      const auto& [prop, concepts] = links[rng() % 4];
      const rdf::Triple t{p, prop, (*concepts)[rng() % concepts->size()]};
      const bool in_batch =
          std::find(batch.adds.begin(), batch.adds.end(), t) !=
              batch.adds.end() ||
          std::find(batch.retracts.begin(), batch.retracts.end(), t) !=
              batch.retracts.end();
      if (!in_batch && !oracle->Contains(t)) batch.adds.push_back(t);
    }
    for (const rdf::Triple& t : batch.retracts) oracle->Retract(t);
    for (const rdf::Triple& t : batch.adds) oracle->Add(t);
    s.batches.push_back(std::move(batch));
  }
  const Zipf brand_zipf(w.unique_brands.size(), kZipfS);
  s.reads.resize(kReaders);
  for (auto& list : s.reads) {
    list.resize(kReadsPerPass);
    for (Read& r : list) {
      const uint64_t u = rng() % 10;
      if (u < 7) {
        r = {kNeighbors, static_cast<uint32_t>(zipf.Next(&rng))};
      } else if (u < 9) {
        r = {kConcepts, static_cast<uint32_t>(zipf.Next(&rng))};
      } else {
        r = {kLink, static_cast<uint32_t>(brand_zipf.Next(&rng))};
      }
    }
  }
  return s;
}

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t runq_ns = 0;
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<double> neighbors_us, match_us, link_us;  // traced run only
  uint64_t reads = 0, writes = 0, compacts = 0;
  uint64_t read_failed = 0, write_failed = 0;
  uint64_t compact_unimplemented = 0, compact_other = 0;
  size_t delta_end = 0;
  double hit_ratio = 0.0;
  double invalidated_per_write = 0.0;
};

PassResult RunPass(const World& w, const Schedule& sched,
                   const std::vector<rdf::TermId>& props, Report* report) {
  const bool tracing = Tracer::Get().enabled();
  rdf::LiveGraph live(w.store);
  serve::ServeContext::Bindings b;
  b.ontology = &w.kg->ontology();
  b.mapper = w.mapper.get();
  b.live = &live;
  b.sharded = w.store;
  serve::ServeContext ctx(b);
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  const auto& brands = w.kg->world().brands.nodes;
  const std::vector<rdf::TermId>& products = sched.products;

  PassResult pr;
  std::vector<std::vector<double>> read_us(kReaders), nb_us(kReaders),
      match_us(kReaders), link_us(kReaders);
  std::vector<uint64_t> read_failed(kReaders, 0);
  // Run-queue wait of each pass thread, read by the thread itself: the
  // threads exit before the pass ends.
  std::vector<uint64_t> runq_ns(kReaders + 1, 0);
  std::latch ready(kReaders + 1);
  std::latch go(1);

  auto reader = [&](size_t id) {
    std::vector<double>& lat = read_us[id];
    lat.reserve(kReadsPerPass);
    ready.count_down();
    go.wait();
    const uint64_t wait0 = ThreadRunqWaitNs();
    for (const Read& r : sched.reads[id]) {
      const uint64_t span = Tracer::Get().Begin(
          r.kind == kLink ? "serve.entity_link"
                          : (r.kind == kNeighbors ? "serve.neighbors"
                                                  : "serve.concepts_of"),
          0, r.key);
      const uint64_t t0 = NowNs();
      serve::Response resp;
      const std::string* mention = nullptr;
      if (r.kind == kNeighbors) {
        resp = engine.Neighbors(products[r.key]);
      } else if (r.kind == kConcepts) {
        resp = engine.ConceptsOf(products[r.key]);
      } else {
        mention = &brands[static_cast<size_t>(w.unique_brands[r.key])].name;
        resp = engine.EntityLink(*mention);
      }
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      Tracer::Get().End(span);
      lat.push_back(us);
      if (!resp.ok()) ++read_failed[id];
      if (!tracing) continue;
      // Direct calls into the layer below, bypassing engine and cache.
      if (r.kind == kNeighbors) {
        // The engine's own cost shows on misses; a hit never reaches Match.
        if (!resp.from_cache) nb_us[id].push_back(us);
        const rdf::TermId e = products[r.key];
        ScopedSpan m("rdf.snapshot_match", 0, r.key);
        const uint64_t m0 = NowNs();
        std::shared_ptr<const rdf::GraphSnapshot> snap = live.Acquire();
        std::vector<rdf::Triple> out =
            snap->Match({e, rdf::TriplePattern::kAny, rdf::TriplePattern::kAny});
        std::vector<rdf::Triple> in =
            snap->Match({rdf::TriplePattern::kAny, rdf::TriplePattern::kAny, e});
        match_us[id].push_back(static_cast<double>(NowNs() - m0) / 1e3);
        if (out.empty()) ++read_failed[id];  // every product has out-edges
      } else if (r.kind == kLink) {
        ScopedSpan l("construction.link", 0, r.key);
        const uint64_t l0 = NowNs();
        construction::SchemaMapper::LinkResult lr = w.mapper->Link(*mention);
        link_us[id].push_back(static_cast<double>(NowNs() - l0) / 1e3);
        if (lr.node != w.unique_brands[r.key]) ++read_failed[id];
      }
    }
    runq_ns[id] = ThreadRunqWaitNs() - wait0;
  };

  auto writer = [&] {
    pr.write_us.reserve(kBatches);
    ready.count_down();
    go.wait();
    const uint64_t wait0 = ThreadRunqWaitNs();
    for (size_t i = 0; i < sched.batches.size(); ++i) {
      uint64_t t0;
      util::Status s;
      {
        ScopedSpan span("rdf.apply", 0, i);
        t0 = NowNs();
        s = live.Apply(sched.batches[i]);
      }
      pr.write_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      ++pr.writes;
      if (!s.ok()) ++pr.write_failed;
      if ((i + 1) % kCompactEvery == 0) {
        ScopedSpan span("rdf.compact", 0, i);
        const util::Status c = live.Compact();
        ++pr.compacts;
        if (c.code() == util::StatusCode::kUnimplemented) {
          ++pr.compact_unimplemented;
        } else if (!c.ok()) {
          ++pr.compact_other;
        }
      }
    }
    runq_ns[kReaders] = ThreadRunqWaitNs() - wait0;
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer);
  for (size_t i = 0; i < kReaders; ++i) threads.emplace_back(reader, i);
  ready.wait();
  const double cpu0 = ProcessCpuSec();
  const uint64_t t0 = NowNs();
  go.count_down();
  for (std::thread& t : threads) t.join();
  pr.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  pr.cpu_s = ProcessCpuSec() - cpu0;
  for (uint64_t ns : runq_ns) pr.runq_ns += ns;

  for (size_t i = 0; i < kReaders; ++i) {
    pr.read_us.insert(pr.read_us.end(), read_us[i].begin(), read_us[i].end());
    pr.neighbors_us.insert(pr.neighbors_us.end(), nb_us[i].begin(), nb_us[i].end());
    pr.match_us.insert(pr.match_us.end(), match_us[i].begin(), match_us[i].end());
    pr.link_us.insert(pr.link_us.end(), link_us[i].begin(), link_us[i].end());
    pr.read_failed += read_failed[i];
  }
  pr.reads = pr.read_us.size();
  pr.delta_end = live.delta_size();
  const serve::ResultCache::Stats cs = engine.cache().stats();
  const double lookups = CacheLookups(cs);
  pr.hit_ratio = lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0;
  pr.invalidated_per_write =
      static_cast<double>(cs.invalidated) / static_cast<double>(kBatches);

  // After the writer finished: reads served through the cache must equal
  // the replay oracle, so no cached answer is stale.
  const SetGraph& oracle = *sched.oracle;
  size_t mismatches = 0;
  for (rdf::TermId e : sched.verify) {
    serve::Response n = engine.Neighbors(e);
    serve::Response c = engine.ConceptsOf(e);
    std::vector<rdf::Triple> got_n = n.payload.triples;
    std::vector<rdf::Triple> got_c = c.payload.triples;
    SortTriples(&got_n);
    SortTriples(&got_c);
    if (!n.ok() || !c.ok() ||
        got_n != oracle.Neighbors(e, rdf::TriplePattern::kAny) ||
        got_c != oracle.OutEdges(e, props)) {
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    report->Fail("graph-mix-live: " + std::to_string(mismatches) + " of " +
                 std::to_string(sched.verify.size()) +
                 " products read back differently from the replay oracle");
  }
  return pr;
}

}  // namespace

PhaseResult RunGraphMixLive(const Args& args, World* world, Report* report) {
  World& w = *world;
  const Schedule sched = MakeSchedule(w, args.seed);
  const std::vector<rdf::TermId> props = ConceptProperties(w.kg->ontology());

  // One untimed pass first, so lazy set-up (page cache, allocator) is done.
  RunPass(w, sched, props, report);

  std::vector<PassResult> passes;
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(args.seconds) * 1000000000ull;
  do {
    passes.push_back(RunPass(w, sched, props, report));
  } while (NowNs() - start < budget);
  const double timed_s = static_cast<double>(NowNs() - start) / 1e9;
  const double rss_mb = PeakRssMb();

  uint64_t reads = 0, writes = 0, compacts = 0, read_failed = 0,
           write_failed = 0, unimpl = 0, other = 0;
  std::vector<double> tput, cpu, p50, p99, wp50, wp99, hit, inval, delta,
      runq;
  std::vector<double> nb, match, link;
  for (const PassResult& p : passes) {
    reads += p.reads;
    writes += p.writes;
    compacts += p.compacts;
    read_failed += p.read_failed;
    write_failed += p.write_failed;
    unimpl += p.compact_unimplemented;
    other += p.compact_other;
    const double ops = static_cast<double>(p.reads + p.writes);
    tput.push_back(ops / p.wall_s);
    cpu.push_back(p.cpu_s * 1e6 / ops);
    runq.push_back(static_cast<double>(p.runq_ns) / 1e3 / ops);
    p50.push_back(Percentile(p.read_us, 50.0));
    p99.push_back(Percentile(p.read_us, 99.0));
    wp50.push_back(Percentile(p.write_us, 50.0));
    wp99.push_back(Percentile(p.write_us, 99.0));
    hit.push_back(p.hit_ratio);
    inval.push_back(p.invalidated_per_write);
    delta.push_back(static_cast<double>(p.delta_end));
    nb.push_back(Median(p.neighbors_us));
    match.push_back(Median(p.match_us));
    link.push_back(Median(p.link_us));
  }
  report->Ops("graph-mix-live.read", reads, read_failed);
  report->Ops("graph-mix-live.apply", writes, write_failed);
  // The named fault: Compact() over a sharded base returns Unimplemented.
  // Counted as failed; a compaction that succeeds is not a failure.
  report->Ops("graph-mix-live.compact", compacts, unimpl + other);
  if (read_failed != 0 || write_failed != 0) {
    report->Fail("graph-mix-live: " + std::to_string(read_failed) +
                 " reads and " + std::to_string(write_failed) +
                 " writes failed");
  }
  if (other != 0 || (unimpl != 0 && unimpl != compacts)) {
    report->Fail("graph-mix-live: Compact() failed other than with "
                 "Unimplemented, or only some calls failed");
  }
  report->Context("graph_mix_live_passes", std::to_string(passes.size()));

  PhaseResult r;
  r.throughput_per_s = Median(tput);
  r.cpu_us_per_op = Median(cpu);
  r.p50_us = Median(p50);
  r.p99_us = Median(p99);
  r.timed_s = timed_s;
  r.rss_mb = rss_mb;
  r.runq_wait_us_per_op = Median(runq);
  for (const PassResult& p : passes) r.runq_wait_s += static_cast<double>(p.runq_ns) / 1e9;
  report->Context("write_p50_us", JsonNumber(Median(wp50)));
  report->Context("write_p99_us", JsonNumber(Median(wp99)));
  if (!Tracer::Get().enabled()) return r;

  report->Metric("rdf.apply_p50_us", Median(wp50), "us");
  report->Metric("rdf.apply_p99_us", Median(wp99), "us");
  report->Metric("rdf.snapshot_match_us", Median(match), "us");
  report->Metric("serve.engine_graph_overhead_us", Median(nb) - Median(match),
                 "us");
  report->Metric("rdf.delta_entries_end", Median(delta), "count");
  report->Metric("rdf.compactions_failed",
                 static_cast<double>(unimpl + other) /
                     static_cast<double>(passes.size()),
                 "count");
  report->Metric("serve.invalidated_per_write", Median(inval), "ratio");
  report->Metric("construction.link_us", Median(link), "us");
  report->Metric("serve.cache_hit_ratio", Median(hit), "ratio");
  report->Metric("proc.runq_wait_us_per_op", r.runq_wait_us_per_op, "us");
  return r;
}

}  // namespace perfbench
