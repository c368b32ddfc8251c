// lp-wire: the production request mix over OBGWIRE1 from one pipelined
// connection with a fixed number of outstanding requests (closed loop),
// against a server in this process with the example server's thread layout.
#include <algorithm>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "oracles.h"
#include "serve/engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace openbg;

constexpr size_t kTopK = 10;
constexpr size_t kWindow = 128;         // outstanding requests, at most
constexpr size_t kRefill = 16;          // requests sent per socket write
constexpr size_t kLpKeys = 24000;       // distinct (h, r) queries
constexpr double kZipfS = 0.9;
constexpr size_t kStreamLen = 1 << 18;  // the stream cycles past this
constexpr size_t kWarmup = 20000;       // requests before timing starts
constexpr size_t kReplayMax = 60000;    // in-process replay (traced run)
constexpr uint64_t kSliceNs = 1000000000ull;
constexpr uint32_t kTenant = 1;

enum Kind : uint8_t { kLp = 0, kNeighbors = 1, kConcepts = 2, kLink = 3 };
const char* const kKindName[4] = {"link_predict_topk", "neighbors",
                                  "concepts_of", "entity_link"};

struct Request {
  Kind kind;
  uint32_t key;  // index into the kind's key pool
};

struct Keys {
  std::vector<std::pair<uint32_t, uint32_t>> lp;  // (h, r)
  std::vector<rdf::TermId> products;
  std::vector<int> brands;  // brand node index, unique names only
};

Keys MakeKeys(const World& w, std::mt19937_64* rng) {
  Keys k;
  std::vector<std::pair<uint32_t, uint32_t>> hr;
  for (const auto* split : {&w.dataset->train, &w.dataset->test}) {
    for (const auto& t : *split) hr.push_back({t.h, t.r});
  }
  std::sort(hr.begin(), hr.end());
  hr.erase(std::unique(hr.begin(), hr.end()), hr.end());
  std::shuffle(hr.begin(), hr.end(), *rng);
  if (hr.size() > kLpKeys) hr.resize(kLpKeys);
  k.lp = std::move(hr);
  k.products = w.kg->assembly().product_terms;
  std::shuffle(k.products.begin(), k.products.end(), *rng);
  k.brands = w.unique_brands;
  std::shuffle(k.brands.begin(), k.brands.end(), *rng);
  return k;
}

// 70 % LinkPredictTopK, 10 % each of Neighbors, ConceptsOf, EntityLink;
// keys Zipf-skewed within each kind.
std::vector<Request> MakeStream(const Keys& keys, std::mt19937_64* rng) {
  const Zipf lp(keys.lp.size(), kZipfS);
  const Zipf prod(keys.products.size(), kZipfS);
  const Zipf brand(keys.brands.size(), kZipfS);
  std::vector<Request> stream(kStreamLen);
  for (Request& q : stream) {
    const uint64_t u = (*rng)() % 10;
    if (u < 7) {
      q = {kLp, static_cast<uint32_t>(lp.Next(rng))};
    } else if (u == 7) {
      q = {kNeighbors, static_cast<uint32_t>(prod.Next(rng))};
    } else if (u == 8) {
      q = {kConcepts, static_cast<uint32_t>(prod.Next(rng))};
    } else {
      q = {kLink, static_cast<uint32_t>(brand.Next(rng))};
    }
  }
  return stream;
}

// Sends one request of the stream's kind and key; returns its request id.
uint64_t SendRequest(net::Client* client, const World& w, const Keys& keys,
                     const Request& q) {
  switch (q.kind) {
    case kLp: {
      const auto [h, r] = keys.lp[q.key];
      return client->SendLinkPredict(h, r, kTopK);
    }
    case kNeighbors:
      return client->SendNeighbors(keys.products[q.key]);
    case kConcepts:
      return client->SendConceptsOf(keys.products[q.key]);
    case kLink:
      break;
  }
  const auto& brands = w.kg->world().brands.nodes;
  return client->SendEntityLink(
      brands[static_cast<size_t>(keys.brands[q.key])].name);
}

// FNV-1a over a response payload past its 4-byte status prefix (whose
// from_cache byte differs between hits and misses). Never 0, which marks a
// key not yet answered. Eight bytes a key keep the benchmark's own memory out
// of the peak resident set.
uint64_t PayloadDigest(const std::string& raw) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 4; i < raw.size(); ++i) {
    h ^= static_cast<unsigned char>(raw[i]);
    h *= 0x100000001b3ull;
  }
  return h == 0 ? 1 : h;
}

struct Pending {
  uint64_t pos = 0;  // stream position
  uint64_t sent_ns = 0;
  uint64_t span = 0;
};

struct Slice {
  std::vector<double> lat_us;
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

// Checks one answer of every distinct key against the oracles, on nproc
// threads. Every other answer to that key had the same payload digest.
void VerifyAnswers(const World& w, const Keys& keys,
                   const std::vector<std::pair<Request, net::WireResponse>>& answers,
                   Report* report) {
  const SetGraph graph(w.kg->graph().store.triples());
  const std::vector<rdf::TermId> props = ConceptProperties(w.kg->ontology());
  const auto& brands = w.kg->world().brands.nodes;
  kge::TransE* model = w.model.get();
  const float* table = model->entities().matrix().Row(0);
  const size_t rows = model->num_entities();
  const size_t dim = w.sizes.dim;

  const size_t threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::vector<std::string>> errors(threads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < answers.size(); i += threads) {
        const Request& q = answers[i].first;
        const net::WireResponse& resp = answers[i].second;
        std::string err;
        if (q.kind == kLp) {
          const auto [h, r] = keys.lp[q.key];
          const std::vector<double> naive = NaiveL1TailScores(
              model->entities().Row(h), model->relations().Row(r), table,
              rows, dim);
          std::vector<Scored> answer;
          for (const auto& e : resp.payload.topk) {
            answer.push_back({e.id, static_cast<double>(e.score)});
          }
          err = CheckTopK(answer, naive, kTopK);
        } else if (q.kind == kNeighbors || q.kind == kConcepts) {
          const rdf::TermId e = keys.products[q.key];
          std::vector<rdf::Triple> got = resp.payload.triples;
          SortTriples(&got);
          const std::vector<rdf::Triple> want =
              q.kind == kNeighbors
                  ? graph.Neighbors(e, rdf::TriplePattern::kAny)
                  : graph.OutEdges(e, props);
          if (got != want) {
            err = "answer has " + std::to_string(got.size()) +
                  " triples, naive filter " + std::to_string(want.size());
          }
        } else {
          const int b = keys.brands[q.key];
          if (resp.payload.link.node != b ||
              resp.payload.link.kind !=
                  construction::SchemaMapper::MatchKind::kExact) {
            err = "mention '" + brands[static_cast<size_t>(b)].name +
                  "' linked to node " + std::to_string(resp.payload.link.node);
          }
        }
        if (!err.empty()) {
          errors[t].push_back(std::string(kKindName[q.kind]) + " key " +
                              std::to_string(q.key) + ": " + err);
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const auto& list : errors) {
    for (const std::string& e : list) report->Fail("lp-wire " + e);
  }
}

}  // namespace

PhaseResult RunLpWire(const Args& args, World* world, Report* report) {
  World& w = *world;
  std::mt19937_64 rng(args.seed ^ 0x1F3E5D7C9B2A4860ull);
  const Keys keys = MakeKeys(w, &rng);
  const std::vector<Request> stream = MakeStream(keys, &rng);
  const auto& brands = w.kg->world().brands.nodes;

  serve::ServeContext::Bindings b;
  b.graph = &w.kg->graph();
  b.ontology = &w.kg->ontology();
  b.dataset = w.dataset.get();
  b.model = w.model.get();
  b.mapper = w.mapper.get();
  serve::ServeContext ctx(b);
  serve::QueryEngine engine(&ctx, serve::EngineOptions{});
  net::ServerOptions sopts;
  sopts.port = 0;
  sopts.governor.default_tenant = {1e12, 1e12, net::Tier::kPaid};
  net::Server server(&engine, sopts);
  util::Status st = server.Start();
  if (!st.ok()) {
    report->Fail("lp-wire server start: " + st.message());
    return {};
  }
  net::Client::Options copts;
  copts.port = server.port();
  copts.tenant_id = kTenant;
  net::Client client(copts);
  st = client.Connect();
  if (!st.ok()) {
    report->Fail("lp-wire connect: " + st.message());
    server.Stop();
    return {};
  }

  std::unordered_map<uint64_t, Pending> pending;
  pending.reserve(kWindow * 4);
  // Digest of the first answer to each key, by kind and key index.
  std::vector<uint64_t> digests[4] = {
      std::vector<uint64_t>(keys.lp.size(), 0),
      std::vector<uint64_t>(keys.products.size(), 0),
      std::vector<uint64_t>(keys.products.size(), 0),
      std::vector<uint64_t>(keys.brands.size(), 0)};
  uint64_t mismatched_repeats = 0, bad_status = 0, stray_ids = 0;
  uint64_t sent = 0, completed = 0;
  uint64_t kind_sent[4] = {0, 0, 0, 0};
  std::vector<float> wire_lat_us;  // by stream position, traced run only
  const bool tracing = Tracer::Get().enabled();

  auto send_one = [&] {
    const uint64_t pos = sent;
    const Request& q = stream[pos % stream.size()];
    const uint64_t id = SendRequest(&client, w, keys, q);
    Pending p;
    p.pos = pos;
    p.span = Tracer::Get().Begin("net.request", 0, id);
    p.sent_ns = NowNs();
    pending.emplace(id, p);
    ++kind_sent[q.kind];
    ++sent;
  };

  net::WireResponse resp;
  std::string raw;
  // Receives one response and checks it; returns its latency in us, or a
  // negative value when the connection failed.
  auto recv_one = [&]() -> double {
    st = client.Recv(&resp, &raw);
    const uint64_t now = NowNs();
    if (!st.ok()) {
      report->Fail("lp-wire recv: " + st.message());
      return -1.0;
    }
    auto it = pending.find(resp.request_id);
    if (it == pending.end()) {
      ++stray_ids;
      return 0.0;
    }
    const Pending p = it->second;
    pending.erase(it);
    Tracer::Get().End(p.span);
    ++completed;
    const double lat_us = static_cast<double>(now - p.sent_ns) / 1e3;
    if (tracing) {
      if (wire_lat_us.size() <= p.pos) wire_lat_us.resize(p.pos + 1, 0.0f);
      wire_lat_us[p.pos] = static_cast<float>(lat_us);
    }
    const Request& q = stream[p.pos % stream.size()];
    if (resp.status != net::WireStatus::kOk || raw.size() < 4) {
      ++bad_status;
      return lat_us;
    }
    uint64_t& first = digests[q.kind][q.key];
    const uint64_t digest = PayloadDigest(raw);
    if (first == 0) {
      first = digest;
    } else if (digest != first) {
      ++mismatched_repeats;
    }
    return lat_us;
  };

  // Tops the pipeline back up in groups of kRefill, one write each.
  auto refill = [&] {
    if (pending.size() + kRefill > kWindow) return;
    for (size_t i = 0; i < kRefill; ++i) send_one();
    client.Flush();
  };

  // Warm-up: fill the result cache and the connection before timing.
  bool conn_ok = true;
  while (pending.size() + kRefill <= kWindow) refill();
  while (conn_ok && completed < kWarmup) {
    if (recv_one() < 0) {
      conn_ok = false;
      break;
    }
    refill();
  }

  // Timed phase, in one-second slices.
  const serve::ResultCache::Stats cache0 = engine.cache().stats();
  const uint64_t completed0 = completed;
  const RunqSnapshot runq0 = ReadRunqWait();
  const double cpu0 = ProcessCpuSec();
  const double gen_cpu0 = ThreadCpuSec();
  const uint64_t t0 = NowNs();
  const uint64_t t_end = t0 + static_cast<uint64_t>(args.seconds) * kSliceNs;
  std::vector<Slice> slices;
  Slice cur;
  uint64_t slice_start = t0;
  double slice_cpu = cpu0;
  while (conn_ok) {
    const double lat = recv_one();
    if (lat < 0) {
      conn_ok = false;
      break;
    }
    cur.lat_us.push_back(lat);
    const uint64_t now = NowNs();
    if (now - slice_start >= kSliceNs || now >= t_end) {
      const double c = ProcessCpuSec();
      cur.cpu_s = c - slice_cpu;
      cur.wall_s = static_cast<double>(now - slice_start) / 1e9;
      slices.push_back(std::move(cur));
      cur = Slice();
      slice_start = now;
      slice_cpu = c;
    }
    if (now >= t_end) break;
    refill();
  }
  const uint64_t t1 = NowNs();
  const double gen_cpu = ThreadCpuSec() - gen_cpu0;
  const double cpu = ProcessCpuSec() - cpu0;
  const uint64_t runq = RunqWaitBetween(runq0, ReadRunqWait());
  const uint64_t timed_completed = completed - completed0;
  const serve::ResultCache::Stats cache1 = engine.cache().stats();
  // Drain what is still in flight; every id must still be answered.
  while (conn_ok && !pending.empty()) {
    if (recv_one() < 0) conn_ok = false;
  }
  const double rss_mb = PeakRssMb();

  // Every distinct key once more over the same connection: its answer must
  // have the digest of every earlier answer to that key, and is the one the
  // oracles check.
  std::vector<Request> distinct;
  for (uint8_t k = 0; k < 4; ++k) {
    for (uint32_t i = 0; i < digests[k].size(); ++i) {
      if (digests[k][i] != 0) distinct.push_back({static_cast<Kind>(k), i});
    }
  }
  std::vector<std::pair<Request, net::WireResponse>> answers;
  answers.reserve(distinct.size());
  std::unordered_map<uint64_t, Request> rechecks;
  size_t next = 0;
  while (conn_ok && (next < distinct.size() || !rechecks.empty())) {
    if (next < distinct.size() && rechecks.size() + kRefill <= kWindow) {
      for (size_t i = 0; i < kRefill && next < distinct.size(); ++i, ++next) {
        rechecks.emplace(SendRequest(&client, w, keys, distinct[next]),
                         distinct[next]);
      }
      client.Flush();
      continue;
    }
    st = client.Recv(&resp, &raw);
    if (!st.ok()) {
      report->Fail("lp-wire recv: " + st.message());
      conn_ok = false;
      break;
    }
    auto it = rechecks.find(resp.request_id);
    if (it == rechecks.end()) {
      ++stray_ids;
      continue;
    }
    const Request q = it->second;
    rechecks.erase(it);
    if (resp.status != net::WireStatus::kOk || raw.size() < 4) {
      ++bad_status;
    } else {
      if (PayloadDigest(raw) != digests[q.kind][q.key]) ++mismatched_repeats;
      answers.push_back({q, resp});
    }
  }
  const net::Server::NetStats net_stats = server.stats();
  server.Stop();

  for (int k = 0; k < 4; ++k) report->Ops(std::string("lp-wire.") + kKindName[k], kind_sent[k], 0);
  report->Ops("lp-wire.recheck", distinct.size(), 0);
  if (!conn_ok || !pending.empty() || !rechecks.empty()) {
    report->Fail("lp-wire: " + std::to_string(pending.size() + rechecks.size()) +
                 " request ids never answered");
  }
  if (stray_ids != 0) report->Fail("lp-wire: answers for unknown ids");
  if (bad_status != 0) {
    report->Fail("lp-wire: " + std::to_string(bad_status) + " answers not ok");
  }
  if (mismatched_repeats != 0) {
    report->Fail("lp-wire: " + std::to_string(mismatched_repeats) +
                 " repeated keys answered differently");
  }
  if (net_stats.frames_out != sent + distinct.size()) {
    report->Fail("lp-wire: server sent " + std::to_string(net_stats.frames_out) +
                 " frames for " + std::to_string(sent + distinct.size()) +
                 " requests");
  }
  VerifyAnswers(w, keys, answers, report);

  PhaseResult r;
  std::vector<double> tput, cpu_per_op, p50, p99;
  for (const Slice& s : slices) {
    if (s.lat_us.empty()) continue;
    const double n = static_cast<double>(s.lat_us.size());
    tput.push_back(n / s.wall_s);
    cpu_per_op.push_back(s.cpu_s * 1e6 / n);
    p50.push_back(Percentile(s.lat_us, 50.0));
    p99.push_back(Percentile(s.lat_us, 99.0));
  }
  r.throughput_per_s = Median(tput);
  r.cpu_us_per_op = Median(cpu_per_op);
  r.p50_us = Median(p50);
  r.p99_us = Median(p99);
  r.timed_s = static_cast<double>(t1 - t0) / 1e9;
  r.rss_mb = rss_mb;
  const double ops = static_cast<double>(std::max<uint64_t>(1, timed_completed));
  r.runq_wait_us_per_op = static_cast<double>(runq) / 1e3 / ops;
  r.runq_wait_s = static_cast<double>(runq) / 1e9;
  report->Context("lp_wire_requests_timed", std::to_string(timed_completed));
  report->Context("lp_wire_distinct_keys", std::to_string(distinct.size()));

  if (!tracing) return r;

  // ---- Traced run: per-layer figures -------------------------------------
  const double lookups = CacheLookups(cache1) - CacheLookups(cache0);
  report->Metric("serve.cache_hit_ratio",
                 lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) / lookups : 0.0,
                 "ratio");
  report->Metric("net.client_cpu_us_per_op", gen_cpu * 1e6 / ops, "us");
  report->Metric("net.server_cpu_us_per_op", (cpu - gen_cpu) * 1e6 / ops, "us");
  report->Metric("net.frames_out", static_cast<double>(net_stats.frames_out), "count");
  report->Metric("proc.runq_wait_us_per_op", r.runq_wait_us_per_op, "us");

  // Replay the same stream in process on a fresh engine (fresh cache), and
  // call the scan and the selection directly on every miss.
  serve::QueryEngine replay(&ctx, serve::EngineOptions{});
  const size_t n_replay = std::min<size_t>(sent, kReplayMax);
  std::vector<double> inproc_all, wire_same, lp_lat, scan_us, select_us;
  std::vector<float> scores;
  for (size_t pos = 0; pos < n_replay; ++pos) {
    const Request& q = stream[pos % stream.size()];
    const uint64_t span = Tracer::Get().Begin("replay.request", 0, pos);
    const uint64_t s0 = NowNs();
    serve::Response rr;
    {
      ScopedSpan call("serve.engine_call", span, pos);
      switch (q.kind) {
        case kLp: {
          const auto [h, rel] = keys.lp[q.key];
          rr = replay.LinkPredictTopK(h, rel, kTopK);
          break;
        }
        case kNeighbors:
          rr = replay.Neighbors(keys.products[q.key]);
          break;
        case kConcepts:
          rr = replay.ConceptsOf(keys.products[q.key]);
          break;
        case kLink:
          rr = replay.EntityLink(brands[static_cast<size_t>(keys.brands[q.key])].name);
          break;
      }
    }
    const double us = static_cast<double>(NowNs() - s0) / 1e3;
    inproc_all.push_back(us);
    if (pos < wire_lat_us.size()) wire_same.push_back(wire_lat_us[pos]);
    if (q.kind == kLp) {
      lp_lat.push_back(us);
      if (!rr.from_cache) {
        const auto [h, rel] = keys.lp[q.key];
        uint64_t a = NowNs();
        {
          ScopedSpan scan("nn.score_tails", span, pos);
          w.model->ScoreTails(h, rel, &scores);
        }
        uint64_t m = NowNs();
        std::vector<serve::ScoredEntity> top;
        {
          ScopedSpan sel("serve.select_topk", span, pos);
          top = serve::SelectTopK(scores, kTopK);
        }
        const uint64_t z = NowNs();
        scan_us.push_back(static_cast<double>(m - a) / 1e3);
        select_us.push_back(static_cast<double>(z - m) / 1e3);
        if (top != rr.payload.topk) {
          report->Fail("lp-wire replay: direct scan and selection disagree "
                       "with the engine");
        }
      }
    }
    Tracer::Get().End(span);
  }
  report->Metric("serve.engine_lp_p50_us", Percentile(lp_lat, 50.0), "us");
  report->Metric("serve.engine_lp_p99_us", Percentile(lp_lat, 99.0), "us");
  // With up to 128 requests outstanding, wire p50 is mostly time spent queued
  // behind the others, so this is context only; net.overhead_p50_us is the
  // one-outstanding figure of the wire probe.
  report->Context("wire_pipelined_minus_inproc_p50_us",
                  JsonNumber(Percentile(wire_same, 50.0) -
                             Percentile(inproc_all, 50.0)));
  report->Metric("nn.score_tails_us", Median(scan_us), "us");
  report->Metric("serve.select_topk_us", Median(select_us), "us");
  return r;
}

}  // namespace perfbench
