#include "oracles.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace perfbench {

using openbg::rdf::TermId;
using openbg::rdf::Triple;
using openbg::rdf::TriplePattern;

std::vector<double> NaiveL1TailScores(const float* h, const float* r,
                                      const float* table, size_t rows,
                                      size_t dim) {
  std::vector<double> target(dim);
  for (size_t d = 0; d < dim; ++d) {
    target[d] = static_cast<double>(h[d]) + static_cast<double>(r[d]);
  }
  std::vector<double> scores(rows);
  for (size_t t = 0; t < rows; ++t) {
    const float* row = table + t * dim;
    double sum = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      sum += std::fabs(target[d] - static_cast<double>(row[d]));
    }
    scores[t] = -sum;
  }
  return scores;
}

std::vector<Scored> NaiveTopK(const std::vector<double>& scores, size_t k) {
  std::vector<Scored> all(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    all[i] = {static_cast<uint32_t>(i), scores[i]};
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                    all.end(), [](const Scored& a, const Scored& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.id < b.id;
                    });
  all.resize(k);
  return all;
}

std::string CheckTopK(const std::vector<Scored>& answer,
                      const std::vector<double>& naive_scores, size_t k) {
  const std::vector<Scored> want = NaiveTopK(naive_scores, k);
  char buf[256];
  if (answer.size() != want.size()) {
    std::snprintf(buf, sizeof(buf), "top-K has %zu entries, want %zu",
                  answer.size(), want.size());
    return buf;
  }
  std::unordered_set<uint32_t> seen;
  for (size_t i = 0; i < answer.size(); ++i) {
    const Scored& a = answer[i];
    if (a.id >= naive_scores.size() || !seen.insert(a.id).second) {
      std::snprintf(buf, sizeof(buf), "bad or repeated id %u at %zu", a.id, i);
      return buf;
    }
    const double naive = naive_scores[a.id];
    if (std::fabs(naive - a.score) > ScoreTolerance(naive)) {
      std::snprintf(buf, sizeof(buf),
                    "id %u scored %.7g, naive score %.9g", a.id, a.score,
                    naive);
      return buf;
    }
    if (std::fabs(naive - want[i].score) > ScoreTolerance(want[i].score)) {
      std::snprintf(buf, sizeof(buf),
                    "position %zu holds id %u (naive %.9g), naive top-K has "
                    "id %u (%.9g)",
                    i, a.id, naive, want[i].id, want[i].score);
      return buf;
    }
  }
  return "";
}

RankRange NaiveFilteredRank(const std::vector<double>& scores, uint32_t gold,
                            const std::vector<uint32_t>& filtered) {
  const double g = scores[gold];
  const double tol = ScoreTolerance(g);
  RankRange range{1, 1};
  for (uint32_t c = 0; c < scores.size(); ++c) {
    if (c == gold ||
        std::binary_search(filtered.begin(), filtered.end(), c)) {
      continue;
    }
    if (scores[c] > g + tol) ++range.lo;
    if (scores[c] >= g - tol) ++range.hi;
  }
  return range;
}

SetGraph::SetGraph(const std::vector<Triple>& base) {
  for (const Triple& t : base) Add(t);
}

bool SetGraph::Add(const Triple& t) {
  if (!spo_.insert(t).second) return false;
  osp_.insert(t);
  return true;
}

bool SetGraph::Retract(const Triple& t) {
  if (spo_.erase(t) == 0) return false;
  osp_.erase(t);
  return true;
}

std::vector<Triple> SetGraph::Neighbors(TermId e, TermId relation) const {
  std::vector<Triple> out;
  for (auto it = spo_.lower_bound(Triple{e, 0, 0});
       it != spo_.end() && it->s == e; ++it) {
    if (relation == TriplePattern::kAny || it->p == relation) {
      out.push_back(*it);
    }
  }
  for (auto it = osp_.lower_bound(Triple{0, 0, e});
       it != osp_.end() && it->o == e; ++it) {
    if (it->s != e &&
        (relation == TriplePattern::kAny || it->p == relation)) {
      out.push_back(*it);
    }
  }
  SortTriples(&out);
  return out;
}

std::vector<Triple> SetGraph::OutEdges(
    TermId e, const std::vector<TermId>& properties) const {
  std::vector<Triple> out;
  for (auto it = spo_.lower_bound(Triple{e, 0, 0});
       it != spo_.end() && it->s == e; ++it) {
    if (std::find(properties.begin(), properties.end(), it->p) !=
        properties.end()) {
      out.push_back(*it);
    }
  }
  return out;
}

void SortTriples(std::vector<Triple>* v) {
  std::sort(v->begin(), v->end(), SpoLess());
}

namespace {

bool SameTriples(const std::vector<Triple>& a, const std::vector<Triple>& b) {
  return a == b;
}

}  // namespace

std::string RunSelfTest() {
  // Top-K: h = (0, 0), r = (1, 0), so the target is (1, 0). Rows and their
  // L1 distances to it: e0 (1, 0) -> 0; e1 (0, 0) -> 1; e2 (2, 1) -> 2;
  // e3 (1, 1) -> 1; e4 (1, 0) -> 0. Scores are the negated distances, so
  // the order is e0, e4 (tie, lower id first), e1, e3 (tie), e2.
  {
    const float h[2] = {0.0f, 0.0f};
    const float r[2] = {1.0f, 0.0f};
    const float table[10] = {1, 0, 0, 0, 2, 1, 1, 1, 1, 0};
    std::vector<double> s = NaiveL1TailScores(h, r, table, 5, 2);
    const std::vector<double> want_scores = {0, -1, -2, -1, 0};
    if (s != want_scores) return "NaiveL1TailScores: wrong scores";
    std::vector<Scored> top = NaiveTopK(s, 3);
    if (top.size() != 3 || top[0].id != 0 || top[1].id != 4 ||
        top[2].id != 1) {
      return "NaiveTopK: wrong order for the tie case";
    }
    // e4 before e0 swaps a tie: accepted. e3 in place of e1 also swaps a
    // tie. e2 in third place is a real error.
    if (!CheckTopK({{4, 0.0}, {0, 0.0}, {3, -1.0}}, s, 3).empty()) {
      return "CheckTopK rejected a swap of tied candidates";
    }
    if (CheckTopK({{0, 0.0}, {4, 0.0}, {2, -2.0}}, s, 3).empty()) {
      return "CheckTopK accepted a wrong third candidate";
    }
    if (CheckTopK({{0, 0.0}, {4, 0.0}}, s, 3).empty()) {
      return "CheckTopK accepted a short answer";
    }
    if (CheckTopK({{0, 0.0}, {0, 0.0}, {1, -1.0}}, s, 3).empty()) {
      return "CheckTopK accepted a repeated id";
    }
    if (CheckTopK({{0, 0.5}, {4, 0.0}, {1, -1.0}}, s, 3).empty()) {
      return "CheckTopK accepted a wrong score";
    }
  }
  // Filtered rank. Scores: c0 5, c1 3, c2 3, c3 9, c4 1; gold c1. c3 is a
  // known-true triple and is filtered. Strictly better and unfiltered: c0,
  // so the optimistic rank is 2; the tie with c2 may push it to 3.
  {
    const std::vector<double> s = {5, 3, 3, 9, 1};
    RankRange rr = NaiveFilteredRank(s, 1, {3});
    if (rr.lo != 2 || rr.hi != 3) return "NaiveFilteredRank: wrong range";
    rr = NaiveFilteredRank(s, 1, {});
    if (rr.lo != 3 || rr.hi != 4) {
      return "NaiveFilteredRank: wrong unfiltered range";
    }
    rr = NaiveFilteredRank(s, 3, {0, 1});
    if (rr.lo != 1 || rr.hi != 1) return "NaiveFilteredRank: wrong top rank";
  }
  // Replay graph: base {(1,10,2), (2,10,3), (1,11,1), (4,12,1)}.
  {
    SetGraph g({{1, 10, 2}, {2, 10, 3}, {1, 11, 1}, {4, 12, 1}});
    // Neighbors(1): out-edges (1,10,2), (1,11,1); in-edges (4,12,1) — the
    // self loop (1,11,1) is listed once.
    if (!SameTriples(g.Neighbors(1, TriplePattern::kAny),
                     {{1, 10, 2}, {1, 11, 1}, {4, 12, 1}})) {
      return "SetGraph::Neighbors: wrong base answer";
    }
    if (!SameTriples(g.Neighbors(1, 10), {{1, 10, 2}})) {
      return "SetGraph::Neighbors: wrong relation-restricted answer";
    }
    // Batch 1: add (5,10,1), retract (1,10,2). Batch 2: re-add (1,10,2),
    // retract the added (5,10,1), retract an absent triple.
    if (!g.Add({5, 10, 1}) || !g.Retract({1, 10, 2})) {
      return "SetGraph: batch 1 not applied";
    }
    if (!SameTriples(g.Neighbors(1, TriplePattern::kAny),
                     {{1, 11, 1}, {4, 12, 1}, {5, 10, 1}})) {
      return "SetGraph::Neighbors: wrong answer after batch 1";
    }
    if (!g.Add({1, 10, 2}) || !g.Retract({5, 10, 1}) ||
        g.Retract({7, 7, 7})) {
      return "SetGraph: batch 2 not applied";
    }
    if (!SameTriples(g.Neighbors(1, TriplePattern::kAny),
                     {{1, 10, 2}, {1, 11, 1}, {4, 12, 1}})) {
      return "SetGraph::Neighbors: wrong answer after batch 2";
    }
    if (!SameTriples(g.OutEdges(1, {11, 12}), {{1, 11, 1}})) {
      return "SetGraph::OutEdges: wrong answer";
    }
    if (g.size() != 4) return "SetGraph: wrong size after replay";
  }
  return "";
}

}  // namespace perfbench
