// Oracles the benchmark checks the program's answers against. Each is a
// direct, naive computation that shares no code path with the program:
//  * TransE top-K in double precision over the model's public embedding
//    rows, ordered by score descending, then id ascending;
//  * a filtered rank that scores every candidate one at a time, with the
//    optimistic tie rule of kge/evaluator.h (rank = 1 + #strictly better);
//  * a std::set graph that replays a base plus every applied batch.
// RunSelfTest() checks each against small hand-computed cases.
#ifndef PERFBENCH_ORACLES_H_
#define PERFBENCH_ORACLES_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "rdf/triple_store.h"

namespace perfbench {

struct Scored {
  uint32_t id = 0;
  double score = 0.0;
};

// Score of every tail t: -sum_d |h[d] + r[d] - table[t][d]|, in double.
std::vector<double> NaiveL1TailScores(const float* h, const float* r,
                                      const float* table, size_t rows,
                                      size_t dim);

// The k best of `scores`, by score descending, then id ascending.
std::vector<Scored> NaiveTopK(const std::vector<double>& scores, size_t k);

// Tolerance within which two candidates' naive scores count as tied: the
// float scan may order such candidates either way.
inline double ScoreTolerance(double score) {
  return 1e-4 * (1.0 + (score < 0 ? -score : score));
}

// Checks a top-K answer (ids with the program's float scores) against the
// naive scores: the right length, distinct ids, each reported score within
// tolerance of its naive score, and at every position a naive score within
// tolerance of the naive top-K's score there. Empty string when it holds.
std::string CheckTopK(const std::vector<Scored>& answer,
                      const std::vector<double>& naive_scores, size_t k);

// Range of ranks the optimistic tie rule may give `gold` under float
// rounding: [1 + #(better by more than tol), 1 + #(better or within tol)],
// counting only candidates not in `filtered` (sorted ids, gold excluded).
struct RankRange {
  size_t lo = 0;
  size_t hi = 0;
};
RankRange NaiveFilteredRank(const std::vector<double>& scores, uint32_t gold,
                            const std::vector<uint32_t>& filtered);

struct SpoLess {
  bool operator()(const openbg::rdf::Triple& a,
                  const openbg::rdf::Triple& b) const {
    if (a.s != b.s) return a.s < b.s;
    if (a.p != b.p) return a.p < b.p;
    return a.o < b.o;
  }
};
struct OspLess {
  bool operator()(const openbg::rdf::Triple& a,
                  const openbg::rdf::Triple& b) const {
    if (a.o != b.o) return a.o < b.o;
    if (a.s != b.s) return a.s < b.s;
    return a.p < b.p;
  }
};

// The replay oracle of a live graph: a set of triples, kept twice so both
// out-edges and in-edges of an entity are range scans.
class SetGraph {
 public:
  explicit SetGraph(const std::vector<openbg::rdf::Triple>& base);
  // Returns whether the set changed.
  bool Add(const openbg::rdf::Triple& t);
  bool Retract(const openbg::rdf::Triple& t);
  bool Contains(const openbg::rdf::Triple& t) const {
    return spo_.count(t) > 0;
  }
  // Out-edges of `e` (relation-restricted unless `relation` is the
  // wildcard), then in-edges that are not self loops; sorted (s, p, o).
  std::vector<openbg::rdf::Triple> Neighbors(openbg::rdf::TermId e,
                                             openbg::rdf::TermId relation) const;
  // Out-edges of `e` whose property is one of `properties`; sorted.
  std::vector<openbg::rdf::Triple> OutEdges(
      openbg::rdf::TermId e,
      const std::vector<openbg::rdf::TermId>& properties) const;
  size_t size() const { return spo_.size(); }

 private:
  std::set<openbg::rdf::Triple, SpoLess> spo_;
  std::set<openbg::rdf::Triple, OspLess> osp_;
};

// Sorts triples (s, p, o) so answers compare as sets.
void SortTriples(std::vector<openbg::rdf::Triple>* v);

// Hand-checked cases for every oracle; empty string when all pass.
std::string RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_ORACLES_H_
