#ifndef OPENBG_RDF_TRIPLE_STORE_H_
#define OPENBG_RDF_TRIPLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "rdf/triple_source.h"

namespace openbg::rdf {

/// Heap footprint of one TripleStore, broken out per structure so the serve
/// metrics (and the out-of-core bench) can attribute RSS instead of quoting
/// one opaque number. Estimates for the hash containers are lower bounds
/// (bucket array + per-node overhead); vector accounting is exact capacity.
struct TripleStoreMemory {
  size_t triples_bytes = 0;  ///< the append log
  size_t dedup_bytes = 0;    ///< dedup hash set (estimate)
  size_t idx_spo_bytes = 0;  ///< SPO permutation index
  size_t idx_pos_bytes = 0;  ///< POS permutation index
  size_t idx_osp_bytes = 0;  ///< OSP permutation index

  size_t total() const {
    return triples_bytes + dedup_bytes + idx_spo_bytes + idx_pos_bytes +
           idx_osp_bytes;
  }
};

/// In-memory deduplicating triple store with three lazily maintained sort
/// orders (SPO, POS, OSP), so any pattern with at least one bound component
/// resolves to a binary-searched contiguous range.
///
/// Design notes (scaled-down analogue of the production store):
///  * triples append to a log vector; a hash set dedupes;
///  * each index is a permutation of triple positions, re-sorted only when a
///    query arrives after inserts (bulk-load friendly: building N triples
///    then querying costs one sort per index, not N inserts into a tree).
///
/// Thread-safety contract:
///  * `Add` is NOT safe against concurrent readers or other writers; mutate
///    from one thread (or under external synchronization), then publish.
///  * All `const` query methods are safe to call concurrently with each
///    other. Lazy index (re)builds triggered by a query are serialized
///    behind an internal mutex, so even the first post-insert queries may
///    race freely among themselves.
///  * For contention-free hot paths, call `SealIndexes()` once after bulk
///    load: it builds all three sort orders eagerly, after which concurrent
///    queries never touch the mutex's slow path.
class TripleStore final : public TripleSource {
 public:
  TripleStore() = default;

  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  // Moves transfer the data but not the (unmovable) index mutex; like Add,
  // they require that no other thread is touching either store.
  TripleStore(TripleStore&& other) noexcept { *this = std::move(other); }
  TripleStore& operator=(TripleStore&& other) noexcept;

  /// Adds a triple; returns false iff it was already present.
  bool Add(TermId s, TermId p, TermId o);
  bool Add(const Triple& t) { return Add(t.s, t.p, t.o); }

  bool Contains(TermId s, TermId p, TermId o) const override;

  size_t size() const override { return triples_.size(); }

  /// All triples in insertion order.
  const std::vector<Triple>& triples() const { return triples_; }

  /// The unbound pattern iterates in insertion order; a bound one in the
  /// order of the index PlanPattern chose.
  void ForEachMatch(const TriplePattern& pattern,
                    TripleVisitor fn) const override {
    ForEachMatchFn(pattern, fn);
  }

  /// Templated fast path of ForEachMatch: identical semantics, but the
  /// callable is statically dispatched (and typically inlined) instead of
  /// called through a TripleVisitor per triple — for hot loops that hold a
  /// TripleStore by its concrete type.
  template <typename Fn>
  void ForEachMatchFn(const TriplePattern& pattern, Fn&& fn) const {
    const PatternPlan plan = PlanPattern(pattern);
    if (plan.bound == 0) {  // unbound pattern: full scan
      for (const Triple& t : triples_) {
        if (!fn(t)) return;
      }
      return;
    }
    auto [begin, end] = PrefixRange(plan);
    for (const uint32_t* it = begin; it != end; ++it) {
      const Triple& t = triples_[*it];
      if (pattern.Matches(t) && !fn(t)) return;
    }
  }

  /// Number of index entries a query for `pattern` walks (the candidate
  /// range before residual filtering; `size()` for the unbound pattern).
  /// Planner/test introspection: proves which prefix the index selection
  /// actually used — e.g. an (s, ?, o) pattern must cost the (o, s) OSP
  /// range, not the subject's whole SPO range.
  size_t ScanCost(const TriplePattern& pattern) const;

  /// Distinct predicates present in the store.
  std::vector<TermId> DistinctPredicates() const;

  /// Eagerly (re)builds all three sort orders. Call once after bulk load to
  /// freeze the store for concurrent readers; queries afterwards are pure
  /// reads with no locking. Queries before sealing remain correct — they
  /// just may contend on the internal rebuild mutex.
  void SealIndexes() const override;

  /// True iff all three sort orders are built for the current contents —
  /// the state SealIndexes() leaves behind. The serving layer asserts this
  /// on every read: a sealed store guarantees lock-free queries, and an
  /// Add() slipped in after sealing would silently reintroduce the mutex
  /// slow path (and race with concurrent readers).
  bool IndexesSealed() const override {
    for (const std::atomic<bool>& dirty : dirty_) {
      if (dirty.load(std::memory_order_acquire)) return false;
    }
    return true;
  }

  /// Per-structure heap accounting (see TripleStoreMemory). Safe to call
  /// concurrently with queries on a sealed store.
  TripleStoreMemory MemoryUsage() const;

 private:
  void EnsureSorted(IndexOrder order) const;

  // [begin, end) of the plan's bound-prefix range in its order's index
  // (plan.bound > 0).
  std::pair<const uint32_t*, const uint32_t*> PrefixRange(
      const PatternPlan& plan) const;

  std::vector<Triple> triples_;
  std::unordered_set<Triple, TripleHash> dedup_;

  // One permutation of triple positions per IndexOrder.
  mutable std::vector<uint32_t> idx_[3];
  // Invariant: a false flag (acquire-read) means the matching index vector
  // is fully built for the current triples_ — readers then use it without
  // locking. Rebuilds happen under index_mu_ with a double-check.
  mutable std::atomic<bool> dirty_[3] = {false, false, false};
  mutable std::mutex index_mu_;
};

}  // namespace openbg::rdf

#endif  // OPENBG_RDF_TRIPLE_STORE_H_
