#ifndef OPENBG_RDF_TRIPLE_SOURCE_H_
#define OPENBG_RDF_TRIPLE_SOURCE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "rdf/term.h"

namespace openbg::rdf {

/// One RDF statement: subject-predicate-object, all interned TermIds.
struct Triple {
  TermId s = kInvalidTerm;
  TermId p = kInvalidTerm;
  TermId o = kInvalidTerm;

  friend bool operator==(const Triple&, const Triple&) = default;
};

/// A triple pattern: any component may be `kAny` (wildcard).
struct TriplePattern {
  static constexpr TermId kAny = kInvalidTerm;
  TermId s = kAny;
  TermId p = kAny;
  TermId o = kAny;

  /// True iff `t` agrees with every bound component.
  bool Matches(const Triple& t) const {
    return (s == kAny || s == t.s) && (p == kAny || p == t.p) &&
           (o == kAny || o == t.o);
  }
};

/// Hash for the triple sets (store dedup, delta adds and retracts).
struct TripleHash {
  size_t operator()(const Triple& t) const {
    uint64_t h = t.s;
    h = h * 0x9E3779B97F4A7C15ull + t.p;
    h = h * 0x9E3779B97F4A7C15ull + t.o;
    h ^= h >> 29;
    return static_cast<size_t>(h);
  }
};

/// The three sort orders every store indexes, named by key component order.
enum class IndexOrder : uint8_t { kSpo = 0, kPos = 1, kOsp = 2 };

/// `t`'s sort key in `order`: SPO (s, p, o), POS (p, o, s), OSP (o, s, p).
inline std::array<TermId, 3> KeyOf(const Triple& t, IndexOrder order) {
  switch (order) {
    case IndexOrder::kSpo:
      return {t.s, t.p, t.o};
    case IndexOrder::kPos:
      return {t.p, t.o, t.s};
    default:
      return {t.o, t.s, t.p};
  }
}

/// Inverse of KeyOf.
inline Triple TripleOfKey(const std::array<TermId, 3>& k, IndexOrder order) {
  switch (order) {
    case IndexOrder::kSpo:
      return Triple{k[0], k[1], k[2]};
    case IndexOrder::kPos:
      return Triple{k[2], k[0], k[1]};
    default:
      return Triple{k[1], k[2], k[0]};
  }
}

/// How a pattern is answered: the index order whose key starts with the
/// longest run of bound components, and that run (the bound prefix).
struct PatternPlan {
  IndexOrder order = IndexOrder::kSpo;
  int bound = 0;  ///< bound prefix length; 0 = full scan
  std::array<TermId, 2> prefix = {TriplePattern::kAny, TriplePattern::kAny};
};

/// The one index-selection rule of every store. Every two-bound
/// combination has a matching two-component prefix — (s,p)→SPO, (p,o)→POS,
/// (s,o)→OSP — so no bound pair degrades to a one-term prefix plus a
/// filter scan. A fully bound pattern uses the (s, p) SPO prefix.
inline PatternPlan PlanPattern(const TriplePattern& q) {
  constexpr TermId kAny = TriplePattern::kAny;
  const bool s = q.s != kAny, p = q.p != kAny, o = q.o != kAny;
  if (s && p) return {IndexOrder::kSpo, 2, {q.s, q.p}};
  if (p && o) return {IndexOrder::kPos, 2, {q.p, q.o}};
  if (s && o) return {IndexOrder::kOsp, 2, {q.o, q.s}};  // OSP key (o, s, p)
  if (s) return {IndexOrder::kSpo, 1, {q.s, kAny}};
  if (p) return {IndexOrder::kPos, 1, {q.p, kAny}};
  if (o) return {IndexOrder::kOsp, 1, {q.o, kAny}};
  return {};
}

/// Non-owning, non-allocating reference to a `bool(const Triple&)` callable
/// (return false to stop a scan). It only borrows the callable, so it must
/// not outlive the call it is passed to — true of any lambda handed straight
/// to a scan.
class TripleVisitor {
 public:
  template <typename Fn, typename = std::enable_if_t<
                             !std::is_same_v<std::decay_t<Fn>, TripleVisitor>>>
  TripleVisitor(Fn&& fn)  // NOLINT(google-explicit-constructor): by design
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, const Triple& t) -> bool {
          return (*static_cast<std::remove_reference_t<Fn>*>(obj))(t);
        }) {}

  bool operator()(const Triple& t) const { return call_(obj_, t); }

 private:
  void* obj_;
  bool (*call_)(void*, const Triple&);
};

/// The read contract every triple source implements — the in-memory
/// TripleStore, the out-of-core OBGSNAP2 ShardedStore, and the live graph's
/// GraphSnapshot (base plus delta) — so a reader never cares about the
/// storage format underneath. A source implements the scan, membership,
/// size and health; the derived reads (Match, CountMatches, Objects,
/// Subjects, FirstObject) exist once, here. Each store also has its own
/// ScanCost and DistinctPredicates, which depend on its index layout.
class TripleSource {
 public:
  virtual ~TripleSource() = default;

  /// Calls `fn` for each triple matching `pattern`, in the source's
  /// documented order; stops early when `fn` returns false.
  virtual void ForEachMatch(const TriplePattern& pattern,
                            TripleVisitor fn) const = 0;

  /// True iff the exact triple is present.
  virtual bool Contains(TermId s, TermId p, TermId o) const = 0;

  virtual size_t size() const = 0;

  /// False once the source can no longer answer completely (sticky; an
  /// on-disk store whose lazy verification found a corrupt block). Readers
  /// that must not serve partial answers check it around their scans.
  virtual bool ok() const { return true; }

  /// Builds whatever the source builds lazily, so later reads are lock-free
  /// (a no-op for sources that are immutable by construction), and reports
  /// whether that still holds. LiveGraph seals its base before any reader
  /// sees it; the serving layer asserts IndexesSealed() on every read.
  virtual void SealIndexes() const {}
  virtual bool IndexesSealed() const { return true; }

  /// Same as ForEachMatch; the spelling generic callers share with
  /// TripleStore's statically dispatched template.
  template <typename Fn>
  void ForEachMatchFn(const TriplePattern& pattern, Fn&& fn) const {
    ForEachMatch(pattern, fn);
  }

  /// All triples matching `pattern`, in scan order.
  std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// Number of triples matching `pattern` (no materialization).
  size_t CountMatches(const TriplePattern& pattern) const;

  /// Objects `o` of all triples (s, p, o).
  std::vector<TermId> Objects(TermId s, TermId p) const;

  /// Subjects `s` of all triples (s, p, o).
  std::vector<TermId> Subjects(TermId p, TermId o) const;

  /// First object of (s, p, *), or kInvalidTerm.
  TermId FirstObject(TermId s, TermId p) const;

 protected:
  TripleSource() = default;
  TripleSource(const TripleSource&) = default;
  TripleSource(TripleSource&&) = default;
  TripleSource& operator=(const TripleSource&) = default;
  TripleSource& operator=(TripleSource&&) = default;
};

}  // namespace openbg::rdf

#endif  // OPENBG_RDF_TRIPLE_SOURCE_H_
