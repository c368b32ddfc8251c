#include "rdf/delta_segment.h"

#include <algorithm>

#include "util/snapshot.h"

namespace openbg::rdf {

namespace {

constexpr std::string_view kDeltaMagic = "OBGDELT1";
constexpr uint32_t kDeltaVersion = 1;
constexpr uint32_t kHeaderTag = 1;
constexpr uint32_t kAddsTag = 2;
constexpr uint32_t kRetractsTag = 3;

util::Status ValidateTriples(const std::vector<Triple>& ts,
                             const char* what) {
  for (const Triple& t : ts) {
    if (t.s == kInvalidTerm || t.p == kInvalidTerm || t.o == kInvalidTerm) {
      return util::Status::InvalidArgument(
          std::string("update batch ") + what +
          " contains a wildcard/invalid term id");
    }
  }
  return util::Status::OK();
}

bool SpoLess(const Triple& a, const Triple& b) {
  if (a.s != b.s) return a.s < b.s;
  if (a.p != b.p) return a.p < b.p;
  return a.o < b.o;
}

}  // namespace

util::Result<std::shared_ptr<const DeltaSegment>> DeltaSegment::Build(
    const DeltaSegment* prev, const UpdateBatch& batch,
    const TripleSource& base) {
  if (util::Status s = ValidateTriples(batch.adds, "adds"); !s.ok()) return s;
  if (util::Status s = ValidateTriples(batch.retracts, "retracts"); !s.ok()) {
    return s;
  }
  auto seg = std::make_shared<DeltaSegment>();
  if (prev != nullptr) {
    seg->add_set_ = prev->add_set_;
    seg->retracts_ = prev->retracts_;
  }
  // Adds first, retracts second: a triple in both lists ends up retracted.
  for (const Triple& t : batch.adds) {
    if (base.Contains(t.s, t.p, t.o)) {
      seg->retracts_.erase(t);  // re-add of a retracted base triple
    } else {
      seg->add_set_.insert(t);
    }
  }
  for (const Triple& t : batch.retracts) {
    if (base.Contains(t.s, t.p, t.o)) {
      seg->retracts_.insert(t);
    } else {
      seg->add_set_.erase(t);  // retract of a not-yet-compacted delta add
    }
  }
  seg->adds_.assign(seg->add_set_.begin(), seg->add_set_.end());
  std::sort(seg->adds_.begin(), seg->adds_.end(), SpoLess);
  return std::shared_ptr<const DeltaSegment>(std::move(seg));
}

std::vector<uint64_t> TouchedKeys(const UpdateBatch& batch) {
  std::vector<uint64_t> keys;
  keys.reserve(2 * (batch.adds.size() + batch.retracts.size()));
  auto touch = [&keys](const Triple& t) {
    keys.push_back(EntityDepKey(t.s));
    keys.push_back(EntityDepKey(t.o));
  };
  for (const Triple& t : batch.adds) touch(t);
  for (const Triple& t : batch.retracts) touch(t);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

util::Status SaveDeltaBatch(const UpdateBatch& batch, uint64_t generation,
                            const std::string& path) {
  util::SnapshotWriter w(path, kDeltaMagic, kDeltaVersion);
  w.BeginSection(kHeaderTag);
  w.PutU64(generation);
  w.BeginSection(kAddsTag);
  w.PutU64(batch.adds.size());
  for (const Triple& t : batch.adds) {
    w.PutU32(t.s);
    w.PutU32(t.p);
    w.PutU32(t.o);
  }
  w.BeginSection(kRetractsTag);
  w.PutU64(batch.retracts.size());
  for (const Triple& t : batch.retracts) {
    w.PutU32(t.s);
    w.PutU32(t.p);
    w.PutU32(t.o);
  }
  return w.Finish();
}

namespace {

util::Status ReadTripleList(util::SnapshotSection* sec, uint32_t want_tag,
                            std::vector<Triple>* out) {
  if (sec->tag() != want_tag) {
    return util::Status::IoError("delta batch: unexpected section tag");
  }
  uint64_t n = 0;
  if (util::Status s = sec->ReadU64(&n); !s.ok()) return s;
  std::vector<Triple> ts;
  ts.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Triple t;
    if (util::Status s = sec->ReadU32(&t.s); !s.ok()) return s;
    if (util::Status s = sec->ReadU32(&t.p); !s.ok()) return s;
    if (util::Status s = sec->ReadU32(&t.o); !s.ok()) return s;
    if (t.s == kInvalidTerm || t.p == kInvalidTerm || t.o == kInvalidTerm) {
      return util::Status::IoError("delta batch: invalid term id");
    }
    ts.push_back(t);
  }
  if (!sec->AtEnd()) {
    return util::Status::IoError("delta batch: trailing bytes in section");
  }
  *out = std::move(ts);
  return util::Status::OK();
}

}  // namespace

util::Status LoadDeltaBatch(const std::string& path, UpdateBatch* batch,
                            uint64_t* generation) {
  util::SnapshotReader r;
  if (util::Status s = r.Open(path, kDeltaMagic, kDeltaVersion); !s.ok()) {
    return s;
  }
  if (r.num_sections() != 3) {
    return util::Status::IoError("delta batch: expected 3 sections");
  }
  util::SnapshotSection header = r.section(0);
  if (header.tag() != kHeaderTag) {
    return util::Status::IoError("delta batch: missing header section");
  }
  uint64_t gen = 0;
  if (util::Status s = header.ReadU64(&gen); !s.ok()) return s;
  if (!header.AtEnd()) {
    return util::Status::IoError("delta batch: trailing header bytes");
  }
  // Decode fully into locals before touching the outputs (fail closed).
  UpdateBatch decoded;
  util::SnapshotSection adds = r.section(1);
  if (util::Status s = ReadTripleList(&adds, kAddsTag, &decoded.adds);
      !s.ok()) {
    return s;
  }
  util::SnapshotSection retracts = r.section(2);
  if (util::Status s =
          ReadTripleList(&retracts, kRetractsTag, &decoded.retracts);
      !s.ok()) {
    return s;
  }
  *batch = std::move(decoded);
  if (generation != nullptr) *generation = gen;
  return util::Status::OK();
}

}  // namespace openbg::rdf
