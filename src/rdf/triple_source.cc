#include "rdf/triple_source.h"

namespace openbg::rdf {

std::vector<Triple> TripleSource::Match(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  ForEachMatch(pattern, [&out](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

size_t TripleSource::CountMatches(const TriplePattern& pattern) const {
  size_t n = 0;
  ForEachMatch(pattern, [&n](const Triple&) {
    ++n;
    return true;
  });
  return n;
}

std::vector<TermId> TripleSource::Objects(TermId s, TermId p) const {
  std::vector<TermId> out;
  ForEachMatch(TriplePattern{s, p, TriplePattern::kAny},
               [&out](const Triple& t) {
                 out.push_back(t.o);
                 return true;
               });
  return out;
}

std::vector<TermId> TripleSource::Subjects(TermId p, TermId o) const {
  std::vector<TermId> out;
  ForEachMatch(TriplePattern{TriplePattern::kAny, p, o},
               [&out](const Triple& t) {
                 out.push_back(t.s);
                 return true;
               });
  return out;
}

TermId TripleSource::FirstObject(TermId s, TermId p) const {
  TermId found = kInvalidTerm;
  ForEachMatch(TriplePattern{s, p, TriplePattern::kAny},
               [&found](const Triple& t) {
                 found = t.o;
                 return false;
               });
  return found;
}

}  // namespace openbg::rdf
