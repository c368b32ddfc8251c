// The three workloads. Each runs its timed phase for args.seconds, checks
// every answer it can against the oracles, and adds its end-to-end metrics
// (untraced run) or per-layer metrics (traced run) to the report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"
#include "ontology/ontology.h"
#include "serve/result_cache.h"

namespace perfbench {

// The properties ConceptsOf reads: one (entity, property, concept) triple per
// appliedTime / relatedScene / aboutTheme / forCrowd / inMarket* edge.
inline std::vector<openbg::rdf::TermId> ConceptProperties(
    const openbg::ontology::Ontology& onto) {
  std::vector<openbg::rdf::TermId> props = {
      onto.applied_time(), onto.related_scene(), onto.about_theme(),
      onto.for_crowd()};
  props.insert(props.end(), onto.in_market().begin(), onto.in_market().end());
  return props;
}

// Every lookup the result cache answered, hit or not.
inline double CacheLookups(const openbg::serve::ResultCache::Stats& s) {
  return static_cast<double>(s.hits + s.misses + s.collisions + s.stale +
                             s.future);
}

// What a workload measured over its timed phase, for the context stamp and
// the end-to-end metrics every workload reports.
struct PhaseResult {
  double throughput_per_s = 0.0;  // operations per wall second
  double cpu_us_per_op = 0.0;     // process CPU per operation
  double p50_us = 0.0;            // the workload's unit of latency
  double p99_us = 0.0;
  double timed_s = 0.0;           // wall time of the timed phase
  double runq_wait_us_per_op = 0.0;
  double runq_wait_s = 0.0;       // summed over the phase's threads
  // Peak resident set (VmHWM) when the program's work ended, read before the
  // oracles that need memory of their own are built.
  double rss_mb = 0.0;
};

PhaseResult RunLpWire(const Args& args, World* world, Report* report);
PhaseResult RunGraphMixLive(const Args& args, World* world, Report* report);
PhaseResult RunKgeTrainEval(const Args& args, World* world, Report* report);

// Direct probes of every layer on the shared set-up (probes.cc): each adds
// the per-layer metrics the workload did not measure in its own phase.
void ProbeLayers(World* world, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
