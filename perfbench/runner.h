// Runs one round of a workload against a freshly built NewswireSystem on
// the sequential simulator engine, untraced or traced, and checks its
// outputs against the benchmark's own expected sets and against properties
// every run must have.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace nw::obs {
struct TraceEvent;
}  // namespace nw::obs

namespace perfbench {

// Per-layer self-time buckets of the traced run. Each simulator step is
// credited to exactly one bucket (see README.md, "Layer attribution").
enum class Layer {
  kSimTimer,     // no record, or none of a layer: timers without effect,
                 // network drops, fault-plan events
  kGossipRecv,   // delivery of an astro.* message
  kGossipRound,  // gossip round timer (or an astro.* send from a timer)
  kAggregation,  // any step that re-evaluated an aggregate
  kForward,      // multicast: mc.* delivery, hop retransmit/abandon, drain
  kNewswireRecv,  // delivery of an nw.* message
  kRepairRound,   // subscriber anti-entropy round
  kPublish,       // the benchmark's publication events
  kCount,
};
const char* LayerMetricName(Layer layer);

// Credits one step by the trace records it left (in record order).
Layer Attribute(const std::vector<nw::obs::TraceEvent>& records);

struct RoundResult {
  double setup_s = 0;  // build the system + subscription warm-up (wall)
  double run_s = 0;    // publish and settle phase (wall)
  Outcome outcome;
  std::uint64_t items_published = 0;
  std::uint64_t run_bytes = 0;        // all bytes sent in the run phase
  std::uint64_t publisher_bytes = 0;  // publisher egress in the run phase
  std::vector<double> publish_call_s;  // wall time of each PublishArticle

  // Property checks that failed, if any.
  std::vector<std::string> check_failures;

  // Digest of the delivery logs and the byte totals: equal digests mean
  // the same run.
  std::uint64_t digest = 0;

  // Traced rounds only: per-layer metrics by name (value, unit).
  std::map<std::string, std::pair<double, std::string>> layers;
  double stepped_s = 0;  // sum of the per-step wall times

  bool checks_ok() const { return check_failures.empty(); }
};

// One full round: setup, publish + settle, checks.
RoundResult RunRound(const WorkloadSpec& spec, const Inputs& inputs,
                     bool traced);

// Setup alone (system build + warm-up); returns its wall time in seconds.
double SetupOnly(const WorkloadSpec& spec, const Inputs& inputs);

}  // namespace perfbench
