// Workload definitions of the NewsWire end-to-end benchmark: the input
// parameters of each workload, the inputs the benchmark generates from its
// own seed (subscriptions, publication schedule, crash and subscription
// churn schedule), the expected (item, subscriber) deliveries computed by
// exact subject match, and the scoring of observed deliveries against them.
//
// Nothing here touches the program: the expected sets are derived from the
// generated inputs alone, never from the system's own bookkeeping.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::size_t subscribers = 0;
  std::size_t branching = 16;
  double items_per_sec = 1.0;
  // Published subjects. Every subject is published exactly
  // `items_per_subject` times and every subscriber holds exactly
  // `subjects_per_subscriber` of them, so the number of expected deliveries
  // is the same for every seed (only who gets what, and when, varies).
  std::size_t catalog = 16;
  std::size_t subjects_per_subscriber = 4;
  std::size_t items_per_subject = 4;
  // The first `wide_subscribers` subscribers hold every subject instead.
  std::size_t wide_subscribers = 0;
  double warmup_s = 15.0;  // simulated subscription warm-up
  double settle_s = 30.0;  // simulated time after the last publication
  double loss = 0.0;       // i.i.d. message loss for the whole run
  // Subscribers crashed during publishing; the first `restarts` of them
  // come back later. Crashed subscribers that stay down are not expected
  // to receive anything.
  std::size_t crashes = 0;
  std::size_t restarts = 0;
  // Subscribe/unsubscribe pairs on subjects that are never published.
  std::size_t idle_subscription_changes = 0;
  // Scenarios per run: a run pools its end-to-end figures over this many
  // rounds, each with inputs drawn from its own sub-seed.
  std::size_t scenarios = 1;
  // Seed-independent inputs: when set, MakeInputs ignores its seed argument
  // and uses this one (fault probes that must fail identically every run).
  std::optional<std::uint64_t> fixed_seed;

  std::size_t items() const { return catalog * items_per_subject; }
  double publish_s() const { return double(items()) / items_per_sec; }
};

struct Publication {
  double at = 0;            // seconds after publishing starts
  std::size_t subject = 0;  // index into Inputs::subjects
};

struct Crash {
  std::size_t subscriber = 0;
  double crash_at = 0;     // seconds after publishing starts
  double restart_at = -1;  // < 0: stays down
};

struct SubscriptionChange {
  double at = 0;
  std::size_t subscriber = 0;
  std::string subject;
  bool subscribe = true;
};

struct Inputs {
  std::uint64_t system_seed = 1;       // seeds the program's own RNG
  std::vector<std::string> subjects;   // the published catalog
  std::vector<std::vector<std::size_t>> subscriptions;  // sorted, per sub
  std::vector<Publication> schedule;   // in publication order
  std::vector<Crash> crashes;
  std::vector<SubscriptionChange> changes;
};

// Deterministic in (spec, seed, scenario): the same seed gives the same
// inputs. `scenario` selects one of the spec's scenarios.
Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed,
                  std::size_t scenario = 0);

// For each item of the schedule, the subscribers expected to receive it:
// subscribed to exactly its subject and alive at the end of the run.
std::vector<std::vector<std::size_t>> ExpectedRecipients(
    const Inputs& inputs);

// One delivery observed at a subscriber.
struct Delivery {
  std::uint32_t item = 0;         // schedule index
  std::uint32_t incarnation = 0;  // subscriber's incarnation at delivery
  double latency = 0;             // simulated seconds since publication
};

struct Outcome {
  std::uint64_t expected = 0;    // operations attempted
  std::uint64_t delivered = 0;   // expected pairs that arrived
  std::uint64_t missing = 0;     // expected pairs that never arrived
  std::uint64_t duplicated = 0;  // expected pairs delivered twice in one
                                 // incarnation
  std::uint64_t unexpected = 0;  // deliveries without a matching
                                 // subscription
  std::vector<double> first_latency;  // one per delivered expected pair

  std::uint64_t failed() const { return missing + duplicated + unexpected; }
};

// Scores per-subscriber delivery logs (in delivery order) against the
// expected sets.
Outcome Score(const Inputs& inputs,
              const std::vector<std::vector<std::size_t>>& expected,
              const std::vector<std::vector<Delivery>>& logs);

// Nearest-rank percentile of `v` (sorted in place); 0 for an empty vector.
double Percentile(std::vector<double>& v, double q);

// The benchmark's workloads by name; nullopt for an unknown name.
std::optional<WorkloadSpec> FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// The fixed-input fault probe run alongside a workload in every round, if
// the workload has one (see README.md, "Known faults").
std::optional<WorkloadSpec> ProbeFor(const std::string& workload);

}  // namespace perfbench
