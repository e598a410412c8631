// Tests of the benchmark itself, on hand-built inputs and tiny deployments.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "obs/trace.h"
#include "runner.h"
#include "workload.h"

namespace perfbench {
namespace {

WorkloadSpec Tiny() {
  WorkloadSpec w;
  w.name = "tiny";
  w.subscribers = 15;
  w.branching = 4;
  w.items_per_sec = 5.0;
  w.catalog = 4;
  w.subjects_per_subscriber = 2;
  w.items_per_subject = 3;
  w.warmup_s = 10.0;
  w.settle_s = 20.0;
  return w;
}

// Three subjects, four subscribers, one of whom crashes for good and one
// of whom crashes and comes back.
Inputs HandWorked() {
  Inputs in;
  in.subjects = {"a", "b", "c"};
  in.subscriptions = {{0}, {0, 1}, {1, 2}, {0, 2}};
  in.schedule = {{0.0, 0}, {1.0, 1}, {2.0, 2}, {3.0, 0}};
  in.crashes = {{3, 0.5, -1}, {2, 0.5, 2.5}};
  return in;
}

TEST(Expected, MatchesHandWorkedCase) {
  const auto expected = ExpectedRecipients(HandWorked());
  ASSERT_EQ(expected.size(), 4u);
  // Subscriber 3 stays down, so it expects nothing; subscriber 2 restarts
  // and is expected to get everything on its subjects.
  EXPECT_EQ(expected[0], (std::vector<std::size_t>{0, 1}));  // subject a
  EXPECT_EQ(expected[1], (std::vector<std::size_t>{1, 2}));  // subject b
  EXPECT_EQ(expected[2], (std::vector<std::size_t>{2}));     // subject c
  EXPECT_EQ(expected[3], (std::vector<std::size_t>{0, 1}));  // subject a
}

// Logs that deliver every expected pair exactly once.
std::vector<std::vector<Delivery>> Perfect(
    const Inputs& in, const std::vector<std::vector<std::size_t>>& expected) {
  std::vector<std::vector<Delivery>> logs(in.subscriptions.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    for (std::size_t s : expected[k]) {
      logs[s].push_back({std::uint32_t(k), 0, 0.1 + 0.01 * double(k)});
    }
  }
  return logs;
}

TEST(Score, PerfectLogsHaveNoFailures) {
  const Inputs in = HandWorked();
  const auto expected = ExpectedRecipients(in);
  const Outcome o = Score(in, expected, Perfect(in, expected));
  EXPECT_EQ(o.expected, 7u);
  EXPECT_EQ(o.delivered, 7u);
  EXPECT_EQ(o.failed(), 0u);
  EXPECT_EQ(o.first_latency.size(), 7u);
}

TEST(Score, PlantedMissingDeliveryFails) {
  const Inputs in = HandWorked();
  const auto expected = ExpectedRecipients(in);
  auto logs = Perfect(in, expected);
  logs[1].erase(logs[1].begin());  // subscriber 1 never gets item 0
  const Outcome o = Score(in, expected, logs);
  EXPECT_EQ(o.missing, 1u);
  EXPECT_EQ(o.failed(), 1u);
  EXPECT_EQ(o.delivered, 6u);
}

TEST(Score, PlantedDuplicateFailsOnlyWithinOneIncarnation) {
  const Inputs in = HandWorked();
  const auto expected = ExpectedRecipients(in);
  auto logs = Perfect(in, expected);
  logs[0].push_back({3, 0, 9.0});  // item 3 twice in incarnation 0
  logs[2].push_back({1, 1, 9.0});  // item 1 again after a restart: fine
  const Outcome o = Score(in, expected, logs);
  EXPECT_EQ(o.duplicated, 1u);
  EXPECT_EQ(o.failed(), 1u);
  // The first delivery's latency is kept, not the duplicate's.
  for (double l : o.first_latency) EXPECT_LT(l, 1.0);
}

TEST(Score, DeliveryWithoutSubscriptionFails) {
  const Inputs in = HandWorked();
  const auto expected = ExpectedRecipients(in);
  auto logs = Perfect(in, expected);
  logs[0].push_back({2, 0, 0.2});  // subscriber 0 holds only subject a
  EXPECT_EQ(Score(in, expected, logs).unexpected, 1u);
}

TEST(Inputs, SameSeedSameInputsAndFixedOperationCount) {
  for (const std::string& name : WorkloadNames()) {
    const WorkloadSpec spec = *FindWorkload(name);
    const Inputs a = MakeInputs(spec, 7), b = MakeInputs(spec, 7),
                 c = MakeInputs(spec, 8);
    EXPECT_EQ(a.subscriptions, b.subscriptions) << name;
    EXPECT_EQ(a.system_seed, b.system_seed) << name;
    EXPECT_NE(a.subscriptions, c.subscriptions) << name;
    std::set<std::size_t> counts;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      std::size_t n = 0;
      for (const auto& r : ExpectedRecipients(MakeInputs(spec, seed))) {
        n += r.size();
      }
      counts.insert(n);
    }
    EXPECT_EQ(counts.size(), 1u) << name;
  }
}

TEST(Attribute, FirstRecordDecidesExceptAggregation) {
  auto rec = [](nw::obs::EventCategory c, const char* type,
                const char* detail) {
    nw::obs::TraceEvent ev;
    ev.category = c;
    ev.type = type;
    std::strncpy(ev.detail, detail, sizeof ev.detail - 1);
    return ev;
  };
  using C = nw::obs::EventCategory;
  EXPECT_EQ(Attribute({}), Layer::kSimTimer);
  EXPECT_EQ(Attribute({rec(C::kDeliver, "net.deliver", "astro.gossip")}),
            Layer::kGossipRecv);
  EXPECT_EQ(Attribute({rec(C::kDeliver, "net.deliver", "mc.rfwd"),
                       rec(C::kSend, "net.send", "astro.gossip")}),
            Layer::kForward);
  EXPECT_EQ(Attribute({rec(C::kDeliver, "net.deliver", "nw.digest")}),
            Layer::kNewswireRecv);
  EXPECT_EQ(Attribute({rec(C::kGossip, "gossip.round", ""),
                       rec(C::kAggregation, "agg.eval", "")}),
            Layer::kAggregation);
  EXPECT_EQ(Attribute({rec(C::kRepair, "repair.digest", "")}),
            Layer::kRepairRound);
  EXPECT_EQ(Attribute({rec(C::kReliable, "mc.retx", "")}), Layer::kForward);
  EXPECT_EQ(Attribute({rec(C::kDrop, "net.drop.loss", "mc.rfwd")}),
            Layer::kSimTimer);
}

TEST(Round, TinyDeploymentDeliversEverythingAndPassesChecks) {
  const WorkloadSpec spec = Tiny();
  const Inputs in = MakeInputs(spec, 3);
  const RoundResult r = RunRound(spec, in, false);
  EXPECT_TRUE(r.checks_ok());
  EXPECT_EQ(r.outcome.expected, 15u * 2 * 3);
  EXPECT_EQ(r.outcome.failed(), 0u);
  EXPECT_EQ(r.items_published, spec.items());
  EXPECT_GT(r.run_bytes, 0u);
}

TEST(Round, TracedSelfTimesAddUpAndOutputsMatchUntraced) {
  const WorkloadSpec spec = Tiny();
  const Inputs in = MakeInputs(spec, 3);
  const RoundResult plain = RunRound(spec, in, false);
  const RoundResult traced = RunRound(spec, in, true);
  EXPECT_EQ(traced.digest, plain.digest);
  EXPECT_TRUE(traced.checks_ok());
  double sum = 0;
  for (std::size_t l = 0; l < std::size_t(Layer::kCount); ++l) {
    const auto it = traced.layers.find(LayerMetricName(Layer(l)));
    ASSERT_NE(it, traced.layers.end()) << LayerMetricName(Layer(l));
    sum += it->second.first;
  }
  EXPECT_NEAR(sum, traced.stepped_s, 1e-9);
  EXPECT_GT(traced.stepped_s, 0);
  EXPECT_LE(traced.stepped_s, traced.run_s);
  EXPECT_GT(traced.layers.at("sim.events").first, 0);
}

TEST(Probe, CacheEvictionDuplicatesAreCountedAsFailures) {
  const WorkloadSpec probe = *ProbeFor("fanout_255");
  const Inputs in = MakeInputs(probe, 1);
  EXPECT_EQ(in.subscriptions, MakeInputs(probe, 99).subscriptions);
  const RoundResult r = RunRound(probe, in, false);
  EXPECT_GT(r.outcome.duplicated, 0u);
  EXPECT_EQ(r.outcome.failed(), r.outcome.duplicated);
  EXPECT_TRUE(r.checks_ok());
}

}  // namespace
}  // namespace perfbench
