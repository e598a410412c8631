#include "runner.h"

#include <chrono>
#include <cstring>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "newswire/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault_plan.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void Add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  }
  template <typename T>
  void Add(const T& v) {
    Add(&v, sizeof v);
  }
};

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// Counters of the layers, read before and after the run phase.
struct Counters {
  std::uint64_t rows_merged = 0, rows_expired = 0, agg_evals = 0,
                agg_hits = 0, rep_changes = 0;
  std::uint64_t messages = 0, bytes = 0, astro_bytes = 0, mc_bytes = 0,
                nw_bytes = 0, publisher_bytes = 0;
};

// A built system plus the benchmark's own bookkeeping around it.
class Harness {
 public:
  Harness(const WorkloadSpec& spec, const Inputs& inputs,
          nw::obs::MetricsRegistry* metrics, nw::obs::EventTracer* tracer)
      : spec_(spec), in_(inputs), metrics_(metrics) {
    nw::newswire::SystemConfig cfg;
    cfg.num_subscribers = spec.subscribers;
    cfg.num_publishers = 1;
    cfg.branching = spec.branching;
    cfg.subjects_per_subscriber = 0;  // the benchmark subscribes itself
    cfg.net.loss_prob = spec.loss;
    cfg.seed = inputs.system_seed;
    cfg.sim_threads = 1;
    cfg.metrics = metrics;
    cfg.tracer = tracer;
    sys_ = std::make_unique<nw::newswire::NewswireSystem>(cfg);

    logs_.resize(spec.subscribers);
    for (std::size_t s = 0; s < spec.subscribers; ++s) {
      nodes_.push_back(sys_->subscriber_agent(s).id());
      for (std::size_t subject : inputs.subscriptions[s]) {
        sys_->subscriber(s).Subscribe(inputs.subjects[subject]);
      }
      sys_->subscriber(s).AddNewsHandler(
          [this, s](const nw::newswire::NewsItem& item, double latency) {
            OnDelivery(s, item, latency);
          });
    }
    sys_->RunFor(spec.warmup_s);
  }

  nw::newswire::NewswireSystem& sys() { return *sys_; }

  // Schedules publications, crashes/restarts and subscription churn
  // relative to now; returns the absolute end time of the run phase.
  double ScheduleRun() {
    auto& sim = sys_->deployment().sim();
    const double t0 = sys_->Now();
    ids_.reserve(in_.schedule.size());
    for (std::size_t k = 0; k < in_.schedule.size(); ++k) {
      sim.At(t0 + in_.schedule[k].at, [this, k] { Publish(k); });
    }
    nw::sim::FaultPlan plan;
    for (const Crash& c : in_.crashes) {
      plan.Crash(c.crash_at, nodes_[c.subscriber]);
      if (c.restart_at >= 0) plan.Restart(c.restart_at, nodes_[c.subscriber]);
    }
    plan.ApplyTo(sys_->deployment().net(), t0);
    for (const SubscriptionChange& ch : in_.changes) {
      sim.At(t0 + ch.at, [this, &ch] {
        auto& sub = sys_->subscriber(ch.subscriber);
        if (ch.subscribe) {
          sub.Subscribe(ch.subject);
        } else {
          sub.Unsubscribe(ch.subject);
        }
      });
    }
    const double end = t0 + spec_.publish_s() + spec_.settle_s;
    // The stop marker is scheduled in untraced rounds too, so both kinds
    // of round schedule the same global events.
    sim.At(end, [this] { stop_ = true; });
    return end;
  }

  bool stopped() const { return stop_; }

  Counters Read() {
    Counters c;
    auto& dep = sys_->deployment();
    for (std::size_t i = 0; i < dep.size(); ++i) {
      const auto& gs = dep.agent(i).gossip_stats();
      const auto& as = dep.agent(i).agg_stats();
      c.rows_merged += gs.rows_merged;
      c.rows_expired += gs.rows_expired;
      c.agg_evals += as.levels_evaluated;
      c.agg_hits += as.cache_hits;
    }
    if (metrics_ != nullptr) {
      c.rep_changes = metrics_->CounterTotal(
          metrics_->Counter("astro.agent.representative_changes"));
    }
    const auto total = dep.net().TotalStats();
    c.messages = total.messages_sent;
    c.bytes = total.bytes_sent;
    c.astro_bytes = dep.net().StatsForTypePrefix("astro.").bytes;
    c.mc_bytes = dep.net().StatsForTypePrefix("mc.").bytes;
    c.nw_bytes = dep.net().StatsForTypePrefix("nw.").bytes;
    c.publisher_bytes = sys_->PublisherTraffic(0).bytes_sent;
    return c;
  }

  // Scores the deliveries and runs the property checks.
  void Finish(RoundResult& r) {
    r.outcome = Score(in_, ExpectedRecipients(in_), logs_);
    r.outcome.unexpected += unknown_items_;
    r.items_published = ids_.size();
    r.publish_call_s = publish_call_s_;

    const auto& net = sys_->deployment().net();
    const double floor =
        net.config().base_latency * (1.0 - net.config().jitter_frac);
    bool latency_ok = true;
    for (double l : r.outcome.first_latency) {
      latency_ok = latency_ok && l >= floor;
    }
    if (!latency_ok) {
      r.check_failures.push_back("a first-delivery latency is below "
                                 "base_latency*(1-jitter_frac)");
    }

    std::uint64_t type_sum = 0;
    Fnv fnv;
    for (const auto& [type, ts] : net.StatsByType()) {
      type_sum += ts.bytes;
      fnv.Add(type.data(), type.size());
      fnv.Add(ts.bytes);
      fnv.Add(ts.messages);
    }
    const auto total = net.TotalStats();
    if (type_sum != total.bytes_sent) {
      r.check_failures.push_back("per-type bytes do not sum to bytes_sent");
    }
    fnv.Add(total.bytes_sent);
    fnv.Add(total.messages_sent);
    for (std::size_t s = 0; s < logs_.size(); ++s) {
      for (const Delivery& d : logs_[s]) {
        fnv.Add(s);
        fnv.Add(d.item);
        fnv.Add(d.incarnation);
        fnv.Add(d.latency);
      }
    }
    r.digest = fnv.h;

    if (spec_.loss == 0 && spec_.crashes == 0) {
      const auto& dep = sys_->deployment();
      bool members_ok = true;
      for (std::size_t i = 0; i < dep.size(); ++i) {
        std::int64_t members = 0;
        for (const auto& [key, entry] : dep.agent(i).TableAt(0)) {
          auto it = entry.attrs.find(nw::astrolabe::kAttrMembers);
          if (it != entry.attrs.end() &&
              it->second.type() == nw::astrolabe::AttrValue::Type::kInt) {
            members += it->second.AsInt();
          }
        }
        members_ok = members_ok && members == std::int64_t(dep.size());
      }
      if (!members_ok) {
        r.check_failures.push_back(
            "an agent's root-level nmembers sum differs from the node count");
      }
    }
  }

 private:
  void Publish(std::size_t k) {
    const std::string& subject = in_.subjects[in_.schedule[k].subject];
    const auto t0 = Clock::now();
    const std::string id = sys_->PublishArticle(0, subject);
    publish_call_s_.push_back(Since(t0));
    // A refused publication gets no id; its deliveries then count as
    // missing.
    if (!id.empty()) ids_.emplace(id, std::uint32_t(k));
  }

  void OnDelivery(std::size_t s, const nw::newswire::NewsItem& item,
                  double latency) {
    auto it = ids_.find(item.Id());
    if (it == ids_.end()) {
      ++unknown_items_;
      return;
    }
    logs_[s].push_back(
        {it->second, sys_->deployment().net().Incarnation(nodes_[s]), latency});
  }

  const WorkloadSpec& spec_;
  const Inputs& in_;
  nw::obs::MetricsRegistry* metrics_;
  std::unique_ptr<nw::newswire::NewswireSystem> sys_;
  std::vector<nw::sim::NodeId> nodes_;
  std::vector<std::vector<Delivery>> logs_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<double> publish_call_s_;
  std::uint64_t unknown_items_ = 0;
  bool stop_ = false;
};

bool TypeIs(const nw::obs::TraceEvent& ev, const char* type) {
  return std::strcmp(ev.type, type) == 0;
}

Layer ByMessageType(std::string_view type, Layer astro, Layer mc, Layer nw) {
  if (StartsWith(type, "astro.")) return astro;
  if (StartsWith(type, "mc.")) return mc;
  if (StartsWith(type, "nw.")) return nw;
  return Layer::kSimTimer;
}

}  // namespace

const char* LayerMetricName(Layer layer) {
  switch (layer) {
    case Layer::kSimTimer: return "sim.timer_s";
    case Layer::kGossipRecv: return "astrolabe.gossip_recv_s";
    case Layer::kGossipRound: return "astrolabe.gossip_round_s";
    case Layer::kAggregation: return "astrolabe.aggregation_s";
    case Layer::kForward: return "multicast.forward_s";
    case Layer::kNewswireRecv: return "newswire.recv_s";
    case Layer::kRepairRound: return "newswire.repair_round_s";
    case Layer::kPublish: return "newswire.publish_s";
    case Layer::kCount: break;
  }
  return "?";
}

Layer Attribute(const std::vector<nw::obs::TraceEvent>& records) {
  using nw::obs::EventCategory;
  if (records.empty()) return Layer::kSimTimer;
  for (const auto& ev : records) {
    if (TypeIs(ev, "agg.eval")) return Layer::kAggregation;
  }
  const auto& first = records.front();
  const std::string_view detail(first.detail);
  switch (first.category) {
    case EventCategory::kDeliver:
      return ByMessageType(detail, Layer::kGossipRecv, Layer::kForward,
                           Layer::kNewswireRecv);
    case EventCategory::kSend:
      return ByMessageType(detail, Layer::kGossipRound, Layer::kForward,
                           Layer::kRepairRound);
    case EventCategory::kGossip:
    case EventCategory::kMerge:
    case EventCategory::kCert:
    case EventCategory::kElection:
    case EventCategory::kAggregation:
      return Layer::kGossipRound;
    case EventCategory::kReliable:
      return Layer::kForward;
    case EventCategory::kRepair:
      return Layer::kRepairRound;
    case EventCategory::kPublish:
      return Layer::kPublish;
    default:
      return Layer::kSimTimer;
  }
}

RoundResult RunRound(const WorkloadSpec& spec, const Inputs& inputs,
                     bool traced) {
  RoundResult r;
  // Large enough that no single step wraps the ring, so the first record
  // of every step survives until it is read.
  constexpr std::size_t kTraceCapacity = 1 << 15;
  std::unique_ptr<nw::obs::MetricsRegistry> metrics;
  std::unique_ptr<nw::obs::EventTracer> tracer;
  if (traced) {
    metrics = std::make_unique<nw::obs::MetricsRegistry>();
    tracer = std::make_unique<nw::obs::EventTracer>(kTraceCapacity);
  }

  const auto setup0 = Clock::now();
  Harness h(spec, inputs, metrics.get(), tracer.get());
  r.setup_s = Since(setup0);

  const Counters before = h.Read();
  const double end = h.ScheduleRun();
  auto& sim = h.sys().deployment().sim();
  if (!traced) {
    const auto run0 = Clock::now();
    sim.RunUntil(end);
    r.run_s = Since(run0);
  } else {
    double self[std::size_t(Layer::kCount)] = {};
    std::uint64_t steps[std::size_t(Layer::kCount)] = {};
    std::uint64_t wrapped = 0;
    const auto run0 = Clock::now();
    while (!h.stopped()) {
      tracer->Clear();
      const auto t0 = Clock::now();
      if (!sim.Step()) break;
      const double dt = Since(t0);
      Layer layer = Layer::kSimTimer;
      if (tracer->total_recorded() > 0) {
        if (tracer->overwritten() > 0) ++wrapped;
        layer = Attribute(tracer->Events());
      }
      self[std::size_t(layer)] += dt;
      ++steps[std::size_t(layer)];
    }
    r.run_s = Since(run0);
    if (wrapped > 0) {
      r.check_failures.push_back("a step wrapped the trace ring");
    }
    const Counters after = h.Read();

    auto put = [&r](const std::string& name, double v, const char* unit) {
      r.layers[name] = {v, unit};
    };
    std::uint64_t all_steps = 0;
    for (std::size_t l = 0; l < std::size_t(Layer::kCount); ++l) {
      put(LayerMetricName(Layer(l)), self[l], "s");
      r.stepped_s += self[l];
      all_steps += steps[l];
    }
    auto steps_of = [&steps](std::initializer_list<Layer> ls) {
      std::uint64_t n = 0;
      for (Layer l : ls) n += steps[std::size_t(l)];
      return double(n);
    };
    put("sim.events", double(all_steps), "count");
    put("sim.messages", double(after.messages - before.messages), "count");
    put("astrolabe.events",
        steps_of({Layer::kGossipRecv, Layer::kGossipRound,
                  Layer::kAggregation}),
        "count");
    put("astrolabe.bytes", double(after.astro_bytes - before.astro_bytes),
        "B");
    put("astrolabe.rows_merged",
        double(after.rows_merged - before.rows_merged), "count");
    put("astrolabe.rows_expired",
        double(after.rows_expired - before.rows_expired), "count");
    put("astrolabe.representative_changes",
        double(after.rep_changes - before.rep_changes), "count");
    const double evals = double(after.agg_evals - before.agg_evals);
    const double hits = double(after.agg_hits - before.agg_hits);
    put("astrolabe.agg_evals", evals, "count");
    put("astrolabe.agg_memo_hit_ratio",
        evals + hits > 0 ? hits / (evals + hits) : 0.0, "ratio");

    const nw::multicast::MulticastStats mc = h.sys().MulticastTotals();
    put("multicast.events", steps_of({Layer::kForward}), "count");
    put("multicast.bytes", double(after.mc_bytes - before.mc_bytes), "B");
    put("multicast.forwards", double(mc.forwards), "count");
    put("multicast.delivered_per_forward",
        mc.forwards > 0 ? double(mc.delivered) / double(mc.forwards) : 0.0,
        "ratio");
    put("multicast.retransmits", double(mc.retransmits), "count");
    put("multicast.failovers", double(mc.failovers), "count");
    put("multicast.abandoned", double(mc.abandoned), "count");

    std::uint64_t fp = 0, relays = 0;
    for (std::size_t i = 0; i < h.sys().node_count(); ++i) {
      fp += h.sys().pubsub_at(i).stats().false_positives;
      relays += h.sys().pubsub_at(i).stats().relay_discards;
    }
    put("pubsub.false_positives", double(fp), "count");
    put("pubsub.relay_discards", double(relays), "count");

    std::uint64_t repaired = 0, evicted = 0;
    for (std::size_t s = 0; s < h.sys().subscriber_count(); ++s) {
      repaired += h.sys().subscriber(s).stats().repaired;
      evicted += h.sys().subscriber(s).cache().stats().evicted;
    }
    put("newswire.bytes", double(after.nw_bytes - before.nw_bytes), "B");
    put("newswire.repaired", double(repaired), "count");
    put("newswire.cache_evicted", double(evicted), "count");
  }

  const Counters after = h.Read();
  r.run_bytes = after.bytes - before.bytes;
  r.publisher_bytes = after.publisher_bytes - before.publisher_bytes;
  h.Finish(r);
  if (traced) {
    std::vector<double> calls = r.publish_call_s;
    r.layers["newswire.publish_call_us"] = {Percentile(calls, 50) * 1e6,
                                            "us"};
  }
  return r;
}

double SetupOnly(const WorkloadSpec& spec, const Inputs& inputs) {
  const auto t0 = Clock::now();
  Harness h(spec, inputs, nullptr, nullptr);
  return Since(t0);
}

}  // namespace perfbench
