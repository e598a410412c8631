#include "workload.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace perfbench {

namespace {

// splitmix64: spreads a small seed over all 64 bits.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t HashName(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h;
}

// Draws from the benchmark's own generator; written out so the inputs do
// not depend on a standard library's distribution implementation.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  std::uint64_t Next() { return rng_(); }
  std::size_t Below(std::size_t n) { return std::size_t(rng_() % n); }
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * double(rng_() >> 11) * 0x1.0p-53;
  }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[Below(i)]);
  }

 private:
  std::mt19937_64 rng_;
};

// Subjects that are never published, for the subscription churn.
constexpr std::size_t kIdleSubjects = 8;

}  // namespace

Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed,
                  std::size_t scenario) {
  const std::uint64_t base = spec.fixed_seed.value_or(seed);
  Draw draw(Mix(Mix(base ^ HashName(spec.name)) + scenario));
  Inputs in;
  in.system_seed = draw.Next() >> 1;

  for (std::size_t s = 0; s < spec.catalog; ++s) {
    in.subjects.push_back("topic." + std::to_string(s));
  }

  // Each subscriber holds a uniform sample of k distinct subjects.
  std::vector<std::size_t> pool(spec.catalog);
  in.subscriptions.resize(spec.subscribers);
  for (std::size_t i = 0; i < spec.subscribers; ++i) {
    auto& mine = in.subscriptions[i];
    for (std::size_t s = 0; s < spec.catalog; ++s) pool[s] = s;
    const std::size_t k = i < spec.wide_subscribers
                              ? spec.catalog
                              : std::min(spec.subjects_per_subscriber,
                                         spec.catalog);
    for (std::size_t j = 0; j < k; ++j) {
      std::swap(pool[j], pool[j + draw.Below(spec.catalog - j)]);
    }
    mine.assign(pool.begin(), pool.begin() + std::ptrdiff_t(k));
    std::sort(mine.begin(), mine.end());
  }

  // Every subject is published items_per_subject times, in a seeded order,
  // at a fixed rate.
  std::vector<std::size_t> order;
  for (std::size_t s = 0; s < spec.catalog; ++s) {
    order.insert(order.end(), spec.items_per_subject, s);
  }
  draw.Shuffle(order);
  for (std::size_t k = 0; k < order.size(); ++k) {
    in.schedule.push_back({double(k) / spec.items_per_sec, order[k]});
  }

  // Crashes land in the middle of publishing; restarts come back before
  // publishing ends so the restarted subscribers see live traffic again.
  const double span = spec.publish_s();
  std::vector<std::size_t> subs(spec.subscribers);
  for (std::size_t i = 0; i < subs.size(); ++i) subs[i] = i;
  draw.Shuffle(subs);
  const std::size_t crashes = std::min(spec.crashes, subs.size());
  for (std::size_t c = 0; c < crashes; ++c) {
    Crash crash;
    crash.subscriber = subs[c];
    crash.crash_at = draw.Uniform(0.2, 0.5) * span;
    if (c < spec.restarts) {
      crash.restart_at = crash.crash_at + draw.Uniform(0.15, 0.3) * span;
    }
    in.crashes.push_back(crash);
  }

  // Subscription churn on never-published subjects, by subscribers that
  // never crash: a subscribe, then the matching unsubscribe a little later.
  for (std::size_t c = 0; c < spec.idle_subscription_changes; ++c) {
    SubscriptionChange on;
    on.subscriber = subs[crashes + draw.Below(subs.size() - crashes)];
    on.subject = "idle." + std::to_string(draw.Below(kIdleSubjects));
    on.at = draw.Uniform(0.0, 0.8) * span;
    SubscriptionChange off = on;
    off.subscribe = false;
    off.at = on.at + draw.Uniform(5.0, 15.0);
    in.changes.push_back(on);
    in.changes.push_back(off);
  }
  return in;
}

std::vector<std::vector<std::size_t>> ExpectedRecipients(
    const Inputs& inputs) {
  std::vector<bool> alive_at_end(inputs.subscriptions.size(), true);
  for (const Crash& c : inputs.crashes) {
    if (c.restart_at < 0) alive_at_end[c.subscriber] = false;
  }
  std::vector<std::vector<std::size_t>> by_subject(inputs.subjects.size());
  for (std::size_t s = 0; s < inputs.subscriptions.size(); ++s) {
    if (!alive_at_end[s]) continue;
    for (std::size_t subject : inputs.subscriptions[s]) {
      by_subject[subject].push_back(s);
    }
  }
  std::vector<std::vector<std::size_t>> out;
  out.reserve(inputs.schedule.size());
  for (const Publication& p : inputs.schedule) {
    out.push_back(by_subject[p.subject]);
  }
  return out;
}

Outcome Score(const Inputs& inputs,
              const std::vector<std::vector<std::size_t>>& expected,
              const std::vector<std::vector<Delivery>>& logs) {
  Outcome out;
  const std::size_t n = inputs.subscriptions.size();
  std::vector<std::vector<std::uint32_t>> want(n);
  for (std::size_t k = 0; k < expected.size(); ++k) {
    for (std::size_t s : expected[k]) want[s].push_back(std::uint32_t(k));
    out.expected += expected[k].size();
  }

  std::vector<std::size_t> idx;
  for (std::size_t s = 0; s < n; ++s) {
    const std::vector<Delivery> empty;
    const auto& log = s < logs.size() ? logs[s] : empty;
    const auto& subs = inputs.subscriptions[s];
    for (const Delivery& d : log) {
      const std::size_t subject = inputs.schedule[d.item].subject;
      if (!std::binary_search(subs.begin(), subs.end(), subject)) {
        ++out.unexpected;
      }
    }
    // Sorted by (item, incarnation), stable: incarnations only grow, so the
    // first entry of an item is its first delivery in time.
    idx.resize(log.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (log[a].item != log[b].item) return log[a].item < log[b].item;
      return log[a].incarnation < log[b].incarnation;
    });
    std::size_t pos = 0;
    for (std::uint32_t item : want[s]) {  // ascending
      while (pos < idx.size() && log[idx[pos]].item < item) ++pos;
      if (pos == idx.size() || log[idx[pos]].item != item) {
        ++out.missing;
        continue;
      }
      ++out.delivered;
      out.first_latency.push_back(log[idx[pos]].latency);
      bool twice = false;
      for (std::size_t q = pos + 1;
           q < idx.size() && log[idx[q]].item == item; ++q) {
        twice = twice ||
                log[idx[q]].incarnation == log[idx[q - 1]].incarnation;
      }
      if (twice) ++out.duplicated;
    }
  }
  return out;
}

double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * double(v.size()));
  const std::size_t i = rank < 1 ? 0 : std::size_t(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

namespace {

std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> w;

  // The canonical run: gossip-dominated, fault-free, 1 item/s.
  WorkloadSpec steady;
  steady.name = "steady_1023";
  steady.subscribers = 1023;
  steady.items_per_sec = 1.0;
  steady.catalog = 16;
  steady.subjects_per_subscriber = 4;
  steady.items_per_subject = 4;  // 64 items over 64 s
  steady.settle_s = 30.0;
  w.push_back(steady);

  // Forwarding-dominated: a small tree under a heavy, wide item stream.
  WorkloadSpec fanout;
  fanout.name = "fanout_255";
  fanout.subscribers = 255;
  fanout.items_per_sec = 100.0;
  fanout.catalog = 64;
  fanout.subjects_per_subscriber = 8;
  fanout.items_per_subject = 50;  // 3200 items over 32 s
  fanout.settle_s = 30.0;
  fanout.scenarios = 2;
  w.push_back(fanout);

  // The canonical tree under message loss and subscription churn. Crashes
  // and restarts run in the fixed-input probe only: on some seeds the
  // program loses deliveries after crashes (README.md, "Known faults").
  WorkloadSpec churn;
  churn.name = "churn_1023";
  churn.subscribers = 1023;
  churn.items_per_sec = 2.0;
  churn.catalog = 16;
  churn.subjects_per_subscriber = 4;
  churn.items_per_subject = 4;  // 64 items over 32 s
  churn.settle_s = 60.0;
  churn.loss = 0.02;
  churn.idle_subscription_changes = 200;
  w.push_back(churn);
  return w;
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : Workloads()) names.push_back(w.name);
  return names;
}

std::optional<WorkloadSpec> ProbeFor(const std::string& workload) {
  if (workload == "fanout_255") {
    // Duplicate delivery after cache eviction: the wide subscribers receive
    // more items than their MessageCache holds, so their repair digests
    // omit ids they already delivered, and narrow peers, whose caches reach
    // further back, send those items again.
    WorkloadSpec p;
    p.name = "fanout_255.probe";
    p.subscribers = 15;
    p.items_per_sec = 100.0;
    p.catalog = 8;
    p.subjects_per_subscriber = 1;
    p.items_per_subject = 200;  // 1600 items over 16 s
    p.wide_subscribers = 5;
    p.settle_s = 40.0;
    p.fixed_seed = 1;
    return p;
  }
  if (workload == "churn_1023") {
    // Missing deliveries after crashes and restarts: 5% of the subscribers
    // crash and come back, and some items published afterwards never reach
    // whole zones of subscribers that never crashed.
    WorkloadSpec p;
    p.name = "churn_1023.probe";
    p.subscribers = 255;
    p.items_per_sec = 2.0;
    p.catalog = 16;
    p.subjects_per_subscriber = 4;
    p.items_per_subject = 4;  // 64 items over 32 s
    p.settle_s = 40.0;
    p.crashes = 13;
    p.restarts = 13;
    p.fixed_seed = 1;
    return p;
  }
  return std::nullopt;
}

}  // namespace perfbench
