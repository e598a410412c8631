// newswire_perfbench — one run of one workload of the NewsWire end-to-end
// benchmark. Usually started through run.py, which builds it first:
//
//   newswire_perfbench --workload steady_1023 --seed 1 --seconds 20 --trace 0
//
// --trace 0 runs whole rounds (build, warm-up, publish, settle), one per
// scenario of the workload and then more while the time budget lasts, and
// reports the end-to-end metrics; --trace 1 runs a traced round between
// two untraced ones and reports the per-layer metrics. A human-readable summary
// goes to stderr; the last line of stdout is one JSON object
// {correct, attempted, failed, metrics}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "runner.h"
#include "workload.h"

namespace {

using perfbench::RoundResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || a.seconds <= 0) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  double value;
  std::string unit;
};

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

void Report(const char* what, const RoundResult& r) {
  const auto& o = r.outcome;
  std::fprintf(stderr,
               "%s: setup %.3fs run %.3fs; %llu expected, %llu delivered, "
               "%llu missing, %llu duplicated, %llu unexpected\n",
               what, r.setup_s, r.run_s, (unsigned long long)o.expected,
               (unsigned long long)o.delivered, (unsigned long long)o.missing,
               (unsigned long long)o.duplicated,
               (unsigned long long)o.unexpected);
  for (const auto& f : r.check_failures) {
    std::fprintf(stderr, "  check failed: %s\n", f.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: newswire_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const auto spec = perfbench::FindWorkload(args.workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload \"%s\"; known:",
                 args.workload.c_str());
    for (const auto& n : perfbench::WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::vector<perfbench::Inputs> scenarios;
  for (std::size_t i = 0; i < spec->scenarios; ++i) {
    scenarios.push_back(perfbench::MakeInputs(*spec, args.seed, i));
  }
  const auto probe = perfbench::ProbeFor(spec->name);
  const perfbench::Inputs probe_inputs =
      probe ? perfbench::MakeInputs(*probe, args.seed) : perfbench::Inputs{};

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  // Every round is one scenario of the workload plus its fixed-input fault
  // probe, if it has one, so failed/attempted is the same in every run.
  auto count = [&](const RoundResult& r, const char* what) {
    Report(what, r);
    attempted += r.outcome.expected;
    failed += r.outcome.failed();
    correct = correct && r.checks_ok();
  };
  auto round = [&](const perfbench::Inputs& in, bool traced) {
    RoundResult r = perfbench::RunRound(*spec, in, traced);
    count(r, traced ? "traced" : spec->name.c_str());
    if (probe) count(perfbench::RunRound(*probe, probe_inputs, false), "probe");
    return r;
  };

  std::map<std::string, Metric> metrics;
  if (args.trace == 0) {
    // Every scenario once, then more rounds while the time budget lasts;
    // a repeated scenario must reproduce its first round exactly.
    const auto start = std::chrono::steady_clock::now();
    std::vector<RoundResult> rounds;
    for (;;) {
      const std::size_t i = rounds.size() % scenarios.size();
      rounds.push_back(round(scenarios[i], false));
      if (rounds.back().digest != rounds[i].digest) {
        correct = false;
        std::fprintf(stderr, "a repeated round differs from the first\n");
      }
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      const double n = double(rounds.size());
      if (rounds.size() >= scenarios.size() &&
          elapsed * (n + 1) / n > args.seconds) {
        break;
      }
    }
    // Wall-clock figures: medians over every round; set-up is measured at
    // least three times.
    std::vector<double> setups, runs;
    for (const auto& r : rounds) {
      setups.push_back(r.setup_s);
      runs.push_back(r.run_s);
    }
    while (setups.size() < 3) {
      setups.push_back(perfbench::SetupOnly(*spec, scenarios[0]));
    }
    // Simulated figures: pooled over the scenarios.
    std::vector<double> lat;
    double delivered = 0, items = 0, run_bytes = 0, publisher_bytes = 0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const RoundResult& r = rounds[i];
      lat.insert(lat.end(), r.outcome.first_latency.begin(),
                 r.outcome.first_latency.end());
      delivered += double(r.outcome.delivered);
      items += double(r.items_published);
      run_bytes += double(r.run_bytes);
      publisher_bytes += double(r.publisher_bytes);
    }
    metrics["setup_s"] = {Median(setups), "s"};
    metrics["run_s"] = {Median(runs), "s"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    metrics["wire_bytes_per_delivery"] = {run_bytes / std::max(1.0, delivered),
                                          "B"};
    metrics["publisher_bytes_per_item"] = {
        publisher_bytes / std::max(1.0, items), "B"};
    metrics["delivery_p50_ms"] = {perfbench::Percentile(lat, 50) * 1e3, "ms"};
    metrics["delivery_p99_ms"] = {perfbench::Percentile(lat, 99) * 1e3, "ms"};
  } else {
    // Untraced rounds on both sides of the traced one, so that a drift in
    // machine speed during the run cancels out of the overhead.
    const RoundResult before = round(scenarios[0], false);
    const RoundResult traced = round(scenarios[0], true);
    const RoundResult after = round(scenarios[0], false);
    // Tracing must not change a deterministic run.
    if (traced.digest != before.digest || after.digest != before.digest) {
      correct = false;
      std::fprintf(stderr, "traced run differs from the untraced run\n");
    }
    for (const auto& [name, v] : traced.layers) {
      metrics[name] = {v.first, v.second};
    }
    metrics["trace.overhead_s"] = {
        traced.run_s - 0.5 * (before.run_s + after.run_s), "s"};
  }

  for (const auto& [name, m] : metrics) {
    std::fprintf(stderr, "  %-36s %14.6f %s\n", name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fflush(stderr);
  PrintJson(correct, attempted, failed, metrics);
  return 0;
}
