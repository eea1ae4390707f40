// campaignbench: the repository's campaign benchmark.
//
//   campaignbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// Runs one workload (workloads.cpp) as closed-loop campaigns — one
// campaign at a time, each on a fresh in-memory AnalysisStore with a fixed
// worker count — for `--seconds`, checks every campaign's output, and
// prints the metrics of README.md by name with their units. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. `--trace 0` reports the end-to-end metrics; `--trace 1` the
// per-layer ones, from a separate traced run. Exits 1 when any check
// fails, 2 on a usage error or a non-Release build.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "engine/report.hpp"
#include "engine/shard.hpp"
#include "engine/spec_io.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "store/analysis_store.hpp"
#include "support/json_doc.hpp"
#include "support/stats.hpp"
#include "workloads/malardalen.hpp"

namespace campaignbench {
namespace {

using namespace pwcet;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxWorkers = 4;
/// Set-ups come in bursts of at least kSetupRepetitions: one of
/// kFirstSetupSeconds before the campaigns and one of kSetupSeconds after
/// each measured campaign, so the median setup_s samples the host over the
/// whole run.
constexpr std::size_t kSetupRepetitions = 9;
constexpr double kFirstSetupSeconds = 0.25;
constexpr double kSetupSeconds = 0.05;
/// Measured campaigns per run, whatever `--seconds` says.
constexpr std::size_t kMinCampaigns = 3;
constexpr std::size_t kMaxCampaigns = 1000;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  std::uint64_t seconds = 10;
  bool trace = false;
};

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
    return false;
  out = value;
  return true;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && parse_u64(value, number)) {
      args.seed = number;
    } else if (flag == "--seconds" && parse_u64(value, number) &&
               number >= 1 && number <= 3600) {
      args.seconds = number;
    } else if (flag == "--trace" && parse_u64(value, number) && number <= 1) {
      args.trace = number == 1;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty()) return std::nullopt;
  const std::vector<std::string> names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end())
    return std::nullopt;
  return args;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Tally of attempted and failed jobs across every campaign of a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool printed_problems = false;
};

struct SetupSample {
  double parse_s = 0, expand_s = 0, build_s = 0;
  double total() const { return parse_s + expand_s + build_s; }
};

/// One set-up as a user of the engine pays it: parse the spec text,
/// expand the grid, build every task's program.
SetupSample set_up(const std::string& spec_text, CampaignSpec& spec) {
  SetupSample sample;
  auto start = Clock::now();
  SpecDocument doc = parse_spec(spec_text, "<campaignbench>");
  sample.parse_s = seconds_since(start);
  start = Clock::now();
  const std::vector<CampaignJob> jobs = expand_campaign(doc.spec);
  sample.expand_s = seconds_since(start);
  start = Clock::now();
  std::vector<Program> programs;
  programs.reserve(doc.spec.tasks.size());
  for (const std::string& task : doc.spec.tasks)
    programs.push_back(workloads::build(task));
  sample.build_s = seconds_since(start);
  if (jobs.size() != doc.spec.job_count())
    throw std::logic_error("expand_campaign lost jobs");
  spec = std::move(doc.spec);
  return sample;
}

struct CampaignSample {
  double wall_s = 0;
  double cpu_s = 0;
  std::optional<CampaignResult> result;  ///< empty when the campaign threw
};

/// One campaign on a fresh in-memory store; its output is checked and the
/// jobs are tallied.
CampaignSample run_checked(const std::string& workload, std::uint64_t seed,
                           const CampaignSpec& spec, std::size_t workers,
                           Tally& tally) {
  AnalysisStore store(StoreOptions{});
  RunnerOptions options;
  options.threads = workers;
  options.shared_store = &store;

  CampaignSample sample;
  const double cpu_before = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  std::string error;
  try {
    sample.result = run_campaign(spec, options);
  } catch (const std::exception& e) {
    error = e.what();
  }
  sample.wall_s = seconds_since(start);
  sample.cpu_s = process_cpu_seconds() - cpu_before;

  const std::size_t jobs = spec.job_count();
  tally.attempted += jobs;
  std::vector<std::string> problems;
  if (!sample.result) {
    tally.failed += jobs;
    problems.push_back("campaign threw: " + error);
  } else {
    CheckOutcome outcome = check_campaign(workload, seed, *sample.result);
    tally.failed += outcome.failed_jobs;
    problems = std::move(outcome.problems);
  }
  if (!problems.empty() && !tally.printed_problems) {
    for (const std::string& problem : problems)
      std::fprintf(stderr, "campaignbench: check failed: %s\n",
                   problem.c_str());
    tally.printed_problems = true;
  }
  return sample;
}

/// Closed loop: campaigns back to back until `budget_s` has passed (and at
/// least kMinCampaigns ran), calling `after_each` between them. Stops early
/// once a campaign throws.
std::vector<CampaignSample> run_loop(
    const std::string& workload, std::uint64_t seed, const CampaignSpec& spec,
    std::size_t workers, double budget_s, Tally& tally,
    const std::function<void()>& after_each = [] {}) {
  std::vector<CampaignSample> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < kMaxCampaigns &&
         (samples.size() < kMinCampaigns || seconds_since(start) < budget_s)) {
    // Only the last result is kept, so held reports do not grow the
    // peak RSS with the run length.
    if (!samples.empty()) samples.back().result.reset();
    samples.push_back(run_checked(workload, seed, spec, workers, tally));
    if (!samples.back().result) break;
    after_each();
  }
  return samples;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Busy time of the campaign's pool threads: per thread, the union of its
/// engine.group and pool.task spans (a worker helping inside a group runs
/// nested pool tasks), summed over threads.
double pool_busy_seconds(const std::string& trace_json) {
  const Json root = parse_json(trace_json, "<trace>");
  const Json* events = root.find("traceEvents");
  if (events == nullptr) throw std::runtime_error("trace has no events");
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> spans;
  for (const Json& event : events->array) {
    const Json* name = event.find("name");
    const Json* ts = event.find("ts");
    const Json* dur = event.find("dur");
    const Json* tid = event.find("tid");
    if (name == nullptr || ts == nullptr || dur == nullptr || tid == nullptr)
      continue;
    if (name->string != "engine.group" && name->string != "pool.task")
      continue;
    spans[tid->integer].push_back({ts->number, ts->number + dur->number});
  }
  double busy_us = 0;
  for (auto& [thread, intervals] : spans) {
    std::sort(intervals.begin(), intervals.end());
    double open = intervals.front().first, close = intervals.front().second;
    for (const auto& [begin, end] : intervals) {
      if (begin > close) {
        busy_us += close - open;
        open = begin;
      }
      close = std::max(close, end);
    }
    busy_us += close - open;
  }
  return busy_us / 1e6;
}

/// Prints a sample set's size and spread, for reading a run by eye.
void describe_samples(const char* name, std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto at = [&](double q) {
    return values[static_cast<std::size_t>(q * (values.size() - 1) + 0.5)];
  };
  std::printf("samples %-12s n=%zu min=%.6g q1=%.6g median=%.6g q3=%.6g "
              "max=%.6g\n",
              name, values.size(), values.front(), at(0.25), at(0.5),
              at(0.75), values.back());
}

std::vector<Metric> end_to_end_metrics(
    const std::vector<SetupSample>& setups,
    const std::vector<CampaignSample>& campaigns, std::size_t jobs) {
  std::vector<double> walls, cpus, totals;
  for (const CampaignSample& c : campaigns) {
    walls.push_back(c.wall_s);
    cpus.push_back(c.cpu_s);
  }
  for (const SetupSample& s : setups) totals.push_back(s.total());
  describe_samples("wall_s", walls);
  describe_samples("cpu_s", cpus);
  describe_samples("setup_s", totals);
  const double wall = median(walls);
  return {
      {"wall_s", wall, "s"},
      {"jobs_per_s", static_cast<double>(jobs) / wall, "1/s"},
      {"cpu_s", median(cpus), "s"},
      {"setup_s", median(totals), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(
    const std::string& workload, std::uint64_t seed, const CampaignSpec& spec,
    std::size_t workers, double budget_s,
    const std::vector<SetupSample>& setups, Tally& tally) {
  std::vector<double> parse, expand, build;
  for (const SetupSample& s : setups) {
    parse.push_back(s.parse_s);
    expand.push_back(s.expand_s);
    build.push_back(s.build_s);
  }

  // Untraced and traced campaigns at the measured worker count, after one
  // unmeasured warm-up: their wall-time ratio is the cost of tracing; the
  // traced ones give the engine's queue wait and the pool's busy time.
  run_checked(workload, seed, spec, workers, tally);
  const std::vector<CampaignSample> untraced =
      run_loop(workload, seed, spec, workers, budget_s / 3, tally);
  std::vector<double> untraced_walls;
  for (const CampaignSample& c : untraced) untraced_walls.push_back(c.wall_s);
  obs::Tracer& tracer = obs::Tracer::instance();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  std::vector<double> traced_walls, queue_waits, pool_busy;
  const Clock::time_point traced_start = Clock::now();
  while (traced_walls.size() < kMinCampaigns ||
         seconds_since(traced_start) < budget_s / 3) {
    tracer.clear();
    registry.clear();
    tracer.enable();
    registry.enable();
    const CampaignSample sample =
        run_checked(workload, seed, spec, workers, tally);
    tracer.disable();
    registry.disable();
    if (!sample.result) break;
    traced_walls.push_back(sample.wall_s);
    queue_waits.push_back(
        static_cast<double>(
            registry.histogram("engine.queue_wait").snapshot().sum_ns) /
        1e9);
    pool_busy.push_back(pool_busy_seconds(tracer.trace_json()));
  }
  tracer.clear();
  registry.clear();
  if (untraced.empty() || !untraced.back().result || traced_walls.empty())
    return {};
  const CampaignResult& reference = *untraced.back().result;

  std::vector<double> report_times;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    const std::string csv = report_csv(reference);
    report_times.push_back(seconds_since(start));
    if (csv.empty()) throw std::logic_error("empty report");
  }

  const LayerWalk walk = walk_layers(reference);
  tally.attempted += reference.results.size();
  tally.failed += walk.mismatched_jobs;
  if (walk.mismatched_jobs != 0)
    std::fprintf(stderr,
                 "campaignbench: check failed: %zu jobs of the layer walk "
                 "differ from the campaign\n",
                 walk.mismatched_jobs);

  const double maximize = walk.tree_maximize_s + walk.ilp_maximize_s;
  const double core_self = walk.core_s - walk.extract_s - walk.classify_s -
                           maximize - walk.fmm_s;
  const double fold = walk.analyze_s - walk.penalty_s;
  const double cpu = walk.walk_cpu_s;
  const std::vector<std::pair<std::string, double>> shares = {
      {"share.workloads", walk.build_s},
      {"share.cache", walk.extract_s},
      {"share.icache", walk.classify_s},
      {"share.wcet", walk.tree_maximize_s + walk.fmm_s},
      {"share.ilp", walk.ilp_maximize_s},
      {"share.prob", walk.penalty_s},
      {"share.analysis_core", core_self},
      {"share.analysis_fold", fold},
      {"share.fault", walk.sample_s},
      {"share.sim", walk.trace_s + walk.simulate_s},
      {"share.mbpta", walk.fit_s},
  };
  const std::uint64_t lookups = walk.store.hits + walk.store.misses;
  std::vector<Metric> metrics = {
      {"engine.spec_load_s", median(parse), "s"},
      {"engine.expand_s", median(expand), "s"},
      {"engine.report_s", median(report_times), "s"},
      {"engine.groups",
       static_cast<double>(
           campaign_group_schedule(expand_campaign(spec)).size()),
       "count"},
      {"engine.queue_wait_s", median(queue_waits), "s"},
      {"engine.pool_busy_s", median(pool_busy), "s"},
      {"workloads.build_s", median(build), "s"},
      {"cache.extract_s", walk.extract_s, "s"},
      {"icache.classify_s", walk.classify_s, "s"},
      {"wcet.maximize_s", walk.tree_maximize_s, "s"},
      {"wcet.fmm_s", walk.fmm_s, "s"},
      {"wcet.fmm_rows", static_cast<double>(walk.fmm_rows), "count"},
      {"wcet.fmm_distinct_rows", static_cast<double>(walk.fmm_distinct_rows),
       "count"},
      {"ilp.maximize_s", walk.ilp_maximize_s, "s"},
      {"prob.penalty_s", walk.penalty_s, "s"},
      {"prob.convolve_s", walk.convolve_s, "s"},
      {"prob.support_points", static_cast<double>(walk.support_points),
       "count"},
      {"analysis.core_s", walk.core_s, "s"},
      {"analysis.analyze_s", walk.analyze_s, "s"},
      {"analysis.fold_s", fold, "s"},
      {"fault.sample_s", walk.sample_s, "s"},
      {"fault.maps", static_cast<double>(walk.fault_maps), "count"},
      {"sim.trace_s", walk.trace_s, "s"},
      {"sim.simulate_s", walk.simulate_s, "s"},
      {"sim.fetches", static_cast<double>(walk.fetches), "count"},
      {"sim.fetches_per_s",
       walk.simulate_s > 0 ? static_cast<double>(walk.fetches) /
                                 walk.simulate_s
                           : 0.0,
       "1/s"},
      {"mbpta.fit_s", walk.fit_s, "s"},
      {"store.memo_hits", static_cast<double>(walk.store.hits), "count"},
      {"store.memo_misses", static_cast<double>(walk.store.misses), "count"},
      {"store.memo_evictions", static_cast<double>(walk.store.evictions),
       "count"},
      {"store.memo_hit_ratio",
       lookups > 0 ? static_cast<double>(walk.store.hits) /
                         static_cast<double>(lookups)
                   : 0.0,
       "ratio"},
      {"obs.trace_overhead_ratio",
       median(traced_walls) / median(untraced_walls), "ratio"},
      {"layers.walk_cpu_s", cpu, "s"},
  };
  double named = 0;
  for (const auto& [name, seconds] : shares) {
    metrics.push_back({name, seconds / cpu, "ratio"});
    named += seconds;
  }
  metrics.push_back({"share.named_layers", named / cpu, "ratio"});
  return metrics;
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-28s %22.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const bool correct = tally.failed == 0 && !metrics.empty();
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted);
  line += ", \"failed\": " + std::to_string(tally.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  const std::string_view build_type = CAMPAIGNBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool release = build_type == "Release";
#else
  const bool release = false;
#endif
  if (!release) {
    std::fprintf(stderr,
                 "campaignbench: refusing to report numbers from a '%s' "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 std::string(build_type).c_str());
    return 2;
  }

  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers = std::min(kMaxWorkers, nproc);
  std::printf(
      "environment: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
      "%llu, \"trace\": %d, \"nproc\": %zu, \"workers\": %zu, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(args.seconds), args.trace ? 1 : 0,
      nproc, workers, CAMPAIGNBENCH_BUILD_TYPE, CAMPAIGNBENCH_COMPILER);

  const std::string spec_text =
      spec_to_json(make_spec(args.workload, args.seed), args.workload);
  CampaignSpec spec;
  std::vector<SetupSample> setups;
  const auto setup_burst = [&](double seconds) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0;
         i < kSetupRepetitions || seconds_since(start) < seconds; ++i)
      setups.push_back(set_up(spec_text, spec));
  };
  setup_burst(kFirstSetupSeconds);

  Tally tally;
  const double budget = static_cast<double>(args.seconds);
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = per_layer_metrics(args.workload, args.seed, spec, workers,
                                budget, setups, tally);
  } else {
    // One unmeasured campaign first: allocator and page cache warm up,
    // the way they are in a long-lived process.
    run_checked(args.workload, args.seed, spec, workers, tally);
    const std::vector<CampaignSample> campaigns = run_loop(
        args.workload, args.seed, spec, workers, budget, tally,
        [&] { setup_burst(kSetupSeconds); });
    if (!campaigns.empty() && campaigns.back().result)
      metrics = end_to_end_metrics(setups, campaigns, spec.job_count());
  }
  print_result(tally, metrics);
  return tally.failed == 0 && !metrics.empty() ? 0 : 1;
}

}  // namespace
}  // namespace campaignbench

int main(int argc, char** argv) {
  const std::optional<campaignbench::Args> args =
      campaignbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: campaignbench --workload "
                 "<spta_sweep|chip_population|multi_domain> [--seed N] "
                 "[--seconds 1..3600] [--trace 0|1]\n");
    return 2;
  }
  try {
    return campaignbench::run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaignbench: %s\n", e.what());
    return 1;
  }
}
