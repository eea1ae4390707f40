#include "cli/cli.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "analysis/cache_domain.hpp"
#include "benchlib/diff.hpp"
#include "benchlib/harness.hpp"
#include "benchlib/report.hpp"
#include "benchlib/scenario.hpp"
#include "engine/names.hpp"
#include "engine/report.hpp"
#include "engine/runner.hpp"
#include "engine/shard.hpp"
#include "engine/spec_io.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "store/analysis_store.hpp"
#include "store/artifact_store.hpp"
#include "support/json_doc.hpp"
#include "support/table.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet::cli {
namespace {

constexpr const char* kUsage =
    "usage: pwcet <command> [options]\n"
    "\n"
    "commands:\n"
    "  run <spec.json>       execute a campaign spec and emit its report\n"
    "      --threads N       worker threads (0 = one per hardware thread)\n"
    "      --store on|off    content-addressed analysis store (default on)\n"
    "      --cache-dir DIR   enable the on-disk artifact tier under DIR\n"
    "      --format FMT      stdout report format: csv (default), jsonl,\n"
    "                        table (the spec's \"view\" when it has one);\n"
    "                        dist-csv, dist-jsonl, dist-table print the\n"
    "                        distribution sink (specs with\n"
    "                        ccdf_exceedances) instead\n"
    "      --output BASE     write BASE.csv and BASE.jsonl (plus\n"
    "                        BASE.dist.{csv,jsonl} for distribution\n"
    "                        campaigns) instead of printing the report\n"
    "      --shard i/N       run only shard i of an N-way partition\n"
    "                        (whole analyzer groups, spec-key-stable) and\n"
    "                        write a fragment artifact into the cache dir\n"
    "                        (requires --cache-dir or PWCET_CACHE_DIR);\n"
    "                        reassemble with pwcet merge\n"
    "      --trace-out FILE  record phase/engine spans and write them as\n"
    "                        Chrome trace-event JSON (open in Perfetto)\n"
    "      --metrics-out FILE\n"
    "                        record counters + duration histograms and\n"
    "                        write them as a JSON snapshot\n"
    "      --profile         print a per-phase wall-time and counter\n"
    "                        profile on stderr after the run\n"
    "      --progress        live completed/total counter with ETA on\n"
    "                        stderr (only when stderr is a terminal)\n"
    "  merge <spec.json>     combine the per-shard outputs of a sharded\n"
    "                        campaign into the byte-identical\n"
    "                        single-process report\n"
    "      --from DIR        a shard's cache directory (repeatable; also\n"
    "                        accepts a comma-separated list)\n"
    "      --into DIR        union the shards' artifact stores into DIR\n"
    "                        and publish the merged campaign artifacts\n"
    "                        there (same-key-different-bytes collisions\n"
    "                        are hard errors)\n"
    "      --shards N        expected shard count (default: inferred;\n"
    "                        required when the directories hold fragments\n"
    "                        of several partitions)\n"
    "      --format FMT      stdout report format (as for run)\n"
    "      --output BASE     write report files (as for run)\n"
    "  describe <spec.json>  print the expanded job grid without running\n"
    "      --shards N        also show each job's shard under an N-way\n"
    "                        partition (deterministic, spec-key-stable)\n"
    "  list                  built-in tasks, mechanisms, engines, kinds\n"
    "  cache stats|clear     inspect or empty an artifact cache directory\n"
    "      --cache-dir DIR   cache directory (default: $PWCET_CACHE_DIR)\n"
    "      --metrics FILE    (stats) also render the per-layer store\n"
    "                        counters and histogram percentiles of a\n"
    "                        --metrics-out snapshot\n"
    "  bench run [spec.json...]\n"
    "                        execute benchmark scenarios, emit a versioned\n"
    "                        BenchReport JSON (docs/benchmarking.md); each\n"
    "                        spec adds campaign.<stem>.cold, .warm and\n"
    "                        .shard_merge\n"
    "      --output FILE     write the report to FILE (default: stdout)\n"
    "      --repetitions N   measured repetitions per scenario (default 5)\n"
    "      --warmup N        discarded settling repetitions (default 1)\n"
    "      --threads N       campaign-scenario worker threads (default 1)\n"
    "      --scenarios SUB   only scenarios whose name contains SUB\n"
    "  bench list [spec.json...]\n"
    "                        list benchmark scenarios\n"
    "  bench diff <A> <B>    compare two BenchReports (A = baseline);\n"
    "                        exits 3 when a metric regressed beyond the\n"
    "                        noise band\n"
    "      --threshold FRAC  relative regression threshold (default 0.25)\n"
    "\n"
    "Spec files are documented in docs/campaign-spec.md; ready-made paper\n"
    "campaigns ship under specs/.\n";

/// One parsed `--flag value` option (both `--flag value` and `--flag=value`
/// spellings are accepted).
struct Flag {
  std::string name;
  std::string value;
};

/// Flags that stand alone (`--profile`), though `--flag=value` still
/// attaches a value, which they reject.
bool boolean_flag(const std::string& name) {
  return name == "--profile" || name == "--progress";
}

/// Splits args into positionals and flags. Returns false (after printing a
/// diagnostic) when a flag is missing its value.
bool split_args(const std::vector<std::string>& args,
                std::vector<std::string>& positionals, std::vector<Flag>& flags,
                std::ostream& err) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      positionals.push_back(arg);
      continue;
    }
    const std::size_t equals = arg.find('=');
    if (equals != std::string::npos) {
      flags.push_back({arg.substr(0, equals), arg.substr(equals + 1)});
      continue;
    }
    if (boolean_flag(arg)) {
      flags.push_back({arg, ""});
      continue;
    }
    if (i + 1 >= args.size()) {
      err << "pwcet: " << arg << " requires a value\n";
      return false;
    }
    flags.push_back({arg, args[++i]});
  }
  return true;
}

/// Upper bound for --threads: far beyond any host, it only guards against
/// asking the pool for ~2^64 workers.
constexpr std::size_t kMaxThreads = 256;

/// Upper bound for `bench run --repetitions` and `--warmup`: far beyond
/// any useful sample, it only guards against unbounded sample buffers.
constexpr std::size_t kMaxRepetitions = 1000;

/// Parses an unsigned decimal flag value in lo..hi. A sign is rejected
/// rather than wrapped, so "-1" never becomes 2^64 - 1.
bool parse_count(const Flag& flag, std::size_t lo, std::size_t hi,
                 std::size_t& value, std::ostream& err) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed =
      std::strtoull(flag.value.c_str(), &end, 10);
  if (flag.value.empty() || flag.value[0] < '0' || flag.value[0] > '9' ||
      errno != 0 || *end != '\0' || parsed < lo || parsed > hi) {
    err << "pwcet: " << flag.name << " wants an integer in " << lo << ".."
        << hi << ", got '" << flag.value << "'\n";
    return false;
  }
  value = static_cast<std::size_t>(parsed);
  return true;
}

/// Parses a flag value as a finite double above 0.
bool parse_positive(const std::string& text, double& value) {
  errno = 0;
  char* end = nullptr;
  value = std::strtod(text.c_str(), &end);
  return !text.empty() && errno == 0 && *end == '\0' &&
         std::isfinite(value) && value > 0.0;
}

/// Where run and merge send the report: one --format on stdout, or the
/// --output report files.
struct ReportSink {
  std::string format = "csv";
  bool format_set = false;
  std::string output;  ///< --output BASE; empty = stdout

  bool set_format(const std::string& value, std::ostream& err) {
    static const char* const kFormats[] = {
        "csv", "jsonl", "table", "dist-csv", "dist-jsonl", "dist-table"};
    if (std::find(std::begin(kFormats), std::end(kFormats), value) ==
        std::end(kFormats)) {
      err << "pwcet: --format wants csv|jsonl|table|dist-csv|dist-jsonl|"
             "dist-table, got '"
          << value << "'\n";
      return false;
    }
    format = value;
    format_set = true;
    return true;
  }

  /// Usage check, before anything is loaded.
  bool valid(std::ostream& err) const {
    if (!format_set || output.empty()) return true;
    err << "pwcet: --format and --output are mutually exclusive (--output "
           "always writes BASE.csv and BASE.jsonl)\n";
    return false;
  }

  /// A dist-* format needs a spec with a distribution sink.
  bool fits(const CampaignSpec& spec, std::ostream& err) const {
    if (format.rfind("dist-", 0) != 0 || !spec.ccdf_exceedances.empty())
      return true;
    err << "pwcet: --format " << format << " needs a spec with "
        << "\"ccdf_exceedances\" (this one has no distribution sink)\n";
    return false;
  }

  /// Writes the report; `table` renders `view` when one is given. False
  /// (after a diagnostic) when the report files cannot be written.
  bool emit(const CampaignResult& campaign, const SpecView* view,
            std::ostream& out, std::ostream& err) const {
    if (!output.empty()) {
      if (!write_report_files(campaign, output)) {
        err << "pwcet: failed to write " << output << ".{csv,jsonl}\n";
        return false;
      }
      err << "wrote " << output << ".csv and " << output << ".jsonl";
      if (!campaign.spec.ccdf_exceedances.empty())
        err << " (+ " << output << ".dist.{csv,jsonl})";
      err << "\n";
    } else if (format == "csv") {
      out << report_csv(campaign);
    } else if (format == "jsonl") {
      out << report_jsonl(campaign);
    } else if (format == "table") {
      out << (view != nullptr ? render_view(campaign, *view)
                              : report_table(campaign))
                 .to_string();
    } else if (format == "dist-csv") {
      out << report_dist_csv(campaign);
    } else if (format == "dist-jsonl") {
      out << report_dist_jsonl(campaign);
    } else {
      out << report_dist_table(campaign).to_string();
    }
    return true;
  }
};

// ---- pwcet run ------------------------------------------------------------

/// Arms the process-wide tracer/metrics for one run and guarantees both
/// are disarmed again on every exit path (including exceptions), so a CLI
/// invocation can never leak an enabled collector into the next one —
/// cli::run is a library entry point called repeatedly in-process by the
/// tests. Collected data survives disarming for the post-run export.
struct ObsSession {
  bool tracing = false;
  bool metering = false;

  void arm(bool trace, bool meter) {
    tracing = trace;
    metering = meter;
    if (tracing) {
      obs::Tracer::instance().clear();
      obs::Tracer::instance().enable();
    }
    if (metering) {
      obs::MetricsRegistry::instance().clear();
      obs::MetricsRegistry::instance().enable();
    }
  }

  ~ObsSession() {
    if (tracing) obs::Tracer::instance().disable();
    if (metering) obs::MetricsRegistry::instance().disable();
  }
};

std::string fmt_ms(std::uint64_t ns) { return fmt_double(ns / 1e6, 3); }

/// The --profile table: wall time per span name (from the duration
/// histograms) plus every non-zero counter. Durations are wall-clock and
/// vary run to run; the counter section is deterministic for a fixed
/// single-threaded cold-store spec.
void render_profile(std::ostream& err) {
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();

  TextTable spans({"span", "count", "total ms", "mean ms", "min ms",
                   "max ms", "p50 ms", "p90 ms", "p99 ms"});
  for (const obs::MetricsRegistry::NamedHistogram& h :
       registry.histograms()) {
    const auto& s = h.snapshot;
    if (s.count == 0) continue;
    spans.add_row({h.name, std::to_string(s.count), fmt_ms(s.sum_ns),
                   fmt_ms(s.count == 0 ? 0 : s.sum_ns / s.count),
                   fmt_ms(s.min_ns), fmt_ms(s.max_ns),
                   fmt_double(s.quantile_ns(0.5) / 1e6, 3),
                   fmt_double(s.quantile_ns(0.9) / 1e6, 3),
                   fmt_double(s.quantile_ns(0.99) / 1e6, 3)});
  }
  err << "\nprofile: wall time per span\n" << spans.to_string();

  TextTable counters({"counter", "value"});
  for (const auto& [name, value] : registry.counters())
    if (value != 0) counters.add_row({name, std::to_string(value)});
  err << "\nprofile: counters\n" << counters.to_string();
}

int cmd_run(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  std::vector<std::string> positionals;
  std::vector<Flag> flags;
  if (!split_args(args, positionals, flags, err)) return 2;
  if (positionals.size() != 1) {
    err << "pwcet: run wants exactly one spec file\n" << kUsage;
    return 2;
  }

  RunnerOptions options;
  ReportSink sink;
  std::string trace_out;
  std::string metrics_out;
  bool profile = false;
  bool progress = false;
  ShardSelector shard;       // {0, 1} = the whole campaign
  bool shard_given = false;  // --shard 1/1 still writes its fragment
  for (const Flag& flag : flags) {
    if (flag.name == "--threads") {
      if (!parse_count(flag, 0, kMaxThreads, options.threads, err)) return 2;
    } else if (flag.name == "--shard") {
      if (!parse_shard_selector(flag.value, shard)) {
        err << "pwcet: --shard wants i/N with 1 <= i <= N <= "
            << kMaxShardCount << ", got '" << flag.value << "'\n";
        return 2;
      }
      shard_given = true;
    } else if (flag.name == "--store") {  // the last one wins
      if (flag.value != "on" && flag.value != "off") {
        err << "pwcet: --store wants on|off, got '" << flag.value << "'\n";
        return 2;
      }
      options.store.enabled = flag.value == "on";
    } else if (flag.name == "--cache-dir") {
      options.store.artifact_dir = flag.value;
    } else if (flag.name == "--format") {
      if (!sink.set_format(flag.value, err)) return 2;
    } else if (flag.name == "--output") {
      sink.output = flag.value;
    } else if (flag.name == "--trace-out") {
      trace_out = flag.value;
    } else if (flag.name == "--metrics-out") {
      metrics_out = flag.value;
    } else if (flag.name == "--profile") {
      if (!flag.value.empty()) {
        err << "pwcet: --profile takes no value\n";
        return 2;
      }
      profile = true;
    } else if (flag.name == "--progress") {
      if (!flag.value.empty()) {
        err << "pwcet: --progress takes no value\n";
        return 2;
      }
      progress = true;
    } else {
      err << "pwcet: unknown option '" << flag.name << "' for run\n" << kUsage;
      return 2;
    }
  }
  if (!sink.valid(err)) return 2;

  // Oversubscription warning: more workers than hardware threads never
  // helps this workload (pure CPU, no blocking I/O) — the committed bench
  // once ran 4 workers on a 1-thread machine and *lost* (speedup 0.775).
  // The default (0 = one per hardware thread) cannot oversubscribe.
  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware != 0 && options.threads > hardware)
    err << "pwcet: warning: --threads " << options.threads
        << " oversubscribes the " << hardware
        << " hardware thread(s); expect a slowdown, not a speedup\n";

  // A shard run must land its fragment artifact somewhere `pwcet merge`
  // can find it; the memo store being off (--store off) does not lift
  // that requirement — the fragment travels independently.
  std::string shard_cache_dir = options.store.artifact_dir;
  if (shard_given && shard_cache_dir.empty()) {
    shard_cache_dir = cache_dir_from_env();
    if (shard_cache_dir.empty()) {
      err << "pwcet: --shard needs a cache directory for its fragment "
             "artifact: pass --cache-dir or set PWCET_CACHE_DIR\n";
      return 2;
    }
  }

  const SpecDocument doc = load_spec(positionals[0]);
  if (!sink.fits(doc.spec, err)) return 1;

  // Observability is armed only for this run and disarmed on every exit
  // path; the report below is byte-identical either way (observation-only
  // contract, obs/tracer.hpp).
  ObsSession obs_session;
  obs_session.arm(!trace_out.empty(), !metrics_out.empty() || profile);

  const std::vector<CampaignJob> jobs = expand_campaign(doc.spec);
  std::size_t expected_jobs = jobs.size();
  if (shard_given)
    expected_jobs =
        shard_job_slots(campaign_group_schedule(jobs), shard).size();

  // --progress animates on stderr, so it must stay off when stderr is not
  // a terminal (redirected runs, every test).
  obs::ProgressMeter meter(expected_jobs, err,
                           progress && ::isatty(STDERR_FILENO) != 0);
  if (progress)
    options.on_job_finished = [&meter] { meter.job_finished(); };

  CampaignResult campaign;
  if (shard_given) {
    campaign = shard_view(
        run_campaign_shard(doc.spec, shard, options, shard_cache_dir));
  } else {
    campaign = run_campaign(doc.spec, options);
  }
  meter.finish();

  if (obs_session.tracing) {
    obs::Tracer::instance().disable();
    if (!obs::Tracer::instance().write_json(trace_out)) {
      err << "pwcet: failed to write trace file " << trace_out << "\n";
      return 1;
    }
  }
  if (obs_session.metering) obs::MetricsRegistry::instance().disable();
  if (!metrics_out.empty() &&
      !obs::MetricsRegistry::instance().write_json(metrics_out)) {
    err << "pwcet: failed to write metrics file " << metrics_out << "\n";
    return 1;
  }

  // A shard holds only its own jobs, too few for the view's cells.
  const SpecView* view = doc.view && !shard_given ? &*doc.view : nullptr;
  if (!sink.emit(campaign, view, out, err)) return 1;

  // Progress summary on stderr so stdout stays byte-clean for diffing.
  if (shard_given)
    err << "[shard " << (shard.index + 1) << "/" << shard.count << ": "
        << campaign.results.size() << " of " << jobs.size()
        << " jobs; fragment -> " << shard_cache_dir << "]\n";
  err << "[" << campaign.results.size() << " jobs on "
      << campaign.threads_used << " threads in " << fmt_double(
             campaign.wall_seconds, 2)
      << "s; store: " << campaign.store_stats.hits << " hits / "
      << campaign.store_stats.misses << " misses";
  // Disk loads that missed are real work too (each one fell through to a
  // recompute), so the aggregate names all three flows, not just the
  // successes.
  if (campaign.store_stats.disk_hits + campaign.store_stats.disk_misses +
          campaign.store_stats.disk_writes >
      0)
    err << "; disk: " << campaign.store_stats.disk_hits << " hits / "
        << campaign.store_stats.disk_misses << " misses / "
        << campaign.store_stats.disk_writes << " writes";
  err << "]\n";
  if (profile) render_profile(err);
  return 0;
}

// ---- pwcet merge ----------------------------------------------------------

int cmd_merge(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  std::vector<std::string> positionals;
  std::vector<Flag> flags;
  if (!split_args(args, positionals, flags, err)) return 2;
  if (positionals.size() != 1) {
    err << "pwcet: merge wants exactly one spec file\n" << kUsage;
    return 2;
  }

  ShardMergeOptions merge_options;
  ReportSink sink;
  for (const Flag& flag : flags) {
    if (flag.name == "--from") {
      // Repeatable, and each occurrence may carry a comma-separated list
      // (convenient in CI: --from "a,b,c" from a matrix variable).
      std::size_t start = 0;
      while (start <= flag.value.size()) {
        const std::size_t comma = flag.value.find(',', start);
        const std::string dir =
            comma == std::string::npos
                ? flag.value.substr(start)
                : flag.value.substr(start, comma - start);
        if (!dir.empty()) merge_options.from_dirs.push_back(dir);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (flag.name == "--into") {
      merge_options.into_dir = flag.value;
    } else if (flag.name == "--shards") {
      if (!parse_count(flag, 1, kMaxShardCount, merge_options.shard_count,
                       err))
        return 2;
    } else if (flag.name == "--format") {
      if (!sink.set_format(flag.value, err)) return 2;
    } else if (flag.name == "--output") {
      sink.output = flag.value;
    } else {
      err << "pwcet: unknown option '" << flag.name << "' for merge\n"
          << kUsage;
      return 2;
    }
  }
  if (!sink.valid(err)) return 2;
  if (merge_options.from_dirs.empty()) {
    err << "pwcet: merge wants at least one --from directory\n";
    return 2;
  }

  const SpecDocument doc = load_spec(positionals[0]);
  if (!sink.fits(doc.spec, err)) return 1;

  ShardMergeOutcome merged;
  try {
    merged = merge_campaign_shards(doc.spec, merge_options);
  } catch (const ShardMergeError& e) {
    err << "pwcet: " << e.what() << "\n";
    return 1;
  }
  const CampaignResult& campaign = merged.campaign;
  if (!sink.emit(campaign, doc.view ? &*doc.view : nullptr, out, err))
    return 1;

  // Same stderr/stdout split as run: the summary never lands in the report.
  err << "[merged " << merged.shard_count << " shards: "
      << campaign.results.size() << " jobs";
  if (!merge_options.into_dir.empty())
    err << "; store union -> " << merge_options.into_dir << ": "
        << merged.artifacts_copied << " copied / "
        << merged.artifacts_identical << " identical";
  err << "]\n";
  return 0;
}

// ---- pwcet describe -------------------------------------------------------

int cmd_describe(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  std::vector<std::string> positionals;
  std::vector<Flag> flags;
  if (!split_args(args, positionals, flags, err)) return 2;
  std::size_t shard_count = 0;  // 0 = no shard column
  for (const Flag& flag : flags) {
    if (flag.name == "--shards") {
      if (!parse_count(flag, 1, kMaxShardCount, shard_count, err)) return 2;
    } else {
      err << "pwcet: unknown option '" << flag.name << "' for describe\n";
      return 2;
    }
  }
  if (positionals.size() != 1) {
    err << "pwcet: describe wants exactly one spec file\n" << kUsage;
    return 2;
  }

  const SpecDocument doc = load_spec(positionals[0]);
  const CampaignSpec& spec = doc.spec;
  const std::vector<CampaignJob> jobs = expand_campaign(spec);

  if (!doc.name.empty()) out << doc.name << "\n";
  if (!doc.notes.empty()) out << doc.notes << "\n";
  if (!doc.name.empty() || !doc.notes.empty()) out << "\n";

  out << "axes: " << spec.tasks.size() << " tasks x "
      << spec.geometries.size() << " geometries x " << spec.pfails.size()
      << " pfails x " << spec.mechanisms.size() << " mechanisms x "
      << spec.engines.size() << " engines x " << spec.kinds.size()
      << " kinds x " << spec.dcaches.size() << " dcaches x "
      << spec.tlbs.size() << " tlbs x " << spec.l2s.size() << " l2s x "
      << spec.dcache_mechanisms.size() << " dmechs x "
      << spec.sample_counts.size() << " samples = " << jobs.size()
      << " jobs\n";
  out << "target exceedance: " << fmt_prob(spec.target_exceedance) << "\n";
  if (!spec.ccdf_exceedances.empty())
    out << "distribution sink: " << spec.ccdf_exceedances.size()
        << " exceedance points per job\n";
  out << "spec key: " << campaign_spec_key(spec).hex() << "\n";
  // Capacity line, so a reader of `describe` can budget a run.
  out << "hardware threads: " << std::thread::hardware_concurrency()
      << "\n\n";

  // Each cache-domain axis gets its own geometry column so a grid mixing
  // TLB and L2 cells stays readable. --shards N appends each job's shard
  // under the N-way partition — the same spec-key-stable assignment
  // `run --shard` executes.
  std::vector<std::string> headers = {"#",     "task", "geometry", "dcache",
                                      "tlb",   "l2",   "pfail",    "mech",
                                      "dmech", "engine", "kind", "samples",
                                      "seed"};
  if (shard_count > 0) headers.push_back("shard");
  std::vector<std::size_t> assignment;
  if (shard_count > 0)
    assignment = shard_assignment(campaign_group_schedule(jobs), jobs.size(),
                                  shard_count);
  TextTable table(std::move(headers));
  for (const CampaignJob& job : jobs) {
    std::vector<std::string> row = {
        std::to_string(job.index), job.task,
        axis_label(spec, SpecAxis::kGeometries, job.geometry_i),
        axis_label(spec, SpecAxis::kDcaches, job.dcache_i),
        axis_label(spec, SpecAxis::kTlbs, job.tlb_i),
        axis_label(spec, SpecAxis::kL2s, job.l2_i),
        fmt_prob(job.pfail), mechanism_name(job.mechanism),
        job.dcache.enabled ? dcache_mechanism_name(job.dmech) : "-",
        engine_name(job.engine), analysis_kind_name(job.kind),
        std::to_string(job.samples), std::to_string(job.seed)};
    if (shard_count > 0)
      row.push_back(std::to_string(assignment[job.index] + 1) + "/" +
                    std::to_string(shard_count));
    table.add_row(std::move(row));
  }
  out << table.to_string();
  return 0;
}

// ---- pwcet list -----------------------------------------------------------

int cmd_list(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  if (!args.empty()) {
    err << "pwcet: list takes no arguments\n";
    return 2;
  }
  // Axis values and their one-liners come from the single name registry
  // (engine/names.hpp) — the same tables the spec loader parses against —
  // and the cache domains from the domain table (analysis/cache_domain.hpp).
  const auto section = [&out](const char* title, const auto& names) {
    std::size_t width = 0;
    for (const auto& entry : names)
      width = std::max(width, std::string(entry.name).size());
    out << "\n" << title << ":\n";
    for (const auto& entry : names) {
      out << "  " << entry.name
          << std::string(width - std::string(entry.name).size() + 2, ' ')
          << entry.description << "\n";
    }
  };
  out << "tasks (Malardalen-style structural counterparts):\n";
  for (const std::string& name : workloads::names()) out << "  " << name
                                                         << "\n";
  out << "\ntasks (extension kernels, data-cache study):\n";
  for (const std::string& name : workloads::extension_names())
    out << "  " << name << "\n";
  section("cache domains", cache_domain_rows());
  section("mechanisms", mechanism_names());
  section("dcache mechanisms", dcache_mechanism_names());
  section("write policies", write_policy_names());
  section("engines", engine_names());
  section("kinds", analysis_kind_names());
  return 0;
}

// ---- pwcet cache ----------------------------------------------------------

/// Renders the `store.<tier>.<layer>.<event>` counters of a --metrics-out
/// snapshot as one per-layer table: memo rows (campaign / profile / fmm /
/// penalty) with hit/miss/eviction columns and the payload
/// bytes each layer inserted, disk rows (per artifact kind) with
/// hit/miss/write columns. Histograms follow as a percentile table
/// (the derived p50/p90/p99 fields, never the raw bucket arrays). Returns
/// false (after a diagnostic) when the file does not load or parse.
bool render_store_counters(const std::string& path, std::ostream& out,
                           std::ostream& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err << "pwcet: cannot read metrics file " << path << "\n";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();

  const char* events[] = {"hits", "misses", "evictions", "writes", "bytes"};
  // (tier, layer) -> event -> count; std::map keeps row order stable.
  std::map<std::pair<std::string, std::string>,
           std::map<std::string, std::uint64_t>>
      rows;
  // One row per histogram: name, count, then the derived ns fields
  // rendered as ms ("-" where an older snapshot lacks the field).
  std::vector<std::vector<std::string>> histogram_rows;
  try {
    const Json doc = parse_json(text.str(), path);
    if (doc.type != Json::Type::kObject)
      throw JsonParseError(path + ": not a metrics snapshot (want object)");
    const Json* counters = doc.find("counters");
    if (counters == nullptr || counters->type != Json::Type::kObject)
      throw JsonParseError(path +
                           ": not a metrics snapshot (no \"counters\")");
    for (const auto& [name, value] : counters->object) {
      if (name.rfind("store.", 0) != 0) continue;
      // store.<tier>.<layer>.<event> — layers may themselves contain dots
      // (artifact kinds do not today, but be permissive): split off the
      // first and last component, keep the middle as the layer.
      const std::size_t tier_end = name.find('.', 6);
      const std::size_t event_start = name.rfind('.');
      if (tier_end == std::string::npos || event_start <= tier_end) continue;
      if (value.type != Json::Type::kNumber || !value.integral) continue;
      rows[{name.substr(6, tier_end - 6),
            name.substr(tier_end + 1, event_start - tier_end - 1)}]
          [name.substr(event_start + 1)] = value.integer;
    }
    const Json* histograms = doc.find("histograms");
    if (histograms != nullptr && histograms->type == Json::Type::kObject) {
      const auto field_ms = [](const Json& snap, const char* field) {
        const Json* value = snap.find(field);
        if (value == nullptr || value->type != Json::Type::kNumber)
          return std::string("-");  // pre-percentile snapshot
        return fmt_double(value->number / 1e6, 3);
      };
      for (const auto& [name, snap] : histograms->object) {
        if (snap.type != Json::Type::kObject) continue;
        const Json* count = snap.find("count");
        const std::string count_text =
            count != nullptr && count->type == Json::Type::kNumber &&
                    count->integral
                ? std::to_string(count->integer)
                : "-";
        histogram_rows.push_back({name, count_text,
                                  field_ms(snap, "mean_ns"),
                                  field_ms(snap, "p50_ns"),
                                  field_ms(snap, "p90_ns"),
                                  field_ms(snap, "p99_ns")});
      }
    }
  } catch (const JsonParseError& e) {
    err << "pwcet: " << e.what() << "\n";
    return false;
  }

  TextTable table({"tier", "layer", "hits", "misses", "evictions",
                   "writes", "bytes"});
  for (const auto& [key, counts] : rows) {
    std::vector<std::string> cells = {key.first, key.second};
    for (const char* event : events) {
      const auto it = counts.find(event);
      cells.push_back(it == counts.end() ? "-" : std::to_string(it->second));
    }
    table.add_row(std::move(cells));
  }
  out << "store counters (" << path << "):\n" << table.to_string();
  if (rows.empty())
    out << "  (no store.* counters in the snapshot — was the run recorded "
           "with --metrics-out while the store was enabled?)\n";
  if (!histogram_rows.empty()) {
    TextTable percentiles(
        {"histogram", "count", "mean ms", "p50 ms", "p90 ms", "p99 ms"});
    for (auto& row : histogram_rows) percentiles.add_row(std::move(row));
    out << "\nhistogram percentiles (" << path << "):\n"
        << percentiles.to_string();
  }
  return true;
}

int cmd_cache(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  std::vector<std::string> positionals;
  std::vector<Flag> flags;
  if (!split_args(args, positionals, flags, err)) return 2;
  if (positionals.size() != 1 ||
      (positionals[0] != "stats" && positionals[0] != "clear")) {
    err << "pwcet: cache wants 'stats' or 'clear'\n" << kUsage;
    return 2;
  }
  std::string dir;
  std::string metrics_file;
  for (const Flag& flag : flags) {
    if (flag.name == "--cache-dir") {
      dir = flag.value;
    } else if (flag.name == "--metrics" && positionals[0] == "stats") {
      metrics_file = flag.value;
    } else {
      err << "pwcet: unknown option '" << flag.name << "' for cache "
          << positionals[0] << "\n";
      return 2;
    }
  }
  if (dir.empty()) dir = cache_dir_from_env();

  // A metrics snapshot is self-contained: render it even without a cache
  // directory (the counters describe the memo tier too, which never
  // touches disk).
  if (!metrics_file.empty() && dir.empty())
    return render_store_counters(metrics_file, out, err) ? 0 : 1;

  if (dir.empty()) {
    err << "pwcet: no cache directory: pass --cache-dir or set "
           "PWCET_CACHE_DIR\n";
    return 1;
  }

  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::exists(dir, ec)) {
    out << "cache directory " << dir
        << " does not exist (nothing cached; 0 artifacts)\n";
    if (!metrics_file.empty())
      return render_store_counters(metrics_file, out, err) ? 0 : 1;
    return 0;
  }

  // Only artifacts and orphans (classify_artifact_file) are the store's;
  // anything else in the directory is left untouched.
  std::vector<CacheFile> files;
  try {
    files = list_cache_files(dir);
  } catch (const fs::filesystem_error& e) {
    err << "pwcet: cannot read cache directory " << dir << ": "
        << e.code().message() << "\n";
    return 1;
  }

  if (positionals[0] == "stats") {
    // kind -> (artifacts, bytes), listed in sorted kind order
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> kinds;
    std::uint64_t total_files = 0, total_bytes = 0;
    for (const CacheFile& file : files) {
      if (file.type != ArtifactFile::kArtifact) continue;
      // A file racing deletion by another process reads as an error here;
      // skip it rather than folding file_size's uintmax_t(-1) sentinel
      // into the byte total.
      const std::uintmax_t size = fs::file_size(file.path, ec);
      if (ec) continue;
      auto& [count, bytes] = kinds[file.kind];
      ++count;
      bytes += size;
      ++total_files;
      total_bytes += size;
    }
    TextTable table({"kind", "artifacts", "bytes"});
    for (const auto& [kind, counts] : kinds)
      table.add_row({kind, std::to_string(counts.first),
                     std::to_string(counts.second)});
    table.add_row({"total", std::to_string(total_files),
                   std::to_string(total_bytes)});
    out << "cache directory: " << dir << "\n" << table.to_string();
    if (!metrics_file.empty()) {
      out << "\n";
      if (!render_store_counters(metrics_file, out, err)) return 1;
    }
    return 0;
  }

  // clear: remove artifacts and orphans (temp files of a writer that died
  // before its rename), then the kind directories that leaves empty, so a
  // mistyped --cache-dir cannot wipe unrelated data.
  std::uint64_t removed = 0;
  std::set<std::string> kind_dirs;  // those clear removed a file from
  for (const CacheFile& file : files) {
    if (file.type == ArtifactFile::kForeign || !fs::remove(file.path, ec))
      continue;
    if (file.type == ArtifactFile::kArtifact) ++removed;
    kind_dirs.insert(fs::path(file.path).parent_path().string());
  }
  for (const std::string& kind_dir : kind_dirs)
    fs::remove(kind_dir, ec);  // succeeds only if now empty
  out << "removed " << removed << " artifacts from " << dir << "\n";
  return 0;
}

// ---- pwcet bench ----------------------------------------------------------

int cmd_bench_run(const std::vector<std::string>& positionals,
                  const std::vector<Flag>& flags, std::ostream& out,
                  std::ostream& err) {
  benchlib::BenchOptions bench;
  benchlib::ScenarioOptions scenario_options;
  std::string output;
  std::string filter;
  for (const Flag& flag : flags) {
    if (flag.name == "--output") {
      output = flag.value;
    } else if (flag.name == "--repetitions") {
      if (!parse_count(flag, 1, kMaxRepetitions, bench.repetitions, err))
        return 2;
    } else if (flag.name == "--warmup") {
      if (!parse_count(flag, 0, kMaxRepetitions, bench.warmup, err)) return 2;
    } else if (flag.name == "--threads") {
      if (!parse_count(flag, 0, kMaxThreads, scenario_options.threads, err))
        return 2;
      if (scenario_options.threads == 0)
        scenario_options.threads =
            std::max(1u, std::thread::hardware_concurrency());
    } else if (flag.name == "--scenarios") {
      filter = flag.value;
    } else {
      err << "pwcet: unknown option '" << flag.name << "' for bench run\n"
          << kUsage;
      return 2;
    }
  }

  std::vector<benchlib::Scenario> scenarios = benchlib::builtin_scenarios(
      {positionals.begin() + 1, positionals.end()});
  if (!filter.empty()) {
    std::erase_if(scenarios, [&filter](const benchlib::Scenario& s) {
      return s.name.find(filter) == std::string::npos;
    });
    if (scenarios.empty()) {
      err << "pwcet: no scenario matches '" << filter
          << "' (see pwcet bench list)\n";
      return 1;
    }
  }

  benchlib::BenchReport report;
  // No timestamps or hostnames: two reports from comparable runs must
  // differ only in samples, so a diff's environment notes stay meaningful.
  report.environment = {
      {"threads", std::to_string(scenario_options.threads)},
      {"hardware_threads",
       std::to_string(std::thread::hardware_concurrency())},
#ifdef NDEBUG
      {"build_type", "release"},
#else
      {"build_type", "debug"},
#endif
      {"warmup", std::to_string(bench.warmup)},
      {"repetitions", std::to_string(bench.repetitions)},
  };
  for (benchlib::Scenario& scenario : scenarios) {
    err << "bench: " << scenario.name << " (" << bench.warmup << "+"
        << bench.repetitions << " reps)..." << std::flush;
    if (scenario.setup) scenario.setup(scenario_options);
    benchlib::ScenarioSamples samples = benchlib::run_scenario(
        scenario.name, bench,
        [&scenario, &scenario_options] { scenario.body(scenario_options); });
    benchlib::ScenarioReport summary =
        benchlib::summarize_scenario(std::move(samples));
    const auto wall = summary.stats.find("wall_ns");
    if (wall != summary.stats.end())
      err << " median " << fmt_double(wall->second.median / 1e6, 3) << " ms";
    err << "\n";
    report.scenarios.push_back(std::move(summary));
  }

  const std::string json = benchlib::bench_report_json(report);
  if (output.empty()) {
    out << json;
    return 0;
  }
  if (!benchlib::write_bench_report(report, output)) {
    err << "pwcet: failed to write bench report " << output << "\n";
    return 1;
  }
  err << "wrote " << output << " (" << report.scenarios.size()
      << " scenarios)\n";
  return 0;
}

int cmd_bench_list(const std::vector<std::string>& positionals,
                   const std::vector<Flag>& flags, std::ostream& out,
                   std::ostream& err) {
  if (!flags.empty()) {
    err << "pwcet: bench list takes no options\n";
    return 2;
  }
  TextTable table({"scenario", "description"});
  for (const benchlib::Scenario& scenario : benchlib::builtin_scenarios(
           {positionals.begin() + 1, positionals.end()}))
    table.add_row({scenario.name, scenario.description});
  out << table.to_string();
  return 0;
}

int cmd_bench_diff(const std::vector<std::string>& positionals,
                   const std::vector<Flag>& flags, std::ostream& out,
                   std::ostream& err) {
  if (positionals.size() != 3) {
    err << "pwcet: bench diff wants exactly two report files (baseline, "
           "candidate)\n";
    return 2;
  }
  benchlib::DiffOptions options;
  for (const Flag& flag : flags) {
    if (flag.name == "--threshold") {
      if (!parse_positive(flag.value, options.threshold)) {
        err << "pwcet: --threshold wants a finite positive fraction, got '"
            << flag.value << "'\n";
        return 2;
      }
    } else {
      err << "pwcet: unknown option '" << flag.name << "' for bench diff\n"
          << kUsage;
      return 2;
    }
  }
  try {
    const benchlib::BenchReport before =
        benchlib::load_bench_report(positionals[1]);
    const benchlib::BenchReport after =
        benchlib::load_bench_report(positionals[2]);
    const benchlib::BenchDiff diff =
        benchlib::diff_reports(before, after, options);
    benchlib::render_diff(diff, options, out);
    // Exit 3 (not 1) so CI can tell "a metric regressed" apart from
    // "the artifacts could not be compared".
    return diff.has_regression() ? 3 : 0;
  } catch (const benchlib::BenchError& e) {
    err << "pwcet: " << e.what() << "\n";
    return 1;
  }
}

int cmd_bench(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  std::vector<std::string> positionals;
  std::vector<Flag> flags;
  if (!split_args(args, positionals, flags, err)) return 2;
  if (positionals.empty()) {
    err << "pwcet: bench wants 'run', 'list' or 'diff'\n" << kUsage;
    return 2;
  }
  if (positionals[0] == "run") return cmd_bench_run(positionals, flags, out, err);
  if (positionals[0] == "list")
    return cmd_bench_list(positionals, flags, out, err);
  if (positionals[0] == "diff")
    return cmd_bench_diff(positionals, flags, out, err);
  err << "pwcet: bench wants 'run', 'list' or 'diff', got '" << positionals[0]
      << "'\n"
      << kUsage;
  return 2;
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help" ||
      args[0] == "-h") {
    (args.empty() ? err : out) << kUsage;
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "run") return cmd_run(rest, out, err);
    if (command == "merge") return cmd_merge(rest, out, err);
    if (command == "describe") return cmd_describe(rest, out, err);
    if (command == "list") return cmd_list(rest, out, err);
    if (command == "cache") return cmd_cache(rest, out, err);
    if (command == "bench") return cmd_bench(rest, out, err);
  } catch (const SpecError& e) {
    err << "pwcet: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    err << "pwcet: error: " << e.what() << "\n";
    return 1;
  }
  err << "pwcet: unknown command '" << command << "'\n" << kUsage;
  return 2;
}

}  // namespace pwcet::cli
