#include "engine/report.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>

#include "support/contracts.hpp"
#include "support/json.hpp"

namespace pwcet {
namespace {

/// Shortest decimal that round-trips the double exactly — deterministic
/// for identical bits, which the determinism tests rely on.
std::string fmt_exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string fmt_u64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Single source of truth for column names and their JSON type, so the
/// quoting decision cannot drift from the column order.
struct Column {
  const char* name;
  bool json_string;
};

/// Job-identity columns shared by the scalar and dist reports.
constexpr Column kJobColumns[] = {
    {"task", true},         {"sets", false},
    {"ways", false},        {"line_bytes", false},
    // Data-cache axis: 0x0x0 when the cell's data cache is off; dmech is
    // the *resolved* data-cache mechanism ("-" when off); dpolicy is the
    // write policy ("-" when off).
    {"dsets", false},       {"dways", false},
    {"dline_bytes", false}, {"dpolicy", true},
    // TLB axis (0s when off) and shared-L2 axis (0x0x0 when off). Both
    // deploy the job's `mech`.
    {"tlb_entries", false}, {"tlb_ways", false},
    {"tlb_page_bytes", false},
    {"l2sets", false},      {"l2ways", false},
    {"l2line_bytes", false}, {"pfail", false},
    {"mech", true},         {"dmech", true},
    {"engine", true},       {"kind", true},
    // samples: the raw sample-count axis value (0 = spec-level defaults).
    {"samples", false},
    // seed: a full 64-bit value would be silently rounded by double-based
    // JSON parsers (jq, JavaScript), so it travels as a string.
    {"seed", true},
};

/// The numeric result tail of the scalar report: each column's name and
/// how report_row prints it. render_view reads its cells through the same
/// entries, parsing the printed text back (every printer round-trips), so
/// a view shows exactly what the report holds.
///
/// The tail is also parsed back by parse_campaign_report_rows below when
/// a persisted campaign report or a shard fragment is loaded; renaming or
/// reordering these columns breaks that parse — store_test's
/// CampaignWarmFromDiskIsByteIdentical (which asserts zero recomputation
/// on a warm run) catches the drift.
struct ResultColumn {
  const char* name;
  std::string (*print)(const JobResult&);
};

constexpr ResultColumn kResultColumns[] = {
    {"wcet_ff",
     [](const JobResult& r) { return std::to_string(r.fault_free_wcet); }},
    {"pwcet", [](const JobResult& r) { return fmt_exact(r.pwcet); }},
    {"observed_max",
     [](const JobResult& r) { return fmt_exact(r.observed_max); }},
    {"penalty_mean",
     [](const JobResult& r) { return fmt_exact(r.penalty_mean); }},
    {"penalty_points",
     [](const JobResult& r) { return std::to_string(r.penalty_points); }},
    {"fetches", [](const JobResult& r) { return fmt_u64(r.fetches); }},
    {"srb_hits", [](const JobResult& r) { return fmt_u64(r.srb_hits); }},
    {"sim_misses", [](const JobResult& r) { return fmt_u64(r.sim_misses); }},
    {"bound_misses",
     [](const JobResult& r) { return fmt_u64(r.bound_misses); }},
    {"sim_misses_1",
     [](const JobResult& r) { return fmt_u64(r.sim_misses_1); }},
    {"bound_misses_1",
     [](const JobResult& r) { return fmt_u64(r.bound_misses_1); }},
};

/// The result column a view reads from the curve on an exceedance row.
constexpr std::size_t kPwcetColumn = 1;
static_assert(std::string_view(kResultColumns[kPwcetColumn].name) == "pwcet");

/// The dist report's tail after the job-identity prefix: the curve point.
constexpr Column kDistTail[] = {
    {"exceedance", false},
    {"value", false},
};

/// kJobColumns followed by a tail of numeric columns.
template <std::size_t N, typename Tail, std::size_t M>
constexpr std::array<Column, N + M> with_tail(const Column (&head)[N],
                                              const Tail (&tail)[M]) {
  std::array<Column, N + M> columns{};
  for (std::size_t c = 0; c < N; ++c) columns[c] = head[c];
  for (std::size_t c = 0; c < M; ++c) columns[N + c] = {tail[c].name, false};
  return columns;
}

constexpr auto kColumns = with_tail(kJobColumns, kResultColumns);
constexpr auto kDistColumns = with_tail(kJobColumns, kDistTail);

std::vector<std::string> job_row(const CampaignJob& job) {
  return {job.task,
          std::to_string(job.geometry.sets),
          std::to_string(job.geometry.ways),
          std::to_string(job.geometry.line_bytes),
          std::to_string(job.dcache.enabled ? job.dcache.geometry.sets : 0),
          std::to_string(job.dcache.enabled ? job.dcache.geometry.ways : 0),
          std::to_string(job.dcache.enabled ? job.dcache.geometry.line_bytes
                                            : 0),
          job.dcache.enabled ? write_policy_name(job.dcache.policy) : "-",
          std::to_string(job.tlb.enabled ? job.tlb.entries : 0),
          std::to_string(job.tlb.enabled ? job.tlb.ways : 0),
          std::to_string(job.tlb.enabled ? job.tlb.page_bytes : 0),
          std::to_string(job.l2.enabled ? job.l2.geometry.sets : 0),
          std::to_string(job.l2.enabled ? job.l2.geometry.ways : 0),
          std::to_string(job.l2.enabled ? job.l2.geometry.line_bytes : 0),
          fmt_exact(job.pfail),
          mechanism_name(job.mechanism),
          job.dcache.enabled ? mechanism_name(job.resolved_dmech()) : "-",
          engine_name(job.engine),
          analysis_kind_name(job.kind),
          std::to_string(job.samples),
          fmt_u64(job.seed)};
}

std::string render_jsonl_row(const Column* columns, std::size_t count,
                             const std::vector<std::string>& row) {
  std::string out = "{";
  for (std::size_t c = 0; c < count; ++c) {
    out += '"';
    out += columns[c].name;
    out += "\":";
    if (columns[c].json_string) {
      out += '"';
      out += json_escape(row[c]);
      out += '"';
    } else {
      out += row[c];
    }
    if (c + 1 < count) out += ',';
  }
  out += "}\n";
  return out;
}

}  // namespace

std::vector<std::string> report_columns() {
  std::vector<std::string> names;
  names.reserve(kColumns.size());
  for (const Column& column : kColumns) names.push_back(column.name);
  return names;
}

std::vector<std::string> report_result_columns() {
  std::vector<std::string> names;
  names.reserve(std::size(kResultColumns));
  for (const ResultColumn& column : kResultColumns)
    names.push_back(column.name);
  return names;
}

std::vector<std::string> report_row(const CampaignResult& campaign,
                                    const JobResult& result) {
  (void)campaign;
  std::vector<std::string> row = job_row(result.job);
  for (const ResultColumn& column : kResultColumns)
    row.push_back(column.print(result));
  return row;
}

TextTable report_table(const CampaignResult& campaign) {
  TextTable table(report_columns());
  for (const JobResult& result : campaign.results)
    table.add_row(report_row(campaign, result));
  return table;
}

std::string report_csv(const CampaignResult& campaign) {
  return report_table(campaign).to_csv();
}

std::string report_jsonl(const CampaignResult& campaign) {
  std::string out;
  for (const JobResult& result : campaign.results)
    out += render_jsonl_row(kColumns.data(), kColumns.size(),
                            report_row(campaign, result));
  return out;
}

std::vector<std::string> report_dist_columns() {
  std::vector<std::string> names;
  names.reserve(kDistColumns.size());
  for (const Column& column : kDistColumns) names.push_back(column.name);
  return names;
}

namespace {

/// Rows of the dist report, rendered through `emit(columns-array, row)`.
template <typename Emit>
void each_dist_row(const CampaignResult& campaign, Emit&& emit) {
  const std::vector<Probability>& points = campaign.spec.ccdf_exceedances;
  for (const JobResult& result : campaign.results) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      std::vector<std::string> row = job_row(result.job);
      row.push_back(fmt_exact(points[i]));
      row.push_back(fmt_exact(i < result.curve.size() ? result.curve[i]
                                                      : 0.0));
      emit(std::move(row));
    }
  }
}

}  // namespace

TextTable report_dist_table(const CampaignResult& campaign) {
  TextTable table(report_dist_columns());
  each_dist_row(campaign,
                [&](std::vector<std::string> row) { table.add_row(row); });
  return table;
}

std::string report_dist_csv(const CampaignResult& campaign) {
  return report_dist_table(campaign).to_csv();
}

std::string report_jsonl_row(const CampaignResult& campaign,
                             const JobResult& result) {
  return render_jsonl_row(kColumns.data(), kColumns.size(),
                          report_row(campaign, result));
}

std::string report_dist_jsonl_rows(const CampaignResult& campaign,
                                   const JobResult& result) {
  const std::vector<Probability>& points = campaign.spec.ccdf_exceedances;
  std::string out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::vector<std::string> row = job_row(result.job);
    row.push_back(fmt_exact(points[i]));
    row.push_back(fmt_exact(i < result.curve.size() ? result.curve[i]
                                                    : 0.0));
    out += render_jsonl_row(kDistColumns.data(), kDistColumns.size(), row);
  }
  return out;
}

std::string report_dist_jsonl(const CampaignResult& campaign) {
  std::string out;
  for (const JobResult& result : campaign.results)
    out += report_dist_jsonl_rows(campaign, result);
  return out;
}

bool parse_campaign_report_rows(const std::string& payload,
                                const std::vector<CampaignJob>& jobs,
                                const std::vector<std::size_t>& slots,
                                std::vector<JobResult>& results) {
  std::istringstream lines(payload);
  std::string line;
  std::size_t row = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (row >= slots.size()) return false;
    const std::size_t slot = slots[row];
    if (slot >= jobs.size() || slot >= results.size()) return false;
    const char* at = std::strstr(line.c_str(), "\"wcet_ff\":");
    if (at == nullptr) return false;
    long long wcet_ff = 0;
    double pwcet = 0.0, observed_max = 0.0, penalty_mean = 0.0;
    unsigned long long penalty_points = 0;
    unsigned long long fetches = 0, srb_hits = 0;
    unsigned long long sim_misses = 0, bound_misses = 0;
    unsigned long long sim_misses_1 = 0, bound_misses_1 = 0;
    if (std::sscanf(at,
                    "\"wcet_ff\":%lld,\"pwcet\":%lf,\"observed_max\":%lf,"
                    "\"penalty_mean\":%lf,\"penalty_points\":%llu,"
                    "\"fetches\":%llu,\"srb_hits\":%llu,"
                    "\"sim_misses\":%llu,\"bound_misses\":%llu,"
                    "\"sim_misses_1\":%llu,\"bound_misses_1\":%llu}",
                    &wcet_ff, &pwcet, &observed_max, &penalty_mean,
                    &penalty_points, &fetches, &srb_hits, &sim_misses,
                    &bound_misses, &sim_misses_1, &bound_misses_1) != 11)
      return false;
    JobResult& result = results[slot];
    result.job = jobs[slot];
    result.fault_free_wcet = static_cast<Cycles>(wcet_ff);
    result.pwcet = pwcet;
    result.observed_max = observed_max;
    result.penalty_mean = penalty_mean;
    result.penalty_points = static_cast<std::size_t>(penalty_points);
    result.fetches = fetches;
    result.srb_hits = srb_hits;
    result.sim_misses = sim_misses;
    result.bound_misses = bound_misses;
    result.sim_misses_1 = sim_misses_1;
    result.bound_misses_1 = bound_misses_1;
    ++row;
  }
  return row == slots.size();
}

bool parse_campaign_dist_rows(const std::string& payload, std::size_t points,
                              const std::vector<std::size_t>& slots,
                              std::vector<JobResult>& results) {
  if (points == 0) return payload.empty();
  std::istringstream lines(payload);
  std::string line;
  std::size_t row = 0;
  const std::size_t total = slots.size() * points;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (row >= total) return false;
    const std::size_t slot = slots[row / points];
    if (slot >= results.size()) return false;
    const char* at = std::strstr(line.c_str(), "\"exceedance\":");
    if (at == nullptr) return false;
    double exceedance = 0.0, value = 0.0;
    if (std::sscanf(at, "\"exceedance\":%lf,\"value\":%lf}", &exceedance,
                    &value) != 2)
      return false;
    JobResult& result = results[slot];
    if (result.curve.size() != points) result.curve.assign(points, 0.0);
    result.curve[row % points] = value;
    ++row;
  }
  return row == total;
}

bool write_report_files(const CampaignResult& campaign,
                        const std::string& basename) {
  std::ofstream csv(basename + ".csv", std::ios::binary);
  csv << report_csv(campaign);
  csv.close();  // flush before checking: buffered write errors (disk
                // full, quota) only surface at flush time
  std::ofstream jsonl(basename + ".jsonl", std::ios::binary);
  jsonl << report_jsonl(campaign);
  jsonl.close();
  bool ok = !csv.fail() && !jsonl.fail();
  if (!campaign.spec.ccdf_exceedances.empty()) {
    std::ofstream dist_csv(basename + ".dist.csv", std::ios::binary);
    dist_csv << report_dist_csv(campaign);
    dist_csv.close();
    std::ofstream dist_jsonl(basename + ".dist.jsonl", std::ios::binary);
    dist_jsonl << report_dist_jsonl(campaign);
    dist_jsonl.close();
    ok = ok && !dist_csv.fail() && !dist_jsonl.fail();
  }
  return ok;
}

// ---- axis labels and views ------------------------------------------------

namespace {

constexpr std::size_t kSpecAxisCount =
    static_cast<std::size_t>(SpecAxis::kCcdfExceedances) + 1;

std::string geometry_label(const CacheConfig& g) {
  return std::to_string(g.sets) + "x" + std::to_string(g.ways) + "x" +
         std::to_string(g.line_bytes) + "B";
}

/// A view's header for a row axis: `pwcet describe`'s column names.
const char* axis_header(SpecAxis axis) {
  static constexpr const char* kHeaders[kSpecAxisCount] = {
      "task",   "geometry", "pfail", "mech",  "engine",  "kind",
      "dcache", "tlb",      "l2",    "dmech", "samples", "exceedance"};
  return kHeaders[static_cast<std::size_t>(axis)];
}

}  // namespace

std::size_t axis_size(const CampaignSpec& spec, SpecAxis axis) {
  switch (axis) {
    case SpecAxis::kTasks:
      return spec.tasks.size();
    case SpecAxis::kGeometries:
      return spec.geometries.size();
    case SpecAxis::kPfails:
      return spec.pfails.size();
    case SpecAxis::kMechanisms:
      return spec.mechanisms.size();
    case SpecAxis::kEngines:
      return spec.engines.size();
    case SpecAxis::kKinds:
      return spec.kinds.size();
    case SpecAxis::kDcaches:
      return spec.dcaches.size();
    case SpecAxis::kTlbs:
      return spec.tlbs.size();
    case SpecAxis::kL2s:
      return spec.l2s.size();
    case SpecAxis::kDcacheMechanisms:
      return spec.dcache_mechanisms.size();
    case SpecAxis::kSampleCounts:
      return spec.sample_counts.size();
    case SpecAxis::kCcdfExceedances:
      return spec.ccdf_exceedances.size();
  }
  return 0;
}

std::string axis_label(const CampaignSpec& spec, SpecAxis axis,
                       std::size_t index) {
  PWCET_EXPECTS(index < axis_size(spec, axis));
  switch (axis) {
    case SpecAxis::kTasks:
      return spec.tasks[index];
    case SpecAxis::kGeometries:
      return geometry_label(spec.geometries[index]);
    case SpecAxis::kPfails:
      return fmt_prob(spec.pfails[index]);
    case SpecAxis::kMechanisms:
      return mechanism_name(spec.mechanisms[index]);
    case SpecAxis::kEngines:
      return engine_name(spec.engines[index]);
    case SpecAxis::kKinds:
      return analysis_kind_name(spec.kinds[index]);
    case SpecAxis::kDcaches: {
      // "-wb<N>" marks a write-back data cache with write-back penalty N.
      const DcacheAxis& d = spec.dcaches[index];
      if (!d.enabled) return "-";
      std::string label = geometry_label(d.geometry);
      if (d.policy == WritePolicy::kWriteBack)
        label += "-wb" + std::to_string(d.writeback_penalty);
      return label;
    }
    case SpecAxis::kTlbs: {
      const TlbAxis& t = spec.tlbs[index];
      if (!t.enabled) return "-";
      return std::to_string(t.entries) + "e" + std::to_string(t.ways) + "w" +
             std::to_string(t.page_bytes) + "B";
    }
    case SpecAxis::kL2s:
      return spec.l2s[index].enabled
                 ? geometry_label(spec.l2s[index].geometry)
                 : "-";
    case SpecAxis::kDcacheMechanisms:
      return dcache_mechanism_name(spec.dcache_mechanisms[index]);
    case SpecAxis::kSampleCounts:
      return std::to_string(spec.sample_counts[index]);
    case SpecAxis::kCcdfExceedances:
      return fmt_prob(spec.ccdf_exceedances[index]);
  }
  return "";
}

TextTable render_view(const CampaignResult& campaign, const SpecView& view) {
  const CampaignSpec& spec = campaign.spec;
  // Cells address jobs by expansion index, which a shard's partial result
  // vector does not follow.
  PWCET_EXPECTS(campaign.results.size() == spec.job_count());

  std::vector<std::string> header;
  for (const SpecAxis axis : view.rows) header.push_back(axis_header(axis));
  for (const ViewColumn& column : view.columns) header.push_back(column.label);
  TextTable table(std::move(header));

  const bool exceedance_rows =
      std::find(view.rows.begin(), view.rows.end(),
                SpecAxis::kCcdfExceedances) != view.rows.end();
  // The current row's index on every axis; axes that are not rows stay 0
  // unless a reference pins them.
  std::array<std::size_t, kSpecAxisCount> at{};
  const auto read = [&](const ViewRef& ref) {
    PWCET_EXPECTS(ref.value < std::size(kResultColumns));
    std::array<std::size_t, kSpecAxisCount> index = at;
    for (const auto& [axis, i] : ref.where)
      index[static_cast<std::size_t>(axis)] = i;
    const auto on = [&index](SpecAxis axis) {
      return index[static_cast<std::size_t>(axis)];
    };
    const JobResult& result = campaign.at(
        on(SpecAxis::kTasks), on(SpecAxis::kGeometries),
        on(SpecAxis::kPfails), on(SpecAxis::kMechanisms),
        on(SpecAxis::kEngines), on(SpecAxis::kKinds),
        on(SpecAxis::kDcaches), on(SpecAxis::kDcacheMechanisms),
        on(SpecAxis::kSampleCounts), on(SpecAxis::kTlbs), on(SpecAxis::kL2s));
    if (exceedance_rows && ref.value == kPwcetColumn) {
      const std::size_t point = on(SpecAxis::kCcdfExceedances);
      PWCET_EXPECTS(point < result.curve.size());
      return result.curve[point];
    }
    return std::strtod(kResultColumns[ref.value].print(result).c_str(),
                       nullptr);
  };

  // Odometer over the row axes, the last one fastest.
  for (bool more = true; more;) {
    std::vector<std::string> row;
    for (const SpecAxis axis : view.rows)
      row.push_back(axis_label(spec, axis, at[static_cast<std::size_t>(axis)]));
    for (const ViewColumn& column : view.columns) {
      const double value = read(column.value);
      if (!column.divide_by) {
        row.push_back(fmt_double(value, 0));
        continue;
      }
      const double divisor = read(*column.divide_by);
      row.push_back(divisor == 0.0 ? "-" : fmt_double(value / divisor, 3));
    }
    table.add_row(std::move(row));
    more = false;
    for (std::size_t r = view.rows.size(); r-- > 0 && !more;) {
      std::size_t& i = at[static_cast<std::size_t>(view.rows[r])];
      more = ++i < axis_size(spec, view.rows[r]);
      if (!more) i = 0;
    }
  }
  return table;
}

}  // namespace pwcet
