/// \file
/// Structured result emission for campaign runs.
///
/// One row per job, in expansion order, rendered as CSV (via
/// support/table's TextTable, so the same rows also print as an aligned
/// text table) or as JSON lines (one object per row, BENCH_*.json-style).
/// Rendering is bitwise deterministic: numbers are formatted with fixed
/// printf conversions ("%.17g" round-trips doubles exactly), and nothing
/// timing- or machine-dependent enters a row — which is what lets the
/// tests assert that an N-thread campaign reproduces a 1-thread campaign
/// byte for byte.
///
/// Campaigns with a distribution sink (spec.ccdf_exceedances non-empty)
/// additionally render a *dist* report: one row per (job, exceedance
/// point), job-major — the full pWCET curve (CCDF) of every cell, e.g.
/// the paper's Fig. 3 series. write_report_files emits it as
/// `basename`.dist.{csv,jsonl} next to the scalar report.
///
/// A spec's `view` (SpecView, docs/campaign-spec.md) pivots the report
/// rows into one paper-style table; render_view prints it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/runner.hpp"
#include "support/table.hpp"

namespace pwcet {

/// A list of spec values that a view row can iterate and `pwcet describe`
/// labels: the sweep axes in expansion order, then the distribution
/// sink's exceedance points.
enum class SpecAxis : std::uint8_t {
  kTasks,
  kGeometries,
  kPfails,
  kMechanisms,
  kEngines,
  kKinds,
  kDcaches,
  kTlbs,
  kL2s,
  kDcacheMechanisms,
  kSampleCounts,
  kCcdfExceedances,
};

/// Number of values on `axis`.
std::size_t axis_size(const CampaignSpec& spec, SpecAxis axis);

/// Label of value `index` on `axis`: the task name, "16x4x16B",
/// "1.0e-04", "SRB", "-" for a disabled cache level, ...
std::string axis_label(const CampaignSpec& spec, SpecAxis axis,
                       std::size_t index);

/// Column names of the tabular report, in order.
std::vector<std::string> report_columns();

/// The numeric report columns (wcet_ff .. bound_misses_1): the values a
/// view can show.
std::vector<std::string> report_result_columns();

/// One report value a view cell reads: numeric column `value` (an index
/// into report_result_columns()) of the job at the row's axis values,
/// with the `where` axes pinned to the given indices and every other axis
/// at its single value. On a kCcdfExceedances row, `pwcet` reads the
/// job's curve at that row's point.
struct ViewRef {
  std::size_t value = 0;
  std::vector<std::pair<SpecAxis, std::size_t>> where;

  friend bool operator==(const ViewRef&, const ViewRef&) = default;
};

struct ViewColumn {
  std::string label;
  ViewRef value;
  std::optional<ViewRef> divide_by;  ///< set: a ratio column

  friend bool operator==(const ViewColumn&, const ViewColumn&) = default;
};

/// A spec file's `view` block, resolved against the spec's axes. The spec
/// loader rejects every view in which some cell does not address exactly
/// one job, so render_view cannot fail on a loaded view.
struct SpecView {
  std::vector<SpecAxis> rows;  ///< outermost first
  std::vector<ViewColumn> columns;

  friend bool operator==(const SpecView&, const SpecView&) = default;
};

/// The view over a whole campaign: one row per combination of the row
/// axes' values, outermost first; label cells, then one cell per column.
/// A plain column prints its value as an integer, a ratio column prints
/// value / divisor with 3 decimals, or "-" when the divisor is 0.
TextTable render_view(const CampaignResult& campaign, const SpecView& view);

/// One formatted row (same order as report_columns()).
std::vector<std::string> report_row(const CampaignResult& campaign,
                                    const JobResult& result);

/// The whole campaign as an aligned text table.
TextTable report_table(const CampaignResult& campaign);

/// The whole campaign as CSV (header + one line per job).
std::string report_csv(const CampaignResult& campaign);

/// The whole campaign as JSON lines (one object per job, no header).
std::string report_jsonl(const CampaignResult& campaign);

/// One job's scalar report row as a single JSONL object line (trailing
/// newline included) — the unit that campaign-shard fragments carry
/// (engine/shard.hpp).
std::string report_jsonl_row(const CampaignResult& campaign,
                             const JobResult& result);

/// One job's distribution-sink rows: spec.ccdf_exceedances.size() JSONL
/// lines in point order; empty for scalar-only campaigns.
std::string report_dist_jsonl_rows(const CampaignResult& campaign,
                                   const JobResult& result);

/// Rebuilds per-job numeric results from rendered scalar JSONL rows: one
/// payload line per entry of `slots` (expansion-order job indices), in
/// order. The job metadata columns need no parsing — expand_campaign
/// reproduces them exactly — and the numeric tail was printed with
/// round-tripping conversions ("%.17g" / decimal integers), so the
/// reconstructed results render byte-identically to the originals. Used by
/// the runner's whole-campaign warm load (slots = all jobs) and by the
/// shard merge (slots = a fragment's covered rows). Returns false on any
/// mismatch (row count, missing fields, slot out of range), in which case
/// the caller recomputes or rejects the payload.
bool parse_campaign_report_rows(const std::string& payload,
                                const std::vector<CampaignJob>& jobs,
                                const std::vector<std::size_t>& slots,
                                std::vector<JobResult>& results);

/// Same for rendered distribution-sink rows (`points` lines per slot,
/// job-major): refills results[slot].curve.
bool parse_campaign_dist_rows(const std::string& payload, std::size_t points,
                              const std::vector<std::size_t>& slots,
                              std::vector<JobResult>& results);

/// Column names of the distribution-sink report, in order.
std::vector<std::string> report_dist_columns();

/// The distribution sink as an aligned text table / CSV / JSON lines:
/// one row per (job, spec.ccdf_exceedances entry), job-major. Empty
/// (header-only for CSV) when the spec requests no distribution output.
TextTable report_dist_table(const CampaignResult& campaign);
std::string report_dist_csv(const CampaignResult& campaign);
std::string report_dist_jsonl(const CampaignResult& campaign);

/// Writes `basename`.csv and `basename`.jsonl — plus, when the campaign
/// carries a distribution sink, `basename`.dist.csv and
/// `basename`.dist.jsonl; returns false on I/O error.
bool write_report_files(const CampaignResult& campaign,
                        const std::string& basename);

}  // namespace pwcet
