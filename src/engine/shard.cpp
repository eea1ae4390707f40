#include "engine/shard.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "engine/report.hpp"
#include "store/artifact_store.hpp"
#include "store/merge.hpp"

namespace pwcet {
namespace {

namespace fs = std::filesystem;

/// Parses one non-negative integer field ("name":123) out of a JSON meta
/// line rendered by this file; false when absent, signed or malformed.
bool json_u64_field(const std::string& line, const char* name,
                    std::uint64_t& out) {
  std::string needle = "\"";
  needle += name;
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  return std::from_chars(line.data() + at + needle.size(),
                         line.data() + line.size(), out)
             .ec == std::errc();
}

/// Parses a string field ("name":"...") — values rendered by this file
/// never contain escapes, so scanning to the closing quote is exact.
bool json_string_field(const std::string& line, const char* name,
                       std::string& out) {
  std::string needle = "\"";
  needle += name;
  needle += "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  out = line.substr(begin, end - begin);
  return true;
}

/// Compresses ascending slot indices into "a-b,c,d-e" range notation —
/// shards own whole schedule-order groups, so runs are common and the
/// meta line stays short even for huge campaigns.
std::string render_slot_ranges(const std::vector<std::size_t>& slots) {
  std::string out;
  std::size_t i = 0;
  while (i < slots.size()) {
    std::size_t j = i;
    while (j + 1 < slots.size() && slots[j + 1] == slots[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(slots[i]);
    if (j > i) {
      out += '-';
      out += std::to_string(slots[j]);
    }
    i = j + 1;
  }
  return out;
}

/// Inverse of render_slot_ranges for a campaign of `job_count` jobs;
/// false on malformed or signed text, a sequence that is not strictly
/// ascending, a slot at or beyond `job_count`, or more than `max_slots`
/// slots. Both bounds are checked before a range is expanded.
bool parse_slot_ranges(const std::string& text, std::size_t job_count,
                       std::size_t max_slots,
                       std::vector<std::size_t>& slots) {
  slots.clear();
  if (text.empty()) return true;  // an empty shard covers no slots
  std::istringstream segments(text);
  std::string segment;
  while (std::getline(segments, segment, ',')) {
    const char* const end = segment.data() + segment.size();
    std::uint64_t first = 0;
    std::from_chars_result read = std::from_chars(segment.data(), end, first);
    if (read.ec != std::errc()) return false;
    std::uint64_t last = first;
    if (read.ptr != end) {
      if (*read.ptr != '-') return false;
      read = std::from_chars(read.ptr + 1, end, last);
      if (read.ec != std::errc() || read.ptr != end || last < first)
        return false;
    }
    if (last >= job_count || (!slots.empty() && first <= slots.back()) ||
        last - first >= max_slots - slots.size())
      return false;
    for (std::uint64_t s = first; s <= last; ++s) slots.push_back(s);
  }
  return true;
}

/// Splits a payload's lines after the meta line into the scalar block
/// (`report_lines` lines) and the dist block (the rest).
bool split_fragment_rows(const std::string& payload,
                         std::size_t report_lines, std::string& report_rows,
                         std::string& dist_rows, std::size_t& dist_lines) {
  std::istringstream lines(payload);
  std::string line;
  if (!std::getline(lines, line)) return false;  // meta line
  report_rows.clear();
  dist_rows.clear();
  dist_lines = 0;
  std::size_t row = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (row < report_lines) {
      report_rows += line;
      report_rows += '\n';
    } else {
      dist_rows += line;
      dist_rows += '\n';
      ++dist_lines;
    }
    ++row;
  }
  return row >= report_lines;
}

/// One scanned fragment: its parsed form plus provenance for diagnostics
/// and duplicate detection.
struct ScannedFragment {
  ShardFragment fragment;
  std::string path;     ///< artifact file, for error messages
  std::string payload;  ///< raw bytes, for duplicate comparison
};

}  // namespace

bool parse_shard_selector(const std::string& text, ShardSelector& shard) {
  unsigned long long index = 0, count = 0;
  char extra = '\0';
  if (std::sscanf(text.c_str(), "%llu/%llu%c", &index, &count, &extra) != 2)
    return false;
  if (index < 1 || count < 1 || index > count || count > kMaxShardCount)
    return false;
  shard.index = static_cast<std::size_t>(index - 1);
  shard.count = static_cast<std::size_t>(count);
  return true;
}

std::vector<std::vector<std::size_t>> campaign_group_schedule(
    const std::vector<CampaignJob>& jobs) {
  // Group jobs that can share one analyzer / one program build. std::map
  // keeps the pre-sort order deterministic.
  std::map<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                      std::size_t, std::size_t>,
           std::vector<std::size_t>>
      groups;
  for (const CampaignJob& job : jobs)
    groups[{job.task_i, job.geometry_i, job.engine_i, job.dcache_i,
            job.tlb_i, job.l2_i}]
        .push_back(job.index);

  // Cache-aware order: sort groups by their shared store-key prefix so
  // groups that reuse the same memo entries (duplicate axis values,
  // content-equal geometries) run adjacently and stay hot in the bounded
  // LRU. The axis tuple breaks ties, keeping the order a pure function of
  // the spec. Output is unaffected: result slots are indexed.
  std::vector<std::pair<StoreKey, std::vector<std::size_t>>> ordered;
  ordered.reserve(groups.size());
  for (auto& [key, members] : groups)
    ordered.emplace_back(campaign_group_key(jobs[members.front()]),
                         std::move(members));
  std::stable_sort(
      ordered.begin(), ordered.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });

  // Members are listed in expansion order and the runner runs them in
  // any order: every mechanism assignment's re-weighting bundle lives in
  // the group's one pipeline for the whole group (analysis/pipeline.cpp),
  // so member order changes no reuse.
  std::vector<std::vector<std::size_t>> schedule;
  schedule.reserve(ordered.size());
  for (auto& [key, members] : ordered) schedule.push_back(std::move(members));
  return schedule;
}

std::pair<std::size_t, std::size_t> shard_group_range(
    std::size_t group_count, const ShardSelector& shard) {
  // floor(i*G/N) boundaries: contiguous, exhaustive, balanced to within
  // one group. Computed in this exact form everywhere so partition and
  // runner agree.
  const std::size_t first = group_count * shard.index / shard.count;
  const std::size_t last = group_count * (shard.index + 1) / shard.count;
  return {first, last};
}

std::vector<std::size_t> shard_job_slots(
    const std::vector<std::vector<std::size_t>>& schedule,
    const ShardSelector& shard) {
  const auto [first, last] = shard_group_range(schedule.size(), shard);
  std::vector<std::size_t> slots;
  for (std::size_t g = first; g < last; ++g)
    slots.insert(slots.end(), schedule[g].begin(), schedule[g].end());
  std::sort(slots.begin(), slots.end());
  return slots;
}

std::vector<std::size_t> shard_assignment(
    const std::vector<std::vector<std::size_t>>& schedule,
    std::size_t job_count, std::size_t shard_count) {
  std::vector<std::size_t> assignment(job_count, 0);
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    const auto [first, last] =
        shard_group_range(schedule.size(), {shard, shard_count});
    for (std::size_t g = first; g < last; ++g)
      for (const std::size_t job : schedule[g]) assignment[job] = shard;
  }
  return assignment;
}

StoreKey shard_fragment_key(const StoreKey& spec_key, std::size_t index,
                            std::size_t count) {
  return KeyHasher("campaign-shard-v1")
      .mix_key(spec_key)
      .mix_u64(index)
      .mix_u64(count)
      .finish();
}

std::string render_shard_fragment(const ShardFragment& fragment) {
  std::string meta = "{\"schema\":\"";
  meta += kShardFragmentSchema;
  meta += "\",\"spec_key\":\"";
  meta += fragment.spec_key;
  meta += "\",\"shard\":";
  meta += std::to_string(fragment.index + 1);  // 1-based, the CLI spelling
  meta += ",\"of\":";
  meta += std::to_string(fragment.count);
  meta += ",\"jobs\":";
  meta += std::to_string(fragment.job_count);
  meta += ",\"points\":";
  meta += std::to_string(fragment.curve_points);
  meta += ",\"slots\":\"";
  meta += render_slot_ranges(fragment.slots);
  meta += "\"}\n";
  return meta + fragment.report_rows + fragment.dist_rows;
}

bool parse_shard_fragment(const std::string& payload, ShardFragment& fragment,
                          std::string& error) {
  const std::size_t meta_end = payload.find('\n');
  const std::string meta = payload.substr(
      0, meta_end == std::string::npos ? payload.size() : meta_end);
  const std::string expected_prefix =
      std::string("{\"schema\":\"") + kShardFragmentSchema + "\",";
  if (meta.rfind(expected_prefix, 0) != 0) {
    error = "unrecognized fragment schema (want " +
            std::string(kShardFragmentSchema) + ")";
    return false;
  }
  std::uint64_t shard_1based = 0, count = 0, jobs = 0, points = 0;
  std::string slots_text;
  if (!json_string_field(meta, "spec_key", fragment.spec_key) ||
      fragment.spec_key.size() != 32 ||
      !json_u64_field(meta, "shard", shard_1based) ||
      !json_u64_field(meta, "of", count) ||
      !json_u64_field(meta, "jobs", jobs) ||
      !json_u64_field(meta, "points", points) ||
      !json_string_field(meta, "slots", slots_text)) {
    error = "malformed fragment meta line";
    return false;
  }
  if (shard_1based < 1 || count < 1 || shard_1based > count ||
      count > kMaxShardCount) {
    error = "fragment shard index " + std::to_string(shard_1based) + "/" +
            std::to_string(count) + " out of range";
    return false;
  }
  fragment.index = static_cast<std::size_t>(shard_1based - 1);
  fragment.count = static_cast<std::size_t>(count);
  fragment.job_count = static_cast<std::size_t>(jobs);
  fragment.curve_points = static_cast<std::size_t>(points);
  // Every slot needs a report row, so the payload's line count bounds
  // the list before it is expanded.
  const auto rows = static_cast<std::size_t>(
      std::count(payload.begin(), payload.end(), '\n'));
  if (!parse_slot_ranges(slots_text, fragment.job_count, rows,
                         fragment.slots)) {
    error = "malformed fragment slot list '" + slots_text +
            "' (want ascending slots below the fragment's " +
            std::to_string(fragment.job_count) + " jobs, one row each)";
    return false;
  }
  std::size_t dist_lines = 0;
  if (!split_fragment_rows(payload, fragment.slots.size(),
                           fragment.report_rows, fragment.dist_rows,
                           dist_lines)) {
    error = "fragment carries fewer report rows than covered slots";
    return false;
  }
  if (dist_lines != fragment.slots.size() * fragment.curve_points) {
    error = "fragment distribution rows (" + std::to_string(dist_lines) +
            ") do not match slots x points (" +
            std::to_string(fragment.slots.size() * fragment.curve_points) +
            ")";
    return false;
  }
  return true;
}

ShardRunOutcome run_campaign_shard(const CampaignSpec& spec,
                                   const ShardSelector& shard,
                                   const RunnerOptions& options,
                                   const std::string& cache_dir) {
  const std::vector<CampaignJob> jobs = expand_campaign(spec);
  const std::vector<std::vector<std::size_t>> schedule =
      campaign_group_schedule(jobs);

  ShardRunOutcome outcome;
  outcome.shard = shard;
  outcome.slots = shard_job_slots(schedule, shard);

  RunnerOptions run_options = options;
  run_options.shard = shard;
  outcome.campaign = run_campaign(spec, run_options);

  const StoreKey spec_key = campaign_spec_key(spec);
  ShardFragment fragment;
  fragment.index = shard.index;
  fragment.count = shard.count;
  fragment.spec_key = spec_key.hex();
  fragment.job_count = jobs.size();
  fragment.curve_points = spec.ccdf_exceedances.size();
  fragment.slots = outcome.slots;
  for (const std::size_t slot : outcome.slots) {
    fragment.report_rows +=
        report_jsonl_row(outcome.campaign, outcome.campaign.results[slot]);
    fragment.dist_rows += report_dist_jsonl_rows(
        outcome.campaign, outcome.campaign.results[slot]);
  }

  // The fragment store is independent of options.store: a --store off
  // shard run still writes a mergeable fragment. Sweep crash debris first
  // — shards share cache directories, and a dead writer's temp files
  // should not accumulate across campaigns.
  const ArtifactStore store({cache_dir});
  store.sweep_orphans();
  if (!store.store_text(kShardFragmentKind,
                        shard_fragment_key(spec_key, shard.index,
                                           shard.count),
                        render_shard_fragment(fragment)))
    throw std::runtime_error("cannot write shard fragment artifact into " +
                             cache_dir);
  return outcome;
}

CampaignResult shard_view(const ShardRunOutcome& outcome) {
  CampaignResult view;
  view.spec = outcome.campaign.spec;
  view.threads_used = outcome.campaign.threads_used;
  view.wall_seconds = outcome.campaign.wall_seconds;
  view.store_stats = outcome.campaign.store_stats;
  view.results.reserve(outcome.slots.size());
  for (const std::size_t slot : outcome.slots)
    view.results.push_back(outcome.campaign.results[slot]);
  return view;
}

ShardMergeOutcome merge_campaign_shards(const CampaignSpec& spec,
                                        const ShardMergeOptions& options) {
  if (options.from_dirs.empty())
    throw ShardMergeError("no shard directories to merge");
  const std::vector<CampaignJob> jobs = expand_campaign(spec);
  const StoreKey spec_key = campaign_spec_key(spec);
  const std::string spec_key_hex = spec_key.hex();
  const std::size_t points = spec.ccdf_exceedances.size();

  // Scan every directory's fragment artifacts. Any file in the fragment
  // directory that does not validate is a hard error: merging around a
  // corrupted fragment would silently drop a shard.
  std::vector<ScannedFragment> scanned;
  for (const std::string& dir : options.from_dirs) {
    const fs::path fragment_dir = fs::path(dir) / kShardFragmentKind;
    std::error_code ec;
    if (!fs::exists(fragment_dir, ec)) continue;
    fs::directory_iterator files(fragment_dir, ec);
    if (ec)
      throw ShardMergeError("cannot read " + fragment_dir.string() + ": " +
                            ec.message());
    const ArtifactStore store({dir});
    for (const fs::directory_entry& file : files) {
      if (!file.is_regular_file(ec)) continue;
      const ArtifactFile what = classify_artifact_file(
          kShardFragmentKind, file.path().filename().string());
      if (what == ArtifactFile::kOrphan) continue;  // swept elsewhere
      if (what == ArtifactFile::kForeign) {
        if (file.path().extension() != ".jsonl") continue;
        throw ShardMergeError("foreign file in fragment directory: " +
                              file.path().string());
      }
      StoreKey key;  // an artifact's file stem always parses
      store_key_from_hex(file.path().stem().string(), key);
      const std::optional<std::string> payload =
          store.load_text(kShardFragmentKind, key);
      if (!payload)
        throw ShardMergeError("corrupted shard fragment artifact: " +
                              file.path().string() +
                              " (header or payload-hash validation failed)");
      ScannedFragment entry;
      entry.path = file.path().string();
      entry.payload = *payload;
      std::string error;
      if (!parse_shard_fragment(entry.payload, entry.fragment, error))
        throw ShardMergeError("invalid shard fragment " + entry.path + ": " +
                              error);
      scanned.push_back(std::move(entry));
    }
  }

  // Keep this spec's fragments; a directory holding only foreign-spec
  // fragments is named (the likeliest cause is merging the wrong spec
  // file against the right directories, or vice versa).
  std::vector<ScannedFragment> matching;
  for (ScannedFragment& entry : scanned)
    if (entry.fragment.spec_key == spec_key_hex)
      matching.push_back(std::move(entry));
  if (matching.empty()) {
    if (!scanned.empty())
      throw ShardMergeError(
          "spec-key mismatch: fragment " + scanned.front().path +
          " carries spec key " + scanned.front().fragment.spec_key +
          ", want " + spec_key_hex + " (no fragments of this spec found)");
    throw ShardMergeError("no shard fragments found under the given "
                          "directories (looked for " +
                          std::string(kShardFragmentKind) + "/*.jsonl)");
  }

  // Resolve the partition's shard count, honoring --shards when given.
  std::size_t shard_count = options.shard_count;
  if (shard_count == 0) {
    for (const ScannedFragment& entry : matching) {
      if (shard_count == 0) {
        shard_count = entry.fragment.count;
      } else if (entry.fragment.count != shard_count) {
        throw ShardMergeError(
            "fragments disagree on the shard count (" +
            std::to_string(shard_count) + " vs " +
            std::to_string(entry.fragment.count) +
            "); pass --shards N to select one partition");
      }
    }
  }

  // Collate by shard index: duplicates must be byte-identical (reruns of
  // the same shard into the same or different directories), and every
  // index must be present.
  std::vector<const ScannedFragment*> by_index(shard_count, nullptr);
  for (const ScannedFragment& entry : matching) {
    if (entry.fragment.count != shard_count) continue;  // other partition
    const std::size_t index = entry.fragment.index;
    if (by_index[index] != nullptr) {
      if (by_index[index]->payload != entry.payload)
        throw ShardMergeError(
            "duplicate shard " + std::to_string(index + 1) + "/" +
            std::to_string(shard_count) + ": " + by_index[index]->path +
            " and " + entry.path + " differ");
      continue;  // identical rerun; keep the first
    }
    by_index[index] = &entry;
  }
  for (std::size_t i = 0; i < shard_count; ++i)
    if (by_index[i] == nullptr)
      throw ShardMergeError("missing shard " + std::to_string(i + 1) + "/" +
                            std::to_string(shard_count) + " for spec key " +
                            spec_key_hex);

  // The fragments must exactly partition the campaign's job slots.
  ShardMergeOutcome outcome;
  outcome.shard_count = shard_count;
  outcome.campaign.spec = spec;
  outcome.campaign.results.resize(jobs.size());
  std::vector<bool> covered(jobs.size(), false);
  for (const ScannedFragment* entry : by_index) {
    const ShardFragment& fragment = entry->fragment;
    if (fragment.job_count != jobs.size() || fragment.curve_points != points)
      throw ShardMergeError(
          "fragment " + entry->path + " does not match the spec (" +
          std::to_string(fragment.job_count) + " jobs / " +
          std::to_string(fragment.curve_points) + " points, spec has " +
          std::to_string(jobs.size()) + " / " + std::to_string(points) +
          ")");
    for (const std::size_t slot : fragment.slots) {
      if (covered[slot])
        throw ShardMergeError(
            "shard fragments do not partition the campaign: job slot " +
            std::to_string(slot) + " is covered twice (second time by " +
            entry->path + ")");
      covered[slot] = true;
    }
    if (!parse_campaign_report_rows(fragment.report_rows, jobs,
                                    fragment.slots,
                                    outcome.campaign.results))
      throw ShardMergeError("fragment " + entry->path +
                            ": malformed report rows");
    if (points > 0 &&
        !parse_campaign_dist_rows(fragment.dist_rows, points, fragment.slots,
                                  outcome.campaign.results))
      throw ShardMergeError("fragment " + entry->path +
                            ": malformed distribution rows");
  }
  for (std::size_t slot = 0; slot < covered.size(); ++slot)
    if (!covered[slot])
      throw ShardMergeError(
          "shard fragments do not partition the campaign: job slot " +
          std::to_string(slot) + " is covered by no shard");

  // Store union, then save the merged campaign into it so a future
  // `pwcet run` against the union answers from the warm path.
  if (!options.into_dir.empty()) {
    try {
      const StoreMergeStats stats =
          merge_artifact_dirs(options.from_dirs, options.into_dir);
      outcome.artifacts_copied = stats.copied;
      outcome.artifacts_identical = stats.identical;
    } catch (const StoreMergeError& e) {
      throw ShardMergeError(e.what());
    }
    AnalysisStore into({.artifact_dir = options.into_dir});
    save_campaign(into, spec_key, outcome.campaign);
  }
  return outcome;
}

}  // namespace pwcet
