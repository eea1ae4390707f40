// Workload specs and output checks of the campaign benchmark.
//
// Each workload is one CampaignSpec generated here (never read from
// specs/, so editing a shipped spec cannot silently change the benchmark).
// README.md explains why each workload exists.
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/report.hpp"
#include "workloads/malardalen.hpp"

namespace campaignbench {
namespace {

using pwcet::AnalysisKind;
using pwcet::CacheConfig;
using pwcet::CampaignResult;
using pwcet::CampaignSpec;
using pwcet::Mechanism;

CacheConfig geometry(std::uint32_t sets, std::uint32_t ways,
                     std::uint32_t line_bytes) {
  CacheConfig config;
  config.sets = sets;
  config.ways = ways;
  config.line_bytes = line_bytes;
  return config;
}

const std::vector<Mechanism> kMechanisms = {
    Mechanism::kNone, Mechanism::kReliableWay,
    Mechanism::kSharedReliableBuffer};

/// All 25 Mälardalen tasks x 5 icache geometries x the 7-point pfail
/// ladder of specs/pfail_sweep.json x 3 mechanisms, tree engine.
CampaignSpec spta_sweep() {
  CampaignSpec spec;
  spec.tasks = pwcet::workloads::names();
  spec.geometries = {geometry(16, 4, 16), geometry(32, 2, 16),
                     geometry(8, 8, 16), geometry(32, 4, 8),
                     geometry(8, 4, 32)};
  spec.pfails = {6.1e-13, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3};
  spec.mechanisms = kMechanisms;
  spec.engines = {pwcet::WcetEngine::kTree};
  return spec;
}

/// Six tasks on the paper's icache, each cell as SPTA, MBPTA and
/// simulation over 200-chip populations; pfail 1e-2 produces fully
/// faulty sets, so the SRB replay path runs.
CampaignSpec chip_population() {
  CampaignSpec spec;
  spec.tasks = {"fibcall", "bs", "matmult", "crc", "fft", "ud"};
  spec.geometries = {geometry(16, 4, 16)};
  spec.pfails = {1e-3, 1e-2};
  spec.mechanisms = kMechanisms;
  spec.kinds = {AnalysisKind::kSpta, AnalysisKind::kMbpta,
                AnalysisKind::kSimulation};
  spec.mbpta.chips = 200;
  spec.mbpta.block_size = 20;
  spec.simulation_chips = 200;
  return spec;
}

/// Icache composed with every data-cache / TLB / L2 plugin on both
/// WCET engines.
CampaignSpec multi_domain() {
  CampaignSpec spec;
  spec.tasks = {"interp", "dispatch", "ringbuf", "fibcall", "crc", "matmult"};
  spec.geometries = {geometry(16, 4, 16)};
  spec.pfails = {1e-4};
  spec.mechanisms = kMechanisms;
  spec.engines = {pwcet::WcetEngine::kIlp, pwcet::WcetEngine::kTree};

  pwcet::DcacheAxis write_through;
  write_through.enabled = true;
  write_through.geometry = geometry(8, 4, 16);
  pwcet::DcacheAxis write_back = write_through;
  write_back.policy = pwcet::WritePolicy::kWriteBack;
  write_back.writeback_penalty = 40;
  spec.dcaches = {pwcet::DcacheAxis{}, write_through, write_back};

  pwcet::TlbAxis tlb;
  tlb.enabled = true;
  tlb.entries = 16;
  tlb.ways = 2;
  tlb.page_bytes = 64;
  spec.tlbs = {pwcet::TlbAxis{}, tlb};

  pwcet::L2Axis l2;
  l2.enabled = true;
  l2.geometry = geometry(64, 4, 32);
  l2.geometry.hit_latency = 0;
  l2.geometry.miss_penalty = 80;
  spec.l2s = {pwcet::L2Axis{}, l2};
  return spec;
}

/// Reference digests, recorded on the seed build. `spta` covers the SPTA
/// rows without their seed column and holds at every seed; `report` is
/// the whole report CSV at kDefaultSeed.
struct Reference {
  std::uint64_t spta;
  std::uint64_t report;
};

const std::map<std::string, Reference>& references() {
  static const std::map<std::string, Reference> table = {
      {"spta_sweep", {0x17f495a88e355d69ull, 0xad41e3c15f0f2be2ull}},
      {"chip_population", {0x86d028faee8f7ebcull, 0x9d09de3d30500538ull}},
      {"multi_domain", {0x8bd11cc736b42197ull, 0x66d3647e26f3177cull}},
  };
  return table;
}

/// Report digest. Deliberately not the store's KeyHasher: a change to the
/// store's key recipe must not invalidate the benchmark's references.
class Fnv1a {
 public:
  void add(const std::string& text) {
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Index of the `seed` column in report rows.
std::size_t seed_column() {
  const std::vector<std::string> columns = pwcet::report_columns();
  for (std::size_t c = 0; c < columns.size(); ++c)
    if (columns[c] == "seed") return c;
  throw std::logic_error("report has no seed column");
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"spta_sweep", "chip_population", "multi_domain"};
}

CampaignSpec make_spec(const std::string& workload, std::uint64_t seed) {
  CampaignSpec spec;
  if (workload == "spta_sweep")
    spec = spta_sweep();
  else if (workload == "chip_population")
    spec = chip_population();
  else if (workload == "multi_domain")
    spec = multi_domain();
  else
    throw std::invalid_argument("unknown workload '" + workload + "'");
  spec.target_exceedance = 1e-15;
  spec.base_seed = seed;
  return spec;
}

std::uint64_t report_digest(const CampaignResult& campaign) {
  Fnv1a hash;
  hash.add(pwcet::report_csv(campaign));
  return hash.value();
}

std::uint64_t spta_digest(const CampaignResult& campaign) {
  const std::size_t skip = seed_column();
  Fnv1a hash;
  for (const pwcet::JobResult& result : campaign.results) {
    if (result.job.kind != AnalysisKind::kSpta) continue;
    const std::vector<std::string> row = pwcet::report_row(campaign, result);
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c == skip) continue;
      hash.add(row[c]);
      hash.add(",");
    }
    hash.add("\n");
  }
  return hash.value();
}

CheckOutcome check_campaign(const std::string& workload, std::uint64_t seed,
                            const CampaignResult& campaign) {
  CheckOutcome outcome;
  std::vector<bool> failed(campaign.results.size(), false);
  auto note = [&](const std::string& problem) {
    if (outcome.problems.size() < 5) outcome.problems.push_back(problem);
  };
  auto fail = [&](std::size_t index, const std::string& problem) {
    failed[index] = true;
    note(problem);
  };
  const CampaignSpec& spec = campaign.spec;

  for (std::size_t i = 0; i < campaign.results.size(); ++i) {
    const pwcet::JobResult& result = campaign.results[i];
    const pwcet::CampaignJob& job = result.job;
    if (job.kind == AnalysisKind::kSpta) {
      if (!(result.pwcet >= static_cast<double>(result.fault_free_wcet)))
        fail(i, job.id() + ": pwcet below wcet_ff");
      continue;
    }
    // A measured or simulated cell must stay under the static bound of the
    // same (task, geometry, pfail, mechanism, ...) cell, when the spec
    // runs one.
    for (std::size_t k = 0; k < spec.kinds.size(); ++k) {
      if (spec.kinds[k] != AnalysisKind::kSpta) continue;
      const pwcet::JobResult& spta =
          campaign.at(job.task_i, job.geometry_i, job.pfail_i,
                      job.mechanism_i, job.engine_i, k, job.dcache_i,
                      job.dmech_i, job.samples_i, job.tlb_i, job.l2_i);
      if (!(spta.pwcet >= result.observed_max))
        fail(i, job.id() + ": observed_max above the SPTA pwcet");
    }
  }

  const auto reference = references().find(workload);
  if (reference == references().end())
    throw std::invalid_argument("no reference digest for '" + workload + "'");
  const std::uint64_t spta = spta_digest(campaign);
  if (spta != reference->second.spta) {
    note("SPTA digest " + hex(spta) + " differs from reference " +
         hex(reference->second.spta));
    for (std::size_t i = 0; i < campaign.results.size(); ++i)
      if (campaign.results[i].job.kind == AnalysisKind::kSpta)
        failed[i] = true;
  }
  if (seed == kDefaultSeed) {
    const std::uint64_t report = report_digest(campaign);
    if (report != reference->second.report) {
      note("report digest " + hex(report) + " differs from reference " +
           hex(reference->second.report));
      failed.assign(failed.size(), true);
    }
  }

  for (const bool f : failed) outcome.failed_jobs += f ? 1 : 0;
  return outcome;
}

}  // namespace campaignbench
