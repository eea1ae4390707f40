#include "engine/campaign.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <tuple>
#include <utility>

#include "engine/names.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet {
namespace {

/// FNV-1a over a string, as one 64-bit stream id per task name.
std::uint64_t hash_name(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_geometry(const CacheConfig& g) {
  std::uint64_t h = g.sets;
  h = h * 0x100000001b3ULL + g.ways;
  h = h * 0x100000001b3ULL + g.line_bytes;
  h = h * 0x100000001b3ULL + static_cast<std::uint64_t>(g.hit_latency);
  h = h * 0x100000001b3ULL + static_cast<std::uint64_t>(g.miss_penalty);
  return h;
}

bool contains(const std::vector<AnalysisKind>& kinds, AnalysisKind kind) {
  return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
}

std::string indexed(const char* key, std::size_t i) {
  return std::string(key) + "[" + std::to_string(i) + "]";
}

std::optional<SpecViolation> violation(std::string path,
                                       std::string message) {
  return SpecViolation{std::move(path), std::move(message)};
}

std::string multiple_of_instruction(const char* field) {
  return std::string(field) + " must be a positive multiple of " +
         std::to_string(kInstructionBytes) + " (the instruction size)";
}

/// Rules of the cache geometry at `key`[i] (geometries, dcaches, l2s).
std::optional<SpecViolation> check_geometry(const CacheConfig& g,
                                            const char* key, std::size_t i) {
  const auto at = [&](const char* field, std::string message) {
    return violation(indexed(key, i) + "." + field, std::move(message));
  };
  if (g.sets == 0) return at("sets", "sets must be positive");
  if (g.ways == 0) return at("ways", "ways must be positive");
  if (g.ways > kMaxGeometryWays)
    return at("ways",
              "ways must be at most " + std::to_string(kMaxGeometryWays));
  if (std::uint64_t{g.sets} * g.ways > kMaxGeometryLines)
    return at("sets", "sets x ways must be at most " +
                          std::to_string(kMaxGeometryLines) + " lines");
  if (g.line_bytes == 0 || g.line_bytes % kInstructionBytes != 0)
    return at("line_bytes", multiple_of_instruction("line_bytes"));
  if (g.hit_latency < 0)
    return at("hit_latency", "hit_latency must be non-negative");
  if (g.miss_penalty < 0)
    return at("miss_penalty", "miss_penalty must be non-negative");
  return std::nullopt;
}

std::optional<SpecViolation> check_tlb(const TlbAxis& t, std::size_t i) {
  const auto at = [i](const char* field, std::string message) {
    return violation(indexed("tlbs", i) + "." + field, std::move(message));
  };
  if (t.ways == 0) return at("ways", "ways must be positive");
  if (t.ways > kMaxGeometryWays)
    return at("ways",
              "ways must be at most " + std::to_string(kMaxGeometryWays));
  if (t.entries > kMaxGeometryLines)
    return at("entries",
              "entries must be at most " + std::to_string(kMaxGeometryLines));
  if (t.entries == 0 || t.entries % t.ways != 0)
    return at("entries",
              "entries must be a positive multiple of ways (the TLB is "
              "modeled as entries/ways sets of `ways` translations)");
  if (t.page_bytes == 0 || t.page_bytes % kInstructionBytes != 0)
    return at("page_bytes", multiple_of_instruction("page_bytes"));
  if (t.miss_penalty < 0)
    return at("miss_penalty", "miss_penalty must be non-negative");
  return std::nullopt;
}

}  // namespace

Mechanism CampaignJob::resolved_dmech() const {
  switch (dmech) {
    case DcacheMechanism::kSame:
      return mechanism;
    case DcacheMechanism::kNone:
      return Mechanism::kNone;
    case DcacheMechanism::kReliableWay:
      return Mechanism::kReliableWay;
    case DcacheMechanism::kSharedReliableBuffer:
      return Mechanism::kSharedReliableBuffer;
  }
  return mechanism;
}

std::optional<SpecViolation> CampaignSpec::validate() const {
  const std::pair<bool, const char*> axes[] = {
      {tasks.empty(), "tasks"}, {geometries.empty(), "geometries"},
      {pfails.empty(), "pfails"}, {mechanisms.empty(), "mechanisms"},
      {engines.empty(), "engines"}, {kinds.empty(), "kinds"},
      {dcaches.empty(), "dcaches"}, {tlbs.empty(), "tlbs"},
      {l2s.empty(), "l2s"}, {dcache_mechanisms.empty(), "dcache_mechanisms"},
      {sample_counts.empty(), "sample_counts"}};
  for (const auto& [empty, key] : axes)
    if (empty)
      return violation(key, std::string("\"") + key + "\" must not be empty");

  const std::vector<std::string> known = workloads::all_names();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (std::find(known.begin(), known.end(), tasks[i]) != known.end())
      continue;
    std::string message = "unknown task \"" + tasks[i] + "\"";
    const std::string hint = closest_match(tasks[i], known);
    if (!hint.empty()) message += " — did you mean \"" + hint + "\"?";
    message += " (`pwcet list` prints the built-in tasks)";
    return violation(indexed("tasks", i), std::move(message));
  }
  for (std::size_t i = 0; i < geometries.size(); ++i)
    if (auto v = check_geometry(geometries[i], "geometries", i)) return v;
  for (std::size_t i = 0; i < pfails.size(); ++i)
    if (!(pfails[i] >= 0.0 && pfails[i] <= 1.0))
      return violation(indexed("pfails", i),
                       "cell failure probability must be in [0, 1]");
  for (std::size_t i = 0; i < dcaches.size(); ++i) {
    if (!dcaches[i].enabled) continue;
    if (auto v = check_geometry(dcaches[i].geometry, "dcaches", i)) return v;
    if (dcaches[i].writeback_penalty < 0)
      return violation(indexed("dcaches", i) + ".writeback_penalty",
                       "writeback_penalty must be non-negative");
  }
  for (std::size_t i = 0; i < tlbs.size(); ++i)
    if (tlbs[i].enabled)
      if (auto v = check_tlb(tlbs[i], i)) return v;
  for (std::size_t i = 0; i < l2s.size(); ++i)
    if (l2s[i].enabled)
      if (auto v = check_geometry(l2s[i].geometry, "l2s", i)) return v;

  if (!(target_exceedance > 0.0 && target_exceedance <= 1.0))
    return violation("target_exceedance",
                     "target_exceedance must be in (0, 1]");
  for (std::size_t i = 0; i < ccdf_exceedances.size(); ++i)
    if (!(ccdf_exceedances[i] > 0.0 && ccdf_exceedances[i] <= 1.0))
      return violation(indexed("ccdf_exceedances", i),
                       "exceedance probability must be in (0, 1]");
  if (max_distribution_points < 2)
    return violation("max_distribution_points",
                     "max_distribution_points must be at least 2");
  if (mbpta.chips == 0)
    return violation("mbpta.chips", "mbpta.chips must be positive");
  if (mbpta.block_size == 0)
    return violation("mbpta.block_size", "mbpta.block_size must be positive");
  if (simulation_chips == 0)
    return violation("simulation_chips", "simulation_chips must be positive");

  if (contains(kinds, AnalysisKind::kMbpta)) {
    // Division form: 2 * block_size wraps for huge block sizes.
    if (mbpta.block_size > mbpta.chips / 2)
      return violation("mbpta.chips",
                       "mbpta.chips must be at least 2 * mbpta.block_size "
                       "when \"kinds\" includes \"mbpta\"");
    for (std::size_t i = 0; i < sample_counts.size(); ++i)
      if (sample_counts[i] != 0 && mbpta.block_size > sample_counts[i] / 2)
        return violation(indexed("sample_counts", i),
                         "sample_counts entries must be at least 2 * "
                         "mbpta.block_size (or 0 for the default) when "
                         "\"kinds\" includes \"mbpta\"");
    // The Gumbel quantile is defined for exceedances strictly below 1.
    if (target_exceedance >= 1.0)
      return violation("target_exceedance",
                       "target_exceedance must be below 1 when \"kinds\" "
                       "includes \"mbpta\"");
    for (std::size_t i = 0; i < ccdf_exceedances.size(); ++i)
      if (ccdf_exceedances[i] >= 1.0)
        return violation(indexed("ccdf_exceedances", i),
                         "ccdf_exceedances entries must be below 1 when "
                         "\"kinds\" includes \"mbpta\"");
  }
  // The MBPTA protocol, the fault-injection simulator and the slack oracle
  // model the instruction cache only; combined multi-domain analyses
  // (D-cache, TLB, shared L2) exist only for the SPTA pipeline
  // (analysis/pipeline.hpp).
  const auto enabled = [](const auto& axis) {
    return std::any_of(axis.begin(), axis.end(),
                       [](const auto& entry) { return entry.enabled; });
  };
  const std::tuple<bool, const char*, const char*> domains[] = {
      {enabled(dcaches), "dcaches", "a data cache"},
      {enabled(tlbs), "tlbs", "a TLB"},
      {enabled(l2s), "l2s", "a shared L2"}};
  for (const auto& [on, key, domain] : domains)
    for (const AnalysisKind kind : kinds)
      if (on && kind != AnalysisKind::kSpta)
        return violation(key, "kind \"" + analysis_kind_name(kind) +
                                  "\" does not support " + domain + "; \"" +
                                  key + "\" entries other than null need "
                                  "kinds = [\"spta\"]");
  // Conservatism is measured against a reliability mechanism's static
  // bound; the unprotected cache has no such bound to compare.
  if (contains(kinds, AnalysisKind::kSlack))
    for (std::size_t i = 0; i < mechanisms.size(); ++i)
      if (mechanisms[i] == Mechanism::kNone)
        return violation(indexed("mechanisms", i),
                         "kind \"slack\" measures a reliability mechanism's "
                         "conservatism; \"mechanisms\" must contain only "
                         "\"SRB\" / \"RW\"");

  const auto too_large = [](std::string path, const char* what) {
    return violation(std::move(path), std::string(what) + " must be at most " +
                                          std::to_string(kMaxPopulation));
  };
  if (simulation_chips > kMaxPopulation)
    return too_large("simulation_chips", "simulation_chips");
  if (mbpta.chips > kMaxPopulation)
    return too_large("mbpta.chips", "mbpta.chips");
  for (std::size_t i = 0; i < sample_counts.size(); ++i)
    if (sample_counts[i] > kMaxPopulation)
      return too_large(indexed("sample_counts", i), "sample_counts entries");
  return std::nullopt;
}

std::string CampaignJob::id() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s/%ux%ux%uB/%.1e/%s/%s/%s", task.c_str(),
                geometry.sets, geometry.ways, geometry.line_bytes, pfail,
                mechanism_name(mechanism).c_str(),
                engine_name(engine).c_str(),
                analysis_kind_name(kind).c_str());
  std::string out = buf;
  if (dcache.enabled) {
    char policy[24] = "";
    if (dcache.policy == WritePolicy::kWriteBack)
      std::snprintf(policy, sizeof policy, "-wb%lld",
                    static_cast<long long>(dcache.writeback_penalty));
    std::snprintf(buf, sizeof buf, "/D%ux%ux%uB%s/%s", dcache.geometry.sets,
                  dcache.geometry.ways, dcache.geometry.line_bytes, policy,
                  dcache_mechanism_name(dmech).c_str());
    out += buf;
  }
  if (tlb.enabled) {
    std::snprintf(buf, sizeof buf, "/T%ue%uw%uB", tlb.entries, tlb.ways,
                  tlb.page_bytes);
    out += buf;
  }
  if (l2.enabled) {
    std::snprintf(buf, sizeof buf, "/L%ux%ux%uB", l2.geometry.sets,
                  l2.geometry.ways, l2.geometry.line_bytes);
    out += buf;
  }
  if (samples != 0) {
    std::snprintf(buf, sizeof buf, "/n%zu", samples);
    out += buf;
  }
  return out;
}

std::uint64_t campaign_job_seed(const CampaignSpec& spec,
                                const CampaignJob& job) {
  // Chain every key field through the seed so two jobs differing in any
  // axis value get unrelated streams; fields are hashed by *value* so the
  // seed is invariant under reordering / extending the spec's axes.
  std::uint64_t seed = spec.base_seed;
  seed = Rng::derive_seed(seed, hash_name(job.task));
  seed = Rng::derive_seed(seed, hash_geometry(job.geometry));
  seed = Rng::derive_seed(seed, std::bit_cast<std::uint64_t>(job.pfail));
  seed = Rng::derive_seed(seed, static_cast<std::uint64_t>(job.mechanism));
  seed = Rng::derive_seed(seed, static_cast<std::uint64_t>(job.engine));
  seed = Rng::derive_seed(seed, static_cast<std::uint64_t>(job.kind));
  // The extension axes join the chain only when they are meaningful for
  // the cell — mirroring id()'s suffix rule — so (a) campaigns predating
  // these axes keep their published seeds (their default-valued cells
  // derive through the exact historic chain), and (b) cells differing
  // only in an *ignored* axis value (a dcache mechanism without a data
  // cache, or two pairings resolving to the same mechanism) cannot carry
  // different seeds for identical computations.
  if (job.dcache.enabled) {
    seed = Rng::derive_seed(seed, hash_geometry(job.dcache.geometry));
    seed = Rng::derive_seed(seed,
                            static_cast<std::uint64_t>(job.resolved_dmech()));
    if (job.dcache.policy == WritePolicy::kWriteBack) {
      // Tag words keep the chains of the optional axes from aliasing
      // each other (a TLB geometry must never derive the same seed as an
      // identical L2 geometry).
      seed = Rng::derive_seed(seed, 0x5742);  // "WB"
      seed = Rng::derive_seed(
          seed, static_cast<std::uint64_t>(job.dcache.writeback_penalty));
    }
  }
  if (job.tlb.enabled) {
    seed = Rng::derive_seed(seed, 0x544c42);  // "TLB"
    seed = Rng::derive_seed(seed, hash_geometry(job.tlb.geometry()));
  }
  if (job.l2.enabled) {
    seed = Rng::derive_seed(seed, 0x4c32);  // "L2"
    seed = Rng::derive_seed(seed, hash_geometry(job.l2.geometry));
  }
  if (job.samples != 0)
    seed = Rng::derive_seed(seed, static_cast<std::uint64_t>(job.samples));
  return seed;
}

std::vector<CampaignJob> expand_campaign(const CampaignSpec& spec) {
  if (const std::optional<SpecViolation> v = spec.validate()) {
    const std::string what =
        "CampaignSpec field \"" + v->path + "\": " + v->message;
    detail::contract_failure("precondition", what.c_str(), __FILE__,
                             __LINE__);
  }
  std::vector<CampaignJob> jobs;
  jobs.reserve(spec.job_count());
  for (std::size_t t = 0; t < spec.tasks.size(); ++t)
    for (std::size_t g = 0; g < spec.geometries.size(); ++g)
      for (std::size_t p = 0; p < spec.pfails.size(); ++p)
        for (std::size_t m = 0; m < spec.mechanisms.size(); ++m)
          for (std::size_t e = 0; e < spec.engines.size(); ++e)
            for (std::size_t k = 0; k < spec.kinds.size(); ++k)
              for (std::size_t d = 0; d < spec.dcaches.size(); ++d)
                for (std::size_t tl = 0; tl < spec.tlbs.size(); ++tl)
                  for (std::size_t l2 = 0; l2 < spec.l2s.size(); ++l2)
                    for (std::size_t dm = 0;
                         dm < spec.dcache_mechanisms.size(); ++dm)
                      for (std::size_t n = 0; n < spec.sample_counts.size();
                           ++n) {
                        CampaignJob job;
                        job.index = jobs.size();
                        job.task_i = t;
                        job.geometry_i = g;
                        job.pfail_i = p;
                        job.mechanism_i = m;
                        job.engine_i = e;
                        job.kind_i = k;
                        job.dcache_i = d;
                        job.tlb_i = tl;
                        job.l2_i = l2;
                        job.dmech_i = dm;
                        job.samples_i = n;
                        job.task = spec.tasks[t];
                        job.geometry = spec.geometries[g];
                        job.pfail = spec.pfails[p];
                        job.mechanism = spec.mechanisms[m];
                        job.engine = spec.engines[e];
                        job.kind = spec.kinds[k];
                        job.dcache = spec.dcaches[d];
                        job.tlb = spec.tlbs[tl];
                        job.l2 = spec.l2s[l2];
                        job.dmech = spec.dcache_mechanisms[dm];
                        job.samples = spec.sample_counts[n];
                        job.seed = campaign_job_seed(spec, job);
                        jobs.push_back(std::move(job));
                      }
  return jobs;
}

StoreKey campaign_group_key(const CampaignJob& job) {
  KeyHasher h("campaign-group-v1");
  h.mix_string(job.task)
      .mix_key(hash_cache_config(job.geometry))
      .mix_u64(static_cast<std::uint64_t>(job.engine))
      .mix_u64(job.dcache.enabled ? 1 : 0)
      .mix_key(job.dcache.enabled ? hash_cache_config(job.dcache.geometry)
                                  : StoreKey{});
  // The optional axes join only when active (tag-word-disambiguated, as
  // in campaign_job_seed) so default-valued cells keep their historic
  // grouping prefix. Only in-run submission order depends on this key.
  if (job.dcache.enabled && job.dcache.policy == WritePolicy::kWriteBack) {
    h.mix_u64(0x5742);
    h.mix_u64(static_cast<std::uint64_t>(job.dcache.writeback_penalty));
  }
  if (job.tlb.enabled) {
    h.mix_u64(0x544c42);
    h.mix_key(hash_cache_config(job.tlb.geometry()));
  }
  if (job.l2.enabled) {
    h.mix_u64(0x4c32);
    h.mix_key(hash_cache_config(job.l2.geometry));
  }
  return h.finish();
}

StoreKey campaign_spec_key(const CampaignSpec& spec) {
  KeyHasher h("campaign-spec-v1");
  h.mix_u64(spec.tasks.size());
  for (const std::string& task : spec.tasks) {
    // Name *and* structural content: the name reaches the report's task
    // column, and the content guards the persistent campaign-report
    // artifact against serving stale results after a workload definition
    // changes (names rarely do; loop bounds etc. might) — consistent with
    // the core/result keys, which chain hash_program too.
    h.mix_string(task);
    h.mix_key(hash_program(workloads::build(task)));
  }
  h.mix_u64(spec.geometries.size());
  for (const CacheConfig& g : spec.geometries) h.mix_key(hash_cache_config(g));
  h.mix_doubles(spec.pfails);
  h.mix_u64(spec.mechanisms.size());
  for (const Mechanism m : spec.mechanisms)
    h.mix_u64(static_cast<std::uint64_t>(m));
  h.mix_u64(spec.engines.size());
  for (const WcetEngine e : spec.engines)
    h.mix_u64(static_cast<std::uint64_t>(e));
  h.mix_u64(spec.kinds.size());
  for (const AnalysisKind k : spec.kinds)
    h.mix_u64(static_cast<std::uint64_t>(k));
  h.mix_u64(spec.dcaches.size());
  for (const DcacheAxis& d : spec.dcaches) {
    h.mix_u64(d.enabled ? 1 : 0);
    h.mix_key(d.enabled ? hash_cache_config(d.geometry) : StoreKey{});
  }
  // The post-release axes are mixed only when they depart from their
  // defaults (and behind tag words, so they cannot alias one another or
  // the trailing fixed fields): every spec written before these axes
  // existed — including the eight shipped paper artifacts, whose keys are
  // pinned by spec_io_test — hashes to its historic value, keeping the
  // persisted campaign-report artifacts warm.
  bool any_wb = false;
  for (const DcacheAxis& d : spec.dcaches)
    any_wb |= d.enabled && (d.policy == WritePolicy::kWriteBack ||
                            d.writeback_penalty != 0);
  if (any_wb) {
    h.mix_u64(0x5742);
    for (const DcacheAxis& d : spec.dcaches) {
      h.mix_u64(static_cast<std::uint64_t>(d.policy));
      h.mix_u64(static_cast<std::uint64_t>(d.writeback_penalty));
    }
  }
  if (!(spec.tlbs.size() == 1 && !spec.tlbs[0].enabled)) {
    h.mix_u64(0x544c42);
    h.mix_u64(spec.tlbs.size());
    for (const TlbAxis& t : spec.tlbs) {
      h.mix_u64(t.enabled ? 1 : 0);
      h.mix_key(t.enabled ? hash_cache_config(t.geometry()) : StoreKey{});
    }
  }
  if (!(spec.l2s.size() == 1 && !spec.l2s[0].enabled)) {
    h.mix_u64(0x4c32);
    h.mix_u64(spec.l2s.size());
    for (const L2Axis& l : spec.l2s) {
      h.mix_u64(l.enabled ? 1 : 0);
      h.mix_key(l.enabled ? hash_cache_config(l.geometry) : StoreKey{});
    }
  }
  h.mix_u64(spec.dcache_mechanisms.size());
  for (const DcacheMechanism m : spec.dcache_mechanisms)
    h.mix_u64(static_cast<std::uint64_t>(m));
  h.mix_u64(spec.sample_counts.size());
  for (const std::size_t n : spec.sample_counts) h.mix_u64(n);
  h.mix_double(spec.target_exceedance);
  h.mix_doubles(spec.ccdf_exceedances);
  h.mix_u64(spec.max_distribution_points);
  h.mix_u64(spec.mbpta.chips);
  h.mix_u64(spec.mbpta.block_size);
  // The retired spec-level mbpta.seed (jobs draw from key-derived
  // seeds), at its old default, so that every key stays where it was.
  h.mix_u64(0x5eed);
  h.mix_u64(spec.simulation_chips);
  h.mix_u64(spec.base_seed);
  return h.finish();
}

std::size_t campaign_job_index(const CampaignSpec& spec, std::size_t task_i,
                               std::size_t geometry_i, std::size_t pfail_i,
                               std::size_t mechanism_i, std::size_t engine_i,
                               std::size_t kind_i, std::size_t dcache_i,
                               std::size_t dmech_i, std::size_t samples_i,
                               std::size_t tlb_i, std::size_t l2_i) {
  PWCET_EXPECTS(task_i < spec.tasks.size());
  PWCET_EXPECTS(geometry_i < spec.geometries.size());
  PWCET_EXPECTS(pfail_i < spec.pfails.size());
  PWCET_EXPECTS(mechanism_i < spec.mechanisms.size());
  PWCET_EXPECTS(engine_i < spec.engines.size());
  PWCET_EXPECTS(kind_i < spec.kinds.size());
  PWCET_EXPECTS(dcache_i < spec.dcaches.size());
  PWCET_EXPECTS(tlb_i < spec.tlbs.size());
  PWCET_EXPECTS(l2_i < spec.l2s.size());
  PWCET_EXPECTS(dmech_i < spec.dcache_mechanisms.size());
  PWCET_EXPECTS(samples_i < spec.sample_counts.size());
  std::size_t index = task_i;
  index = index * spec.geometries.size() + geometry_i;
  index = index * spec.pfails.size() + pfail_i;
  index = index * spec.mechanisms.size() + mechanism_i;
  index = index * spec.engines.size() + engine_i;
  index = index * spec.kinds.size() + kind_i;
  index = index * spec.dcaches.size() + dcache_i;
  index = index * spec.tlbs.size() + tlb_i;
  index = index * spec.l2s.size() + l2_i;
  index = index * spec.dcache_mechanisms.size() + dmech_i;
  index = index * spec.sample_counts.size() + samples_i;
  return index;
}

}  // namespace pwcet
