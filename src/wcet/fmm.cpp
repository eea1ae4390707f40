#include "wcet/fmm.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "engine/thread_pool.hpp"
#include "icache/srb_analysis.hpp"
#include "store/analysis_store.hpp"
#include "support/contracts.hpp"
#include "wcet/tree_engine.hpp"

namespace pwcet {
namespace {

double maximize_delta(const Program& program, const CostModel& model,
                      WcetEngine engine, IpetCalculator* ipet) {
  double value = 0.0;
  if (engine == WcetEngine::kIlp) {
    PWCET_EXPECTS(ipet != nullptr);
    value = ipet->maximize(model).objective;
  } else {
    value = tree_maximize(program, model);
  }
  // The maximum is usually >= 0 (degrading a set only adds misses), but it
  // can be genuinely negative in scope-mismatch corner cases: a reference
  // whose fault-free classification is first-miss in an OUTER loop and
  // whose degraded classification is first-miss in an inner loop reachable
  // only through a conditional arm. There, every path's
  // (degraded - fault-free) expression can be below zero because the
  // fault-free IPET over-charges those paths even more than the degraded
  // one. Clamping to zero is sound either way:
  //   time_faulty(P) <= base(P) + penalty*faulty_expr(P)
  //                  <= WCET_ff + penalty*max(0, max_Q delta(Q)).
  return std::max(0.0, value);
}

/// Canonical reference signature of one set: the set's reference stream in
/// block-major order, each reference flattened to (block, first-occurrence
/// ordinal of its line within the stream, fetches, SRB-always-hit bit).
/// Everything the per-set row computation consumes is a function of this
/// signature: the set's ages in the profile touch line addresses only
/// through equality (Must/May abstract states and distinct-line counts),
/// and build_delta_miss_model reads only (block, classification, fetches,
/// SRB bit) — so equal signatures imply bit-identical cost models, built
/// by the identical sequence of identical floating-point adds, and hence
/// bit-identical rows. Two sets whose streams differ only in which concrete
/// lines they touch (the common case for straight-line code spread across a
/// cache) therefore share one row computation.
using SetSignature = std::vector<std::uint64_t>;

/// One pass over the reference map builds every set's signature (and, as a
/// byproduct, identifies unused sets: empty signature). Replaces the old
/// per-set "is this set unused" scans, which walked the whole map once per
/// set.
std::vector<SetSignature> build_set_signatures(const ReferenceMap& refs,
                                               const SrbHitMap& srb_hits,
                                               std::uint32_t sets) {
  std::vector<SetSignature> signatures(sets);
  // Per set: line -> ordinal of its first occurrence in the set's stream.
  std::vector<std::map<LineAddress, std::uint64_t>> ordinals(sets);
  for (std::size_t b = 0; b < refs.size(); ++b) {
    for (std::size_t i = 0; i < refs[b].size(); ++i) {
      const LineRef& r = refs[b][i];
      auto& ord = ordinals[r.set];
      const auto [it, inserted] = ord.emplace(r.line, ord.size());
      SetSignature& sig = signatures[r.set];
      sig.push_back(b);
      sig.push_back(it->second);
      sig.push_back(r.fetches);
      sig.push_back(srb_hits[b][i]);
    }
  }
  return signatures;
}

/// Raises entries so each row is non-decreasing in f over [1, last]
/// (monotonicity holds mathematically; this absorbs LP round-off and is in
/// the conservative direction).
void enforce_row_monotonicity(std::vector<double>& row, std::uint32_t last) {
  for (std::uint32_t f = 2; f <= last; ++f)
    row[size_t(f)] = std::max(row[size_t(f)], row[size_t(f - 1)]);
}

/// FMM rows of one set for all three mechanisms.
struct SetRows {
  std::vector<double> none, rw, srb;
};

/// Payload bytes of a memoized SetRows (see memo_cache.hpp).
std::uint64_t payload_bytes(const SetRows& rows) {
  return (rows.none.size() + rows.rw.size() + rows.srb.size()) *
         sizeof(double);
}

SetRows zero_rows(std::uint32_t ways) {
  return SetRows{std::vector<double>(ways + 1, 0.0),
                 std::vector<double>(ways + 1, 0.0),
                 std::vector<double>(ways + 1, 0.0)};
}

/// The cost models of one set's row computation, in maximize order:
/// partial[f - 1] for f = 1..W-1, then the two full-fault objectives.
/// Pure in the set's signature (see SetSignature).
struct SetModels {
  std::vector<CostModel> partial;
  CostModel full_none;
  CostModel full_srb;
};

SetModels build_set_models(const Program& program, const CacheConfig& config,
                           const ReferenceMap& refs,
                           const SrbHitMap& srb_hits,
                           const AgeProfile& profile,
                           const ClassificationMap& fault_free, SetIndex s) {
  const ControlFlowGraph& cfg = program.cfg();
  const std::uint32_t ways = config.ways;
  SetModels models;

  // Shared partial-fault columns f = 1 .. W-1 (line granularity), each
  // classified by thresholding the profile at W - f.
  ClassificationMap degraded = fault_free;
  models.partial.reserve(ways - 1);
  for (std::uint32_t f = 1; f < ways; ++f) {
    profile.classify_set(s, ways - f, degraded);
    models.partial.push_back(
        build_delta_miss_model(cfg, refs, s, fault_free, &degraded,
                               FullFaultSemantics::kUnprotected, nullptr));
  }
  // f == W, no protection: every fetch of the set misses.
  models.full_none =
      build_delta_miss_model(cfg, refs, s, fault_free, nullptr,
                             FullFaultSemantics::kUnprotected, nullptr);
  // f == W, SRB: SRB-always-hit references removed (§III-B.2).
  models.full_srb =
      build_delta_miss_model(cfg, refs, s, fault_free, nullptr,
                             FullFaultSemantics::kSrb, &srb_hits);
  return models;
}

/// Maximizes the models into rows. The engine sees the exact objective
/// sequence of the pre-dedup code: f = 1..W-1, full none, full SRB.
/// (f == W RW is unreachable per Eq. 3; the column stays 0 and is never
/// weighted — the RW pwf vector has no f == W entry.)
SetRows rows_from_models(const Program& program, const SetModels& models,
                         std::uint32_t ways, WcetEngine engine,
                         IpetCalculator* ipet) {
  SetRows rows = zero_rows(ways);
  for (std::uint32_t f = 1; f < ways; ++f) {
    const double bound =
        maximize_delta(program, models.partial[size_t(f - 1)], engine, ipet);
    rows.none[size_t(f)] = bound;
    rows.rw[size_t(f)] = bound;
    rows.srb[size_t(f)] = bound;
  }
  rows.none[size_t(ways)] =
      maximize_delta(program, models.full_none, engine, ipet);
  rows.srb[size_t(ways)] =
      maximize_delta(program, models.full_srb, engine, ipet);

  enforce_row_monotonicity(rows.none, ways);
  enforce_row_monotonicity(rows.rw, ways - 1);
  enforce_row_monotonicity(rows.srb, ways);
  return rows;
}

/// Computes the three FMM rows of set `s` (which must be used). Pure in
/// (program, config, refs, srb_hits) apart from the engine: the tree
/// engine is stateless and may run concurrently for different sets; the
/// ILP engine mutates `ipet`.
SetRows compute_set_rows(const Program& program, const CacheConfig& config,
                         const ReferenceMap& refs, const SrbHitMap& srb_hits,
                         const AgeProfile& profile,
                         const ClassificationMap& fault_free, SetIndex s,
                         WcetEngine engine, IpetCalculator* ipet) {
  return rows_from_models(
      program,
      build_set_models(program, config, refs, srb_hits, profile, fault_free,
                       s),
      config.ways, engine, ipet);
}

}  // namespace

FmmBundle compute_fmm_bundle(const Program& program,
                             const CacheConfig& config,
                             const ReferenceMap& refs,
                             const AgeProfile& profile, WcetEngine engine,
                             IpetCalculator* ipet, ThreadPool* pool,
                             AnalysisStore* store,
                             const StoreKey* row_key_prefix) {
  config.validate();
  PWCET_EXPECTS(profile.ways() == config.ways);
  const ControlFlowGraph& cfg = program.cfg();

  const SrbHitMap srb_hits = analyze_srb(cfg, refs);
  const ClassificationMap fault_free = classify_fault_free(profile);
  const std::vector<SetSignature> signatures =
      build_set_signatures(refs, srb_hits, config.sets);

  // Signature dedup: representative[s] is the lowest-indexed set with the
  // same signature; sets whose representative is another set skip their own
  // row computation. Tree rows are copied outright (tree_maximize is pure
  // in (program, model)). The ILP engine reuses the representative's cost
  // models but *replays every maximize() call*: skipping them would change
  // the shared simplex's warm-start sequence for the remaining objectives
  // and perturb LP round-off — with the replay, the call sequence and its
  // bit-identical inputs match the non-dedup run exactly, so the bundle
  // does too.
  std::vector<SetIndex> representative(config.sets);
  std::vector<std::uint8_t> has_duplicate(config.sets, 0);
  {
    std::map<SetSignature, SetIndex> first_with;
    for (SetIndex s = 0; s < config.sets; ++s) {
      representative[s] = s;
      if (signatures[size_t(s)].empty()) continue;
      const auto [it, inserted] = first_with.emplace(signatures[size_t(s)], s);
      representative[s] = it->second;
      if (!inserted) has_duplicate[size_t(it->second)] = 1;
    }
  }

  // Tree-engine rows are pure in (program, config, set), so they memoize
  // per set; see the header for why the ILP engine must not. The key
  // chains the domain's row prefix, not the pipeline core, so one
  // domain's rows are shared by every composition it joins: a campaign
  // crossing the icache with dcache, TLB and L2 axes computes each
  // icache row once. Unused sets are excluded: their all-zero rows cost
  // nothing, and memoizing one entry per empty set would only crowd the
  // cache. Duplicate sets are excluded too — they copy their
  // representative's rows and never probe.
  const bool memo_rows = store != nullptr && row_key_prefix != nullptr &&
                         engine == WcetEngine::kTree;
  auto set_rows = [&](SetIndex s, IpetCalculator* set_ipet) {
    if (!memo_rows)
      return compute_set_rows(program, config, refs, srb_hits, profile,
                              fault_free, s, engine, set_ipet);
    const StoreKey key =
        KeyHasher("fmm-rows-v1").mix_key(*row_key_prefix).mix_u64(s).finish();
    return *store->memo().get_or_compute<SetRows>(
        key,
        [&] {
          return compute_set_rows(program, config, refs, srb_hits, profile,
                                  fault_free, s, engine, set_ipet);
        },
        "fmm-rows");
  };

  std::vector<SetRows> rows;
  if (pool != nullptr && engine == WcetEngine::kTree) {
    rows = pool->map_indexed(config.sets, [&](std::size_t s) {
      if (signatures[s].empty()) return zero_rows(config.ways);
      // A duplicate's representative may still be computing on another
      // worker; it is filled in after the barrier below.
      if (representative[s] != static_cast<SetIndex>(s)) return SetRows{};
      return set_rows(static_cast<SetIndex>(s), nullptr);
    });
    for (SetIndex s = 0; s < config.sets; ++s)
      if (representative[s] != s) rows[size_t(s)] = rows[size_t(representative[s])];
  } else {
    rows.reserve(config.sets);
    // ILP model reuse: a representative's models stay alive only while it
    // has duplicates left to serve.
    std::map<SetIndex, SetModels> models_by_rep;
    for (SetIndex s = 0; s < config.sets; ++s) {
      if (signatures[size_t(s)].empty()) {
        rows.push_back(zero_rows(config.ways));
        continue;
      }
      const SetIndex rep = representative[s];
      if (engine == WcetEngine::kTree) {
        rows.push_back(rep == s ? set_rows(s, ipet) : rows[size_t(rep)]);
        continue;
      }
      if (rep == s) {
        SetModels models = build_set_models(program, config, refs, srb_hits,
                                            profile, fault_free, s);
        rows.push_back(
            rows_from_models(program, models, config.ways, engine, ipet));
        if (has_duplicate[size_t(s)])
          models_by_rep.emplace(s, std::move(models));
      } else {
        rows.push_back(rows_from_models(program, models_by_rep.at(rep),
                                        config.ways, engine, ipet));
      }
    }
  }

  FmmBundle bundle;
  bundle.none.misses.reserve(config.sets);
  bundle.rw.misses.reserve(config.sets);
  bundle.srb.misses.reserve(config.sets);
  for (SetRows& r : rows) {
    bundle.none.misses.push_back(std::move(r.none));
    bundle.rw.misses.push_back(std::move(r.rw));
    bundle.srb.misses.push_back(std::move(r.srb));
  }
  return bundle;
}

}  // namespace pwcet
