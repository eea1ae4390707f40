#include "engine/names.hpp"

#include <algorithm>

namespace pwcet {
namespace {

/// Levenshtein distance; inputs are tiny, the quadratic DP is fine.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = up;
    }
  }
  return row[b.size()];
}

}  // namespace

std::string closest_match(const std::string& word,
                          const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_distance = std::max<std::size_t>(2, word.size() / 3) + 1;
  for (const std::string& candidate : candidates) {
    const std::size_t d = edit_distance(word, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

const std::vector<AxisName<Mechanism>>& mechanism_names() {
  static const std::vector<AxisName<Mechanism>> kNames = {
      {Mechanism::kNone, "none", "unprotected cache (baseline)"},
      {Mechanism::kReliableWay, "RW",
       "reliable way: way 0 of every set is hardened"},
      {Mechanism::kSharedReliableBuffer, "SRB",
       "shared reliable buffer: one hardened line-sized buffer"},
  };
  return kNames;
}

const std::vector<AxisName<WcetEngine>>& engine_names() {
  static const std::vector<AxisName<WcetEngine>> kNames = {
      {WcetEngine::kIlp, "ilp",
       "IPET via the shared simplex (paper-faithful LP bound)"},
      {WcetEngine::kTree, "tree",
       "structural loop-tree engine (exact on structured CFGs)"},
  };
  return kNames;
}

const std::vector<AxisName<AnalysisKind>>& analysis_kind_names() {
  static const std::vector<AxisName<AnalysisKind>> kNames = {
      {AnalysisKind::kSpta, "spta",
       "static probabilistic timing analysis (the paper)"},
      {AnalysisKind::kMbpta, "mbpta",
       "measurement-based EVT estimate over a chip population"},
      {AnalysisKind::kSimulation, "sim",
       "Monte-Carlo fault injection on the heavy path"},
      {AnalysisKind::kSlack, "slack",
       "static-vs-simulated miss-bound conservatism (SRB/RW)"},
  };
  return kNames;
}

const std::vector<AxisName<DcacheMechanism>>& dcache_mechanism_names() {
  static const std::vector<AxisName<DcacheMechanism>> kNames = {
      {DcacheMechanism::kSame, "same", "mirror the instruction-cache mechanism"},
      {DcacheMechanism::kNone, "none", "unprotected data cache"},
      {DcacheMechanism::kReliableWay, "RW", "hardened way 0 on the data cache"},
      {DcacheMechanism::kSharedReliableBuffer, "SRB",
       "one hardened line-sized buffer on the data cache"},
  };
  return kNames;
}

const std::vector<AxisName<WritePolicy>>& write_policy_names() {
  static const std::vector<AxisName<WritePolicy>> kNames = {
      {WritePolicy::kWriteThrough, "write_through",
       "stores bypass the data cache (the default; load-only stream)"},
      {WritePolicy::kWriteBack, "write_back",
       "write-allocate stores; dirty evictions add a write-back penalty"},
  };
  return kNames;
}

namespace {

template <typename Enum>
std::string name_of(const std::vector<AxisName<Enum>>& names, Enum value) {
  for (const AxisName<Enum>& entry : names)
    if (entry.value == value) return entry.name;
  return "?";
}

}  // namespace

// The *_name() helpers declared next to their enums all resolve through
// the registry above; none carries its own copy of the spellings.
std::string mechanism_name(Mechanism m) { return name_of(mechanism_names(), m); }

std::string engine_name(WcetEngine engine) {
  return name_of(engine_names(), engine);
}

std::string analysis_kind_name(AnalysisKind kind) {
  return name_of(analysis_kind_names(), kind);
}

std::string dcache_mechanism_name(DcacheMechanism m) {
  return name_of(dcache_mechanism_names(), m);
}

std::string write_policy_name(WritePolicy policy) {
  return name_of(write_policy_names(), policy);
}

}  // namespace pwcet
