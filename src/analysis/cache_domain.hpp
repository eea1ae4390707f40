/// \file
/// CacheDomain — one cache-like structure analyzed by the pWCET pipeline.
///
/// The paper's analysis is one pipeline: classify a reference stream
/// against a cache geometry, bound the fault-induced misses per (set,
/// fault-count) cell (the FMM), weight the rows by the fault model's
/// faulty-way distribution, and convolve the independent sets into a
/// penalty distribution. A structure enters that pipeline only through its
/// reference stream, its geometry and the price of a miss; classification,
/// the FMM, the pwf weighting and the convolution are the same for all of
/// them, and PwcetPipeline (analysis/pipeline.hpp) owns them.
///
/// So the shipped structures are rows of one table (cache_domain_rows()),
/// each naming which access streams form its reference stream and whether
/// it is the primary domain. A CacheDomain binds one row to one geometry;
/// the named constructors (IcacheDomain, DcacheDomain,
/// WritebackDcacheDomain, TlbDomain, L2Domain) each pick their row. A new
/// structure is a table row, its named constructor and its campaign axis.
#pragma once

#include <string_view>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/references.hpp"

namespace pwcet {

/// One row of the domain table.
struct DomainRow {
  /// Short stable identifier ("icache", "dcache", ...). Chained into the
  /// core key of every composition beyond the two historical recipes
  /// (pipeline.cpp), so it must never change once results are persisted.
  const char* name;
  /// The accesses that form the domain's reference stream.
  AccessStreams streams;
  /// A primary domain charges the full time model (hit latencies plus
  /// misses) and may lead a pipeline. A secondary domain charges misses
  /// only — the access's execution cycle is the primary domain's — and
  /// cannot stand alone.
  bool primary;
  const char* description;  ///< one-liner for `pwcet list`
};

/// The shipped domains, in pipeline composition order.
const std::vector<DomainRow>& cache_domain_rows();

/// One table row bound to one geometry. Immutable after construction, so
/// pool threads may share it.
class CacheDomain {
 public:
  std::string_view name() const { return row_->name; }

  /// The cache geometry this domain analyzes: sets/ways shape the FMM and
  /// the pwf, miss_penalty prices the per-set penalty atoms.
  const CacheConfig& config() const { return config_; }

  AccessStreams streams() const { return row_->streams; }

  /// Whether the domain is primary and may lead a pipeline.
  bool standalone() const { return row_->primary; }

 protected:
  /// Binds the table row called `name` to `config`.
  CacheDomain(std::string_view name, const CacheConfig& config);
  /// Protected: a domain is never destroyed through a CacheDomain pointer.
  ~CacheDomain() = default;

 private:
  const DomainRow* row_;
  CacheConfig config_;
};

}  // namespace pwcet
