// Unit tests for the content-addressed analysis store (src/store/): key
// stability (golden values pin the hash algorithm), LRU semantics of the
// memo cache, concurrent access from the engine pool, artifact round-trips,
// and the headline invariant — campaign reports with the store enabled are
// byte-identical to cold recomputation, at any thread count, cold or warm.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dcache_domain.hpp"
#include "analysis/icache_domain.hpp"
#include "analysis/pipeline.hpp"
#include "engine/campaign.hpp"
#include "engine/report.hpp"
#include "engine/runner.hpp"
#include "engine/thread_pool.hpp"
#include "store/analysis_store.hpp"
#include "store/artifact_store.hpp"
#include "store/key.hpp"
#include "store/memo_cache.hpp"
#include "workloads/malardalen.hpp"

namespace pwcet {
namespace {

namespace fs = std::filesystem;

// ---- keys ------------------------------------------------------------------

// Golden values: the store's on-disk artifacts are addressed by these
// hashes, so the algorithm must never drift. If one of these fails, the
// mixer changed — bump ArtifactStore::kFormatVersion and re-pin, or (far
// more likely) revert the accidental change.
TEST(StoreKey, GoldenValues) {
  EXPECT_EQ(KeyHasher("golden").finish().hex(),
            "11f613a3d9fddb6c7492d97ba7c8e7ae");
  EXPECT_EQ(KeyHasher("golden").mix_u64(1).mix_u64(2).finish().hex(),
            "a0f506b74baab7a563c738c3bb3dbd30");
  EXPECT_EQ(KeyHasher("golden").mix_double(1.5).finish().hex(),
            "8be7fb7895983952229acd01efa4af7e");
  EXPECT_EQ(hash_cache_config(CacheConfig::paper_default()).hex(),
            "c1f3964c35bf25f8c70fee652860efe7");
  // Structural program hash: pins CFG + loop + structure-tree hashing.
  EXPECT_EQ(hash_program(workloads::build("fibcall")).hex(),
            "c566f5440d451cbca81159735ff58ff1");
}

TEST(StoreKey, LengthPrefixPreventsBoundaryAliasing) {
  const StoreKey ab_c = KeyHasher("golden").mix_string("ab").mix_string("c").finish();
  const StoreKey a_bc = KeyHasher("golden").mix_string("a").mix_string("bc").finish();
  EXPECT_NE(ab_c, a_bc);
  EXPECT_EQ(ab_c.hex(), "5cc9a2d5ad04116e4a8a47875fe03cfa");
  EXPECT_EQ(a_bc.hex(), "e509d34c3162d11a230b39e2992d8231");
}

TEST(StoreKey, SensitiveToEveryConfigFieldAndDomain) {
  const CacheConfig base = CacheConfig::paper_default();
  const StoreKey k = hash_cache_config(base);
  CacheConfig c = base;
  c.sets = 8;
  EXPECT_NE(hash_cache_config(c), k);
  c = base;
  c.ways = 2;
  EXPECT_NE(hash_cache_config(c), k);
  c = base;
  c.line_bytes = 32;
  EXPECT_NE(hash_cache_config(c), k);
  c = base;
  c.hit_latency = 2;
  EXPECT_NE(hash_cache_config(c), k);
  c = base;
  c.miss_penalty = 50;
  EXPECT_NE(hash_cache_config(c), k);

  // Domain separation: identical field streams, different domains.
  EXPECT_NE(KeyHasher("a").mix_u64(7).finish(),
            KeyHasher("b").mix_u64(7).finish());
  // Order sensitivity.
  EXPECT_NE(KeyHasher("golden").mix_u64(1).mix_u64(2).finish(),
            KeyHasher("golden").mix_u64(2).mix_u64(1).finish());
}

TEST(StoreKey, HexIsStableAndOrdered) {
  const StoreKey key{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(key.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_LT((StoreKey{0, 1}), (StoreKey{1, 0}));
  EXPECT_LT((StoreKey{1, 0}), (StoreKey{1, 1}));
}

TEST(StoreKey, ProgramHashIsContentAddressed) {
  // Same structure built twice hashes identically; a different task does
  // not (the name itself is excluded — content decides).
  EXPECT_EQ(hash_program(workloads::build("fibcall")),
            hash_program(workloads::build("fibcall")));
  EXPECT_NE(hash_program(workloads::build("fibcall")),
            hash_program(workloads::build("bs")));
}

// ---- memo cache ------------------------------------------------------------

std::shared_ptr<const int> boxed(int v) {
  return std::make_shared<const int>(v);
}

TEST(MemoCache, LruEvictionOrder) {
  MemoCache cache(MemoCache::Config{/*capacity=*/3, /*shards=*/1});
  const StoreKey a{0, 1}, b{0, 2}, c{0, 3}, d{0, 4};
  cache.put(a, boxed(1));
  cache.put(b, boxed(2));
  cache.put(c, boxed(3));
  // Touch a: b becomes the least recently used entry.
  EXPECT_NE(cache.get(a), nullptr);
  cache.put(d, boxed(4));

  EXPECT_EQ(cache.get(b), nullptr);  // evicted
  EXPECT_NE(cache.get(a), nullptr);
  EXPECT_NE(cache.get(c), nullptr);
  EXPECT_NE(cache.get(d), nullptr);

  const StoreStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.hits, 4u);    // a, then a/c/d after the eviction
  EXPECT_EQ(stats.misses, 1u);  // b
}

TEST(MemoCache, GetOrComputeMemoizes) {
  MemoCache cache(MemoCache::Config{8, 2});
  const StoreKey key{42, 42};
  int computed = 0;
  auto compute = [&] {
    ++computed;
    return 7;
  };
  EXPECT_EQ(*cache.get_or_compute<int>(key, compute), 7);
  EXPECT_EQ(*cache.get_or_compute<int>(key, compute), 7);
  EXPECT_EQ(computed, 1);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(*cache.get_or_compute<int>(key, compute), 7);
  EXPECT_EQ(computed, 2);
}

TEST(MemoCache, DuplicatePutKeepsFirstValueAndCounts) {
  MemoCache cache(MemoCache::Config{4, 1});
  const StoreKey key{9, 9};
  cache.put(key, boxed(1));
  cache.put(key, boxed(2));  // benign compute race: first insert wins
  EXPECT_EQ(*std::static_pointer_cast<const int>(cache.get(key)), 1);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(MemoCache, BytesAreAResidentLevel) {
  MemoCache cache(MemoCache::Config{2, 1});
  const StoreKey a{0, 1}, b{0, 2}, c{0, 3};
  cache.put(a, std::make_shared<const std::uint64_t>(1));
  cache.put(b, std::make_shared<const std::uint64_t>(2));
  cache.put(b, std::make_shared<const std::uint64_t>(3));  // not re-counted
  const StoreStats full = cache.stats();
  EXPECT_EQ(full.bytes, 2 * sizeof(std::uint64_t));

  // Evicting a releases its bytes; c's are added.
  cache.put(c, boxed(4));
  const StoreStats after = cache.stats();
  EXPECT_EQ(after.evictions, 1u);
  EXPECT_EQ(after.bytes, sizeof(std::uint64_t) + sizeof(int));
  EXPECT_LT(after.bytes, full.bytes);
  // A level, like entries: a delta keeps it absolute.
  EXPECT_EQ(after.since(full).bytes, after.bytes);

  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(MemoCache, ConcurrentAccessFromEnginePool) {
  MemoCache cache(MemoCache::Config{64, 8});
  ThreadPool pool(4);
  constexpr std::size_t kLookups = 2000;
  constexpr std::uint64_t kDistinct = 16;
  const auto values = pool.map_indexed(kLookups, [&](std::size_t i) {
    const std::uint64_t slot = i % kDistinct;
    const StoreKey key =
        KeyHasher("concurrent-test").mix_u64(slot).finish();
    return *cache.get_or_compute<std::uint64_t>(key,
                                                [&] { return slot * 7; });
  });
  for (std::size_t i = 0; i < kLookups; ++i)
    EXPECT_EQ(values[i], (i % kDistinct) * 7);
  const StoreStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kLookups);
  EXPECT_EQ(stats.entries, kDistinct);
  EXPECT_GE(stats.hits, kLookups - 4 * kDistinct);  // racing misses are rare
}

// ---- artifact store --------------------------------------------------------

class ArtifactStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("pwcet_store_test_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ArtifactStoreTest, TextRoundTripAndLoadOrCompute) {
  const ArtifactStore store({dir_});
  const StoreKey key = KeyHasher("artifact-test").mix_u64(1).finish();
  EXPECT_FALSE(store.load_text("report", key).has_value());

  EXPECT_TRUE(store.store_text("report", key, "line1\nline2\n"));
  EXPECT_EQ(store.load_text("report", key), "line1\nline2\n");
  EXPECT_EQ(store.load_text("report", key), "line1\nline2\n");
  EXPECT_EQ(store.disk_writes(), 1u);
  EXPECT_GE(store.disk_hits(), 1u);

  // Same key, different kind: distinct artifact.
  EXPECT_FALSE(store.load_text("other", key).has_value());
  // A kind that could escape the cache directory is rejected outright.
  EXPECT_FALSE(store.load_text("../escape", key).has_value());
  EXPECT_FALSE(store.store_text("../escape", key, "x"));
}

TEST_F(ArtifactStoreTest, DistributionRoundTripIsExact) {
  const ArtifactStore store({dir_});
  // Deliberately awkward doubles: non-terminating binary fractions and a
  // deep tail. %.17g must round-trip every bit.
  const DiscreteDistribution original = DiscreteDistribution::from_atoms({
      {0, 0.1},
      {100, 1.0 / 3.0},
      {101, 1e-300},
      {1000000007, 1.0 - 0.1 - 1.0 / 3.0 - 1e-300},
  });
  const StoreKey key = KeyHasher("dist-test").mix_u64(7).finish();
  EXPECT_TRUE(store.store_distribution(key, original));

  const auto loaded = store.load_distribution(key);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->atoms()[i].value, original.atoms()[i].value);
    // Bitwise, not approximate: identity of reports depends on it.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded->atoms()[i].probability),
              std::bit_cast<std::uint64_t>(original.atoms()[i].probability));
  }
  EXPECT_EQ(*loaded, original);
}

TEST_F(ArtifactStoreTest, CorruptOrMismatchedArtifactsLoadAsMisses) {
  const ArtifactStore store({dir_});
  const StoreKey key = KeyHasher("dist-test").mix_u64(8).finish();
  const std::string path =
      dir_ + "/distribution/" + key.hex() + ".jsonl";

  auto rewrite = [&](const std::string& from, const std::string& to) {
    std::ifstream in(path);
    std::stringstream all;
    all << in.rdbuf();
    std::string contents = all.str();
    const auto at = contents.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    contents.replace(at, from.size(), to);
    std::ofstream(path, std::ios::trunc) << contents;
  };

  // Version bump: the header no longer matches.
  ASSERT_TRUE(store.store_distribution(
      key, DiscreteDistribution::degenerate(5)));
  ASSERT_TRUE(fs::exists(path));
  rewrite("\"version\":1", "\"version\":9");
  EXPECT_FALSE(store.load_distribution(key).has_value());

  // Bitrot: one flipped digit in a structurally still-valid payload; the
  // header's payload content hash catches it.
  ASSERT_TRUE(store.store_distribution(
      key, DiscreteDistribution::degenerate(5)));
  EXPECT_TRUE(store.load_distribution(key).has_value());
  rewrite("\"value\":5", "\"value\":6");
  EXPECT_FALSE(store.load_distribution(key).has_value());

  // Structurally invalid payload behind a *valid* header and checksum
  // (written through store_text, e.g. by a future buggy producer):
  // load_distribution's own validation rejects it instead of aborting.
  ASSERT_TRUE(store.store_text("distribution", key,
                               "{\"value\":10,\"p\":0.5}\n"
                               "{\"value\":3,\"p\":0.5}\n"));
  EXPECT_FALSE(store.load_distribution(key).has_value());  // not increasing
}

// ---- analyzer + engine integration ----------------------------------------

CampaignSpec identity_spec() {
  CampaignSpec spec;
  spec.tasks = {"fibcall", "bs"};
  CacheConfig tiny = CacheConfig::paper_default();
  tiny.sets = 8;
  tiny.ways = 2;
  spec.geometries = {CacheConfig::paper_default(), tiny};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kReliableWay,
                     Mechanism::kSharedReliableBuffer};
  spec.engines = {WcetEngine::kIlp, WcetEngine::kTree};
  return spec;
}

TEST(StoreIdentity, AnalyzerWithStoreMatchesWithoutBitForBit) {
  const Program program = workloads::build("fibcall");
  const CacheConfig config = CacheConfig::paper_default();
  CacheConfig dcache = config;
  dcache.sets = 8;
  dcache.ways = 2;
  const FaultModel faults(1e-3);
  // Icache + dcache: only multi-domain compositions memoize penalties.
  const std::vector<std::shared_ptr<const CacheDomain>> domains = {
      std::make_shared<IcacheDomain>(config),
      std::make_shared<DcacheDomain>(dcache)};

  const PwcetPipeline plain(program, domains);
  AnalysisStore store;
  PwcetOptions stored_options;
  stored_options.store = &store;
  const PwcetPipeline stored(program, domains, stored_options);
  // Second stored pipeline: its penalties come from the memo.
  const PwcetPipeline memoized(program, domains, stored_options);

  EXPECT_EQ(plain.fault_free_wcet(), stored.fault_free_wcet());
  EXPECT_EQ(plain.fault_free_wcet(), memoized.fault_free_wcet());
  for (const Mechanism m : {Mechanism::kNone, Mechanism::kReliableWay,
                            Mechanism::kSharedReliableBuffer}) {
    EXPECT_EQ(plain.fmm(0).of(m).misses, stored.fmm(0).of(m).misses);
    EXPECT_EQ(plain.fmm(0).of(m).misses, memoized.fmm(0).of(m).misses);
    const PwcetResult a = plain.analyze(faults, m);
    const PwcetResult b = stored.analyze(faults, m);
    const PwcetResult c = memoized.analyze(faults, m);  // penalty hits
    EXPECT_EQ(a.penalty, b.penalty);
    EXPECT_EQ(a.penalty, c.penalty);
    EXPECT_EQ(a.pwcet(1e-15), b.pwcet(1e-15));
  }
  EXPECT_GT(store.stats().hits, 0u);
}

TEST(StoreIdentity, CampaignReportsByteIdenticalStoreOnOffAnyThreads) {
  const CampaignSpec spec = identity_spec();

  RunnerOptions off;
  off.threads = 1;
  off.store.enabled = false;
  const CampaignResult baseline = run_campaign(spec, off);
  const std::string csv = report_csv(baseline);
  const std::string jsonl = report_jsonl(baseline);

  RunnerOptions on1;
  on1.threads = 1;
  RunnerOptions on2;
  on2.threads = 2;
  const CampaignResult with_store_1 = run_campaign(spec, on1);
  const CampaignResult with_store_2 = run_campaign(spec, on2);
  EXPECT_EQ(csv, report_csv(with_store_1));
  EXPECT_EQ(jsonl, report_jsonl(with_store_1));
  EXPECT_EQ(csv, report_csv(with_store_2));
  EXPECT_EQ(jsonl, report_jsonl(with_store_2));

  // Warm re-run on a shared store: still identical, and nearly every
  // lookup hits (the acceptance bar is >50%; a warm run is far above).
  AnalysisStore store;
  RunnerOptions shared;
  shared.threads = 2;
  shared.shared_store = &store;
  const CampaignResult cold = run_campaign(spec, shared);
  const CampaignResult warm = run_campaign(spec, shared);
  EXPECT_EQ(csv, report_csv(cold));
  EXPECT_EQ(csv, report_csv(warm));
  EXPECT_EQ(jsonl, report_jsonl(warm));
  EXPECT_GT(warm.store_stats.hit_rate(), 0.5);
  EXPECT_GT(warm.store_stats.hits, 0u);
  EXPECT_EQ(warm.store_stats.evictions, 0u);
}

TEST_F(ArtifactStoreTest, CampaignWarmFromDiskIsByteIdentical) {
  CampaignSpec spec = identity_spec();
  spec.engines = {WcetEngine::kIlp};

  RunnerOptions off;
  off.threads = 1;
  off.store.enabled = false;
  const std::string csv = report_csv(run_campaign(spec, off));

  // Fresh process simulation: two runs, each with its own cold memo,
  // sharing only the on-disk artifacts.
  StoreOptions disk_options;
  disk_options.artifact_dir = dir_;
  AnalysisStore run1(disk_options), run2(disk_options);
  RunnerOptions disk;
  disk.threads = 2;
  disk.shared_store = &run1;
  const CampaignResult first = run_campaign(spec, disk);
  disk.shared_store = &run2;
  const CampaignResult second = run_campaign(spec, disk);
  EXPECT_EQ(csv, report_csv(first));
  EXPECT_EQ(csv, report_csv(second));
  EXPECT_GT(second.store_stats.disk_hits, 0u);
  // The second run is answered entirely from the persisted campaign
  // report (whole-campaign load-or-compute): its one memo lookup is the
  // campaign entry, a miss in run2's fresh memo, and nothing was computed.
  EXPECT_EQ(second.store_stats.misses, 1u);
  EXPECT_EQ(report_jsonl(first), report_jsonl(second));

  // The campaign report itself is persisted as a versioned artifact whose
  // payload is exactly the JSONL report.
  const ArtifactStore reader({dir_});
  const auto report = reader.load_text("campaign-report",
                                       campaign_spec_key(spec));
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(*report, report_jsonl(second));
}

TEST(StoreIdentity, GroupKeyIsContentDerived) {
  CampaignSpec spec = identity_spec();
  // Duplicate axis values at different indices share a group key.
  spec.tasks = {"fibcall", "fibcall"};
  spec.geometries = {CacheConfig::paper_default(),
                     CacheConfig::paper_default()};
  const auto jobs = expand_campaign(spec);
  const CampaignJob* first = &jobs.front();
  const CampaignJob* other = nullptr;
  for (const CampaignJob& job : jobs)
    if (job.task_i != first->task_i && job.geometry_i != first->geometry_i &&
        job.engine_i == first->engine_i) {
      other = &job;
      break;
    }
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(campaign_group_key(*first), campaign_group_key(*other));

  CacheConfig different = CacheConfig::paper_default();
  different.sets = 8;
  CampaignJob changed = *first;
  changed.geometry = different;
  EXPECT_NE(campaign_group_key(*first), campaign_group_key(changed));

  // The spec key, by contrast, must see every axis value — and be a pure
  // function of the spec.
  CampaignSpec wider = spec;
  wider.pfails.push_back(1e-6);
  EXPECT_NE(campaign_spec_key(spec), campaign_spec_key(wider));
  EXPECT_EQ(campaign_spec_key(identity_spec()),
            campaign_spec_key(identity_spec()));

  // A job with the data cache enabled must land in a different analyzer
  // group: the combined analyzer's core depends on the dcache geometry.
  CampaignJob with_dcache = *first;
  with_dcache.dcache.enabled = true;
  with_dcache.dcache.geometry.sets = 8;
  EXPECT_NE(campaign_group_key(*first), campaign_group_key(with_dcache));
}

TEST(StoreIdentity, SpecKeyHashesEveryNewAxisAndIsPinned) {
  CampaignSpec spec;
  spec.tasks = {"fibcall"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone};
  // Golden value: persisted campaign-report artifacts are addressed by
  // this hash; any accidental change to the spec-key schema (or to the
  // fibcall workload's structural content) fails here and demands an
  // ArtifactStore::kFormatVersion review.
  EXPECT_EQ(campaign_spec_key(spec).hex(),
            "9fa096dccf353c6351c266adbe530d4f");

  const StoreKey base = campaign_spec_key(spec);
  {
    CampaignSpec s = spec;
    DcacheAxis d;
    d.enabled = true;
    d.geometry.sets = 8;
    s.dcaches.push_back(d);
    EXPECT_NE(campaign_spec_key(s), base) << "dcaches axis not hashed";
  }
  {
    CampaignSpec s = spec;
    s.dcache_mechanisms.push_back(DcacheMechanism::kSharedReliableBuffer);
    EXPECT_NE(campaign_spec_key(s), base)
        << "dcache_mechanisms axis not hashed";
  }
  {
    CampaignSpec s = spec;
    s.sample_counts.push_back(100);
    EXPECT_NE(campaign_spec_key(s), base) << "sample_counts axis not hashed";
  }
  {
    CampaignSpec s = spec;
    s.ccdf_exceedances = {1e-6};
    EXPECT_NE(campaign_spec_key(s), base) << "ccdf_exceedances not hashed";
  }
  {
    CampaignSpec s = spec;
    s.kinds = {AnalysisKind::kSlack};
    s.mechanisms = {Mechanism::kSharedReliableBuffer};
    EXPECT_NE(campaign_spec_key(s), base);
  }
}

// ---- report escaping (satellite: arbitrary scenario labels) ---------------

CampaignResult synthetic_campaign(const std::string& label) {
  CampaignResult campaign;
  campaign.spec.tasks = {label};
  campaign.spec.geometries = {CacheConfig::paper_default()};
  campaign.spec.pfails = {1e-4};
  campaign.spec.mechanisms = {Mechanism::kNone};
  JobResult result;
  result.job.task = label;
  result.job.geometry = CacheConfig::paper_default();
  result.job.pfail = 1e-4;
  result.pwcet = 123.0;
  campaign.results.push_back(result);
  return campaign;
}

TEST(ReportEscaping, CsvQuotesCommasQuotesAndNewlines) {
  const std::string evil = "task,with \"quotes\"\nand\rnewlines";
  const std::string csv = report_csv(synthetic_campaign(evil));
  // RFC 4180: the field is quoted, embedded quotes doubled, newlines kept
  // verbatim inside the quotes.
  EXPECT_NE(csv.find("\"task,with \"\"quotes\"\"\nand\rnewlines\""),
            std::string::npos);
  // Header row + payload row (whose label spans two physical lines).
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 3);
}

TEST(ReportEscaping, JsonlEscapesControlCharacters) {
  const std::string evil = "task,\"x\"\n\r\t\x01 end";
  const std::string jsonl = report_jsonl(synthetic_campaign(evil));
  // One physical line per job, no matter what the label contains.
  EXPECT_EQ(static_cast<int>(std::count(jsonl.begin(), jsonl.end(), '\n')), 1);
  EXPECT_NE(jsonl.find("task,\\\"x\\\"\\n\\r\\t\\u0001 end"),
            std::string::npos);
}

}  // namespace
}  // namespace pwcet
