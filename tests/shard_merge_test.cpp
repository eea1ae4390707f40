// Property suite for distributed campaign sharding (engine/shard.hpp):
// for every shipped spec and several shard counts, running the shards
// independently and merging their fragments must reproduce the
// single-process report byte for byte — store on or off, cold or warm —
// and every way a fragment set can be inconsistent (missing shard,
// duplicate shard, spec-key mismatch, corrupted artifact, store
// collision) must be a hard, named error.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/report.hpp"
#include "engine/runner.hpp"
#include "engine/shard.hpp"
#include "engine/spec_io.hpp"
#include "store/artifact_store.hpp"
#include "store/merge.hpp"

#ifndef PWCET_SPECS_DIR
#define PWCET_SPECS_DIR "specs"
#endif

namespace pwcet {
namespace {

namespace fs = std::filesystem;

const char* const kShippedSpecs[] = {
    "architecture_tradeoff", "ccdf",        "dcache_extension",
    "geometry_sweep",        "mbpta_vs_spta", "normalized_pwcet",
    "pfail_sweep",           "shared_l2",   "srb_conservatism",
    "tlb_sweep",             "writeback_dcache"};

std::string spec_path(const std::string& name) {
  return std::string(PWCET_SPECS_DIR) + "/" + name + ".json";
}

class ShardMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("pwcet_shard_test_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string subdir(const std::string& name) {
    const std::string path = (fs::path(root_) / name).string();
    fs::create_directories(path);
    return path;
  }

  std::string root_;
};

/// Renders the pair of report texts every identity check compares.
struct ReportBytes {
  std::string scalar;
  std::string dist;
};

ReportBytes render(const CampaignResult& campaign) {
  return {report_csv(campaign) + report_jsonl(campaign),
          campaign.spec.ccdf_exceedances.empty()
              ? std::string()
              : report_dist_csv(campaign) + report_dist_jsonl(campaign)};
}

// ---- unit: selector, partition, assignment --------------------------------

TEST(ShardSelectorParse, AcceptsOneBasedIOverN) {
  ShardSelector shard;
  ASSERT_TRUE(parse_shard_selector("1/1", shard));
  EXPECT_EQ(shard.index, 0u);
  EXPECT_EQ(shard.count, 1u);
  ASSERT_TRUE(parse_shard_selector("3/7", shard));
  EXPECT_EQ(shard.index, 2u);
  EXPECT_EQ(shard.count, 7u);
}

TEST(ShardSelectorParse, RejectsMalformedSpellings) {
  ShardSelector shard;
  for (const char* bad : {"", "/", "1/", "/3", "0/3", "4/3", "a/3", "1/b",
                          "1/3/5", "-1/3", "1/-3", "1/65537", "1 /3"})
    EXPECT_FALSE(parse_shard_selector(bad, shard)) << "'" << bad << "'";
}

TEST(ShardPartition, RangesTileTheGroupsContiguously) {
  for (const std::size_t groups : {0u, 1u, 5u, 9u, 64u}) {
    for (const std::size_t count : {1u, 2u, 3u, 7u, 11u}) {
      std::size_t expected_begin = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const auto [begin, end] =
            shard_group_range(groups, ShardSelector{i, count});
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(begin, end);
        EXPECT_LE(end, groups);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, groups);
    }
  }
}

TEST(ShardPartition, AssignmentCoversEveryJobExactlyOnce) {
  const SpecDocument doc = load_spec(spec_path("pfail_sweep"));
  const std::vector<CampaignJob> jobs = expand_campaign(doc.spec);
  const auto schedule = campaign_group_schedule(jobs);
  for (const std::size_t count : {1u, 2u, 3u, 7u}) {
    const std::vector<std::size_t> assignment =
        shard_assignment(schedule, jobs.size(), count);
    ASSERT_EQ(assignment.size(), jobs.size());
    std::set<std::size_t> covered;
    for (std::size_t i = 0; i < count; ++i) {
      for (const std::size_t slot :
           shard_job_slots(schedule, ShardSelector{i, count})) {
        EXPECT_EQ(assignment[slot], i);
        EXPECT_TRUE(covered.insert(slot).second) << "slot " << slot;
      }
    }
    EXPECT_EQ(covered.size(), jobs.size());
  }
}

TEST(ShardFragmentCodec, RoundTripsThroughRenderAndParse) {
  ShardFragment fragment;
  fragment.index = 1;
  fragment.count = 3;
  fragment.spec_key = "00112233445566778899aabbccddeeff";
  fragment.job_count = 9;
  fragment.curve_points = 2;
  fragment.slots = {3, 4, 5, 7};
  fragment.report_rows = "{\"r\":1}\n{\"r\":2}\n{\"r\":3}\n{\"r\":4}\n";
  fragment.dist_rows =
      "{\"d\":1}\n{\"d\":2}\n{\"d\":3}\n{\"d\":4}\n"
      "{\"d\":5}\n{\"d\":6}\n{\"d\":7}\n{\"d\":8}\n";

  ShardFragment parsed;
  std::string error;
  ASSERT_TRUE(parse_shard_fragment(render_shard_fragment(fragment), parsed,
                                   error))
      << error;
  EXPECT_EQ(parsed.index, fragment.index);
  EXPECT_EQ(parsed.count, fragment.count);
  EXPECT_EQ(parsed.spec_key, fragment.spec_key);
  EXPECT_EQ(parsed.job_count, fragment.job_count);
  EXPECT_EQ(parsed.curve_points, fragment.curve_points);
  EXPECT_EQ(parsed.slots, fragment.slots);
  EXPECT_EQ(parsed.report_rows, fragment.report_rows);
  EXPECT_EQ(parsed.dist_rows, fragment.dist_rows);
}

TEST(ShardFragmentCodec, RejectsForeignSchemaAndRowMiscounts) {
  ShardFragment fragment;
  fragment.spec_key = "00112233445566778899aabbccddeeff";
  fragment.job_count = 4;
  fragment.count = 2;
  fragment.slots = {0, 1};
  fragment.report_rows = "{}\n";  // one row short of slots.size()
  ShardFragment parsed;
  std::string error;
  EXPECT_FALSE(parse_shard_fragment(render_shard_fragment(fragment), parsed,
                                    error));
  EXPECT_NE(error.find("report row"), std::string::npos) << error;
  EXPECT_FALSE(parse_shard_fragment("{\"schema\":\"bogus\"}\n", parsed,
                                    error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

// ---- the identity property across every shipped spec ----------------------

/// Shards share one cache directory (the concurrent-deployment layout);
/// store on/off alternates with the shard count so both paths cross every
/// spec. Cold/warm is exercised by a second pass for one spec below.
TEST_F(ShardMergeTest, EveryShippedSpecMergesByteIdenticallyForAllCounts) {
  for (const char* name : kShippedSpecs) {
    SCOPED_TRACE(name);
    const SpecDocument doc = load_spec(spec_path(name));

    RunnerOptions reference_options;
    reference_options.threads = 1;
    reference_options.store.enabled = false;
    const ReportBytes reference =
        render(run_campaign(doc.spec, reference_options));

    std::size_t variant = 0;
    for (const std::size_t count : {1u, 2u, 3u, 7u}) {
      SCOPED_TRACE("count=" + std::to_string(count));
      const std::string cache_dir =
          subdir(std::string(name) + "_n" + std::to_string(count));
      const bool with_store = (variant++ % 2) == 0;
      for (std::size_t i = 0; i < count; ++i) {
        RunnerOptions options;
        options.threads = 1;
        options.store.enabled = with_store;
        if (with_store) options.store.artifact_dir = cache_dir;
        run_campaign_shard(doc.spec, ShardSelector{i, count}, options,
                           cache_dir);
      }

      ShardMergeOptions merge_options;
      merge_options.from_dirs = {cache_dir};
      merge_options.into_dir =
          subdir(std::string(name) + "_n" + std::to_string(count) + "_union");
      const ShardMergeOutcome merged =
          merge_campaign_shards(doc.spec, merge_options);
      EXPECT_EQ(merged.shard_count, count);

      const ReportBytes rebuilt = render(merged.campaign);
      EXPECT_EQ(reference.scalar, rebuilt.scalar);
      EXPECT_EQ(reference.dist, rebuilt.dist);
    }
  }
}

/// Warm path: re-running the shards against the cache directory the first
/// pass populated (including the merged artifacts published by `--into`
/// pointing back at it) must answer from disk and still merge to the same
/// bytes.
TEST_F(ShardMergeTest, WarmShardRerunsMergeToTheSameBytes) {
  const SpecDocument doc = load_spec(spec_path("pfail_sweep"));
  RunnerOptions reference_options;
  reference_options.threads = 1;
  reference_options.store.enabled = false;
  const ReportBytes reference =
      render(run_campaign(doc.spec, reference_options));

  const std::string cache_dir = subdir("warm");
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass=" + std::to_string(pass));
    for (std::size_t i = 0; i < 3; ++i) {
      RunnerOptions options;
      options.threads = 1;
      options.store.enabled = true;
      options.store.artifact_dir = cache_dir;
      run_campaign_shard(doc.spec, ShardSelector{i, 3}, options, cache_dir);
    }
    ShardMergeOptions merge_options;
    merge_options.from_dirs = {cache_dir};
    merge_options.into_dir = cache_dir;
    const ShardMergeOutcome merged =
        merge_campaign_shards(doc.spec, merge_options);
    const ReportBytes rebuilt = render(merged.campaign);
    EXPECT_EQ(reference.scalar, rebuilt.scalar);
    EXPECT_EQ(reference.dist, rebuilt.dist);
  }
}

/// The store union copies artifacts only: a foreign .jsonl file in a
/// shard's cache directory stays behind and is not counted.
TEST_F(ShardMergeTest, StoreUnionLeavesForeignFilesBehind) {
  const SpecDocument doc = load_spec(spec_path("geometry_sweep"));
  const std::string cache_dir = subdir("foreign");
  RunnerOptions options;
  options.threads = 1;
  options.store.artifact_dir = cache_dir;
  run_campaign_shard(doc.spec, ShardSelector{0, 1}, options, cache_dir);
  std::size_t artifacts = 0;
  for (const auto& entry : fs::recursive_directory_iterator(cache_dir))
    artifacts += entry.is_regular_file() ? 1 : 0;
  const fs::path notes = fs::path(cache_dir) / "notes" / "experiment.jsonl";
  fs::create_directories(notes.parent_path());
  std::ofstream(notes) << "{\"not\":\"an artifact\"}\n";

  ShardMergeOptions merge_options;
  merge_options.from_dirs = {cache_dir};
  merge_options.into_dir = subdir("foreign_union");
  const ShardMergeOutcome merged =
      merge_campaign_shards(doc.spec, merge_options);
  EXPECT_EQ(merged.artifacts_copied, artifacts);
  EXPECT_FALSE(fs::exists(fs::path(merge_options.into_dir) / "notes"));
}

/// More shards than analyzer groups: the surplus shards own nothing, write
/// (empty) fragments, and the merge still reassembles everything.
TEST_F(ShardMergeTest, MoreShardsThanGroupsLeavesSurplusShardsEmpty) {
  const SpecDocument doc = load_spec(spec_path("ccdf"));
  const std::vector<CampaignJob> jobs = expand_campaign(doc.spec);
  const std::size_t groups = campaign_group_schedule(jobs).size();
  const std::size_t count = groups + 2;
  ASSERT_LE(count, kMaxShardCount);

  const std::string cache_dir = subdir("surplus");
  std::size_t owned_total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    RunnerOptions options;
    options.threads = 1;
    options.store.enabled = false;
    const ShardRunOutcome outcome = run_campaign_shard(
        doc.spec, ShardSelector{i, count}, options, cache_dir);
    owned_total += outcome.slots.size();
  }
  EXPECT_EQ(owned_total, jobs.size());

  ShardMergeOptions merge_options;
  merge_options.from_dirs = {cache_dir};
  const ShardMergeOutcome merged =
      merge_campaign_shards(doc.spec, merge_options);
  RunnerOptions reference_options;
  reference_options.threads = 1;
  reference_options.store.enabled = false;
  const ReportBytes reference =
      render(run_campaign(doc.spec, reference_options));
  const ReportBytes rebuilt = render(merged.campaign);
  EXPECT_EQ(reference.scalar, rebuilt.scalar);
  EXPECT_EQ(reference.dist, rebuilt.dist);
}

// ---- rejection diagnostics -------------------------------------------------

class ShardMergeRejectionTest : public ShardMergeTest {
 protected:
  /// Runs shards {0..count-1} \ {skip} of pfail_sweep into per-shard dirs;
  /// returns the dirs (slot `skip`, if any, simply has no fragment).
  std::vector<std::string> run_shards(std::size_t count,
                                      std::size_t skip = SIZE_MAX) {
    doc_ = load_spec(spec_path("pfail_sweep"));
    std::vector<std::string> dirs;
    for (std::size_t i = 0; i < count; ++i) {
      dirs.push_back(subdir("shard" + std::to_string(i)));
      if (i == skip) continue;
      RunnerOptions options;
      options.threads = 1;
      options.store.enabled = true;
      options.store.artifact_dir = dirs.back();
      run_campaign_shard(doc_.spec, ShardSelector{i, count}, options,
                         dirs.back());
    }
    return dirs;
  }

  std::string merge_error(const std::vector<std::string>& dirs,
                          std::size_t shard_count = 0,
                          const std::string& into = "") {
    ShardMergeOptions options;
    options.from_dirs = dirs;
    options.shard_count = shard_count;
    options.into_dir = into;
    try {
      merge_campaign_shards(doc_.spec, options);
    } catch (const ShardMergeError& e) {
      return e.what();
    }
    return "";
  }

  /// The single fragment artifact file under `dir`.
  std::string fragment_file(const std::string& dir) {
    for (const auto& entry :
         fs::directory_iterator(fs::path(dir) / kShardFragmentKind))
      if (entry.path().extension() == ".jsonl") return entry.path().string();
    ADD_FAILURE() << "no fragment under " << dir;
    return "";
  }

  SpecDocument doc_;
};

TEST_F(ShardMergeRejectionTest, MissingShardIsNamed) {
  const std::vector<std::string> dirs = run_shards(3, 1);
  const std::string error = merge_error(dirs, 3);
  EXPECT_NE(error.find("missing shard 2/3"), std::string::npos) << error;
}

TEST_F(ShardMergeRejectionTest, DuplicateDifferingShardIsNamed) {
  const std::vector<std::string> dirs = run_shards(3);
  // A doctored duplicate of shard 1: same fragment key, different rows.
  const std::string original = fragment_file(dirs[0]);
  std::ifstream in(original, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string payload = buffer.str();
  // Re-store a modified payload under the same key in another directory so
  // both validate but disagree.
  ShardFragment fragment;
  std::string parse_diagnostic;
  {
    // Strip the artifact header (first line) to get the raw payload.
    const std::string raw = payload.substr(payload.find('\n') + 1);
    ASSERT_TRUE(parse_shard_fragment(raw, fragment, parse_diagnostic))
        << parse_diagnostic;
  }
  // Differing bytes, still well-formed: one digit of the first report row.
  const std::size_t digit =
      fragment.report_rows.find_first_of("0123456789");
  ASSERT_NE(digit, std::string::npos);
  fragment.report_rows[digit] = fragment.report_rows[digit] == '9' ? '8' : '9';
  const ArtifactStore duplicate_store({dirs[1]});
  ASSERT_TRUE(duplicate_store.store_text(
      kShardFragmentKind,
      shard_fragment_key(campaign_spec_key(doc_.spec), fragment.index,
                         fragment.count),
      render_shard_fragment(fragment)));
  const std::string error = merge_error(dirs, 3);
  EXPECT_NE(error.find("duplicate shard 1/3"), std::string::npos) << error;
}

TEST_F(ShardMergeRejectionTest, ByteIdenticalDuplicateFragmentsAreAccepted) {
  const std::vector<std::string> dirs = run_shards(3);
  // The same shard run lands in two directories (a retry that succeeded
  // twice): identical bytes are not a conflict.
  const std::string original = fragment_file(dirs[0]);
  const std::string copy_dir = subdir("shard0_copy");
  fs::create_directories(fs::path(copy_dir) / kShardFragmentKind);
  fs::copy_file(original, fs::path(copy_dir) / kShardFragmentKind /
                              fs::path(original).filename());
  std::vector<std::string> all = dirs;
  all.push_back(copy_dir);
  EXPECT_EQ(merge_error(all, 3), "");
}

TEST_F(ShardMergeRejectionTest, StoreOffRetryOfAShardMergesBesideIt) {
  std::vector<std::string> dirs = run_shards(3);
  // Shard 1 retried without the store into its own directory: its rows
  // match the original's, though the two runs' store traffic differs.
  dirs.push_back(subdir("shard0_retry"));
  RunnerOptions options;
  options.threads = 1;
  options.store.enabled = false;
  run_campaign_shard(doc_.spec, ShardSelector{0, 3}, options, dirs.back());

  ShardMergeOptions merge_options;
  merge_options.from_dirs = dirs;
  const ShardMergeOutcome merged =
      merge_campaign_shards(doc_.spec, merge_options);
  RunnerOptions reference_options;
  reference_options.threads = 1;
  reference_options.store.enabled = false;
  const ReportBytes reference =
      render(run_campaign(doc_.spec, reference_options));
  const ReportBytes rebuilt = render(merged.campaign);
  EXPECT_EQ(reference.scalar, rebuilt.scalar);
  EXPECT_EQ(reference.dist, rebuilt.dist);
}

TEST_F(ShardMergeRejectionTest, SpecKeyMismatchIsNamed) {
  run_shards(2);
  const std::vector<std::string> dirs = {subdir("shard0"), subdir("shard1")};
  const SpecDocument other = load_spec(spec_path("ccdf"));
  doc_ = other;  // merge against a different spec than the fragments carry
  const std::string error = merge_error(dirs, 2);
  EXPECT_NE(error.find("spec"), std::string::npos) << error;
  EXPECT_NE(error.find(campaign_spec_key(other.spec).hex()),
            std::string::npos)
      << error;
}

TEST_F(ShardMergeRejectionTest, ShardCountAmbiguityAsksForShardsFlag) {
  const std::vector<std::string> dirs = run_shards(2);
  // Add a 1/1 partition of the same spec into the same directories.
  RunnerOptions options;
  options.threads = 1;
  options.store.enabled = false;
  run_campaign_shard(doc_.spec, ShardSelector{0, 1}, options, dirs[0]);
  const std::string ambiguous = merge_error(dirs);
  EXPECT_NE(ambiguous.find("--shards"), std::string::npos) << ambiguous;
  // Selecting either partition explicitly resolves it.
  EXPECT_EQ(merge_error(dirs, 2), "");
  EXPECT_EQ(merge_error({dirs[0]}, 1), "");
}

TEST_F(ShardMergeRejectionTest, CorruptedFragmentArtifactIsNamed) {
  const std::vector<std::string> dirs = run_shards(2);
  const std::string victim = fragment_file(dirs[1]);
  std::string bytes;
  {
    std::ifstream in(victim, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  // Flip one payload byte; the artifact header's content hash catches it.
  bytes[bytes.size() / 2] = bytes[bytes.size() / 2] == 'x' ? 'y' : 'x';
  std::ofstream(victim, std::ios::binary) << bytes;
  const std::string error = merge_error(dirs, 2);
  EXPECT_NE(error.find("corrupted shard fragment artifact"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find(victim), std::string::npos) << error;
}

TEST_F(ShardMergeRejectionTest, HostileSlotListsAreNamedBeforeExpansion) {
  // A fragment re-stored through the artifact API passes the header and
  // payload-hash checks, so its slot list is the last line of defence: a
  // range past the job count or a signed number must be a named error,
  // never a multi-gigabyte expansion.
  const std::vector<std::string> dirs = run_shards(2);
  const ArtifactStore store({dirs[0]});
  const StoreKey key = shard_fragment_key(campaign_spec_key(doc_.spec), 0, 2);
  const std::string original = store.load_text(kShardFragmentKind, key).value();
  const std::size_t begin = original.find("\"slots\":\"") + 9;
  const std::size_t end = original.find('"', begin);
  ASSERT_LT(end, original.size());
  for (const std::string hostile : {"0-3000000000", "0--1", "-1"}) {
    std::string payload = original;
    payload.replace(begin, end - begin, hostile);
    ASSERT_TRUE(store.store_text(kShardFragmentKind, key, payload));
    const std::string error = merge_error(dirs, 2);
    EXPECT_NE(error.find("slot list '" + hostile + "'"), std::string::npos)
        << error;
  }
}

TEST_F(ShardMergeRejectionTest, StoreCollisionNamesKeyAndBothFiles) {
  const std::vector<std::string> dirs = run_shards(2);
  // Plant the same artifact key with different bytes in both stores.
  const ArtifactStore a({dirs[0]});
  const ArtifactStore b({dirs[1]});
  const StoreKey key = KeyHasher("collision-test").mix_u64(7).finish();
  ASSERT_TRUE(a.store_text("campaign-report", key, "alpha\n"));
  ASSERT_TRUE(b.store_text("campaign-report", key, "beta\n"));
  const std::string union_dir = subdir("union");
  const std::string error = merge_error(dirs, 2, union_dir);
  EXPECT_NE(error.find("collision"), std::string::npos) << error;
  EXPECT_NE(error.find(key.hex()), std::string::npos) << error;
  // Both colliding files are named: the incoming shard copy and the copy
  // already landed in the union (shard 1's bytes arrive there first).
  EXPECT_NE(error.find(dirs[1]), std::string::npos) << error;
  EXPECT_NE(error.find(union_dir), std::string::npos) << error;
}

TEST_F(ShardMergeRejectionTest, NoFragmentsAnywhereIsNamed) {
  doc_ = load_spec(spec_path("pfail_sweep"));
  const std::string error = merge_error({subdir("empty")});
  EXPECT_NE(error.find("no shard fragments"), std::string::npos) << error;
}

// ---- store hygiene ---------------------------------------------------------

TEST_F(ShardMergeTest, OrphanSweepRemovesOnlyStaleTempFiles) {
  const std::string dir = subdir("orphans");
  const fs::path kind_dir = fs::path(dir) / "campaign-report";
  fs::create_directories(kind_dir);
  const fs::path fresh = kind_dir / "aa.jsonl.tmp123.1";
  const fs::path artifact = kind_dir / "bb.jsonl";
  std::ofstream(fresh) << "partial";
  std::ofstream(artifact) << "done";

  const ArtifactStore store({dir});
  // A fresh temp file (age < min_age) belongs to a live writer: kept.
  EXPECT_EQ(store.sweep_orphans(std::chrono::seconds(3600)), 0u);
  // With the age floor at zero it is debris: removed; artifacts survive.
  EXPECT_EQ(store.sweep_orphans(std::chrono::seconds(0)), 1u);
  EXPECT_FALSE(fs::exists(fresh));
  EXPECT_TRUE(fs::exists(artifact));
}

}  // namespace
}  // namespace pwcet
