// In-process tests for the `pwcet` CLI (cli/cli.hpp): the smoke contract
// that `pwcet run <spec>` emits byte-identical reports to the programmatic
// campaign API (store on or off, any thread count), plus exit-code and
// diagnostic behavior for malformed inputs, and the describe/list/cache
// subcommands.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "cli/cli.hpp"
#include "engine/report.hpp"
#include "engine/runner.hpp"
#include "engine/spec_io.hpp"
#include "support/json_doc.hpp"

#ifndef PWCET_SPECS_DIR
#define PWCET_SPECS_DIR "specs"
#endif

namespace pwcet {
namespace {

namespace fs = std::filesystem;

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult run_cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  CliResult result;
  result.code = cli::run(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("pwcet_cli_test_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::string& text) {
    const std::string path = (fs::path(dir_) / name).string();
    std::ofstream(path, std::ios::binary) << text;
    return path;
  }

  static std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  /// The tiny campaign used by the identity tests (12 cheap SPTA jobs),
  /// as both a spec file and its programmatic twin.
  std::string tiny_spec_path() {
    return write_file("tiny.json", R"({
      "tasks": ["fibcall", "bs"],
      "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
      "pfails": [1e-6, 1e-4],
      "mechanisms": ["none", "SRB", "RW"]
    })");
  }

  /// The tiny campaign with a data cache: 24 SPTA jobs whose two-domain
  /// pipelines share their profiles, FMMs and penalties through the memo.
  std::string tiny_dcache_spec_path() {
    return write_file("tiny_dcache.json", R"({
      "tasks": ["fibcall", "bs"],
      "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
      "pfails": [1e-6, 1e-4],
      "mechanisms": ["none", "SRB", "RW"],
      "dcaches": [{"sets": 8, "ways": 2, "line_bytes": 16}]
    })");
  }

  /// The tiny campaign with a view: per task and pfail, the unprotected
  /// pWCET and the SRB / unprotected ratio.
  std::string tiny_view_spec_path() {
    return write_file("tiny_view.json", R"({
      "tasks": ["fibcall", "bs"],
      "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
      "pfails": [1e-6, 1e-4],
      "mechanisms": ["none", "SRB", "RW"],
      "view": {
        "rows": ["tasks", "pfails"],
        "columns": [
          {"label": "none", "value": "pwcet", "where": {"mechanisms": "none"}},
          {"label": "SRB/none", "value": "pwcet",
           "where": {"mechanisms": "SRB"},
           "divide_by": {"value": "pwcet", "where": {"mechanisms": "none"}}}
        ]
      }
    })");
  }

  static CampaignSpec tiny_spec_programmatic() {
    CampaignSpec spec;
    spec.tasks = {"fibcall", "bs"};
    spec.geometries = {CacheConfig::paper_default()};
    spec.pfails = {1e-6, 1e-4};
    spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
                       Mechanism::kReliableWay};
    return spec;
  }

  std::string dir_;
};

// ---- pwcet run: byte-identity with the programmatic API --------------------

TEST_F(CliTest, RunEmitsByteIdenticalReportsAtAnyThreadCountAndStoreMode) {
  const std::string spec_path = tiny_spec_path();

  RunnerOptions reference_options;
  reference_options.threads = 1;
  const CampaignResult reference =
      run_campaign(tiny_spec_programmatic(), reference_options);
  const std::string csv = report_csv(reference);
  const std::string jsonl = report_jsonl(reference);

  // Default store, default threads.
  CliResult result = run_cli({"run", spec_path});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out, csv);

  // Different thread count, store disabled: same bytes.
  result = run_cli({"run", spec_path, "--threads", "2", "--store", "off"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out, csv);

  // JSONL format.
  result = run_cli({"run", spec_path, "--format", "jsonl"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out, jsonl);

  // Disk tier enabled: cold run, then warm run answered from the
  // persisted campaign artifact — still the same bytes.
  const std::string cache = (fs::path(dir_) / "cache").string();
  result = run_cli({"run", spec_path, "--cache-dir", cache});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out, csv);
  result = run_cli({"run", spec_path, "--cache-dir", cache});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out, csv);
}

TEST_F(CliTest, RunWithOutputWritesTheExampleBinaryReportFiles) {
  const std::string spec_path = tiny_spec_path();
  const std::string base = (fs::path(dir_) / "report").string();

  const CliResult result = run_cli({"run", spec_path, "--output", base});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out, "");  // report went to files, stdout stays empty

  // The files must match what the programmatic API's write_report_files
  // produces.
  const CampaignResult reference =
      run_campaign(tiny_spec_programmatic(), RunnerOptions{});
  EXPECT_EQ(read_file(base + ".csv"), report_csv(reference));
  EXPECT_EQ(read_file(base + ".jsonl"), report_jsonl(reference));
}

TEST_F(CliTest, RunFormatTableRendersTheSpecViewOrTheFlatReport) {
  const CampaignResult reference =
      run_campaign(tiny_spec_programmatic(), RunnerOptions{});

  // Without a view: the flat report as an aligned table.
  CliResult result = run_cli({"run", tiny_spec_path(), "--format", "table"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out, report_table(reference).to_string());

  // With one: the view, over the same campaign.
  const std::string view_path = tiny_view_spec_path();
  const SpecDocument doc = load_spec(view_path);
  ASSERT_TRUE(doc.view.has_value());
  result = run_cli({"run", view_path, "--format", "table"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out, render_view(reference, *doc.view).to_string());
  EXPECT_NE(result.out.find("SRB/none"), std::string::npos) << result.out;

  // The view is display-only: every other format is unchanged.
  result = run_cli({"run", view_path});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out, report_csv(reference));
}

TEST_F(CliTest, MergeFormatTableRendersTheSpecViewOrTheFlatReport) {
  const CampaignResult reference =
      run_campaign(tiny_spec_programmatic(), RunnerOptions{});
  const std::string view_path = tiny_view_spec_path();
  const SpecDocument doc = load_spec(view_path);
  ASSERT_TRUE(doc.view.has_value());

  for (const std::string& spec_path : {tiny_spec_path(), view_path}) {
    const std::string cache =
        (fs::path(dir_) / fs::path(spec_path).stem()).string();
    for (const char* selector : {"1/2", "2/2"}) {
      // A shard holds only part of the grid: its table is the flat one.
      const CliResult shard = run_cli({"run", spec_path, "--shard", selector,
                                       "--cache-dir", cache, "--format",
                                       "table"});
      ASSERT_EQ(shard.code, 0) << shard.err;
      EXPECT_NE(shard.out.find("bound_misses_1"), std::string::npos)
          << shard.out;
    }
    const CliResult merged =
        run_cli({"merge", spec_path, "--from", cache, "--format", "table"});
    ASSERT_EQ(merged.code, 0) << merged.err;
    EXPECT_EQ(merged.out, spec_path == view_path
                              ? render_view(reference, *doc.view).to_string()
                              : report_table(reference).to_string());
  }
}

TEST_F(CliTest, OversizedGeometryFailsAtLoadNamingTheField) {
  const std::string huge = write_file("huge.json", R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 2147483648, "ways": 1, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"]
  })");
  const CliResult result = run_cli({"run", huge});
  EXPECT_EQ(result.code, 1);
  EXPECT_EQ(result.out, "");
  EXPECT_NE(result.err.find("field \"geometries[0].sets\""),
            std::string::npos)
      << result.err;
}

TEST_F(CliTest, LastStoreFlagWins) {
  // With a data cache every pipeline memoizes, so a run with the store
  // makes memo lookups and one without makes none.
  const std::string spec_path = tiny_dcache_spec_path();
  const CliResult off =
      run_cli({"run", spec_path, "--store", "on", "--store", "off"});
  ASSERT_EQ(off.code, 0) << off.err;
  EXPECT_NE(off.err.find("store: 0 hits / 0 misses"), std::string::npos)
      << off.err;
  const CliResult on =
      run_cli({"run", spec_path, "--store", "off", "--store", "on"});
  ASSERT_EQ(on.code, 0) << on.err;
  EXPECT_NE(on.err.find("store: "), std::string::npos) << on.err;
  EXPECT_EQ(on.err.find("store: 0 hits / 0 misses"), std::string::npos)
      << on.err;
  EXPECT_EQ(on.out, off.out);
}

// ---- error handling --------------------------------------------------------

TEST_F(CliTest, MalformedSpecFailsNonZeroNamingTheField) {
  const std::string bad = write_file("bad.json", R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["reliable-way"]
  })");
  const CliResult result = run_cli({"run", bad});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("unknown mechanism \"reliable-way\""),
            std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("mechanisms[0]"), std::string::npos) << result.err;
  EXPECT_NE(result.err.find(":5"), std::string::npos) << result.err;
}

TEST_F(CliTest, MbptaSpecWithExceedanceOneFailsInsteadOfAborting) {
  // The shipped mbpta_vs_spta spec with target_exceedance 1: the Gumbel
  // quantile is undefined there, so the spec must fail at load, exit 1.
  const std::string bad = write_file("mbpta_one.json", R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-3],
    "mechanisms": ["none", "RW", "SRB"],
    "kinds": ["spta", "mbpta"],
    "target_exceedance": 1,
    "mbpta": {"chips": 400, "block_size": 20}
  })");
  const CliResult result = run_cli({"run", bad});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("target_exceedance must be below 1"),
            std::string::npos)
      << result.err;
}

TEST_F(CliTest, MissingSpecFileFailsNonZero) {
  const CliResult result = run_cli({"run", dir_ + "/nope.json"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("cannot open spec file"), std::string::npos);
}

TEST_F(CliTest, UsageErrorsExitWithTwo) {
  EXPECT_EQ(run_cli({}).code, 2);
  EXPECT_EQ(run_cli({"frobnicate"}).code, 2);
  EXPECT_EQ(run_cli({"run"}).code, 2);
  EXPECT_EQ(run_cli({"run", "a.json", "--format", "yaml"}).code, 2);
  EXPECT_EQ(run_cli({"run", "a.json", "--threads", "many"}).code, 2);
  EXPECT_EQ(run_cli({"run", "a.json", "--store", "maybe"}).code, 2);
  EXPECT_EQ(run_cli({"run", "a.json", "--threads"}).code, 2);
  EXPECT_EQ(run_cli({"run", "a.json", "--output", "b", "--format", "csv"})
                .code,
            2);
  EXPECT_EQ(run_cli({"cache", "flush"}).code, 2);
  EXPECT_EQ(run_cli({"help"}).code, 0);
}

// ---- describe / list -------------------------------------------------------

TEST_F(CliTest, DescribeExpandsTheGridWithoutRunning) {
  const CliResult result =
      run_cli({"describe", PWCET_SPECS_DIR "/geometry_sweep.json"});
  EXPECT_EQ(result.code, 0) << result.err;
  // 6 tasks x 5 geometries x 1 pfail x 3 mechanisms = 90 jobs.
  EXPECT_NE(result.out.find("= 90 jobs"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("spec key: "), std::string::npos);
  // Seeds in the listing are the exact per-job derived seeds.
  const SpecDocument doc = load_spec(PWCET_SPECS_DIR "/geometry_sweep.json");
  const std::vector<CampaignJob> jobs = expand_campaign(doc.spec);
  EXPECT_NE(result.out.find(std::to_string(jobs.front().seed)),
            std::string::npos);
  EXPECT_NE(result.out.find(std::to_string(jobs.back().seed)),
            std::string::npos);
}

TEST_F(CliTest, ListNamesEveryAxisValue) {
  const CliResult result = run_cli({"list"});
  EXPECT_EQ(result.code, 0);
  for (const char* needle :
       {"adpcm", "statemate", "interp", "dispatch", "none", "RW", "SRB",
        "same", "ilp", "tree", "spta", "mbpta", "sim", "slack"})
    EXPECT_NE(result.out.find(needle), std::string::npos) << needle;
}

// ---- distribution sink -----------------------------------------------------

TEST_F(CliTest, DistributionFormatsAndFilesMatchTheProgrammaticApi) {
  const std::string spec_path = write_file("dist.json", R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none", "SRB"],
    "ccdf_exceedances": [1e-3, 1e-9, 1e-15]
  })");
  const SpecDocument doc = load_spec(spec_path);
  const CampaignResult reference = run_campaign(doc.spec, RunnerOptions{});

  CliResult result = run_cli({"run", spec_path, "--format", "dist-csv"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out, report_dist_csv(reference));

  result = run_cli({"run", spec_path, "--format", "dist-jsonl"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out, report_dist_jsonl(reference));

  // --output additionally writes the .dist pair.
  const std::string base = (fs::path(dir_) / "dist_report").string();
  result = run_cli({"run", spec_path, "--output", base});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(read_file(base + ".csv"), report_csv(reference));
  EXPECT_EQ(read_file(base + ".dist.csv"), report_dist_csv(reference));
  EXPECT_EQ(read_file(base + ".dist.jsonl"), report_dist_jsonl(reference));

  // A dist format on a spec without a distribution sink is a user error.
  const std::string scalar = tiny_spec_path();
  result = run_cli({"run", scalar, "--format", "dist-csv"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("ccdf_exceedances"), std::string::npos)
      << result.err;
}

// ---- cache -----------------------------------------------------------------

TEST_F(CliTest, CacheStatsAndClearManageTheArtifactDirectory) {
  const std::string spec_path = tiny_spec_path();
  const std::string cache = (fs::path(dir_) / "cache").string();

  // No directory yet.
  CliResult result = run_cli({"cache", "stats", "--cache-dir", cache});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("does not exist"), std::string::npos);

  // Populate it, then stats must see the artifacts — and not a foreign
  // .jsonl file that merely sits in a kind-shaped directory.
  ASSERT_EQ(run_cli({"run", spec_path, "--cache-dir", cache}).code, 0);
  const fs::path notes = fs::path(cache) / "notes" / "experiment.jsonl";
  fs::create_directories(notes.parent_path());
  std::ofstream(notes) << "{\"not\":\"an artifact\"}\n";
  result = run_cli({"cache", "stats", "--cache-dir", cache});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("campaign-report"), std::string::npos)
      << result.out;
  EXPECT_EQ(result.out.find("notes"), std::string::npos) << result.out;

  // Clear, then stats must see an empty cache again.
  result = run_cli({"cache", "clear", "--cache-dir", cache});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("removed "), std::string::npos);
  result = run_cli({"cache", "stats", "--cache-dir", cache});
  EXPECT_EQ(result.code, 0);
  EXPECT_EQ(result.out.find("campaign-report"), std::string::npos)
      << result.out;

  // A foreign file in the cache directory survives `clear`, but an
  // orphaned artifact temp file (a writer died before its rename) is
  // swept even when its kind directory holds nothing else.
  const std::string foreign = (fs::path(cache) / "README").string();
  std::ofstream(foreign) << "not an artifact";
  const fs::path orphan_dir = fs::path(cache) / "distribution";
  fs::create_directories(orphan_dir);
  const std::string orphan =
      (orphan_dir / "deadbeef.jsonl.tmp123.4").string();
  std::ofstream(orphan) << "partial write";
  ASSERT_EQ(run_cli({"cache", "clear", "--cache-dir", cache}).code, 0);
  EXPECT_TRUE(fs::exists(foreign));
  EXPECT_TRUE(fs::exists(notes));
  EXPECT_FALSE(fs::exists(orphan));
}

TEST_F(CliTest, CacheClearLeavesDirectoriesItNeverFilled) {
  const std::string spec_path = std::string(PWCET_SPECS_DIR) + "/ccdf.json";
  const std::string cache = (fs::path(dir_) / "cache").string();
  const fs::path keep = fs::path(cache) / "keep_me";
  fs::create_directories(keep);
  ASSERT_EQ(run_cli({"run", spec_path, "--cache-dir", cache}).code, 0);

  // stats lists the kinds in sorted order.
  CliResult result = run_cli({"cache", "stats", "--cache-dir", cache});
  ASSERT_EQ(result.code, 0) << result.err;
  const std::size_t dist = result.out.find("campaign-dist");
  const std::size_t report = result.out.find("campaign-report");
  const std::size_t distribution = result.out.find("distribution");
  ASSERT_NE(distribution, std::string::npos) << result.out;
  EXPECT_LT(dist, report) << result.out;
  EXPECT_LT(report, distribution) << result.out;

  // clear empties the kind directories it wrote and removes them, but an
  // empty directory it never filled stays.
  ASSERT_EQ(run_cli({"cache", "clear", "--cache-dir", cache}).code, 0);
  EXPECT_TRUE(fs::exists(keep));
  EXPECT_FALSE(fs::exists(fs::path(cache) / "campaign-report"));
}

TEST_F(CliTest, CacheStatsAndClearOnMissingOrEmptyDirectoryReportCleanly) {
  // Nonexistent directory: both subcommands succeed and say so (0
  // artifacts), instead of erroring on a path that simply was never
  // populated.
  const std::string missing = (fs::path(dir_) / "never_created").string();
  CliResult result = run_cli({"cache", "stats", "--cache-dir", missing});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("0 artifacts"), std::string::npos) << result.out;
  result = run_cli({"cache", "clear", "--cache-dir", missing});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("0 artifacts"), std::string::npos) << result.out;

  // Existing but empty directory: stats shows a zero total, clear removes
  // zero artifacts; both exit 0.
  const std::string empty = (fs::path(dir_) / "empty_cache").string();
  fs::create_directories(empty);
  result = run_cli({"cache", "stats", "--cache-dir", empty});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("total"), std::string::npos) << result.out;
  result = run_cli({"cache", "clear", "--cache-dir", empty});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("removed 0 artifacts"), std::string::npos)
      << result.out;
}

// ---- shard / merge ---------------------------------------------------------

TEST_F(CliTest, ShardRunsAndMergeReproduceTheSingleProcessBytes) {
  const std::string spec_path = tiny_spec_path();
  const CliResult single = run_cli({"run", spec_path, "--store", "off"});
  ASSERT_EQ(single.code, 0) << single.err;

  const std::string cache = (fs::path(dir_) / "shards").string();
  for (const char* selector : {"1/2", "2/2"}) {
    const CliResult shard =
        run_cli({"run", spec_path, "--shard", selector, "--cache-dir", cache});
    ASSERT_EQ(shard.code, 0) << shard.err;
    EXPECT_NE(shard.err.find("fragment ->"), std::string::npos) << shard.err;
  }

  const std::string union_dir = (fs::path(dir_) / "union").string();
  const CliResult merged = run_cli(
      {"merge", spec_path, "--from", cache, "--into", union_dir});
  ASSERT_EQ(merged.code, 0) << merged.err;
  EXPECT_EQ(merged.out, single.out);
  EXPECT_NE(merged.err.find("merged 2 shards"), std::string::npos)
      << merged.err;

  // The union published the merged campaign artifact: a whole-campaign run
  // against it answers warm with the same bytes.
  const CliResult warm =
      run_cli({"run", spec_path, "--cache-dir", union_dir});
  ASSERT_EQ(warm.code, 0) << warm.err;
  EXPECT_EQ(warm.out, single.out);
}

TEST_F(CliTest, ShardFlagValidatesItsSpellingAndCacheDirRequirement) {
  const std::string spec_path = tiny_spec_path();
  // --shard without any cache directory cannot write its fragment.
  CliResult result = run_cli({"run", spec_path, "--shard", "1/2"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("cache directory"), std::string::npos)
      << result.err;
  // Malformed selectors are usage errors.
  for (const char* bad : {"0/2", "3/2", "2", "a/b"}) {
    result = run_cli({"run", spec_path, "--shard", bad, "--cache-dir",
                      (fs::path(dir_) / "c").string()});
    EXPECT_EQ(result.code, 2) << bad;
    EXPECT_NE(result.err.find("--shard wants i/N"), std::string::npos)
        << result.err;
  }
}

TEST_F(CliTest, MergeFailsNonZeroOnMissingOrCorruptedFragments) {
  const std::string spec_path = tiny_spec_path();
  const std::string cache = (fs::path(dir_) / "partial").string();
  ASSERT_EQ(run_cli({"run", spec_path, "--shard", "1/2", "--cache-dir",
                     cache})
                .code,
            0);

  // Shard 2/2 never ran: the merge names the missing shard and fails.
  CliResult result = run_cli({"merge", spec_path, "--from", cache});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("missing shard 2/2"), std::string::npos)
      << result.err;

  // Complete the set, then corrupt one fragment artifact: hard error
  // naming the file (the artifact's content hash catches the flip).
  ASSERT_EQ(run_cli({"run", spec_path, "--shard", "2/2", "--cache-dir",
                     cache})
                .code,
            0);
  ASSERT_EQ(run_cli({"merge", spec_path, "--from", cache}).code, 0);
  const fs::path fragment_dir = fs::path(cache) / "campaign-shard";
  std::string victim;
  for (const auto& entry : fs::directory_iterator(fragment_dir))
    if (entry.path().extension() == ".jsonl") {
      victim = entry.path().string();
      break;
    }
  ASSERT_FALSE(victim.empty());
  std::string bytes = read_file(victim);
  bytes[bytes.size() - 2] = bytes[bytes.size() - 2] == '0' ? '1' : '0';
  std::ofstream(victim, std::ios::binary) << bytes;
  result = run_cli({"merge", spec_path, "--from", cache});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("corrupted shard fragment artifact"),
            std::string::npos)
      << result.err;
}

TEST_F(CliTest, DescribeShardsAppendsTheAssignmentColumn) {
  const std::string spec_path = tiny_spec_path();
  CliResult result = run_cli({"describe", spec_path, "--shards", "3"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("shard"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("/3"), std::string::npos) << result.out;
  // Without the flag the column stays absent, and a bad count is a usage
  // error.
  result = run_cli({"describe", spec_path});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out.find("shard"), std::string::npos) << result.out;
  result = run_cli({"describe", spec_path, "--shards", "0"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--shards wants"), std::string::npos)
      << result.err;
}

// ---- observability flags ---------------------------------------------------

TEST_F(CliTest, TraceAndMetricsExportsParseAndLeaveTheReportUntouched) {
  const std::string spec_path = tiny_spec_path();
  RunnerOptions reference_options;
  reference_options.threads = 1;
  const std::string csv =
      report_csv(run_campaign(tiny_spec_programmatic(), reference_options));

  const std::string trace = (fs::path(dir_) / "trace.json").string();
  const std::string metrics = (fs::path(dir_) / "metrics.json").string();
  const CliResult result = run_cli({"run", spec_path, "--threads", "2",
                                    "--trace-out", trace, "--metrics-out",
                                    metrics});
  EXPECT_EQ(result.code, 0) << result.err;
  // The observation-only contract, end to end through the CLI.
  EXPECT_EQ(result.out, csv);

  const Json trace_doc = parse_json(read_file(trace), trace);
  EXPECT_EQ(trace_doc.find("displayTimeUnit")->string, "ms");
  const Json* events = trace_doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->array.empty());
  const std::string trace_text = read_file(trace);
  for (const char* span : {"campaign.run", "engine.job", "pipeline.core",
                           "phase.penalty", "phase.convolve"})
    EXPECT_NE(trace_text.find(span), std::string::npos) << span;

  const Json metrics_doc = parse_json(read_file(metrics), metrics);
  ASSERT_NE(metrics_doc.find("counters"), nullptr);
  ASSERT_NE(metrics_doc.find("histograms"), nullptr);
  EXPECT_NE(metrics_doc.find("counters")->find("engine.jobs"), nullptr);
  EXPECT_NE(metrics_doc.find("histograms")->find("pipeline.analyze"),
            nullptr);
}

TEST_F(CliTest, ProfilePrintsSpanAndCounterTablesOnStderr) {
  const CliResult result = run_cli({"run", tiny_spec_path(), "--threads",
                                    "1", "--profile"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.err.find("profile: wall time per span"),
            std::string::npos);
  EXPECT_NE(result.err.find("pipeline.core"), std::string::npos);
  EXPECT_NE(result.err.find("profile: counters"), std::string::npos);
  EXPECT_NE(result.err.find("engine.jobs"), std::string::npos);
}

TEST_F(CliTest, ProgressStaysSilentWhenStderrIsNotATerminal) {
  // run_cli's stderr is a stringstream, not a TTY: the meter must not
  // animate (a redirected run would otherwise be littered with \r).
  const CliResult result =
      run_cli({"run", tiny_spec_path(), "--progress"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.err.find('\r'), std::string::npos);
}

TEST_F(CliTest, CacheStatsRendersPerLayerStoreCounters) {
  const std::string spec_path = tiny_dcache_spec_path();
  const std::string metrics = (fs::path(dir_) / "metrics.json").string();
  ASSERT_EQ(run_cli({"run", spec_path, "--threads", "1", "--metrics-out",
                     metrics})
                .code,
            0);

  // Snapshot alone (no cache directory needed for the memo tier).
  const char* saved = std::getenv("PWCET_CACHE_DIR");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::unsetenv("PWCET_CACHE_DIR");
  CliResult result = run_cli({"cache", "stats", "--metrics", metrics});
  if (saved != nullptr) ::setenv("PWCET_CACHE_DIR", saved_value.c_str(), 1);
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("store counters"), std::string::npos);
  // The spec has a data cache, so its pipelines memoize: the penalty
  // layer has a memo row with the payload bytes it inserted. The memo
  // holds no whole campaign.
  std::istringstream lines(result.out);
  std::string header, penalty_row, campaign_row;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("evictions") != std::string::npos) header = line;
    if (line.find("memo") == std::string::npos) continue;
    if (line.find("penalty") != std::string::npos) penalty_row = line;
    if (line.find("campaign") != std::string::npos) campaign_row = line;
  }
  EXPECT_NE(header.find("bytes"), std::string::npos) << result.out;
  ASSERT_FALSE(penalty_row.empty()) << result.out;
  EXPECT_NE(penalty_row.back(), '-') << penalty_row;
  EXPECT_TRUE(campaign_row.empty()) << campaign_row;
  EXPECT_NE(result.out.find("core"), std::string::npos);

  // Alongside a cache directory both tables render.
  const std::string cache = (fs::path(dir_) / "cache").string();
  ASSERT_EQ(run_cli({"run", spec_path, "--cache-dir", cache}).code, 0);
  result = run_cli({"cache", "stats", "--cache-dir", cache, "--metrics",
                    metrics});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("campaign-report"), std::string::npos);
  EXPECT_NE(result.out.find("store counters"), std::string::npos);

  // A missing or malformed snapshot is a diagnosed failure, not a crash.
  result = run_cli({"cache", "stats", "--metrics",
                    (fs::path(dir_) / "absent.json").string()});
  EXPECT_EQ(result.code, 1);
  result = run_cli(
      {"cache", "stats", "--metrics", write_file("bad.json", "{oops")});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("bad.json"), std::string::npos);
}

// ---- bench -----------------------------------------------------------------

TEST_F(CliTest, BenchListNamesTheBuiltinScenarios) {
  const CliResult result = run_cli(
      {"bench", "list", std::string(PWCET_SPECS_DIR) + "/geometry_sweep.json",
       std::string(PWCET_SPECS_DIR) + "/pfail_sweep.json"});
  EXPECT_EQ(result.code, 0) << result.err;
  for (const char* needle :
       {"campaign.geometry_sweep.cold", "campaign.geometry_sweep.warm",
        "campaign.geometry_sweep.shard_merge", "campaign.pfail_sweep.cold",
        "pipeline.full", "micro.extract", "micro.maximize.ilp"})
    EXPECT_NE(result.out.find(needle), std::string::npos) << needle;
  // Campaign scenarios come from spec files only.
  EXPECT_EQ(run_cli({"bench", "list"}).out.find("campaign."),
            std::string::npos);
}

TEST_F(CliTest, BenchRunWritesALoadableReportAndSelfDiffsClean) {
  // One cheap micro scenario, minimal sampling: this is a contract test
  // for the artifact shape and the diff plumbing, not a measurement.
  const std::string a = (fs::path(dir_) / "a.json").string();
  CliResult result =
      run_cli({"bench", "run", "--scenarios", "micro.extract",
               "--repetitions", "2", "--warmup", "0", "--output", a});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.err.find("micro.extract"), std::string::npos);

  const Json doc = parse_json(read_file(a), a);
  EXPECT_EQ(doc.find("schema")->string, "pwcet-bench-report-v1");
  ASSERT_NE(doc.find("environment"), nullptr);
  EXPECT_EQ(doc.find("environment")->find("threads")->string, "1");
  const Json* scenarios = doc.find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_EQ(scenarios->array.size(), 1u);
  EXPECT_EQ(scenarios->array[0].find("name")->string, "micro.extract");
  EXPECT_EQ(scenarios->array[0].find("samples")->array.size(), 2u);

  // A report diffed against itself has nothing to flag.
  result = run_cli({"bench", "diff", a, a});
  EXPECT_EQ(result.code, 0) << result.out;
  EXPECT_NE(result.out.find("0 regressed"), std::string::npos)
      << result.out;
}

TEST_F(CliTest, BenchDiffExitsThreeOnARegressedArtifactPair) {
  // Fixed-number artifacts keep the exit-code contract deterministic
  // under any system load; real-timing pairs are exercised (and allowed
  // to be noisy) by the CI gate instead.
  auto artifact = [this](const std::string& name, const std::string& median) {
    return write_file(
        name,
        "{\"schema\":\"pwcet-bench-report-v1\",\n"
        "\"environment\":{\"threads\":\"1\"},\n"
        "\"scenarios\":[{\"name\":\"micro.extract\",\"samples\":[],\n"
        "\"stats\":{\"wall_ns\":{\"count\":5,\"median\":" + median +
        ",\"min\":900000.0,\"p90\":1100000.0,\"mad\":1000.0}}}]}\n");
  };
  const std::string base = artifact("base.json", "1000000.0");
  const std::string slow = artifact("slow.json", "10000000.0");

  const CliResult result = run_cli({"bench", "diff", base, slow});
  EXPECT_EQ(result.code, 3) << result.out;
  EXPECT_NE(result.out.find("regressed: micro.extract/wall_ns"),
            std::string::npos)
      << result.out;
  // Reversed, the same pair reads as an improvement, exit 0.
  const CliResult reversed = run_cli({"bench", "diff", slow, base});
  EXPECT_EQ(reversed.code, 0) << reversed.out;
  EXPECT_NE(reversed.out.find("1 improved"), std::string::npos)
      << reversed.out;
}

TEST_F(CliTest, BenchUsageErrors) {
  EXPECT_EQ(run_cli({"bench"}).code, 2);
  EXPECT_EQ(run_cli({"bench", "frobnicate"}).code, 2);
  EXPECT_EQ(run_cli({"bench", "run", "--repetitions", "0"}).code, 2);
  EXPECT_EQ(run_cli({"bench", "run", "--repetitions", "soon"}).code, 2);
  EXPECT_EQ(run_cli({"bench", "diff", "only_one.json"}).code, 2);
  EXPECT_EQ(run_cli({"bench", "diff", "a.json", "b.json", "--threshold",
                     "nope"})
                .code,
            2);
  // An unknown scenario filter, a spec that does not load, two specs with
  // one stem and an unreadable artifact are runtime failures (1),
  // distinct from both usage (2) and regression (3).
  EXPECT_EQ(run_cli({"bench", "run", "--scenarios", "no.such"}).code, 1);
  EXPECT_EQ(run_cli({"bench", "list", dir_ + "/absent.json"}).code, 1);
  const std::string tiny = tiny_spec_path();
  fs::create_directories(fs::path(dir_) / "again");
  const std::string again = (fs::path(dir_) / "again" / "tiny.json").string();
  fs::copy_file(tiny, again);
  const CliResult twice = run_cli({"bench", "list", tiny, again});
  EXPECT_EQ(twice.code, 1);
  EXPECT_NE(twice.err.find("stem 'tiny'"), std::string::npos) << twice.err;
  EXPECT_EQ(
      run_cli({"bench", "diff", dir_ + "/a.json", dir_ + "/b.json"}).code,
      1);
}

// A numeric bench flag with a sign, a count beyond its cap or a
// non-finite value is a usage error naming the flag, reported before any
// scenario runs.
TEST_F(CliTest, BenchRunRejectsASignedOrHugeRepetitionCount) {
  for (const char* value : {"-1", "+3", "99999999999"}) {
    const CliResult result = run_cli({"bench", "run", "--repetitions", value});
    EXPECT_EQ(result.code, 2) << value;
    EXPECT_NE(result.err.find("--repetitions wants"), std::string::npos)
        << result.err;
  }
}

TEST_F(CliTest, BenchRunRejectsASignedOrHugeWarmup) {
  for (const char* value : {"-1", "99999999999"}) {
    const CliResult result = run_cli({"bench", "run", "--warmup", value});
    EXPECT_EQ(result.code, 2) << value;
    EXPECT_NE(result.err.find("--warmup wants"), std::string::npos)
        << result.err;
  }
}

TEST_F(CliTest, BenchDiffRejectsANonFiniteThreshold) {
  for (const char* value : {"nan", "inf", "-0.5"}) {
    const CliResult result =
        run_cli({"bench", "diff", "a.json", "b.json", "--threshold", value});
    EXPECT_EQ(result.code, 2) << value;
    EXPECT_NE(result.err.find("--threshold wants"), std::string::npos)
        << result.err;
  }
}

TEST_F(CliTest, ProfileTableCarriesPercentileColumns) {
  const CliResult result = run_cli({"run", tiny_spec_path(), "--threads",
                                    "1", "--profile"});
  EXPECT_EQ(result.code, 0) << result.err;
  for (const char* column : {"p50 ms", "p90 ms", "p99 ms"})
    EXPECT_NE(result.err.find(column), std::string::npos) << column;
}

TEST_F(CliTest, CacheStatsRendersHistogramPercentiles) {
  const std::string spec_path = tiny_spec_path();
  const std::string metrics = (fs::path(dir_) / "metrics.json").string();
  ASSERT_EQ(run_cli({"run", spec_path, "--threads", "1", "--metrics-out",
                     metrics})
                .code,
            0);
  const char* saved = std::getenv("PWCET_CACHE_DIR");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::unsetenv("PWCET_CACHE_DIR");
  const CliResult result = run_cli({"cache", "stats", "--metrics", metrics});
  if (saved != nullptr) ::setenv("PWCET_CACHE_DIR", saved_value.c_str(), 1);
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("histogram percentiles"), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("pipeline.analyze"), std::string::npos);
  for (const char* column : {"p50 ms", "p90 ms", "p99 ms"})
    EXPECT_NE(result.out.find(column), std::string::npos) << column;
}

TEST_F(CliTest, CacheWithoutDirectoryIsAnError) {
  // No --cache-dir and no PWCET_CACHE_DIR: refuse rather than guess.
  const char* saved = std::getenv("PWCET_CACHE_DIR");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::unsetenv("PWCET_CACHE_DIR");
  const CliResult result = run_cli({"cache", "stats"});
  if (saved != nullptr) ::setenv("PWCET_CACHE_DIR", saved_value.c_str(), 1);
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("no cache directory"), std::string::npos);
}

}  // namespace
}  // namespace pwcet
