// Golden-report corpus: every shipped campaign spec under specs/ has its
// full machine-readable reports checked in under tests/golden/, and a
// fresh run must reproduce them byte for byte — the strongest regression
// net over the eight paper artifacts: any change to the analyzer, the
// engine, the store, number formatting or the report layout that moves a
// single byte fails here and forces a reviewed regeneration
// (tools/regen-golden.sh).
//
// Coverage is two-sided: a spec without goldens fails (new artifacts must
// be pinned), and a golden file without a spec fails (stale corpus).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "engine/report.hpp"
#include "engine/runner.hpp"
#include "engine/spec_io.hpp"

#ifndef PWCET_SPECS_DIR
#define PWCET_SPECS_DIR "specs"
#endif
#ifndef PWCET_GOLDEN_DIR
#define PWCET_GOLDEN_DIR "tests/golden"
#endif

namespace pwcet {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << path
                  << " — run tools/regen-golden.sh and review the diff";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::set<std::string> spec_stems() {
  std::set<std::string> stems;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(PWCET_SPECS_DIR))
    if (entry.path().extension() == ".json")
      stems.insert(entry.path().stem().string());
  return stems;
}

TEST(GoldenCorpus, EveryGoldenFileBelongsToAShippedSpec) {
  const std::set<std::string> stems = spec_stems();
  ASSERT_FALSE(stems.empty());
  for (const fs::directory_entry& entry :
       fs::directory_iterator(PWCET_GOLDEN_DIR)) {
    // Golden files are <stem>.csv / .jsonl / .dist.csv / .dist.jsonl.
    std::string stem = entry.path().filename().string();
    const std::size_t dot = stem.find('.');
    ASSERT_NE(dot, std::string::npos) << entry.path();
    stem.resize(dot);
    EXPECT_TRUE(stems.count(stem))
        << entry.path() << " has no spec under specs/ — stale corpus?";
  }
}

class GoldenReportTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenReportTest, LiveRunReproducesTheCorpusByteForByte) {
  const std::string stem = GetParam();
  const SpecDocument doc =
      load_spec(std::string(PWCET_SPECS_DIR) + "/" + stem + ".json");
  const CampaignResult campaign = run_campaign(doc.spec);

  const fs::path golden(PWCET_GOLDEN_DIR);
  EXPECT_EQ(report_csv(campaign), read_file(golden / (stem + ".csv")));
  EXPECT_EQ(report_jsonl(campaign), read_file(golden / (stem + ".jsonl")));
  if (!doc.spec.ccdf_exceedances.empty()) {
    EXPECT_EQ(report_dist_csv(campaign),
              read_file(golden / (stem + ".dist.csv")));
    EXPECT_EQ(report_dist_jsonl(campaign),
              read_file(golden / (stem + ".dist.jsonl")));
  } else {
    EXPECT_FALSE(fs::exists(golden / (stem + ".dist.csv")))
        << stem << " has no distribution sink but a .dist golden exists";
  }
  // The spec's view renders over the pinned campaign: header plus one
  // line per combination of its row axes.
  if (doc.view) {
    std::size_t rows = 1;
    for (const SpecAxis axis : doc.view->rows)
      rows *= axis_size(doc.spec, axis);
    const std::string csv = render_view(campaign, *doc.view).to_csv();
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              1 + rows)
        << stem;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, GoldenReportTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> stems;
      for (const std::string& stem : spec_stems()) stems.push_back(stem);
      return stems;
    }()),
    [](const auto& info) { return info.param; });

}  // namespace
}  // namespace pwcet
