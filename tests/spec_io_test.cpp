// Unit tests for the campaign-spec file format (engine/spec_io.hpp):
//
//  - round-trip: spec -> JSON -> spec preserves every field that reaches
//    campaign_spec_key (so a serialized spec is a byte-equivalent stand-in
//    for the programmatic campaign it came from);
//  - the shipped specs under specs/ reproduce the exact programmatic
//    campaigns the example/bench binaries used to construct in C++;
//  - defaults match the C++ defaults of CampaignSpec;
//  - malformed specs are rejected with diagnostics naming the offending
//    field (and its line), never with an abort;
//  - every rule CampaignSpec::validate() names reaches a programmatic spec
//    and its spec_to_json file under the same field path.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/spec_io.hpp"
#include "workloads/malardalen.hpp"

#ifndef PWCET_SPECS_DIR
#define PWCET_SPECS_DIR "specs"
#endif

namespace pwcet {
namespace {

CampaignSpec parse_ok(const std::string& text) {
  return parse_spec(text, "<inline>").spec;
}

/// Asserts that parsing fails and that the diagnostic mentions every
/// expected fragment (field names, line numbers, suggestions).
void expect_rejected(const std::string& text,
                     const std::vector<std::string>& fragments) {
  try {
    parse_spec(text, "<inline>");
    FAIL() << "spec unexpectedly parsed:\n" << text;
  } catch (const SpecError& e) {
    const std::string message = e.what();
    for (const std::string& fragment : fragments)
      EXPECT_NE(message.find(fragment), std::string::npos)
          << "missing \"" << fragment << "\" in diagnostic:\n  " << message;
  }
}

const char* kMinimalSpec = R"({
  "tasks": ["fibcall"],
  "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
  "pfails": [1e-4],
  "mechanisms": ["none"]
})";

/// kMinimalSpec with one more top-level member, which sits on line 6.
std::string minimal_spec_plus(const std::string& member) {
  return R"({
  "tasks": ["fibcall"],
  "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
  "pfails": [1e-4],
  "mechanisms": ["none"],
  )" + member + "\n}";
}

// ---- happy path ------------------------------------------------------------

TEST(SpecIo, MinimalSpecGetsCxxDefaults) {
  const CampaignSpec spec = parse_ok(kMinimalSpec);
  const CampaignSpec defaults;
  EXPECT_EQ(spec.tasks, std::vector<std::string>{"fibcall"});
  ASSERT_EQ(spec.geometries.size(), 1u);
  EXPECT_EQ(spec.geometries[0].hit_latency, CacheConfig{}.hit_latency);
  EXPECT_EQ(spec.geometries[0].miss_penalty, CacheConfig{}.miss_penalty);
  ASSERT_EQ(spec.engines.size(), 1u);
  EXPECT_EQ(spec.engines[0], WcetEngine::kIlp);
  ASSERT_EQ(spec.kinds.size(), 1u);
  EXPECT_EQ(spec.kinds[0], AnalysisKind::kSpta);
  EXPECT_EQ(spec.target_exceedance, defaults.target_exceedance);
  EXPECT_EQ(spec.max_distribution_points, defaults.max_distribution_points);
  EXPECT_EQ(spec.mbpta.chips, defaults.mbpta.chips);
  EXPECT_EQ(spec.mbpta.block_size, defaults.mbpta.block_size);
  EXPECT_EQ(spec.simulation_chips, defaults.simulation_chips);
  EXPECT_EQ(spec.base_seed, defaults.base_seed);
}

TEST(SpecIo, EnumNamesAreCaseInsensitive) {
  const CampaignSpec spec = parse_ok(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["NONE", "rw", "Srb"],
    "engines": ["ILP", "Tree"],
    "kinds": ["SPTA", "sim"]
  })");
  EXPECT_EQ(spec.mechanisms,
            (std::vector<Mechanism>{Mechanism::kNone, Mechanism::kReliableWay,
                                    Mechanism::kSharedReliableBuffer}));
  EXPECT_EQ(spec.engines,
            (std::vector<WcetEngine>{WcetEngine::kIlp, WcetEngine::kTree}));
  EXPECT_EQ(spec.kinds, (std::vector<AnalysisKind>{AnalysisKind::kSpta,
                                                   AnalysisKind::kSimulation}));
}

TEST(SpecIo, RoundTripPreservesEveryKeyedField) {
  CampaignSpec spec;
  spec.tasks = {"fibcall", "adpcm", "fft"};
  CacheConfig small;
  small.sets = 8;
  small.ways = 2;
  small.line_bytes = 32;
  small.hit_latency = 2;
  small.miss_penalty = 77;
  spec.geometries = {CacheConfig::paper_default(), small};
  spec.pfails = {6.1e-13, 1e-4, 0.125};
  spec.mechanisms = {Mechanism::kSharedReliableBuffer, Mechanism::kNone,
                     Mechanism::kReliableWay};
  spec.engines = {WcetEngine::kTree, WcetEngine::kIlp};
  spec.kinds = {AnalysisKind::kMbpta, AnalysisKind::kSpta,
                AnalysisKind::kSimulation};
  spec.dcache_mechanisms = {DcacheMechanism::kSame, DcacheMechanism::kNone,
                            DcacheMechanism::kReliableWay,
                            DcacheMechanism::kSharedReliableBuffer};
  spec.sample_counts = {0, 64, 4000};
  spec.ccdf_exceedances = {0.5, 1e-3, 1e-16};
  spec.target_exceedance = 1e-12;
  spec.max_distribution_points = 512;
  spec.mbpta.chips = 128;
  spec.mbpta.block_size = 16;
  spec.simulation_chips = 99;
  spec.base_seed = 0x0123456789abcdefULL;  // above 2^53: string route

  const std::string json = spec_to_json(spec, "round-trip", "notes text");
  const SpecDocument doc = parse_spec(json, "<round-trip>");
  EXPECT_EQ(doc.name, "round-trip");
  EXPECT_EQ(doc.notes, "notes text");
  EXPECT_EQ(doc.spec.tasks, spec.tasks);
  EXPECT_EQ(doc.spec.pfails, spec.pfails);
  EXPECT_EQ(doc.spec.base_seed, spec.base_seed);
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));

  // Second generation must be textually stable (canonical form).
  EXPECT_EQ(spec_to_json(doc.spec, doc.name, doc.notes), json);
}

TEST(SpecIo, DcacheAxisRoundTripsThroughTheSerializer) {
  CampaignSpec spec;
  spec.tasks = {"interp", "dispatch"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kReliableWay};
  DcacheAxis off;
  DcacheAxis on;
  on.enabled = true;
  on.geometry.sets = 8;
  on.geometry.ways = 2;
  on.geometry.line_bytes = 32;
  on.geometry.miss_penalty = 25;
  spec.dcaches = {off, on};
  spec.dcache_mechanisms = {DcacheMechanism::kSame,
                            DcacheMechanism::kSharedReliableBuffer};

  const std::string json = spec_to_json(spec);
  const SpecDocument doc = parse_spec(json, "<dcache-round-trip>");
  ASSERT_EQ(doc.spec.dcaches.size(), 2u);
  EXPECT_FALSE(doc.spec.dcaches[0].enabled);
  ASSERT_TRUE(doc.spec.dcaches[1].enabled);
  EXPECT_EQ(doc.spec.dcaches[1].geometry.sets, 8u);
  EXPECT_EQ(doc.spec.dcaches[1].geometry.miss_penalty, 25);
  EXPECT_EQ(doc.spec.dcache_mechanisms, spec.dcache_mechanisms);
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
  EXPECT_EQ(spec_to_json(doc.spec), json);
}

TEST(SpecIo, WritebackDcacheAxisRoundTripsThroughTheSerializer) {
  CampaignSpec spec;
  spec.tasks = {"ringbuf"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone};
  DcacheAxis wb;
  wb.enabled = true;
  wb.geometry.sets = 8;
  wb.policy = WritePolicy::kWriteBack;
  wb.writeback_penalty = 40;
  spec.dcaches = {DcacheAxis{}, wb};

  const std::string json = spec_to_json(spec);
  EXPECT_NE(json.find("\"policy\": \"write_back\""), std::string::npos);
  EXPECT_NE(json.find("\"writeback_penalty\": 40"), std::string::npos);
  const SpecDocument doc = parse_spec(json, "<wb-round-trip>");
  ASSERT_EQ(doc.spec.dcaches.size(), 2u);
  EXPECT_EQ(doc.spec.dcaches[0].policy, WritePolicy::kWriteThrough);
  EXPECT_EQ(doc.spec.dcaches[1].policy, WritePolicy::kWriteBack);
  EXPECT_EQ(doc.spec.dcaches[1].writeback_penalty, 40);
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
  EXPECT_EQ(spec_to_json(doc.spec), json);
  // The write-back axis must change the spec key: same geometry under
  // write-through is a different campaign.
  CampaignSpec through = spec;
  through.dcaches[1].policy = WritePolicy::kWriteThrough;
  through.dcaches[1].writeback_penalty = 0;
  EXPECT_NE(campaign_spec_key(through), campaign_spec_key(spec));
}

TEST(SpecIo, TlbAndL2AxesRoundTripThroughTheSerializer) {
  CampaignSpec spec;
  spec.tasks = {"fibcall", "ringbuf"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer};
  TlbAxis tlb;
  tlb.enabled = true;
  tlb.entries = 16;
  tlb.ways = 2;
  tlb.page_bytes = 128;
  tlb.miss_penalty = 45;
  spec.tlbs = {TlbAxis{}, tlb};
  L2Axis l2;
  l2.enabled = true;
  l2.geometry.sets = 64;
  l2.geometry.line_bytes = 32;
  l2.geometry.hit_latency = 0;
  l2.geometry.miss_penalty = 80;
  spec.l2s = {L2Axis{}, l2};

  const std::string json = spec_to_json(spec);
  const SpecDocument doc = parse_spec(json, "<tlb-l2-round-trip>");
  ASSERT_EQ(doc.spec.tlbs.size(), 2u);
  EXPECT_FALSE(doc.spec.tlbs[0].enabled);
  ASSERT_TRUE(doc.spec.tlbs[1].enabled);
  EXPECT_EQ(doc.spec.tlbs[1].entries, 16u);
  EXPECT_EQ(doc.spec.tlbs[1].ways, 2u);
  EXPECT_EQ(doc.spec.tlbs[1].page_bytes, 128u);
  EXPECT_EQ(doc.spec.tlbs[1].miss_penalty, 45);
  ASSERT_EQ(doc.spec.l2s.size(), 2u);
  ASSERT_TRUE(doc.spec.l2s[1].enabled);
  EXPECT_EQ(doc.spec.l2s[1].geometry.sets, 64u);
  EXPECT_EQ(doc.spec.l2s[1].geometry.miss_penalty, 80);
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
  EXPECT_EQ(spec_to_json(doc.spec), json);

  // Enabling either axis must change the spec key; collapsing both back
  // to the default single-disabled entry restores the pre-axis key (the
  // shipped-spec pin tests above lock that key's value).
  CampaignSpec plain = spec;
  plain.tlbs = {TlbAxis{}};
  plain.l2s = {L2Axis{}};
  EXPECT_NE(campaign_spec_key(plain), campaign_spec_key(spec));
  CampaignSpec tlb_only = plain;
  tlb_only.tlbs = spec.tlbs;
  EXPECT_NE(campaign_spec_key(tlb_only), campaign_spec_key(plain));
  EXPECT_NE(campaign_spec_key(tlb_only), campaign_spec_key(spec));
}

TEST(SpecIo, SeedsAboveDoublePrecisionSurviveAsStrings) {
  const CampaignSpec spec = parse_ok(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "base_seed": "18446744073709551615"
  })");
  EXPECT_EQ(spec.base_seed, 18446744073709551615ULL);
}

// ---- shipped specs reproduce the programmatic campaigns --------------------

std::string shipped(const char* name) {
  return std::string(PWCET_SPECS_DIR) + "/" + name;
}

TEST(ShippedSpecs, GeometrySweepMatchesProgrammaticCampaign) {
  // The exact spec bench/tab_geometry_sweep.cpp used to build in C++.
  CampaignSpec spec;
  spec.tasks = {"adpcm", "matmult", "crc", "fft", "fibcall", "ud"};
  for (const auto& [sets, ways, line] :
       {std::tuple{32u, 2u, 16u}, std::tuple{16u, 4u, 16u},
        std::tuple{8u, 8u, 16u}, std::tuple{32u, 4u, 8u},
        std::tuple{8u, 4u, 32u}}) {
    CacheConfig config;
    config.sets = sets;
    config.ways = ways;
    config.line_bytes = line;
    spec.geometries.push_back(config);
  }
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
                     Mechanism::kReliableWay};
  spec.target_exceedance = 1e-15;

  const SpecDocument doc = load_spec(shipped("geometry_sweep.json"));
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
}

TEST(ShippedSpecs, PfailSweepMatchesProgrammaticCampaign) {
  // The exact spec bench/tab_pfail_sweep.cpp used to build in C++.
  CampaignSpec spec;
  spec.tasks = {"adpcm", "fibcall", "matmult", "crc", "fft", "ud"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {6.1e-13, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
                     Mechanism::kReliableWay};
  spec.target_exceedance = 1e-15;

  const SpecDocument doc = load_spec(shipped("pfail_sweep.json"));
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
}

TEST(ShippedSpecs, MbptaVsSptaMatchesProgrammaticCampaign) {
  // The exact spec bench/tab_mbpta_vs_spta.cpp used to build in C++.
  CampaignSpec spec;
  spec.tasks = {"fibcall", "bs", "matmult", "crc", "fft", "ud"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-3};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kReliableWay,
                     Mechanism::kSharedReliableBuffer};
  spec.kinds = {AnalysisKind::kSpta, AnalysisKind::kMbpta};
  spec.target_exceedance = 1e-15;
  spec.mbpta.chips = 400;
  spec.mbpta.block_size = 20;

  const SpecDocument doc = load_spec(shipped("mbpta_vs_spta.json"));
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
}

TEST(ShippedSpecs, ArchitectureTradeoffMatchesProgrammaticCampaign) {
  // The exact spec examples/architecture_tradeoff.cpp used to build in C++.
  CampaignSpec spec;
  spec.tasks = {"statemate", "fft", "adpcm"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-6, 1e-5, 1e-4, 1e-3};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
                     Mechanism::kReliableWay};
  spec.target_exceedance = 1e-15;

  const SpecDocument doc = load_spec(shipped("architecture_tradeoff.json"));
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
}

TEST(ShippedSpecs, CcdfMatchesProgrammaticCampaign) {
  // The exact campaign bench/fig3_ccdf.cpp used to build in C++ — the
  // decade grid 1e0..1e-16 of the paper's Fig. 3 y-axis is now the
  // distribution sink.
  CampaignSpec spec;
  spec.tasks = {"adpcm"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
                     Mechanism::kReliableWay};
  spec.target_exceedance = 1e-15;
  for (int decade = 0; decade >= -16; --decade)
    spec.ccdf_exceedances.push_back(std::pow(10.0, decade));

  const SpecDocument doc = load_spec(shipped("ccdf.json"));
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
}

TEST(ShippedSpecs, NormalizedPwcetCoversTheWholeSuite) {
  // The exact campaign bench/fig4_normalized_pwcet.cpp used to build:
  // every benchmark of the 25-task suite, in display order.
  CampaignSpec spec;
  spec.tasks = workloads::names();
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
                     Mechanism::kReliableWay};
  spec.target_exceedance = 1e-15;

  const SpecDocument doc = load_spec(shipped("normalized_pwcet.json"));
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
}

TEST(ShippedSpecs, DcacheExtensionMatchesProgrammaticCampaign) {
  // The exact deployments bench/tab_dcache_extension.cpp used to build in
  // C++ (E8: split 1 KB I / 512 B D cache, uniform + mixed mechanisms).
  CampaignSpec spec;
  spec.tasks = {"interp", "dispatch"};
  spec.geometries = {CacheConfig::paper_default()};
  DcacheAxis dcache;
  dcache.enabled = true;
  dcache.geometry.sets = 8;
  spec.dcaches = {dcache};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
                     Mechanism::kReliableWay};
  spec.dcache_mechanisms = {DcacheMechanism::kSame,
                            DcacheMechanism::kSharedReliableBuffer};
  spec.target_exceedance = 1e-15;

  const SpecDocument doc = load_spec(shipped("dcache_extension.json"));
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
}

TEST(ShippedSpecs, SrbConservatismMatchesProgrammaticCampaign) {
  // The exact sweep bench/tab_srb_conservatism.cpp used to run in C++
  // (E5), now as slack jobs with the SRB/RW pairing.
  CampaignSpec spec;
  spec.tasks = workloads::names();
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kSharedReliableBuffer,
                     Mechanism::kReliableWay};
  spec.kinds = {AnalysisKind::kSlack};

  const SpecDocument doc = load_spec(shipped("srb_conservatism.json"));
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
}

TEST(ShippedSpecs, TlbSweepMatchesProgrammaticCampaign) {
  CampaignSpec spec;
  spec.tasks = {"fibcall", "interp", "ringbuf"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
                     Mechanism::kReliableWay};
  TlbAxis small;
  small.enabled = true;
  small.entries = 16;
  small.ways = 2;
  small.page_bytes = 64;
  TlbAxis large;
  large.enabled = true;
  large.entries = 32;
  large.ways = 4;
  large.page_bytes = 128;
  spec.tlbs = {TlbAxis{}, small, large};

  const SpecDocument doc = load_spec(shipped("tlb_sweep.json"));
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
}

TEST(ShippedSpecs, WritebackDcacheMatchesProgrammaticCampaign) {
  CampaignSpec spec;
  spec.tasks = {"interp", "dispatch", "ringbuf"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer,
                     Mechanism::kReliableWay};
  DcacheAxis through;
  through.enabled = true;
  through.geometry.sets = 8;
  DcacheAxis back = through;
  back.policy = WritePolicy::kWriteBack;
  back.writeback_penalty = 40;
  spec.dcaches = {DcacheAxis{}, through, back};

  const SpecDocument doc = load_spec(shipped("writeback_dcache.json"));
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
}

TEST(ShippedSpecs, SharedL2MatchesProgrammaticCampaign) {
  CampaignSpec spec;
  spec.tasks = {"fibcall", "ringbuf"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kNone, Mechanism::kSharedReliableBuffer};
  spec.engines = {WcetEngine::kIlp, WcetEngine::kTree};
  L2Axis l2;
  l2.enabled = true;
  l2.geometry.sets = 64;
  l2.geometry.line_bytes = 32;
  l2.geometry.hit_latency = 0;
  l2.geometry.miss_penalty = 80;
  spec.l2s = {L2Axis{}, l2};
  spec.ccdf_exceedances = {1e-3, 1e-6, 1e-9, 1e-12, 1e-15};

  const SpecDocument doc = load_spec(shipped("shared_l2.json"));
  EXPECT_EQ(campaign_spec_key(doc.spec), campaign_spec_key(spec));
}

TEST(ShippedSpecs, EverySpecRoundTripsThroughTheSerializer) {
  for (const char* name :
       {"geometry_sweep.json", "pfail_sweep.json", "mbpta_vs_spta.json",
        "architecture_tradeoff.json", "ccdf.json", "normalized_pwcet.json",
        "dcache_extension.json", "srb_conservatism.json", "tlb_sweep.json",
        "writeback_dcache.json", "shared_l2.json"}) {
    const SpecDocument doc = load_spec(shipped(name));
    const std::string json =
        spec_to_json(doc.spec, doc.name, doc.notes, doc.view);
    const SpecDocument again = parse_spec(json, name);
    EXPECT_EQ(campaign_spec_key(again.spec), campaign_spec_key(doc.spec))
        << name;
    EXPECT_EQ(again.view, doc.view) << name;
    EXPECT_EQ(spec_to_json(again.spec, again.name, again.notes, again.view),
              json)
        << name;
  }
}

TEST(ShippedSpecs, EveryPaperSpecHasAView) {
  for (const char* name :
       {"geometry_sweep.json", "pfail_sweep.json", "mbpta_vs_spta.json",
        "architecture_tradeoff.json", "ccdf.json", "normalized_pwcet.json",
        "dcache_extension.json", "srb_conservatism.json"})
    EXPECT_TRUE(load_spec(shipped(name)).view.has_value()) << name;
}

TEST(SpecIo, ViewNeverEntersTheSpecKey) {
  const SpecDocument with = load_spec(shipped("geometry_sweep.json"));
  ASSERT_TRUE(with.view.has_value());
  const SpecDocument without =
      parse_spec(spec_to_json(with.spec, with.name, with.notes), "<no-view>");
  EXPECT_FALSE(without.view.has_value());
  EXPECT_EQ(campaign_spec_key(without.spec), campaign_spec_key(with.spec));
}

TEST(SpecIo, ViewResolvesAxisNamesToIndices) {
  const SpecDocument doc = parse_spec(R"({
    "tasks": ["fibcall", "bs"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none", "SRB", "RW"],
    "view": {
      "rows": ["tasks"],
      "columns": [
        {"label": "rw", "value": "pwcet", "where": {"mechanisms": "rw"},
         "divide_by": {"value": "wcet_ff", "where": {"mechanisms": "none"}}}
      ]
    }
  })", "<inline>");
  ASSERT_TRUE(doc.view.has_value());
  EXPECT_EQ(doc.view->rows, std::vector<SpecAxis>{SpecAxis::kTasks});
  ASSERT_EQ(doc.view->columns.size(), 1u);
  const ViewColumn& column = doc.view->columns[0];
  EXPECT_EQ(column.label, "rw");
  EXPECT_EQ(report_result_columns()[column.value.value], "pwcet");
  EXPECT_EQ(column.value.where,
            (std::vector<std::pair<SpecAxis, std::size_t>>{
                {SpecAxis::kMechanisms, 2}}));
  ASSERT_TRUE(column.divide_by.has_value());
  EXPECT_EQ(report_result_columns()[column.divide_by->value], "wcet_ff");
  EXPECT_EQ(column.divide_by->where,
            (std::vector<std::pair<SpecAxis, std::size_t>>{
                {SpecAxis::kMechanisms, 0}}));
}

// ---- rejection diagnostics -------------------------------------------------

TEST(SpecIoErrors, UnknownKeySuggestsTheClosestOne) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisim": ["none"]
  })",
                  {"<inline>:5", "unknown key \"mechanisim\"",
                   "did you mean \"mechanisms\"?", "field \"mechanisim\""});
}

TEST(SpecIoErrors, MbptaSeedIsAnUnknownKey) {
  // Jobs draw from key-derived seeds, so a spec-level MBPTA seed could
  // never change a result; the reader no longer knows the field.
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "mbpta": {"seed": 1}
  })",
                  {"<inline>:6", "unknown key \"seed\" in mbpta options",
                   "field \"mbpta.seed\""});
}

TEST(SpecIoErrors, BadEnumValueListsValidValues) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none", "rww"]
  })",
                  {"<inline>:5", "unknown mechanism \"rww\"",
                   "valid values: none, RW, SRB", "field \"mechanisms[1]\""});
}

TEST(SpecIoErrors, UnknownTaskSuggestsTheClosestBenchmark) {
  expect_rejected(R"({
    "tasks": ["adpcmx"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"]
  })",
                  {"<inline>:2", "unknown task \"adpcmx\"",
                   "did you mean \"adpcm\"?", "field \"tasks[0]\""});
}

TEST(SpecIoErrors, MissingRequiredKeyIsNamed) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4]
  })",
                  {"missing required key \"mechanisms\""});
}

TEST(SpecIoErrors, WrongTypeIsNamedWithTheActualType) {
  expect_rejected(R"({
    "tasks": "fibcall",
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"]
  })",
                  {"expected an array of task names, got a string",
                   "field \"tasks\""});
}

TEST(SpecIoErrors, NonIntegralCountIsRejected) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16.5, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"]
  })",
                  {"field \"geometries[0].sets\"", "non-integral"});
}

TEST(SpecIoErrors, GeometryConstraintsAreExplained) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 10}],
    "pfails": [1e-4],
    "mechanisms": ["none"]
  })",
                  {"line_bytes must be a positive multiple of 4",
                   "field \"geometries[0].line_bytes\""});
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4}],
    "pfails": [1e-4],
    "mechanisms": ["none"]
  })",
                  {"geometry is missing \"line_bytes\""});
}

TEST(SpecIoErrors, CycleCountsBeyondInt64AreRejectedNotWrapped) {
  // 10^19 fits u64 but not int64; an unchecked cast would wrap negative
  // and abort in CampaignSpec::validate instead of reporting.
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16,
                    "hit_latency": 10000000000000000000}],
    "pfails": [1e-4],
    "mechanisms": ["none"]
  })",
                  {"does not fit in a signed 64-bit cycle count",
                   "field \"geometries[0].hit_latency\""});
}

TEST(SpecIoErrors, ProbabilityRangeIsEnforced) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1.5],
    "mechanisms": ["none"]
  })",
                  {"must be in [0, 1]", "field \"pfails[0]\""});
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "target_exceedance": 0
  })",
                  {"target_exceedance must be in (0, 1]"});
}

TEST(SpecIoErrors, EmptyAxesAreRejected) {
  expect_rejected(R"({
    "tasks": [],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"]
  })",
                  {"\"tasks\" must not be empty"});
}

TEST(SpecIoErrors, MbptaPopulationConstraintIsExplained) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "kinds": ["mbpta"],
    "mbpta": {"chips": 10, "block_size": 20}
  })",
                  {"mbpta.chips must be at least 2 * mbpta.block_size",
                   "field \"mbpta.chips\""});
}

TEST(SpecIoErrors, MbptaExceedancesMustBeBelowOne) {
  // The Gumbel quantile is undefined at exceedance 1, so an MBPTA campaign
  // asking for it must fail at load instead of aborting in the fit.
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-3],
    "mechanisms": ["none"],
    "kinds": ["spta", "mbpta"],
    "target_exceedance": 1
  })",
                  {"target_exceedance must be below 1",
                   "field \"target_exceedance\""});
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-3],
    "mechanisms": ["none"],
    "kinds": ["spta", "mbpta"],
    "ccdf_exceedances": [1e-3, 1]
  })",
                  {"ccdf_exceedances entries must be below 1",
                   "field \"ccdf_exceedances[1]\""});
}

TEST(SpecIo, SptaOnlySpecsAcceptExceedanceOne) {
  // Without an MBPTA job, exceedance 1 is a valid (trivial) quantile.
  const CampaignSpec spec = parse_ok(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-3],
    "mechanisms": ["none"],
    "kinds": ["spta", "sim"],
    "target_exceedance": 1,
    "ccdf_exceedances": [1]
  })");
  EXPECT_EQ(spec.target_exceedance, 1.0);
  EXPECT_FALSE(spec.validate());
}

TEST(SpecIoErrors, HugeMbptaBlockSizeDoesNotWrapPastTheBound) {
  // 2 * 2^63 wraps to 0 in 64 bits: the population bound must hold in
  // division form, or the spec slips through and the Gumbel fit aborts.
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-3],
    "mechanisms": ["none"],
    "kinds": ["mbpta"],
    "mbpta": {"block_size": 9223372036854775808}
  })",
                  {"mbpta.chips must be at least 2 * mbpta.block_size",
                   "field \"mbpta.chips\""});
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-3],
    "mechanisms": ["none"],
    "kinds": ["mbpta"],
    "mbpta": {"chips": 9223372036854775808, "block_size": 4611686018427387904},
    "sample_counts": [0, 400]
  })",
                  {"sample_counts entries must be at least 2 * "
                   "mbpta.block_size",
                   "field \"sample_counts[1]\""});
}

TEST(SpecIoErrors, DcacheEntriesMustBeNullOrGeometry) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "dcaches": ["off"],
    "pfails": [1e-4],
    "mechanisms": ["none"]
  })",
                  {"expected null (data cache off) or a geometry object",
                   "field \"dcaches[0]\""});
}

TEST(SpecIoErrors, TlbEntriesMustBeAMultipleOfWays) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "tlbs": [{"entries": 10, "ways": 4, "page_bytes": 64}]
  })",
                  {"<inline>:6", "entries must be a positive multiple of ways",
                   "field \"tlbs[0].entries\""});
}

TEST(SpecIoErrors, TlbMissingPageBytesIsNamed) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "tlbs": [null, {"entries": 16, "ways": 2}]
  })",
                  {"TLB entry is missing \"page_bytes\"",
                   "field \"tlbs[1].page_bytes\""});
}

TEST(SpecIoErrors, UnknownTlbKeySuggestsTheClosestOne) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "tlbs": [{"entries": 16, "ways": 2, "page_byte": 64}]
  })",
                  {"unknown key \"page_byte\" in TLB entry",
                   "did you mean \"page_bytes\"?",
                   "field \"tlbs[0].page_byte\""});
}

TEST(SpecIoErrors, BadWritePolicyListsValidValues) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "dcaches": [{"sets": 8, "ways": 4, "line_bytes": 16,
                 "policy": "writeback"}]
  })",
                  {"unknown write policy \"writeback\"",
                   "valid values: write_through, write_back",
                   "field \"dcaches[0].policy\""});
}

// A data-cache entry is read in document order like every other object:
// its first bad value is the one reported.
TEST(SpecIoErrors, DataCacheEntryReportsItsFirstBadValue) {
  expect_rejected(minimal_spec_plus(R"("dcaches": [{"sets": -8, "ways": 4, )"
                                    R"("line_bytes": 16, "policy": "wb"}])"),
                  {"<inline>:6: expected a non-negative integer, got a "
                   "negative number (field \"dcaches[0].sets\")"});
}

TEST(SpecIoErrors, WritebackPenaltyNeedsWriteBackPolicy) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "dcaches": [{"sets": 8, "ways": 4, "line_bytes": 16,
                 "writeback_penalty": 40}]
  })",
                  {"\"writeback_penalty\" needs \"policy\": \"write_back\"",
                   "field \"dcaches[0].writeback_penalty\""});
}

TEST(SpecIoErrors, L2EntriesMustBeNullOrGeometry) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "l2s": [64]
  })",
                  {"expected null (no shared L2) or a geometry object",
                   "got a number", "field \"l2s[0]\""});
}

TEST(SpecIoErrors, TlbNeedsSptaKinds) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["SRB"],
    "kinds": ["spta", "mbpta"],
    "tlbs": [{"entries": 16, "ways": 2, "page_bytes": 64}]
  })",
                  {"kind \"mbpta\" does not support a TLB",
                   "need kinds = [\"spta\"]", "field \"tlbs\""});
}

TEST(SpecIoErrors, L2NeedsSptaKinds) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["SRB"],
    "kinds": ["sim"],
    "l2s": [{"sets": 64, "ways": 4, "line_bytes": 32}]
  })",
                  {"kind \"sim\" does not support a shared L2",
                   "need kinds = [\"spta\"]", "field \"l2s\""});
}

TEST(SpecIoErrors, DcacheNeedsSptaKinds) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "dcaches": [{"sets": 8, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "kinds": ["spta", "sim"]
  })",
                  {"kind \"sim\" does not support a data cache",
                   "field \"dcaches\""});
}

TEST(SpecIoErrors, UnknownDcacheMechanismListsValidValues) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "dcache_mechanisms": ["mirror"]
  })",
                  {"unknown dcache mechanism \"mirror\"",
                   "valid values: same, none, RW, SRB",
                   "field \"dcache_mechanisms[0]\""});
}

TEST(SpecIoErrors, SlackKindRejectsUnprotectedMechanism) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["SRB", "none"],
    "kinds": ["slack"]
  })",
                  {"kind \"slack\"", "field \"mechanisms[1]\""});
}

TEST(SpecIoErrors, MbptaSampleCountConstraintIsExplained) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "kinds": ["mbpta"],
    "sample_counts": [0, 10]
  })",
                  {"sample_counts entries must be at least 2 * "
                   "mbpta.block_size",
                   "field \"sample_counts[1]\""});
}

TEST(SpecIoErrors, CcdfExceedanceRangeIsEnforced) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "ccdf_exceedances": [1e-6, 0]
  })",
                  {"exceedance probability must be in (0, 1]",
                   "field \"ccdf_exceedances[1]\""});
}

TEST(SpecIoErrors, OversizedGeometriesAreRejectedOnEveryAxis) {
  const auto spec_with = [](const std::string& extra) {
    return R"({
    "tasks": ["fibcall"],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    )" + extra + "\n}";
  };
  const std::string paper =
      R"("geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}])";
  expect_rejected(
      spec_with(R"("geometries": [{"sets": 2147483648, "ways": 1,
                                   "line_bytes": 16}])"),
      {"sets x ways must be at most 65536 lines",
       "field \"geometries[0].sets\""});
  expect_rejected(
      spec_with(R"("geometries": [{"sets": 16, "ways": 4096,
                                   "line_bytes": 16}])"),
      {"ways must be at most 256", "field \"geometries[0].ways\""});
  expect_rejected(
      spec_with(paper + R"(,
    "dcaches": [{"sets": 512, "ways": 256, "line_bytes": 16}])"),
      {"sets x ways must be at most 65536 lines",
       "field \"dcaches[0].sets\""});
  expect_rejected(
      spec_with(paper + R"(,
    "l2s": [null, {"sets": 65536, "ways": 2, "line_bytes": 32}])"),
      {"sets x ways must be at most 65536 lines", "field \"l2s[1].sets\""});
  expect_rejected(
      spec_with(paper + R"(,
    "tlbs": [{"entries": 131072, "ways": 2, "page_bytes": 64}])"),
      {"entries must be at most 65536", "field \"tlbs[0].entries\""});
  expect_rejected(
      spec_with(paper + R"(,
    "tlbs": [{"entries": 1024, "ways": 512, "page_bytes": 64}])"),
      {"ways must be at most 256", "field \"tlbs[0].ways\""});
  // The bounds themselves are accepted (and pass CampaignSpec::validate).
  const CampaignSpec largest = parse_ok(spec_with(
      R"("geometries": [{"sets": 256, "ways": 256, "line_bytes": 16}],
    "tlbs": [{"entries": 65536, "ways": 256, "page_bytes": 64}])"));
  EXPECT_EQ(largest.geometries[0].sets * largest.geometries[0].ways,
            kMaxGeometryLines);
  // CampaignSpec::validate enforces the same bound on programmatic specs.
  CampaignSpec wider = largest;
  wider.geometries[0].sets = 512;
  const std::optional<SpecViolation> violation = wider.validate();
  ASSERT_TRUE(violation);
  EXPECT_EQ(violation->path, "geometries[0].sets");
  EXPECT_EQ(violation->message, "sets x ways must be at most 65536 lines");
  EXPECT_DEATH(expand_campaign(wider), "geometries\\[0\\]\\.sets");
}

TEST(SpecIoErrors, SimulationChipsAreBounded) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-3],
    "mechanisms": ["none"],
    "kinds": ["sim"],
    "simulation_chips": 1000000000
  })",
                  {"<inline>:7", "simulation_chips must be at most 1048576",
                   "field \"simulation_chips\""});
  // The bound itself is accepted.
  EXPECT_EQ(parse_ok(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-3],
    "mechanisms": ["none"],
    "kinds": ["sim"],
    "simulation_chips": 1048576
  })").simulation_chips,
            kMaxPopulation);
}

TEST(SpecIoErrors, MbptaChipsAreBounded) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-3],
    "mechanisms": ["none"],
    "kinds": ["mbpta"],
    "mbpta": {"chips": 100000000000, "block_size": 20}
  })",
                  {"<inline>:7", "mbpta.chips must be at most 1048576",
                   "field \"mbpta.chips\""});
}

TEST(SpecIoErrors, SampleCountsAreBounded) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-3],
    "mechanisms": ["none"],
    "kinds": ["sim"],
    "sample_counts": [0, "9223372036854775807"]
  })",
                  {"<inline>:7",
                   "sample_counts entries must be at most 1048576",
                   "field \"sample_counts[1]\""});
}

TEST(SpecIoErrors, CrossFieldErrorsPointAtTheirFieldsLine) {
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["SRB"],
    "kinds": ["spta", "sim"],
    "tlbs": [{"entries": 16, "ways": 2, "page_bytes": 64}]
  })",
                  {"<inline>:7", "field \"tlbs\""});
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "kinds": ["slack"],
    "mechanisms": ["SRB",
                   "none"]
  })",
                  {"<inline>:7", "field \"mechanisms[1]\""});
  // A rule on a key the file leaves at its default (mbpta.chips = 400)
  // points at the enclosing object.
  expect_rejected(R"({
    "tasks": ["fibcall"],
    "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
    "pfails": [1e-4],
    "mechanisms": ["none"],
    "kinds": ["mbpta"],
    "mbpta": {
      "block_size": 300
    }
  })",
                  {"<inline>:7", "mbpta.chips must be at least 2 * "
                   "mbpta.block_size", "field \"mbpta.chips\""});
}

// ---- one validator, two paths ----------------------------------------------

/// A valid programmatic spec with every optional axis enabled, so each
/// value rule has an entry to break.
CampaignSpec twin_base() {
  CampaignSpec spec;
  spec.tasks = {"fibcall"};
  spec.geometries = {CacheConfig::paper_default()};
  spec.pfails = {1e-4};
  spec.mechanisms = {Mechanism::kSharedReliableBuffer};
  spec.dcaches = {DcacheAxis{true, CacheConfig{8, 4, 16, 1, 100},
                             WritePolicy::kWriteBack, 40}};
  spec.tlbs = {TlbAxis{true, 16, 2, 64, 30}};
  spec.l2s = {L2Axis{true, CacheConfig{64, 4, 32, 0, 80}}};
  spec.ccdf_exceedances = {1e-6};
  return spec;
}

/// Every rule validate() names, broken once on a programmatic spec: the
/// violation names the field, and the spec file spec_to_json writes for
/// the same spec is rejected naming the same field.
TEST(SpecValidation, EveryRuleNamesTheSameFieldOnBothPaths) {
  using Mutate = void (*)(CampaignSpec&);
  const std::vector<std::pair<std::string, Mutate>> cases = {
      {"tasks", [](CampaignSpec& s) { s.tasks.clear(); }},
      {"tasks[0]", [](CampaignSpec& s) { s.tasks = {"fibcal"}; }},
      {"geometries", [](CampaignSpec& s) { s.geometries.clear(); }},
      {"geometries[0].sets", [](CampaignSpec& s) { s.geometries[0].sets = 0; }},
      {"geometries[0].ways", [](CampaignSpec& s) { s.geometries[0].ways = 0; }},
      {"geometries[0].ways",
       [](CampaignSpec& s) { s.geometries[0].ways = 512; }},
      {"geometries[0].sets",
       [](CampaignSpec& s) { s.geometries[0] = CacheConfig{512, 256, 16}; }},
      {"geometries[0].line_bytes",
       [](CampaignSpec& s) { s.geometries[0].line_bytes = 10; }},
      {"geometries[0].hit_latency",
       [](CampaignSpec& s) { s.geometries[0].hit_latency = -1; }},
      {"geometries[0].miss_penalty",
       [](CampaignSpec& s) { s.geometries[0].miss_penalty = -1; }},
      {"pfails", [](CampaignSpec& s) { s.pfails.clear(); }},
      {"pfails[0]", [](CampaignSpec& s) { s.pfails = {1.5}; }},
      {"mechanisms", [](CampaignSpec& s) { s.mechanisms.clear(); }},
      {"engines", [](CampaignSpec& s) { s.engines.clear(); }},
      {"kinds", [](CampaignSpec& s) { s.kinds.clear(); }},
      {"dcaches", [](CampaignSpec& s) { s.dcaches.clear(); }},
      {"dcaches[0].line_bytes",
       [](CampaignSpec& s) { s.dcaches[0].geometry.line_bytes = 6; }},
      {"dcaches[0].writeback_penalty",
       [](CampaignSpec& s) { s.dcaches[0].writeback_penalty = -1; }},
      {"tlbs", [](CampaignSpec& s) { s.tlbs.clear(); }},
      {"tlbs[0].ways", [](CampaignSpec& s) { s.tlbs[0].ways = 0; }},
      {"tlbs[0].ways",
       [](CampaignSpec& s) { s.tlbs[0] = TlbAxis{true, 1024, 512, 64, 30}; }},
      {"tlbs[0].entries", [](CampaignSpec& s) { s.tlbs[0].entries = 131072; }},
      {"tlbs[0].entries", [](CampaignSpec& s) { s.tlbs[0].entries = 15; }},
      {"tlbs[0].page_bytes",
       [](CampaignSpec& s) { s.tlbs[0].page_bytes = 10; }},
      {"tlbs[0].miss_penalty",
       [](CampaignSpec& s) { s.tlbs[0].miss_penalty = -1; }},
      {"l2s", [](CampaignSpec& s) { s.l2s.clear(); }},
      {"l2s[0].ways", [](CampaignSpec& s) { s.l2s[0].geometry.ways = 300; }},
      {"dcache_mechanisms",
       [](CampaignSpec& s) { s.dcache_mechanisms.clear(); }},
      {"sample_counts", [](CampaignSpec& s) { s.sample_counts.clear(); }},
      {"target_exceedance",
       [](CampaignSpec& s) { s.target_exceedance = 0.0; }},
      {"ccdf_exceedances[0]",
       [](CampaignSpec& s) { s.ccdf_exceedances = {0.0}; }},
      {"max_distribution_points",
       [](CampaignSpec& s) { s.max_distribution_points = 1; }},
      {"mbpta.chips", [](CampaignSpec& s) { s.mbpta.chips = 0; }},
      {"mbpta.block_size", [](CampaignSpec& s) { s.mbpta.block_size = 0; }},
      {"simulation_chips", [](CampaignSpec& s) { s.simulation_chips = 0; }},
      {"mbpta.chips",
       [](CampaignSpec& s) {
         s.kinds = {AnalysisKind::kMbpta};
         s.mbpta.chips = 10;
       }},
      {"sample_counts[1]",
       [](CampaignSpec& s) {
         s.kinds = {AnalysisKind::kMbpta};
         s.sample_counts = {0, 10};
       }},
      {"target_exceedance",
       [](CampaignSpec& s) {
         s.kinds = {AnalysisKind::kMbpta};
         s.target_exceedance = 1.0;
       }},
      {"ccdf_exceedances[0]",
       [](CampaignSpec& s) {
         s.kinds = {AnalysisKind::kMbpta};
         s.ccdf_exceedances = {1.0};
       }},
      {"dcaches",
       [](CampaignSpec& s) {
         s.kinds = {AnalysisKind::kSpta, AnalysisKind::kSimulation};
       }},
      {"tlbs",
       [](CampaignSpec& s) {
         s.dcaches = {DcacheAxis{}};
         s.kinds = {AnalysisKind::kSimulation};
       }},
      {"l2s",
       [](CampaignSpec& s) {
         s.dcaches = {DcacheAxis{}};
         s.tlbs = {TlbAxis{}};
         s.kinds = {AnalysisKind::kMbpta};
       }},
      {"mechanisms[1]",
       [](CampaignSpec& s) {
         s.dcaches = {DcacheAxis{}};
         s.tlbs = {TlbAxis{}};
         s.l2s = {L2Axis{}};
         s.kinds = {AnalysisKind::kSlack};
         s.mechanisms = {Mechanism::kReliableWay, Mechanism::kNone};
       }},
      {"simulation_chips",
       [](CampaignSpec& s) { s.simulation_chips = kMaxPopulation + 1; }},
      {"mbpta.chips",
       [](CampaignSpec& s) { s.mbpta.chips = kMaxPopulation + 1; }},
      {"sample_counts[0]",
       [](CampaignSpec& s) { s.sample_counts = {kMaxPopulation + 1}; }},
  };
  const CampaignSpec base = twin_base();
  ASSERT_FALSE(base.validate());
  EXPECT_FALSE(parse_spec(spec_to_json(base), "<base>").spec.validate());
  for (const auto& [path, mutate] : cases) {
    CampaignSpec spec = base;
    mutate(spec);
    const std::optional<SpecViolation> violation = spec.validate();
    ASSERT_TRUE(violation) << path;
    EXPECT_EQ(violation->path, path);
    EXPECT_FALSE(violation->message.empty()) << path;
    expect_rejected(spec_to_json(spec), {"field \"" + path + "\""});
  }
}

// ---- view validation -------------------------------------------------------

/// fibcall/bs x {none, SRB} x {spta, sim}, plus the given `view` block
/// (which starts on line 8).
std::string spec_with_view(const std::string& view) {
  return R"({
  "tasks": ["fibcall", "bs"],
  "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}],
  "pfails": [1e-4],
  "mechanisms": ["none", "SRB"],
  "kinds": ["spta", "sim"],
  "simulation_chips": 50,
  "view": )" + view + "\n}";
}

TEST(SpecIoErrors, ViewRowsNameKnownDistinctAxes) {
  expect_rejected(spec_with_view(R"({"rows": ["tasks", "taks"],
    "columns": [{"label": "x", "value": "pwcet",
                 "where": {"mechanisms": "none", "kinds": "spta"}}]})"),
                  {"<inline>:8", "unknown axis \"taks\"",
                   "valid values: tasks, geometries, pfails",
                   "field \"view.rows[1]\""});
  expect_rejected(spec_with_view(R"({"rows": ["tasks", "tasks"],
    "columns": [{"label": "x", "value": "pwcet",
                 "where": {"mechanisms": "none", "kinds": "spta"}}]})"),
                  {"axis \"tasks\" is already a view row",
                   "field \"view.rows[1]\""});
}

TEST(SpecIoErrors, ViewExceedanceRowNeedsADistributionSink) {
  expect_rejected(spec_with_view(R"({"rows": ["tasks", "ccdf_exceedances"],
    "columns": [{"label": "x", "value": "pwcet",
                 "where": {"mechanisms": "none", "kinds": "spta"}}]})"),
                  {"no distribution sink", "field \"view.rows[1]\""});
}

TEST(SpecIoErrors, ViewValueNamesANumericReportColumn) {
  expect_rejected(spec_with_view(R"({"rows": ["tasks"],
    "columns": [{"label": "x", "value": "pwect",
                 "where": {"mechanisms": "none", "kinds": "spta"}}]})"),
                  {"unknown report column \"pwect\"",
                   "valid values: wcet_ff, pwcet, observed_max",
                   "field \"view.columns[0].value\""});
  // The job-identity columns are not values.
  expect_rejected(spec_with_view(R"({"rows": ["tasks"],
    "columns": [{"label": "x", "value": "sets",
                 "where": {"mechanisms": "none", "kinds": "spta"}}]})"),
                  {"unknown report column \"sets\"",
                   "field \"view.columns[0].value\""});
}

TEST(SpecIoErrors, ViewWherePinsOnlyEnumAxesByKnownValues) {
  expect_rejected(spec_with_view(R"({"rows": ["geometries"],
    "columns": [{"label": "x", "value": "pwcet",
                 "where": {"tasks": "bs"}}]})"),
                  {"unknown axis \"tasks\" in \"where\"",
                   "field \"view.columns[0].where.tasks\""});
  expect_rejected(spec_with_view(R"({"rows": ["tasks"],
    "columns": [{"label": "x", "value": "pwcet",
                 "where": {"mechanisms": "SRBX", "kinds": "spta"}}]})"),
                  {"unknown mechanism \"SRBX\"",
                   "valid values: none, RW, SRB",
                   "field \"view.columns[0].where.mechanisms\""});
}

TEST(SpecIoErrors, ViewWhereValueMustBeOnTheSpecsAxis) {
  expect_rejected(spec_with_view(R"({"rows": ["tasks"],
    "columns": [{"label": "x", "value": "pwcet",
                 "where": {"mechanisms": "none", "kinds": "spta"},
                 "divide_by": {"value": "pwcet",
                               "where": {"mechanisms": "RW",
                                         "kinds": "spta"}}}]})"),
                  {"mechanism \"RW\" is not on this spec's \"mechanisms\" "
                   "axis",
                   "field \"view.columns[0].divide_by.where.mechanisms\""});
}

TEST(SpecIoErrors, ViewWhereCannotPinARowAxis) {
  expect_rejected(spec_with_view(R"({"rows": ["tasks", "mechanisms"],
    "columns": [{"label": "x", "value": "pwcet",
                 "where": {"mechanisms": "none", "kinds": "spta"}}]})"),
                  {"axis \"mechanisms\" is a view row",
                   "field \"view.columns[0].where.mechanisms\""});
}

TEST(SpecIoErrors, ViewCellsMustAddressOneJob) {
  // kinds has two values: neither a row nor pinned.
  expect_rejected(spec_with_view(R"({"rows": ["tasks"],
    "columns": [{"label": "x", "value": "pwcet",
                 "where": {"mechanisms": "none"}}]})"),
                  {"axis \"kinds\" has 2 values: make it a view row or pin "
                   "it in \"where\"",
                   "field \"view.columns[0].where\""});
  // Every reference pins on its own: the divisor does not inherit.
  expect_rejected(spec_with_view(R"({"rows": ["tasks"],
    "columns": [{"label": "x", "value": "pwcet",
                 "where": {"mechanisms": "none", "kinds": "spta"},
                 "divide_by": {"value": "pwcet",
                               "where": {"kinds": "spta"}}}]})"),
                  {"axis \"mechanisms\" has 2 values",
                   "field \"view.columns[0].divide_by.where\""});
  // A non-enum axis can only be a row.
  expect_rejected(spec_with_view(R"({"rows": ["mechanisms"],
    "columns": [{"label": "x", "value": "pwcet",
                 "where": {"kinds": "spta"}}]})"),
                  {"axis \"tasks\" has 2 values: make it a view row (",
                   "field \"view.columns[0].where\""});
}

TEST(SpecIoErrors, ViewShapeIsChecked) {
  expect_rejected(spec_with_view(R"({"rows": ["tasks"]})"),
                  {"view is missing \"columns\"", "field \"view.columns\""});
  expect_rejected(spec_with_view(R"({"rows": ["tasks"], "columns": []})"),
                  {"\"view.columns\" must not be empty"});
  expect_rejected(spec_with_view(R"({"rows": ["tasks"], "colums": []})"),
                  {"unknown key \"colums\" in view",
                   "did you mean \"columns\"?", "field \"view.colums\""});
  expect_rejected(spec_with_view(R"({"rows": ["tasks"],
    "columns": [{"value": "pwcet",
                 "where": {"mechanisms": "none", "kinds": "spta"}}]})"),
                  {"view column is missing \"label\"",
                   "field \"view.columns[0].label\""});
  expect_rejected(spec_with_view(R"({"rows": "tasks", "columns": []})"),
                  {"expected an array of axis names, got a string",
                   "field \"view.rows\""});
}

// The full diagnostic for an unknown key (with its hint) and for the first
// missing required key of every object the spec reader walks. mbpta
// options have no required key.
TEST(SpecIoErrors, UnknownAndMissingKeyDiagnosticsArePinnedPerObject) {
  const std::string column_where =
      R"("where": {"mechanisms": "none", "kinds": "spta"})";
  const std::string column = R"({"label": "x", "value": "pwcet", )" +
                             column_where;
  const struct {
    std::string text;
    std::string what;
  } cases[] = {
      {minimal_spec_plus(R"("simulation_chip": 5)"),
       "<inline>:6: unknown key \"simulation_chip\" in campaign spec — did "
       "you mean \"simulation_chips\"? (field \"simulation_chip\")"},
      {R"({
  "tasks": ["fibcall"],
  "geometries": [{"sets": 16, "ways": 4, "line_bytes": 16}]
})",
       "<inline>:1: missing required key \"pfails\" (field \"pfails\")"},
      {R"({
  "tasks": ["fibcall"],
  "geometries": [{"sets": 16, "ways": 4, "line_byte": 16}],
  "pfails": [1e-4],
  "mechanisms": ["none"]
})",
       "<inline>:3: unknown key \"line_byte\" in geometry — did you mean "
       "\"line_bytes\"? (field \"geometries[0].line_byte\")"},
      {R"({
  "tasks": ["fibcall"],
  "geometries": [{"line_bytes": 16}],
  "pfails": [1e-4],
  "mechanisms": ["none"]
})",
       "<inline>:3: geometry is missing \"sets\" (field "
       "\"geometries[0].sets\")"},
      {minimal_spec_plus(R"("dcaches": [{"sets": 16, "ways": 4, )"
                         R"("line_bytes": 16, "polcy": "write_back"}])"),
       "<inline>:6: unknown key \"polcy\" in data-cache entry — did you "
       "mean \"policy\"? (field \"dcaches[0].polcy\")"},
      {minimal_spec_plus(R"("dcaches": [null, {"sets": 16, "ways": 4}])"),
       "<inline>:6: geometry is missing \"line_bytes\" (field "
       "\"dcaches[1].line_bytes\")"},
      {minimal_spec_plus(
           R"("tlbs": [{"entries": 16, "way": 2, "page_bytes": 64}])"),
       "<inline>:6: unknown key \"way\" in TLB entry — did you mean "
       "\"ways\"? (field \"tlbs[0].way\")"},
      {minimal_spec_plus(R"("tlbs": [{"page_bytes": 64}])"),
       "<inline>:6: TLB entry is missing \"entries\" (field "
       "\"tlbs[0].entries\")"},
      {minimal_spec_plus(R"("mbpta": {"chips": 100, "blocksize": 10})"),
       "<inline>:6: unknown key \"blocksize\" in mbpta options — did you "
       "mean \"block_size\"? (field \"mbpta.blocksize\")"},
      {spec_with_view(R"({"rows": ["tasks"], "colums": []})"),
       "<inline>:8: unknown key \"colums\" in view — did you mean "
       "\"columns\"? (field \"view.colums\")"},
      {spec_with_view(R"({"columns": []})"),
       "<inline>:8: view is missing \"rows\" (field \"view.rows\")"},
      {spec_with_view(R"({"rows": ["tasks"], "columns": [{"label": "x", )"
                      R"("valu": "pwcet"}]})"),
       "<inline>:8: unknown key \"valu\" in view column — did you mean "
       "\"value\"? (field \"view.columns[0].valu\")"},
      {spec_with_view(R"({"rows": ["tasks"], "columns": [{}]})"),
       "<inline>:8: view column is missing \"label\" (field "
       "\"view.columns[0].label\")"},
      {spec_with_view(R"({"rows": ["tasks"], "columns": [{"label": "x"}]})"),
       "<inline>:8: missing \"value\" (field \"view.columns[0].value\")"},
      {spec_with_view(R"({"rows": ["tasks"], "columns": [)" + column +
                      R"(, "divide_by": {"valu": "pwcet"}}]})"),
       "<inline>:8: unknown key \"valu\" in divide_by — did you mean "
       "\"value\"? (field \"view.columns[0].divide_by.valu\")"},
      {spec_with_view(R"({"rows": ["tasks"], "columns": [)" + column +
                      R"(, "divide_by": {)" + column_where + "}}]}"),
       "<inline>:8: missing \"value\" (field "
       "\"view.columns[0].divide_by.value\")"},
  };
  for (const auto& c : cases) {
    try {
      parse_spec(c.text, "<inline>");
      ADD_FAILURE() << "spec unexpectedly parsed:\n" << c.text;
    } catch (const SpecError& e) {
      EXPECT_EQ(std::string(e.what()), c.what) << c.text;
    }
  }
}

TEST(SpecIoErrors, SyntaxErrorsCarryLineNumbers) {
  expect_rejected("{\n  \"tasks\": [\"fibcall\",\n}",
                  {"<inline>:3"});
  expect_rejected(std::string(kMinimalSpec) + " trailing",
                  {"trailing content"});
  expect_rejected(R"({"tasks": ["fibcall"], "tasks": ["bs"]})",
                  {"duplicate key \"tasks\""});
}

TEST(SpecIoErrors, MissingFileIsAnErrorNotAnAbort) {
  EXPECT_THROW(load_spec("/nonexistent/spec.json"), SpecError);
}

}  // namespace
}  // namespace pwcet
