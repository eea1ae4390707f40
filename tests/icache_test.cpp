// Tests for the static instruction-cache analyses: Must/May abstract set
// states, the per-set fixpoint + persistence classifier, and the SRB
// analysis — including soundness properties checked against the concrete
// simulator.
#include <gtest/gtest.h>

#include <string>

#include "cache/references.hpp"
#include "icache/abstract_set.hpp"
#include "icache/age_profile.hpp"
#include "icache/set_analysis.hpp"
#include "icache/srb_analysis.hpp"
#include "sim/cache_sim.hpp"
#include "sim/path.hpp"
#include "support/rng.hpp"
#include "workloads/malardalen.hpp"
#include "workloads/random_program.hpp"

namespace pwcet {
namespace {

TEST(MustState, AccessAndAging) {
  MustState s;
  s.access(1, 2);
  EXPECT_TRUE(s.contains(1));
  s.access(2, 2);  // 1 ages to 1, still resident
  EXPECT_TRUE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
  s.access(3, 2);  // 1 evicted (age 2), 2 ages to 1
  EXPECT_FALSE(s.contains(1));
  EXPECT_TRUE(s.contains(2));
}

TEST(MustState, ReaccessRefreshesAge) {
  MustState s;
  s.access(1, 2);
  s.access(2, 2);
  s.access(1, 2);  // 1 back to MRU; 2 must NOT age (was older than 1's pos)
  s.access(3, 2);  // ages 1 -> 1; 2 evicted
  EXPECT_TRUE(s.contains(1));
  EXPECT_FALSE(s.contains(2));
}

TEST(MustState, JoinIntersectsWithMaxAge) {
  MustState a, b;
  a.access(1, 4);
  a.access(2, 4);  // a: 2@0, 1@1
  b.access(3, 4);
  b.access(1, 4);  // b: 1@0, 3@1
  const MustState j = MustState::join(a, b);
  EXPECT_TRUE(j.contains(1));
  EXPECT_FALSE(j.contains(2));
  EXPECT_FALSE(j.contains(3));
  ASSERT_EQ(j.lines().size(), 1u);
  EXPECT_EQ(j.lines()[0].age, 1u);  // max(1, 0)
}

TEST(MayState, JoinUnionsWithMinAge) {
  MayState a, b;
  a.access(1, 4);  // 1@0
  b.access(2, 4);
  b.access(1, 4);  // 1@0, 2@1
  const MayState j = MayState::join(a, b);
  EXPECT_TRUE(j.contains(1));
  EXPECT_TRUE(j.contains(2));
}

TEST(MayState, EvictsAtCapacity) {
  MayState s;
  s.access(1, 2);
  s.access(2, 2);
  s.access(3, 2);
  EXPECT_FALSE(s.contains(1));  // min age reached associativity
  EXPECT_TRUE(s.contains(2));
  EXPECT_TRUE(s.contains(3));
}

// Soundness of the abstract transfer functions against concrete LRU: for
// random access sequences, Must-resident lines always hit and May-absent
// lines always miss in the concrete simulation.
TEST(AbstractSet, SoundVsConcreteLru) {
  Rng rng(71);
  const std::uint32_t assoc = 4;
  for (int trial = 0; trial < 200; ++trial) {
    MustState must;
    MayState may;
    // Concrete set: MRU-first stack.
    std::vector<LineAddress> stack;
    for (int step = 0; step < 60; ++step) {
      const LineAddress line = rng.next_below(8);
      const bool concrete_hit =
          std::find(stack.begin(), stack.end(), line) != stack.end();
      if (must.contains(line)) {
        EXPECT_TRUE(concrete_hit) << trial;
      }
      if (!may.contains(line)) {
        EXPECT_FALSE(concrete_hit) << trial;
      }
      // Concrete update.
      auto it = std::find(stack.begin(), stack.end(), line);
      if (it != stack.end()) stack.erase(it);
      stack.insert(stack.begin(), line);
      if (stack.size() > assoc) stack.pop_back();
      // Abstract updates.
      must.access(line, assoc);
      may.access(line, assoc);
    }
  }
}

ProgramBuilder tiny_loop_builder(std::uint32_t body_instr, std::int64_t bound) {
  ProgramBuilder b("tiny");
  b.add_function("main", b.loop(4, bound, b.code(body_instr)));
  return b;
}

TEST(SetAnalysis, StraightLineSecondRefHits) {
  // Two blocks touching the same line: the second reference is always-hit.
  ProgramBuilder b("p");
  b.add_function("main", b.seq({b.code(2), b.code(2)}));
  const Program p = b.build(0);
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const SetAnalysis analysis(p.cfg(), refs, /*set=*/0, c.ways);
  int always_hit = 0, first = 0;
  for (const auto& blk : p.cfg().blocks()) {
    for (std::size_t i = 0; i < refs[size_t(blk.id)].size(); ++i) {
      if (refs[size_t(blk.id)][i].set != 0) continue;
      const RefClass rc = analysis.classification(blk.id, i);
      always_hit += (rc.chmc == Chmc::kAlwaysHit);
      first += (rc.chmc != Chmc::kAlwaysHit);
    }
  }
  EXPECT_EQ(always_hit, 1);  // the second block's ref
  EXPECT_EQ(first, 1);       // the initial cold reference
}

TEST(SetAnalysis, LoopBodyPersistsWhenItFits) {
  // 4-instruction body = 1 line; loop scope has 2 lines total (header+body)
  // but they are in different sets, so each set sees 1 line: first-miss.
  auto b = tiny_loop_builder(4, 10);
  const Program p = b.build(0);
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  bool found_fm = false;
  for (SetIndex s = 0; s < c.sets; ++s) {
    const SetAnalysis analysis(p.cfg(), refs, s, c.ways);
    for (const auto& blk : p.cfg().blocks())
      for (std::size_t i = 0; i < refs[size_t(blk.id)].size(); ++i) {
        if (refs[size_t(blk.id)][i].set != s) continue;
        const RefClass rc = analysis.classification(blk.id, i);
        EXPECT_NE(rc.chmc, Chmc::kNotClassified);
        if (rc.chmc == Chmc::kFirstMiss) found_fm = true;
      }
  }
  EXPECT_TRUE(found_fm);
}

TEST(SetAnalysis, ZeroAssociativityMeansAllMiss) {
  auto b = tiny_loop_builder(8, 5);
  const Program p = b.build(0);
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const SetAnalysis analysis(p.cfg(), refs, 0, /*associativity=*/0);
  for (const auto& blk : p.cfg().blocks())
    for (std::size_t i = 0; i < refs[size_t(blk.id)].size(); ++i)
      if (refs[size_t(blk.id)][i].set == 0) {
        EXPECT_EQ(analysis.classification(blk.id, i).chmc, Chmc::kAlwaysMiss);
      }
}

TEST(SetAnalysis, DegradedAssociativityOnlyDegrades) {
  // Lowering the associativity can never turn a non-hit into always-hit or
  // widen a persistence scope.
  const Program p = workloads::build("ud");
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  for (SetIndex s = 0; s < c.sets; s += 5) {
    const SetAnalysis full(p.cfg(), refs, s, 4);
    const SetAnalysis degraded(p.cfg(), refs, s, 2);
    for (const auto& blk : p.cfg().blocks()) {
      for (std::size_t i = 0; i < refs[size_t(blk.id)].size(); ++i) {
        if (refs[size_t(blk.id)][i].set != s) continue;
        const RefClass f = full.classification(blk.id, i);
        const RefClass d = degraded.classification(blk.id, i);
        if (d.chmc == Chmc::kAlwaysHit) {
          EXPECT_EQ(f.chmc, Chmc::kAlwaysHit);
        }
        if (d.chmc == Chmc::kFirstMiss && f.chmc == Chmc::kFirstMiss) {
          // The degraded scope must be nested inside the full scope.
          if (f.scope != d.scope && d.scope != kNoLoop) {
            EXPECT_TRUE(f.scope == kNoLoop ||
                        p.cfg().loop_contains(f.scope, d.scope));
          }
        }
      }
    }
  }
}

TEST(SetAnalysis, AlwaysHitSoundVsSimulation) {
  // Fault-free simulation of random paths: a reference classified
  // always-hit must never miss; the first fetch of an always-miss
  // reference must never hit.
  const CacheConfig c = CacheConfig::paper_default();
  for (const char* name : {"matmult", "bs", "crc", "statemate"}) {
    const Program p = workloads::build(name);
    const auto refs = extract_references(p.cfg(), c);
    std::vector<SetAnalysis> per_set;
    for (SetIndex s = 0; s < c.sets; ++s)
      per_set.emplace_back(p.cfg(), refs, s, c.ways);

    Rng rng(73);
    for (int trial = 0; trial < 3; ++trial) {
      const BlockPath path = random_walk(p, rng);
      CacheSimulator sim(c, FaultMap::none(c), Mechanism::kNone);
      for (BlockId blk : path) {
        const auto& block_refs = refs[size_t(blk)];
        for (std::size_t i = 0; i < block_refs.size(); ++i) {
          const LineRef& r = block_refs[i];
          const RefClass rc = per_set[r.set].classification(blk, i);
          bool first_fetch_hit = false;
          for (std::uint32_t k = 0; k < r.fetches; ++k) {
            const bool hit = sim.fetch(r.line * c.line_bytes + 4 * k);
            if (k == 0) first_fetch_hit = hit;
          }
          if (rc.chmc == Chmc::kAlwaysHit) {
            EXPECT_TRUE(first_fetch_hit) << name << " block " << blk;
          }
          if (rc.chmc == Chmc::kAlwaysMiss) {
            EXPECT_FALSE(first_fetch_hit) << name << " block " << blk;
          }
        }
      }
    }
  }
}

TEST(SetAnalysis, FirstMissBoundSoundVsSimulation) {
  // Along a heavy path, a first-miss reference with whole-program scope
  // misses at most once; with a loop scope, at most once per loop entry
  // (entries bounded by the walk structure: here heavy_walk enters each
  // loop exactly (product of outer bounds) times).
  const CacheConfig c = CacheConfig::paper_default();
  const Program p = workloads::build("fibcall");
  const auto refs = extract_references(p.cfg(), c);
  std::vector<SetAnalysis> per_set;
  for (SetIndex s = 0; s < c.sets; ++s)
    per_set.emplace_back(p.cfg(), refs, s, c.ways);

  const BlockPath path = heavy_walk(p);
  CacheSimulator sim(c, FaultMap::none(c), Mechanism::kNone);
  // Count misses per (block, ref) with global first-miss scope.
  std::map<std::pair<BlockId, std::size_t>, int> misses;
  for (BlockId blk : path) {
    const auto& block_refs = refs[size_t(blk)];
    for (std::size_t i = 0; i < block_refs.size(); ++i) {
      const LineRef& r = block_refs[i];
      bool hit0 = false;
      for (std::uint32_t k = 0; k < r.fetches; ++k) {
        const bool hit = sim.fetch(r.line * c.line_bytes + 4 * k);
        if (k == 0) hit0 = hit;
      }
      const RefClass rc = per_set[r.set].classification(blk, i);
      if (rc.chmc == Chmc::kFirstMiss && rc.scope == kNoLoop && !hit0)
        ++misses[{blk, i}];
    }
  }
  for (const auto& [key, count] : misses) EXPECT_LE(count, 1);
}

// ---- the age profile against per-associativity analyses --------------------

CacheConfig geometry(std::uint32_t sets, std::uint32_t ways) {
  CacheConfig c = CacheConfig::paper_default();
  c.sets = sets;
  c.ways = ways;
  return c;
}

/// Counts the references whose profile classification at some A in 0..W
/// differs from a SetAnalysis built directly at A, over every used set;
/// reports the first difference. The profile's whole-map classify() is
/// the path the pipeline reads.
std::size_t profile_mismatches(const Program& p, const CacheConfig& c,
                               const std::string& label) {
  const ReferenceMap refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  std::vector<bool> used(c.sets, false);
  for (const auto& block_refs : refs)
    for (const LineRef& r : block_refs) used[r.set] = true;
  std::size_t mismatches = 0;
  for (std::uint32_t a = 0; a <= c.ways; ++a) {
    const ClassificationMap derived = profile.classify(a);
    for (SetIndex s = 0; s < c.sets; ++s) {
      if (!used[s]) continue;
      const SetAnalysis reference(p.cfg(), refs, s, a);
      for (const auto& blk : p.cfg().blocks()) {
        for (std::size_t i = 0; i < refs[size_t(blk.id)].size(); ++i) {
          if (refs[size_t(blk.id)][i].set != s) continue;
          const RefClass want = reference.classification(blk.id, i);
          const RefClass got = derived[size_t(blk.id)][i];
          if (got == want) continue;
          if (mismatches++ == 0)
            ADD_FAILURE() << label << " " << c.sets << "x" << c.ways
                          << " set " << s << " A=" << a << " block "
                          << blk.id << " ref " << i << ": chmc "
                          << int(got.chmc) << " scope " << got.scope
                          << ", SetAnalysis chmc " << int(want.chmc)
                          << " scope " << want.scope;
        }
      }
    }
  }
  return mismatches;
}

// One fixpoint at W answers every associativity: the profile's threshold
// classification equals a SetAnalysis run at each A in 0..W, on every set
// of every shipped task, from 8 sets of 8 ways to 4 sets of 256.
TEST(AgeProfile, MatchesSetAnalysisAtEveryAssociativityOnEveryTask) {
  for (const auto& [sets, ways] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {16, 4}, {32, 2}, {8, 8}, {1, 8}, {16, 64}, {4, 256}}) {
    for (const std::string& name : workloads::names())
      EXPECT_EQ(profile_mismatches(workloads::build(name),
                                   geometry(sets, ways), name),
                0u);
  }
}

TEST(AgeProfile, MatchesSetAnalysisOnRandomPrograms) {
  const std::vector<CacheConfig> geometries = {
      geometry(16, 4), geometry(16, 8), geometry(8, 16), geometry(32, 2),
      geometry(1, 8)};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(0xa9e0000 + seed);
    const Program p = workloads::random_program(rng);
    EXPECT_EQ(profile_mismatches(p, geometries[seed % geometries.size()],
                                 "random seed " + std::to_string(seed)),
              0u);
  }
}

TEST(AgeProfile, ClassifySetOverwritesOnlyItsSet) {
  const Program p = workloads::build("ud");
  const CacheConfig c = CacheConfig::paper_default();
  const ReferenceMap refs = extract_references(p.cfg(), c);
  const AgeProfile profile(p.cfg(), refs, c);
  const ClassificationMap fault_free = profile.classify(c.ways);
  const ClassificationMap one_way = profile.classify(1);
  for (SetIndex s = 0; s < c.sets; ++s) {
    ClassificationMap mixed = fault_free;
    profile.classify_set(s, 1, mixed);
    for (std::size_t b = 0; b < refs.size(); ++b)
      for (std::size_t i = 0; i < refs[b].size(); ++i)
        EXPECT_EQ(mixed[b][i],
                  refs[b][i].set == s ? one_way[b][i] : fault_free[b][i]);
  }
}

TEST(Srb, PaperExampleStream) {
  // Paper §III-B.2: stream a1 a2 b1 b2 a1 a2 with a, b in distinct sets.
  // Line-level: A B A. The second A is *not* SRB-always-hit (B may have
  // reloaded the buffer); every B following A is not a hit either; only
  // intra-line fetches (a2 after a1) hit — those are merged into one
  // reference here, so no reference is classified SRB-always-hit.
  ProgramBuilder b("p");
  // Block design: 8 instructions = lines {0, 1}; then revisit line 0 via a
  // second block at address 0 is impossible structurally, so use a loop:
  // body touches lines 0 and 1 alternately across iterations.
  b.add_function("main", b.loop(4, 3, b.code(4)));
  const Program p = b.build(0);
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const SrbHitMap hits = analyze_srb(p.cfg(), refs);
  // Header (line 0) and body (line 1) alternate: header sees body's line
  // on the back edge and the preheader state on entry -> join is Top or a
  // different line; nothing is guaranteed.
  for (const auto& blk : p.cfg().blocks())
    for (std::size_t i = 0; i < refs[size_t(blk.id)].size(); ++i)
      EXPECT_EQ(hits[size_t(blk.id)][i], 0u);
}

TEST(Srb, SingleLineLoopBodyHits) {
  // A loop whose header+body live in ONE line: every re-reference is
  // preceded by a reference to the same line on all paths.
  ProgramBuilder b("p");
  b.add_function("main", b.loop(1, 5, b.code(2)));  // 3 instructions total
  const Program p = b.build(0);
  const CacheConfig c = CacheConfig::paper_default();
  const auto refs = extract_references(p.cfg(), c);
  const SrbHitMap hits = analyze_srb(p.cfg(), refs);
  int srb_hits = 0, total = 0;
  for (const auto& blk : p.cfg().blocks())
    for (std::size_t i = 0; i < refs[size_t(blk.id)].size(); ++i) {
      total += 1;
      srb_hits += hits[size_t(blk.id)][i];
    }
  // Header and body refs merge to the same line; all refs after the very
  // first one are guaranteed SRB hits.
  EXPECT_EQ(total - srb_hits, 1);
}

TEST(Srb, SoundVsSimulationAllSetsFaulty) {
  // With EVERY set fully faulty, all fetches go through the SRB: an
  // SRB-always-hit reference must hit in simulation on any path.
  const CacheConfig c = CacheConfig::paper_default();
  for (const char* name : {"fibcall", "adpcm", "ns"}) {
    const Program p = workloads::build(name);
    const auto refs = extract_references(p.cfg(), c);
    const SrbHitMap hits = analyze_srb(p.cfg(), refs);
    FaultMap all_faulty(c.sets, c.ways);
    for (SetIndex s = 0; s < c.sets; ++s)
      for (std::uint32_t w = 0; w < c.ways; ++w)
        all_faulty.set_faulty(s, w, true);

    Rng rng(79);
    const BlockPath path = random_walk(p, rng);
    CacheSimulator sim(c, all_faulty, Mechanism::kSharedReliableBuffer);
    for (BlockId blk : path) {
      const auto& block_refs = refs[size_t(blk)];
      for (std::size_t i = 0; i < block_refs.size(); ++i) {
        const LineRef& r = block_refs[i];
        bool hit0 = false;
        for (std::uint32_t k = 0; k < r.fetches; ++k) {
          const bool hit = sim.fetch(r.line * c.line_bytes + 4 * k);
          if (k == 0) hit0 = hit;
        }
        if (hits[size_t(blk)][i]) {
          EXPECT_TRUE(hit0) << name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pwcet
