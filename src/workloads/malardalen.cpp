#include "workloads/malardalen.hpp"

#include <functional>

#include "support/contracts.hpp"

namespace pwcet::workloads {
namespace {

/// Code sizes are written in cache lines (4 instructions each) so the
/// relation to the 64-line / 16-set paper cache is explicit at a glance.
constexpr std::uint32_t kInstrPerLine = 4;

std::uint32_t instrs(std::uint32_t lines) { return lines * kInstrPerLine; }

/// Wraps a benchmark body in start-up and tear-down code. The original
/// binaries carry crt0, argument setup, and the printf/IO epilogues of the
/// Mälardalen mains (gcc 4.1, default linker layout, §IV-A); this one-shot
/// code executes once, misses once per line, and contributes to the
/// fault-free WCET exactly like the original runtimes do. Leaving it out
/// would overstate the relative weight of the fault-induced penalties.
StmtId with_runtime(ProgramBuilder& b, std::uint32_t prologue_lines,
                    std::uint32_t epilogue_lines, StmtId body) {
  return b.seq({b.code(instrs(prologue_lines)), body,
                b.code(instrs(epilogue_lines))});
}

// ---------------------------------------------------------------------------
// Category 1 — the cache captures spatial locality only (loop bodies much
// larger than the 64-line cache, or essentially straight-line code). Both
// mechanisms fully mask the impact of faults (paper §IV-B).
// ---------------------------------------------------------------------------

/// ADPCM encoder/decoder: one large main loop calling encode, decode and a
/// shared filter routine; body far exceeds the cache.
Program build_adpcm() {
  ProgramBuilder b("adpcm");
  const FunctionId filter =
      b.add_function("filter", b.code(instrs(22)));
  const StmtId encode = b.seq({
      b.code(instrs(18)),
      b.if_else(instrs(1), b.code(instrs(8)), b.code(instrs(10))),
      b.call(filter),
      b.code(instrs(12)),
  });
  const StmtId decode = b.seq({
      b.code(instrs(15)),
      b.call(filter),
      b.if_else(instrs(1), b.code(instrs(6)), b.code(instrs(7))),
      b.code(instrs(10)),
  });
  const StmtId main_body = b.seq({
      b.code(instrs(24)),  // input conditioning
      b.loop(instrs(1), 60, b.seq({encode, decode, b.code(instrs(9))})),
      b.code(instrs(8)),  // epilogue
  });
  b.add_function("main", with_runtime(b, 12, 8, main_body));
  return b.build(1);
}

/// LZW-style compress: one big loop over the buffer, hash + emit paths.
Program build_compress() {
  ProgramBuilder b("compress");
  const StmtId body = b.seq({
      b.code(instrs(26)),  // hash probe
      b.if_else(instrs(1), b.code(instrs(22)), b.code(instrs(28))),
      b.code(instrs(18)),  // code emission
  });
  b.add_function("main", with_runtime(b, 12, 8, b.seq({
                             b.code(instrs(16)),
                             b.loop(instrs(1), 40, body),
                             b.code(instrs(6)),
                         })));
  return b.build(0);
}

/// cover: loop over a large switch; every arm is cold code, so only spatial
/// locality exists on any single path.
Program build_cover() {
  ProgramBuilder b("cover");
  // Depth-3 if/else chain approximating an 8-arm switch of 12 lines each.
  auto arm = [&](std::uint32_t lines) { return b.code(instrs(lines)); };
  const StmtId sw = b.if_else(
      instrs(1),
      b.if_else(instrs(1), b.if_else(instrs(1), arm(12), arm(13)),
                b.if_else(instrs(1), arm(11), arm(12))),
      b.if_else(instrs(1), b.if_else(instrs(1), arm(13), arm(12)),
                b.if_else(instrs(1), arm(12), arm(14))));
  b.add_function("main", with_runtime(b, 12, 8, b.seq({
                             b.code(instrs(6)),
                             b.loop(instrs(1), 120, b.seq({sw, arm(2)})),
                             b.code(instrs(3)),
                         })));
  return b.build(0);
}

/// nsichneu: Petri-net simulation — hundreds of sequential if/else pairs,
/// two outer iterations; the body dwarfs the cache.
Program build_nsichneu() {
  ProgramBuilder b("nsichneu");
  std::vector<StmtId> pairs;
  pairs.reserve(30);
  for (int i = 0; i < 30; ++i) {
    pairs.push_back(b.if_else(instrs(1), b.code(instrs(6)),
                              b.code(instrs(6))));
  }
  b.add_function("main", with_runtime(b, 12, 8, b.seq({
                             b.code(instrs(4)),
                             b.loop(instrs(1), 2, b.seq(std::move(pairs))),
                             b.code(instrs(2)),
                         })));
  return b.build(0);
}

// ---------------------------------------------------------------------------
// Category 2 — small kernels whose loop working set fits one line per set:
// all temporal reuse sits in the MRU position, which the RW preserves under
// any fault pattern while the SRB analysis cannot (paper §IV-B).
// ---------------------------------------------------------------------------

/// fibcall: iterative Fibonacci — a tiny loop.
Program build_fibcall() {
  ProgramBuilder b("fibcall");
  b.add_function("main", with_runtime(b, 44, 18, b.seq({
                             b.code(instrs(3)),
                             b.loop(instrs(1), 30, b.code(instrs(5))),
                             b.code(instrs(1)),
                         })));
  return b.build(0);
}

/// bs: binary search over 15 elements.
Program build_bs() {
  ProgramBuilder b("bs");
  const StmtId body = b.seq({
      b.code(instrs(2)),
      b.if_else(instrs(1), b.code(instrs(3)), b.code(instrs(3))),
  });
  b.add_function("main", with_runtime(b, 44, 18, b.seq({
                             b.code(instrs(3)),
                             b.loop(instrs(1), 4, body),
                             b.code(instrs(1)),
                         })));
  return b.build(0);
}

/// prime: trial-division primality test.
Program build_prime() {
  ProgramBuilder b("prime");
  const StmtId body = b.seq({
      b.code(instrs(2)),
      b.if_then(instrs(1), b.code(instrs(2))),
  });
  b.add_function("main", with_runtime(b, 44, 18, b.seq({
                             b.code(instrs(4)),
                             b.loop(instrs(1), 50, body),
                             b.code(instrs(2)),
                         })));
  return b.build(0);
}

/// expint: exponential integral — nested small loops.
Program build_expint() {
  ProgramBuilder b("expint");
  const StmtId inner = b.loop(instrs(1), 9, b.code(instrs(24)));
  b.add_function("main", with_runtime(b, 44, 18, b.seq({
                     b.code(instrs(5)),
                     b.loop(instrs(1), 12, b.seq({b.code(instrs(19)), inner,
                                                  b.code(instrs(14))})),
                     b.code(instrs(2)),
                 })));
  return b.build(0);
}

/// janne_complex: the two interlocked small loops of the WCET tool
/// challenge.
Program build_janne_complex() {
  ProgramBuilder b("janne_complex");
  const StmtId inner =
      b.loop(instrs(1), 12,
             b.seq({b.code(instrs(9)),
                    b.if_else(instrs(1), b.code(instrs(7)),
                              b.code(instrs(8)))}));
  b.add_function("main", with_runtime(b, 44, 18, b.seq({
                     b.code(instrs(2)),
                     b.loop(instrs(1), 10, b.seq({b.code(instrs(12)), inner,
                                                  b.code(instrs(8))})),
                 })));
  return b.build(0);
}

/// insertsort: two tight nested loops over 10 elements.
Program build_insertsort() {
  ProgramBuilder b("insertsort");
  const StmtId inner = b.loop(instrs(1), 9, b.code(instrs(26)));
  b.add_function("main", with_runtime(b, 44, 18, b.seq({
                     b.code(instrs(3)),
                     b.loop(instrs(1), 9, b.seq({b.code(instrs(19)), inner,
                                                 b.code(instrs(14))})),
                 })));
  return b.build(0);
}

// ---------------------------------------------------------------------------
// Category 3 — medium kernels: the loop working set spans several ways per
// set, so most temporal reuse lives *beyond* the MRU position and neither
// mechanism can protect it; both gains are similar (paper §IV-B).
// ---------------------------------------------------------------------------

/// crc: bit loop over the message with a table-update helper.
Program build_crc() {
  ProgramBuilder b("crc");
  const FunctionId update = b.add_function("icrc1", b.code(instrs(12)));
  const StmtId body = b.seq({
      b.code(instrs(9)),
      b.call(update),
      b.if_else(instrs(1), b.code(instrs(8)), b.code(instrs(6))),
      b.code(instrs(7)),
  });
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
                             b.code(instrs(6)),
                             b.loop(instrs(1), 64, body),
                             b.code(instrs(2)),
                         })));
  return b.build(1);
}

/// fir: finite impulse response filter — one medium loop nest.
Program build_fir() {
  ProgramBuilder b("fir");
  const StmtId inner = b.loop(instrs(1), 12, b.code(instrs(42)));
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
                     b.code(instrs(5)),
                     b.loop(instrs(1), 20,
                            b.seq({b.code(instrs(10)), inner,
                                   b.code(instrs(8))})),
                 })));
  return b.build(0);
}

/// edn: sequence of signal-processing loops of medium size.
Program build_edn() {
  ProgramBuilder b("edn");
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
          b.code(instrs(4)),
          b.loop(instrs(1), 25, b.code(instrs(52))),
          b.loop(instrs(1), 20, b.code(instrs(46))),
          b.loop(instrs(1), 30,
                 b.seq({b.code(instrs(22)),
                        b.if_else(instrs(1), b.code(instrs(15)),
                                  b.code(instrs(14)))})),
          b.code(instrs(3)),
      })));
  return b.build(0);
}

/// fdct: forward DCT — two passes of medium straight-line arithmetic.
Program build_fdct() {
  ProgramBuilder b("fdct");
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
                             b.code(instrs(4)),
                             b.loop(instrs(1), 8, b.code(instrs(44))),
                             b.loop(instrs(1), 8, b.code(instrs(41))),
                         })));
  return b.build(0);
}

/// jfdctint: integer DCT — three medium passes.
Program build_jfdctint() {
  ProgramBuilder b("jfdctint");
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
                             b.code(instrs(3)),
                             b.loop(instrs(1), 8, b.code(instrs(38))),
                             b.loop(instrs(1), 8, b.code(instrs(36))),
                             b.loop(instrs(1), 16, b.code(instrs(12))),
                         })));
  return b.build(0);
}

/// ndes: DES-like rounds calling two medium helpers per iteration.
Program build_ndes() {
  ProgramBuilder b("ndes");
  const FunctionId sbox = b.add_function("getbit", b.code(instrs(8)));
  const FunctionId perm = b.add_function("ks", b.code(instrs(10)));
  const StmtId round = b.seq({
      b.code(instrs(6)),
      b.call(sbox),
      b.code(instrs(4)),
      b.call(perm),
      b.if_else(instrs(1), b.code(instrs(4)), b.code(instrs(3))),
  });
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
                             b.code(instrs(8)),
                             b.loop(instrs(1), 16, round),
                             b.code(instrs(4)),
                         })));
  return b.build(2);
}

/// bsort100: bubble sort — tight nested loops with a swap branch of
/// moderate footprint.
Program build_bsort100() {
  ProgramBuilder b("bsort100");
  const StmtId inner =
      b.loop(instrs(1), 16,
             b.seq({b.code(instrs(12)),
                    b.if_then(instrs(1), b.code(instrs(18)))}));
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
                     b.code(instrs(3)),
                     b.loop(instrs(1), 16, b.seq({b.code(instrs(14)), inner,
                                                  b.code(instrs(7))})),
                 })));
  return b.build(0);
}

/// cnt: 2-D array count/sum with a medium test-and-accumulate body.
Program build_cnt() {
  ProgramBuilder b("cnt");
  const StmtId inner =
      b.loop(instrs(1), 10,
             b.seq({b.code(instrs(12)),
                    b.if_else(instrs(1), b.code(instrs(13)),
                              b.code(instrs(12)))}));
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
                     b.code(instrs(4)),
                     b.loop(instrs(1), 10, b.seq({b.code(instrs(11)), inner})),
                     b.code(instrs(2)),
                 })));
  return b.build(0);
}

// ---------------------------------------------------------------------------
// Category 4 — mixed: both MRU-position temporal locality (small inner
// kernels) and deeper temporal locality (medium loops); RW, SRB and the
// fault-free WCET all differ (paper §IV-B, e.g. matmult and fft).
// ---------------------------------------------------------------------------

/// matmult: triple loop nest; tiny innermost kernel under medium overhead.
Program build_matmult() {
  ProgramBuilder b("matmult");
  const StmtId innermost = b.loop(instrs(1), 8, b.code(instrs(49)));
  const StmtId middle =
      b.loop(instrs(1), 6, b.seq({b.code(instrs(10)), innermost,
                                   b.code(instrs(8))}));
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
                     b.code(instrs(4)),
                     b.loop(instrs(1), 12, b.code(instrs(10))),  // init
                     b.loop(instrs(1), 6, b.seq({b.code(instrs(8)), middle})),
                     b.code(instrs(2)),
                 })));
  return b.build(0);
}

/// fft: butterfly nest with a twiddle-factor helper (the paper's minimum
/// RW gain).
Program build_fft() {
  ProgramBuilder b("fft");
  const FunctionId sine = b.add_function("my_sin", b.code(instrs(23)));
  const StmtId butterfly = b.seq({
      b.code(instrs(13)),
      b.call(sine),
      b.code(instrs(12)),
      b.if_else(instrs(1), b.code(instrs(2)), b.code(instrs(3))),
  });
  const StmtId stage = b.loop(instrs(1), 24, butterfly);
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
                             b.code(instrs(6)),
                             b.loop(instrs(1), 3,
                                    b.seq({b.code(instrs(7)), stage})),
                             b.loop(instrs(1), 32, b.code(instrs(4))),
                             b.code(instrs(3)),
                         })));
  return b.build(1);
}

/// ludcmp: LU decomposition — triangular nests plus a small solve kernel.
Program build_ludcmp() {
  ProgramBuilder b("ludcmp");
  const StmtId reduce =
      b.loop(instrs(1), 6, b.seq({b.code(instrs(12)),
                                  b.loop(instrs(1), 6, b.code(instrs(51)))}));
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
          b.code(instrs(5)),
          b.loop(instrs(1), 4, b.seq({b.code(instrs(14)), reduce})),
          b.loop(instrs(1), 6, b.code(instrs(18))),  // forward substitution
          b.loop(instrs(1), 6, b.code(instrs(9))),   // back substitution
      })));
  return b.build(0);
}

/// minver: matrix inversion — three phases with a shared pivot helper.
Program build_minver() {
  ProgramBuilder b("minver");
  const FunctionId pivot = b.add_function("mmul", b.code(instrs(14)));
  const StmtId phase1 =
      b.loop(instrs(1), 3,
             b.seq({b.code(instrs(15)),
                    b.loop(instrs(1), 3, b.seq({b.code(instrs(9)),
                                                b.call(pivot)}))}));
  const StmtId phase2 = b.loop(instrs(1), 9, b.code(instrs(17)));
  const StmtId phase3 =
      b.loop(instrs(1), 3, b.loop(instrs(1), 3, b.code(instrs(12))));
  b.add_function("main", with_runtime(b, 28, 12,
                                      b.seq({b.code(instrs(6)), phase1,
                                             phase2, phase3})));
  return b.build(1);
}

/// ns: 4-deep search nest with a tiny innermost test.
Program build_ns() {
  ProgramBuilder b("ns");
  const StmtId l4 = b.loop(instrs(1), 6,
                           b.seq({b.code(instrs(45)),
                                  b.if_then(instrs(1), b.code(instrs(12)))}));
  const StmtId l3 = b.loop(instrs(1), 4, b.seq({b.code(instrs(6)), l4}));
  const StmtId l2 = b.loop(instrs(1), 3, b.seq({b.code(instrs(5)), l3}));
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
                             b.code(instrs(3)),
                             b.loop(instrs(1), 3, l2),
                         })));
  return b.build(0);
}

/// statemate: generated state-machine code — branchy outer loop around a
/// small inner scan.
Program build_statemate() {
  ProgramBuilder b("statemate");
  const StmtId branchy = b.seq({
      b.if_else(instrs(1), b.code(instrs(10)), b.code(instrs(9))),
      b.if_else(instrs(1), b.code(instrs(8)), b.code(instrs(11))),
  });
  const StmtId inner = b.loop(instrs(1), 8, b.code(instrs(12)));
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
                     b.code(instrs(10)),
                     b.loop(instrs(1), 30, b.seq({branchy, inner,
                                                  b.code(instrs(6))})),
                     b.code(instrs(3)),
                 })));
  return b.build(0);
}

/// ud: LU-based linear-system solver (the paper's minimum SRB gain) —
/// mixed small and medium nests.
Program build_ud() {
  ProgramBuilder b("ud");
  const StmtId fact =
      b.loop(instrs(1), 5,
             b.seq({b.code(instrs(24)),
                    b.loop(instrs(1), 5, b.code(instrs(20)))}));
  b.add_function("main", with_runtime(b, 28, 12, b.seq({
                     b.code(instrs(4)),
                     b.loop(instrs(1), 5, b.seq({b.code(instrs(12)), fact,
                                                 b.code(instrs(8))})),
                     b.loop(instrs(1), 5, b.code(instrs(24))),  // substitution
                     b.code(instrs(2)),
                 })));
  return b.build(0);
}

// ---------------------------------------------------------------------------
// Extension kernels — not part of the 25-benchmark paper suite; campaign
// tasks for the data-cache study (§VI future work). Unlike the suite
// above, their blocks record *data* load addresses, which the combined
// I+D pipeline (analysis/dcache_domain.hpp) consumes.
// ---------------------------------------------------------------------------

/// Interpolation kernel: scalar state + a walked coefficient table.
Program build_interp() {
  ProgramBuilder b("interp");
  std::vector<Address> body_loads;
  for (Address i = 0; i < 6; ++i) body_loads.push_back(0x4000 + 4 * i);
  for (Address i = 0; i < 8; ++i) body_loads.push_back(0x5000 + 16 * i);
  b.add_function("main",
                 b.seq({
                     b.code_with_loads(40, {0x4000, 0x4010, 0x4020}),
                     b.loop(1, 48, b.code_with_loads(36, body_loads)),
                     b.code(12),
                 }));
  return b.build(0);
}

/// State machine with a dispatch table and per-state scalar loads.
Program build_dispatch() {
  ProgramBuilder b("dispatch");
  std::vector<Address> dispatch;
  for (Address i = 0; i < 12; ++i) dispatch.push_back(0x6000 + 8 * i);
  const StmtId body = b.seq({
      b.code_with_loads(10, dispatch),
      b.if_else(2, b.code_with_loads(18, {0x7000, 0x7004, 0x7010}),
                b.code_with_loads(22, {0x7040, 0x7044})),
  });
  b.add_function("main", b.seq({
                             b.code_with_loads(30, {0x7000}),
                             b.loop(1, 40, body),
                         }));
  return b.build(0);
}

/// Ring-buffer producer/consumer: the only extension kernel whose blocks
/// record *store* addresses, exercising the write-back data-cache and
/// TLB/L2 unified-stream paths (stores dirty lines; loads and stores both
/// take translations).
Program build_ringbuf() {
  ProgramBuilder b("ringbuf");
  std::vector<Address> slot_loads, slot_stores;
  for (Address i = 0; i < 8; ++i) {
    slot_loads.push_back(0x8000 + 16 * i);
    slot_stores.push_back(0x8100 + 16 * i);
  }
  const StmtId produce = b.code_with_accesses(
      14, {0x8200, 0x8204}, slot_stores);          // head index + slot write
  const StmtId consume = b.code_with_accesses(
      18, slot_loads, {0x8208, 0x820c});           // slot read + tail index
  b.add_function("main",
                 b.seq({
                     b.code_with_accesses(24, {0x8200}, {0x8200, 0x8204}),
                     b.loop(1, 32, b.seq({produce,
                                          b.if_else(2, consume,
                                                    b.code_with_loads(
                                                        8, {0x8210})),
                                          b.code(4)})),
                     b.code_with_accesses(6, {0x8208}, {0x8210}),
                 }));
  return b.build(0);
}

struct Entry {
  const char* name;
  Program (*builder)();
};

constexpr Entry kRegistry[] = {
    // Category 1 — spatial locality only.
    {"adpcm", &build_adpcm},
    {"compress", &build_compress},
    {"cover", &build_cover},
    {"nsichneu", &build_nsichneu},
    // Category 2 — MRU-position temporal locality.
    {"fibcall", &build_fibcall},
    {"bs", &build_bs},
    {"prime", &build_prime},
    {"expint", &build_expint},
    {"janne_complex", &build_janne_complex},
    {"insertsort", &build_insertsort},
    // Category 3 — temporal locality beyond the MRU position.
    {"crc", &build_crc},
    {"fir", &build_fir},
    {"edn", &build_edn},
    {"fdct", &build_fdct},
    {"jfdctint", &build_jfdctint},
    {"ndes", &build_ndes},
    {"bsort100", &build_bsort100},
    {"cnt", &build_cnt},
    // Category 4 — mixed.
    {"matmult", &build_matmult},
    {"fft", &build_fft},
    {"ludcmp", &build_ludcmp},
    {"minver", &build_minver},
    {"ns", &build_ns},
    {"statemate", &build_statemate},
    {"ud", &build_ud},
};

/// Kept separate from kRegistry so names() stays exactly the paper's
/// 25-benchmark suite (Fig. 4 iterates it; the paper-invariant tests
/// average over it).
constexpr Entry kExtensionRegistry[] = {
    {"interp", &build_interp},
    {"dispatch", &build_dispatch},
    {"ringbuf", &build_ringbuf},
};

}  // namespace

std::vector<std::string> names() {
  std::vector<std::string> out;
  for (const Entry& e : kRegistry) out.emplace_back(e.name);
  return out;
}

std::vector<std::string> extension_names() {
  std::vector<std::string> out;
  for (const Entry& e : kExtensionRegistry) out.emplace_back(e.name);
  return out;
}

std::vector<std::string> all_names() {
  std::vector<std::string> out = names();
  for (const Entry& e : kExtensionRegistry) out.emplace_back(e.name);
  return out;
}

Program build(const std::string& name) {
  for (const Entry& e : kRegistry)
    if (name == e.name) return e.builder();
  for (const Entry& e : kExtensionRegistry)
    if (name == e.name) return e.builder();
  PWCET_EXPECTS(false && "unknown workload name");
  return ProgramBuilder("unreachable").build(0);
}

}  // namespace pwcet::workloads
