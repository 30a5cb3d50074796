//===- tests/test_pipeline_golden.cpp - Pinned timing-model results -------===//
//
// Pins every PipelineStats field of the Section 5.3 microbenchmark and of
// the five kernels, so a change meant only to make the Pipeline faster
// cannot move a modelled number unnoticed. A change that is meant to move
// them says why and re-pins from the new output.
//
//===----------------------------------------------------------------------===//

#include "uarch/Pipeline.h"
#include "workloads/Kernels.h"
#include "workloads/Microbench.h"

#include <gtest/gtest.h>

#include <string>

using namespace bor;

namespace {

/// Every field of \p S, one line.
std::string pinned(const PipelineStats &S) {
  return "cycles=" + std::to_string(S.Cycles) +
         " insts=" + std::to_string(S.Insts) +
         " cond=" + std::to_string(S.CondBranches) + "/" +
         std::to_string(S.CondMispredicts) +
         " indirect=" + std::to_string(S.IndirectBranches) + "/" +
         std::to_string(S.IndirectMispredicts) +
         " jumps=" + std::to_string(S.DirectJumps) + "/" +
         std::to_string(S.DirectJumpDecodeRedirects) +
         " brr=" + std::to_string(S.BrrExecuted) + "/" +
         std::to_string(S.BrrTaken) +
         " icache=" + std::to_string(S.FetchIcacheStallCycles) +
         " backend=" + std::to_string(S.BackendFlushCycles) +
         " frontend=" + std::to_string(S.FrontendFlushCycles) +
         " fullwidth=" + std::to_string(S.FullWidthFetchCycles);
}

PipelineStats runCold(const Program &P) {
  Pipeline Pipe(P, PipelineConfig());
  return Pipe.run(1ULL << 32).Stats;
}

struct MicroArm {
  SamplingFramework F;
  DuplicationMode Dup;
  uint64_t Interval;
  const char *Expected;
};

} // namespace

TEST(PipelineGolden, MicrobenchStatsArePinned) {
  constexpr SamplingFramework Cbs = SamplingFramework::CounterBased;
  constexpr SamplingFramework Brr = SamplingFramework::BrrBased;
  constexpr DuplicationMode NoDup = DuplicationMode::NoDuplication;
  constexpr DuplicationMode FullDup = DuplicationMode::FullDuplication;
  const MicroArm Arms[] = {
      {SamplingFramework::None, NoDup, 1024,
       "cycles=185434 insts=249221 cond=81978/4713 indirect=0/0 jumps=7217/3 "
       "brr=0/0 icache=420 backend=93037 frontend=15 fullwidth=72540"},
      {Cbs, NoDup, 16,
       "cycles=394912 insts=507972 cond=141978/8508 indirect=0/0 "
       "jumps=10967/8 brr=0/0 icache=840 backend=212943 frontend=40 "
       "fullwidth=152756"},
      {Cbs, FullDup, 16,
       "cycles=239649 insts=341721 cond=101978/6033 indirect=0/0 "
       "jumps=7216/4 brr=0/0 icache=840 backend=108010 frontend=20 "
       "fullwidth=96293"},
      {Brr, NoDup, 16,
       "cycles=224987 insts=324053 cond=81978/4691 indirect=0/0 "
       "jumps=10925/8 brr=60000/3708 icache=700 backend=85116 frontend=18580 "
       "fullwidth=94980"},
      {Brr, FullDup, 16,
       "cycles=205932 insts=280543 cond=81978/4745 indirect=0/0 jumps=7217/5 "
       "brr=20000/1258 icache=700 backend=88070 frontend=6315 "
       "fullwidth=76320"},
      {Cbs, NoDup, 1024,
       "cycles=323558 insts=489512 cond=141978/4838 indirect=0/0 "
       "jumps=7275/8 brr=0/0 icache=840 backend=147296 frontend=40 "
       "fullwidth=152535"},
      {Brr, FullDup, 1024,
       "cycles=196452 insts=269383 cond=81978/4700 indirect=0/0 jumps=7217/5 "
       "brr=20000/18 icache=700 backend=87476 frontend=115 fullwidth=72592"},
  };
  for (const MicroArm &A : Arms) {
    MicrobenchConfig C;
    C.Text.NumChars = 20000;
    C.Instr.Framework = A.F;
    C.Instr.Dup = A.Dup;
    C.Instr.Interval = A.Interval;
    EXPECT_EQ(pinned(runCold(buildMicrobench(C).Prog)), A.Expected)
        << frameworkName(A.F) << " " << static_cast<int>(A.Dup) << " "
        << A.Interval;
  }
}

TEST(PipelineGolden, KernelStatsArePinned) {
  // crc32, sort, strsearch, matmul, listsum at their default sizes.
  const char *Plain[] = {
      "cycles=736120 insts=383881 cond=108000/47842 indirect=0/0 jumps=0/0 "
      "brr=0/0 icache=560 backend=632788 frontend=0 fullwidth=111686",
      "cycles=94111 insts=247717 cond=82031/410 indirect=0/0 jumps=40221/1 "
      "brr=0/0 icache=420 backend=11245 frontend=5 fullwidth=82434",
      "cycles=56736 insts=97996 cond=24567/301 indirect=0/0 jumps=0/0 "
      "brr=0/0 icache=280 backend=19893 frontend=0 fullwidth=24288",
      "cycles=34470 insts=68100 cond=8420/425 indirect=0/0 jumps=0/0 brr=0/0 "
      "icache=420 backend=8841 frontend=0 fullwidth=17227",
      "cycles=21087 insts=16010 cond=4000/3 indirect=0/0 jumps=0/0 brr=0/0 "
      "icache=140 backend=12939 frontend=0 fullwidth=4003",
  };
  // The same kernels under brr No-Duplication at interval 1024.
  const char *Brr[] = {
      "cycles=737053 insts=395941 cond=108000/47810 indirect=0/0 jumps=15/1 "
      "brr=12000/15 icache=560 backend=632361 frontend=80 fullwidth=115981",
      "cycles=130888 insts=288505 cond=82031/410 indirect=0/0 jumps=40263/3 "
      "brr=40620/42 icache=420 backend=7535 frontend=225 fullwidth=82438",
      "cycles=56859 insts=110052 cond=24567/301 indirect=0/0 jumps=15/1 "
      "brr=11996/15 icache=420 backend=19766 frontend=80 fullwidth=36282",
      "cycles=34482 insts=68504 cond=8420/425 indirect=0/0 jumps=1/1 "
      "brr=400/1 icache=420 backend=8842 frontend=10 fullwidth=17626",
      "cycles=21099 insts=20034 cond=4000/3 indirect=0/0 jumps=6/1 "
      "brr=4000/6 icache=280 backend=12766 frontend=35 fullwidth=4010",
  };
  InstrumentationConfig None;
  InstrumentationConfig BrrNoDup;
  BrrNoDup.Framework = SamplingFramework::BrrBased;
  std::vector<KernelProgram> PlainSuite = buildKernelSuite(None);
  std::vector<KernelProgram> BrrSuite = buildKernelSuite(BrrNoDup);
  ASSERT_EQ(PlainSuite.size(), 5u);
  ASSERT_EQ(BrrSuite.size(), 5u);
  for (size_t K = 0; K != 5; ++K) {
    EXPECT_EQ(pinned(runCold(PlainSuite[K].Prog)), Plain[K])
        << PlainSuite[K].Name;
    EXPECT_EQ(pinned(runCold(BrrSuite[K].Prog)), Brr[K]) << BrrSuite[K].Name;
  }
}
