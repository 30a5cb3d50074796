//===- tests/test_instr_cfg.cpp - CFG-path transform equivalence ----------===//
//
// Differential tests between the two sampling-transform implementations:
// the streaming SamplingFrameworkEmitter (instr/Transform.h) and the
// CFG-edit CfgSamplingTransform (instr/CfgTransform.h). Both build the
// same baseline workload; the CFG path lifts it with finishModule(),
// applies the framework as block/edge edits, and relinearizes. Profile
// counts and program results must match exactly — layout may differ (jump
// placement flips between the paths), semantics may not.
//
//===----------------------------------------------------------------------===//

#include "instr/CfgTransform.h"

#include "instr/Sites.h"
#include "instr/Transform.h"
#include "isa/Encoding.h"
#include "sim/Interpreter.h"

#include <gtest/gtest.h>

using namespace bor;

namespace {

/// Emitter-path reference: a counted loop visiting \p SitesPerIter
/// instrumented sites per iteration (each increments profile counter 0 and
/// is followed by one instruction of real work on r4).
struct EmitterLoop {
  Program Prog;
  uint64_t CounterAddr;

  EmitterLoop(const InstrumentationConfig &Config, uint64_t Iters,
              unsigned SitesPerIter = 1) {
    ProgramBuilder B;
    ProfileTable Table(B, "counters", 1);
    SamplingFrameworkEmitter Emitter(B, Config, DefaultDataBase);
    CounterAddr = Table.counterAddr(0);

    B.emitLoadConst(RegGlobals, DefaultDataBase);
    B.emitLoadConst(RegProfBase, Table.baseAddr());
    Emitter.emitSetup();
    B.emitLoadConst(2, Iters);
    auto Loop = B.label();
    B.bind(Loop);
    auto Body = [&Table](ProgramBuilder &PB) {
      Table.emitIncrement(PB, 0, RegProfBase, Table.baseAddr(), 14);
    };
    if (Config.Dup == DuplicationMode::FullDuplication) {
      auto Dup = B.label();
      auto Done = B.label();
      Emitter.emitDuplicationCheck(Dup);
      B.emit(Inst::add(4, 4, 2)); // clean copy
      B.emitJmp(Done);
      B.bind(Dup);
      Emitter.emitDupPrologue();
      Emitter.emitUnconditionalSite(Body);
      B.emit(Inst::add(4, 4, 2)); // instrumented copy
      B.bind(Done);
    } else {
      for (unsigned S = 0; S != SitesPerIter; ++S) {
        Emitter.emitSite(Body);
        B.emit(Inst::add(4, 4, 2));
      }
    }
    B.emit(Inst::addi(2, 2, -1));
    B.emitBranch(Opcode::Bne, 2, 0, Loop);
    B.emit(Inst::halt());
    Emitter.flushOutOfLine();
    Prog = B.finish();
  }
};

/// CFG-path twin: the identical baseline, but the framework is applied to
/// the lifted cfg::Module and the program re-emitted from the layout.
struct CfgLoop {
  Program Prog;
  uint64_t CounterAddr;
  std::vector<std::pair<cfg::BlockId, uint32_t>> Checks;

  CfgLoop(const InstrumentationConfig &Config, uint64_t Iters,
          unsigned SitesPerIter = 1) {
    ProgramBuilder B;
    ProfileTable Table(B, "counters", 1);
    CounterAddr = Table.counterAddr(0);

    B.emitLoadConst(RegGlobals, DefaultDataBase);
    B.emitLoadConst(RegProfBase, Table.baseAddr());
    size_t SetupPos = B.here();
    B.emitLoadConst(2, Iters);
    auto Loop = B.label();
    B.bind(Loop);
    std::vector<size_t> SitePositions;
    for (unsigned S = 0; S != SitesPerIter; ++S) {
      SitePositions.push_back(B.here());
      B.emit(Inst::add(4, 4, 2));
    }
    size_t RegionEnd = B.here(); // full-dup region = the loop body adds
    B.emit(Inst::addi(2, 2, -1));
    B.emitBranch(Opcode::Bne, 2, 0, Loop);
    B.emit(Inst::halt());

    cfg::Module M = B.finishModule();
    CfgSamplingTransform T(M, Config, DefaultDataBase);

    std::vector<Inst> Setup = T.setupInsts();
    if (!Setup.empty()) {
      cfg::BlockId Blk = M.blockForIndex(SetupPos);
      M.insertInsts(Blk,
                    static_cast<uint32_t>(SetupPos - M.block(Blk).OrigIndex),
                    Setup);
    }

    std::vector<Inst> Body;
    Table.appendIncrement(Body, 0, RegProfBase, Table.baseAddr(), 14);

    if (Config.Dup == DuplicationMode::FullDuplication) {
      // Region = the loop body (the add), split out of the loop block so
      // the decrement/back-branch stays shared outside the copies.
      cfg::BlockId Head = M.blockForIndex(SitePositions.front());
      uint32_t SplitAt =
          static_cast<uint32_t>(RegionEnd - M.block(Head).OrigIndex);
      M.splitBlock(Head, SplitAt);
      T.duplicateRegion({Head}, {{Head, 0, Body}});
    } else {
      std::vector<CfgSite> Sites;
      for (size_t Pos : SitePositions) {
        cfg::BlockId Blk = M.blockForIndex(Pos);
        Sites.push_back(
            {Blk, static_cast<uint32_t>(Pos - M.block(Blk).OrigIndex),
             Body});
      }
      T.instrumentSites(std::move(Sites));
    }
    Checks = T.checkBranches();
    Prog = cfg::emitProgram(M);
  }
};

/// Runs either program and returns (profile counter, r4 work accumulator).
template <typename L>
std::pair<uint64_t, uint64_t> runLoop(L &Loop, BrrDecider &D,
                                      uint64_t Iters) {
  Machine M;
  Interpreter I(Loop.Prog, M, D);
  I.run(200 * Iters + 1000);
  return {M.memory().readU64(Loop.CounterAddr), M.readReg(4)};
}

std::vector<InstrumentationConfig> allConfigs() {
  std::vector<InstrumentationConfig> Configs;
  Configs.push_back({}); // baseline
  {
    InstrumentationConfig C;
    C.Framework = SamplingFramework::Full;
    Configs.push_back(C);
  }
  for (SamplingFramework F :
       {SamplingFramework::CounterBased, SamplingFramework::BrrBased}) {
    InstrumentationConfig C;
    C.Framework = F;
    C.Interval = 64;
    Configs.push_back(C);
    C.Dup = DuplicationMode::FullDuplication;
    Configs.push_back(C);
    C.Dup = DuplicationMode::NoDuplication;
    C.IncludeBody = false;
    Configs.push_back(C);
  }
  {
    InstrumentationConfig C;
    C.Framework = SamplingFramework::CounterBased;
    C.CounterPlacement = CounterHome::Register;
    C.Interval = 64;
    Configs.push_back(C);
    C.Dup = DuplicationMode::FullDuplication;
    Configs.push_back(C);
  }
  return Configs;
}

} // namespace

TEST(CfgTransform, MatchesEmitterPathAcrossAllConfigs) {
  const uint64_t Iters = 2048;
  for (const InstrumentationConfig &C : allConfigs()) {
    EmitterLoop E(C, Iters);
    CfgLoop G(C, Iters);
    // Both paths execute the same dynamic brr sequence, so identical
    // deciders give identical sampling decisions.
    BrrUnitDecider D1, D2;
    auto [EmitCount, EmitWork] = runLoop(E, D1, Iters);
    auto [CfgCount, CfgWork] = runLoop(G, D2, Iters);
    EXPECT_EQ(CfgCount, EmitCount) << describeConfig(C);
    EXPECT_EQ(CfgWork, EmitWork) << describeConfig(C);
  }
}

TEST(CfgTransform, MultipleSitesInOneBlockMatchEmitter) {
  // Exercises the descending-offset split discipline: three sites land in
  // the same source basic block.
  const uint64_t Iters = 1024;
  for (SamplingFramework F :
       {SamplingFramework::Full, SamplingFramework::CounterBased,
        SamplingFramework::BrrBased}) {
    InstrumentationConfig C;
    C.Framework = F;
    C.Interval = 16;
    EmitterLoop E(C, Iters, /*SitesPerIter=*/3);
    CfgLoop G(C, Iters, /*SitesPerIter=*/3);
    BrrUnitDecider D1, D2;
    auto [EmitCount, EmitWork] = runLoop(E, D1, Iters);
    auto [CfgCount, CfgWork] = runLoop(G, D2, Iters);
    EXPECT_EQ(CfgCount, EmitCount) << describeConfig(C);
    EXPECT_EQ(CfgWork, EmitWork) << describeConfig(C);
  }
}

TEST(CfgTransform, CounterScheduleIsExact) {
  for (uint64_t Interval : {4ull, 64ull, 256ull}) {
    InstrumentationConfig C;
    C.Framework = SamplingFramework::CounterBased;
    C.Interval = Interval;
    const uint64_t Iters = Interval * 10;
    CfgLoop G(C, Iters);
    NeverTakenDecider D;
    EXPECT_EQ(runLoop(G, D, Iters).first, 10u) << "interval " << Interval;
  }
}

TEST(CfgTransform, FullDuplicationCounterScheduleIsExact) {
  for (CounterHome Home : {CounterHome::Memory, CounterHome::Register})
    for (uint64_t Interval : {4ull, 32ull, 256ull}) {
      InstrumentationConfig C;
      C.Framework = SamplingFramework::CounterBased;
      C.CounterPlacement = Home;
      C.Dup = DuplicationMode::FullDuplication;
      C.Interval = Interval;
      const uint64_t Iters = Interval * 10;
      CfgLoop G(C, Iters);
      NeverTakenDecider D;
      EXPECT_EQ(runLoop(G, D, Iters).first, 10u) << describeConfig(C);
    }
}

TEST(CfgTransform, CheckSymbolsNameTheCheckInstructions) {
  const uint64_t Iters = 16;
  for (SamplingFramework F :
       {SamplingFramework::CounterBased, SamplingFramework::BrrBased}) {
    InstrumentationConfig C;
    C.Framework = F;
    C.Interval = 16;
    CfgLoop G(C, Iters);
    ASSERT_EQ(G.Checks.size(), 1u);
    ASSERT_TRUE(G.Prog.hasSymbol("instr.check.0"));
    uint64_t Pc = G.Prog.symbol("instr.check.0");
    const Inst &I = G.Prog.at(G.Prog.indexForPc(Pc));
    if (F == SamplingFramework::CounterBased)
      EXPECT_EQ(I.Op, Opcode::Beq);
    else
      EXPECT_EQ(I.Op, Opcode::Brr);
  }
}

TEST(CfgTransform, FrameworkOnlyCollectsNoSamples) {
  InstrumentationConfig C;
  C.Framework = SamplingFramework::CounterBased;
  C.Interval = 8;
  C.IncludeBody = false;
  CfgLoop G(C, 800);
  NeverTakenDecider D;
  EXPECT_EQ(runLoop(G, D, 800).first, 0u);
}

TEST(CfgTransform, RoundTripSurvivesInstrumentation) {
  // The instrumented module's emitted program must itself round-trip
  // through build/emit byte-identically: the transform produces a
  // well-formed, already-linear CFG.
  InstrumentationConfig C;
  C.Framework = SamplingFramework::BrrBased;
  C.Interval = 32;
  CfgLoop G(C, 64);
  cfg::Module M = cfg::buildModule(G.Prog);
  Program P2 = cfg::emitProgram(M);
  ASSERT_EQ(P2.numInsts(), G.Prog.numInsts());
  for (size_t I = 0; I != P2.numInsts(); ++I)
    EXPECT_EQ(encode(P2.at(I)), encode(G.Prog.at(I))) << "index " << I;
}
