//===- instr/CfgTransform.cpp - Sampling transform as CFG edits -----------===//

#include "instr/CfgTransform.h"

#include "telemetry/Counters.h"

#include <algorithm>

using namespace bor;
using namespace bor::cfg;

CfgSamplingTransform::CfgSamplingTransform(cfg::Module &M,
                                           const InstrumentationConfig &Config,
                                           uint64_t GlobalsBase)
    : M(M), Config(Config), GlobalsBase(GlobalsBase) {
  if (Config.Framework != SamplingFramework::CounterBased ||
      Config.CounterPlacement != CounterHome::Memory)
    return;
  assert(Config.Interval >= 1 && "sampling interval must be positive");
  CountAddr = M.allocData(8, 8);
  ResetAddr = M.allocData(8, 8);
  // Same static initialization as CounterGlobals: the check fires when the
  // loaded count is zero and the uncommon path reloads mReset before the
  // decrement, so Interval-1 / Interval gives exactly Interval executions
  // per period, including the first.
  M.initDataU64(CountAddr, Config.Interval - 1);
  M.initDataU64(ResetAddr, Config.Interval);
  M.nameData("cbs.count", CountAddr);
  M.nameData("cbs.reset", ResetAddr);
}

int32_t CfgSamplingTransform::countDisp() const {
  int64_t D =
      static_cast<int64_t>(CountAddr) - static_cast<int64_t>(GlobalsBase);
  assert(D >= -32768 && D <= 32767 && "counter outside displacement range");
  return static_cast<int32_t>(D);
}

int32_t CfgSamplingTransform::resetDisp() const {
  int64_t D =
      static_cast<int64_t>(ResetAddr) - static_cast<int64_t>(GlobalsBase);
  assert(D >= -32768 && D <= 32767 && "reset outside displacement range");
  return static_cast<int32_t>(D);
}

std::vector<Inst> CfgSamplingTransform::setupInsts() const {
  std::vector<Inst> Out;
  if (Config.Framework == SamplingFramework::CounterBased &&
      Config.CounterPlacement == CounterHome::Register)
    appendLoadConst(Out, RegCounter, Config.Interval - 1);
  return Out;
}

std::vector<Inst> CfgSamplingTransform::commonPathInsts() const {
  if (Config.CounterPlacement == CounterHome::Register)
    return {Inst::addi(RegCounter, RegCounter, -1)};
  return {Inst::addi(RegScratch, RegScratch, -1),
          Inst::st(RegScratch, RegGlobals, countDisp())};
}

std::vector<Inst> CfgSamplingTransform::uncommonPreludeInsts() const {
  if (Config.CounterPlacement == CounterHome::Register) {
    // The uncommon path falls through the common decrement, so materialize
    // Interval here (decremented to Interval-1 on the way out).
    std::vector<Inst> Out;
    appendLoadConst(Out, RegCounter, Config.Interval);
    return Out;
  }
  return {Inst::ld(RegScratch, RegGlobals, resetDisp())};
}

std::vector<Inst> CfgSamplingTransform::resetCounterInsts() const {
  if (Config.Framework != SamplingFramework::CounterBased)
    return {};
  // Same schedule as CounterGlobals::emitResetCounter: the clone bypasses
  // the common decrement, so the reset leaves Interval-1.
  if (Config.CounterPlacement == CounterHome::Register) {
    std::vector<Inst> Out;
    appendLoadConst(Out, RegCounter, Config.Interval - 1);
    return Out;
  }
  std::vector<Inst> Out = commonPathInsts();
  Out.insert(Out.begin(), Inst::ld(RegScratch, RegGlobals, resetDisp()));
  return Out;
}

void CfgSamplingTransform::recordCheck(BlockId Block) {
  uint32_t Offset = static_cast<uint32_t>(M.block(Block).Insts.size() - 1);
  Checks.emplace_back(Block, Offset);
  M.addCodeSymbol("instr.check." + std::to_string(Checks.size() - 1), Block,
                  Offset);
  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter ChecksC("cfg.transform.checks");
    ChecksC.add(1);
  }
}

void CfgSamplingTransform::instrumentSites(std::vector<CfgSite> Sites) {
  // Per block, process the highest offset first: every split moves the
  // suffix out, so the offsets of remaining (lower) sites in the block
  // stay valid.
  std::stable_sort(Sites.begin(), Sites.end(),
                   [](const CfgSite &A, const CfgSite &B) {
                     if (A.Block != B.Block)
                       return A.Block < B.Block;
                     return A.Offset > B.Offset;
                   });
  NumSites += static_cast<unsigned>(Sites.size());
  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter SitesC("cfg.transform.sites");
    SitesC.add(Sites.size());
  }

  for (const CfgSite &S : Sites) {
    switch (Config.Framework) {
    case SamplingFramework::None:
      continue;

    case SamplingFramework::Full:
      if (Config.IncludeBody)
        M.insertInsts(S.Block, S.Offset, S.Body);
      continue;

    case SamplingFramework::CounterBased:
    case SamplingFramework::BrrBased:
      break;
    }

    assert(Config.Dup == DuplicationMode::NoDuplication &&
           "use duplicateRegion() for Full-Duplication");
    bool Cbs = Config.Framework == SamplingFramework::CounterBased;

    BlockId Cont = M.splitBlock(S.Block, S.Offset);
    // splitBlock remapped code symbols past the split point; earlier
    // checks recorded in this block move the same way.
    for (auto &C : Checks)
      if (C.first == S.Block && C.second >= S.Offset) {
        C.first = Cont;
        C.second -= S.Offset;
      }

    // Out-of-line sample block at the layout end (the Figure 8 placement):
    // counter reload (cbs only), the body, and a jump back.
    BlockId U = M.addBlock();
    M.appendToLayout(U);
    {
      BasicBlock &UB = M.block(U);
      if (Cbs)
        UB.Insts = uncommonPreludeInsts();
      if (Config.IncludeBody)
        UB.Insts.insert(UB.Insts.end(), S.Body.begin(), S.Body.end());
      UB.Insts.push_back(Inst::jmp(0));
      UB.setSucc(EdgeKind::Taken, Cont);
    }

    // The check becomes the site block's terminator; the split already
    // gave it a Fall edge to the continuation.
    BasicBlock &B = M.block(S.Block);
    if (Cbs) {
      if (Config.CounterPlacement == CounterHome::Memory)
        B.Insts.push_back(Inst::ld(RegScratch, RegGlobals, countDisp()));
      uint8_t CheckReg = Config.CounterPlacement == CounterHome::Memory
                             ? static_cast<uint8_t>(RegScratch)
                             : static_cast<uint8_t>(RegCounter);
      B.Insts.push_back(Inst::branch(Opcode::Beq, CheckReg, RegZero, 0));
      B.setSucc(EdgeKind::Taken, U);
      // Common path: decrement/store at the continuation's head, shared by
      // the fall-through and the sample path's jump back.
      M.insertInsts(Cont, 0, commonPathInsts());
    } else {
      B.Insts.push_back(
          Inst::brr(FreqCode::forInterval(Config.Interval), 0));
      B.setSucc(EdgeKind::BrrTaken, U);
    }
    recordCheck(S.Block);

    if (telemetry::CounterRegistry::enabled()) {
      static const telemetry::Counter Uncommon("cfg.transform.uncommon_blocks");
      Uncommon.add(1);
    }
  }
}

void CfgSamplingTransform::duplicateRegion(
    const std::vector<cfg::BlockId> &Region, std::vector<CfgSite> Sites) {
  assert(Config.Dup == DuplicationMode::FullDuplication &&
         "duplicateRegion() only exists in Full-Duplication mode");
  assert(!Region.empty() && "region needs at least its head block");
  NumSites += static_cast<unsigned>(Sites.size());
  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter SitesC("cfg.transform.sites");
    SitesC.add(Sites.size());
  }
  // No check is emitted for the None/Full frameworks (mirroring
  // emitDuplicationCheck), so the instrumented copy would be unreachable —
  // skip creating it.
  if (Config.Framework == SamplingFramework::None ||
      Config.Framework == SamplingFramework::Full)
    return;
  bool Cbs = Config.Framework == SamplingFramework::CounterBased;
  BlockId Entry = Region.front();

  // Clone the region subgraph out of line: internal edges go to clone
  // counterparts, exits rejoin the original continuation blocks.
  std::vector<std::pair<BlockId, BlockId>> CloneOf;
  for (BlockId R : Region) {
    BlockId N = M.addBlock();
    M.appendToLayout(N);
    CloneOf.emplace_back(R, N);
  }
  auto cloneFor = [&](BlockId R) {
    for (const auto &[Orig, N] : CloneOf)
      if (Orig == R)
        return N;
    return NoBlock;
  };
  for (const auto &[Orig, N] : CloneOf) {
    BasicBlock &NB = M.block(N);
    const BasicBlock &OB = M.block(Orig);
    NB.Insts = OB.Insts;
    NB.Succs = OB.Succs;
    for (Edge &E : NB.Succs) {
      // Back edges to the region head leave the clone and re-enter
      // through the check, so a sample instruments exactly one region
      // iteration (the Arnold–Ryder back-edge check placement).
      if (E.Dst == Entry)
        continue;
      if (BlockId Mapped = cloneFor(E.Dst); Mapped != NoBlock)
        E.Dst = Mapped;
    }
  }
  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter Cloned("cfg.transform.cloned_blocks");
    Cloned.add(Region.size());
  }

  // Instrumentation runs unconditionally inside the clone. Descending
  // offsets per block keep earlier insertions from shifting later ones.
  if (Config.IncludeBody) {
    std::stable_sort(Sites.begin(), Sites.end(),
                     [](const CfgSite &A, const CfgSite &B) {
                       if (A.Block != B.Block)
                         return A.Block < B.Block;
                       return A.Offset > B.Offset;
                     });
    for (const CfgSite &S : Sites) {
      BlockId N = cloneFor(S.Block);
      assert(N != NoBlock && "site outside the duplicated region");
      M.insertInsts(N, S.Offset, S.Body);
    }
  }

  // Clone-entry prologue: reset the counter so a full sampling period
  // elapses before the next sample (empty for brr — no state to reset).
  M.insertInsts(cloneFor(Entry), 0, resetCounterInsts());

  // The check at the region head chooses the copy. Splitting at offset 0
  // keeps the head's BlockId (and every edge into it, including region
  // back edges, which therefore re-run the check).
  BlockId Cont = M.splitBlock(Entry, 0);
  for (auto &C : Checks)
    if (C.first == Entry) {
      C.first = Cont;
    }
  BasicBlock &B = M.block(Entry);
  if (Cbs) {
    if (Config.CounterPlacement == CounterHome::Memory)
      B.Insts.push_back(Inst::ld(RegScratch, RegGlobals, countDisp()));
    uint8_t CheckReg = Config.CounterPlacement == CounterHome::Memory
                           ? static_cast<uint8_t>(RegScratch)
                           : static_cast<uint8_t>(RegCounter);
    B.Insts.push_back(Inst::branch(Opcode::Beq, CheckReg, RegZero, 0));
    B.setSucc(EdgeKind::Taken, cloneFor(Entry));
    M.insertInsts(Cont, 0, commonPathInsts());
  } else {
    B.Insts.push_back(Inst::brr(FreqCode::forInterval(Config.Interval), 0));
    B.setSucc(EdgeKind::BrrTaken, cloneFor(Entry));
  }
  recordCheck(Entry);
}
