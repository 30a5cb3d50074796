//===- uarch/Pipeline.cpp - Out-of-order timing model ---------------------===//

#include "uarch/Pipeline.h"

#include "telemetry/Counters.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

using namespace bor;

namespace {

/// Placement ran past the issue ring: two live cycles would share a slot.
/// Checked in every build type, NDEBUG or not.
[[noreturn]] void issueRingOverrun(uint64_t Cycle, uint64_t Floor,
                                   uint64_t Slots) {
  std::fprintf(stderr,
               "Pipeline: issue placement at cycle %" PRIu64
               " is %" PRIu64 " cycles past its floor %" PRIu64
               "; the issue ring holds %" PRIu64 "\n",
               Cycle, Cycle - Floor, Floor, Slots);
  std::abort();
}

} // namespace

size_t Pipeline::issueRingSlots(const PipelineConfig &Config) {
  assert(Config.IssueWidth != 0 &&
         Config.IssueWidth < (1u << IssueCountBits) &&
         "issue width must fit a ring slot's count field");
  const MemHierConfig &M = Config.MemHier;
  uint64_t Longest =
      std::max<uint64_t>(uint64_t(M.L1DHitCycles) + M.L2HitCycles +
                             M.MemCycles + Config.StoreForwardDelay,
                         Config.MulLatency);
  uint64_t Span = uint64_t(Config.RobEntries) * Longest +
                  Config.RobEntries / Config.IssueWidth;
  return std::bit_ceil(Span);
}

Pipeline::ForwardTable::ForwardTable(size_t Capacity) {
  resize(std::bit_ceil(std::max<size_t>(Capacity, 4)));
}

void Pipeline::ForwardTable::resize(size_t Capacity) {
  Slots.assign(Capacity, Entry());
  Mask = Capacity - 1;
  Shift = 64 - std::countr_zero(Capacity);
}

void Pipeline::ForwardTable::insert(uint64_t Word, uint64_t Fwd,
                                    uint64_t Horizon) {
  size_t I = slotOf(Word);
  for (; Slots[I].Fwd != 0; I = (I + 1) & Mask) {
    if (Slots[I].Word == Word) {
      Slots[I].Fwd = Fwd; // the youngest store to a word wins
      return;
    }
  }
  Slots[I] = {Word, Fwd};
  if (++Used * 2 > Slots.size())
    prune(Horizon);
}

void Pipeline::ForwardTable::prune(uint64_t Horizon) {
  size_t Live = 0;
  for (const Entry &E : Slots)
    Live += E.Fwd > Horizon;
  size_t Capacity = Slots.size();
  while (Live * 4 > Capacity)
    Capacity *= 2;
  std::vector<Entry> Old = std::move(Slots);
  resize(Capacity);
  Used = Live;
  for (const Entry &E : Old) {
    if (E.Fwd <= Horizon)
      continue;
    size_t I = slotOf(E.Word);
    while (Slots[I].Fwd != 0)
      I = (I + 1) & Mask;
    Slots[I] = E;
  }
}

void bor::publishUarchCounters(const MicroarchState &Uarch) {
  if (!telemetry::CounterRegistry::enabled())
    return;
  static const telemetry::Counter L1IAcc("cache.l1i.accesses");
  static const telemetry::Counter L1IMiss("cache.l1i.misses");
  static const telemetry::Counter L1DAcc("cache.l1d.accesses");
  static const telemetry::Counter L1DMiss("cache.l1d.misses");
  static const telemetry::Counter L2Acc("cache.l2.accesses");
  static const telemetry::Counter L2Miss("cache.l2.misses");
  static const telemetry::Counter Preds("predictor.predictions");
  static const telemetry::Counter Mispreds("predictor.mispredictions");
  static const telemetry::Counter BtbLookups("btb.lookups");
  static const telemetry::Counter BtbHits("btb.hits");
  static const telemetry::Counter BtbInserts("btb.inserts");
  static const telemetry::Counter RasPushes("ras.pushes");
  static const telemetry::Counter RasPops("ras.pops");
  static const telemetry::Counter RasUnderflows("ras.underflows");
  L1IAcc.add(Uarch.MemHier.l1i().stats().Accesses);
  L1IMiss.add(Uarch.MemHier.l1i().stats().Misses);
  L1DAcc.add(Uarch.MemHier.l1d().stats().Accesses);
  L1DMiss.add(Uarch.MemHier.l1d().stats().Misses);
  L2Acc.add(Uarch.MemHier.l2().stats().Accesses);
  L2Miss.add(Uarch.MemHier.l2().stats().Misses);
  Preds.add(Uarch.Predictor.stats().Predictions);
  Mispreds.add(Uarch.Predictor.stats().Mispredictions);
  BtbLookups.add(Uarch.TargetBuffer.stats().Lookups);
  BtbHits.add(Uarch.TargetBuffer.stats().Hits);
  BtbInserts.add(Uarch.TargetBuffer.stats().Inserts);
  RasPushes.add(Uarch.Ras.stats().Pushes);
  RasPops.add(Uarch.Ras.stats().Pops);
  RasUnderflows.add(Uarch.Ras.stats().Underflows);
}

std::string bor::describeStats(const PipelineStats &S) {
  char Buf[1024];
  std::snprintf(
      Buf, sizeof(Buf),
      "cycles              %" PRIu64 "\n"
      "instructions        %" PRIu64 " (IPC %.2f)\n"
      "cond branches       %" PRIu64 " (%" PRIu64 " mispredicted)\n"
      "indirect branches   %" PRIu64 " (%" PRIu64 " mispredicted)\n"
      "direct jumps        %" PRIu64 " (%" PRIu64 " decode redirects)\n"
      "brr executed        %" PRIu64 " (%" PRIu64 " taken)\n"
      "fetch stalls        icache %" PRIu64 ", backend flush %" PRIu64
      ", frontend flush %" PRIu64 "\n",
      S.Cycles, S.Insts, S.ipc(), S.CondBranches, S.CondMispredicts,
      S.IndirectBranches, S.IndirectMispredicts, S.DirectJumps,
      S.DirectJumpDecodeRedirects, S.BrrExecuted, S.BrrTaken,
      S.FetchIcacheStallCycles, S.BackendFlushCycles,
      S.FrontendFlushCycles);
  return Buf;
}

Pipeline::Pipeline(const DecodedProgram &DP, const PipelineConfig &Config,
                   BrrDecider *Decider)
    : Config(Config), Dec(DP), OwnedMach(std::make_unique<Machine>()),
      OwnedUarch(std::make_unique<MicroarchState>(Config)),
      Mach(*OwnedMach), Uarch(*OwnedUarch),
      OwnedDecider(Decider ? nullptr
                           : std::make_unique<BrrUnitDecider>(Config.Brr)),
      Oracle(DP, Mach, Decider ? *Decider : *OwnedDecider),
      Policy(this->Uarch, this->Config), DecodeStage(Config.DecodeWidth),
      DispatchStage(Config.DecodeWidth), CommitStage(Config.CommitWidth),
      RobSlotFree(Config.RobEntries, 0) {
  RegReady.fill(0); // the Oracle's constructor loads the program image
}

Pipeline::Pipeline(const Program &P, const PipelineConfig &Config,
                   BrrDecider *Decider)
    : Config(Config), OwnedDec(std::make_unique<DecodedProgram>(P)),
      Dec(*OwnedDec), OwnedMach(std::make_unique<Machine>()),
      OwnedUarch(std::make_unique<MicroarchState>(Config)),
      Mach(*OwnedMach), Uarch(*OwnedUarch),
      OwnedDecider(Decider ? nullptr
                           : std::make_unique<BrrUnitDecider>(Config.Brr)),
      Oracle(Dec, Mach, Decider ? *Decider : *OwnedDecider),
      Policy(this->Uarch, this->Config), DecodeStage(Config.DecodeWidth),
      DispatchStage(Config.DecodeWidth), CommitStage(Config.CommitWidth),
      RobSlotFree(Config.RobEntries, 0) {
  RegReady.fill(0); // the Oracle's constructor loads the program image
}

Pipeline::Pipeline(const DecodedProgram &DP, Machine &M,
                   MicroarchState &Uarch, const PipelineConfig &Config,
                   BrrDecider &Decider)
    : Config(Config), Dec(DP), Mach(M), Uarch(Uarch),
      Oracle(DP, Mach, Decider, /*LoadImage=*/false),
      Policy(this->Uarch, this->Config), DecodeStage(Config.DecodeWidth),
      DispatchStage(Config.DecodeWidth), CommitStage(Config.CommitWidth),
      RobSlotFree(Config.RobEntries, 0) {
  RegReady.fill(0);
}

Pipeline::Pipeline(const Program &P, Machine &M, MicroarchState &Uarch,
                   const PipelineConfig &Config, BrrDecider &Decider)
    : Config(Config), OwnedDec(std::make_unique<DecodedProgram>(P)),
      Dec(*OwnedDec), Mach(M), Uarch(Uarch),
      Oracle(Dec, Mach, Decider, /*LoadImage=*/false),
      Policy(this->Uarch, this->Config), DecodeStage(Config.DecodeWidth),
      DispatchStage(Config.DecodeWidth), CommitStage(Config.CommitWidth),
      RobSlotFree(Config.RobEntries, 0) {
  RegReady.fill(0);
}

Pipeline::~Pipeline() {
  if (!telemetry::CounterRegistry::enabled())
    return;
  static const telemetry::Counter Runs("pipeline.runs");
  static const telemetry::Counter Cycles("pipeline.cycles");
  static const telemetry::Counter Insts("pipeline.insts");
  static const telemetry::Counter CondBranches("pipeline.cond_branches");
  static const telemetry::Counter CondMisp("pipeline.cond_mispredicts");
  static const telemetry::Counter Indirect("pipeline.indirect_branches");
  static const telemetry::Counter IndirectMisp(
      "pipeline.indirect_mispredicts");
  static const telemetry::Counter DirectJumps("pipeline.direct_jumps");
  static const telemetry::Counter DirectRedirects(
      "pipeline.direct_jump_decode_redirects");
  static const telemetry::Counter BrrExecuted("pipeline.brr.executed");
  static const telemetry::Counter BrrTaken("pipeline.brr.taken");
  static const telemetry::Counter IcacheStalls(
      "pipeline.fetch.icache_stall_cycles");
  static const telemetry::Counter BackendFlush(
      "pipeline.fetch.backend_flush_cycles");
  static const telemetry::Counter FrontendFlush(
      "pipeline.fetch.frontend_flush_cycles");
  static const telemetry::Counter FullWidth(
      "pipeline.fetch.full_width_cycles");
  static const telemetry::HistogramCounter RunInsts("pipeline.run.insts");
  static const telemetry::HistogramCounter RunCycles("pipeline.run.cycles");
  Runs.add();
  Cycles.add(Stats.Cycles);
  Insts.add(Stats.Insts);
  CondBranches.add(Stats.CondBranches);
  CondMisp.add(Stats.CondMispredicts);
  Indirect.add(Stats.IndirectBranches);
  IndirectMisp.add(Stats.IndirectMispredicts);
  DirectJumps.add(Stats.DirectJumps);
  DirectRedirects.add(Stats.DirectJumpDecodeRedirects);
  BrrExecuted.add(Stats.BrrExecuted);
  BrrTaken.add(Stats.BrrTaken);
  IcacheStalls.add(Stats.FetchIcacheStallCycles);
  BackendFlush.add(Stats.BackendFlushCycles);
  FrontendFlush.add(Stats.FrontendFlushCycles);
  FullWidth.add(Stats.FullWidthFetchCycles);
  RunInsts.observe(Stats.Insts);
  RunCycles.observe(Stats.Cycles);
  // Attached runs borrow the sampled runner's structures; publishing them
  // here would double-count across intervals.
  if (OwnedUarch)
    publishUarchCounters(*OwnedUarch);
}

uint64_t Pipeline::fetchInstruction(const ExecRecord &R) {
  if (RedirectPending) {
    if (RedirectCycle > FetchCycle) {
      uint64_t Lost = RedirectCycle - FetchCycle;
      if (RedirectIsFrontend)
        Stats.FrontendFlushCycles += Lost;
      else
        Stats.BackendFlushCycles += Lost;
      FetchCycle = RedirectCycle;
    }
    FetchedThisCycle = 0;
    FetchBreak = false;
    RedirectPending = false;
  } else if (FetchBreak) {
    ++FetchCycle;
    FetchedThisCycle = 0;
    FetchBreak = false;
  } else if (FetchedThisCycle >= Config.FetchWidth) {
    ++FetchCycle;
    FetchedThisCycle = 0;
  }

  // One I-cache probe per distinct line; a miss stalls fetch for the fill.
  uint64_t Line = R.Pc & ~static_cast<uint64_t>(Config.MemHier.L1I.LineBytes - 1);
  if (Line != LastFetchLine) {
    unsigned Stall = Uarch.MemHier.fetchAccess(R.Pc);
    if (Stall != 0) {
      Stats.FetchIcacheStallCycles += Stall;
      FetchCycle += Stall;
      FetchedThisCycle = 0;
    }
    LastFetchLine = Line;
  }

  ++FetchedThisCycle;
  if (FetchedThisCycle == Config.FetchWidth)
    ++Stats.FullWidthFetchCycles;
  return FetchCycle;
}

uint64_t Pipeline::placeIssue(uint64_t Earliest, uint64_t Floor) {
  // Floor never falls (dispatch is in order), so no later placement asks
  // for a cycle below it. Probing within IssueMask of Floor, a slot tagged
  // with another cycle holds a dead one and is reset, never an alias.
  for (uint64_t C = Earliest;; ++C) {
    if (C - Floor > IssueMask) [[unlikely]]
      issueRingOverrun(C, Floor, IssueRing.size());
    uint64_t &Slot = IssueRing[C & IssueMask];
    if (Slot >> IssueCountBits != C)
      Slot = C << IssueCountBits;
    if ((Slot & ((1u << IssueCountBits) - 1)) < Config.IssueWidth) {
      ++Slot;
      return C;
    }
  }
}

uint64_t Pipeline::completeExecution(const ExecRecord &R, uint64_t Issue,
                                     uint64_t Floor) {
  if (R.I.isLoad()) {
    uint64_t Done =
        Issue + Uarch.MemHier.dataAccess(R.MemAddr, /*IsWrite=*/false);
    // Store-to-load forwarding: data from an in-flight store to the same
    // word is available StoreForwardDelay cycles after the store
    // produces it.
    return std::max(Done, Forwarding.find(R.MemAddr & ~7ULL));
  }
  if (R.I.isStore()) {
    // Stores retire from a store buffer; the cache access is charged for
    // hit-rate accounting but does not delay commit.
    Uarch.MemHier.dataAccess(R.MemAddr, /*IsWrite=*/true);
    uint64_t Done = Issue + 1;
    // Every later load issues at or after Floor and completes no earlier
    // than an L1D hit later, so a store forwarding by then delays none.
    Forwarding.insert(R.MemAddr & ~7ULL, Done + Config.StoreForwardDelay,
                      Floor + Config.MemHier.L1DHitCycles);
    return Done;
  }
  if (R.I.Op == Opcode::Mul)
    return Issue + Config.MulLatency;
  return Issue + 1;
}

RunResult Pipeline::run(uint64_t MaxInsts, bool RequireHalt) {
  telemetry::TraceWriter *Detail =
      Telemetry ? Telemetry->detailTrace() : nullptr;
  while (!Oracle.halted() && Stats.Insts < MaxInsts) {
    ExecRecord R = Oracle.step();
    uint64_t F = fetchInstruction(R);

    // --- Fetch-time prediction and control classification. -------------
    bool PredictedTakenAtFetch = false; ///< fetch break, no bubble.
    bool DecodeRedirect = false;        ///< resolved in decode, short flush.
    bool BackendRedirect = false;       ///< resolved at execute, full flush.

    // Count the control classes (identically under the oracle and real
    // front ends), then let the shared update policy train the structures
    // and classify the front-end outcome.
    if (R.I.isBrr()) {
      ++Stats.BrrExecuted;
      if (R.Taken)
        ++Stats.BrrTaken;
    } else if (R.I.isCondBranch()) {
      ++Stats.CondBranches;
    } else if (R.I.isDirectJump()) {
      ++Stats.DirectJumps;
    } else if (R.I.isIndirect()) {
      ++Stats.IndirectBranches;
    }

    if (Config.PerfectBranchPrediction) {
      // Oracle front end: redirect with zero penalty, never touch the
      // real predictor structures.
      if (R.Taken && R.I.isControl() && R.I.Op != Opcode::Halt)
        PredictedTakenAtFetch = true;
    } else {
      switch (Policy.observeTimed(R)) {
      case BranchOutcome::None:
        break;
      case BranchOutcome::PredictedTaken:
        PredictedTakenAtFetch = true;
        break;
      case BranchOutcome::DecodeRedirect:
        // A taken brr's short flush, or a direct jump's BTB-miss bubble.
        if (R.I.isDirectJump())
          ++Stats.DirectJumpDecodeRedirects;
        DecodeRedirect = true;
        break;
      case BranchOutcome::BackendRedirect:
        if (R.I.isCondBranch())
          ++Stats.CondMispredicts;
        else if (R.I.isIndirect())
          ++Stats.IndirectMispredicts;
        BackendRedirect = true;
        break;
      }
    }

    // --- Timestamp the instruction through the stages. ------------------
    uint64_t D = DecodeStage.place(F + Config.FetchToDecode);
    uint64_t Done;
    uint64_t C;
    uint64_t Disp = 0;
    uint64_t Issue = 0;

    bool CommitsAtDecode = R.I.isBrr() && !Config.BrrAsBackendBranch &&
                           Config.BrrCommitsAtDecode &&
                           Config.BrrTrapCycles == 0;
    if (CommitsAtDecode) {
      // No ROB entry, no rename, no issue slot, no commit bandwidth: the
      // instruction is architecturally complete once decode resolves it.
      Done = D;
      C = D;
    } else {
      uint64_t RobReady = 0;
      if (RobAllocated >= Config.RobEntries)
        RobReady = RobSlotFree[RobAllocated % Config.RobEntries] + 1;
      Disp = DispatchStage.place(
          std::max(D + Config.DecodeToDispatch, RobReady));

      uint64_t Floor = Disp + Config.DispatchToIssue;
      uint64_t Earliest = Floor;
      uint8_t Srcs[2];
      unsigned NumSrcs = R.I.sourceRegs(Srcs);
      for (unsigned S = 0; S != NumSrcs; ++S)
        Earliest = std::max(Earliest, RegReady[Srcs[S]]);

      Issue = placeIssue(Earliest, Floor);
      Done = completeExecution(R, Issue, Floor);
      if (R.I.writesReg())
        RegReady[R.I.Rd] = Done;

      C = CommitStage.place(Done + 1);
      RobSlotFree[RobAllocated % Config.RobEntries] = C;
      ++RobAllocated;
    }

    if (Observer) {
      InstTimestamps TS;
      TS.Pc = R.Pc;
      TS.I = R.I;
      TS.Fetch = F;
      TS.Decode = D;
      TS.Dispatch = Disp;
      TS.Issue = Issue;
      TS.Done = Done;
      TS.Commit = C;
      TS.CommittedAtDecode = CommitsAtDecode;
      TS.Mispredicted = BackendRedirect;
      TS.FrontEndFlush = DecodeRedirect;
      Observer(TS);
    }

    ++Stats.Insts;
    Stats.Cycles = std::max({Stats.Cycles, C, D});

    if (R.I.Op == Opcode::Marker)
      Markers.push_back({R.I.Imm, C, Stats.Insts});

    // --- Redirect scheduling. -------------------------------------------
    if (R.I.isBrr() && Config.BrrTrapCycles != 0 &&
        !Config.BrrAsBackendBranch) {
      // Trap emulation: the invalid opcode excepts at decode; the handler
      // emulates the LFSR and resumes at the fall-through or the target.
      RedirectPending = true;
      RedirectCycle = D + Config.BrrTrapCycles;
      RedirectIsFrontend = false;
    } else if (BackendRedirect) {
      RedirectPending = true;
      RedirectCycle = Done + Config.MispredictRedirect;
      RedirectIsFrontend = false;
    } else if (DecodeRedirect) {
      RedirectPending = true;
      RedirectCycle = D + Config.FrontEndRedirect;
      RedirectIsFrontend = true;
    } else if (PredictedTakenAtFetch && Config.FetchStopsAtTakenBranch) {
      FetchBreak = true;
    }

    if (Detail) {
      if (R.I.isBrr() && R.Taken)
        Detail->instant("brr taken", "pipeline",
                        {telemetry::TraceArg::num("pc", R.Pc),
                         telemetry::TraceArg::num("cycle", C)});
      if (RedirectPending)
        Detail->instant(RedirectIsFrontend ? "frontend flush"
                                           : "backend flush",
                        "pipeline",
                        {telemetry::TraceArg::num("pc", R.Pc),
                         telemetry::TraceArg::num("cycle", RedirectCycle)});
    }
  }

  assert((!RequireHalt || Oracle.halted()) &&
         "program did not halt within the instruction budget");
  (void)RequireHalt;
  return {Stats, Markers};
}
