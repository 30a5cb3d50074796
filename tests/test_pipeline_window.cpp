//===- tests/test_pipeline_window.cpp - Issue ring and forwarding bounds --===//
//
// The Pipeline tracks issue width in a ring of per-cycle slots sized from
// its PipelineConfig, and keeps store-to-load forwarding entries only while
// a store can still delay a load. These tests drive both structures where
// they are most stressed: long chains of memory misses that hold the issue
// window open for thousands of cycles, a machine configured so that the
// placement span comes close to the ring size, and a long run of stores to
// distinct words.
//
//===----------------------------------------------------------------------===//

#include "isa/ProgramBuilder.h"
#include "uarch/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

using namespace bor;

namespace {

/// A pointer chase over \p Nodes list nodes one cache line apart, so every
/// load is a cold miss. Each iteration loads the next node \p LoadsPerIter
/// times in a dependent chain, runs \p Consumers adds that all read the
/// last load's value, then \p Independent adds that read no register.
Program chaseProgram(unsigned Nodes, unsigned LoadsPerIter,
                     unsigned Consumers, unsigned Independent) {
  ProgramBuilder B;
  uint64_t List = B.allocData(64ULL * (Nodes + 1), 64);
  for (unsigned N = 0; N != Nodes; ++N)
    B.initDataU64(List + 64ULL * N, List + 64ULL * (N + 1));
  B.emitLoadConst(1, List);
  B.emitLoadConst(2, Nodes / LoadsPerIter);
  auto Loop = B.label();
  B.bind(Loop);
  for (unsigned L = 0; L != LoadsPerIter; ++L)
    B.emit(Inst::ld(1, 1, 0));
  for (unsigned C = 0; C != Consumers; ++C)
    B.emit(Inst::add(static_cast<uint8_t>(4 + C % 8), 1, 0));
  for (unsigned C = 0; C != Independent; ++C)
    B.emit(Inst::add(static_cast<uint8_t>(12 + C % 8), 0, 0));
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::halt());
  return B.finish();
}

/// Runs \p P to completion and checks the issue width of every cycle.
/// Returns the widest placement span seen: how far past its floor
/// (dispatch + DispatchToIssue) an instruction issued.
uint64_t runCheckingIssueWidth(const Program &P, const PipelineConfig &Cfg,
                               uint64_t MinInsts) {
  std::unordered_map<uint64_t, unsigned> IssuePerCycle;
  uint64_t MaxSpan = 0;
  Pipeline Pipe(P, Cfg);
  Pipe.setObserver([&](const InstTimestamps &TS) {
    if (TS.CommittedAtDecode)
      return;
    ++IssuePerCycle[TS.Issue];
    MaxSpan = std::max(MaxSpan, TS.Issue - TS.Dispatch - Cfg.DispatchToIssue);
  });
  PipelineStats S = Pipe.run(100000000).Stats;
  EXPECT_GT(S.Insts, MinInsts);
  unsigned Overfull = 0;
  for (const auto &[Cycle, Count] : IssuePerCycle)
    Overfull += Count > Cfg.IssueWidth;
  EXPECT_EQ(Overfull, 0u) << "cycles issuing more than " << Cfg.IssueWidth;
  return MaxSpan;
}

} // namespace

TEST(PipelineIssueRing, SizedFromTheConfig) {
  // 80 ROB entries x (2 + 8 + 140 + 3) cycles + 80 / 4, rounded up.
  EXPECT_EQ(Pipeline::issueRingSlots(PipelineConfig()), 16384u);

  PipelineConfig Big;
  Big.RobEntries = 160;
  Big.MemHier.MemCycles = 300;
  // 160 x (2 + 8 + 300 + 3) + 160 / 4 = 50,120.
  EXPECT_EQ(Pipeline::issueRingSlots(Big), 65536u);

  PipelineConfig SlowMul;
  SlowMul.RobEntries = 4;
  SlowMul.MulLatency = 5000;
  // The longest single latency can be a multiply as well as a miss.
  EXPECT_EQ(Pipeline::issueRingSlots(SlowMul), 32768u);
}

// A chase in which every load misses to memory and feeds 16 consumers,
// which fill the issue width for four cycles after it completes. With 23
// instructions per iteration and a 6 x 23 + 17 = 155-entry ROB, the first
// independent add of an iteration dispatches right after the load six
// iterations earlier commits, so it asks for those full cycles. Six
// 302-cycle misses in flight hold the window open for over 2,000 cycles,
// longer than the 1,024 behind the last commit that an issue tracker
// trimming to that frontier keeps; such a tracker forgets the full cycles
// and overfills them (44 cycles in this run).
TEST(PipelineIssueRing, IssueWidthHoldsBehindLongMissChains) {
  PipelineConfig Cfg;
  Cfg.RobEntries = 155;
  Cfg.MemHier.MemCycles = 300;
  Program P = chaseProgram(6000, 1, 16, 4);
  uint64_t Span = runCheckingIssueWidth(P, Cfg, 100000);
  EXPECT_GT(Span, 1024u);
  EXPECT_LT(Span, Pipeline::issueRingSlots(Cfg));
}

// The extreme machine: a 160-entry ROB full of a dependent chain of
// 300-cycle misses. Placements land about 48,000 cycles past their floor,
// which the 65,536-slot ring must hold without two live cycles aliasing.
TEST(PipelineIssueRing, ExtremeConfigSpanStaysInsideTheRing) {
  PipelineConfig Cfg;
  Cfg.RobEntries = 160;
  Cfg.MemHier.MemCycles = 300;
  Program P = chaseProgram(2400, 200, 8, 0);
  uint64_t Span = runCheckingIssueWidth(P, Cfg, 2400);
  uint64_t Slots = Pipeline::issueRingSlots(Cfg);
  EXPECT_GT(Span, Slots / 2);
  EXPECT_LT(Span, Slots);
}

// Over ten million instructions, one in seven a store to a word never
// stored before. A store can delay a load only while it is in flight, so
// the forwarding table must stay within a small multiple of the ROB
// however many distinct words are written.
TEST(PipelineForwarding, TableStaysWithinTheInflightWindow) {
  const uint64_t Iters = 1500000;
  ProgramBuilder B;
  B.emitLoadConst(1, 1ULL << 32); // sparse memory far from the image
  B.emitLoadConst(2, Iters);
  auto Loop = B.label();
  B.bind(Loop);
  B.emit(Inst::st(2, 1, 0));
  B.emit(Inst::addi(1, 1, 8));
  for (uint8_t R = 4; R != 7; ++R)
    B.emit(Inst::add(R, R, 2));
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::halt());
  Program P = B.finish();

  PipelineConfig Cfg;
  Pipeline Pipe(P, Cfg);
  size_t MaxEntries = 0;
  Pipe.setObserver([&](const InstTimestamps &) {
    MaxEntries = std::max(MaxEntries, Pipe.forwardingEntries());
  });
  PipelineStats S = Pipe.run(100000000).Stats;
  EXPECT_GE(S.Insts, 10000000u);
  EXPECT_LE(MaxEntries, 4u * Cfg.RobEntries);
}

// Forwarding still applies while the table prunes: every load right
// behind a store to the same word completes no earlier than the store's
// data forwards, and for most of them that is what sets their completion.
TEST(PipelineForwarding, LoadWaitsForTheStoreItReadsBack) {
  const uint64_t Iters = 20000;
  ProgramBuilder B;
  B.emitLoadConst(1, 1ULL << 32);
  B.emitLoadConst(2, Iters);
  auto Loop = B.label();
  B.bind(Loop);
  B.emit(Inst::st(2, 1, 0));
  B.emit(Inst::ld(3, 1, 0));
  B.emit(Inst::add(4, 4, 3));
  B.emit(Inst::addi(1, 1, 8));
  B.emit(Inst::addi(2, 2, -1));
  B.emitBranch(Opcode::Bne, 2, 0, Loop);
  B.emit(Inst::halt());
  Program P = B.finish();

  PipelineConfig Cfg;
  Pipeline Pipe(P, Cfg);
  uint64_t StoreDone = 0;
  unsigned Loads = 0, Early = 0, SetByForwarding = 0;
  Pipe.setObserver([&](const InstTimestamps &TS) {
    if (TS.I.isStore())
      StoreDone = TS.Done;
    if (!TS.I.isLoad())
      return;
    ++Loads;
    uint64_t Fwd = StoreDone + Cfg.StoreForwardDelay;
    Early += TS.Done < Fwd;
    SetByForwarding +=
        TS.Done == Fwd && Fwd > TS.Issue + Cfg.MemHier.L1DHitCycles;
  });
  Pipe.run(10000000);
  EXPECT_EQ(Loads, Iters);
  EXPECT_EQ(Early, 0u);
  EXPECT_GT(SetByForwarding, Iters / 2);
}
