//===- bench/determinism_replay.cpp - Section 3.4 determinism checks -----===//
//
// Demonstrates the deterministic implementation options of Sections 3.4
// and 4.1:
//
//  1. Shift-back recovery: speculative LFSR updates by squashed brrs are
//     undone exactly, so a deterministic machine replays the identical brr
//     outcome sequence after any misprediction pattern.
//
//  2. Software determinism: two full microbenchmark runs with the same
//     seed collect bit-identical sample counts.
//
//  3. The hardware-counter mode is cycle-for-cycle equivalent to the
//     software counter framework's sampling decisions.
//
// Exits nonzero when any check fails.
//
//===----------------------------------------------------------------------===//

#include "core/BrrUnit.h"
#include "profile/SamplingPolicy.h"
#include "sim/Interpreter.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "workloads/Microbench.h"

#include <cstdio>

using namespace bor;

namespace {

bool replayAfterRandomSquashes() {
  // Reference: outcomes with no speculation at all.
  BrrUnitConfig Cfg;
  BrrUnit Reference(Cfg);
  std::vector<bool> Expected;
  for (int I = 0; I != 4000; ++I)
    Expected.push_back(Reference.evaluate(FreqCode(2)));

  // Device under test: interleave real evaluations with wrong-path bursts
  // that get squashed.
  DeterministicBrrUnit Dut(Cfg, 32);
  Xoshiro256 Rng(0x5eed);
  size_t Pos = 0;
  while (Pos < Expected.size()) {
    // Commit a few architecturally-real evaluations.
    unsigned Commit = 1 + Rng.nextBelow(4);
    for (unsigned I = 0; I != Commit && Pos < Expected.size(); ++I, ++Pos) {
      if (Dut.evaluate(FreqCode(2)) != Expected[Pos])
        return false;
    }
    Dut.retireOldest(Dut.inFlight());
    // Speculate down a wrong path, then squash it.
    unsigned Wrong = Rng.nextBelow(20);
    for (unsigned I = 0; I != Wrong; ++I)
      Dut.evaluate(FreqCode(Rng.nextBelow(16)));
    Dut.squashYoungest(Wrong);
  }
  return true;
}

std::vector<uint64_t> microbenchSamples(uint64_t Seed) {
  MicrobenchConfig C;
  C.Text.NumChars = 100000;
  C.Instr.Framework = SamplingFramework::BrrBased;
  C.Instr.Interval = 64;
  MicrobenchProgram MB = buildMicrobench(C);
  BrrUnitConfig Cfg;
  Cfg.Seed = Seed;
  BrrUnitDecider D(Cfg);
  Machine M;
  Interpreter I(MB.Prog, M, D);
  I.run(1ULL << 34);
  std::vector<uint64_t> Counts;
  for (unsigned S = 0; S != MB.NumStaticSites; ++S)
    Counts.push_back(M.memory().readU64(MB.ProfileBase + 8 * S));
  return Counts;
}

bool hwCounterMatchesSwCounter() {
  for (uint64_t Interval : {4ull, 64ull, 1024ull}) {
    SwCounterPolicy Sw(Interval);
    HwCounterPolicy Hw(Interval);
    for (uint64_t I = 0; I != Interval * 16; ++I)
      if (Sw.sample() != Hw.sample())
        return false;
  }
  return true;
}

} // namespace

int main() {
  std::printf("Sections 3.4 / 4.1 - deterministic implementation checks\n\n");

  Table T;
  T.addRow({"check", "result"});

  bool AllPassed = true;
  auto AddCheck = [&](const char *Name, bool Ok, const char *Pass,
                      const char *Fail) {
    AllPassed &= Ok;
    T.addRow({Name, Ok ? Pass : Fail});
  };

  AddCheck("LFSR shift-back replay across 4000 squash bursts",
           replayAfterRandomSquashes(), "identical", "DIVERGED");

  std::vector<uint64_t> RunA = microbenchSamples(0xace1);
  std::vector<uint64_t> RunB = microbenchSamples(0xace1);
  std::vector<uint64_t> RunC = microbenchSamples(0xbeef);
  AddCheck("same-seed microbench sample counts", RunA == RunB,
           "bit-identical", "DIVERGED");
  AddCheck("different-seed microbench sample counts", RunA != RunC,
           "differ (as expected)", "UNEXPECTEDLY EQUAL");

  AddCheck("hw-counter brr == sw-counter decisions",
           hwCounterMatchesSwCounter(), "equivalent", "DIVERGED");

  T.print();

  uint64_t TotalA = 0;
  for (uint64_t C : RunA)
    TotalA += C;
  std::printf("\nsample totals: seed 0xace1 -> %llu, expected ~%u\n",
              static_cast<unsigned long long>(TotalA), 3 * 100000 / 64);
  return AllPassed ? 0 : 1;
}
