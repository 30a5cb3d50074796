//===- perfbench/src/Bench.cpp - Shared workload helpers -----------------===//

#include "Bench.h"

#include <cstdio>

namespace perfbench {

uint64_t SeedSource::nextLfsrSeed() {
  uint64_t S;
  do
    S = next();
  while ((S & ((1ULL << 20) - 1)) == 0);
  return S;
}

bool Op::expect(bool Cond, const char *Kind, const std::string &Detail,
               const char *KnownFault) {
  if (Cond)
    return true;
  // Report only an operation's first failed check to keep output short.
  if (Ok)
    std::fprintf(stderr, "FAIL [%s] %s: %s%s%s\n", Kind, Label.c_str(),
                 Detail.c_str(), KnownFault ? " -- known fault: " : "",
                 KnownFault ? KnownFault : "");
  Ok = false;
  Unexpected |= KnownFault == nullptr;
  return false;
}

ColdRun runCold(const bor::DecodedProgram &DP,
                const bor::PipelineConfig &Config, const std::string &Tag,
                const std::function<void(const bor::Memory &)> &ReadBack) {
  ColdRun R;
  bor::Pipeline Pipe(DP, Config);
  {
    Span S("uarch.pipeline", Tag);
    bor::RunResult Res = Pipe.run(1ULL << 40);
    S.setCount(Res.Stats.Insts);
    R.Stats = Res.Stats;
    R.Markers = std::move(Res.Markers);
  }
  R.L1dMisses = Pipe.memHier().l1d().stats().Misses;
  R.L2Misses = Pipe.memHier().l2().stats().Misses;
  R.Pages = Pipe.machine().memory().numPages();
  ReadBack(Pipe.machine().memory());
  return R;
}

void setPipelineLayerMetrics(LayerValues &V, const std::vector<ColdRun> &Round,
                             size_t TracedRounds,
                             const std::vector<std::string> &Tags) {
  Tracer &T = Tracer::get();
  double PipeMs = T.sumMs("uarch.pipeline");
  V["uarch.pipeline_ms"] = msPerRound(PipeMs, TracedRounds);
  V["uarch.pipeline_minst_per_s"] =
      mPerSec(T.sumCount("uarch.pipeline"), PipeMs);
  for (const std::string &Tag : Tags)
    V["uarch.pipeline_minst_per_s." + Tag] = mPerSec(
        T.sumCount("uarch.pipeline", Tag), T.sumMs("uarch.pipeline", Tag));
  bor::PipelineStats Sum;
  uint64_t L1d = 0, L2 = 0;
  for (const ColdRun &R : Round) {
    Sum.Cycles += R.Stats.Cycles;
    Sum.Insts += R.Stats.Insts;
    Sum.FrontendFlushCycles += R.Stats.FrontendFlushCycles;
    Sum.BackendFlushCycles += R.Stats.BackendFlushCycles;
    Sum.FetchIcacheStallCycles += R.Stats.FetchIcacheStallCycles;
    Sum.CondMispredicts += R.Stats.CondMispredicts;
    L1d += R.L1dMisses;
    L2 += R.L2Misses;
  }
  double Cycles = static_cast<double>(Sum.Cycles);
  V["uarch.host_ns_per_sim_cycle"] =
      Cycles > 0 ? msPerRound(PipeMs, TracedRounds) * 1e6 / Cycles : 0.0;
  V["uarch.sim_cycles"] = Cycles;
  V["uarch.frontend_flush_cycles"] =
      static_cast<double>(Sum.FrontendFlushCycles);
  V["uarch.backend_flush_cycles"] = static_cast<double>(Sum.BackendFlushCycles);
  V["uarch.icache_stall_cycles"] =
      static_cast<double>(Sum.FetchIcacheStallCycles);
  V["uarch.sim_ipc"] = Sum.ipc();
  V["uarch.cond_mispredicts"] = static_cast<double>(Sum.CondMispredicts);
  V["uarch.l1d_misses"] = static_cast<double>(L1d);
  V["uarch.l2_misses"] = static_cast<double>(L2);
}

} // namespace perfbench
