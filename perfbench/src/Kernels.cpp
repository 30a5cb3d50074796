//===- perfbench/src/Kernels.cpp - kernels-detailed workload -------------===//
//
// The five self-checking kernels at enlarged sizes under cold Pipeline
// runs, each uninstrumented and with brr sampling (No-Duplication, interval
// 1024). The same layer as micro-detailed used differently: many pages and
// distinct addresses, a list larger than the modelled 1 MB L2, and runs
// from mispredict-bound (crc32) to latency-bound (listsum).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "workloads/Kernels.h"

#include <cstdio>

using namespace bor;

namespace perfbench {
namespace {

struct KernelSpec {
  KernelKind Kind;
  uint64_t Size; ///< per-kernel unit, see workloads/Kernels.h
};

/// Enlarged sizes (defaults: 12000, 400, 12000, 20, 4000). listsum's
/// 131072 16-byte nodes (2 MiB) exceed the 1 MB L2.
constexpr KernelSpec Specs[] = {
    {KernelKind::Crc32, 16000},   {KernelKind::Sort, 640},
    {KernelKind::StrSearch, 90000}, {KernelKind::MatMul, 40},
    {KernelKind::ListSum, 131072},
};
constexpr size_t NumKernels = sizeof(Specs) / sizeof(Specs[0]);

constexpr SamplingFramework Frameworks[] = {SamplingFramework::None,
                                            SamplingFramework::BrrBased};
constexpr size_t NumPrograms = NumKernels * 2;

struct Built {
  KernelProgram KP;
  std::unique_ptr<DecodedProgram> Dec;
  std::string Label; ///< "<kernel>/<framework>"
};

struct KernelRun {
  ColdRun Cold;
  uint64_t Result = 0;
};

class KernelsDetailed : public Workload {
public:
  void setup(uint64_t Seed) override {
    SeedSource Seeds(Seed);
    Config = PipelineConfig();
    Config.Brr.Seed = Seeds.nextLfsrSeed();
    Programs.clear();
    for (const KernelSpec &Spec : Specs) {
      uint64_t InputSeed = Seeds.next();
      for (SamplingFramework F : Frameworks) {
        auto B = std::make_unique<Built>();
        KernelConfig C;
        C.Kind = Spec.Kind;
        C.Size = Spec.Size;
        C.Seed = InputSeed;
        C.Instr.Framework = F;
        C.Instr.Dup = DuplicationMode::NoDuplication;
        C.Instr.Interval = 1024;
        B->Label = std::string(kernelName(Spec.Kind)) + "/" +
                   (F == SamplingFramework::None ? "none" : "brr");
        {
          Span S("workloads.build", B->Label);
          B->KP = buildKernel(C);
        }
        {
          Span S("sim.decode", B->Label);
          B->Dec = std::make_unique<DecodedProgram>(B->KP.Prog);
        }
        Programs.push_back(std::move(B));
      }
    }
  }

  void round() override {
    std::vector<KernelRun> Runs(NumPrograms);
    for (size_t I = 0; I != NumPrograms; ++I) {
      const Built &B = *Programs[I];
      KernelRun &R = Runs[I];
      R.Cold = runCold(*B.Dec, Config, B.KP.Name, [&B, &R](const Memory &M) {
        R.Result = M.readU64(B.KP.Prog.symbol("result"));
      });
    }
    Rounds.push_back(std::move(Runs));
  }

  size_t opsPerRound() const override { return NumPrograms; }

  void check(Accounting &Acc) override {
    // Functional pass: the Interpreter must also leave the independent
    // C++ reference's value at "result".
    std::vector<uint64_t> InterpInsts(NumPrograms), InterpResult(NumPrograms);
    for (size_t I = 0; I != NumPrograms; ++I) {
      Machine M;
      BrrUnitDecider D(Config.Brr);
      Interpreter Interp(*Programs[I]->Dec, M, D);
      Span S("sim.interp_run", Programs[I]->Label);
      RunStats RS = Interp.run(1ULL << 40);
      S.setCount(RS.Insts);
      InterpInsts[I] = RS.Insts;
      InterpResult[I] =
          M.memory().readU64(Programs[I]->KP.Prog.symbol("result"));
    }

    for (size_t Round = 0; Round != Rounds.size(); ++Round) {
      for (size_t I = 0; I != NumPrograms; ++I) {
        const Built &B = *Programs[I];
        const KernelRun &R = Rounds[Round][I];
        const KernelRun &First = Rounds[0][I];
        Op O("kernels-detailed/" + B.Label + "/round" + str(Round));
        uint64_t Expected =
            B.KP.ExpectedResult + injectDelta("kernel-result");
        O.expect(R.Result == Expected, "kernel-result",
                 "pipeline result " + str(R.Result) + " != reference " +
                     str(Expected));
        O.expect(InterpResult[I] == Expected, "kernel-result",
                 "interpreter result " + str(InterpResult[I]) +
                     " != reference " + str(Expected));
        O.expect(R.Cold.Stats.Insts ==
                     InterpInsts[I] + injectDelta("kernel-insts"),
                 "kernel-insts",
                 "pipeline committed " + str(R.Cold.Stats.Insts) +
                     ", interpreter retired " + str(InterpInsts[I]));
        O.expect(R.Cold.Stats.Cycles + injectDelta("kernel-determinism") ==
                         First.Cold.Stats.Cycles &&
                     R.Cold.L2Misses == First.Cold.L2Misses,
                 "kernel-determinism", "modelled statistics differ by round");
        Acc.add(O);
      }
    }
  }

  uint64_t instsPerRound() const override {
    uint64_t N = 0;
    for (const KernelRun &R : Rounds.front())
      N += R.Cold.Stats.Insts;
    return N;
  }

  uint64_t eventsPerRound() const override {
    uint64_t N = 0;
    for (const auto &B : Programs)
      N += B->KP.DynamicSiteVisits;
    return N;
  }

  void printModelled() const override {
    const std::vector<KernelRun> &Runs = Rounds.front();
    for (size_t I = 0; I != NumPrograms; ++I) {
      const PipelineStats &S = Runs[I].Cold.Stats;
      // Uninstrumented and brr runs alternate; overhead is against the
      // kernel's own baseline.
      double Base =
          static_cast<double>(Runs[I & ~size_t(1)].Cold.Stats.Cycles);
      std::printf("model kernels-detailed %-15s insts=%llu cycles=%llu "
                  "ipc=%.4f overhead_pct=%.3f cond_mispredicts=%llu "
                  "l1d_misses=%llu l2_misses=%llu result=%llu pages=%llu\n",
                  Programs[I]->Label.c_str(),
                  static_cast<unsigned long long>(S.Insts),
                  static_cast<unsigned long long>(S.Cycles), S.ipc(),
                  100.0 * (static_cast<double>(S.Cycles) - Base) / Base,
                  static_cast<unsigned long long>(S.CondMispredicts),
                  static_cast<unsigned long long>(Runs[I].Cold.L1dMisses),
                  static_cast<unsigned long long>(Runs[I].Cold.L2Misses),
                  static_cast<unsigned long long>(Runs[I].Result),
                  static_cast<unsigned long long>(Runs[I].Cold.Pages));
    }
  }

  void layerMetrics(LayerValues &V, size_t TracedRounds) const override {
    std::vector<ColdRun> Cold;
    for (const KernelRun &R : Rounds.front())
      Cold.push_back(R.Cold);
    std::vector<std::string> Kernels;
    for (const KernelSpec &Spec : Specs)
      Kernels.push_back(kernelName(Spec.Kind));
    setPipelineLayerMetrics(V, Cold, TracedRounds, Kernels);
  }

private:
  PipelineConfig Config;
  std::vector<std::unique_ptr<Built>> Programs;
  std::vector<std::vector<KernelRun>> Rounds;
};

} // namespace

std::unique_ptr<Workload> makeKernelsDetailed() {
  return std::make_unique<KernelsDetailed>();
}

} // namespace perfbench
