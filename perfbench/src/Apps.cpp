//===- perfbench/src/Apps.cpp - apps-sampled workload --------------------===//
//
// The five Figure 12 application analogues, each uninstrumented and with
// cbs and brr sampling (Full-Duplication, interval 1024), under sampled
// simulation with the default SamplingPlan: once with plain runSampled and
// once from a freshly built CheckpointLibrary. Interpreter fast-forward,
// library build, copy-on-write resume and the functional warmer do most of
// the work; the attached Pipeline does the rest.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ckpt/CheckpointLibrary.h"
#include "sample/SampledRunner.h"
#include "workloads/AppGen.h"

#include <cstdio>

using namespace bor;

namespace perfbench {
namespace {

/// Method invocations per program: 1.5 times each analogue's default
/// NumTopCalls, tripled, so every stream spans many 100,000-instruction
/// sampling periods. Which methods make a nested call depends on the seed,
/// so NumTopCalls is fitted per seed to keep the invocation count (and the
/// work of a round) the same for every seed.
constexpr uint64_t TopCallScale = 3;
constexpr double VisitsPerTopCall = 1.5;

/// \p App with NumTopCalls fitted so the program makes about
/// VisitsPerTopCall * TopCallScale * (default NumTopCalls) invocations. The
/// call sequence is generated front to back, so a longer sequence keeps the
/// probe's prefix and its invocation rate.
AppConfig fitTopCalls(AppConfig App) {
  const double Target = VisitsPerTopCall * TopCallScale *
                        static_cast<double>(App.NumTopCalls);
  App.NumTopCalls *= TopCallScale;
  AppProgram Probe;
  {
    Span S("workloads.build", App.Name + "/probe");
    Probe = buildApp(App);
  }
  double Rate = static_cast<double>(Probe.DynamicSiteVisits) /
                static_cast<double>(App.NumTopCalls);
  App.NumTopCalls = static_cast<uint64_t>(Target / Rate + 0.5);
  return App;
}

struct ArmSpec {
  const char *Name;
  SamplingFramework F;
};
constexpr ArmSpec ArmSpecs[] = {
    {"none", SamplingFramework::None},
    {"cbs", SamplingFramework::CounterBased},
    {"brr", SamplingFramework::BrrBased},
};
constexpr uint64_t Interval = 1024;

struct Built {
  AppProgram App;
  std::unique_ptr<DecodedProgram> Dec;
  SamplingFramework F = SamplingFramework::None;
  std::string Label; ///< "<app>/<framework>"
};

struct AppRun {
  SampledResult Plain;
  SampledResult FromLib;
  uint64_t LibStoredPages = 0;
  uint64_t LibDedupHits = 0;
};

/// Compares every SampledResult field except the wall-clock phase timers.
bool sameResult(const SampledResult &A, const SampledResult &B) {
  const PipelineStats &X = A.Detailed, &Y = B.Detailed;
  bool Same =
      A.TotalInsts == B.TotalInsts &&
      A.FastForwardInsts == B.FastForwardInsts &&
      A.WarmedInsts == B.WarmedInsts && A.PrerollInsts == B.PrerollInsts &&
      A.MeasuredInsts == B.MeasuredInsts &&
      A.NumIntervals == B.NumIntervals && A.Halted == B.Halted &&
      X.Cycles == Y.Cycles && X.Insts == Y.Insts &&
      X.CondBranches == Y.CondBranches &&
      X.CondMispredicts == Y.CondMispredicts &&
      X.IndirectBranches == Y.IndirectBranches &&
      X.IndirectMispredicts == Y.IndirectMispredicts &&
      X.DirectJumps == Y.DirectJumps &&
      X.DirectJumpDecodeRedirects == Y.DirectJumpDecodeRedirects &&
      X.BrrExecuted == Y.BrrExecuted && X.BrrTaken == Y.BrrTaken &&
      X.FetchIcacheStallCycles == Y.FetchIcacheStallCycles &&
      X.BackendFlushCycles == Y.BackendFlushCycles &&
      X.FrontendFlushCycles == Y.FrontendFlushCycles &&
      X.FullWidthFetchCycles == Y.FullWidthFetchCycles &&
      A.IpcSamples.count() == B.IpcSamples.count() &&
      A.IpcSamples.mean() == B.IpcSamples.mean() &&
      A.IpcSamples.ci95HalfWidth() == B.IpcSamples.ci95HalfWidth() &&
      A.FlushFracSamples.mean() == B.FlushFracSamples.mean() &&
      A.BrrRateSamples.mean() == B.BrrRateSamples.mean() &&
      A.Markers.size() == B.Markers.size();
  for (size_t I = 0; Same && I != A.Markers.size(); ++I)
    Same = A.Markers[I].Id == B.Markers[I].Id &&
           A.Markers[I].GlobalInst == B.Markers[I].GlobalInst;
  return Same;
}

class AppsSampled : public Workload {
public:
  void setup(uint64_t Seed) override {
    SeedSource Seeds(Seed);
    Config = PipelineConfig();
    Config.Brr.Seed = Seeds.nextLfsrSeed();
    Programs.clear();
    for (AppConfig App : dacapoAppAnalogues()) {
      App.Seed = Seeds.next();
      App = fitTopCalls(App);
      for (const ArmSpec &A : ArmSpecs) {
        auto B = std::make_unique<Built>();
        AppConfig C = App;
        C.Instr.Framework = A.F;
        C.Instr.Dup = DuplicationMode::FullDuplication;
        C.Instr.Interval = Interval;
        B->F = A.F;
        B->Label = App.Name + "/" + A.Name;
        {
          Span S("workloads.build", B->Label);
          B->App = buildApp(C);
        }
        {
          Span S("sim.decode", B->Label);
          B->Dec = std::make_unique<DecodedProgram>(B->App.Prog);
        }
        Programs.push_back(std::move(B));
      }
    }
  }

  void round() override {
    std::vector<AppRun> Runs(Programs.size());
    for (size_t I = 0; I != Programs.size(); ++I) {
      const Built &B = *Programs[I];
      AppRun &R = Runs[I];
      {
        Span S("sample.run_sampled", B.Label);
        R.Plain = runSampled(*B.Dec, Plan, Config);
        S.setCount(R.Plain.TotalInsts);
      }
      ckpt::CheckpointLibrary::BuildOptions Options;
      Options.EveryInsts = Plan.PeriodInsts;
      ckpt::CheckpointLibrary Lib = [&] {
        Span S("ckpt.build", B.Label);
        ckpt::CheckpointLibrary L =
            ckpt::CheckpointLibrary::build(*B.Dec, Config.Brr, Options,
                                           /*Telemetry=*/nullptr);
        S.setCount(L.totalInsts());
        return L;
      }();
      {
        Span S("ckpt.run_from_library", B.Label);
        R.FromLib = runSampledFromLibrary(*B.Dec, Lib, Plan, Config);
        S.setCount(R.FromLib.TotalInsts);
      }
      R.LibStoredPages = Lib.numStoredPages();
      R.LibDedupHits = Lib.numDedupHits();
    }
    Rounds.push_back(std::move(Runs));
  }

  size_t opsPerRound() const override { return 2 * Programs.size(); }

  void check(Accounting &Acc) override {
    // Functional pass: an uninterrupted Interpreter::run of each image
    // gives the stream length and the per-method invocation counters.
    const size_t N = Programs.size();
    std::vector<uint64_t> InterpInsts(N);
    std::vector<bool> CountersOk(N);
    TouchedPages.assign(N, 0);
    for (size_t I = 0; I != N; ++I) {
      const Built &B = *Programs[I];
      Machine M;
      BrrUnitDecider D(Config.Brr);
      Interpreter Interp(*B.Dec, M, D);
      RunStats RS;
      {
        Span S("sim.interp_run", B.Label);
        RS = Interp.run(1ULL << 40);
        S.setCount(RS.Insts);
      }
      InterpInsts[I] = RS.Insts + injectDelta("app-total-insts");
      TouchedPages[I] = M.memory().numPages();
      uint64_t Sampled = injectDelta("app-counters") * 1000;
      for (uint32_t Method = 0; Method != B.App.NumMethods; ++Method)
        Sampled += M.memory().readU64(B.App.ProfileBase + 8 * Method);
      CountersOk[I] = countersOk(B.F, B.App.DynamicSiteVisits, Sampled);
      if (!CountersOk[I])
        std::fprintf(stderr, "%s: %llu sampled invocations of %llu\n",
                     B.Label.c_str(), static_cast<unsigned long long>(Sampled),
                     static_cast<unsigned long long>(
                         B.App.DynamicSiteVisits));
    }

    for (size_t Round = 0; Round != Rounds.size(); ++Round) {
      for (size_t I = 0; I != N; ++I) {
        const Built &B = *Programs[I];
        const AppRun &R = Rounds[Round][I];
        const AppRun &First = Rounds[0][I];
        std::string Where = B.Label + "/round" + str(Round);
        for (int Engine = 0; Engine != 2; ++Engine) {
          const SampledResult &S = Engine ? R.FromLib : R.Plain;
          Op O("apps-sampled/" + Where +
               (Engine ? "/from-library" : "/plain"));
          O.expect(S.Halted && S.TotalInsts == InterpInsts[I],
                   "app-total-insts",
                   "sampled stream of " + str(S.TotalInsts) +
                       " instructions, interpreter retired " +
                       str(InterpInsts[I]));
          O.expect(S.NumIntervals > 0 && S.Markers.size() == 2,
                   "app-total-insts", "no interval measured or ROI missing");
          O.expect(CountersOk[I], "app-counters",
                   "method counters do not match the interval rule");
          if (Engine) {
            SampledResult Plain = R.Plain;
            Plain.Detailed.Cycles += injectDelta("app-lib-identity");
            O.expect(sameResult(Plain, R.FromLib), "app-lib-identity",
                     "library-backed result differs from plain sampling");
          }
          SampledResult Ref = Engine ? First.FromLib : First.Plain;
          Ref.Detailed.Cycles += injectDelta("app-determinism");
          O.expect(sameResult(S, Ref), "app-determinism",
                   "sampled result differs by round");
          Acc.add(O);
        }
      }
    }
  }

  uint64_t instsPerRound() const override {
    uint64_t Insts = 0;
    for (const AppRun &R : Rounds.front())
      Insts += R.Plain.TotalInsts + R.FromLib.TotalInsts;
    return Insts;
  }

  uint64_t eventsPerRound() const override {
    uint64_t N = 0;
    for (const auto &B : Programs)
      N += 2 * B->App.DynamicSiteVisits;
    return N;
  }

  void printModelled() const override {
    const std::vector<AppRun> &Runs = Rounds.front();
    for (size_t I = 0; I != Runs.size(); ++I) {
      const SampledResult &S = Runs[I].Plain;
      // Arms come in (none, cbs, brr) triples; overhead is estimated from
      // the sampled IPC against the application's own baseline.
      const SampledResult &Base = Runs[I - I % 3].Plain;
      double Cycles = S.estimatedCycles(S.TotalInsts);
      double BaseCycles = Base.estimatedCycles(Base.TotalInsts);
      std::printf("model apps-sampled %-14s total_insts=%llu intervals=%llu "
                  "measured_cycles=%llu ipc_mean=%.6f ipc_ci95=%.6f "
                  "overhead_pct=%.3f lib_pages=%llu lib_dedup_hits=%llu "
                  "pages=%llu\n",
                  Programs[I]->Label.c_str(),
                  static_cast<unsigned long long>(S.TotalInsts),
                  static_cast<unsigned long long>(S.NumIntervals),
                  static_cast<unsigned long long>(S.Detailed.Cycles),
                  S.ipcMean(), S.ipcCi95(),
                  100.0 * (Cycles - BaseCycles) / BaseCycles,
                  static_cast<unsigned long long>(Runs[I].LibStoredPages),
                  static_cast<unsigned long long>(Runs[I].LibDedupHits),
                  static_cast<unsigned long long>(TouchedPages[I]));
    }
  }

  void layerMetrics(LayerValues &V, size_t TracedRounds) const override {
    double FfMs = 0, WarmMs = 0, MeasureMs = 0, ResumeMs = 0;
    uint64_t Warmed = 0, Detailed = 0;
    for (size_t Round = Rounds.size() - TracedRounds; Round != Rounds.size();
         ++Round)
      for (const AppRun &R : Rounds[Round]) {
        FfMs += R.Plain.FastForwardMs;
        ResumeMs += R.FromLib.FastForwardMs;
        for (const SampledResult *S : {&R.Plain, &R.FromLib}) {
          WarmMs += S->WarmMs;
          MeasureMs += S->MeasureMs;
          Warmed += S->WarmedInsts;
          Detailed += S->PrerollInsts + S->MeasuredInsts;
        }
      }
    V["sample.ff_ms"] = msPerRound(FfMs, TracedRounds);
    V["sample.warm_ms"] = msPerRound(WarmMs, TracedRounds);
    V["sample.measure_ms"] = msPerRound(MeasureMs, TracedRounds);
    V["sample.warm_minst_per_s"] = mPerSec(Warmed, WarmMs);
    V["sample.detailed_minst_per_s"] = mPerSec(Detailed, MeasureMs);
    Tracer &T = Tracer::get();
    double BuildMs = T.sumMs("ckpt.build");
    V["ckpt.build_ms"] = msPerRound(BuildMs, TracedRounds);
    V["ckpt.build_minst_per_s"] = mPerSec(T.sumCount("ckpt.build"), BuildMs);
    V["ckpt.resume_ms"] = msPerRound(ResumeMs, TracedRounds);
    uint64_t Stored = 0, Dedup = 0;
    for (const AppRun &R : Rounds.front()) {
      Stored += R.LibStoredPages;
      Dedup += R.LibDedupHits;
    }
    V["ckpt.library_mb"] =
        static_cast<double>(Stored * Memory::pageBytes()) / (1 << 20);
    V["ckpt.dedup_hits"] = static_cast<double>(Dedup);
  }

private:
  /// The per-method invocation counters of one uninterrupted run: none
  /// without instrumentation; exactly every Interval-th invocation (within
  /// one) for the counter; a binomial count with p = 1/Interval for brr.
  static bool countersOk(SamplingFramework F, uint64_t Visits,
                         uint64_t Sampled) {
    double Expected =
        static_cast<double>(Visits) / static_cast<double>(Interval);
    double Got = static_cast<double>(Sampled);
    switch (F) {
    case SamplingFramework::None:
      return Sampled == 0;
    case SamplingFramework::CounterBased:
      return std::fabs(Got - std::floor(Expected)) <= 1.0;
    case SamplingFramework::BrrBased:
      return std::fabs(Got - Expected) <=
             binomialSlack(Visits, 1.0 / static_cast<double>(Interval));
    case SamplingFramework::Full:
      return Sampled == Visits;
    }
    return false;
  }

  SamplingPlan Plan; ///< the default plan
  PipelineConfig Config;
  std::vector<std::unique_ptr<Built>> Programs;
  std::vector<std::vector<AppRun>> Rounds;
  std::vector<uint64_t> TouchedPages; ///< by each program's check run
};

} // namespace

std::unique_ptr<Workload> makeAppsSampled() {
  return std::make_unique<AppsSampled>();
}

} // namespace perfbench
