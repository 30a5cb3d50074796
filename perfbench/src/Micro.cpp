//===- perfbench/src/Micro.cpp - micro-detailed workload -----------------===//
//
// The Section 5.3 microbenchmark under cold, full Pipeline runs: the
// uninstrumented baseline plus cbs and brr arms in both duplication modes
// at a short (16) and a long (1024) interval, all with instrumentation
// bodies. The Pipeline and its functional oracle do nearly all the host
// work on a small memory footprint.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "workloads/Microbench.h"

#include <array>
#include <cstdio>

using namespace bor;

namespace perfbench {
namespace {

/// Characters of generated text per program (the paper uses 500,000; this
/// size keeps a round near one second so a run holds several rounds).
constexpr size_t NumChars = 60000;

struct Arm {
  const char *Name;
  const char *Tag; ///< framework, for the per-framework throughput.
  SamplingFramework F;
  DuplicationMode Dup;
  uint64_t Interval;
};

constexpr SamplingFramework None = SamplingFramework::None;
constexpr SamplingFramework Cbs = SamplingFramework::CounterBased;
constexpr SamplingFramework Brr = SamplingFramework::BrrBased;
constexpr DuplicationMode NoDup = DuplicationMode::NoDuplication;
constexpr DuplicationMode FullDup = DuplicationMode::FullDuplication;

constexpr Arm Arms[] = {
    {"baseline", "none", None, NoDup, 1024},
    {"cbs-nodup-16", "cbs", Cbs, NoDup, 16},
    {"cbs-fulldup-16", "cbs", Cbs, FullDup, 16},
    {"brr-nodup-16", "brr", Brr, NoDup, 16},
    {"brr-fulldup-16", "brr", Brr, FullDup, 16},
    {"cbs-nodup-1024", "cbs", Cbs, NoDup, 1024},
    {"cbs-fulldup-1024", "cbs", Cbs, FullDup, 1024},
    {"brr-nodup-1024", "brr", Brr, NoDup, 1024},
    {"brr-fulldup-1024", "brr", Brr, FullDup, 1024},
};
constexpr size_t NumArms = sizeof(Arms) / sizeof(Arms[0]);

/// A library fault the edge-profile check exposes on every seed: at the
/// Full-Duplication region head the counter is reloaded with Interval and
/// stored without the decrement the No-Duplication path applies
/// (CounterGlobals::emitResetCounter), so after the first sample cbs fires
/// every Interval+1 checks instead of every Interval. At interval 16 the
/// 60,000 checks give 3,529 samples instead of 3,750.
constexpr const char *CbsFullDupPeriod =
    "cbs Full-Duplication samples every Interval+1 region entries";

/// Index of the cbs arm with the same duplication mode and interval.
size_t matchingCbsArm(size_t BrrArm) {
  for (size_t I = 0; I != NumArms; ++I)
    if (Arms[I].F == Cbs && Arms[I].Dup == Arms[BrrArm].Dup &&
        Arms[I].Interval == Arms[BrrArm].Interval)
      return I;
  return NumArms;
}

struct ArmRun {
  ColdRun Cold;
  std::array<uint64_t, 3> Sums{};
  std::vector<uint64_t> Dist;
  uint64_t EdgeTotal = 0;
};

struct Built {
  MicrobenchProgram MB;
  std::unique_ptr<DecodedProgram> Dec;
};

class MicroDetailed : public Workload {
public:
  void setup(uint64_t Seed) override {
    SeedSource Seeds(Seed);
    TextSeed = Seeds.next();
    Config = PipelineConfig();
    Config.Brr.Seed = Seeds.nextLfsrSeed();
    Programs.clear();
    for (const Arm &A : Arms) {
      auto B = std::make_unique<Built>();
      MicrobenchConfig C;
      C.Text.NumChars = NumChars;
      C.Text.Seed = TextSeed;
      C.Instr.Framework = A.F;
      C.Instr.Dup = A.Dup;
      C.Instr.Interval = A.Interval;
      C.Instr.IncludeBody = true;
      {
        Span S("workloads.build", A.Name);
        B->MB = buildMicrobench(C);
      }
      {
        Span S("sim.decode", A.Name);
        B->Dec = std::make_unique<DecodedProgram>(B->MB.Prog);
      }
      Programs.push_back(std::move(B));
    }
  }

  void round() override {
    std::vector<ArmRun> Runs(NumArms);
    for (size_t I = 0; I != NumArms; ++I) {
      const MicrobenchProgram &MB = Programs[I]->MB;
      ArmRun &R = Runs[I];
      R.Cold = runCold(*Programs[I]->Dec, Config, Arms[I].Tag,
                       [&MB, &R](const Memory &Mem) {
                         for (unsigned K = 0; K != 3; ++K)
                           R.Sums[K] = Mem.readU64(MB.ResultBase + 8 * K);
                         uint64_t DistBase = MB.Prog.symbol("dist");
                         R.Dist.resize(256);
                         for (unsigned C = 0; C != 256; ++C)
                           R.Dist[C] = Mem.readU64(DistBase + 8 * C);
                         for (unsigned K = 0; K != MB.NumStaticSites; ++K)
                           R.EdgeTotal += Mem.readU64(MB.ProfileBase + 8 * K);
                       });
    }
    Rounds.push_back(std::move(Runs));
  }

  size_t opsPerRound() const override { return NumArms; }

  void check(Accounting &Acc) override {
    // Independent reference: the class sums and the character histogram
    // of generateText's bytes, computed here in C++.
    TextConfig TC;
    TC.NumChars = NumChars;
    TC.Seed = TextSeed;
    std::vector<uint8_t> Text = generateText(TC);
    std::array<uint64_t, 3> RefSums{};
    std::vector<uint64_t> RefDist(256, 0);
    for (uint8_t C : Text) {
      bool Upper = C >= 'A' && C <= 'Z';
      bool Lower = C >= 'a' && C <= 'z';
      RefSums[Upper ? 0 : Lower ? 1 : 2] += C;
      ++RefDist[C];
    }
    RefSums[0] += injectDelta("micro-results");
    RefDist['e'] += injectDelta("micro-dist");

    // Functional reference: an uninterrupted Interpreter::run of each
    // image under the same brr unit configuration.
    std::vector<uint64_t> InterpInsts(NumArms);
    std::vector<uint64_t> InterpMarkers(NumArms);
    for (size_t I = 0; I != NumArms; ++I) {
      Machine M;
      BrrUnitDecider D(Config.Brr);
      Interpreter Interp(*Programs[I]->Dec, M, D);
      uint64_t Markers = 0;
      Interp.setMarkerHook([&Markers](int32_t) { ++Markers; });
      Span S("sim.interp_run", Arms[I].Name);
      RunStats RS = Interp.run(1ULL << 40);
      S.setCount(RS.Insts);
      InterpInsts[I] = RS.Insts + injectDelta("micro-insts");
      InterpMarkers[I] = Markers;
    }

    for (size_t Round = 0; Round != Rounds.size(); ++Round) {
      for (size_t I = 0; I != NumArms; ++I) {
        const Arm &A = Arms[I];
        const ArmRun &R = Rounds[Round][I];
        const ArmRun &First = Rounds[0][I];
        Op O(std::string("micro-detailed/") + A.Name + "/round" +
             str(Round));
        O.expect(R.Sums == RefSums, "micro-results",
                 "results block differs from the text's class sums");
        O.expect(R.Dist == RefDist, "micro-dist",
                 "dist histogram differs from the text's bytes");
        bool Markers = R.Cold.Markers.size() == 2 &&
                       R.Cold.Markers[0].Id == MarkerRoiBegin &&
                       R.Cold.Markers[1].Id == MarkerRoiEnd &&
                       InterpMarkers[I] == 2 + injectDelta("micro-markers");
        O.expect(Markers, "micro-markers", "ROI markers not both committed");
        O.expect(R.Cold.Stats.Insts == InterpInsts[I], "micro-insts",
                 "pipeline committed " + str(R.Cold.Stats.Insts) +
                     ", interpreter retired " + str(InterpInsts[I]));
        double Width = Config.CommitWidth - 4.0 * injectDelta("micro-ipc");
        const PipelineStats &S = R.Cold.Stats;
        O.expect(S.Cycles > 0 && S.ipc() <= Width, "micro-ipc",
                 "IPC " + std::to_string(S.ipc()) +
                     " exceeds the commit width");
        O.expect(edgeTotalOk(A, R.EdgeTotal), "micro-edges",
                 "edge-profile total " + str(R.EdgeTotal) +
                     " does not match interval " + str(A.Interval),
                 A.F == Cbs && A.Dup == FullDup ? CbsFullDupPeriod : nullptr);
        if (A.F == Brr && A.Interval == 1024) {
          const ArmRun &CbsRun = Rounds[Round][matchingCbsArm(I)];
          uint64_t Limit = injectDelta("micro-order") ? 0 : roi(CbsRun);
          O.expect(roi(R) > 0 && roi(R) < Limit, "micro-order",
                   "brr ROI cycles not below the matching cbs arm");
        }
        const PipelineStats &F = First.Cold.Stats;
        O.expect(S.Cycles + injectDelta("micro-determinism") == F.Cycles &&
                     S.CondMispredicts == F.CondMispredicts &&
                     R.Cold.L1dMisses == First.Cold.L1dMisses,
                 "micro-determinism", "modelled statistics differ by round");
        Acc.add(O);
      }
    }
  }

  uint64_t instsPerRound() const override {
    uint64_t N = 0;
    for (const ArmRun &R : Rounds.front())
      N += R.Cold.Stats.Insts;
    return N;
  }

  uint64_t eventsPerRound() const override {
    uint64_t N = 0;
    for (const auto &B : Programs)
      N += B->MB.DynamicSiteVisits;
    return N;
  }

  void printModelled() const override {
    const std::vector<ArmRun> &Runs = Rounds.front();
    uint64_t Base = roi(Runs[0]);
    for (size_t I = 0; I != NumArms; ++I) {
      const ArmRun &R = Runs[I];
      const PipelineStats &S = R.Cold.Stats;
      double Overhead = 100.0 * (static_cast<double>(roi(R)) -
                                 static_cast<double>(Base)) /
                        static_cast<double>(Base);
      std::printf("model micro-detailed %-17s insts=%llu cycles=%llu "
                  "roi_cycles=%llu ipc=%.4f overhead_pct=%.3f "
                  "cond_mispredicts=%llu l1d_misses=%llu l2_misses=%llu "
                  "edge_total=%llu pages=%llu\n",
                  Arms[I].Name, static_cast<unsigned long long>(S.Insts),
                  static_cast<unsigned long long>(S.Cycles),
                  static_cast<unsigned long long>(roi(R)), S.ipc(), Overhead,
                  static_cast<unsigned long long>(S.CondMispredicts),
                  static_cast<unsigned long long>(R.Cold.L1dMisses),
                  static_cast<unsigned long long>(R.Cold.L2Misses),
                  static_cast<unsigned long long>(R.EdgeTotal),
                  static_cast<unsigned long long>(R.Cold.Pages));
    }
  }

  void layerMetrics(LayerValues &V, size_t TracedRounds) const override {
    std::vector<ColdRun> Cold;
    for (const ArmRun &R : Rounds.front())
      Cold.push_back(R.Cold);
    setPipelineLayerMetrics(V, Cold, TracedRounds, {"none", "cbs", "brr"});
  }

private:
  static uint64_t roi(const ArmRun &R) {
    const std::vector<MarkerEvent> &Mk = R.Cold.Markers;
    return Mk.size() >= 2 ? Mk[1].CommitCycle - Mk[0].CommitCycle : 0;
  }

  /// The edge-profile total an arm's check placement and interval imply:
  /// three site visits per character; No-Duplication checks every visit,
  /// Full-Duplication checks once per character and then runs all three
  /// sites. Counters fire exactly every Interval-th check; brr fires each
  /// check independently with probability 1/Interval.
  static bool edgeTotalOk(const Arm &A, uint64_t Total) {
    Total += injectDelta("micro-edges") * 1000;
    if (A.F == None)
      return Total == 0;
    uint64_t Checks = A.Dup == NoDup ? 3 * NumChars : NumChars;
    uint64_t PerFire = A.Dup == NoDup ? 1 : 3;
    if (Total % PerFire)
      return false;
    double Fires = static_cast<double>(Total / PerFire);
    double Expected = static_cast<double>(Checks) /
                      static_cast<double>(A.Interval);
    if (A.F == Cbs)
      return std::fabs(Fires - std::floor(Expected)) <= 1.0;
    return std::fabs(Fires - Expected) <=
           binomialSlack(Checks, 1.0 / static_cast<double>(A.Interval));
  }

  uint64_t TextSeed = 0;
  PipelineConfig Config;
  std::vector<std::unique_ptr<Built>> Programs;
  std::vector<std::vector<ArmRun>> Rounds;
};

} // namespace

std::unique_ptr<Workload> makeMicroDetailed() {
  return std::make_unique<MicroDetailed>();
}

} // namespace perfbench
