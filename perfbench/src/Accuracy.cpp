//===- perfbench/src/Accuracy.cpp - accuracy-streams workload ------------===//
//
// Figures 9 and 10 at trace level: the eight DaCapo-analogue invocation
// models at intervals 2^10 and 2^13 under the software-counter,
// hardware-counter and three-seed brr policies, scored by overlap
// accuracy. The only workload where profile/, lfsr/ and core/ do the work
// with no simulator. Streams are generated in setup and replayed from
// memory, so a round times the policies and profiles alone.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "profile/Accuracy.h"
#include "profile/SamplingPolicy.h"
#include "profile/TraceGen.h"

#include <algorithm>
#include <array>
#include <cstdio>

using namespace bor;

namespace perfbench {
namespace {

/// Invocation counts are the paper's divided by this (fop 140 K events up
/// to luindex 4.24 M; 18.2 M events per model sweep).
constexpr uint64_t ScaleDivisor = 50;
constexpr uint64_t Intervals[] = {1024, 8192};
constexpr unsigned NumBrrSeeds = 3;
/// Policies in result order: sw counter, hw counter, then the brr seeds.
constexpr unsigned NumPolicies = 2 + NumBrrSeeds;

struct ModelRun {
  uint64_t FullTotal = 0;
  std::vector<uint64_t> FullCounts;
  std::array<std::vector<uint64_t>, 2> CounterCounts; ///< sw, hw
  std::array<uint64_t, NumBrrSeeds> BrrTotals{};
  std::array<double, NumPolicies> Accuracy{};
};

/// Histogram of \p Stream restricted to every \p Step-th event, starting at
/// event Step-1 (Step 1 = the whole stream).
std::vector<uint64_t> histogram(const std::vector<uint16_t> &Stream,
                                uint32_t NumMethods, uint64_t Step) {
  std::vector<uint64_t> H(NumMethods, 0);
  for (uint64_t I = Step - 1; I < Stream.size(); I += Step)
    ++H[Stream[I]];
  return H;
}

class AccuracyStreams : public Workload {
public:
  void setup(uint64_t Seed) override {
    SeedSource Seeds(Seed);
    Models = dacapoAnalogues(ScaleDivisor);
    for (BenchmarkModel &M : Models)
      M.Seed = Seeds.next();
    for (BrrUnitConfig &C : BrrConfigs)
      C.Seed = Seeds.nextLfsrSeed();
    Streams.assign(Models.size(), {});
    for (size_t I = 0; I != Models.size(); ++I) {
      Span S("profile.stream_gen", Models[I].Name);
      InvocationStream Gen(Models[I]);
      std::vector<uint16_t> &Out = Streams[I];
      Out.reserve(Gen.total());
      while (!Gen.done())
        Out.push_back(static_cast<uint16_t>(Gen.next()));
      S.setCount(Out.size());
    }
  }

  void round() override {
    std::vector<ModelRun> Runs;
    for (size_t I = 0; I != Models.size(); ++I)
      for (uint64_t Interval : Intervals)
        Runs.push_back(runModel(I, Interval));
    Rounds.push_back(std::move(Runs));
  }

  size_t opsPerRound() const override {
    return Models.size() * std::size(Intervals);
  }

  void check(Accounting &Acc) override {
    std::vector<std::vector<uint64_t>> RefFull(Models.size());
    std::vector<std::vector<std::vector<uint64_t>>> RefNth(Models.size());
    for (size_t I = 0; I != Models.size(); ++I) {
      RefFull[I] = histogram(Streams[I], Models[I].NumMethods, 1);
      for (uint64_t Interval : Intervals)
        RefNth[I].push_back(
            histogram(Streams[I], Models[I].NumMethods, Interval));
    }

    for (size_t Round = 0; Round != Rounds.size(); ++Round) {
      for (size_t I = 0; I != Models.size(); ++I) {
        const BenchmarkModel &M = Models[I];
        for (size_t K = 0; K != std::size(Intervals); ++K) {
          const uint64_t Interval = Intervals[K];
          const size_t Index = I * std::size(Intervals) + K;
          const ModelRun &R = Rounds[Round][Index];
          Op O("accuracy-streams/" + M.Name + "/" + str(Interval) +
               "/round" + str(Round));
          O.expect(R.FullTotal ==
                           M.Invocations + injectDelta("acc-full-total") &&
                       R.FullCounts == RefFull[I],
                   "acc-full-total",
                   "full profile total " + str(R.FullTotal) + " of " +
                       str(M.Invocations) + " invocations");
          std::vector<uint64_t> Nth = RefNth[I][K];
          Nth[0] += injectDelta("acc-every-nth");
          O.expect(R.CounterCounts[0] == Nth && R.CounterCounts[1] == Nth,
                   "acc-every-nth",
                   "a counter policy did not sample exactly every " +
                       str(Interval) + "th event");
          double Mean = static_cast<double>(M.Invocations) /
                        static_cast<double>(Interval);
          double Slack = binomialSlack(M.Invocations,
                                       1.0 / static_cast<double>(Interval));
          for (uint64_t Total : R.BrrTotals)
            O.expect(std::fabs(static_cast<double>(
                                   Total + injectDelta("acc-brr-binomial") *
                                               M.Invocations) -
                               Mean) <= Slack,
                     "acc-brr-binomial",
                     "brr sampled " + str(Total) + ", expected " +
                         std::to_string(Mean));
          double Hi = 100.0 - 100.0 * injectDelta("acc-range");
          for (double A : R.Accuracy)
            O.expect(A >= 0.0 && A <= Hi, "acc-range",
                     "accuracy " + std::to_string(A) + " outside [0, 100]");
          if (M.Name == "jython" || M.Name == "pmd") {
            double Brr = 0;
            for (unsigned P = 2; P != NumPolicies; ++P)
              Brr += R.Accuracy[P] / NumBrrSeeds;
            double Sw = R.Accuracy[0] + 100.0 * injectDelta("acc-resonance");
            O.expect(Brr > Sw, "acc-resonance",
                     "brr " + std::to_string(Brr) +
                         " does not beat the software counter " +
                         std::to_string(Sw));
          }
          const ModelRun &First = Rounds[0][Index];
          O.expect(R.Accuracy == First.Accuracy &&
                       R.BrrTotals[0] + injectDelta("acc-determinism") ==
                           First.BrrTotals[0],
                   "acc-determinism", "results differ by round");
          Acc.add(O);
        }
      }
    }
  }

  uint64_t instsPerRound() const override {
    // The simulated instructions here are the brr evaluations of the
    // hardware models: three LFSR units and the hardware counter per event.
    return (NumPolicies - 1) * eventsPerRound();
  }

  uint64_t eventsPerRound() const override {
    uint64_t N = 0;
    for (const BenchmarkModel &M : Models)
      N += M.Invocations * std::size(Intervals);
    return N;
  }

  void printModelled() const override {
    const std::vector<ModelRun> &Runs = Rounds.front();
    for (size_t I = 0; I != Models.size(); ++I)
      for (size_t K = 0; K != std::size(Intervals); ++K) {
        const ModelRun &R = Runs[I * std::size(Intervals) + K];
        std::printf("model accuracy-streams %-8s interval=%-5llu "
                    "invocations=%llu sw_count=%.4f hw_count=%.4f "
                    "brr=%.4f,%.4f,%.4f brr_samples=%llu,%llu,%llu\n",
                    Models[I].Name.c_str(),
                    static_cast<unsigned long long>(Intervals[K]),
                    static_cast<unsigned long long>(R.FullTotal),
                    R.Accuracy[0], R.Accuracy[1], R.Accuracy[2],
                    R.Accuracy[3], R.Accuracy[4],
                    static_cast<unsigned long long>(R.BrrTotals[0]),
                    static_cast<unsigned long long>(R.BrrTotals[1]),
                    static_cast<unsigned long long>(R.BrrTotals[2]));
      }
  }

  void layerMetrics(LayerValues &V, size_t TracedRounds) const override {
    Tracer &T = Tracer::get();
    for (const BenchmarkModel &Model : Models)
      V["profile.model_ms." + Model.Name] =
          msPerRound(T.sumMs("profile.model", Model.Name), TracedRounds);
    V["profile.overlap_ms"] =
        msPerRound(T.sumMs("profile.overlap"), TracedRounds);
  }

private:
  ModelRun runModel(size_t Model, uint64_t Interval) const {
    const BenchmarkModel &M = Models[Model];
    const std::vector<uint16_t> &Stream = Streams[Model];
    MethodProfile Full(M.NumMethods), Sw(M.NumMethods), Hw(M.NumMethods);
    std::vector<MethodProfile> Rand(NumBrrSeeds, MethodProfile(M.NumMethods));
    {
      Span S("profile.model", M.Name);
      SwCounterPolicy SwP(Interval);
      HwCounterPolicy HwP(Interval);
      std::vector<BrrPolicy> RandP;
      for (const BrrUnitConfig &C : BrrConfigs)
        RandP.emplace_back(Interval, C);
      for (uint16_t Id : Stream) {
        Full.record(Id);
        if (SwP.sample())
          Sw.record(Id);
        if (HwP.sample())
          Hw.record(Id);
        for (unsigned P = 0; P != NumBrrSeeds; ++P)
          if (RandP[P].sample())
            Rand[P].record(Id);
      }
      S.setCount(Stream.size());
    }
    ModelRun R;
    {
      Span S("profile.overlap", M.Name);
      R.Accuracy[0] = overlapAccuracy(Full, Sw);
      R.Accuracy[1] = overlapAccuracy(Full, Hw);
      for (unsigned P = 0; P != NumBrrSeeds; ++P)
        R.Accuracy[2 + P] = overlapAccuracy(Full, Rand[P]);
    }
    R.FullTotal = Full.total();
    R.FullCounts = Full.counts();
    R.CounterCounts[0] = Sw.counts();
    R.CounterCounts[1] = Hw.counts();
    for (unsigned P = 0; P != NumBrrSeeds; ++P)
      R.BrrTotals[P] = Rand[P].total();
    return R;
  }

  std::vector<BenchmarkModel> Models;
  std::array<BrrUnitConfig, NumBrrSeeds> BrrConfigs;
  std::vector<std::vector<uint16_t>> Streams;
  std::vector<std::vector<ModelRun>> Rounds;
};

} // namespace

std::unique_ptr<Workload> makeAccuracyStreams() {
  return std::make_unique<AccuracyStreams>();
}

} // namespace perfbench
