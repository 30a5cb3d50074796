//===- perfbench/src/main.cpp - Simulator-speed benchmark entry point -----===//
//
// Usage:
//   borperf --workload NAME --seed N --seconds S --trace 0|1
//           [--inject CHECK] [--spans PATH]
//
// Sets the workload up several times (setup_s is the median), then runs
// whole rounds of its operations until S seconds have passed (run_s is the
// median round time), then checks every operation of every round. With
// --trace 1 the first half of the time runs untraced and the second half
// traced, and the per-layer metrics come from the traced rounds' spans.
// The last line of stdout is one JSON object; the exit status is nonzero
// when any operation failed a check that no known library fault explains.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>

using namespace perfbench;

namespace {

/// setup() runs at least MinSetupReps times and then again while the
/// repetitions so far took under SetupBudgetS; setup_s is their median.
constexpr int MinSetupReps = 3;
constexpr int MaxSetupReps = 50;
constexpr double SetupBudgetS = 1.0;

/// Every per-layer metric, in the order BENCHMARK.json lists them. A layer
/// that a workload does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>> &layerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"workloads.build_ms", "ms"},
      {"sim.decode_ms", "ms"},
      {"sim.interp_run_minst_per_s", "Minst/s"},
      {"uarch.pipeline_ms", "ms"},
      {"uarch.pipeline_minst_per_s", "Minst/s"},
      {"uarch.pipeline_minst_per_s.none", "Minst/s"},
      {"uarch.pipeline_minst_per_s.cbs", "Minst/s"},
      {"uarch.pipeline_minst_per_s.brr", "Minst/s"},
      {"uarch.pipeline_minst_per_s.crc32", "Minst/s"},
      {"uarch.pipeline_minst_per_s.sort", "Minst/s"},
      {"uarch.pipeline_minst_per_s.strsearch", "Minst/s"},
      {"uarch.pipeline_minst_per_s.matmul", "Minst/s"},
      {"uarch.pipeline_minst_per_s.listsum", "Minst/s"},
      {"uarch.host_ns_per_sim_cycle", "ns"},
      {"uarch.sim_cycles", "cycles"},
      {"uarch.frontend_flush_cycles", "cycles"},
      {"uarch.backend_flush_cycles", "cycles"},
      {"uarch.icache_stall_cycles", "cycles"},
      {"uarch.sim_ipc", "inst/cycle"},
      {"uarch.cond_mispredicts", "count"},
      {"uarch.l1d_misses", "count"},
      {"uarch.l2_misses", "count"},
      {"sample.ff_ms", "ms"},
      {"sample.warm_ms", "ms"},
      {"sample.measure_ms", "ms"},
      {"sample.warm_minst_per_s", "Minst/s"},
      {"sample.detailed_minst_per_s", "Minst/s"},
      {"ckpt.build_ms", "ms"},
      {"ckpt.build_minst_per_s", "Minst/s"},
      {"ckpt.resume_ms", "ms"},
      {"ckpt.library_mb", "MB"},
      {"ckpt.dedup_hits", "count"},
      {"profile.stream_gen_ms", "ms"},
      {"profile.model_ms.fop", "ms"},
      {"profile.model_ms.antlr", "ms"},
      {"profile.model_ms.bloat", "ms"},
      {"profile.model_ms.lusearch", "ms"},
      {"profile.model_ms.xalan", "ms"},
      {"profile.model_ms.jython", "ms"},
      {"profile.model_ms.pmd", "ms"},
      {"profile.model_ms.luindex", "ms"},
      {"profile.overlap_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return Names;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double secondsSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) / 1e9;
}

/// Runs whole rounds until \p Seconds have passed (at least one round) and
/// returns each round's wall time in seconds.
std::vector<double> timedRounds(Workload &W, double Seconds) {
  std::vector<double> Times;
  uint64_t Start = nowNs();
  do {
    uint64_t T0 = nowNs();
    {
      Span S("round");
      W.round();
    }
    Times.push_back(secondsSince(T0));
  } while (secondsSince(Start) < Seconds);
  return Times;
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/// One reported metric: name, value and unit.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

void printJson(bool Correct, const Accounting &Acc,
               const std::vector<Metric> &M) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Acc.Attempted),
              static_cast<unsigned long long>(Acc.Failed));
  for (size_t I = 0; I != M.size(); ++I) {
    const Metric &E = M[I];
    double V = std::isfinite(E.Value) ? E.Value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", E.Name.c_str(), V, E.Unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "borperf: %s\nusage: borperf --workload "
               "micro-detailed|kernels-detailed|apps-sampled|"
               "accuracy-streams --seed N --seconds S --trace 0|1 "
               "[--inject CHECK] [--spans PATH]\n",
               Msg);
  return 2;
}

std::string InjectName;

} // namespace

const std::string &perfbench::injectedCheck() { return InjectName; }

int main(int Argc, char **Argv) {
  std::string Name, SpansPath;
  uint64_t Seed = 0;
  double Seconds = -1;
  int TraceFlag = -1;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *A = Argv[I];
    const char *V = Value();
    if (!V)
      return usage("missing value for an option");
    char *End = nullptr;
    if (!std::strcmp(A, "--workload")) {
      Name = V;
    } else if (!std::strcmp(A, "--seed")) {
      Seed = std::strtoull(V, &End, 0);
      HaveSeed = *V && !*End;
    } else if (!std::strcmp(A, "--seconds")) {
      Seconds = std::strtod(V, &End);
      if (!*V || *End || !(Seconds > 0))
        return usage("--seconds must be a positive number");
    } else if (!std::strcmp(A, "--trace")) {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage("--trace must be 0 or 1");
      TraceFlag = V[0] - '0';
    } else if (!std::strcmp(A, "--inject")) {
      InjectName = V;
    } else if (!std::strcmp(A, "--spans")) {
      SpansPath = V;
    } else {
      return usage("unknown option");
    }
  }
  if (!HaveSeed || Seconds < 0 || TraceFlag < 0 || Name.empty())
    return usage("--workload, --seed, --seconds and --trace are required");

  std::unique_ptr<Workload> W;
  if (Name == "micro-detailed")
    W = makeMicroDetailed();
  else if (Name == "kernels-detailed")
    W = makeKernelsDetailed();
  else if (Name == "apps-sampled")
    W = makeAppsSampled();
  else if (Name == "accuracy-streams")
    W = makeAccuracyStreams();
  else
    return usage("unknown workload");

  const bool Traced = TraceFlag == 1;
  Tracer &T = Tracer::get();
  T.setEnabled(Traced);

  std::vector<double> SetupTimes;
  double SetupTotalS = 0;
  while (SetupTimes.size() < MinSetupReps ||
         (SetupTotalS < SetupBudgetS && SetupTimes.size() < MaxSetupReps)) {
    uint64_t T0 = nowNs();
    {
      Span S("setup");
      W->setup(Seed);
    }
    SetupTimes.push_back(secondsSince(T0));
    SetupTotalS += SetupTimes.back();
  }
  const double Reps = static_cast<double>(SetupTimes.size());
  const double SetupBuildMs = T.sumMs("workloads.build") / Reps;
  const double SetupDecodeMs = T.sumMs("sim.decode") / Reps;
  const double SetupStreamMs = T.sumMs("profile.stream_gen") / Reps;

  // Untraced rounds give the end-to-end figures; a traced run spends the
  // second half of its time traced and reports the slowdown between them.
  T.setEnabled(false);
  std::vector<double> Rounds = timedRounds(*W, Traced ? Seconds / 2 : Seconds);
  const double RunS = median(Rounds);
  std::vector<double> TracedRounds;
  if (Traced) {
    T.setEnabled(true);
    T.markWindow();
    TracedRounds = timedRounds(*W, Seconds / 2);
  }

  Accounting Acc;
  W->check(Acc);
  T.setEnabled(false);
  W->printModelled();

  std::vector<Metric> M;
  if (!Traced) {
    const double Insts = static_cast<double>(W->instsPerRound());
    const double Events = static_cast<double>(W->eventsPerRound());
    M = {{"setup_s", median(SetupTimes), "s"},
         {"run_s", RunS, "s"},
         {"sim_minst_per_s", Insts / RunS / 1e6, "Minst/s"},
         {"profile_mevents_per_s", Events / RunS / 1e6, "Mevents/s"},
         {"peak_rss_mb", peakRssMb(), "MB"}};
  } else {
    LayerValues Values;
    W->layerMetrics(Values, TracedRounds.size());
    Values["workloads.build_ms"] = SetupBuildMs;
    Values["sim.decode_ms"] = SetupDecodeMs;
    Values["profile.stream_gen_ms"] = SetupStreamMs;
    // The check passes run the interpreter over every simulated image.
    Values["sim.interp_run_minst_per_s"] =
        mPerSec(T.sumCount("sim.interp_run"), T.sumMs("sim.interp_run"));
    Values["trace.overhead_pct"] =
        100.0 * (median(TracedRounds) / RunS - 1.0);
    for (const auto &[Name, Unit] : layerMetricNames()) {
      auto It = Values.find(Name);
      M.push_back({Name, It == Values.end() ? 0.0 : It->second, Unit});
    }
    std::fprintf(stderr, "layer self time over the whole traced run (ms):\n");
    for (const auto &[Span, Ms] : T.selfMsByName())
      std::fprintf(stderr, "  %-24s %12.3f\n", Span.c_str(), Ms);
    if (!SpansPath.empty() && !T.writeChromeJson(SpansPath))
      std::fprintf(stderr, "borperf: cannot write spans to %s\n",
                   SpansPath.c_str());
  }

  std::printf("rounds %zu untraced, %zu traced; %zu operations per round\n",
              Rounds.size(), TracedRounds.size(), W->opsPerRound());
  std::fprintf(stderr, "round seconds:");
  for (double R : Rounds)
    std::fprintf(stderr, " %.4f", R);
  std::fprintf(stderr, "\nsetup seconds:");
  for (double S : SetupTimes)
    std::fprintf(stderr, " %.5f", S);
  std::fprintf(stderr, "\n");
  // Operations failed only by a known library fault (Bench.h) are counted
  // in "failed" but leave the run correct; any other failure fails the run.
  const bool Correct = Acc.Unexpected == 0;
  printJson(Correct, Acc, M);
  return Correct ? 0 : 1;
}
