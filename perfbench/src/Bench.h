//===- perfbench/src/Bench.h - Shared workload interface -----------------===//
//
// A workload builds its inputs from the run seed (setup), runs one round of
// operations through the library's engines (round, the timed part), and
// afterwards checks every operation of every round against values computed
// apart from the simulator or against properties the method must have.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Trace.h"

#include "support/Rng.h"
#include "uarch/Pipeline.h"

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Seeds of every generated input, derived from the one run seed.
class SeedSource {
public:
  explicit SeedSource(uint64_t Seed) : Gen(Seed) {}
  /// The next well-mixed 64-bit value.
  uint64_t next() { return Gen.next(); }
  /// A seed for a 20-bit LFSR brr unit: nonzero in its low 20 bits.
  uint64_t nextLfsrSeed();

private:
  bor::SplitMix64 Gen;
};

/// The name of the check to sabotage (--inject), or empty. A sabotaged
/// check compares against a deliberately wrong expected value, so the
/// benchmark's own test can show that each kind of check fails.
const std::string &injectedCheck();
inline uint64_t injectDelta(const char *Kind) {
  return injectedCheck() == Kind ? 1 : 0;
}

/// Check accounting for one operation: one program run through one engine.
class Op {
public:
  explicit Op(std::string Label) : Label(std::move(Label)) {}
  /// Records one check; a false \p Cond fails the operation. \p KnownFault
  /// names a documented library fault that makes this check fail on every
  /// seed: the operation still counts as failed, but the run stays correct.
  bool expect(bool Cond, const char *Kind, const std::string &Detail,
              const char *KnownFault = nullptr);
  bool ok() const { return Ok; }
  bool unexpectedFailure() const { return Unexpected; }

private:
  std::string Label;
  bool Ok = true;
  bool Unexpected = false;
};

struct Accounting {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Failed operations with a check that no known fault explains.
  uint64_t Unexpected = 0;
  void add(const Op &O) {
    ++Attempted;
    Failed += O.ok() ? 0 : 1;
    Unexpected += O.unexpectedFailure() ? 1 : 0;
  }
};

/// Per-layer metric values by name; units live in main.cpp's list.
using LayerValues = std::map<std::string, double>;

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds the inputs and programs for \p Seed, replacing earlier ones.
  virtual void setup(uint64_t Seed) = 0;
  /// One round of operations; the only timed code.
  virtual void round() = 0;
  virtual size_t opsPerRound() const = 0;
  /// Checks every operation of every round run so far.
  virtual void check(Accounting &Acc) = 0;

  /// Simulated instructions and profile events one round covers.
  virtual uint64_t instsPerRound() const = 0;
  virtual uint64_t eventsPerRound() const = 0;

  /// Prints the modelled statistics of the first round, one line each,
  /// prefixed "model ", in a form that is identical across runs.
  virtual void printModelled() const = 0;

  /// Per-layer metrics from the spans of the traced rounds (the tracer's
  /// current window) and from the library's own phase timers.
  virtual void layerMetrics(LayerValues &V, size_t TracedRounds) const = 0;
};

/// What a cold, full Pipeline run of one program leaves behind.
struct ColdRun {
  bor::PipelineStats Stats;
  std::vector<bor::MarkerEvent> Markers;
  uint64_t L1dMisses = 0;
  uint64_t L2Misses = 0;
  uint64_t Pages = 0; ///< 4 KiB pages of simulated memory touched
};

/// Runs \p DP through a fresh Pipeline inside a "uarch.pipeline" span
/// tagged \p Tag, then hands the final memory to \p ReadBack.
ColdRun runCold(const bor::DecodedProgram &DP,
                const bor::PipelineConfig &Config, const std::string &Tag,
                const std::function<void(const bor::Memory &)> &ReadBack);

/// The uarch.* per-layer metrics: host time and throughput of the traced
/// rounds' "uarch.pipeline" spans, overall and for each of \p Tags, and
/// the modelled statistics of the cold runs of one round.
void setPipelineLayerMetrics(LayerValues &V, const std::vector<ColdRun> &Round,
                             size_t TracedRounds,
                             const std::vector<std::string> &Tags);

std::unique_ptr<Workload> makeMicroDetailed();
std::unique_ptr<Workload> makeKernelsDetailed();
std::unique_ptr<Workload> makeAppsSampled();
std::unique_ptr<Workload> makeAccuracyStreams();

/// Largest deviation from the mean n*p that a binomial count is allowed in
/// the checks: six standard deviations plus one.
inline double binomialSlack(uint64_t N, double P) {
  return 6.0 * std::sqrt(static_cast<double>(N) * P * (1.0 - P)) + 1.0;
}

inline std::string str(uint64_t V) { return std::to_string(V); }

inline double msPerRound(double TotalMs, size_t Rounds) {
  return Rounds ? TotalMs / static_cast<double>(Rounds) : 0.0;
}

/// Millions of items per second of \p Ms milliseconds (0 when none).
inline double mPerSec(uint64_t Items, double Ms) {
  return Ms > 0 ? static_cast<double>(Items) / (Ms * 1e3) : 0.0;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
