//===- exp/Runner.cpp - Parallel, deterministic experiment execution -----===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//

#include "exp/Runner.h"

#include "exp/Json.h"
#include "exp/ThreadPool.h"
#include "telemetry/Counters.h"
#include "telemetry/Telemetry.h"

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

namespace bor {
namespace exp {

namespace {

/// Progress reporting for long grids: workers call cellDone() as cells
/// finish; a line goes to stderr at most every ~2 seconds (plus a final
/// one), with an ETA extrapolated from completed-cell wall-clock.
class Heartbeat {
public:
  Heartbeat(ProgressMode Mode, const std::string &Name, size_t Total)
      : Mode(Total > 0 ? Mode : ProgressMode::Off), Name(Name), Total(Total),
        Start(Clock::now()), LastPrint(Start) {}

  void cellDone() {
    if (Mode == ProgressMode::Off)
      return;
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Done;
    Clock::time_point Now = Clock::now();
    if (Done != Total && secondsBetween(LastPrint, Now) < 2.0)
      return;
    LastPrint = Now;
    double Elapsed = secondsBetween(Start, Now);
    double Eta =
        static_cast<double>(Total - Done) * Elapsed / static_cast<double>(Done);
    if (Mode == ProgressMode::Text) {
      std::fprintf(stderr,
                   "[bor-bench] %s: %zu/%zu cells, %.1fs elapsed, ETA %.1fs\n",
                   Name.c_str(), Done, Total, Elapsed, Eta);
      return;
    }
    // Jsonl: one self-contained object per tick, consumable line by line.
    JsonObjectWriter W;
    W.field("experiment", Name);
    W.fieldRaw("cells_done", jsonNumber(static_cast<uint64_t>(Done)));
    W.fieldRaw("cells_total", jsonNumber(static_cast<uint64_t>(Total)));
    W.fieldRaw("elapsed_s", jsonNumber(Elapsed));
    W.fieldRaw("eta_s", jsonNumber(Eta));
    std::fprintf(stderr, "%s\n", W.finish().c_str());
  }

private:
  using Clock = std::chrono::steady_clock;

  static double secondsBetween(Clock::time_point A, Clock::time_point B) {
    return std::chrono::duration<double>(B - A).count();
  }

  const ProgressMode Mode;
  const std::string Name;
  const size_t Total;
  const Clock::time_point Start;
  std::mutex Mutex;
  Clock::time_point LastPrint;
  size_t Done = 0;
};

/// How one cell's execution ended.
enum class CellOutcome {
  Done,    ///< the cell's record is in place
  TimedOut ///< exceeded the per-cell wall-clock budget
};

/// Shared state between a timed cell and its abandonable thread. The
/// thread owns a reference; once the waiter gives up, the thread's
/// eventual result is dropped on the floor and the state dies with the
/// thread.
struct TimedAttempt {
  std::mutex M;
  std::condition_variable CV;
  bool Done = false;
  bool Abandoned = false;
  RunRecord Record;
};

/// Runs \p Fn on a detached thread and waits up to \p TimeoutS seconds.
/// Returns true (with \p Out filled) when the cell finished in time.
bool runAbandonable(std::function<RunRecord()> Fn, double TimeoutS,
                    RunRecord &Out) {
  auto State = std::make_shared<TimedAttempt>();
  std::thread([State, Fn = std::move(Fn)] {
    RunRecord R = Fn();
    std::lock_guard<std::mutex> Lock(State->M);
    if (!State->Abandoned)
      State->Record = std::move(R);
    State->Done = true;
    State->CV.notify_all();
  }).detach();

  std::unique_lock<std::mutex> Lock(State->M);
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double>(TimeoutS));
  if (State->CV.wait_until(Lock, Deadline,
                           [&State] { return State->Done; })) {
    Out = std::move(State->Record);
    return true;
  }
  State->Abandoned = true;
  return false;
}

/// The explicit stand-in record for a cell that timed out: its grid
/// coordinates survive (so rows still line up downstream), and
/// cell_status says what happened instead of metrics.
RunRecord makeTimeoutMarker(const ExperimentSpec &Spec, size_t Index) {
  RunRecord R;
  R.Params = Spec.Cells[Index];
  R.metric("cell_status", std::string("timeout"));
  return R;
}

} // namespace

GridResult runExperimentWith(const ExperimentSpec &Spec, unsigned Threads,
                             double CellTimeoutS,
                             const std::vector<ResultSink *> &Sinks,
                             const RunnerHooks &Hooks) {
  assert(Spec.Run && "experiment has no run functor");
  telemetry::TraceWriter *TW =
      Hooks.Telemetry ? Hooks.Telemetry->Trace : nullptr;
  const size_t N = Spec.Cells.size();

  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter Experiments("exp.experiments");
    static const telemetry::Counter Cells("exp.cells");
    Experiments.add();
    Cells.add(N);
  }

  if (Spec.Setup) {
    telemetry::TraceSpan Span(TW, "setup", "experiment",
                              {telemetry::TraceArg::str("experiment",
                                                        Spec.Name)});
    telemetry::TimeSeries::Scope Tag(Spec.Name,
                                     telemetry::TimeSeries::kSetupCell);
    Spec.Setup();
  }

  GridResult Out;
  Out.Records.resize(N);
  std::vector<CellOutcome> Outcomes(N, CellOutcome::Done);
  Heartbeat HB(Hooks.Progress, Spec.Name, N);

  auto RunOne = [&](size_t I) {
    if (CellTimeoutS <= 0) {
      telemetry::TraceSpan Span(
          TW, "cell", "experiment",
          {telemetry::TraceArg::str("experiment", Spec.Name),
           telemetry::TraceArg::num("index", static_cast<uint64_t>(I))});
      // Tag any sampled run inside this cell for the time-series sink;
      // the cell index (not the worker thread) keys the series, which is
      // what keeps timeseries.json thread-count-invariant.
      telemetry::TimeSeries::Scope Tag(Spec.Name, static_cast<int64_t>(I));
      Out.Records[I] = Spec.Run(Spec.Cells[I], I);
      Span.close();
    } else {
      // A cell over the budget is abandoned, not interrupted: it keeps
      // running detached until it finishes or the process exits. It runs
      // a value-captured copy of the run functor and the cell's
      // parameters, without this frame's trace span or time-series tag,
      // so it never dangles into the runner's stack. That does not make
      // it self-contained: factories capture the raw telemetry-sink and
      // checkpoint-pool pointers of ExperimentOptions into their run
      // functors (a sampled cell emits a trace span every period), and
      // those objects die with the driver. The driver therefore refuses
      // --cell-timeout together with --trace, --flamegraph, --run-dir or
      // --ckpt-library, the flags that make those pointers non-null.
      std::function<RunRecord()> Timed =
          [Run = Spec.Run, Cell = Spec.Cells[I], I]() { return Run(Cell, I); };
      if (!runAbandonable(std::move(Timed), CellTimeoutS, Out.Records[I])) {
        Outcomes[I] = CellOutcome::TimedOut;
        if (telemetry::CounterRegistry::enabled()) {
          static const telemetry::Counter TimedOut("exp.cells.timedout");
          TimedOut.add();
        }
      }
    }
    HB.cellDone();
  };

  // Multi-cell grids always go through the pool — even with one worker —
  // so the pool's telemetry counters depend only on the grid, never on
  // the --threads value, keeping counter snapshots thread-count-invariant
  // just like the result records.
  if (N <= 1) {
    for (size_t I = 0; I != N; ++I)
      RunOne(I);
  } else {
    ThreadPool Pool(Threads);
    for (size_t I = 0; I != N; ++I)
      Pool.submit([&RunOne, I] { RunOne(I); });
    Pool.wait();
  }

  for (size_t I = 0; I != N; ++I) {
    if (Outcomes[I] == CellOutcome::TimedOut) {
      ++Out.CellsTimedOut;
      Out.Records[I] = makeTimeoutMarker(Spec, I);
    }
  }

  // A summary over an incomplete grid would average holes into lies;
  // partial runs ship the per-cell truth (markers included) and nothing
  // derived.
  std::vector<RunRecord> Summaries;
  if (Spec.Summarize && !Out.partial()) {
    telemetry::TraceSpan Span(TW, "summarize", "experiment",
                              {telemetry::TraceArg::str("experiment",
                                                        Spec.Name)});
    telemetry::TimeSeries::Scope Tag(Spec.Name,
                                     telemetry::TimeSeries::kSummarizeCell);
    Summaries = Spec.Summarize(Out.Records);
  } else if (Spec.Summarize) {
    std::fprintf(stderr,
                 "[bor-bench] %s: %zu/%zu cells timed out; skipping "
                 "summary stage\n",
                 Spec.Name.c_str(), Out.CellsTimedOut, N);
  }

  for (ResultSink *Sink : Sinks)
    Sink->begin(Spec);
  for (const RunRecord &R : Out.Records)
    for (ResultSink *Sink : Sinks)
      Sink->record(R, /*IsSummary=*/false);
  for (const RunRecord &R : Summaries)
    for (ResultSink *Sink : Sinks)
      Sink->record(R, /*IsSummary=*/true);
  for (ResultSink *Sink : Sinks)
    Sink->end();

  return Out;
}

std::vector<RunRecord> runExperiment(const ExperimentSpec &Spec,
                                     unsigned Threads,
                                     const std::vector<ResultSink *> &Sinks,
                                     const RunnerHooks &Hooks) {
  return runExperimentWith(Spec, Threads, /*CellTimeoutS=*/0, Sinks, Hooks)
      .Records;
}

} // namespace exp
} // namespace bor
