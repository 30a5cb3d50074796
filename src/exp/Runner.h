//===- exp/Runner.h - Parallel, deterministic experiment execution -------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an ExperimentSpec's grid: Setup once, then every cell on a
/// fixed-size ThreadPool (one worker when Threads == 1), then the serial
/// Summarize stage. Results are collected into spec order regardless of
/// completion order, so the records a sink sees (and therefore the JSON
/// written) are byte-identical for any thread count: parallelism is pure
/// mechanism, never policy. Optional RunnerHooks add observability — a
/// trace span per stage and cell, and a periodic progress heartbeat on
/// stderr — without touching the measurement path.
///
/// With a per-cell wall-clock timeout, a cell that overruns is abandoned:
/// the runner substitutes an explicit marker record
/// (cell_status = "timeout") for it, skips the summary stage, and the
/// driver exits with the partial-result status (3) instead of pretending
/// the grid completed.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_EXP_RUNNER_H
#define BOR_EXP_RUNNER_H

#include "exp/Experiment.h"
#include "exp/ResultSink.h"

namespace bor {
namespace exp {

/// How (and whether) progress reaches stderr while a grid runs.
enum class ProgressMode {
  Off,
  Text, ///< human line: "[bor-bench] fig13: 34/80 cells, ..."
  Jsonl ///< one JSON object per tick (machine-readable heartbeat)
};

/// Observability knobs for one runExperiment call.
struct RunnerHooks {
  /// Emits spans for Setup, every cell, and Summarize when non-null (with
  /// a non-null Trace), and tags per-interval time series per cell (with
  /// a non-null Series).
  const telemetry::TelemetrySink *Telemetry = nullptr;

  /// Progress reporting (cells done/total, elapsed, ETA) to stderr
  /// roughly every two seconds. The driver picks Text only when stderr is
  /// a TTY so piped output stays clean; Jsonl is the machine-readable
  /// heartbeat (--progress jsonl / BOR_HEARTBEAT=json).
  ProgressMode Progress = ProgressMode::Off;
};

/// Everything one grid run produced. The run is partial when any cell
/// timed out; those cells' records are explicit markers (the cell's
/// params plus a cell_status metric) and the summary stage is skipped,
/// since summaries over an incomplete grid would silently lie.
struct GridResult {
  std::vector<RunRecord> Records; ///< per-cell, spec order
  size_t CellsTimedOut = 0;

  bool partial() const { return CellsTimedOut != 0; }
};

/// Runs \p Spec's cells on \p Threads in-process workers and feeds every
/// record to each of \p Sinks in deterministic spec order. With
/// \p CellTimeoutS > 0 every cell runs on an abandonable thread and a
/// cell over that many seconds is replaced by its marker (see Runner.cpp
/// for what an abandoned cell may still touch).
GridResult runExperimentWith(const ExperimentSpec &Spec, unsigned Threads,
                             double CellTimeoutS,
                             const std::vector<ResultSink *> &Sinks,
                             const RunnerHooks &Hooks = RunnerHooks());

/// Runs \p Spec with \p Threads in-process workers and no cell timeout.
/// Returns the per-cell records (without the summary records).
std::vector<RunRecord> runExperiment(const ExperimentSpec &Spec,
                                     unsigned Threads,
                                     const std::vector<ResultSink *> &Sinks,
                                     const RunnerHooks &Hooks = RunnerHooks());

} // namespace exp
} // namespace bor

#endif // BOR_EXP_RUNNER_H
