//===- instr/CounterSampling.h - Software counter-based sampling ---------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The software counter-based sampling framework of Figure 1 / Figure 4
/// (left), as implemented by the Arnold–Ryder transform in Jikes: a global
/// countdown counter in memory, checked and decremented at every sampling
/// site, reloaded from a reset value whenever a sample fires. These helpers
/// emit exactly the Figure-4 instruction sequence:
///
///     load rCount, (mCount)
///     br=  rCount, 0, uncommon
///   common:
///     sub  rCount, 1
///     stor rCount, (mCount)
///     ...
///   uncommon:
///     load rCount, (mReset)
///     # collect profile...
///     goto common
///
//===----------------------------------------------------------------------===//

#ifndef BOR_INSTR_COUNTERSAMPLING_H
#define BOR_INSTR_COUNTERSAMPLING_H

#include "isa/ProgramBuilder.h"

namespace bor {

/// Where the countdown lives; see InstrumentationConfig::CounterHome.
enum class CounterHome {
  Memory,   ///< mCount/mReset in the data segment (the Jikes scheme).
  Register, ///< pinned in RegCounter (r27), reserved program-wide.
};

/// The framework's global state: either mCount and mReset in the data
/// segment (addressed off RegGlobals with 16-bit displacements), or a
/// dedicated countdown register.
class CounterGlobals {
public:
  /// Allocates and statically initializes the counter state so that the
  /// first sample fires on the Interval-th site execution and every
  /// Interval-th one after that. \p GlobalsBase is the runtime value of
  /// RegGlobals. Register-resident counters also need emitSetup() in the
  /// program prologue.
  CounterGlobals(ProgramBuilder &B, uint64_t Interval, uint64_t GlobalsBase,
                 CounterHome Home = CounterHome::Memory);

  /// Emits one-time initialization (register-resident counters only; a
  /// no-op for memory counters, whose state is data-initialized).
  void emitSetup(ProgramBuilder &B) const;

  /// load rCount / branch-if-zero to \p Uncommon. Falls through to the
  /// common path.
  void emitLoadAndCheck(ProgramBuilder &B,
                        ProgramBuilder::LabelId Uncommon) const;

  /// sub rCount, 1 / stor rCount — the tail of the common path.
  void emitDecrementStore(ProgramBuilder &B) const;

  /// load rCount, (mReset) — head of the uncommon (sample) path, which then
  /// falls through the common decrement/store.
  void emitLoadReset(ProgramBuilder &B) const;

  /// Full-Duplication variant, used at the entry of the instrumented code
  /// version: reset the counter to Interval-1 (load reset, decrement, store
  /// to count), since that copy skips the common path's decrement.
  void emitResetCounter(ProgramBuilder &B) const;

  uint64_t countAddr() const { return CountAddr; }
  uint64_t resetAddr() const { return ResetAddr; }
  CounterHome home() const { return Home; }

private:
  int32_t countDisp() const;
  int32_t resetDisp() const;

  uint64_t CountAddr = 0;
  uint64_t ResetAddr = 0;
  uint64_t GlobalsBase;
  uint64_t Interval;
  CounterHome Home;
};

} // namespace bor

#endif // BOR_INSTR_COUNTERSAMPLING_H
