//===- instr/CounterSampling.cpp - Software counter-based sampling -------===//

#include "instr/CounterSampling.h"

using namespace bor;

CounterGlobals::CounterGlobals(ProgramBuilder &B, uint64_t Interval,
                               uint64_t GlobalsBase, CounterHome Home)
    : GlobalsBase(GlobalsBase), Interval(Interval), Home(Home) {
  assert(Interval >= 1 && "sampling interval must be positive");
  if (Home == CounterHome::Register)
    return; // all state lives in RegCounter; see emitSetup().

  CountAddr = B.allocData(8, 8);
  ResetAddr = B.allocData(8, 8);
  // The check fires when the *loaded* count is zero and the uncommon path
  // reloads mReset before falling through the decrement. Starting at
  // Interval-1 and resetting to Interval makes every period exactly
  // Interval executions, including the first.
  B.initDataU64(CountAddr, Interval - 1);
  B.initDataU64(ResetAddr, Interval);
  B.nameData("cbs.count", CountAddr);
  B.nameData("cbs.reset", ResetAddr);
}

void CounterGlobals::emitSetup(ProgramBuilder &B) const {
  if (Home == CounterHome::Register)
    B.emitLoadConst(RegCounter, Interval - 1);
}

int32_t CounterGlobals::countDisp() const {
  int64_t D = static_cast<int64_t>(CountAddr) -
              static_cast<int64_t>(GlobalsBase);
  assert(D >= -32768 && D <= 32767 && "counter outside displacement range");
  return static_cast<int32_t>(D);
}

int32_t CounterGlobals::resetDisp() const {
  int64_t D = static_cast<int64_t>(ResetAddr) -
              static_cast<int64_t>(GlobalsBase);
  assert(D >= -32768 && D <= 32767 && "reset outside displacement range");
  return static_cast<int32_t>(D);
}

void CounterGlobals::emitLoadAndCheck(
    ProgramBuilder &B, ProgramBuilder::LabelId Uncommon) const {
  if (Home == CounterHome::Register) {
    B.emitBranch(Opcode::Beq, RegCounter, RegZero, Uncommon);
    return;
  }
  B.emit(Inst::ld(RegScratch, RegGlobals, countDisp()));
  B.emitBranch(Opcode::Beq, RegScratch, RegZero, Uncommon);
}

void CounterGlobals::emitDecrementStore(ProgramBuilder &B) const {
  if (Home == CounterHome::Register) {
    B.emit(Inst::addi(RegCounter, RegCounter, -1));
    return;
  }
  B.emit(Inst::addi(RegScratch, RegScratch, -1));
  B.emit(Inst::st(RegScratch, RegGlobals, countDisp()));
}

void CounterGlobals::emitLoadReset(ProgramBuilder &B) const {
  if (Home == CounterHome::Register) {
    // The uncommon path falls through the common decrement, so materialize
    // Interval here (decremented to Interval-1 on the way out).
    B.emitLoadConst(RegCounter, Interval);
    return;
  }
  B.emit(Inst::ld(RegScratch, RegGlobals, resetDisp()));
}

void CounterGlobals::emitResetCounter(ProgramBuilder &B) const {
  // The instrumented copy bypasses the common decrement, so apply it here:
  // leaving Interval-1 makes the next sample fire exactly Interval region
  // entries later, as on the No-Duplication uncommon path.
  if (Home == CounterHome::Register) {
    B.emitLoadConst(RegCounter, Interval - 1);
    return;
  }
  B.emit(Inst::ld(RegScratch, RegGlobals, resetDisp()));
  emitDecrementStore(B);
}
