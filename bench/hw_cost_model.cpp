//===- bench/hw_cost_model.cpp - Section 3.3 hardware cost estimates -----===//
//
// Regenerates the paper's hardware cost estimates (Section 3.3 Summary and
// abstract): a single-issue branch-on-random unit needs ~20 bits of state
// and under 100 gates; a 4-wide superscalar with replicated units stays
// under 100 bits and a few hundred gates. Also tabulates the shared-LFSR
// alternative (footnote 3) and the deterministic implementation's recovery
// storage (Section 3.4). Exits nonzero when an estimate misses the paper's
// claim.
//
//===----------------------------------------------------------------------===//

#include "core/HwCostModel.h"
#include "support/Table.h"

#include <cstdio>

using namespace bor;

int main() {
  std::printf("Section 3.3 - branch-on-random hardware cost estimates\n\n");

  Table T;
  T.addRow({"configuration", "state bits", "macro gates",
            "2-input equiv gates"});

  auto AddRow = [&T](const char *Name, const HwCostInputs &In) {
    HwCostEstimate E = estimateBrrCost(In);
    T.addRow({Name, Table::fmt(static_cast<uint64_t>(E.StateBits)),
              Table::fmt(static_cast<uint64_t>(E.MacroGates)),
              Table::fmt(static_cast<uint64_t>(E.TwoInputEquivGates))});
  };

  HwCostInputs Single; // 20-bit LFSR, 2 taps, 16 freqs, 1-wide
  AddRow("1-wide (paper: ~20 bits, <100 gates)", Single);

  HwCostInputs Single16 = Single;
  Single16.LfsrWidth = 16;
  AddRow("1-wide, minimal 16-bit LFSR", Single16);

  HwCostInputs Wide4 = Single;
  Wide4.DecodeWidth = 4;
  AddRow("4-wide replicated (paper: <100 bits, <400 gates)", Wide4);

  HwCostInputs Wide4Shared = Wide4;
  Wide4Shared.Replicated = false;
  AddRow("4-wide shared LFSR + priority encoder (fn. 3)", Wide4Shared);

  HwCostInputs Det = Single;
  Det.Deterministic = true;
  Det.MaxInFlight = 16;
  AddRow("1-wide deterministic, 16 brrs in flight (S3.4)", Det);

  HwCostInputs Wide8 = Single;
  Wide8.DecodeWidth = 8;
  AddRow("8-wide replicated", Wide8);

  T.print();

  std::printf("\nchecks against the paper's claims:\n");
  HwCostEstimate E1 = estimateBrrCost(Single);
  HwCostEstimate E4 = estimateBrrCost(Wide4);
  bool Ok1 = E1.StateBits == 20 && E1.MacroGates < 100;
  bool Ok4 = E4.StateBits < 100 && E4.MacroGates < 400;
  std::printf("  1-wide: %u bits (~20) and %u macro gates (<100): %s\n",
              E1.StateBits, E1.MacroGates, Ok1 ? "ok" : "FAIL");
  std::printf("  4-wide: %u bits (<100) and %u macro gates (<400): %s\n",
              E4.StateBits, E4.MacroGates, Ok4 ? "ok" : "FAIL");
  return Ok1 && Ok4 ? 0 : 1;
}
