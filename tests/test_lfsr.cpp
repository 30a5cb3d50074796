//===- tests/test_lfsr.cpp - LFSR model tests -----------------------------===//

#include "lfsr/Lfsr.h"
#include "lfsr/TapCatalog.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <ostream>
#include <unordered_set>
#include <vector>

namespace bor {
// Without a printer gtest shows a TapSet as its raw bytes, heap pointers
// included, and gtest_discover_tests copies that text into every ctest
// name, so the names of the parameterized tests changed from run to run.
void PrintTo(const TapSet &T, std::ostream *OS) { *OS << T.Name; }
} // namespace bor

using namespace bor;

// The paper's Figure 6: a 4-bit LFSR with the right two bits XORed cycles
// through all 15 nonzero values. In polynomial notation those taps are
// (4, 3). The figure's full sequence, starting from 0001:
TEST(Lfsr, Figure6ExactSequence) {
  Lfsr L = Lfsr::fromPolynomial(4, {4, 3}, 0b0001);
  const uint64_t Expected[] = {0b1000, 0b0100, 0b0010, 0b1001, 0b1100,
                               0b0110, 0b1011, 0b0101, 0b1010, 0b1101,
                               0b1110, 0b1111, 0b0111, 0b0011, 0b0001};
  for (uint64_t Want : Expected) {
    L.step();
    EXPECT_EQ(L.state(), Want);
  }
}

TEST(Lfsr, Figure6SingleUpdate) {
  // The worked example in the figure: 0110 updates to 1011.
  Lfsr L = Lfsr::fromPolynomial(4, {4, 3}, 0b0110);
  L.step();
  EXPECT_EQ(L.state(), 0b1011u);
}

TEST(Lfsr, SeedIsMaskedToWidth) {
  Lfsr L = Lfsr::fromPolynomial(4, {4, 3}, 0xf1);
  EXPECT_EQ(L.state(), 0x1u);
}

TEST(Lfsr, FeedbackBitMatchesTapParity) {
  Lfsr L = Lfsr::fromPolynomial(4, {4, 3}, 0b0110);
  // Taps are bits 0 and 1; state 0110 has bit1 set only -> feedback 1.
  EXPECT_TRUE(L.feedbackBit());
  L.seed(0b0100);
  EXPECT_FALSE(L.feedbackBit());
}

TEST(Lfsr, BitAccessors) {
  Lfsr L = Lfsr::fromPolynomial(8, {8, 6, 5, 4}, 0b10100101);
  EXPECT_TRUE(L.bit(0));
  EXPECT_FALSE(L.bit(1));
  EXPECT_TRUE(L.bit(2));
  EXPECT_TRUE(L.bit(7));
}

namespace {

/// The characteristic polynomial of \p L over GF(2), bit i holding the
/// coefficient of x^i. A step shifts s[k+1..k+w] into place and computes
/// s[k+w] as the XOR of the tapped bits s[k+i], so the polynomial is x^w
/// plus x^i for every tap bit i.
uint64_t characteristicPoly(const Lfsr &L) {
  return (1ULL << L.width()) | L.tapMask();
}

/// x^E modulo \p P, a polynomial of degree \p W < 64.
uint64_t xPowMod(uint64_t E, uint64_t P, unsigned W) {
  // A * B mod P by shift-and-add, reducing A whenever it reaches degree W.
  auto MulMod = [P, W](uint64_t A, uint64_t B) {
    uint64_t R = 0;
    for (; B != 0; B >>= 1) {
      if (B & 1)
        R ^= A;
      A <<= 1;
      if ((A >> W) & 1)
        A ^= P;
    }
    return R;
  };
  uint64_t R = 1;
  for (uint64_t Base = 2; E != 0; E >>= 1) {
    if (E & 1)
      R = MulMod(R, Base);
    Base = MulMod(Base, Base);
  }
  return R;
}

std::vector<uint64_t> primeFactors(uint64_t N) {
  std::vector<uint64_t> Factors;
  for (uint64_t D = 2; D * D <= N; ++D) {
    if (N % D != 0)
      continue;
    Factors.push_back(D);
    while (N % D == 0)
      N /= D;
  }
  if (N > 1)
    Factors.push_back(N);
  return Factors;
}

/// Whether \p L has period 2^w - 1 from every nonzero state, decided
/// algebraically: the step must be invertible (x does not divide the
/// polynomial) and x must have multiplicative order exactly 2^w - 1 modulo
/// the characteristic polynomial, which makes the polynomial primitive.
bool isMaximalLength(const Lfsr &L) {
  uint64_t P = characteristicPoly(L);
  unsigned W = L.width();
  uint64_t Period = (1ULL << W) - 1;
  if ((P & 1) == 0 || xPowMod(Period, P, W) != 1)
    return false;
  for (uint64_t Q : primeFactors(Period))
    if (xPowMod(Period / Q, P, W) == 1)
      return false;
  return true;
}

} // namespace

// Property: every catalog tap set is maximal-length, so the period from
// any nonzero state is exactly 2^w - 1. Proved algebraically for every
// width (2^32 - 1 steps are too many to enumerate), and cross-checked by
// enumeration where the period is short enough.
class LfsrPeriodTest : public ::testing::TestWithParam<TapSet> {};

TEST_P(LfsrPeriodTest, PeriodIsMaximal) {
  const TapSet &T = GetParam();
  Lfsr L = T.makeLfsr(1);
  EXPECT_TRUE(isMaximalLength(L));
  if (T.Width <= 24) {
    EXPECT_EQ(L.measurePeriod(), (1ULL << T.Width) - 1);
  }
}

// The algebraic test agrees with enumeration on every tap mask of the
// small widths, maximal or not, so it is not simply always true.
TEST(Lfsr, AlgebraicPeriodCheckMatchesEnumeration) {
  for (unsigned W = 2; W <= 12; ++W) {
    unsigned Maximal = 0;
    for (uint64_t Mask = 1; Mask < (1ULL << W); Mask += 2) {
      Lfsr L(W, Mask);
      bool Algebraic = isMaximalLength(L);
      ASSERT_EQ(Algebraic, L.measurePeriod() == (1ULL << W) - 1)
          << "width " << W << " mask " << Mask;
      Maximal += Algebraic;
    }
    EXPECT_GT(Maximal, 0u) << "width " << W;
  }
}

TEST_P(LfsrPeriodTest, StateNeverZero) {
  const TapSet &T = GetParam();
  Lfsr L = T.makeLfsr(1);
  for (int I = 0; I != 100000; ++I) {
    L.step();
    ASSERT_NE(L.state(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, LfsrPeriodTest,
                         ::testing::ValuesIn(allTapSets()),
                         [](const auto &Info) { return Info.param.Name; });

// Property: the paper's four 32-bit sensitivity tap sets produce at least
// 2^20 distinct states before any repeat (a maximal 32-bit LFSR repeats
// only after 2^32 - 1).
class PaperTapSetTest : public ::testing::TestWithParam<TapSet> {};

TEST_P(PaperTapSetTest, LongRunOfDistinctStates) {
  Lfsr L = GetParam().makeLfsr(0xace1);
  std::unordered_set<uint64_t> Seen;
  Seen.reserve(1u << 20);
  for (unsigned I = 0; I != (1u << 20); ++I) {
    ASSERT_TRUE(Seen.insert(L.state()).second)
        << "state repeated after " << I << " steps";
    L.step();
  }
}

TEST_P(PaperTapSetTest, BitBiasNearHalf) {
  // Any single register bit should be 1 about half the time.
  Lfsr L = GetParam().makeLfsr(0xace1);
  uint64_t Ones = 0;
  const uint64_t N = 200000;
  for (uint64_t I = 0; I != N; ++I) {
    Ones += L.bit(0);
    L.step();
  }
  EXPECT_NEAR(static_cast<double>(Ones) / N, 0.5, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Sensitivity, PaperTapSetTest,
                         ::testing::ValuesIn(paperSensitivityTapSets()),
                         [](const auto &Info) {
                           std::string N = Info.param.Name;
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

// Property (Section 3.4): a step can be exactly undone given the bit it
// shifted out.
TEST(Lfsr, StepBackInvertsStep) {
  for (const TapSet &T : allTapSets()) {
    Lfsr L = T.makeLfsr(0x5a5a % ((1ULL << T.Width) - 1) + 1);
    for (int Trial = 0; Trial != 200; ++Trial) {
      uint64_t Before = L.state();
      bool Out = L.step();
      L.stepBack(Out);
      ASSERT_EQ(L.state(), Before) << T.Name;
      L.step();
    }
  }
}

TEST(Lfsr, MultiStepShiftBackRecovery) {
  // Squash recovery: undo a whole burst of speculative steps.
  Lfsr L = Lfsr::fromPolynomial(20, {20, 17}, 0xbeef);
  Xoshiro256 Rng(5);
  for (int Trial = 0; Trial != 100; ++Trial) {
    uint64_t Checkpoint = L.state();
    unsigned Burst = 1 + Rng.nextBelow(17);
    std::vector<bool> Outs;
    for (unsigned I = 0; I != Burst; ++I)
      Outs.push_back(L.step());
    for (unsigned I = 0; I != Burst; ++I) {
      L.stepBack(Outs.back());
      Outs.pop_back();
    }
    ASSERT_EQ(L.state(), Checkpoint);
  }
}

TEST(Lfsr, FromPolynomialMapsExponentsToBits) {
  // Exponent t maps to bit Width - t: for (16,15,13,4) the taps are bits
  // 0, 1, 3 and 12.
  Lfsr L = Lfsr::fromPolynomial(16, {16, 15, 13, 4});
  EXPECT_EQ(L.tapMask(), (1u << 0) | (1u << 1) | (1u << 3) | (1u << 12));
}

TEST(Lfsr, DefaultTapSetLookup) {
  EXPECT_EQ(defaultTapSet(16).Width, 16u);
  EXPECT_EQ(defaultTapSet(20).Width, 20u);
  EXPECT_EQ(defaultTapSet(20).PolyTaps, (std::vector<unsigned>{20, 17}));
}

TEST(LfsrDeath, ZeroSeedAsserts) {
  EXPECT_DEATH(Lfsr::fromPolynomial(4, {4, 3}, 0), "absorbing");
}

TEST(LfsrDeath, OutOfRangeBitAsserts) {
  Lfsr L = Lfsr::fromPolynomial(4, {4, 3}, 1);
  EXPECT_DEATH((void)L.bit(4), "out of range");
}
