// Pre-computer bank structure (paper §III) and CSHM sharing (Fig 3).
#include "man/core/cshm_unit.h"
#include "man/core/precomputer_bank.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "man/util/rng.h"

namespace man::core {
namespace {

TEST(PrecomputerBank, ComputesExactMultiples) {
  const PrecomputerBank bank(AlphabetSet::full());
  for (std::int64_t input : {0LL, 1LL, -3LL, 100LL, -255LL, 4096LL}) {
    const auto multiples = bank.compute(input);
    ASSERT_EQ(multiples.size(), 8u);
    int expected = 1;
    for (std::size_t i = 0; i < multiples.size(); ++i, expected += 2) {
      EXPECT_EQ(multiples[i], expected * input)
          << "alphabet " << expected << " input " << input;
    }
  }
}

// Structural adder counts: {1} needs none, each further alphabet in
// the ladder costs exactly one shift-add given its predecessors.
TEST(PrecomputerBank, LadderAdderCounts) {
  EXPECT_EQ(PrecomputerBank(AlphabetSet::man()).adder_count(), 0);
  EXPECT_EQ(PrecomputerBank(AlphabetSet::two()).adder_count(), 1);
  EXPECT_EQ(PrecomputerBank(AlphabetSet::four()).adder_count(), 3);
  EXPECT_EQ(PrecomputerBank(AlphabetSet::full()).adder_count(), 7);
}

TEST(PrecomputerBank, BusCountEqualsAlphabetCount) {
  // Paper: "the number of communication buses ... is proportional to
  // the number of alphabets".
  for (std::size_t n = 1; n <= 8; ++n) {
    EXPECT_EQ(PrecomputerBank(AlphabetSet::first_n(n)).bus_count(),
              static_cast<int>(n));
  }
}

// Sparse sets that cannot be built in one step from {1} still
// synthesize correctly (via an intermediate helper multiple).
TEST(PrecomputerBank, SparseSetSynthesis) {
  const PrecomputerBank bank(AlphabetSet{1, 11});
  const auto multiples = bank.compute(7);
  ASSERT_EQ(multiples.size(), 2u);
  EXPECT_EQ(multiples[0], 7);
  EXPECT_EQ(multiples[1], 77);
  EXPECT_GE(bank.adder_count(), 1);
}

TEST(PrecomputerBank, AllSingletonSetsSynthesize) {
  for (int a = 1; a <= 15; a += 2) {
    const PrecomputerBank bank(AlphabetSet{a});
    EXPECT_EQ(bank.multiple_of(a, 13), 13 * a) << "alphabet " << a;
  }
}

TEST(PrecomputerBank, MultipleOfRejectsForeignAlphabet) {
  const PrecomputerBank bank(AlphabetSet::two());
  EXPECT_THROW((void)bank.multiple_of(5, 10), std::invalid_argument);
}

TEST(PrecomputerBank, CountsAdderActivations) {
  const PrecomputerBank bank(AlphabetSet::four());
  OpCounts counts;
  (void)bank.compute(42, counts);
  EXPECT_EQ(counts.precomputer_adds, 3u);
}

// --- PrecomputerCache: the flat direct-mapped window ---

TEST(PrecomputerCacheFlat, InWindowLookupsMatchBank) {
  const PrecomputerBank bank(AlphabetSet::four());
  PrecomputerCache cache(bank);
  cache.configure_range(-255, 255);
  EXPECT_TRUE(cache.has_range());
  EXPECT_EQ(cache.range_min(), -255);
  EXPECT_EQ(cache.range_max(), 255);

  OpCounts counts;
  for (int round = 0; round < 2; ++round) {
    for (std::int64_t input = -255; input <= 255; ++input) {
      const std::int32_t* row = cache.lookup(input, counts);
      const auto expected = bank.compute(input);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(row[i], expected[i]) << "input " << input;
      }
    }
  }
  EXPECT_EQ(cache.entries(), 511u);
  EXPECT_EQ(cache.misses(), 511u);
  EXPECT_EQ(cache.hits(), 511u);
  // Structural adds charged once per distinct value.
  EXPECT_EQ(counts.precomputer_adds,
            511u * static_cast<std::uint64_t>(bank.adder_count()));
}

// Rows are int32 (the kernel lane width): the widest window the table
// admits, centred on zero, still holds every multiple exactly.
TEST(PrecomputerCacheFlat, WidestWindowMultiplesFitInt32) {
  const PrecomputerBank bank(AlphabetSet::full());
  PrecomputerCache cache(bank);
  const auto half =
      static_cast<std::int64_t>(PrecomputerCache::kMaxFlatSpan / 2) - 1;
  cache.configure_range(-half, half);
  OpCounts counts;
  for (const std::int64_t input : {-half, half, std::int64_t{-1}}) {
    const std::int32_t* row = cache.lookup(input, counts);
    const auto expected = bank.compute(input);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(row[i], expected[i]) << "input " << input;
    }
  }
}

TEST(PrecomputerCacheFlat, OutOfWindowLookupsThrow) {
  const PrecomputerBank bank(AlphabetSet::two());
  PrecomputerCache cache(bank);
  cache.configure_range(-10, 10);

  OpCounts counts;
  for (const std::int64_t input : {-500LL, 11LL, 4096LL, -11LL}) {
    EXPECT_THROW((void)cache.lookup(input, counts), std::out_of_range)
        << input;
  }
  const std::int32_t* in_window = cache.lookup(7, counts);
  EXPECT_EQ(in_window[1], 21);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(PrecomputerCacheFlat, ResetKeepsTheWindowAndDropsTheMemo) {
  const PrecomputerBank bank(AlphabetSet::four());
  PrecomputerCache cache(bank);
  cache.configure_range(0, 100);
  OpCounts counts;
  (void)cache.lookup(5, counts);
  (void)cache.lookup(5, counts);
  (void)cache.lookup(80, counts);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);

  cache.reset();
  EXPECT_TRUE(cache.has_range());  // window survives reset
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  // Rows refill on demand after the reset.
  const std::int32_t* row = cache.lookup(5, counts);
  EXPECT_EQ(row[0], 5);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PrecomputerCacheFlat, BindDropsWindowAndCounters) {
  const PrecomputerBank four(AlphabetSet::four());
  const PrecomputerBank two(AlphabetSet::two());
  PrecomputerCache cache(four);
  cache.configure_range(-5, 5);
  OpCounts counts;
  (void)cache.lookup(3, counts);
  EXPECT_EQ(cache.misses(), 1u);

  cache.bind(two);  // different alphabet count: window must not leak
  EXPECT_EQ(cache.bank(), &two);
  EXPECT_FALSE(cache.has_range());
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  // No window armed: nothing to look up in.
  EXPECT_THROW((void)cache.lookup(3, counts), std::out_of_range);

  cache.configure_range(-5, 5);
  const std::int32_t* flat_row = cache.lookup(3, counts);
  EXPECT_EQ(flat_row[1], 9);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(PrecomputerCacheFlat, ConfigureRangeRearms) {
  const PrecomputerBank bank(AlphabetSet::four());
  PrecomputerCache cache(bank);
  cache.configure_range(-255, 255);
  OpCounts counts;
  (void)cache.lookup(0, counts);
  (void)cache.lookup(0, counts);
  EXPECT_EQ(cache.hits(), 1u);
  cache.configure_range(-127, 127);  // new window: rows dropped
  EXPECT_EQ(cache.entries(), 0u);
  (void)cache.lookup(0, counts);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PrecomputerCacheFlat, RejectsBadWindows) {
  const PrecomputerBank bank(AlphabetSet::four());
  PrecomputerCache unbound;
  EXPECT_THROW(unbound.configure_range(0, 1), std::logic_error);
  PrecomputerCache cache(bank);
  EXPECT_THROW(cache.configure_range(1, 0), std::invalid_argument);
  EXPECT_THROW(
      cache.configure_range(
          0, static_cast<std::int64_t>(PrecomputerCache::kMaxFlatSpan)),
      std::invalid_argument);
  // Extreme inputs against an armed window must not wrap into it.
  cache.configure_range(-10, 10);
  OpCounts counts;
  for (const std::int64_t big :
       {std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max() / 16}) {
    EXPECT_THROW((void)cache.lookup(big, counts), std::out_of_range) << big;
  }
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(PrecomputerCacheFlat, UnboundLookupThrows) {
  PrecomputerCache cache;
  OpCounts counts;
  EXPECT_THROW((void)cache.lookup(1, counts), std::logic_error);
}

TEST(CshmUnit, SharesOneBankActivationAcrossLanes) {
  CshmUnit unit(QuartetLayout::bits8(), AlphabetSet::four(), 4);
  const std::vector<int> weights{3, -5, 48, 0};
  const auto products = unit.process(100, weights);
  ASSERT_EQ(products.size(), 4u);
  EXPECT_EQ(products[0], 300);
  EXPECT_EQ(products[1], -500);
  EXPECT_EQ(products[2], 4800);
  EXPECT_EQ(products[3], 0);
  // One input processed => exactly one bank activation (3 adders).
  EXPECT_EQ(unit.stats().inputs_processed, 1u);
  EXPECT_EQ(unit.stats().products_computed, 4u);
  EXPECT_EQ(unit.stats().ops.precomputer_adds, 3u);
}

TEST(CshmUnit, RejectsMoreWeightsThanLanes) {
  CshmUnit unit(QuartetLayout::bits8(), AlphabetSet::two(), 2);
  const std::vector<int> weights{1, 2, 3};
  EXPECT_THROW((void)unit.process(5, weights), std::invalid_argument);
}

TEST(CshmUnit, ProcessColumnHandlesArbitraryWeightCounts) {
  CshmUnit unit(QuartetLayout::bits8(), AlphabetSet::two(), 4);
  man::util::Rng rng(3);
  const WeightConstraint wc(QuartetLayout::bits8(), AlphabetSet::two());
  std::vector<int> weights;
  for (int i = 0; i < 10; ++i) {
    const auto& rep = wc.representable();
    const int mag = rep[static_cast<std::size_t>(
        rng.next_below(rep.size()))];
    weights.push_back(rng.next_bool() ? mag : -mag);
  }
  const auto products = unit.process_column(37, weights);
  ASSERT_EQ(products.size(), weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_EQ(products[i], static_cast<std::int64_t>(weights[i]) * 37);
  }
  EXPECT_EQ(unit.stats().inputs_processed, 1u);
  EXPECT_EQ(unit.stats().products_computed, 10u);
}

TEST(CshmUnit, StatsAccumulateAndReset) {
  CshmUnit unit(QuartetLayout::bits8(), AlphabetSet::man(), 4);
  const std::vector<int> weights{1, 2};
  (void)unit.process(5, weights);
  (void)unit.process(6, weights);
  EXPECT_EQ(unit.stats().inputs_processed, 2u);
  EXPECT_EQ(unit.stats().products_computed, 4u);
  unit.reset_stats();
  EXPECT_EQ(unit.stats().inputs_processed, 0u);
  EXPECT_EQ(unit.stats().products_computed, 0u);
}

TEST(CshmUnit, RejectsBadLaneCount) {
  EXPECT_THROW(CshmUnit(QuartetLayout::bits8(), AlphabetSet::man(), 0),
               std::invalid_argument);
  EXPECT_THROW(CshmUnit(QuartetLayout::bits8(), AlphabetSet::man(), 65),
               std::invalid_argument);
}

}  // namespace
}  // namespace man::core
