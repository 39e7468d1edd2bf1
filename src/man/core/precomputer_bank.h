// Pre-computer bank: generates the alphabet multiples a·I of the
// multiplier input I (paper §III, Figs 2-3). In hardware each alphabet
// beyond 1 costs shift-and-add/sub stages; the bank's outputs are
// broadcast over one bus per alphabet to the ASM lanes that share it.
//
// The emulation computes the exact multiples, and additionally derives
// the *structural* adder network a synthesizer would build (used by the
// hardware cost model): each alphabet is formed from already-available
// multiples by a minimal number of two-operand add/sub steps, e.g.
//   3I = (I<<1) + I     5I = (I<<2) + I     7I = (I<<3) - I
//   9I = (I<<3) + I     11I = (3I<<1) + 5I  13I = (5I<<1) + 3I
//   15I = (I<<4) - I
// so the full 8-alphabet set needs 7 adders, {1,3} needs 1, {1} none.
#ifndef MAN_CORE_PRECOMPUTER_BANK_H
#define MAN_CORE_PRECOMPUTER_BANK_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "man/core/alphabet_set.h"
#include "man/core/op_counts.h"

namespace man::core {

/// One shift-add step of the structural alphabet network.
struct PrecomputeStep {
  int result;        ///< alphabet value produced (odd, 3..15)
  int operand_a;     ///< available multiple (1 or earlier alphabet)
  int shift_a;       ///< left shift applied to operand_a
  int operand_b;     ///< second operand (0 when unused)
  int shift_b;       ///< left shift applied to operand_b
  bool subtract;     ///< result = (a<<sa) - (b<<sb) instead of +
};

/// Emulates the pre-computer bank for one alphabet set.
class PrecomputerBank {
 public:
  explicit PrecomputerBank(AlphabetSet set);

  [[nodiscard]] const AlphabetSet& alphabet_set() const noexcept {
    return set_;
  }

  /// The multiples a·I for every alphabet a, in set order. Counts one
  /// adder activation per structural step into `counts` when given.
  [[nodiscard]] std::vector<std::int64_t> compute(std::int64_t input) const;
  [[nodiscard]] std::vector<std::int64_t> compute(std::int64_t input,
                                                  OpCounts& counts) const;

  /// Allocation-free variant: writes alphabet_set().size() multiples
  /// into `out` (caller-sized). The workhorse behind PrecomputerCache.
  void compute_into(std::int64_t input, std::int64_t* out,
                    OpCounts& counts) const;

  /// a·I for a single alphabet; throws std::invalid_argument if a is
  /// not in the set.
  [[nodiscard]] std::int64_t multiple_of(int alphabet,
                                         std::int64_t input) const;

  /// Number of two-operand add/sub units in the structural network.
  [[nodiscard]] int adder_count() const noexcept {
    return static_cast<int>(steps_.size());
  }

  /// Number of broadcast buses out of the bank (== number of
  /// alphabets; paper: "the number of communication buses ... is
  /// proportional to the number of alphabets").
  [[nodiscard]] int bus_count() const noexcept {
    return static_cast<int>(set_.size());
  }

  /// The structural shift-add schedule (for inspection and the hw
  /// model).
  [[nodiscard]] const std::vector<PrecomputeStep>& steps() const noexcept {
    return steps_;
  }

 private:
  void build_structural_network();

  AlphabetSet set_;
  std::vector<PrecomputeStep> steps_;
};

/// Memoized view of one bank: the multiples of each distinct input
/// value are evaluated once and replayed on later lookups, modelling a
/// CSHM bank whose outputs stay latched while the input repeats. One
/// cache per worker/shard gives re-entrant reuse without locking; call
/// reset() to drop the memo (e.g. between batches whose value
/// distributions differ). Structural adder activity is charged to
/// `counts` only on misses. Note: FixedNetwork's EngineStats do NOT
/// use these dynamic counts — the engine bills the static
/// every-unit-fires activity per inference so that recorded stats
/// stay bit-identical between cached, uncached, and sharded runs; the
/// miss-only accounting here serves emulation-level studies (and the
/// hit/miss counters quantify the memoization itself).
///
/// The memo is a **flat direct-mapped table** over a configured raw
/// input window [min_raw, max_raw] — the faithful CSHM model: a
/// bounded quantized activation range maps 1:1 onto latch rows, so a
/// lookup is a subtract, a bounds check, and an indexed load (no
/// hashing). configure_range() arms it; the engine derives the window
/// from its activation QFormat and rejects formats wider than
/// kMaxFlatSpan at construction. Rows hold the multiples as int32 —
/// the width the kernel lanes read — i.e. modulo 2^32, which is exact
/// for every window whose multiples fit (any window around zero that
/// kMaxFlatSpan admits). Looking up a value outside the window throws.
class PrecomputerCache {
 public:
  PrecomputerCache() = default;
  explicit PrecomputerCache(const PrecomputerBank& bank) : bank_(&bank) {}

  /// Re-targets the cache at `bank` (clears the memo and any
  /// configured flat window — the alphabet count may differ). The
  /// bank must outlive the cache.
  void bind(const PrecomputerBank& bank) {
    bank_ = &bank;
    flat_.clear();
    flat_filled_.clear();
    flat_min_ = 0;
    flat_span_ = 0;
    reset();
  }

  /// Drops every memoized row and the hit/miss counters. A configured
  /// window stays configured (its rows are marked unfilled, the
  /// allocation is reused).
  void reset() noexcept {
    std::fill(flat_filled_.begin(), flat_filled_.end(), std::uint8_t{0});
    flat_entries_ = 0;
    hits_ = 0;
    misses_ = 0;
  }

  /// Arms the direct-mapped table for inputs in [min_raw, max_raw]
  /// (inclusive), dropping existing rows. Throws std::logic_error on
  /// an unbound cache and std::invalid_argument when min_raw > max_raw
  /// or the window spans more than kMaxFlatSpan values (the table is
  /// meant for bounded quantized activation ranges, not arbitrary
  /// 64-bit streams).
  void configure_range(std::int64_t min_raw, std::int64_t max_raw);

  [[nodiscard]] bool has_range() const noexcept { return flat_span_ != 0; }
  [[nodiscard]] std::int64_t range_min() const noexcept { return flat_min_; }
  [[nodiscard]] std::int64_t range_max() const noexcept {
    return flat_min_ + static_cast<std::int64_t>(flat_span_) - 1;
  }

  /// Pointer to bank().alphabet_set().size() multiples of `input`;
  /// valid until the next reset()/bind()/configure_range(). Throws
  /// std::out_of_range when `input` lies outside the armed window (or
  /// no window is armed).
  [[nodiscard]] const std::int32_t* lookup(std::int64_t input,
                                           OpCounts& counts) {
    const std::int32_t* row = nullptr;
    lookup_rows(std::span<const std::int64_t>(&input, 1), &row, counts);
    return row;
  }

  /// lookup() of every value of `inputs`, its row pointer into
  /// `rows[i]` — the staging loops' entry point. The window, the row
  /// width and the hit count live in locals for the whole span, so a
  /// hit is a subtract, a compare, a flag load and a multiply-add.
  /// Counters, fills and the out-of-window throw match a sequence of
  /// lookup() calls (rows before a throwing input are resolved).
  void lookup_rows(std::span<const std::int64_t> inputs,
                   const std::int32_t** rows, OpCounts& counts);

  [[nodiscard]] const PrecomputerBank* bank() const noexcept { return bank_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  /// Distinct memoized inputs.
  [[nodiscard]] std::size_t entries() const noexcept { return flat_entries_; }

  /// Widest flat window configure_range() accepts (32 MiB of rows at
  /// k = 8) — far above any quantized activation format's span.
  static constexpr std::uint64_t kMaxFlatSpan = std::uint64_t{1} << 20;

 private:
  /// Out-of-line miss path: the bank's int64 multiples, narrowed.
  void fill_row(std::int64_t input, std::int32_t* row, OpCounts& counts);
  [[noreturn]] void throw_out_of_window(std::int64_t input) const;

  const PrecomputerBank* bank_ = nullptr;
  std::vector<std::int32_t> flat_;         ///< span × k multiples
  std::vector<std::uint8_t> flat_filled_;  ///< per-row valid flag
  std::int64_t flat_min_ = 0;
  std::uint64_t flat_span_ = 0;  ///< 0 = window not armed
  std::size_t flat_k_ = 0;       ///< bank alphabet count, cached
  std::size_t flat_entries_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace man::core

#endif  // MAN_CORE_PRECOMPUTER_BANK_H
