// Fixed-point Q-format arithmetic (paper §V numeric contract).
#include "man/fixed/qformat.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "man/apps/app_registry.h"

namespace man::fixed {
namespace {

TEST(QFormat, PaperDefaultFormats) {
  const QFormat w8 = QFormat::weight8();
  EXPECT_EQ(w8.total_bits(), 8);
  EXPECT_EQ(w8.frac_bits(), 6);
  EXPECT_EQ(w8.max_raw(), 127);
  EXPECT_EQ(w8.min_raw(), -127);  // symmetric range
  EXPECT_NEAR(w8.max_value(), 127.0 / 64.0, 1e-12);
  EXPECT_NEAR(w8.resolution(), 1.0 / 64.0, 1e-12);

  const QFormat w12 = QFormat::weight12();
  EXPECT_EQ(w12.total_bits(), 12);
  EXPECT_EQ(w12.frac_bits(), 10);
  EXPECT_EQ(w12.max_raw(), 2047);

  EXPECT_EQ(QFormat::input8().max_raw(), 255);
}

TEST(QFormat, RejectsBadParameters) {
  EXPECT_THROW(QFormat(1, 0), std::invalid_argument);
  EXPECT_THROW(QFormat(32, 0), std::invalid_argument);
  EXPECT_THROW(QFormat(8, 8), std::invalid_argument);
  EXPECT_THROW(QFormat(8, -1), std::invalid_argument);
}

TEST(QFormat, QuantizeRoundsToNearest) {
  const QFormat fmt(8, 6);  // step 1/64
  EXPECT_EQ(fmt.quantize(0.0), 0);
  EXPECT_EQ(fmt.quantize(1.0 / 64.0), 1);
  EXPECT_EQ(fmt.quantize(1.4 / 64.0), 1);
  EXPECT_EQ(fmt.quantize(1.6 / 64.0), 2);
  EXPECT_EQ(fmt.quantize(-1.6 / 64.0), -2);
  // Half away from zero.
  EXPECT_EQ(fmt.quantize(1.5 / 64.0), 2);
  EXPECT_EQ(fmt.quantize(-1.5 / 64.0), -2);
}

TEST(QFormat, QuantizeSaturates) {
  const QFormat fmt(8, 6);
  EXPECT_EQ(fmt.quantize(100.0), 127);
  EXPECT_EQ(fmt.quantize(-100.0), -127);
  EXPECT_EQ(fmt.quantize(std::nan("")), 0);
}

// The textbook quantizer the inline one replaced: scale, round half
// away from zero with floor/ceil, then saturate the rounded value.
// QFormat::quantize must equal it bit for bit on every double.
std::int32_t reference_quantize(const QFormat& fmt, double value) {
  if (std::isnan(value)) return 0;
  const double scaled = value * std::ldexp(1.0, fmt.frac_bits());
  const double rounded =
      scaled >= 0.0 ? std::floor(scaled + 0.5) : std::ceil(scaled - 0.5);
  if (rounded >= static_cast<double>(fmt.max_raw())) return fmt.max_raw();
  if (rounded <= static_cast<double>(-fmt.max_raw())) return -fmt.max_raw();
  return static_cast<std::int32_t>(rounded);
}

// Paper weight/input formats, every registered app's activation and
// weight formats, and the widest integer-only and finest-fraction
// formats QFormat admits.
std::vector<QFormat> formats_under_test() {
  std::vector<QFormat> formats = {QFormat::input8(), QFormat::weight8(),
                                  QFormat::weight12(), QFormat(31, 0),
                                  QFormat(31, 30)};
  for (const man::apps::AppSpec& app : man::apps::all_apps()) {
    formats.push_back(app.quant().activation_format);
    formats.push_back(app.quant().weight_format);
  }
  return formats;
}

// `value` and the 4 doubles on either side of it.
template <typename Check>
void around(double value, Check&& check) {
  double up = value;
  double down = value;
  check(value);
  for (int ulp = 0; ulp < 4; ++ulp) {
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    down = std::nextafter(down, -std::numeric_limits<double>::infinity());
    check(up);
    check(down);
  }
}

// Every rounding seam (h + 1/2)·2^-frac ± 4 ulps, and the saturation
// edges ±max_raw and ±(max_raw + 1/2) ± 4 ulps. Seams are exhaustive
// for formats up to 16 bits and strided (plus both ends) beyond.
TEST(QFormatQuantize, MatchesFloorCeilReferenceAtSeamsAndEdges) {
  for (const QFormat& fmt : formats_under_test()) {
    const auto check = [&](double v) {
      ASSERT_EQ(fmt.quantize(v), reference_quantize(fmt, v))
          << fmt.to_string() << " v=" << v;
    };
    const double step = fmt.resolution();
    const std::int64_t max = fmt.max_raw();
    const std::int64_t stride = max <= (1 << 15) ? 1 : max / (1 << 14);
    for (std::int64_t h = -max - 2; h <= max + 1; h += stride) {
      around((static_cast<double>(h) + 0.5) * step, check);
    }
    for (std::int64_t h = max - 8; h <= max + 1; ++h) {
      around((static_cast<double>(h) + 0.5) * step, check);
      around((static_cast<double>(-h) - 0.5) * step, check);
    }
    for (double edge : {static_cast<double>(max), max + 0.5, max + 1.0}) {
      around(edge * step, check);
      around(-edge * step, check);
    }
  }
}

TEST(QFormatQuantize, MatchesReferenceOnSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {
      std::nan(""),
      -std::nan(""),
      inf,
      -inf,
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      -std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::min(),
      static_cast<double>(std::numeric_limits<float>::denorm_min()),
      -static_cast<double>(std::numeric_limits<float>::denorm_min()),
      static_cast<double>(FLT_MAX),
      -static_cast<double>(FLT_MAX),
      DBL_MAX,
      -DBL_MAX,
      0.49999999999999994,
      -0.49999999999999994};
  for (const QFormat& fmt : formats_under_test()) {
    for (double v : values) {
      EXPECT_EQ(fmt.quantize(v), reference_quantize(fmt, v))
          << fmt.to_string() << " v=" << v;
    }
    EXPECT_EQ(fmt.quantize(std::nan("")), 0);
    EXPECT_EQ(fmt.quantize(inf), fmt.max_raw());
    EXPECT_EQ(fmt.quantize(-inf), fmt.min_raw());
  }
}

// Pixels reach the engine as floats: a fixed-stride sweep of 2^24 of
// the 2^32 float bit patterns (stride 257, so every exponent and a
// spread of mantissa low bits are hit), each widened to double.
TEST(QFormatQuantize, MatchesReferenceOnStridedFloatBitPatterns) {
  const QFormat formats[] = {QFormat::input8(), QFormat::weight12(),
                             QFormat(31, 0), QFormat(31, 30)};
  std::uint32_t bits = 0;
  for (std::uint32_t i = 0; i < (std::uint32_t{1} << 24); ++i, bits += 257) {
    const auto v = static_cast<double>(std::bit_cast<float>(bits));
    for (const QFormat& fmt : formats) {
      if (fmt.quantize(v) != reference_quantize(fmt, v)) {
        FAIL() << fmt.to_string() << " bits=0x" << std::hex << bits;
      }
    }
  }
}

TEST(QFormat, RoundTripIsIdentityOnGrid) {
  const QFormat fmt(8, 6);
  for (int raw = -127; raw <= 127; ++raw) {
    const double value = fmt.dequantize(raw);
    EXPECT_EQ(fmt.quantize(value), raw);
    EXPECT_EQ(fmt.round_trip(value), value);
  }
}

TEST(QFormat, RoundTripErrorBoundedByHalfStep) {
  const QFormat fmt(12, 10);
  for (double v = -1.9; v <= 1.9; v += 0.0137) {
    EXPECT_LE(std::abs(fmt.round_trip(v) - v), fmt.resolution() / 2 + 1e-12);
  }
}

TEST(QFormat, SaturateClampsWideValues) {
  const QFormat fmt(8, 6);
  EXPECT_EQ(fmt.saturate(1000), 127);
  EXPECT_EQ(fmt.saturate(-1000), -127);
  EXPECT_EQ(fmt.saturate(55), 55);
}

TEST(QFormat, ToStringDescribesFormat) {
  EXPECT_EQ(QFormat(8, 6).to_string(), "Q1.6 (8b)");
  EXPECT_EQ(QFormat(12, 10).to_string(), "Q1.10 (12b)");
}

TEST(RescaleProduct, ShiftsWithRounding) {
  const QFormat a(8, 6), b(9, 8);
  const QFormat target(16, 8);
  // product frac = 14, target frac = 8 -> shift right 6 w/ rounding.
  EXPECT_EQ(rescale_product(64, a, b, target), 1);    // 64 >> 6 = 1
  EXPECT_EQ(rescale_product(95, a, b, target), 1);    // round down (95 < 96)
  EXPECT_EQ(rescale_product(96, a, b, target), 2);    // round to nearest (up)
  EXPECT_EQ(rescale_product(-96, a, b, target), -2);  // symmetric
}

TEST(RescaleProduct, SaturatesAtTargetRange) {
  const QFormat a(8, 6), b(9, 8);
  const QFormat target(8, 0);
  EXPECT_EQ(rescale_product(1LL << 40, a, b, target), target.max_raw());
  EXPECT_EQ(rescale_product(-(1LL << 40), a, b, target), target.min_raw());
}

TEST(RescaleProduct, UpshiftWhenTargetFinner) {
  const QFormat a(4, 0), b(4, 0);
  const QFormat target(16, 4);
  EXPECT_EQ(rescale_product(3, a, b, target), 48);  // 3 << 4
}

}  // namespace
}  // namespace man::fixed
