/**
 * @file
 * Unit tests for the common substrate: counters, RNG, stats, bit
 * utilities.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>

#include "common/bits.hh"
#include "common/counters.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "config_error.hh"

namespace rvp
{
namespace
{

TEST(SaturatingCounter, SaturatesAtMax)
{
    SaturatingCounter c(2);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.isSet());
}

TEST(SaturatingCounter, SaturatesAtZero)
{
    SaturatingCounter c(2, 3);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_FALSE(c.isSet());
}

TEST(SaturatingCounter, HysteresisAroundMidpoint)
{
    SaturatingCounter c(2, 2);
    EXPECT_TRUE(c.isSet());
    c.decrement();
    EXPECT_FALSE(c.isSet());   // value 1
    c.increment();
    EXPECT_TRUE(c.isSet());    // back to 2
}

TEST(ResettingCounter, NeedsSevenConsecutiveCorrect)
{
    // The paper's filter: 3-bit resetting counter, threshold 7 — a
    // prediction is only authorized after seven consecutive hits.
    ResettingCounter c(3, 7);
    for (int i = 0; i < 6; ++i) {
        c.recordCorrect();
        EXPECT_FALSE(c.confident()) << "after " << i + 1 << " corrects";
    }
    c.recordCorrect();
    EXPECT_TRUE(c.confident());
}

TEST(ResettingCounter, SingleMissResets)
{
    ResettingCounter c(3, 7);
    for (int i = 0; i < 7; ++i)
        c.recordCorrect();
    ASSERT_TRUE(c.confident());
    c.recordIncorrect();
    EXPECT_FALSE(c.confident());
    EXPECT_EQ(c.value(), 0u);
}

TEST(ResettingCounter, StaysSaturated)
{
    ResettingCounter c(3, 7);
    for (int i = 0; i < 100; ++i)
        c.recordCorrect();
    EXPECT_EQ(c.value(), 7u);
    EXPECT_TRUE(c.confident());
}

TEST(ResettingCounter, ThresholdEqualToMaxStillReachable)
{
    // threshold == max is the boundary the constructor's assert allows:
    // confidence must still be reachable (saturation is not an
    // off-by-one above the threshold).
    ResettingCounter wide(3, 7);
    for (int i = 0; i < 7; ++i)
        wide.recordCorrect();
    EXPECT_TRUE(wide.confident());
    EXPECT_EQ(wide.value(), wide.threshold());

    ResettingCounter one_bit(1, 1);
    EXPECT_FALSE(one_bit.confident());
    one_bit.recordCorrect();
    EXPECT_TRUE(one_bit.confident());
    EXPECT_EQ(one_bit.value(), 1u);
    one_bit.recordCorrect();   // saturated: must not wrap past max
    EXPECT_TRUE(one_bit.confident());
    EXPECT_EQ(one_bit.value(), 1u);
    one_bit.recordIncorrect();
    EXPECT_FALSE(one_bit.confident());
}

TEST(ResettingCounter, ThresholdZeroIsAlwaysConfident)
{
    // Degenerate but legal: threshold 0 authorizes every prediction,
    // even straight after a reset.
    ResettingCounter c(3, 0);
    EXPECT_TRUE(c.confident());
    c.recordIncorrect();
    EXPECT_TRUE(c.confident());
}

TEST(SaturatingCounter, OddBitWidths)
{
    // Widths with no midpoint pair: 1, 3, and 5 bits. max must be
    // 2^bits - 1 and isSet() must flip strictly above max/2.
    SaturatingCounter one(1);
    EXPECT_EQ(one.max(), 1u);
    EXPECT_FALSE(one.isSet());
    one.increment();
    EXPECT_EQ(one.value(), 1u);
    EXPECT_TRUE(one.isSet());
    one.increment();   // saturate, no wrap
    EXPECT_EQ(one.value(), 1u);

    SaturatingCounter three(3);
    EXPECT_EQ(three.max(), 7u);
    for (int i = 0; i < 3; ++i)
        three.increment();
    EXPECT_FALSE(three.isSet());   // 3 == max/2: lower half
    three.increment();
    EXPECT_TRUE(three.isSet());    // 4 > max/2
    for (int i = 0; i < 10; ++i)
        three.increment();
    EXPECT_EQ(three.value(), 7u);

    SaturatingCounter five(5, 31);
    EXPECT_EQ(five.max(), 31u);
    EXPECT_EQ(five.value(), 31u);
    five.increment();              // saturated at construction
    EXPECT_EQ(five.value(), 31u);
    for (int i = 0; i < 16; ++i)
        five.decrement();
    EXPECT_FALSE(five.isSet());    // 15 == max/2: lower half
    for (int i = 0; i < 20; ++i)
        five.decrement();
    EXPECT_EQ(five.value(), 0u);   // saturates at zero
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Rng, RangeRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        std::int64_t v = rng.nextRange(-5, 9);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, BelowCoversValues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(rng.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(StatSet, AddAndGet)
{
    StatSet s;
    s.add("x");
    s.add("x", 2.0);
    EXPECT_DOUBLE_EQ(s.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(s.get("missing"), 0.0);
    EXPECT_TRUE(s.has("x"));
    EXPECT_FALSE(s.has("missing"));
}

TEST(StatSet, RatioHandlesZeroDenominator)
{
    StatSet s;
    s.set("n", 5);
    EXPECT_DOUBLE_EQ(s.ratio("n", "d"), 0.0);
    s.set("d", 2);
    EXPECT_DOUBLE_EQ(s.ratio("n", "d"), 2.5);
}

TEST(StatSet, MergeSums)
{
    StatSet a, b;
    a.add("x", 1);
    b.add("x", 2);
    b.add("y", 3);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 3.0);
}

TEST(StatSet, DumpIsSorted)
{
    StatSet s;
    s.set("zeta", 1);
    s.set("alpha", 2);
    std::ostringstream os;
    s.dump(os);
    std::string text = os.str();
    EXPECT_LT(text.find("alpha"), text.find("zeta"));
}

TEST(Bits, MaskEdges)
{
    EXPECT_EQ(mask(0), 0ull);
    EXPECT_EQ(mask(1), 1ull);
    EXPECT_EQ(mask(64), ~0ull);
}

TEST(Bits, ExtractInsertRoundTrip)
{
    std::uint64_t v = 0;
    v = insertBits(v, 15, 8, 0xab);
    EXPECT_EQ(bits(v, 15, 8), 0xabull);
    EXPECT_EQ(bits(v, 7, 0), 0ull);
    v = insertBits(v, 15, 8, 0x5);
    EXPECT_EQ(bits(v, 15, 8), 0x5ull);
}

TEST(Bits, SignExtend)
{
    EXPECT_EQ(signExtend(0x3ff, 10), -1);
    EXPECT_EQ(signExtend(0x1ff, 10), 511);
    EXPECT_EQ(signExtend(0x200, 10), -512);
    EXPECT_EQ(signExtend(0, 10), 0);
}

TEST(CounterWidth, RejectsDegenerateAndOversizedWidths)
{
    // Both counter classes compute their maximum as (1u << bits) - 1,
    // which is undefined behaviour at bits >= 32. counterMax() bounds
    // the width *before* the shift, so a bad width dies with a
    // diagnostic instead of shifting out of range (the old code
    // shifted in the member-initializer list, ahead of any assert in
    // the constructor body).
    EXPECT_DEATH(SaturatingCounter(0), "outside \\[1, 16\\]");
    EXPECT_DEATH(SaturatingCounter(32), "outside \\[1, 16\\]");
    EXPECT_DEATH(SaturatingCounter(33), "outside \\[1, 16\\]");
    EXPECT_DEATH(ResettingCounter(0, 0), "outside \\[1, 16\\]");
    EXPECT_DEATH(ResettingCounter(32, 7), "outside \\[1, 16\\]");
    EXPECT_DEATH(ResettingCounter(64, 7), "outside \\[1, 16\\]");
}

TEST(CounterWidth, WidestAllowedWidthWorks)
{
    SaturatingCounter sat(16);
    EXPECT_EQ(sat.max(), 65535u);
    ResettingCounter conf(16, 65535);
    EXPECT_EQ(conf.threshold(), 65535u);
}

TEST(CounterWidth, RejectsOutOfRangeInitialAndThreshold)
{
    EXPECT_DEATH(SaturatingCounter(2, 4), "exceeds the 2-bit maximum");
    EXPECT_DEATH(ResettingCounter(3, 8), "exceeds the 3-bit maximum");
}

TEST(Distribution, BucketBoundariesAreLog2)
{
    using D = StatSet::Distribution;
    EXPECT_EQ(D::bucketOf(0.0), 0u);     // < 1 -> bucket 0
    EXPECT_EQ(D::bucketOf(0.5), 0u);
    EXPECT_EQ(D::bucketOf(1.0), 1u);     // [1, 2)
    EXPECT_EQ(D::bucketOf(1.9), 1u);
    EXPECT_EQ(D::bucketOf(2.0), 2u);     // [2, 4)
    EXPECT_EQ(D::bucketOf(3.0), 2u);
    EXPECT_EQ(D::bucketOf(4.0), 3u);     // [4, 8)
    EXPECT_EQ(D::bucketOf(1024.0), 11u); // [1024, 2048)
    EXPECT_EQ(D::bucketOf(1e300), D::numBuckets - 1);
}

TEST(Distribution, CountSumMeanMinMax)
{
    StatSet stats;
    StatSet::Distribution &d = stats.distribution("lat");
    d.sample(3.0);
    d.sample(1.0);
    d.sample(8.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.sum(), 12.0);
    EXPECT_DOUBLE_EQ(d.mean(), 4.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 8.0);
}

TEST(Distribution, PercentilesClampToObservedRange)
{
    StatSet stats;
    StatSet::Distribution &d = stats.distribution("lat");
    for (int i = 0; i < 90; ++i)
        d.sample(1.0);
    for (int i = 0; i < 10; ++i)
        d.sample(100.0);
    // p50 lands in the bucket of the 1.0 samples; p99 in the bucket
    // holding 100.0 — bucket-resolution, but clamped to the exact
    // observed max.
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.99), 100.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 100.0);
}

TEST(Distribution, DerivedScalarsMaterializeOnRead)
{
    StatSet stats;
    StatSet::Distribution &d = stats.distribution("core.lat");
    d.sample(2.0);
    d.sample(6.0);
    const auto &values = stats.values();
    EXPECT_EQ(values.at("core.lat.count"), 2.0);
    EXPECT_EQ(values.at("core.lat.sum"), 8.0);
    EXPECT_EQ(values.at("core.lat.mean"), 4.0);
    EXPECT_EQ(values.at("core.lat.min"), 2.0);
    EXPECT_EQ(values.at("core.lat.max"), 6.0);
    EXPECT_TRUE(values.count("core.lat.p50"));
    EXPECT_TRUE(values.count("core.lat.p90"));
    EXPECT_TRUE(values.count("core.lat.p99"));
}

TEST(Distribution, NeverSampledEmitsNothing)
{
    // Golden snapshots are compared as exact stat maps, so an interned
    // but unused histogram must not add keys.
    StatSet stats;
    stats.distribution("quiet");
    stats.add("other", 1.0);
    EXPECT_EQ(stats.values().size(), 1u);
    EXPECT_FALSE(stats.has("quiet.count"));
}

TEST(Distribution, MergeCombinesSamplesNotScalars)
{
    StatSet a, b;
    StatSet::Distribution &da = a.distribution("lat");
    StatSet::Distribution &db = b.distribution("lat");
    for (int i = 0; i < 10; ++i)
        da.sample(1.0);
    for (int i = 0; i < 10; ++i)
        db.sample(64.0);
    // Force both sides to materialize first: a correct merge must
    // combine buckets and recompute, not sum the derived scalars.
    (void)a.values();
    (void)b.values();
    a.merge(b);
    const auto &values = a.values();
    EXPECT_EQ(values.at("lat.count"), 20.0);
    EXPECT_EQ(values.at("lat.sum"), 650.0);
    EXPECT_EQ(values.at("lat.min"), 1.0);
    EXPECT_EQ(values.at("lat.max"), 64.0);
    // The merged p99 must reflect b's samples, not a's old p99.
    EXPECT_EQ(values.at("lat.p99"), 64.0);
}

TEST(Distribution, NegativeSamplesClampToZero)
{
    StatSet stats;
    StatSet::Distribution &d = stats.distribution("neg");
    d.sample(-5.0);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.sum(), 0.0);
}

TEST(Bits, PowerOf2AndLog)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(1024));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(12));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1023), 9u);
}


TEST(Parse, UnsignedIsDecimalDigitsThatFitTheField)
{
    EXPECT_EQ(parseNumber<std::uint64_t>("0", "n"), 0u);
    EXPECT_EQ(parseNumber<std::uint64_t>("010", "n"), 10u);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615", "n"),
              18446744073709551615ull);
    EXPECT_EQ(parseNumber<unsigned>("4294967295", "n"), 4294967295u);
    for (const char *bad :
         {"", " 1", "1 ", "+1", "-1", "-0", "0x10", "1e3", "1.0", "abc",
          "12abc", "18446744073709551616"}) {
        std::uint64_t out = 7;
        EXPECT_FALSE(tryParseNumber(bad, out)) << "'" << bad << "'";
        EXPECT_EQ(out, 7u) << "a failed parse leaves the field alone";
    }
    // Each value must fit its own field: 2^32 + 1 never becomes 1.
    unsigned narrow = 0;
    EXPECT_FALSE(tryParseNumber("4294967297", narrow));
    EXPECT_CONFIG_ERROR(parseNumber<unsigned>("4294967297", "--jobs"),
                        "--jobs: '4294967297' is not an unsigned decimal "
                        "integer in [0, 4294967295]");
}

TEST(Parse, DoublesAreFiniteDecimals)
{
    EXPECT_EQ(parseNumber<double>("0.8", "x"), 0.8);
    EXPECT_EQ(parseNumber<double>("-2.5e-3", "x"), -2.5e-3);
    EXPECT_EQ(parseNumber<double>(".5", "x"), 0.5);
    EXPECT_EQ(parseNumber<double>("1e+20", "x"), 1e20);
    for (const char *bad : {"", "nan", "inf", "-inf", "1e400", "0x1p3",
                            "+1", " 1", "1 ", "1e", "1.2.3", "--1"}) {
        double out = 7.0;
        EXPECT_FALSE(tryParseNumber(bad, out)) << "'" << bad << "'";
    }
    EXPECT_CONFIG_ERROR(parseNumber<double>("nan", "--threshold"),
                        "--threshold: 'nan' is not a finite decimal");
}

TEST(Parse, PercentSeventeenGReadsBackBitExactly)
{
    // Journals and the wire write doubles as %.17g (jsonNum); every
    // finite bit pattern, subnormals included, must read back as is.
    auto roundTrips = [](double value) {
        char text[40];
        std::snprintf(text, sizeof(text), "%.17g", value);
        double back = 0.0;
        return tryParseNumber(text, back) &&
               std::bit_cast<std::uint64_t>(back) ==
                   std::bit_cast<std::uint64_t>(value);
    };
    for (double v : {0.0, -0.0, 0.1 + 0.2, 1.0 / 3.0,
                     std::numeric_limits<double>::max(),
                     std::numeric_limits<double>::lowest(),
                     std::numeric_limits<double>::min(),
                     std::numeric_limits<double>::denorm_min()})
        EXPECT_TRUE(roundTrips(v)) << v;
    Rng rng(29);
    for (int i = 0; i < 20'000; ++i) {
        double v = std::bit_cast<double>(rng.next());
        if (std::isfinite(v))
            EXPECT_TRUE(roundTrips(v)) << std::hexfloat << v;
    }
}

} // namespace
} // namespace rvp
