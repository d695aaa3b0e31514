/** @file Unit tests for the stats registry, logging, and RNG. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"

using namespace rime;

TEST(Stats, IncSetGet)
{
    StatGroup g("grp");
    EXPECT_EQ(g.get("x"), 0.0);
    g.inc("x");
    g.inc("x", 2.5);
    EXPECT_DOUBLE_EQ(g.get("x"), 3.5);
    g.set("x", 1.0);
    EXPECT_DOUBLE_EQ(g.get("x"), 1.0);
    EXPECT_TRUE(g.has("x"));
    EXPECT_FALSE(g.has("y"));
}

TEST(Stats, MergeAndReset)
{
    StatGroup a("a");
    StatGroup b("b");
    a.inc("hits", 2);
    b.inc("hits", 3);
    b.inc("misses", 1);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("hits"), 5.0);
    EXPECT_DOUBLE_EQ(a.get("misses"), 1.0);
    a.reset();
    EXPECT_DOUBLE_EQ(a.get("hits"), 0.0);
}

namespace
{

/** incRepeated's result against `times` plain adds, bit for bit. */
void
expectIncRepeatedMatchesLoop(double start, double delta,
                             std::uint64_t times)
{
    StatGroup g("g");
    g.set("x", start);
    StatCounter c = g.counter("x");
    c.incRepeated(delta, times);
    double want = start;
    for (std::uint64_t i = 0; i < times; ++i)
        want += delta;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(c.value()),
              std::bit_cast<std::uint64_t>(want))
        << std::hexfloat << "start " << start << " delta " << delta
        << " times " << times << ": got " << c.value() << " want "
        << want;
}

} // namespace

TEST(Stats, IncRepeatedMatchesLoop)
{
    constexpr double two53 = 9007199254740992.0; // 2^53
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double huge = std::ldexp(1.0, 1000);
    struct Case
    {
        double start, delta;
        std::uint64_t times;
    };
    const std::vector<Case> cases = {
        {0.0, 0.0, 0}, {5.0, 1.0, 0}, {-0.0, 2.0, 0},
        // Signed zeros.
        {-0.0, 0.0, 3}, {-0.0, -0.0, 3}, {0.0, -0.0, 3},
        // Exact integer and dyadic sums (the closed form).
        {0.0, 2600.0, 16384}, {123.5, 2600.0, 4096},
        {1603.125, 0.25, 1000}, {-1e6, 3.0, 700000},
        // Inexact binary fractions: only the loop is bit-equal.
        {0.0, 2600.1, 16384}, {1.0, 0.1, 10000}, {2600.1, 210.0, 999},
        // Sums at the 2^53 boundary, below, at and past it.
        {two53 - 10, 1.0, 9}, {two53 - 10, 1.0, 10},
        {two53 - 10, 1.0, 11}, {two53 - 10, 1.0, 25},
        {two53 - 2, 2.0, 1}, {two53, 1.0, 5}, {-two53 + 3, -1.0, 7},
        {two53 / 2, two53 / 8, 4}, {two53 / 2, two53 / 8, 5},
        // The grid at its limits: subnormals and values near 2^1024.
        {0.0, tiny, 1000}, {tiny, tiny * 3, 77}, {1.0, tiny, 3},
        {huge, huge, 3}, {huge, -huge, 2}, {-huge, huge * 0.5, 9},
        {std::ldexp(1.0, 1023), std::ldexp(1.0, 1023), 1},
        {std::ldexp(1.0, 1023), -std::ldexp(1.0, 1023), 2},
        {std::ldexp(1.0, 971), std::ldexp(1.0, 971), 5},
        {std::numeric_limits<double>::max(), -1.0, 4},
        // Non-finite values.
        {std::numeric_limits<double>::infinity(), 1.0, 3},
        {1.0, std::numeric_limits<double>::infinity(), 3},
        {1.0, -std::numeric_limits<double>::infinity(), 2},
    };
    for (const Case &c : cases)
        expectIncRepeatedMatchesLoop(c.start, c.delta, c.times);

    // Random dyadic and non-dyadic starts and deltas over wide
    // exponent ranges.
    Rng rng(2600);
    for (int i = 0; i < 3000; ++i) {
        const auto pick = [&]() {
            const double mant = static_cast<double>(
                rng.below(1ULL << (1 + rng.below(53))));
            const int exp = static_cast<int>(rng.below(90)) - 45;
            const double v = std::ldexp(mant, exp);
            return rng.below(2) ? -v : v;
        };
        const double start = pick();
        const double delta = rng.below(4) == 0
            ? static_cast<double>(rng.below(5000)) / 10.0 : pick();
        expectIncRepeatedMatchesLoop(start, delta, rng.below(5000));
    }
}

TEST(Stats, IncRepeatedHugeCountIsClosedForm)
{
    // 2^40 adds would take minutes; exact sums take one multiply-add.
    StatGroup g("g");
    g.set("x", 7.0);
    StatCounter c = g.counter("x");
    c.incRepeated(2600.0, 1ULL << 40);
    EXPECT_EQ(c.value(), 7.0 + 2600.0 * 1099511627776.0);
}

TEST(Stats, Dump)
{
    StatGroup g("grp");
    g.set("value", 4);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "grp.value 4\n");
}

TEST(Stats, DumpPreservesStreamState)
{
    // dump() raises the stream precision internally; it must not leak
    // that (or any flag changes) into the caller's stream.
    StatGroup g("grp");
    g.set("ratio", 1.0 / 3.0);
    g.hist("lat").record(2.0);
    std::ostringstream os;
    const std::ios_base::fmtflags flags_before = os.flags();
    const std::streamsize precision_before = os.precision();
    g.dump(os);
    EXPECT_EQ(os.flags(), flags_before);
    EXPECT_EQ(os.precision(), precision_before);
    const std::size_t mark = os.str().size();
    os << 0.123456789;
    EXPECT_EQ(os.str().substr(mark), "0.123457");
}

TEST(Stats, DumpIncludesHistograms)
{
    StatGroup g("grp");
    g.hist("lat").record(3.0);
    g.hist("lat").record(3.0);
    g.hist("empty");
    std::ostringstream os;
    g.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("grp.lat.count 2"), std::string::npos);
    EXPECT_NE(text.find("grp.lat.mean 3"), std::string::npos);
    EXPECT_NE(text.find("grp.lat.bucket[2,4) 2"), std::string::npos);
    // An empty histogram dumps only its count line.
    EXPECT_NE(text.find("grp.empty.count 0"), std::string::npos);
    EXPECT_EQ(text.find("grp.empty.mean"), std::string::npos);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(fatal("bad thing %d", 42), FatalError);
    try {
        fatal("bad thing %d", 42);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad thing 42");
    }
}

TEST(Rng, DeterministicAndSeedSensitive)
{
    Rng a(1);
    Rng b(1);
    Rng c(2);
    bool differs = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a();
        EXPECT_EQ(va, b());
        if (va != c())
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformRanges)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const auto v = rng.range(5, 10);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 10u);
    }
}

TEST(Rng, RoughUniformity)
{
    Rng rng(4);
    int buckets[10] = {};
    const int samples = 100000;
    for (int i = 0; i < samples; ++i)
        ++buckets[rng.below(10)];
    for (int b = 0; b < 10; ++b) {
        EXPECT_NEAR(buckets[b], samples / 10, samples / 100)
            << "bucket " << b;
    }
}
