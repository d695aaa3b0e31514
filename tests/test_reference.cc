/**
 * @file
 * Conformance tests of the Algorithm-1 reference transcription
 * itself: against std::min/max_element on decoded values in every
 * mode, against the paper's worked examples, and the step-count
 * semantics (early termination at a unique survivor).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "reference.hh"

using namespace rime;
using namespace rime::rimehw;

namespace
{

std::vector<std::uint64_t>
randomRaws(std::size_t n, unsigned k, std::uint64_t seed)
{
    Rng rng(seed);
    const std::uint64_t mask = k >= 64 ? ~0ULL : (1ULL << k) - 1;
    std::vector<std::uint64_t> raws(n);
    for (auto &r : raws)
        r = rng() & mask;
    return raws;
}

} // namespace

TEST(Reference, UnsignedMinMatchesMinElement)
{
    for (int trial = 0; trial < 50; ++trial) {
        const auto raws = randomRaws(37, 16, 100 + trial);
        std::vector<bool> alive(raws.size(), true);
        const auto r = referenceMinMax(raws, alive, 16,
                                       KeyMode::UnsignedFixed, false);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.raw,
                  *std::min_element(raws.begin(), raws.end()));
    }
}

TEST(Reference, SignedMinMaxMatchNumericOrder)
{
    for (int trial = 0; trial < 50; ++trial) {
        const auto raws = randomRaws(23, 16, 200 + trial);
        std::vector<std::int64_t> decoded;
        for (const auto raw : raws)
            decoded.push_back(rawToSigned(raw, 16));
        std::vector<bool> alive(raws.size(), true);
        const auto mn = referenceMinMax(raws, alive, 16,
                                        KeyMode::SignedFixed, false);
        const auto mx = referenceMinMax(raws, alive, 16,
                                        KeyMode::SignedFixed, true);
        EXPECT_EQ(rawToSigned(mn.raw, 16),
                  *std::min_element(decoded.begin(), decoded.end()));
        EXPECT_EQ(rawToSigned(mx.raw, 16),
                  *std::max_element(decoded.begin(), decoded.end()));
    }
}

TEST(Reference, FloatMinMaxMatchNumericOrder)
{
    Rng rng(300);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<float> values;
        std::vector<std::uint64_t> raws;
        for (int i = 0; i < 19; ++i) {
            const float f =
                static_cast<float>(rng.uniform(-1e4, 1e4));
            values.push_back(f);
            raws.push_back(floatToRaw(f));
        }
        std::vector<bool> alive(raws.size(), true);
        const auto mn = referenceMinMax(raws, alive, 32,
                                        KeyMode::Float, false);
        const auto mx = referenceMinMax(raws, alive, 32,
                                        KeyMode::Float, true);
        EXPECT_FLOAT_EQ(
            rawToFloat(static_cast<std::uint32_t>(mn.raw)),
            *std::min_element(values.begin(), values.end()));
        EXPECT_FLOAT_EQ(
            rawToFloat(static_cast<std::uint32_t>(mx.raw)),
            *std::max_element(values.begin(), values.end()));
    }
}

TEST(Reference, Figure4StepByStep)
{
    // Figure 4: min of {4.00, 1.75, 1.25, 1.00, 6.50} at alpha=3,
    // beta=2 (5-bit patterns).  The minimum is found and the scan
    // needs all five steps (1.25 vs 1.00 differ only at the last bit).
    const std::vector<std::uint64_t> raws{0b10000, 0b00111, 0b00101,
                                          0b00100, 0b11010};
    std::vector<bool> alive(5, true);
    const auto r = referenceMinMax(raws, alive, 5,
                                   KeyMode::UnsignedFixed, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.index, 3u);
    EXPECT_EQ(r.raw, 0b00100u);
    EXPECT_EQ(r.steps, 5u);
}

TEST(Reference, Figure5FloatExample)
{
    // Figure 5's three 8-bit float-like patterns.
    const std::vector<std::uint64_t> raws{0b01110001, 0b10111010,
                                          0b10101000};
    std::vector<bool> alive(3, true);
    const auto r = referenceMinMax(raws, alive, 8, KeyMode::Float,
                                   false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.raw, 0b10111010u); // -1.625, largest magnitude
    // The paper's walkthrough resolves after 4 of 8 steps.
    EXPECT_EQ(r.steps, 4u);
}

TEST(Reference, SingleSurvivorNeedsNoSteps)
{
    const std::vector<std::uint64_t> raws{42, 17};
    std::vector<bool> alive{false, true};
    const auto r = referenceMinMax(raws, alive, 16,
                                   KeyMode::UnsignedFixed, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.index, 1u);
    EXPECT_EQ(r.steps, 0u);
}

TEST(Reference, EmptySetNotFound)
{
    const std::vector<std::uint64_t> raws{1, 2, 3};
    std::vector<bool> alive(3, false);
    EXPECT_FALSE(referenceMinMax(raws, alive, 16,
                                 KeyMode::UnsignedFixed, false)
                 .found);
}

TEST(Reference, TiesResolveToLowestIndex)
{
    const std::vector<std::uint64_t> raws{9, 3, 7, 3, 3};
    std::vector<bool> alive(5, true);
    const auto r = referenceMinMax(raws, alive, 8,
                                   KeyMode::UnsignedFixed, false);
    EXPECT_EQ(r.index, 1u);
    // Ties are indistinguishable to the scan: all 8 steps run.
    EXPECT_EQ(r.steps, 8u);
}

TEST(Reference, FullSortMatchesStableSort)
{
    const auto raws = randomRaws(64, 8, 999); // heavy duplication
    const auto order = referenceSort(raws, 8,
                                     KeyMode::UnsignedFixed);
    ASSERT_EQ(order.size(), raws.size());
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
        EXPECT_LE(raws[order[i]], raws[order[i + 1]]);
        if (raws[order[i]] == raws[order[i + 1]])
            EXPECT_LT(order[i], order[i + 1]); // stability
    }
}
