/** @file Unit tests for BitVector, RramArray, and ArrayUnit. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "rimehw/array.hh"
#include "rimehw/bitvector.hh"
#include "rimehw/unit.hh"

using namespace rime;
using namespace rime::rimehw;

TEST(BitVector, BasicOps)
{
    BitVector v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_EQ(v.count(), 0u);
    EXPECT_FALSE(v.any());
    v.set(0);
    v.set(64);
    v.set(129);
    EXPECT_EQ(v.count(), 3u);
    EXPECT_TRUE(v.test(64));
    EXPECT_FALSE(v.test(63));
    EXPECT_EQ(v.firstSet(), 0u);
    v.set(0, false);
    EXPECT_EQ(v.firstSet(), 64u);
    v.clearAll();
    EXPECT_EQ(v.firstSet(), 130u);
}

TEST(BitVector, RangeAndLogicOps)
{
    BitVector a(100);
    BitVector b(100);
    a.setRange(10, 20);
    b.setRange(15, 25);
    EXPECT_EQ(a.count(), 10u);

    BitVector diff = a;
    diff.andNot(b);
    EXPECT_EQ(diff.count(), 5u);
    EXPECT_TRUE(diff.test(10));
    EXPECT_FALSE(diff.test(15));
}

TEST(RramArray, WriteReadRoundTrip)
{
    RramArray array(16, 64);
    Rng rng(3);
    for (unsigned row = 0; row < 16; ++row) {
        const std::uint64_t value = rng() & 0xFFFFFFFF;
        array.writeRowBits(row, 8, 32, value);
        EXPECT_EQ(array.readRowBits(row, 8, 32), value);
    }
}

TEST(RramArray, ColumnSearchMatchesStoredBits)
{
    RramArray array(8, 16);
    // Column 3 bits per row: 1,0,1,0,1,0,1,0.
    for (unsigned row = 0; row < 8; ++row)
        array.writeRowBits(row, 3, 1, row % 2 == 0 ? 1 : 0);

    BitVector select(8);
    select.setRange(0, 8);
    BitVector match(8);
    const auto r1 = array.columnSearchInto(3, true, select, match);
    EXPECT_TRUE(r1.anyMatch);
    EXPECT_TRUE(r1.anyMismatch);
    EXPECT_EQ(match.count(), 4u);
    EXPECT_TRUE(match.test(0));
    EXPECT_FALSE(match.test(1));

    // Restrict the selection to odd rows: searching for 1 matches
    // nothing.
    BitVector odd(8);
    for (unsigned row = 1; row < 8; row += 2)
        odd.set(row);
    const auto r2 = array.columnSearchInto(3, true, odd, match);
    EXPECT_FALSE(r2.anyMatch);
    EXPECT_TRUE(r2.anyMismatch);

    const auto r3 = array.columnSearchInto(3, false, odd, match);
    EXPECT_TRUE(r3.anyMatch);
    EXPECT_FALSE(r3.anyMismatch);
}

TEST(ArrayUnit, SlotGroupsAreIndependent)
{
    RramArray array(8, 64);
    ArrayUnit u0(&array, 0, 16);
    ArrayUnit u1(&array, 1, 16);
    u0.writeValue(2, 0xAAAA);
    u1.writeValue(2, 0x5555);
    EXPECT_EQ(u0.readValue(2), 0xAAAAu);
    EXPECT_EQ(u1.readValue(2), 0x5555u);
}

TEST(ArrayUnit, SelectAndExclusionLatches)
{
    RramArray array(8, 32);
    ArrayUnit unit(&array, 0, 32);
    for (unsigned row = 0; row < 8; ++row)
        unit.writeValue(row, row + 1);
    unit.setRange(2, 6);
    unit.clearExclusions(0, 8);
    unit.beginExtraction();
    EXPECT_EQ(unit.survivorCount(), 4u);
    EXPECT_EQ(unit.firstSurvivor(), 2u);

    unit.exclude(2);
    unit.beginExtraction();
    EXPECT_EQ(unit.survivorCount(), 3u);
    EXPECT_EQ(unit.firstSurvivor(), 3u);

    unit.clearExclusions(0, 8);
    unit.beginExtraction();
    EXPECT_EQ(unit.survivorCount(), 4u);
}

TEST(ArrayUnit, ProbeAndCommit)
{
    RramArray array(8, 8);
    ArrayUnit unit(&array, 0, 8);
    // Values 4..11 in rows 0..7 (MSB at column 0).
    for (unsigned row = 0; row < 8; ++row)
        unit.writeValue(row, row + 4);
    unit.setRange(0, 8);
    unit.clearExclusions(0, 8);
    unit.beginExtraction();

    // Bit 3 (step 4 from the MSB of an 8-bit word): values 8..11 have
    // it set.
    const auto probe = unit.probe(4, true, /*record=*/true);
    EXPECT_TRUE(probe.anyMatch);
    EXPECT_TRUE(probe.anyMismatch);
    EXPECT_EQ(unit.commitAndCount(4, true, /*record=*/true), 4u);
    EXPECT_EQ(unit.survivorCount(), 4u); // 4..7 remain
    EXPECT_EQ(unit.firstSurvivor(), 0u);

    // Without a commit the selection is unchanged.
    unit.probe(5, true, /*record=*/true);
    EXPECT_EQ(unit.survivorCount(), 4u);

    // The signals-only probe and its recomputing commit: bit 2 (step
    // 5) is set in 4..7 too, so every survivor matches and nothing
    // may be excluded; bit 1 (step 6) splits them into 4,5 | 6,7.
    const auto fused = unit.probe(5, true, /*record=*/false);
    EXPECT_TRUE(fused.anyMatch);
    EXPECT_FALSE(fused.anyMismatch);
    const auto split = unit.probe(6, true, /*record=*/false);
    EXPECT_TRUE(split.anyMatch);
    EXPECT_TRUE(split.anyMismatch);
    EXPECT_EQ(unit.commitAndCount(6, true, /*record=*/false), 2u);
    EXPECT_EQ(unit.firstSurvivor(), 0u); // 4, 5 remain
}
