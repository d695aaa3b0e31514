/**
 * @file
 * Tests of the data/index H-tree model: priority-encoded index
 * reduction (Figure 10) and select-vector range routing (Figure 11),
 * and the model as the oracle of the bit-level chip's inline winner
 * selection on multi-unit scans.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/key_codec.hh"
#include "common/rng.hh"
#include "htree.hh"
#include "rimehw/chip.hh"

using namespace rime;
using namespace rime::rimehw;

TEST(IndexTree, Figure10PriorityEncoding)
{
    // 16 leaves; candidates in leaves 2, 7, and 12.  The tree must
    // report leaf 2 (priority to smaller indices).
    IndexTree tree(16);
    std::vector<TreeSignal> leaves(16);
    for (const unsigned leaf : {2u, 7u, 12u}) {
        leaves[leaf].exists = true;
        leaves[leaf].index = 0; // local row 0
    }
    const auto root = tree.reduce(leaves, 0);
    EXPECT_TRUE(root.exists);
    EXPECT_EQ(root.index, 2u);
}

TEST(IndexTree, LocalIndexBitsArePreserved)
{
    IndexTree tree(8);
    std::vector<TreeSignal> leaves(8);
    leaves[5].exists = true;
    leaves[5].index = 3; // local row 3 within an 4-row leaf
    const auto root = tree.reduce(leaves, 2);
    EXPECT_TRUE(root.exists);
    EXPECT_EQ(root.index, 5u * 4 + 3);
}

TEST(IndexTree, NoCandidateAnywhere)
{
    IndexTree tree(4);
    std::vector<TreeSignal> leaves(4);
    const auto root = tree.reduce(leaves, 4);
    EXPECT_FALSE(root.exists);
}

TEST(IndexTree, RandomizedAgainstLinearScan)
{
    Rng rng(21);
    IndexTree tree(32);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<TreeSignal> leaves(32);
        unsigned expect_leaf = 32;
        unsigned expect_row = 0;
        for (unsigned leaf = 0; leaf < 32; ++leaf) {
            if (rng.below(3) == 0) {
                leaves[leaf].exists = true;
                leaves[leaf].index = rng.below(16);
                if (expect_leaf == 32) {
                    expect_leaf = leaf;
                    expect_row = static_cast<unsigned>(
                        leaves[leaf].index);
                }
            }
        }
        const auto root = tree.reduce(leaves, 4);
        if (expect_leaf == 32) {
            EXPECT_FALSE(root.exists);
        } else {
            ASSERT_TRUE(root.exists);
            EXPECT_EQ(root.index, expect_leaf * 16 + expect_row);
        }
    }
}

TEST(IndexTree, Figure11RangeRouting)
{
    // Figure 11: 16 rows across 4 leaves of 4 rows; range [5, 11).
    IndexTree tree(4);
    const auto routed = tree.routeRange(5, 11, 4);
    ASSERT_EQ(routed.size(), 4u);
    EXPECT_FALSE(routed[0].selected);
    EXPECT_TRUE(routed[1].selected);
    EXPECT_EQ(routed[1].begin, 1u);
    EXPECT_EQ(routed[1].end, 4u);
    EXPECT_TRUE(routed[2].selected);
    EXPECT_EQ(routed[2].begin, 0u);
    EXPECT_EQ(routed[2].end, 3u);
    EXPECT_FALSE(routed[3].selected);
}

TEST(IndexTree, RangeRoutingFullAndEmpty)
{
    IndexTree tree(8);
    const auto all = tree.routeRange(0, 64, 8);
    for (const auto &leaf : all) {
        EXPECT_TRUE(leaf.selected);
        EXPECT_EQ(leaf.begin, 0u);
        EXPECT_EQ(leaf.end, 8u);
    }
    const auto none = tree.routeRange(20, 20, 8);
    for (const auto &leaf : none)
        EXPECT_FALSE(leaf.selected);
}

TEST(IndexTree, RejectsNonPowerOfTwo)
{
    EXPECT_THROW(IndexTree(12), FatalError);
}

TEST(IndexTree, OracleForChipWinnerOnMultiUnitScans)
{
    // RimeChip priority-encodes each scan's winner inline (lowest
    // unit, then lowest row).  Here the tree recomputes it: the scan's
    // range is routed to the units (leaves) with routeRange, each
    // selected unit offers its first non-excluded row holding the
    // extreme key, and reduce() must name the chip's winner.  Keys
    // come from four values, so every extreme ties across many units
    // and the priority decides; ranges start and end mid-unit, and
    // min and max scans interleave over the same exclusion latches.
    RimeGeometry g;
    g.chipsPerChannel = 1;
    g.banksPerChip = 2;
    g.subbanksPerBank = 4;
    g.arraysPerMat = 2;
    g.arrayRows = 8;
    g.arrayCols = 64;
    const unsigned k = 8;
    const unsigned rows = g.arrayRows;
    const std::uint64_t pool[] = {0x00, 0x01, 0x7F, 0x80};
    for (const KeyMode mode : {KeyMode::UnsignedFixed,
                               KeyMode::SignedFixed}) {
        SCOPED_TRACE(static_cast<int>(mode));
        RimeChip chip(g);
        chip.configure(k, mode);
        const std::uint64_t capacity = chip.valueCapacity();
        const std::uint64_t units = capacity / rows;
        ASSERT_GT(units, 8u);
        const IndexTree tree(static_cast<unsigned>(units));
        Rng rng(5 + static_cast<int>(mode));
        std::vector<std::uint64_t> keys(capacity);
        for (std::uint64_t i = 0; i < capacity; ++i) {
            const std::uint64_t raw = pool[rng.below(4)];
            chip.writeValue(i, raw);
            keys[i] = encodeKey(raw, k, mode);
        }
        for (int trial = 0; trial < 6; ++trial) {
            const std::uint64_t begin = rng.below(capacity / 4);
            const std::uint64_t end =
                capacity - rng.below(capacity / 4);
            chip.initRange(begin, end);
            std::vector<bool> excluded(capacity, false);
            const auto routed = tree.routeRange(begin, end, rows);
            for (std::uint64_t n = 0; n <= end - begin; ++n) {
                const bool find_max = rng.below(2) == 0;
                bool any = false;
                std::uint64_t best = 0;
                for (std::uint64_t i = begin; i < end; ++i) {
                    if (excluded[i])
                        continue;
                    if (!any || (find_max ? keys[i] > best
                                          : keys[i] < best))
                        best = keys[i];
                    any = true;
                }
                std::vector<TreeSignal> leaves(units);
                for (std::uint64_t u = 0; u < units; ++u) {
                    if (!routed[u].selected)
                        continue;
                    for (unsigned row = routed[u].begin;
                         row < routed[u].end; ++row) {
                        const std::uint64_t i = u * rows + row;
                        if (!excluded[i] && keys[i] == best) {
                            leaves[u] = {true, row};
                            break;
                        }
                    }
                }
                const TreeSignal root =
                    tree.reduce(leaves, floorLog2(rows));
                const ExtractResult r = chip.scan(begin, end, find_max);
                ASSERT_EQ(r.found, root.exists) << "extraction " << n;
                if (!r.found)
                    break;
                ASSERT_EQ(r.index, root.index) << "extraction " << n;
                chip.exclude(begin, end, r.index);
                excluded[r.index] = true;
            }
        }
    }
}
