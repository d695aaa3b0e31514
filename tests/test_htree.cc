/**
 * @file
 * Tests of the data/index H-tree model: priority-encoded index
 * reduction (Figure 10) and select-vector range routing (Figure 11).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "htree.hh"

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
