/**
 * @file
 * Explicit model of the data/index H-tree (paper Figures 10 and 11).
 *
 * The tree performs three duties:
 *  1. OR-reduction of the per-mat exclusion signals during a scan,
 *  2. priority-encoded index computation of the min/max location
 *     (priority to smaller indices, guaranteeing stable sort),
 *  3. select-vector initialization by routing a begin/end address
 *     range from the root to the leaves.
 *
 * RimeChip implements these behaviours inline for speed; this
 * test-only class is the structural model used to validate them node
 * by node, and the oracle its scans' winners are checked against
 * (tests/test_htree.cc).
 */

#ifndef RIME_TESTS_HTREE_HH
#define RIME_TESTS_HTREE_HH

#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace rime::rimehw
{

/** The (E, A) signal pair travelling up the index tree (Figure 10). */
struct TreeSignal
{
    /** E: this subtree contains a min/max candidate. */
    bool exists = false;
    /** A: index of the candidate, built one bit per level. */
    std::uint64_t index = 0;
};

/** A complete binary reduction tree over `leaves` leaf arrays. */
class IndexTree
{
  public:
    explicit IndexTree(unsigned leaves)
        : leaves_(leaves)
    {
        if (!isPowerOf2(leaves))
            fatal("index tree needs a power-of-two leaf count");
        levels_ = floorLog2(leaves);
    }

    unsigned leaves() const { return leaves_; }
    unsigned levels() const { return levels_; }

    /**
     * One tree node (Figure 10): combine two children.  A0 is selected
     * when E0 is set (priority to smaller indices); the newly produced
     * index bit records which child won.
     */
    static TreeSignal
    combine(const TreeSignal &left, const TreeSignal &right,
            unsigned child_bits)
    {
        TreeSignal out;
        out.exists = left.exists || right.exists;
        const bool pick_right = !left.exists;
        const std::uint64_t selected =
            pick_right ? right.index : left.index;
        out.index = (static_cast<std::uint64_t>(pick_right)
                     << child_bits) | selected;
        return out;
    }

    /**
     * Reduce per-leaf signals to the root: returns whether any leaf
     * holds a candidate and the full priority-encoded index
     * (leaf bits above the per-leaf local index bits).
     *
     * @param leaf_signals one signal per leaf; index holds the local
     *                     (within-leaf) candidate index
     * @param local_bits   bits of the per-leaf local index
     */
    TreeSignal
    reduce(const std::vector<TreeSignal> &leaf_signals,
           unsigned local_bits) const
    {
        if (leaf_signals.size() != leaves_)
            fatal("leaf signal count mismatch");
        std::vector<TreeSignal> level = leaf_signals;
        unsigned child_bits = local_bits;
        while (level.size() > 1) {
            std::vector<TreeSignal> next(level.size() / 2);
            for (std::size_t i = 0; i < next.size(); ++i)
                next[i] = combine(level[2 * i], level[2 * i + 1],
                                  child_bits);
            level = std::move(next);
            ++child_bits;
        }
        return level.front();
    }

    /**
     * Select-vector initialization (Figure 11): which rows of each
     * leaf fall inside the global index range [begin, end)?  The tree
     * routes the begin/end signals to the children whose subranges
     * overlap; the result per leaf is a (firstRow, lastRow) pair, or
     * no selection.
     *
     * @param rows_per_leaf rows (local indices) per leaf
     */
    struct LeafRange
    {
        bool selected = false;
        unsigned begin = 0; ///< first selected local row
        unsigned end = 0;   ///< one past the last selected local row
    };

    std::vector<LeafRange>
    routeRange(std::uint64_t begin, std::uint64_t end,
               unsigned rows_per_leaf) const
    {
        std::vector<LeafRange> result(leaves_);
        for (unsigned leaf = 0; leaf < leaves_; ++leaf) {
            const std::uint64_t base =
                std::uint64_t(leaf) * rows_per_leaf;
            const std::uint64_t lo = std::max<std::uint64_t>(begin,
                                                             base);
            const std::uint64_t hi =
                std::min<std::uint64_t>(end, base + rows_per_leaf);
            if (lo < hi) {
                result[leaf].selected = true;
                result[leaf].begin = static_cast<unsigned>(lo - base);
                result[leaf].end = static_cast<unsigned>(hi - base);
            }
        }
        return result;
    }

  private:
    unsigned leaves_;
    unsigned levels_;
};

} // namespace rime::rimehw

#endif // RIME_TESTS_HTREE_HH
