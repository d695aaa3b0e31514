/**
 * @file
 * Instrumented quicksort over packed 64-bit keys, used by the
 * baseline versions of the workloads that sort (weight, id) or
 * (key, value) pairs.
 */

#ifndef RIME_WORKLOADS_SORT64_HH
#define RIME_WORKLOADS_SORT64_HH

#include <cstdint>
#include <vector>

#include "sort/traced_array.hh"

namespace rime::workloads
{

/** Operation counts of a 64-bit sort. */
struct Sort64Counts
{
    std::uint64_t comparisons = 0;
    std::uint64_t moves = 0;
};

namespace detail
{

using Traced64 = sort::TracedArray<std::uint64_t>;

inline void
insertionSort64(Traced64 &a, std::size_t lo, std::size_t hi,
                Sort64Counts &ops)
{
    for (std::size_t i = lo + 1; i < hi; ++i) {
        const std::uint64_t v = a.get(i);
        std::size_t j = i;
        while (j > lo) {
            const std::uint64_t u = a.get(j - 1);
            ++ops.comparisons;
            if (u <= v)
                break;
            a.set(j, u);
            ++ops.moves;
            --j;
        }
        a.set(j, v);
        ++ops.moves;
    }
}

inline void
quicksort64Rec(Traced64 &a, std::size_t lo, std::size_t hi,
               Sort64Counts &ops)
{
    while (hi - lo > 16) {
        const std::size_t mid = lo + (hi - lo) / 2;
        const std::uint64_t p0 = a.get(lo);
        const std::uint64_t p1 = a.get(mid);
        const std::uint64_t p2 = a.get(hi - 1);
        ops.comparisons += 3;
        const std::uint64_t pivot =
            std::max(std::min(p0, p1), std::min(std::max(p0, p1), p2));
        std::size_t i = lo;
        std::size_t j = hi - 1;
        while (true) {
            while (true) {
                ++ops.comparisons;
                if (a.get(i) >= pivot)
                    break;
                ++i;
            }
            while (true) {
                ++ops.comparisons;
                if (a.get(j) <= pivot)
                    break;
                --j;
            }
            if (i >= j)
                break;
            const std::uint64_t vi = a.get(i);
            const std::uint64_t vj = a.get(j);
            a.set(i, vj);
            a.set(j, vi);
            ops.moves += 2;
            ++i;
            if (j > 0)
                --j;
        }
        if (j == hi - 1)
            --j;
        const std::size_t split = j + 1;
        if (split - lo < hi - split) {
            quicksort64Rec(a, lo, split, ops);
            lo = split;
        } else {
            quicksort64Rec(a, split, hi, ops);
            hi = split;
        }
    }
    insertionSort64(a, lo, hi, ops);
}

} // namespace detail

/**
 * Sort packed 64-bit keys in place.  Accesses join the caller's batch
 * so the sort's stream keeps its place in the kernel's global access
 * order.
 */
inline Sort64Counts
tracedQuicksort64(std::vector<std::uint64_t> &keys, Addr base,
                  sort::AccessBatch &batch, unsigned core = 0)
{
    Sort64Counts ops;
    if (keys.size() > 1) {
        detail::Traced64 a(std::span<std::uint64_t>(keys), base,
                           &batch, core);
        detail::quicksort64Rec(a, 0, keys.size(), ops);
    }
    return ops;
}

} // namespace rime::workloads

#endif // RIME_WORKLOADS_SORT64_HH
