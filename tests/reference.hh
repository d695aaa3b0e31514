/**
 * @file
 * Direct software transcription of the paper's Algorithm 1 (and its
 * signed / floating-point extensions from section III-A), operating on
 * an explicit set of values.  Used as the executable specification
 * that the bit-level array model and the fast model are tested
 * against.
 */

#ifndef RIME_TESTS_REFERENCE_HH
#define RIME_TESTS_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "common/key_codec.hh"

namespace rime::rimehw
{

/** Result of one reference min/max computation. */
struct ReferenceResult
{
    bool found = false;
    /** Position (in the input vector) of the winner: the lowest index
     *  among the values that survive the scan. */
    std::size_t index = 0;
    std::uint64_t raw = 0;
    /** Column-search steps performed (with early termination). */
    unsigned steps = 0;
};

/**
 * Find the min (or max) of the values whose `alive` flag is set, by
 * the k-step bit-serial scan of Algorithm 1.
 *
 * @param raw_values raw stored bit patterns
 * @param alive      selection flags (values in the current set)
 * @param k          word width in bits
 * @param mode       data-type interpretation
 * @param find_max   search for max instead of min
 */
inline ReferenceResult
referenceMinMax(const std::vector<std::uint64_t> &raw_values,
                const std::vector<bool> &alive, unsigned k,
                KeyMode mode, bool find_max)
{
    ReferenceResult result;
    std::vector<std::size_t> set;
    for (std::size_t i = 0; i < raw_values.size(); ++i)
        if (alive[i])
            set.push_back(i);
    if (set.empty())
        return result;

    bool negatives_present = false;
    if (set.size() > 1) {
        for (unsigned s = 0; s < k; ++s) {
            const unsigned pos = k - 1 - s;
            const bool search_bit = searchPolarity(
                pos, k, mode, negatives_present, find_max);
            // Form sel: the matching numbers at this bit position.
            std::vector<std::size_t> sel;
            std::vector<std::size_t> rest;
            for (std::size_t idx : set) {
                const bool bit_val = (raw_values[idx] >> pos) & 1ULL;
                if (bit_val == search_bit)
                    sel.push_back(idx);
                else
                    rest.push_back(idx);
            }
            // Exclude sel only when sel != set (and sel nonempty).
            if (!sel.empty() && !rest.empty())
                set = rest;
            ++result.steps;
            if (pos == k - 1) {
                // After the sign step the survivors share a sign; the
                // controller derives it from the search outcome.  Here
                // we read it off a survivor directly.
                negatives_present =
                    (raw_values[set.front()] >> (k - 1)) & 1ULL;
            }
            if (set.size() <= 1)
                break;
        }
    }

    result.found = true;
    result.index = set.front(); // priority to smaller indices
    result.raw = raw_values[set.front()];
    return result;
}

/**
 * Repeated-extraction sort by the reference algorithm: returns input
 * positions in extraction order (ascending for min).
 */
inline std::vector<std::size_t>
referenceSort(const std::vector<std::uint64_t> &raw_values, unsigned k,
              KeyMode mode, bool find_max = false)
{
    std::vector<bool> alive(raw_values.size(), true);
    std::vector<std::size_t> order;
    order.reserve(raw_values.size());
    for (std::size_t n = 0; n < raw_values.size(); ++n) {
        const auto r = referenceMinMax(raw_values, alive, k, mode,
                                       find_max);
        if (!r.found)
            break;
        order.push_back(r.index);
        alive[r.index] = false;
    }
    return order;
}

} // namespace rime::rimehw

#endif // RIME_TESTS_REFERENCE_HH
