/**
 * @file
 * FastRime: an O(N log N) behavioural model of a RIME chip.
 *
 * The bit-level RimeChip costs O(k * N) per extraction, which is exact
 * but unusable at the paper's 65M-key scale.  FastRime exploits two
 * theorems about the hardware semantics (proven equivalent to the
 * bit-level model by the property tests in tests/rimehw):
 *
 *  1. Repeated min extraction visits values in ascending order of the
 *     order-preserving encoded key, lowest address first among ties
 *     (the H-tree's priority encoding): i.e., a stable sort.
 *  2. The number of column-search steps an extraction consumes under
 *     early termination (stop when one survivor remains) is
 *     min(k, LCP(e_winner, e_runnerup) + 1), where LCP is the common
 *     leading-bit prefix of the encoded keys, 0 steps when only one
 *     value remains, and k when the winner is tied.
 *
 * An active range is kept as a sorted vector (the values present at
 * rime_init) plus an ordered overlay of values written afterwards
 * (ordinary stores into a live range, as the strict-priority-queue
 * workload performs).  A store to an already-extracted row stays
 * invisible until the next rime_init, matching the exclusion-latch
 * behaviour of the hardware.
 *
 * Timing and energy are charged with exactly the same formulas as
 * RimeChip, so the two models produce identical statistics.
 */

#ifndef RIME_RIMEHW_FAST_MODEL_HH
#define RIME_RIMEHW_FAST_MODEL_HH

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "rimehw/backend.hh"

namespace rime::rimehw
{

/** Fast behavioural model of one RIME chip. */
class FastRime : public RankBackend
{
  public:
    FastRime(const RimeGeometry &geometry = RimeGeometry{},
             const RimeTimingParams &timing = RimeTimingParams{});

    void configure(unsigned k, KeyMode mode) override;
    unsigned wordBits() const override { return k_; }
    KeyMode mode() const override { return mode_; }
    std::uint64_t valueCapacity() const override;
    Tick writeValue(std::uint64_t index, std::uint64_t raw) override;
    void writeValues(std::uint64_t index, const std::uint64_t *src,
                     std::uint64_t count, std::size_t stride) override;
    std::uint64_t readValue(std::uint64_t index) override;
    std::uint64_t peekValue(std::uint64_t index) override;
    void pokeValue(std::uint64_t index, std::uint64_t raw) override;
    Tick initRange(std::uint64_t begin, std::uint64_t end) override;
    ExtractResult scan(std::uint64_t begin, std::uint64_t end,
                       bool find_max = false) override;
    void exclude(std::uint64_t begin, std::uint64_t end,
                 std::uint64_t index) override;
    bool isExcluded(std::uint64_t begin, std::uint64_t end,
                    std::uint64_t index) override;
    std::uint64_t remainingInRange(std::uint64_t begin,
                                   std::uint64_t end) override;

    const StatGroup &stats() const override { return stats_; }
    StatGroup &stats() override { return stats_; }
    const EnduranceTracker &endurance() const override
    { return endurance_; }
    const RimeGeometry &geometry() const override { return geometry_; }
    const RimeTimingParams &timing() const override { return timing_; }

  private:
    using RangeKey = std::pair<std::uint64_t, std::uint64_t>;
    /** (encoded key, value index): the scan order. */
    using Entry = std::pair<std::uint64_t, std::uint64_t>;

    /** State of one active operation range. */
    struct OpState
    {
        /** Entries present at init, sorted by (encoded, index). */
        std::vector<Entry> order;
        std::vector<std::uint8_t> taken; ///< per order position
        std::size_t lo = 0;
        std::size_t hi = 0;
        /** Values stored into the live range after init. */
        std::set<Entry> overlay;
        /** Exclusion latches, indexed by (index - range begin). */
        std::vector<std::uint8_t> excluded;
        std::uint64_t remaining = 0;
        std::uint64_t activeUnits = 0;
        bool built = false;
    };

    std::uint64_t encoded(std::uint64_t index) const;
    OpState &op(std::uint64_t begin, std::uint64_t end);
    void buildOrder(const RangeKey &key, OpState &state);
    void invalidateOverlapping(std::uint64_t begin, std::uint64_t end);
    /** Reflect an in-place store into every live op covering index. */
    void applyLiveWrite(std::uint64_t index, std::uint64_t old_encoded,
                        std::uint64_t new_encoded);
    ExtractResult scanResult(OpState &state, const Entry &winner,
                             unsigned steps);

    RimeGeometry geometry_;
    RimeTimingParams timing_;
    unsigned k_ = 32;
    KeyMode mode_ = KeyMode::UnsignedFixed;

    /** Raw values, grown on demand. */
    std::vector<std::uint64_t> values_;
    std::map<RangeKey, OpState> ops_;
    /**
     * Last range op() resolved: extraction loops hit one range with
     * several lookups per produced value (scan, exclusion check,
     * exclude), and map nodes are stable, so the previous answer
     * almost always still holds.  Cleared whenever ops_ shrinks.
     */
    OpState *lastOp_ = nullptr;
    RangeKey lastKey_{};

    StatGroup stats_;
    // Cached handles into stats_: extraction accounting is the
    // hottest code in the figure benches, and the plain adds keep it
    // free of per-event string lookups (dumps are unchanged).
    StatCounter rowWrites_;
    StatCounter rowReads_;
    StatCounter rangeInits_;
    StatCounter exclusions_;
    StatCounter extractions_;
    StatCounter scanSteps_;
    StatCounter columnSearches_;
    StatCounter energyPJ_;
    StatCounter busyTicks_;
    EnduranceTracker endurance_;
};

} // namespace rime::rimehw

#endif // RIME_RIMEHW_FAST_MODEL_HH
