/**
 * @file
 * Abstract chip-level ranking backend.
 *
 * Two implementations exist with identical observable behaviour (the
 * property tests enforce this): RimeChip, the bit-level array model,
 * and FastRime, the O(N log N) model used for paper-scale sweeps.  The
 * software stack (src/rime) is written against this interface.
 */

#ifndef RIME_RIMEHW_BACKEND_HH
#define RIME_RIMEHW_BACKEND_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/key_codec.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "rimehw/endurance.hh"
#include "rimehw/params.hh"

namespace rime::rimehw
{

/** Outcome class of a scan on a possibly-faulty chip. */
enum class ScanStatus : std::uint8_t
{
    /** Result verified (or range empty with found == false). */
    Ok,
    /** Read-back verify kept failing within the retry budget. */
    VerifyFailed,
    /** The range covers a value that repair could not preserve. */
    DataLoss,
};

/** Result of one in-situ min/max extraction. */
struct ExtractResult
{
    bool found = false;
    /** Raw stored bit pattern of the extracted value. */
    std::uint64_t raw = 0;
    /** Value index within the chip (the H-tree output address). */
    std::uint64_t index = 0;
    /** Column-search steps the scan consumed. */
    unsigned steps = 0;
    /** Latency of the extraction (scan + winner row read). */
    Tick time = 0;
    /** Fault-detection outcome (always Ok on a fault-free chip). */
    ScanStatus status = ScanStatus::Ok;
};

/** Aggregated repair-pipeline state of one chip. */
struct HealthCounts
{
    std::uint64_t healthyUnits = 0;
    std::uint64_t degradedUnits = 0; ///< rows remapped to spares
    std::uint64_t retiredUnits = 0;  ///< migrated to a spare unit
    std::uint64_t deadUnits = 0;     ///< repair capacity exhausted
    std::uint64_t remappedRows = 0;
    std::uint64_t lostValues = 0;

    HealthCounts &
    operator+=(const HealthCounts &o)
    {
        healthyUnits += o.healthyUnits;
        degradedUnits += o.degradedUnits;
        retiredUnits += o.retiredUnits;
        deadUnits += o.deadUnits;
        remappedRows += o.remappedRows;
        lostValues += o.lostValues;
        return *this;
    }
};

/** Chip-level in-situ ranking interface. */
class RankBackend
{
  public:
    virtual ~RankBackend() = default;

    /** Set word width and data-type mode; clears any active range. */
    virtual void configure(unsigned k, KeyMode mode) = 0;
    virtual unsigned wordBits() const = 0;
    virtual KeyMode mode() const = 0;

    /** Number of k-bit values the chip can store. */
    virtual std::uint64_t valueCapacity() const = 0;

    /** Store a raw value; returns the write latency. */
    virtual Tick writeValue(std::uint64_t index, std::uint64_t raw) = 0;

    /**
     * Store `count` raw values at indices [index, index + count), the
     * i-th read from src[i * stride]: the bulk-load path.  Leaves the
     * same values, stats, energy and wear as a writeValue loop.
     */
    virtual void
    writeValues(std::uint64_t index, const std::uint64_t *src,
                std::uint64_t count, std::size_t stride)
    {
        for (std::uint64_t i = 0; i < count; ++i)
            writeValue(index + i, src[i * stride]);
    }

    /** Read a stored value. */
    virtual std::uint64_t readValue(std::uint64_t index) = 0;

    /**
     * Read a stored value without charging stats, energy, or wear --
     * the snapshot/state-dump path.  Observes row remaps but skips
     * the read-disturb machinery (a dump must not advance the sensing
     * epoch or perturb any counter).
     */
    virtual std::uint64_t peekValue(std::uint64_t index) = 0;

    /**
     * Store a raw value without charging stats, energy, or wear --
     * the snapshot-restore path.  Only valid on a quiescent chip (no
     * active operation ranges); restore installs values first and
     * re-initializes ranges afterwards.
     */
    virtual void pokeValue(std::uint64_t index, std::uint64_t raw) = 0;

    /**
     * Initialize indices [begin, end) for a new rank/sort/merge
     * operation: clears the exclusion flags of the range (Figure 11's
     * select-vector initialization).  Ranges of concurrently active
     * operations must not overlap.
     */
    virtual Tick initRange(std::uint64_t begin, std::uint64_t end) = 0;

    /**
     * Scan [begin, end) for its current min (or max), skipping rows
     * whose exclusion latch is set.  Pure: the winner is *not*
     * excluded, so a scan result held in a DIMM buffer can be
     * discarded (e.g. when a store lands in the range) without losing
     * the value.  The begin/end addresses accompany every command (as
     * in the rime_min API), so several disjoint ranges can progress
     * concurrently.
     */
    virtual ExtractResult scan(std::uint64_t begin, std::uint64_t end,
                               bool find_max = false) = 0;

    /**
     * Set the exclusion latch of one value index (the commit the
     * library issues when it consumes a scanned candidate).
     */
    virtual void exclude(std::uint64_t begin, std::uint64_t end,
                         std::uint64_t index) = 0;

    /** Convenience: scan and immediately exclude the winner. */
    ExtractResult
    extract(std::uint64_t begin, std::uint64_t end,
            bool find_max = false)
    {
        ExtractResult r = scan(begin, end, find_max);
        if (r.found)
            exclude(begin, end, r.index);
        return r;
    }

    /** True when the index's exclusion latch is set. */
    virtual bool isExcluded(std::uint64_t begin, std::uint64_t end,
                            std::uint64_t index) = 0;

    /** Values in [begin, end) not yet extracted. */
    virtual std::uint64_t remainingInRange(std::uint64_t begin,
                                           std::uint64_t end) = 0;

    virtual const StatGroup &stats() const = 0;
    virtual StatGroup &stats() = 0;
    virtual const EnduranceTracker &endurance() const = 0;
    virtual const RimeGeometry &geometry() const = 0;
    virtual const RimeTimingParams &timing() const = 0;

    /** Repair-pipeline summary (zeros on a fault-free backend). */
    virtual HealthCounts healthCounts() const { return {}; }

    /**
     * Local value-index extents whose unit died (repair capacity
     * exhausted) since the last drain.  The driver retires these from
     * its free list so future allocations avoid dead mats.
     */
    virtual std::vector<std::pair<std::uint64_t, std::uint64_t>>
    drainDeadExtents() { return {}; }
};

} // namespace rime::rimehw

#endif // RIME_RIMEHW_BACKEND_HH
