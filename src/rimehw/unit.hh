/**
 * @file
 * A logical scan unit: one slot group of one subarray, together with
 * its select-vector latches, range mask, and exclusion flags.
 *
 * A k-bit word occupies k adjacent columns of the 512-wide subarray, so
 * each subarray hosts cols/k independent slot groups.  Each slot group
 * is a leaf of the data/index reduction tree (see DESIGN.md); the
 * per-row select and exclusion latches of the paper's Figure 7 are
 * modelled per slot group.
 *
 * When fault injection is active, the top rows of each unit are
 * reserved as spares: a logical row whose cells can no longer hold its
 * value is remapped to a spare row (the row-repair half of the
 * verify-retry-remap-retire pipeline; see DESIGN.md "Fault model").
 * Logical rows [0, usableRows) address values; the remap table and
 * bad-row mask translate them to physical rows.  All latch vectors are
 * physical-row indexed, so the word-parallel scan path is unchanged;
 * remaps only add a small fix-up loop on range loads.
 */

#ifndef RIME_RIMEHW_UNIT_HH
#define RIME_RIMEHW_UNIT_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "rimehw/array.hh"
#include "rimehw/bitvector.hh"

namespace rime::rimehw
{

/** One slot group of one subarray participating in a scan. */
class ArrayUnit
{
  public:
    /**
     * @param array       the backing subarray
     * @param slot        which slot group (column offset slot*k)
     * @param k           word width in bits
     * @param usable_rows rows addressable as values; rows above are
     *        repair spares (0 means every row is usable, no spares)
     */
    ArrayUnit(RramArray *array, unsigned slot, unsigned k,
              unsigned usable_rows = 0)
        : array_(array), slot_(slot), k_(k),
          usableRows_(usable_rows ? usable_rows : array->rows()),
          nextSpare_(usableRows_),
          range_(array->rows()), excluded_(array->rows()),
          select_(array->rows()), lastMatch_(array->rows()),
          badRows_(array->rows()), lost_(array->rows())
    {}

    unsigned rows() const { return array_->rows(); }
    unsigned usableRows() const { return usableRows_; }
    unsigned slot() const { return slot_; }

    /** Store a raw k-bit word at the given logical row. */
    void
    writeValue(unsigned row, std::uint64_t raw,
               std::uint64_t block_writes = 0)
    {
        writePhysical(physicalRow(row), raw, block_writes);
    }

    /**
     * Store `count` raw words at logical rows [row, row + count), the
     * j-th read from src[j * stride] (RramArray::writeRows).  Units
     * without a fault model only: logical rows are then physical.
     */
    void
    writeValues(unsigned row, const std::uint64_t *src, unsigned count,
                std::size_t stride)
    {
        array_->writeRows(row, slot_ * k_, k_, src, count, stride);
    }

    /** Read back the raw word at the given logical row. */
    std::uint64_t
    readValue(unsigned row) const
    {
        return readPhysical(physicalRow(row));
    }

    /**
     * Stored value at a logical row, skipping the sense-path disturb
     * overlay (snapshot/state-dump path).
     */
    std::uint64_t
    peekValue(unsigned row) const
    {
        return array_->peekRowBits(physicalRow(row), slot_ * k_, k_);
    }

    /**
     * Install a value at a logical row without wear accounting
     * (snapshot-restore path).  Stuck cells keep their stuck state,
     * exactly as a hardware rewrite would.
     */
    void
    pokeValue(unsigned row, std::uint64_t raw)
    {
        array_->writeRowBits(physicalRow(row), slot_ * k_, k_, raw);
    }

    /** Store at a physical row (repair path: spares, migration). */
    void
    writePhysical(unsigned phys, std::uint64_t raw,
                  std::uint64_t block_writes = 0)
    {
        array_->writeRowBits(phys, slot_ * k_, k_, raw, block_writes);
    }

    /** Read a physical row (sense path; subject to read disturb). */
    std::uint64_t
    readPhysical(unsigned phys) const
    {
        return array_->readRowBits(phys, slot_ * k_, k_);
    }

    // ------------------------------------------------------------------
    // Row repair (spare remapping).
    // ------------------------------------------------------------------

    /** Physical row currently backing a logical row. */
    unsigned
    physicalRow(unsigned logical) const
    {
        if (remapped_) {
            auto it = logToPhys_.find(logical);
            if (it != logToPhys_.end())
                return it->second;
        }
        return logical;
    }

    /** Logical row a physical row backs (identity when unmapped). */
    unsigned
    logicalRow(unsigned phys) const
    {
        if (remapped_) {
            auto it = physToLog_.find(phys);
            if (it != physToLog_.end())
                return it->second;
        }
        return phys;
    }

    /**
     * Next untried spare row, or rows() when the unit's spares are
     * exhausted (the caller then escalates to unit retirement).
     */
    unsigned
    allocateSpare()
    {
        while (nextSpare_ < rows()) {
            const unsigned phys = nextSpare_++;
            if (!badRows_.test(phys))
                return phys;
        }
        return rows();
    }

    /** True once every spare row has been handed out. */
    bool sparesExhausted() const { return nextSpare_ >= rows(); }

    /**
     * Point a logical row at a new physical row (after a verified
     * write there).  The old position is marked bad and the row's
     * exclusion latch moves with it.
     */
    void
    installRemap(unsigned logical, unsigned phys)
    {
        const unsigned old = physicalRow(logical);
        markBadPhysical(old);
        excluded_.set(phys, excluded_.test(old));
        physToLog_.erase(old);
        logToPhys_[logical] = phys;
        physToLog_[phys] = logical;
        remapped_ = true;
    }

    /** Flag a physical row as unusable (failed verify). */
    void
    markBadPhysical(unsigned phys)
    {
        badRows_.set(phys, true);
        faulty_ = true;
    }

    /**
     * Record that a logical row's value can no longer be stored
     * anywhere: the row leaves the scan range and poisons extractions
     * over it until re-initialized (see lostUnexcluded()).
     */
    void
    markLost(unsigned logical)
    {
        const unsigned phys = physicalRow(logical);
        markBadPhysical(phys);
        physToLog_.erase(phys);
        logToPhys_.erase(logical);
        lost_.set(logical, true);
    }

    /** Count of logical rows remapped to spares. */
    std::size_t remappedRows() const { return logToPhys_.size(); }

    /** Count of logical rows whose value was lost. */
    unsigned lostRows() const { return lost_.count(); }

    /**
     * True when some logical row of [begin, end) lost its value and
     * has not been consumed (excluded): an extraction over the range
     * cannot claim to return the true minimum.
     */
    bool
    lostUnexcluded(unsigned begin, unsigned end) const
    {
        if (!faulty_)
            return false;
        for (unsigned w = 0; w < lost_.numWords(); ++w) {
            std::uint64_t bits = lost_.word(w);
            while (bits) {
                const unsigned row = w * 64 + static_cast<unsigned>(
                    std::countr_zero(bits));
                bits &= bits - 1;
                if (row >= begin && row < end &&
                    !excluded_.test(physicalRow(row)))
                    return true;
            }
        }
        return false;
    }

    // ------------------------------------------------------------------
    // Scan latches (physical rows).
    // ------------------------------------------------------------------

    /**
     * Route the operation's address range to this unit (Figure 11):
     * logical rows [begin, end) participate in subsequent scans.
     */
    void
    setRange(unsigned begin, unsigned end)
    {
        range_.clearAll();
        range_.setRange(begin, end);
        if (faulty_) {
            range_.andNot(badRows_);
            for (const auto &[log, phys] : logToPhys_) {
                if (log >= begin && log < end)
                    range_.set(phys, true);
            }
        }
    }

    /**
     * Reset the exclusion latches of logical rows [begin, end),
     * performed by rime_init when a new operation starts on the range.
     */
    void
    clearExclusions(unsigned begin, unsigned end)
    {
        excluded_.clearRange(begin, end);
        if (remapped_) {
            for (const auto &[log, phys] : logToPhys_) {
                if (log >= begin && log < end)
                    excluded_.set(phys, false);
            }
        }
        // A fresh operation observes current memory: lost values in
        // the range stay lost (they poison scans) until overwritten.
    }

    /** A value was successfully rewritten: the row is whole again. */
    void clearLost(unsigned logical) { lost_.set(logical, false); }

    /** True if the logical row's value was lost. */
    bool isLost(unsigned logical) const { return lost_.test(logical); }

    /**
     * Load select latches for a new extraction (range minus excluded)
     * and return the survivor count, in one pass over the words.
     */
    unsigned
    beginExtraction()
    {
        survivors_ = select_.assignAndNotCount(range_, excluded_);
        return survivors_;
    }

    /**
     * One bitwise column search step: the two per-mat signals the
     * chip controller consumes (section IV-B2).
     *
     * @param step_from_msb 0 scans the MSB column
     * @param search_bit    the reference bit; matching rows are the
     *                      exclusion candidates
     * @param record        record the match vector (columnSearchInto,
     *                      read-disturb aware) for the commit; false
     *                      takes the signals-only probe, whose commit
     *                      recomputes the match from the stored
     *                      column.  Chosen once per scan by
     *                      RimeChip::runScanSteps; a step's probe and
     *                      commit must pass the same value.
     */
    kernels::SearchSignals
    probe(unsigned step_from_msb, bool search_bit, bool record)
    {
        // A unit whose select latches are all zero contributes
        // nothing to the wired-OR signals; its selectlines stay
        // quiet, so the sense pass is skipped.  (Its commit is
        // skipped too, so a stale lastMatch_ is never read.)
        if (survivors_ == 0)
            return {};
        const unsigned col = slot_ * k_ + step_from_msb;
        if (!record)
            return array_->searchSignals(col, search_bit, select_);
        return array_->columnSearchInto(col, search_bit, select_,
                                        lastMatch_);
    }

    /**
     * Apply the controller's exclusion decision for the step probed
     * with the same arguments -- the matched rows leave the select
     * latches -- and report the rows still selected, in one word
     * pass.  Without `record` the match is recomputed from the stored
     * column (bit-identical; see kernels.hh commitSearch), so the
     * step's probe may have been skipped.
     */
    unsigned
    commitAndCount(unsigned step_from_msb, bool search_bit, bool record)
    {
        if (survivors_ == 0)
            return 0;
        survivors_ = record
            ? select_.andNotCount(lastMatch_)
            : array_->commitSearch(slot_ * k_ + step_from_msb,
                                   search_bit, select_);
        return survivors_;
    }

    /**
     * Rows still selected.  Served from the survivors_ cache the
     * extraction path already maintains (beginExtraction and
     * commitAndCount mutate select_ through counting ops), so
     * callers don't pay an O(words) popcount pass per query.
     */
    unsigned
    survivorCount() const
    {
        assert(survivors_ == select_.count());
        return survivors_;
    }

    /** Lowest selected physical row (priority encoding), rows() when
     *  none. */
    unsigned firstSurvivor() const { return select_.firstSet(); }

    /** Flag a logical row so later extractions skip it. */
    void exclude(unsigned row) { excluded_.set(physicalRow(row)); }

    /** State of a logical row's exclusion latch. */
    bool isExcluded(unsigned row) const
    { return excluded_.test(physicalRow(row)); }

    /** True if the logical row is inside the initialized range. */
    bool inRange(unsigned row) const
    { return range_.test(physicalRow(row)); }

    const BitVector &select() const { return select_; }

  private:
    RramArray *array_;
    unsigned slot_;
    unsigned k_;
    /** Logical rows (values); [usableRows_, rows()) are spares. */
    unsigned usableRows_;
    /** Next spare row to hand out. */
    unsigned nextSpare_;
    BitVector range_;
    BitVector excluded_;
    BitVector select_;
    /** Match vector of the last recorded probe (record = true). */
    BitVector lastMatch_;
    /** Physical rows that failed write-verify (never selectable). */
    BitVector badRows_;
    /** Logical rows whose value is unrecoverable. */
    BitVector lost_;
    /** Row repair tables (logical <-> physical). */
    std::unordered_map<unsigned, unsigned> logToPhys_;
    std::unordered_map<unsigned, unsigned> physToLog_;
    /** Fast-path guards: any remap / any bad row recorded. */
    bool remapped_ = false;
    bool faulty_ = false;
    /**
     * Select-latch population cache: every mutation of select_ flows
     * through a fused counting op (beginExtraction, commitAndCount),
     * so this is always popcount(select_).  Lets drained units
     * short-circuit their probes and survivorCount() answer in O(1).
     */
    unsigned survivors_ = 0;
};

} // namespace rime::rimehw

#endif // RIME_RIMEHW_UNIT_HH
