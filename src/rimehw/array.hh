/**
 * @file
 * Bit-level model of a single 512x512 1T1R memristive subarray with the
 * RIME periphery of Figure 7: a per-row select vector, bitwise column
 * search producing a match vector (sensed bit XNOR the reference search
 * bit), and the "all 0 or 1" load logic for selective row exclusion.
 *
 * Storage is column-major so a column search is a handful of word-wide
 * AND operations against the select vector -- exactly the data-parallel
 * structure of the physical selectline sensing.
 *
 * Column words are 64-byte aligned (one 512-row column is exactly one
 * cache line).  Every column search runs through the dispatched
 * kernel table (kernels.hh), scalar or SIMD; the array itself holds
 * no copy of the word loops.
 */

#ifndef RIME_RIMEHW_ARRAY_HH
#define RIME_RIMEHW_ARRAY_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "rimehw/bitvector.hh"
#include "rimehw/faults.hh"
#include "rimehw/kernels.hh"

namespace rime::rimehw
{

/** One memristive subarray. */
class RramArray
{
  public:
    RramArray(unsigned rows, unsigned cols)
        : rows_(rows), cols_(cols),
          wordsPerCol_((rows + 63) / 64),
          columns_(std::size_t(cols) * wordsPerCol_, 0)
    {}

    unsigned rows() const { return rows_; }
    unsigned cols() const { return cols_; }

    /**
     * Attach a fault oracle.  Manufacturing stuck-at cells are baked
     * into the stored bits here, so the sensing paths observe them
     * without extra per-read work; wear-out and read disturb are
     * consulted on the write and read paths respectively.
     */
    void
    attachFaults(const FaultModel *faults, std::uint64_t array_id)
    {
        faults_ = faults;
        arrayId_ = array_id;
        if (!faults_)
            return;
        for (unsigned col = 0; col < cols_; ++col) {
            for (unsigned row = 0; row < rows_; ++row) {
                const int stuck = faults_->stuckState(arrayId_, row,
                                                      col);
                if (stuck >= 0)
                    setCell(row, col, stuck != 0);
            }
        }
    }

    /** Read the stored (physical) bit of one cell; no disturb. */
    bool
    cell(unsigned row, unsigned col) const
    {
        return (columns_[colBase(col) + (row >> 6)] >> (row & 63)) & 1;
    }

    /**
     * Write a k-bit value into one row with the MSB at column
     * `col_begin` (a row write in Figure 8c).
     *
     * @param block_writes wear level (block write count) applied to
     *        the written cells; stuck cells keep their stuck value
     *        and worn-out cells freeze at their current value, which
     *        the chip's write-verify detects
     */
    void
    writeRowBits(unsigned row, unsigned col_begin, unsigned k,
                 std::uint64_t value, std::uint64_t block_writes = 0)
    {
        if (col_begin + k > cols_ || row >= rows_)
            fatal("row write out of array bounds");
        for (unsigned i = 0; i < k; ++i) {
            const unsigned col = col_begin + i;
            bool bit = (value >> (k - 1 - i)) & 1ULL;
            if (faults_) {
                const int stuck = faults_->stuckState(arrayId_, row,
                                                      col);
                if (stuck >= 0)
                    bit = stuck != 0;
                else if (faults_->wornOut(arrayId_, row, col,
                                          block_writes))
                    continue; // frozen at the current stored value
            }
            setCell(row, col, bit);
        }
    }

    /**
     * Bulk row write: `count` k-bit values into rows [row, row +
     * count) with the MSB at column `col_begin`, the j-th read from
     * src[j * stride]; leaves the cells a writeRowBits loop leaves.
     * Each 64-row word of the run is gathered, turned into bit planes
     * by one transpose64, and merged into the k column words under
     * the run's row mask, so rows outside the run keep their bits.
     * The caller keeps the run inside the array, and calls it only
     * on a perfect array: stuck and worn-out cells need the per-row
     * path.
     */
    void
    writeRows(unsigned row, unsigned col_begin, unsigned k,
              const std::uint64_t *src, unsigned count,
              std::size_t stride)
    {
        assert(!faults_);
        assert(col_begin + k <= cols_ && row + count <= rows_);
        std::uint64_t planes[64];
        while (count > 0) {
            const unsigned lo = row & 63;
            const unsigned n = std::min(64u - lo, count);
            if (n < 64)
                std::fill(planes, planes + 64, 0);
            for (unsigned j = 0; j < n; ++j)
                planes[lo + j] = src[j * stride];
            transpose64(planes);
            const std::uint64_t mask =
                (n == 64 ? ~0ULL : (1ULL << n) - 1) << lo;
            std::uint64_t *word =
                &columns_[colBase(col_begin) + (row >> 6)];
            for (unsigned i = 0; i < k; ++i, word += wordsPerCol_)
                *word = (*word & ~mask) | (planes[k - 1 - i] & mask);
            row += n;
            count -= n;
            src += n * stride;
        }
    }

    /**
     * Stored bits of one row, skipping the sense-path disturb
     * overlay: the snapshot/state-dump path reads cell state, not a
     * sense, so a transiently disturbed epoch cannot leak a flipped
     * bit into a dump.
     */
    std::uint64_t
    peekRowBits(unsigned row, unsigned col_begin, unsigned k) const
    {
        std::uint64_t value = 0;
        for (unsigned i = 0; i < k; ++i)
            value = (value << 1) | (cell(row, col_begin + i) ? 1 : 0);
        return value;
    }

    /**
     * Read back a k-bit value through the sense path: the stored bits
     * of one row, transiently disturbed per the fault model's current
     * epoch.
     */
    std::uint64_t
    readRowBits(unsigned row, unsigned col_begin, unsigned k) const
    {
        std::uint64_t value = 0;
        const unsigned word = row >> 6;
        const std::uint64_t rowbit = 1ULL << (row & 63);
        for (unsigned i = 0; i < k; ++i) {
            const unsigned col = col_begin + i;
            bool bit = cell(row, col);
            if (faults_ &&
                (faults_->disturbWord(arrayId_, col, word,
                                      faults_->epoch()) & rowbit))
                bit = !bit;
            value = (value << 1) | (bit ? 1 : 0);
        }
        return value;
    }

    /**
     * Bitwise column search (Figure 7): sense the selected cells of
     * one column and XNOR against the reference search bit, writing
     * the match vector into `match` (rows() wide) and returning the
     * wired-OR signals.  Allocation-free; the recorded-match scan
     * step.
     *
     * With a fault model attached, the epoch's read-disturb masks are
     * gathered into bounded stack scratch, kMaxKernelWords column
     * words at a time, and each slice goes through the kernel with
     * its signals ORed together -- so arrays of any height take the
     * same kernel path.
     *
     * @param col        physical column index
     * @param search_bit the 1-bit search key
     * @param select     current select vector (one bit per row)
     */
    kernels::SearchSignals
    columnSearchInto(unsigned col, bool search_bit,
                     const BitVector &select, BitVector &match) const
    {
        const kernels::KernelTable &kt = kernels::active();
        const std::uint64_t *col_words = &columns_[colBase(col)];
        if (!faults_)
            return kt.columnSearch(col_words, nullptr, select.words(),
                                   match.words(), wordsPerCol_,
                                   search_bit);
        const std::uint64_t epoch = faults_->epoch();
        std::uint64_t dbuf[kMaxKernelWords];
        kernels::SearchSignals sig;
        for (unsigned base = 0; base < wordsPerCol_;
             base += kMaxKernelWords) {
            const unsigned n =
                std::min(kMaxKernelWords, wordsPerCol_ - base);
            for (unsigned w = 0; w < n; ++w)
                dbuf[w] = faults_->disturbWord(arrayId_, col, base + w,
                                               epoch);
            const auto part = kt.columnSearch(
                col_words + base, dbuf, select.words() + base,
                match.words() + base, n, search_bit);
            sig.anyMatch = sig.anyMatch || part.anyMatch;
            sig.anyMismatch = sig.anyMismatch || part.anyMismatch;
        }
        return sig;
    }

    /**
     * Signals-only column search (the fused scan's probe): the
     * wired-OR signals without writing a match vector.  Ignores read
     * disturb -- the match must be recomputable from the stored
     * column at commit time (commitSearch) -- so only a fault-free
     * scan may use it.
     */
    kernels::SearchSignals
    searchSignals(unsigned col, bool search_bit,
                  const BitVector &select) const
    {
        return kernels::active().searchSignals(
            &columns_[colBase(col)], select.words(), wordsPerCol_,
            search_bit);
    }

    /**
     * Fused commit for a searchSignals probe: select &= ~match with
     * the match recomputed from the stored column, returning the
     * surviving count.  Caller guarantees no fault model is attached;
     * the result is bit-identical to select.andNotCount(match) on the
     * match columnSearchInto would have recorded.
     */
    unsigned
    commitSearch(unsigned col, bool search_bit,
                 BitVector &select) const
    {
        return kernels::active().commitSearch(
            select.words(), &columns_[colBase(col)], wordsPerCol_,
            search_bit);
    }

  private:
    /** Column words per disturb-gather slice (stack scratch). */
    static constexpr unsigned kMaxKernelWords = 16;

    std::size_t
    colBase(unsigned col) const
    {
        return std::size_t(col) * wordsPerCol_;
    }

    void
    setCell(unsigned row, unsigned col, bool bit)
    {
        std::uint64_t &word = columns_[colBase(col) + (row >> 6)];
        if (bit)
            word |= 1ULL << (row & 63);
        else
            word &= ~(1ULL << (row & 63));
    }

    unsigned rows_;
    unsigned cols_;
    unsigned wordsPerCol_;
    /** Column-major cell storage, 64-byte aligned (kernel operand). */
    WordVector columns_;
    /** Fault oracle (nullptr on a perfect array). */
    const FaultModel *faults_ = nullptr;
    std::uint64_t arrayId_ = 0;
};

} // namespace rime::rimehw

#endif // RIME_RIMEHW_ARRAY_HH
