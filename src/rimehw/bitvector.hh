/**
 * @file
 * A fixed-width packed bit vector used for select vectors, match
 * vectors, and exclusion flags in the bit-level RIME array model.
 *
 * Word storage is 64-byte aligned (kernels.hh WordVector).  Every
 * bulk op calls the dispatched kernel table, whichever ISA it is:
 * RIME_SIMD=0 runs the scalar table, the reference the SIMD tables
 * are tested against.  Only single-bit access and the any() and
 * firstSet() scans, which no kernel covers, stay inline.
 */

#ifndef RIME_RIMEHW_BITVECTOR_HH
#define RIME_RIMEHW_BITVECTOR_HH

#include <bit>
#include <cstdint>

#include "common/logging.hh"
#include "rimehw/kernels.hh"

namespace rime::rimehw
{

/** Packed vector of bits with word-parallel operations. */
class BitVector
{
  public:
    explicit BitVector(unsigned nbits = 0)
        : nbits_(nbits), words_((nbits + 63) / 64, 0)
    {}

    unsigned size() const { return nbits_; }
    unsigned numWords() const
    { return static_cast<unsigned>(words_.size()); }

    /** Raw word storage (64-byte aligned; kernel operand). */
    const std::uint64_t *words() const { return words_.data(); }
    std::uint64_t *words() { return words_.data(); }

    bool
    test(unsigned pos) const
    {
        return (words_[pos >> 6] >> (pos & 63)) & 1ULL;
    }

    void
    set(unsigned pos, bool value = true)
    {
        if (value)
            words_[pos >> 6] |= 1ULL << (pos & 63);
        else
            words_[pos >> 6] &= ~(1ULL << (pos & 63));
    }

    /** Set bits [begin, end) to one (word-parallel). */
    void setRange(unsigned begin, unsigned end)
    { rangeOp(begin, end, true); }

    /** Clear bits [begin, end) (word-parallel). */
    void clearRange(unsigned begin, unsigned end)
    { rangeOp(begin, end, false); }

    void clearAll()
    { kernels::active().fill(words_.data(), 0, numWords()); }

    /** Number of set bits. */
    unsigned
    count() const
    {
        return kernels::active().popcount(words_.data(), numWords());
    }

    bool
    any() const
    {
        for (auto w : words_)
            if (w)
                return true;
        return false;
    }

    /** Index of the lowest set bit, or size() when empty. */
    unsigned
    firstSet() const
    {
        for (unsigned wi = 0; wi < words_.size(); ++wi) {
            if (words_[wi]) {
                return wi * 64 + static_cast<unsigned>(
                    std::countr_zero(words_[wi]));
            }
        }
        return nbits_;
    }

    std::uint64_t word(unsigned i) const { return words_[i]; }
    void setWord(unsigned i, std::uint64_t w) { words_[i] = w; }

    /** this &= ~other (remove the bits set in other). */
    BitVector &
    andNot(const BitVector &other)
    {
        kernels::active().andNot(words_.data(), other.words_.data(),
                                 numWords());
        return *this;
    }

    /**
     * Fused this &= ~other with a popcount of the result: one pass
     * over the words (the commit + survivor-count step of a scan).
     */
    unsigned
    andNotCount(const BitVector &other)
    {
        return kernels::active().andNotCount(
            words_.data(), other.words_.data(), numWords());
    }

    /**
     * Fused this = base & ~mask with a popcount of the result (the
     * select-latch load of beginExtraction: range minus excluded).
     */
    unsigned
    assignAndNotCount(const BitVector &base, const BitVector &mask)
    {
        return kernels::active().assignAndNotCount(
            words_.data(), base.words_.data(), mask.words_.data(),
            numWords());
    }

    bool
    operator==(const BitVector &other) const
    {
        return nbits_ == other.nbits_ && words_ == other.words_;
    }

  private:
    /**
     * Range set/clear: masked edits of the boundary words, a kernel
     * fill of the full words between them.
     */
    void
    rangeOp(unsigned begin, unsigned end, bool value)
    {
        if (begin >= end)
            return;
        const unsigned first = begin >> 6;
        const unsigned last = (end - 1) >> 6;
        const std::uint64_t head = ~0ULL << (begin & 63);
        const std::uint64_t tail =
            ~0ULL >> (63 - ((end - 1) & 63));
        const auto edit = [value](std::uint64_t &w, std::uint64_t m) {
            if (value)
                w |= m;
            else
                w &= ~m;
        };
        if (first == last) {
            edit(words_[first], head & tail);
            return;
        }
        edit(words_[first], head);
        if (last > first + 1)
            kernels::active().fill(words_.data() + first + 1,
                                   value ? ~0ULL : 0,
                                   last - first - 1);
        edit(words_[last], tail);
    }

    unsigned nbits_;
    WordVector words_;
};

} // namespace rime::rimehw

#endif // RIME_RIMEHW_BITVECTOR_HH
