/**
 * @file
 * An array wrapper that reports every element access through an
 * AccessBatch, so the baseline algorithms generate real address
 * streams for the cache/memory simulators.
 */

#ifndef RIME_SORT_TRACED_ARRAY_HH
#define RIME_SORT_TRACED_ARRAY_HH

#include <cstdint>
#include <span>

#include "sort/access_sink.hh"

namespace rime::sort
{

/** Traced view over a contiguous key array. */
template <typename T>
class TracedArray
{
  public:
    /**
     * @param data  the backing storage
     * @param base  simulated base address of element 0
     * @param batch access buffer (never null), shared with any other
     *              traced structures of the same kernel so their
     *              global interleaving is preserved
     * @param core  issuing core id
     */
    TracedArray(std::span<T> data, Addr base, AccessBatch *batch,
                unsigned core = 0)
        : data_(data), base_(base), batch_(batch), core_(core)
    {}

    std::size_t size() const { return data_.size(); }
    Addr base() const { return base_; }
    void setCore(unsigned core) { core_ = core; }

    T
    get(std::size_t i) const
    {
        batch_->access(core_, base_ + i * sizeof(T), AccessType::Read);
        return data_[i];
    }

    void
    set(std::size_t i, T value)
    {
        batch_->access(core_, base_ + i * sizeof(T), AccessType::Write);
        data_[i] = value;
    }

    /** Untracked view of the raw storage (for verification only). */
    std::span<T> raw() { return data_; }

  private:
    std::span<T> data_;
    Addr base_;
    AccessBatch *batch_;
    unsigned core_;
};

} // namespace rime::sort

#endif // RIME_SORT_TRACED_ARRAY_HH
