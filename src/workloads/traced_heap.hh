/**
 * @file
 * A binary min-heap over packed 64-bit keys whose every element
 * access is reported through an AccessBatch -- the baseline priority
 * queue the paper's CPU workloads use (Dijkstra, Prim, A*, strict
 * priority queuing, heap-based ranking).
 */

#ifndef RIME_WORKLOADS_TRACED_HEAP_HH
#define RIME_WORKLOADS_TRACED_HEAP_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "sort/traced_array.hh"

namespace rime::workloads
{

/** Instrumented binary min-heap. */
class TracedHeap
{
  public:
    /**
     * @param batch access buffer, shared with the kernel's other
     *              traced structures so the global access order is
     *              preserved
     * @param base  simulated base address of the heap storage
     * @param core  issuing core
     */
    TracedHeap(sort::AccessBatch &batch, Addr base, unsigned core = 0)
        : batch_(&batch), base_(base), core_(core)
    {}

    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }
    std::uint64_t comparisons() const { return comparisons_; }
    std::uint64_t moves() const { return moves_; }

    /** Insert a packed key (sift-up). */
    void
    push(std::uint64_t key)
    {
        data_.push_back(0);
        std::size_t i = data_.size() - 1;
        store(i, key); // provisional placement
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            const std::uint64_t pv = load(parent);
            ++comparisons_;
            if (pv <= key)
                break;
            store(i, pv);
            i = parent;
        }
        store(i, key);
    }

    /** Remove and return the minimum (sift-down). */
    std::optional<std::uint64_t>
    pop()
    {
        if (data_.empty())
            return std::nullopt;
        const std::uint64_t top = load(0);
        const std::uint64_t last = load(data_.size() - 1);
        data_.pop_back();
        if (!data_.empty()) {
            std::size_t i = 0;
            const std::size_t n = data_.size();
            while (true) {
                std::size_t child = 2 * i + 1;
                if (child >= n)
                    break;
                std::uint64_t cv = load(child);
                if (child + 1 < n) {
                    const std::uint64_t rv = load(child + 1);
                    ++comparisons_;
                    if (rv < cv) {
                        ++child;
                        cv = rv;
                    }
                }
                ++comparisons_;
                if (last <= cv)
                    break;
                store(i, cv);
                i = child;
            }
            store(i, last);
        }
        return top;
    }

  private:
    std::uint64_t
    load(std::size_t i)
    {
        batch_->access(core_, base_ + i * 8, AccessType::Read);
        return data_[i];
    }

    void
    store(std::size_t i, std::uint64_t value)
    {
        batch_->access(core_, base_ + i * 8, AccessType::Write);
        data_[i] = value;
        ++moves_;
    }

    sort::AccessBatch *batch_;
    Addr base_;
    unsigned core_;
    std::vector<std::uint64_t> data_;
    std::uint64_t comparisons_ = 0;
    std::uint64_t moves_ = 0;
};

} // namespace rime::workloads

#endif // RIME_WORKLOADS_TRACED_HEAP_HH
