/**
 * @file
 * The Table-I cache hierarchy: per-core L1D caches in front of a shared
 * L2, producing the below-cache memory request stream.  A lightweight
 * MESI-style invariant is kept for shared blocks: a core writing a block
 * cached by another core invalidates the other copy (sufficient for the
 * mostly-private sorting workloads while still charging coherence
 * traffic when sharing happens).
 *
 * The coherence lookup is driven by a block-granularity sharing
 * directory -- a presence summary (one bit per core) maintained on
 * every L1 fill, eviction and invalidation -- so a store to a block no
 * other core caches (the overwhelmingly common case for the private
 * sorting working sets) touches no other core's L1 at all.  A single
 * core needs no directory.  The counters and dumps are exactly those
 * of a full O(cores) invalidate broadcast per store, which
 * tests/test_cache.cc asserts against a test-local reference model.
 *
 * Workload streams reach the hierarchy in batches through drain()
 * (see sort::AccessBatch); access() is the one-record form.
 */

#ifndef RIME_CACHESIM_HIERARCHY_HH
#define RIME_CACHESIM_HIERARCHY_HH

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cachesim/cache.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace rime::cachesim
{

/** One buffered simulated access (see sort::AccessBatch). */
struct AccessRecord
{
    Addr addr = 0;
    std::uint16_t core = 0;
    AccessType type = AccessType::Read;
};

/**
 * Multi-core cache hierarchy.
 *
 * Every below-cache request (L2 miss fill or L2 writeback) is delivered
 * to the registered sink.  The sink typically forwards to a
 * memsim::MemorySystem or simply counts traffic.
 */
class Hierarchy
{
  public:
    using MemSink = std::function<void(const MemRequest &)>;

    Hierarchy(unsigned cores,
              const CacheConfig &l1_config = CacheConfig::l1d(),
              const CacheConfig &l2_config = CacheConfig::l2())
        : stats_("cache"), l2_(l2_config)
    {
        if (cores == 0)
            fatal("hierarchy needs at least one core");
        if (cores > 64)
            fatal("sharing directory supports at most 64 cores");
        l1_.reserve(cores);
        for (unsigned i = 0; i < cores; ++i)
            l1_.push_back(std::make_unique<Cache>(l1_config));
        useDirectory_ = cores > 1;
        blockMask_ = ~(static_cast<Addr>(l1_config.blockBytes) - 1);
        // Resolve the hot-path counter handles once.  Resolution
        // eagerly creates the keys (at zero), so dumps carry the same
        // key set whether or not events ever fire.
        loads_ = stats_.counter("loads");
        stores_ = stats_.counter("stores");
        coherenceWritebacks_ = stats_.counter("coherenceWritebacks");
    }

    /** Register the below-cache request sink. */
    void setMemSink(MemSink sink) { sink_ = std::move(sink); }

    /** Issue one data access from a core. */
    void
    access(unsigned core, Addr addr, AccessType type)
    {
        if (core >= l1_.size())
            fatal("access from unknown core %u", core);
        const bool write = type == AccessType::Write;
        if (write)
            ++stores_;
        else
            ++loads_;

        // A store must invalidate any other core's copy before the
        // local L1 owns the block.  The directory knows exactly which
        // cores hold it; a private block skips the loop entirely.
        if (write && useDirectory_) {
            const Addr block = addr & blockMask_;
            auto it = directory_.find(block);
            if (it != directory_.end()) {
                const std::uint64_t others =
                    it->second & ~(1ULL << core);
                if (others)
                    invalidateSharers(block, others);
            }
        }

        const CacheResult l1r = l1_[core]->access(addr, write);
        if (useDirectory_ && !l1r.hit) {
            if (l1r.evicted)
                directoryClear(l1r.evictedAddr, core);
            directory_[addr & blockMask_] |= 1ULL << core;
        }
        if (l1r.writeback)
            accessL2(core, l1r.writebackAddr, true);
        if (l1r.hit)
            return;
        accessL2(core, addr, false, write);
    }

    /**
     * Bulk delivery of an in-order access run (the AccessBatch flush
     * path).  Out-of-range cores wrap modulo the core count.
     * Semantically identical to one access() call per record: the
     * single-core fast loop only hoists the bounds checks out of the
     * loop and folds the load/store counter increments into one add
     * per run -- counters only ever grow by integer-valued steps, so
     * "+k" is bit-identical to k individual "+1" adds.  Flattened:
     * the L2 leg of the loop is hot enough that its call overhead
     * shows up in end-to-end simulation throughput.
     */
#if defined(__GNUC__)
    __attribute__((flatten))
#endif
    void
    drain(const AccessRecord *records, std::size_t count)
    {
        const unsigned cores = numCores();
        if (cores > 1) {
            for (std::size_t i = 0; i < count; ++i) {
                const unsigned core = records[i].core;
                access(core < cores ? core : core % cores,
                       records[i].addr, records[i].type);
            }
            return;
        }
        Cache *l1 = l1_[0].get();
        std::uint64_t loads = 0;
        for (std::size_t i = 0; i < count; ++i) {
            const bool write = records[i].type == AccessType::Write;
            loads += !write;
            const CacheResult l1r = l1->access(records[i].addr, write);
            if (l1r.writeback)
                accessL2(0, l1r.writebackAddr, true);
            if (!l1r.hit)
                accessL2(0, records[i].addr, false, write);
        }
        loads_.inc(static_cast<double>(loads));
        stores_.inc(static_cast<double>(count - loads));
    }

    const Cache &l1(unsigned core) const { return *l1_[core]; }
    const Cache &l2() const { return l2_; }
    unsigned numCores() const { return static_cast<unsigned>(l1_.size()); }

    std::uint64_t memReads() const { return memReads_; }
    std::uint64_t memWrites() const { return memWrites_; }
    std::uint64_t memAccesses() const { return memReads_ + memWrites_; }

    /**
     * Directory presence mask (bit c set when core c's L1 holds the
     * block of `addr`).  Always zero with a single core, which runs
     * no directory; exposed for consistency tests.
     */
    std::uint64_t
    directorySharers(Addr addr) const
    {
        auto it = directory_.find(addr & blockMask_);
        return it == directory_.end() ? 0 : it->second;
    }

    StatGroup &stats() { return stats_; }

    /** Drop all cached state and counters. */
    void
    reset()
    {
        for (auto &l1 : l1_)
            l1->reset();
        l2_.reset();
        stats_.reset();
        directory_.clear();
        memReads_ = memWrites_ = 0;
    }

  private:
    /**
     * Invalidate every sharer in `mask` in ascending core order (the
     * order a full broadcast would visit them), forwarding dirty
     * victims to L2 as coherence writebacks.
     */
    void
    invalidateSharers(Addr block, std::uint64_t mask)
    {
        auto it = directory_.find(block);
        for (std::uint64_t m = mask; m; m &= m - 1) {
            const unsigned c =
                static_cast<unsigned>(__builtin_ctzll(m));
            if (l1_[c]->invalidate(block)) {
                ++coherenceWritebacks_;
                accessL2(c, block, true);
            }
            it->second &= ~(1ULL << c);
        }
        if (it->second == 0)
            directory_.erase(it);
    }

    /** Clear a core's presence bit for the block of `addr`. */
    void
    directoryClear(Addr addr, unsigned core)
    {
        auto it = directory_.find(addr & blockMask_);
        if (it == directory_.end())
            return;
        it->second &= ~(1ULL << core);
        if (it->second == 0)
            directory_.erase(it);
    }

    void
    accessL2(unsigned core, Addr addr, bool is_writeback,
             bool demand_write = false)
    {
        const CacheResult l2r = l2_.access(addr, is_writeback ||
                                           demand_write);
        if (l2r.writeback)
            emit({l2r.writebackAddr, AccessType::Write,
                  static_cast<std::uint16_t>(core)});
        if (!l2r.hit && !is_writeback) {
            // Demand miss: fill from memory.
            emit({addr, AccessType::Read,
                  static_cast<std::uint16_t>(core)});
        }
        if (!l2r.hit && is_writeback) {
            // Writeback missed in L2 (block already evicted):
            // forward straight to memory.
            emit({addr, AccessType::Write,
                  static_cast<std::uint16_t>(core)});
        }
    }

    void
    emit(const MemRequest &req)
    {
        if (req.type == AccessType::Read)
            ++memReads_;
        else
            ++memWrites_;
        if (sink_)
            sink_(req);
    }

    StatGroup stats_;
    std::vector<std::unique_ptr<Cache>> l1_;
    Cache l2_;
    MemSink sink_;
    std::uint64_t memReads_ = 0;
    std::uint64_t memWrites_ = 0;
    bool useDirectory_ = false;
    Addr blockMask_ = 0;
    /** Block address -> per-core L1 presence bits. */
    std::unordered_map<Addr, std::uint64_t> directory_;
    StatCounter loads_;
    StatCounter stores_;
    StatCounter coherenceWritebacks_;
};

} // namespace rime::cachesim

#endif // RIME_CACHESIM_HIERARCHY_HH
