/**
 * @file
 * A fast set-associative cache model with LRU replacement and
 * write-back/write-allocate policy, used to turn the instrumented
 * workload access streams into below-cache memory traffic.  There is
 * one lookup path (compacted sets, move-to-front, MRU way hint); its
 * equivalence oracle, a plain linear-scan LRU model, lives in
 * tests/test_cache.cc.
 */

#ifndef RIME_CACHESIM_CACHE_HH
#define RIME_CACHESIM_CACHE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace rime::cachesim
{

/** Static configuration of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned associativity = 4;
    std::uint64_t blockBytes = 64;
    /** Hit latency in CPU cycles (Table I). */
    unsigned hitCycles = 2;

    /** Table I: 32KB direct-mapped L1I. */
    static CacheConfig
    l1i()
    {
        return {32 * 1024, 1, 64, 2};
    }

    /** Table I: 32KB 4-way LRU L1D. */
    static CacheConfig
    l1d()
    {
        return {32 * 1024, 4, 64, 2};
    }

    /** Table I: 8MB 16-way LRU shared L2. */
    static CacheConfig
    l2()
    {
        return {8 * 1024 * 1024, 16, 64, 15};
    }
};

/** Outcome of one cache access. */
struct CacheResult
{
    bool hit = false;
    /** A dirty block was evicted and must be written back. */
    bool writeback = false;
    /** A valid block (dirty or clean) was evicted by the fill. */
    bool evicted = false;
    /** Block address of the written-back victim (valid iff writeback). */
    Addr writebackAddr = 0;
    /** Block address of the evicted victim (valid iff evicted). */
    Addr evictedAddr = 0;
};

/** One level of set-associative write-back cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config)
        : config_(config)
    {
        if (!isPowerOf2(config.blockBytes))
            fatal("cache block size must be a power of two");
        const std::uint64_t blocks = config.sizeBytes / config.blockBytes;
        if (blocks % config.associativity != 0)
            fatal("cache size not divisible by associativity");
        numSets_ = blocks / config.associativity;
        if (!isPowerOf2(numSets_))
            fatal("cache set count must be a power of two");
        blockBits_ = floorLog2(config.blockBytes);
        setMask_ = numSets_ - 1;
        lines_.resize(blocks);
        validCount_.assign(numSets_, 0);
    }

    /** Block id (full block id doubles as the tag) of a byte address. */
    std::uint64_t blockOf(Addr addr) const { return addr >> blockBits_; }

    /** Index of a block's set. */
    std::uint64_t setOf(std::uint64_t block) const
    { return block & setMask_; }

    /**
     * Access one address.  Allocates on miss; evicts LRU.
     *
     * Each set keeps its valid lines compacted at the lowest ways
     * (ways [0, validCount_[set])), so scans never step over invalid
     * lines -- the common case in the sparsely filled 16-way L2.  A
     * hit or fill moves its line to way 0, so temporally local
     * streams match on the first compare, and an MRU way hint skips
     * the scan entirely for same-block runs.  None of this is
     * observable: replacement is decided by per-line timestamps
     * (unique, so way order never matters for LRU), and the choice
     * among invalid ways carries no content.  Hit/miss/writeback
     * counters and victim addresses are exactly those of a plain
     * linear hit-then-victim scan per set -- asserted against such a
     * reference model in tests/test_cache.cc.
     *
     * @param addr   byte address
     * @param write  true for a store
     */
    CacheResult
    access(Addr addr, bool write)
    {
        const std::uint64_t block = blockOf(addr);
        if (mru_ && mruBlock_ == block) {
            ++clock_;
            mru_->lastUse = clock_;
            mru_->dirty = mru_->dirty || write;
            ++hits_;
            return {true, false, false, 0, 0};
        }
        const std::uint64_t set = setOf(block);
        const unsigned assoc = config_.associativity;
        Line *base = &lines_[set * assoc];
        std::uint16_t &vcount = validCount_[set];
        ++clock_;

        // One fused scan over the valid lines: find the block and, in
        // case it is absent, the LRU victim (oldest timestamp).
        unsigned victim = 0;
        std::uint64_t oldest = ~0ULL;
        for (unsigned way = 0; way < vcount; ++way) {
            Line &line = base[way];
            if (line.tag == block) {
                if (way != 0)
                    std::swap(base[0], line);
                Line &front = base[0];
                front.lastUse = clock_;
                front.dirty = front.dirty || write;
                ++hits_;
                mru_ = &front;
                mruBlock_ = block;
                return {true, false, false, 0, 0};
            }
            if (line.lastUse < oldest) {
                oldest = line.lastUse;
                victim = way;
            }
        }
        ++misses_;

        CacheResult result;
        if (vcount < assoc) {
            // Fill the first invalid way.
            victim = vcount++;
        } else {
            Line &line = base[victim];
            result.evicted = true;
            result.evictedAddr = line.tag << blockBits_;
            if (line.dirty) {
                result.writeback = true;
                result.writebackAddr = result.evictedAddr;
                ++writebacks_;
            }
        }
        Line &line = base[victim];
        line.dirty = write;
        line.tag = block;
        line.lastUse = clock_;
        if (victim != 0)
            std::swap(base[0], line);
        mru_ = &base[0];
        mruBlock_ = block;
        return result;
    }

    /** Evict (and report dirtiness of) a block if present. */
    bool
    invalidate(Addr addr)
    {
        const std::uint64_t block = blockOf(addr);
        Line *base = &lines_[setOf(block) * config_.associativity];
        std::uint16_t &vcount = validCount_[setOf(block)];
        for (unsigned way = 0; way < vcount; ++way) {
            Line &line = base[way];
            if (line.tag == block) {
                // Keep the set compacted: the last valid line moves
                // into the vacated way.
                const bool was_dirty = line.dirty;
                --vcount;
                if (way != vcount)
                    std::swap(line, base[vcount]);
                if (mru_ >= base && mru_ < base + config_.associativity)
                    mru_ = nullptr;
                return was_dirty;
            }
        }
        return false;
    }

    /** True if the block holding `addr` is resident. */
    bool
    contains(Addr addr) const
    {
        const std::uint64_t block = blockOf(addr);
        const std::uint64_t set = setOf(block);
        const Line *base = &lines_[set * config_.associativity];
        for (unsigned way = 0; way < validCount_[set]; ++way) {
            if (base[way].tag == block)
                return true;
        }
        return false;
    }

    /** Forget all contents and statistics. */
    void
    reset()
    {
        for (auto &line : lines_)
            line = Line();
        validCount_.assign(numSets_, 0);
        mru_ = nullptr;
        clock_ = hits_ = misses_ = writebacks_ = 0;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    const CacheConfig &config() const { return config_; }

    double
    missRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total ? static_cast<double>(misses_) / total : 0.0;
    }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool dirty = false;
    };

    CacheConfig config_;
    std::uint64_t numSets_ = 0;
    std::uint64_t setMask_ = 0;
    unsigned blockBits_ = 0;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
    /** Line of the most recent hit/fill (null = no valid hint). */
    Line *mru_ = nullptr;
    std::uint64_t mruBlock_ = 0;
    std::vector<Line> lines_;
    /** Per-set count of valid lines, kept compacted at the set's
     *  lowest ways. */
    std::vector<std::uint16_t> validCount_;
};

} // namespace rime::cachesim

#endif // RIME_CACHESIM_CACHE_HH
