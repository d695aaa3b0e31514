/**
 * @file
 * A fast set-associative cache model with LRU replacement and
 * write-back/write-allocate policy, used to turn the instrumented
 * workload access streams into below-cache memory traffic.  There is
 * one lookup path: each set's way order is its recency order, so LRU
 * needs no timestamps.  Its equivalence oracle, a plain linear-scan
 * LRU model, lives in tests/test_cache.cc.
 */

#ifndef RIME_CACHESIM_CACHE_HH
#define RIME_CACHESIM_CACHE_HH

#include <cstdint>
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
     * Each set keeps its valid lines at its lowest ways (ways
     * [0, validCount_[set])) in exact recency order: way 0 holds the
     * most recently used line and the last valid way the least.  A
     * hit rotates its line to way 0, a fill inserts at way 0, and a
     * full set's victim is its last way -- so the order alone is the
     * LRU state, with no timestamps.  The lookup checks way 0 first
     * (temporally local streams and same-block runs match there),
     * then scans the remaining valid ways, never the invalid ones
     * that fill most of the 16-way L2 at bench sizes.  Counters
     * and victim addresses are exactly those of a plain linear
     * hit-then-victim scan per set -- asserted per access against
     * such a reference model in tests/test_cache.cc.
     *
     * @param addr   byte address
     * @param write  true for a store
     */
    CacheResult
    access(Addr addr, bool write)
    {
        const std::uint64_t block = blockOf(addr);
        const std::uint64_t set = setOf(block);
        const unsigned assoc = config_.associativity;
        Line *base = &lines_[set * assoc];
        std::uint16_t &vcount = validCount_[set];

        if (vcount != 0 && base[0].tag == block) {
            base[0].dirty = base[0].dirty || write;
            ++hits_;
            return {true, false, false, 0, 0};
        }
        for (unsigned way = 1; way < vcount; ++way) {
            if (base[way].tag == block) {
                Line line = base[way];
                line.dirty = line.dirty || write;
                shiftUp(base, way);
                base[0] = line;
                ++hits_;
                return {true, false, false, 0, 0};
            }
        }
        ++misses_;

        CacheResult result;
        if (vcount < assoc) {
            ++vcount;
        } else {
            const Line &victim = base[assoc - 1];
            result.evicted = true;
            result.evictedAddr = victim.tag << blockBits_;
            if (victim.dirty) {
                result.writeback = true;
                result.writebackAddr = result.evictedAddr;
                ++writebacks_;
            }
        }
        shiftUp(base, vcount - 1u);
        base[0] = {block, write};
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
            if (base[way].tag == block) {
                // Close the gap: the less recently used lines shift
                // one way toward way 0, keeping the recency order.
                const bool was_dirty = base[way].dirty;
                --vcount;
                for (unsigned w = way; w < vcount; ++w)
                    base[w] = base[w + 1];
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
        hits_ = misses_ = writebacks_ = 0;
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
        bool dirty = false;
    };

    /** Move ways [0, way) to [1, way], freeing way 0. */
    static void
    shiftUp(Line *base, unsigned way)
    {
        for (unsigned w = way; w > 0; --w)
            base[w] = base[w - 1];
    }

    CacheConfig config_;
    std::uint64_t numSets_ = 0;
    std::uint64_t setMask_ = 0;
    unsigned blockBits_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
    std::vector<Line> lines_;
    /** Per-set count of valid lines, kept at the set's lowest ways in
     *  recency order. */
    std::vector<std::uint16_t> validCount_;
};

} // namespace rime::cachesim

#endif // RIME_CACHESIM_CACHE_HH
