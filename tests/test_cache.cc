/**
 * @file
 * Tests of the cache model: hit/miss behaviour, LRU replacement,
 * write-back victims, the multi-level hierarchy, and invalidation-
 * based sharing.  The simulator's recency-ordered sets are checked
 * against ReferenceCache (timestamped LRU, two linear scans per set)
 * result by result, in every geometry the simulator runs; its sharing
 * directory and batched delivery are checked against
 * ReferenceHierarchy, a test-local model of the plain semantics they
 * must reproduce.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cachesim/cache.hh"
#include "cachesim/hierarchy.hh"
#include "common/bitops.hh"
#include "common/rng.hh"
#include "sort/access_sink.hh"
#include "sort/sorters.hh"
#include "workloads/traced_heap.hh"

using namespace rime;
using namespace rime::cachesim;

namespace
{

/**
 * One set-associative write-back cache, looked up the plain way: a
 * linear scan per set for the hit, then a second scan for the victim
 * (the first invalid way, else the oldest timestamp).
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : assoc_(config.associativity),
          blockBits_(floorLog2(config.blockBytes)),
          numSets_(config.sizeBytes / config.blockBytes /
                   config.associativity),
          lines_(config.sizeBytes / config.blockBytes)
    {}

    CacheResult
    access(Addr addr, bool write)
    {
        const std::uint64_t block = addr >> blockBits_;
        Line *base = set(block);
        ++clock_;
        for (unsigned way = 0; way < assoc_; ++way) {
            Line &line = base[way];
            if (line.valid && line.tag == block) {
                line.lastUse = clock_;
                line.dirty = line.dirty || write;
                ++hits_;
                return {true, false, false, 0, 0};
            }
        }

        ++misses_;
        unsigned victim = 0;
        std::uint64_t oldest = ~0ULL;
        for (unsigned way = 0; way < assoc_; ++way) {
            if (!base[way].valid) {
                victim = way;
                break;
            }
            if (base[way].lastUse < oldest) {
                oldest = base[way].lastUse;
                victim = way;
            }
        }
        CacheResult result;
        Line &line = base[victim];
        if (line.valid) {
            result.evicted = true;
            result.evictedAddr = line.tag << blockBits_;
            if (line.dirty) {
                result.writeback = true;
                result.writebackAddr = result.evictedAddr;
                ++writebacks_;
            }
        }
        line = {block, clock_, true, write};
        return result;
    }

    /** Drop the block if present; true when it was dirty. */
    bool
    invalidate(Addr addr)
    {
        const std::uint64_t block = addr >> blockBits_;
        Line *base = set(block);
        for (unsigned way = 0; way < assoc_; ++way) {
            Line &line = base[way];
            if (line.valid && line.tag == block) {
                const bool was_dirty = line.dirty;
                line = Line();
                return was_dirty;
            }
        }
        return false;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    Line *
    set(std::uint64_t block)
    {
        return &lines_[(block & (numSets_ - 1)) * assoc_];
    }

    unsigned assoc_;
    unsigned blockBits_;
    std::uint64_t numSets_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

/**
 * Per-core L1s in front of a shared L2.  A store first invalidates
 * every other core's copy, visiting cores in ascending order, and a
 * dirty invalidated copy is forwarded to L2 as a coherence writeback.
 * L2 demand misses read memory; L2 dirty victims, and writebacks that
 * miss in L2, write memory.
 */
class ReferenceHierarchy
{
  public:
    ReferenceHierarchy(unsigned cores,
                       const CacheConfig &l1_config = CacheConfig::l1d(),
                       const CacheConfig &l2_config = CacheConfig::l2())
        : l2_(l2_config),
          blockMask_(~(static_cast<Addr>(l1_config.blockBytes) - 1))
    {
        for (unsigned c = 0; c < cores; ++c)
            l1_.emplace_back(l1_config);
    }

    void
    access(unsigned core, Addr addr, AccessType type)
    {
        const bool write = type == AccessType::Write;
        ++(write ? stores_ : loads_);
        if (write) {
            for (unsigned c = 0; c < l1_.size(); ++c) {
                if (c != core && l1_[c].invalidate(addr)) {
                    ++coherenceWritebacks_;
                    accessL2(addr & blockMask_, true, false);
                }
            }
        }
        const CacheResult l1r = l1_[core].access(addr, write);
        if (l1r.writeback)
            accessL2(l1r.writebackAddr, true, false);
        if (!l1r.hit)
            accessL2(addr, false, write);
    }

    const ReferenceCache &l1(unsigned core) const { return l1_[core]; }
    const ReferenceCache &l2() const { return l2_; }
    unsigned numCores() const { return static_cast<unsigned>(l1_.size()); }
    std::uint64_t memReads() const { return memReads_; }
    std::uint64_t memWrites() const { return memWrites_; }

    /** The values Hierarchy::stats() must hold after the same trace. */
    std::map<std::string, double>
    statValues() const
    {
        return {{"coherenceWritebacks",
                 static_cast<double>(coherenceWritebacks_)},
                {"loads", static_cast<double>(loads_)},
                {"stores", static_cast<double>(stores_)}};
    }

  private:
    void
    accessL2(Addr addr, bool is_writeback, bool demand_write)
    {
        const CacheResult l2r =
            l2_.access(addr, is_writeback || demand_write);
        if (l2r.writeback)
            ++memWrites_;
        if (!l2r.hit)
            ++(is_writeback ? memWrites_ : memReads_);
    }

    std::vector<ReferenceCache> l1_;
    ReferenceCache l2_;
    Addr blockMask_;
    std::uint64_t memReads_ = 0;
    std::uint64_t memWrites_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t coherenceWritebacks_ = 0;
};

/** The reference model as a sink: one access() per drained record. */
class ReferenceSink : public sort::AccessSink
{
  public:
    explicit ReferenceSink(ReferenceHierarchy &ref) : ref_(ref) {}

    void
    drain(const sort::AccessRecord *records, std::size_t count) override
    {
        for (std::size_t i = 0; i < count; ++i)
            ref_.access(records[i].core % ref_.numCores(),
                        records[i].addr, records[i].type);
    }

  private:
    ReferenceHierarchy &ref_;
};

std::map<std::string, double>
statValues(Hierarchy &h)
{
    return h.stats().values();
}

std::map<std::string, double>
statValues(const ReferenceHierarchy &h)
{
    return h.statValues();
}

/**
 * Every deterministic counter of a hierarchy, by name: per-core L1
 * and L2 hit/miss/writeback counts, memory traffic, and the stat
 * group's values.
 */
template <typename H>
std::map<std::string, double>
counters(H &h)
{
    std::map<std::string, double> out = statValues(h);
    const auto add = [&](const std::string &name, const auto &cache) {
        out[name + ".hits"] = static_cast<double>(cache.hits());
        out[name + ".misses"] = static_cast<double>(cache.misses());
        out[name + ".writebacks"] =
            static_cast<double>(cache.writebacks());
    };
    for (unsigned c = 0; c < h.numCores(); ++c)
        add("l1[" + std::to_string(c) + "]", h.l1(c));
    add("l2", h.l2());
    out["memReads"] = static_cast<double>(h.memReads());
    out["memWrites"] = static_cast<double>(h.memWrites());
    return out;
}

std::string
describe(const CacheResult &r)
{
    return "hit " + std::to_string(r.hit) + " evicted " +
        std::to_string(r.evicted) + "@" + std::to_string(r.evictedAddr) +
        " writeback " + std::to_string(r.writeback) + "@" +
        std::to_string(r.writebackAddr);
}

/**
 * Replay a random trace through per-core caches and reference caches
 * the way Hierarchy drives its L1s: a store first invalidates the
 * other cores' copies in ascending core order.  Every CacheResult
 * (hit, evicted and written-back addresses) and every invalidation's
 * answer must match.  The footprint is three times the capacity, so
 * sets run full; with several cores, invalidations then pull lines
 * out of the middle of full sets.
 *
 * @return how many invalidations found the block resident
 */
std::uint64_t
expectSameResults(const CacheConfig &config, unsigned cores,
                  unsigned accesses, std::uint64_t seed)
{
    std::vector<Cache> fast;
    std::vector<ReferenceCache> ref;
    for (unsigned c = 0; c < cores; ++c) {
        fast.emplace_back(config);
        ref.emplace_back(config);
    }
    const std::uint64_t span_blocks =
        3 * config.sizeBytes / config.blockBytes;
    std::uint64_t resident_invalidations = 0;
    Rng rng(seed);
    for (unsigned i = 0; i < accesses; ++i) {
        const unsigned core = static_cast<unsigned>(rng.below(cores));
        const Addr addr = rng.below(span_blocks) * config.blockBytes +
            rng.below(config.blockBytes);
        const bool write = rng.below(3) == 0;
        if (write) {
            for (unsigned c = 0; c < cores; ++c) {
                if (c == core)
                    continue;
                resident_invalidations += fast[c].contains(addr);
                const bool dirty = ref[c].invalidate(addr);
                if (fast[c].invalidate(addr) != dirty) {
                    ADD_FAILURE() << "access " << i << ": core " << c
                                  << " invalidate differs";
                    return resident_invalidations;
                }
            }
        }
        const CacheResult want = ref[core].access(addr, write);
        const CacheResult got = fast[core].access(addr, write);
        if (describe(got) != describe(want)) {
            ADD_FAILURE() << "access " << i << " core " << core
                          << ": got " << describe(got) << ", want "
                          << describe(want);
            return resident_invalidations;
        }
    }
    for (unsigned c = 0; c < cores; ++c) {
        EXPECT_EQ(fast[c].hits(), ref[c].hits());
        EXPECT_EQ(fast[c].misses(), ref[c].misses());
        EXPECT_EQ(fast[c].writebacks(), ref[c].writebacks());
        EXPECT_GT(ref[c].writebacks(), 0u);
    }
    return resident_invalidations;
}

/** The L2 share SortModel::profile gives each of 64 cores. */
CacheConfig
l2Share()
{
    CacheConfig l2 = CacheConfig::l2();
    l2.sizeBytes /= 64;
    return l2;
}

} // namespace

TEST(Cache, HitAfterFill)
{
    Cache cache({1024, 2, 64, 1});
    EXPECT_FALSE(cache.access(0, false).hit);
    EXPECT_TRUE(cache.access(0, false).hit);
    EXPECT_TRUE(cache.access(32, false).hit); // same block
    EXPECT_FALSE(cache.access(64, false).hit);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 64B blocks, 2 sets (256 B total).
    Cache cache({256, 2, 64, 1});
    // Set 0 holds blocks 0 and 2 (addresses 0, 128).
    cache.access(0, false);
    cache.access(128, false);
    cache.access(0, false);     // touch 0: 128 becomes LRU
    cache.access(256, false);   // evicts 128
    EXPECT_TRUE(cache.access(0, false).hit);
    EXPECT_FALSE(cache.access(128, false).hit);
}

TEST(Cache, DirtyVictimWritesBack)
{
    Cache cache({256, 2, 64, 1});
    cache.access(0, true); // dirty
    cache.access(128, false);
    const auto r = cache.access(256, false); // evicts dirty block 0
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, 0u);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Cache, InvalidateReportsDirtiness)
{
    Cache cache({1024, 2, 64, 1});
    cache.access(0, true);
    cache.access(64, false);
    EXPECT_TRUE(cache.invalidate(0));
    EXPECT_FALSE(cache.invalidate(64));
    EXPECT_FALSE(cache.invalidate(4096)); // absent
    EXPECT_FALSE(cache.access(0, false).hit);
}

TEST(Cache, DirectMappedConflicts)
{
    Cache cache({256, 1, 64, 1}); // 4 sets, direct-mapped
    cache.access(0, false);
    cache.access(256, false); // same set, evicts
    EXPECT_FALSE(cache.access(0, false).hit);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache({1000, 3, 64, 1}), FatalError);
    EXPECT_THROW(Cache({1024, 2, 63, 1}), FatalError);
}

TEST(Cache, EveryResultMatchesReferenceInSimulatedGeometries)
{
    // Direct-mapped (the Table-I L1I), the 4-way Table-I L1D and the
    // 16-way L2 share: one core, then three with invalidations.
    const std::pair<const char *, CacheConfig> geometries[] = {
        {"direct-mapped", CacheConfig::l1i()},
        {"l1d", CacheConfig::l1d()},
        {"l2 share", l2Share()},
    };
    for (const auto &[name, config] : geometries) {
        for (const unsigned cores : {1u, 3u}) {
            SCOPED_TRACE(std::string(name) + ", cores " +
                         std::to_string(cores));
            const std::uint64_t invalidated =
                expectSameResults(config, cores, 200000, 99 + cores);
            if (cores > 1) {
                EXPECT_GT(invalidated, 1000u);
            }
        }
    }
}

TEST(Hierarchy, MissesReachMemoryOnce)
{
    Hierarchy h(1, {1024, 2, 64, 2}, {4096, 4, 64, 15});
    std::uint64_t sink_reads = 0;
    h.setMemSink([&](const MemRequest &req) {
        if (req.type == AccessType::Read)
            ++sink_reads;
    });
    h.access(0, 0, AccessType::Read);
    h.access(0, 0, AccessType::Read); // L1 hit
    EXPECT_EQ(h.memReads(), 1u);
    EXPECT_EQ(sink_reads, 1u);
}

TEST(Hierarchy, L2CatchesL1Evictions)
{
    // Tiny L1 (2 blocks), big L2: after cycling three blocks, the L1
    // misses but the L2 still hits, producing no new memory reads.
    Hierarchy h(1, {128, 1, 64, 2}, {8192, 4, 64, 15});
    h.access(0, 0, AccessType::Read);
    h.access(0, 128, AccessType::Read); // evicts 0 from L1 set 0
    h.access(0, 0, AccessType::Read);   // L1 miss, L2 hit
    EXPECT_EQ(h.memReads(), 2u);
}

TEST(Hierarchy, StreamTrafficMatchesWorkingSet)
{
    Hierarchy h(1);
    const std::uint64_t blocks = 64 * 1024; // 4 MB of 64B blocks
    for (std::uint64_t i = 0; i < blocks; ++i)
        h.access(0, i * 64, AccessType::Read);
    // One fill per block, nothing more.
    EXPECT_EQ(h.memReads(), blocks);
    EXPECT_EQ(h.memWrites(), 0u);
}

TEST(Hierarchy, DirtyDataEventuallyWritesBack)
{
    Hierarchy h(1, CacheConfig::l1d(), {64 * 1024, 4, 64, 15});
    // Write 8 MB through a 64 KB L2: most blocks must write back.
    const std::uint64_t blocks = 128 * 1024;
    for (std::uint64_t i = 0; i < blocks; ++i)
        h.access(0, i * 64, AccessType::Write);
    EXPECT_GT(h.memWrites(), blocks / 2);
}

TEST(Hierarchy, CrossCoreWriteInvalidates)
{
    Hierarchy h(2);
    h.access(0, 0, AccessType::Read); // core 0 caches block 0
    h.access(1, 0, AccessType::Write); // core 1 writes it
    // Core 0 must re-fetch.
    const auto before = h.l1(0).misses();
    h.access(0, 0, AccessType::Read);
    EXPECT_EQ(h.l1(0).misses(), before + 1);
}

TEST(Hierarchy, DirectoryTracksPrivateBlocks)
{
    // A store to a block no other core caches must not disturb the
    // other cores' L1s: the directory knows the block is private.
    Hierarchy h(2, {1024, 2, 64, 2}, {8192, 4, 64, 15});
    h.access(0, 0, AccessType::Read);
    EXPECT_EQ(h.directorySharers(0), 0b01u);
    h.access(1, 4096, AccessType::Read); // unrelated block on core 1
    const auto core1_misses = h.l1(1).misses();
    h.access(0, 0, AccessType::Write); // private: no invalidations
    EXPECT_EQ(h.directorySharers(0), 0b01u);
    h.access(1, 4096, AccessType::Read); // line survived the store
    EXPECT_EQ(h.l1(1).misses(), core1_misses);
    EXPECT_EQ(h.stats().values().at("coherenceWritebacks"), 0.0);
}

TEST(Hierarchy, DirectoryTracksSharedStoreInvalidation)
{
    Hierarchy h(2, {1024, 2, 64, 2}, {8192, 4, 64, 15});
    h.access(0, 0, AccessType::Read);
    h.access(1, 32, AccessType::Read); // same 64B block
    EXPECT_EQ(h.directorySharers(0), 0b11u);
    h.access(1, 0, AccessType::Write); // must drop core 0's copy
    EXPECT_EQ(h.directorySharers(0), 0b10u);
    const auto before = h.l1(0).misses();
    h.access(0, 0, AccessType::Read);
    EXPECT_EQ(h.l1(0).misses(), before + 1);
    EXPECT_EQ(h.directorySharers(0), 0b11u);
}

TEST(Hierarchy, DirectoryConsistentAfterEvictions)
{
    // Cycle more blocks than a tiny L1 holds, then check the
    // directory's presence bits against ground truth: exactly the
    // blocks still resident (those the core re-hits) keep their bit.
    Hierarchy h(2, {128, 1, 64, 2}, {8192, 4, 64, 15});
    const std::uint64_t blocks = 16;
    for (std::uint64_t i = 0; i < blocks; ++i)
        h.access(0, i * 64, AccessType::Read);
    for (std::uint64_t i = 0; i < blocks; ++i) {
        const auto misses = h.l1(0).misses();
        h.access(0, i * 64, AccessType::Read);
        const bool resident = h.l1(0).misses() == misses;
        if (resident) {
            EXPECT_EQ(h.directorySharers(i * 64) & 0b01u, 0b01u)
                << "resident block " << i << " lost its presence bit";
        }
        // A probe that missed re-fills the block, so its bit must be
        // set now in either case.
        EXPECT_EQ(h.directorySharers(i * 64) & 0b01u, 0b01u);
    }
    // Untouched address space carries no stale entries.
    EXPECT_EQ(h.directorySharers(1 << 20), 0u);
}

/**
 * The dirty-forwarding fix: invalidating a *dirty* remote line must
 * push the data down (a coherence writeback), not silently drop it.
 * The tiny L2 guarantees the victim's block has already left L2, so a
 * dropped writeback would be visible as missing memory traffic.
 */
template <typename H>
std::uint64_t
dirtyForwardMemWrites(H &h)
{
    h.access(0, 0, AccessType::Write); // dirty in core 0's L1
    // Push block 0 out of the 2-set L2 (set 0 conflicts).
    h.access(1, 128, AccessType::Read);
    h.access(1, 256, AccessType::Read);
    const auto writes_before = h.memWrites();
    h.access(1, 0, AccessType::Write); // invalidates core 0's dirty copy
    EXPECT_EQ(statValues(h).at("coherenceWritebacks"), 1.0);
    return h.memWrites() - writes_before;
}

TEST(Hierarchy, DirtyVictimForwardedOnInvalidate)
{
    // The forwarded data must reach memory (L2 already evicted the
    // block, so the coherence writeback falls through) -- through the
    // sharing directory exactly as through the reference broadcast.
    const CacheConfig l1{1024, 2, 64, 2};
    const CacheConfig l2{128, 1, 64, 15};
    Hierarchy h(2, l1, l2);
    ReferenceHierarchy ref(2, l1, l2);
    const std::uint64_t forwarded = dirtyForwardMemWrites(h);
    EXPECT_GE(forwarded, 1u);
    EXPECT_EQ(forwarded, dirtyForwardMemWrites(ref));
    EXPECT_EQ(counters(h), counters(ref));
}

TEST(Hierarchy, FastMatchesSlowOnRandomTrace)
{
    // The directory + recency-ordered-set hierarchy must be
    // observationally identical to the reference model: same per-core
    // cache counters, same below-cache traffic, same stat values --
    // with the directory (3 cores) and without it (1 core).  Both a
    // small geometry and the Table-I L1D in front of the 16-way L2
    // share; each footprint is two to three times its L2, so shared
    // dirty blocks and evictions are common.
    const struct
    {
        CacheConfig l1;
        CacheConfig l2;
        std::uint64_t span;
    } cases[] = {
        {{512, 2, 64, 2}, {2048, 4, 64, 15}, 64 * 64},
        {CacheConfig::l1d(), l2Share(), 3 * l2Share().sizeBytes},
    };
    for (const auto &[l1, l2, span] : cases) {
        for (const unsigned cores : {1u, 3u}) {
            SCOPED_TRACE(std::to_string(l2.sizeBytes) + " B L2, cores " +
                         std::to_string(cores));
            Hierarchy h(cores, l1, l2);
            ReferenceHierarchy ref(cores, l1, l2);
            Rng rng(1234);
            for (unsigned i = 0; i < 50000; ++i) {
                const unsigned core =
                    static_cast<unsigned>(rng.below(cores));
                const Addr addr = rng.below(span) & ~7ULL;
                const AccessType type = rng.below(3) == 0
                    ? AccessType::Write
                    : AccessType::Read;
                h.access(core, addr, type);
                ref.access(core, addr, type);
            }
            EXPECT_GT(ref.memWrites(), 0u);
            EXPECT_EQ(counters(h), counters(ref));
        }
    }
}

TEST(Hierarchy, BatchedDeliveryMatchesUnbatched)
{
    // AccessBatch must preserve the exact access order, and drain()
    // must do what one access() per record does -- including the
    // single-core loop's folded load/store counter adds -- so a
    // batched replay and a direct one end with identical counters.
    const CacheConfig l1{512, 2, 64, 2};
    const CacheConfig l2{2048, 4, 64, 15};
    for (const unsigned cores : {1u, 2u}) {
        SCOPED_TRACE(cores);
        Hierarchy direct_h(cores, l1, l2);
        Hierarchy batched_h(cores, l1, l2);
        sort::CacheSink batched_sink(batched_h);

        Rng rng(77);
        std::vector<sort::AccessRecord> trace;
        for (unsigned i = 0; i < 20000; ++i)
            trace.push_back({rng.below(4096) * 8,
                             static_cast<std::uint16_t>(
                                 rng.below(cores)),
                             rng.below(2) ? AccessType::Write
                                          : AccessType::Read});

        for (const auto &r : trace)
            direct_h.access(r.core, r.addr, r.type);
        {
            sort::AccessBatch batch(batched_sink);
            for (const auto &r : trace)
                batch.access(r.core, r.addr, r.type);
            // Destructor flushes the tail.
        }
        EXPECT_GT(direct_h.memWrites(), 0u);
        EXPECT_EQ(counters(direct_h), counters(batched_h));
    }
}

TEST(Hierarchy, SortAndHeapStreamsMatchReference)
{
    // The two library streams the baseline figures replay -- the
    // instrumented mergesort (Fig. 15) and priority-queue churn on
    // the traced heap (Fig. 18) -- through the batched CacheSink and
    // through the reference model.  The L2 is shrunk so both streams
    // spill to memory.
    const CacheConfig l1 = CacheConfig::l1d();
    const CacheConfig l2{64 * 1024, 16, 64, 15};
    for (const unsigned cores : {1u, 2u}) {
        SCOPED_TRACE(cores);
        Hierarchy h(cores, l1, l2);
        ReferenceHierarchy ref(cores, l1, l2);
        sort::CacheSink sink(h);
        ReferenceSink ref_sink(ref);

        Rng rng(31);
        sort::Keys keys(1 << 15);
        for (auto &k : keys)
            k = static_cast<std::uint32_t>(rng());
        sort::Keys ref_keys = keys;
        sort::runSort(sort::Algorithm::Mergesort, keys, 0, sink);
        sort::runSort(sort::Algorithm::Mergesort, ref_keys, 0, ref_sink);
        EXPECT_EQ(keys, ref_keys);

        std::vector<std::uint64_t> churn(1 << 16);
        for (auto &k : churn)
            k = rng();
        for (sort::AccessSink *s :
             {static_cast<sort::AccessSink *>(&sink),
              static_cast<sort::AccessSink *>(&ref_sink)}) {
            sort::AccessBatch batch(*s);
            workloads::TracedHeap heap(batch, /*base=*/1ULL << 36);
            for (std::size_t i = 0; i < churn.size() / 4; ++i)
                heap.push(churn[i]);
            for (std::size_t i = churn.size() / 4; i < churn.size();
                 ++i) {
                heap.push(churn[i]);
                heap.pop();
            }
        }

        EXPECT_GT(ref.memReads(), 0u);
        EXPECT_GT(ref.memWrites(), 0u);
        EXPECT_EQ(counters(h), counters(ref));
    }
}

TEST(Hierarchy, CacheResidentReuseVsStreaming)
{
    Rng rng(9);
    Hierarchy resident(1);
    Hierarchy stream(1);
    const std::uint64_t small_span = 2ULL << 20;  // fits the 8MB L2
    const std::uint64_t large_span = 64ULL << 20; // 8x the L2
    const std::uint64_t accesses = 400000;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        resident.access(0, (i * 64) % small_span, AccessType::Read);
        stream.access(0, rng.below(large_span / 64) * 64,
                      AccessType::Read);
    }
    // The cache-resident loop misses only on compulsory fills; the
    // large random scan misses most of the time.
    EXPECT_LE(resident.memReads(), small_span / 64 + 100);
    EXPECT_GT(stream.memReads(), accesses / 2);
}
