/**
 * @file
 * Bit-level model of one RIME chip: 64 banks x 64 subbanks of 512x512
 * subarrays organised into mats, a chip controller implementing the
 * multi-mat exclusion protocol of section IV-B2, and the data/index
 * H-tree acting as priority encoder and select-vector initializer.
 *
 * Value addressing: values of width k are laid out one per row within a
 * slot group; value index -> (unit, row) with unit = index / rows and
 * row = index % rows.  Units are ordered (bank, mat, array, slot), so
 * priority encoding over (unit, row) equals address order -- the
 * property the paper uses to guarantee stable sorting.
 *
 * With fault injection active (see rimehw/faults.hh) the chip runs a
 * verify-retry-remap-retire pipeline: every write is read back and
 * compared (stuck-at and worn-out cells surface here and the value is
 * remapped to a spare row, or the whole unit is migrated to a spare
 * unit), every extraction's winner is read back and compared against
 * the bit trajectory the scan observed, and -- when transient read
 * disturb is enabled -- two consecutive scans in different disturb
 * epochs must reproduce the same winner before it is emitted.  A scan
 * either returns a verified-correct value or an
 * explicit non-Ok ScanStatus -- never a silently wrong item.  All
 * repair decisions are made serially by the controller, so results
 * stay bit-identical for any hostThreads value.
 */

#ifndef RIME_RIMEHW_CHIP_HH
#define RIME_RIMEHW_CHIP_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/key_codec.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "rimehw/array.hh"
#include "rimehw/backend.hh"
#include "rimehw/endurance.hh"
#include "rimehw/faults.hh"
#include "rimehw/params.hh"
#include "rimehw/unit.hh"

namespace rime::rimehw
{

/** One RIME chip (bit-level model). */
class RimeChip : public RankBackend
{
  public:
    /**
     * @param host_threads execution width of the host-side parallel
     *        scan engine (mats compute concurrently in the real chip).
     *        0 selects the default width: the RIME_THREADS / hardware
     *        thread count caps it, and a range gets one shard per
     *        kUnitsPerShard active units, so small ranges scan inline
     *        on the caller.  An explicit N always splits a range into
     *        min(N, active units) shards.  Results, statistics, and
     *        energy are bit-identical for any value.
     * @param faults fault-injection and repair-provisioning knobs;
     *        default-constructed params inject nothing and leave the
     *        fault machinery entirely out of the scan path
     */
    RimeChip(const RimeGeometry &geometry = RimeGeometry{},
             const RimeTimingParams &timing = RimeTimingParams{},
             unsigned host_threads = 0,
             const FaultParams &faults = FaultParams{});

    /**
     * Active units per shard at the default width: below 2 *
     * kUnitsPerShard units a scan runs as one shard, because a pool
     * fork-join costs more than the column searches it spreads.
     * Calibrated with bench/micro_ops (see DESIGN.md, "Sharding").
     */
    static constexpr std::size_t kUnitsPerShard = 4096;

    /** Change the host-side execution width (0 = default width). */
    void setHostThreads(unsigned host_threads);
    unsigned hostThreads() const { return threads_; }
    /** Shards each scan phase over the current range runs on. */
    unsigned shardCount() const;

    /**
     * Set the word width and data-type mode for subsequent operations
     * (performed by rime_init through the chip controller).  Resets any
     * active range.
     */
    void configure(unsigned k, KeyMode mode) override;

    unsigned wordBits() const override { return k_; }
    KeyMode mode() const override { return mode_; }

    /** Number of k-bit values the chip can store. */
    std::uint64_t valueCapacity() const override;

    /** Store a raw k-bit value (a row write; wears the cells). */
    Tick writeValue(std::uint64_t index, std::uint64_t raw) override;

    /**
     * Bulk load.  Without a fault model each unit's part of the run
     * is written a 64-row word at a time by bit-plane transposes
     * (ArrayUnit::writeValues) and charged once: rowWrites, energy
     * (StatCounter::incRepeated) and one endurance update per block.
     * With one, every value takes writeValue's verified path.
     */
    void writeValues(std::uint64_t index, const std::uint64_t *src,
                     std::uint64_t count, std::size_t stride) override;

    /** Read a stored value (a row read; no wear). */
    std::uint64_t readValue(std::uint64_t index) override;

    /** Stored value, no stats/energy/disturb (state-dump path). */
    std::uint64_t peekValue(std::uint64_t index) override;

    /** Install a value, no stats/energy/wear (restore path). */
    void pokeValue(std::uint64_t index, std::uint64_t raw) override;

    /**
     * Start a new operation on value indices [begin, end): clears the
     * range's exclusion flags (paper Figure 11).
     */
    Tick initRange(std::uint64_t begin, std::uint64_t end) override;

    /**
     * In-situ min (or max) over [begin, end), skipping rows with set
     * exclusion latches.  Pure: does not exclude the winner.
     */
    ExtractResult scan(std::uint64_t begin, std::uint64_t end,
                       bool find_max = false) override;

    /** Set the exclusion latch of one value index. */
    void exclude(std::uint64_t begin, std::uint64_t end,
                 std::uint64_t index) override;

    /** State of an index's exclusion latch. */
    bool isExcluded(std::uint64_t begin, std::uint64_t end,
                    std::uint64_t index) override;

    /** Values in [begin, end) and not yet excluded. */
    std::uint64_t remainingInRange(std::uint64_t begin,
                                   std::uint64_t end) override;

    const StatGroup &stats() const override { return stats_; }
    StatGroup &stats() override { return stats_; }
    const EnduranceTracker &endurance() const override
    { return endurance_; }
    const RimeGeometry &geometry() const override { return geometry_; }
    const RimeTimingParams &timing() const override { return timing_; }

    /** Total energy charged so far, picojoules. */
    PicoJoules energyPJ() const { return stats_.get("energyPJ"); }

    /** The chip's fault oracle (nullptr when injection is off). */
    const FaultModel *faultModel() const { return faults_.get(); }

    HealthCounts healthCounts() const override;
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    drainDeadExtents() override;

  private:
    /** Repair state of one logical unit. */
    enum class UnitHealth : std::uint8_t { Degraded = 1, Retired,
                                           Dead };

    /** Fatal unless values [index, index + count) fit the chip. */
    void checkIndices(std::uint64_t index, std::uint64_t count) const;
    ArrayUnit &unit(std::uint64_t unit_id);
    /** Unit backing a logical unit id (follows retirement remaps). */
    ArrayUnit &logicalUnit(std::uint64_t logical_id);
    /** Rows addressable as values per unit (spares carved out). */
    unsigned rowsPerUnit() const;
    /** Point the cached active-unit list at [begin, end). */
    void selectRange(std::uint64_t begin, std::uint64_t end);
    /** beginExtraction on every active unit; total survivor count. */
    std::uint64_t loadSelectLatches();

    /** Charge one sense read of a value row to stats. */
    void chargeRead();
    /**
     * Read a physical row until two consecutive reads agree (filters
     * transient read disturb); false when the readout never settled.
     */
    bool stableRead(const ArrayUnit &au, unsigned phys,
                    std::uint64_t &out);
    /**
     * Verified write into one unit with spare-row remapping only
     * (no unit escalation); false when the unit's spares ran out.
     */
    bool writeRowRepair(std::uint64_t logical_unit, ArrayUnit &au,
                        unsigned row, std::uint64_t raw,
                        std::uint64_t block_writes, bool charge_first);
    /**
     * Write-verify with spare-row remap and unit retirement; false
     * when repair capacity is exhausted (the value is then lost).
     */
    bool writeVerified(std::uint64_t logical_unit, unsigned row,
                       std::uint64_t raw, std::uint64_t block_writes);
    /**
     * Migrate a unit whose spares ran out to a spare unit; false (and
     * the unit marked dead) when no spare unit remains.
     */
    bool retireUnit(std::uint64_t logical_unit);
    /** Degrade-at-least (state machine only moves forward). */
    void raiseHealth(std::uint64_t logical_unit, UnitHealth to);
    /** Drop the cached active-unit list (after a unit migration). */
    void invalidateActiveUnits();

    /**
     * Per-shard partials of one concurrent scan phase, merged by the
     * controller in shard order (the order-preserving reduction the
     * H-tree performs in hardware).  Cache-line aligned so worker
     * threads never share a line.
     */
    struct alignas(64) ShardSignals
    {
        bool anyMatch = false;
        bool anyMismatch = false;
        std::uint64_t survivors = 0;
    };

    /** Winner of one scan attempt (before verification). */
    struct ScanAttempt
    {
        bool found = false;
        std::size_t unitPos = 0; ///< index into activeUnits_
        unsigned physRow = 0;
        unsigned steps = 0;
        /** Bit observed at step s (trajectory), bit s of the mask. */
        std::uint64_t trajectory = 0;
    };

    /** One probe/commit walk over the loaded select latches. */
    ScanAttempt runScanSteps(bool find_max, std::uint64_t survivors);

    /** scan() body; the public wrapper adds tracing and profiling. */
    ExtractResult scanImpl(std::uint64_t begin, std::uint64_t end,
                           bool find_max);

    RimeGeometry geometry_;
    RimeTimingParams timing_;
    unsigned k_ = 32;
    KeyMode mode_ = KeyMode::UnsignedFixed;
    /** Value slots per subarray row at the current word width. */
    unsigned slots_ = 1;
    std::uint64_t unitsTotal_ = 0;
    /** Units addressable as values; the rest are spare units. */
    std::uint64_t logicalUnits_ = 0;
    std::uint64_t rangeBegin_ = 0;
    std::uint64_t rangeEnd_ = 0;

    /** Lazily allocated subarrays (bank*subbanks + subbank). */
    std::vector<std::unique_ptr<RramArray>> arrays_;
    /**
     * Lazily created scan units, one slot table per subarray (indexed
     * like arrays_) allocated with its first unit: a flat table over
     * every unit id would zero-fill 512 KiB per full-geometry chip
     * that a range of a few hundred units never touches.
     */
    std::vector<std::unique_ptr<std::unique_ptr<ArrayUnit>[]>> units_;
    /** Units overlapping the active range, in address order. */
    std::vector<ArrayUnit *> activeUnits_;
    std::uint64_t activeFirstUnit_ = 0;

    /** Host-side execution width of the scan engine. */
    unsigned threads_ = 1;
    /** Width taken as given (explicit hostThreads), not work-sized. */
    bool explicitWidth_ = false;
    /** Per-shard scratch, reused across steps to avoid allocation. */
    std::vector<ShardSignals> shardScratch_;

    FaultParams faultParams_;
    std::unique_ptr<FaultModel> faults_;
    /** Retired logical unit -> spare unit it migrated to. */
    std::unordered_map<std::uint64_t, std::uint64_t> unitRemap_;
    /** Logical units that left the healthy state. */
    std::unordered_map<std::uint64_t, UnitHealth> health_;
    std::uint64_t nextSpareUnit_ = 0;
    std::uint64_t remappedRows_ = 0;
    std::uint64_t lostValues_ = 0;
    /** Dead local extents not yet drained by the driver. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> deadExtents_;

    StatGroup stats_;
    /**
     * Cached handles to the hot-path counters (resolved once in the
     * constructor): the scan and write paths increment through these
     * instead of paying a string-keyed map lookup per event.  Eager
     * resolution creates the keys at zero, so dump key sets do not
     * depend on which events occurred.
     */
    StatCounter rowReads_;
    StatCounter rowWrites_;
    StatCounter energyPJ_;
    StatCounter columnSearches_;
    StatCounter scanSteps_;
    StatCounter extractions_;
    StatCounter exclusions_;
    StatCounter busyTicks_;
    StatCounter scanWallNs_;
    EnduranceTracker endurance_;
};

} // namespace rime::rimehw

#endif // RIME_RIMEHW_CHIP_HH
