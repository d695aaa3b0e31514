/**
 * @file
 * The RIME memory device: one or more DDR4 channels of RIME DIMMs,
 * each with eight chips (Table I).  The device owns the chip-level
 * backends, the value-index address map (pages striped across chips so
 * every chip contributes parallel in-situ compute, as in Figure 14),
 * the per-chip busy timeline, and the bulk-load timing model.
 */

#ifndef RIME_RIME_DEVICE_HH
#define RIME_RIME_DEVICE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/key_codec.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "rimehw/backend.hh"
#include "rimehw/faults.hh"
#include "rimehw/params.hh"

namespace rime
{

/** System-level RIME configuration. */
struct DeviceConfig
{
    /** Single-DIMM DDR4 channels populated with RIME DIMMs. */
    unsigned channels = 1;
    rimehw::RimeGeometry geometry{};
    rimehw::RimeTimingParams timing{};
    /**
     * Use the bit-level RimeChip model instead of FastRime.  Exact but
     * O(k*N) per extraction; usable at paper scale with hostThreads.
     */
    bool bitLevel = false;
    /**
     * Host threads driving each bit-level chip's scan engine.  0 is
     * the default width: at most RIME_THREADS (else the hardware
     * concurrency) shards, and one shard per
     * RimeChip::kUnitsPerShard active units, so small ranges scan
     * inline.  An explicit N always gives min(N, active units)
     * shards.  Any value produces bit-identical results; this is
     * purely a simulator-speed knob.
     */
    unsigned hostThreads = 0;
    /** Candidates each chip computes ahead into its DIMM data buffer. */
    unsigned bufferDepth = 4;
    /** Host-side merge cost per extracted value (CPU compare loop). */
    double hostMergeNs = 6.0;
    /** DDR burst fetching a refreshed candidate from the DIMM buffer. */
    double resultBurstNs = 6.0;
    /** Per-channel store bandwidth for bulk loads (DDR4-1600). */
    double loadBandwidthGBps = 12.8;
    /**
     * Fault injection and self-repair provisioning (per chip; each
     * chip derives its decisions from faults.seed and its chip id).
     * Requires the bit-level model: FastRime has no cells to corrupt.
     */
    rimehw::FaultParams faults{};
};

/** Location of a value index on the device. */
struct ChipLoc
{
    unsigned chip = 0;
    std::uint64_t local = 0;
};

/** Per-chip slice of a global value range. */
struct LocalRange
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0; ///< exclusive; lo == hi when empty
};

/** The RIME memory system (all channels, all chips). */
class RimeDevice
{
  public:
    explicit RimeDevice(const DeviceConfig &config = DeviceConfig{});

    /** Configure word width and type mode on every chip. */
    void configure(unsigned k, KeyMode mode);

    unsigned wordBits() const { return k_; }
    KeyMode mode() const { return mode_; }
    unsigned totalChips() const
    { return static_cast<unsigned>(chips_.size()); }
    const DeviceConfig &config() const { return config_; }

    /** Total k-bit values the device can hold. */
    std::uint64_t capacityValues() const;
    /** Total bytes of the device (the RIME region size). */
    std::uint64_t capacityBytes() const;

    /** Chip/local coordinates of a global value index. */
    ChipLoc
    locate(std::uint64_t index) const
    {
        const unsigned chips = totalChips();
        return {static_cast<unsigned>(index % chips), index / chips};
    }

    /** Global index of (chip, local). */
    std::uint64_t
    globalIndex(unsigned chip, std::uint64_t local) const
    {
        return local * totalChips() + chip;
    }

    /** Local index slice of the global range [begin, end) on a chip. */
    LocalRange localRange(unsigned chip, std::uint64_t begin,
                          std::uint64_t end) const;

    rimehw::RankBackend &chip(unsigned c) { return *chips_[c]; }
    const rimehw::RankBackend &chip(unsigned c) const
    { return *chips_[c]; }

    /** Per-chip busy-until timeline (chips compute autonomously). */
    Tick chipBusyUntil(unsigned c) const { return busyUntil_[c]; }
    void setChipBusyUntil(unsigned c, Tick t) { busyUntil_[c] = t; }

    /** Store one value through the DDR interface (normal write). */
    void writeValue(std::uint64_t index, std::uint64_t raw);

    /** Read one stored value (normal read). */
    std::uint64_t readValue(std::uint64_t index);

    /** Stored value, no stats/energy/disturb (state-dump path). */
    std::uint64_t peekValue(std::uint64_t index);

    /** Install a value, no stats/energy/wear (restore path). */
    void pokeValue(std::uint64_t index, std::uint64_t raw);

    /**
     * Bulk-load values [start_index, start_index + n): returns the
     * elapsed time, bounded by channel store bandwidth and by the
     * per-chip row-write rate (the DIMM controller gathers a full row
     * of values per RRAM row write).
     */
    Tick loadValues(std::uint64_t start_index,
                    std::span<const std::uint64_t> raws);

    /** rime_init over global indices [begin, end): returns latency. */
    Tick initRange(std::uint64_t begin, std::uint64_t end, Tick now);

    /** Sum of all chips' energy plus device-level energy, pJ. */
    PicoJoules totalEnergyPJ() const;

    /** Merge all chip stats plus device stats into one group. */
    StatGroup aggregateStats() const;

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Worst-case (hottest block) endurance info across chips. */
    std::uint64_t maxBlockWrites() const;

    /** Repair-pipeline summary aggregated over every chip. */
    rimehw::HealthCounts healthCounts() const;

    /**
     * Global value-index extents lost to dead units since the last
     * drain (conservative: a chip-local extent is widened to the
     * smallest global extent covering its striped indices).
     */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    drainDeadExtents();

  private:
    DeviceConfig config_;
    unsigned k_ = 32;
    KeyMode mode_ = KeyMode::UnsignedFixed;
    std::vector<std::unique_ptr<rimehw::RankBackend>> chips_;
    std::vector<Tick> busyUntil_;
    StatGroup stats_;
    // Cached handles for the per-value host paths (see StatCounter).
    StatCounter hostWrites_;
    StatCounter hostReads_;
    StatCounter rangeInits_;
};

} // namespace rime

#endif // RIME_RIME_DEVICE_HH
