/**
 * @file
 * Multi-channel DRAM memory system (DDR4 off-chip or HBM in-package)
 * plus the idealized unlimited-bandwidth memory used by the paper's
 * characterization experiments.
 */

#ifndef RIME_MEMSIM_DRAM_SYSTEM_HH
#define RIME_MEMSIM_DRAM_SYSTEM_HH

#include <limits>
#include <memory>
#include <vector>

#include "memsim/address_map.hh"
#include "memsim/channel.hh"
#include "memsim/memory_system.hh"

namespace rime::memsim
{

/** A command-level timed DRAM system. */
class DramSystem : public MemorySystem
{
  public:
    explicit DramSystem(const DramParams &params,
                        Interleave scheme = Interleave::RoRaBaCoCh)
        : params_(params), map_(params, scheme),
          stats_(params.name)
    {
        channels_.reserve(params.channels);
        for (unsigned i = 0; i < params.channels; ++i)
            channels_.push_back(
                std::make_unique<Channel>(params, &stats_));
    }

    Tick
    access(const MemRequest &req, Tick earliest) override
    {
        const DramCoord coord = map_.decode(req.addr);
        return channels_[coord.channel]->access(coord, req.type,
                                                earliest);
    }

    double
    peakBandwidthGBps() const override
    {
        return params_.peakBandwidthGBps();
    }

    std::string name() const override { return params_.name; }
    const StatGroup &stats() const override { return stats_; }

    void
    resetStats() override
    {
        stats_.reset();
        for (auto &ch : channels_)
            ch->reset();
    }

    /** Latest data-transfer completion across all channels. */
    Tick
    lastCompletion() const
    {
        Tick last = 0;
        for (const auto &ch : channels_)
            last = std::max(last, ch->lastCompletion());
        return last;
    }

    const DramParams &params() const { return params_; }
    const AddressMap &addressMap() const { return map_; }

  private:
    DramParams params_;
    AddressMap map_;
    StatGroup stats_;
    std::vector<std::unique_ptr<Channel>> channels_;
};

/**
 * Idealized memory with fixed latency and unbounded bandwidth, matching
 * the "unlimited bandwidth" configuration of Figures 1 and 2.
 */
class UnlimitedMemory : public MemorySystem
{
  public:
    explicit UnlimitedMemory(Tick latency = nsToTicks(60),
                             std::uint64_t block_bytes = 64)
        : latency_(latency), blockBytes_(block_bytes),
          stats_("unlimited"),
          readBursts_(stats_.counter("readBursts")),
          bytesRead_(stats_.counter("bytesRead")),
          writeBursts_(stats_.counter("writeBursts")),
          bytesWritten_(stats_.counter("bytesWritten"))
    {}

    Tick
    access(const MemRequest &req, Tick earliest) override
    {
        if (req.type == AccessType::Read) {
            ++readBursts_;
            bytesRead_ += static_cast<double>(blockBytes_);
        } else {
            ++writeBursts_;
            bytesWritten_ += static_cast<double>(blockBytes_);
        }
        return earliest + latency_;
    }

    double
    peakBandwidthGBps() const override
    {
        return std::numeric_limits<double>::infinity();
    }

    std::string name() const override { return "unlimited"; }
    const StatGroup &stats() const override { return stats_; }
    void resetStats() override { stats_.reset(); }

  private:
    Tick latency_;
    std::uint64_t blockBytes_;
    StatGroup stats_;
    StatCounter readBursts_;
    StatCounter bytesRead_;
    StatCounter writeBursts_;
    StatCounter bytesWritten_;
};

} // namespace rime::memsim

#endif // RIME_MEMSIM_DRAM_SYSTEM_HH
