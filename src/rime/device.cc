#include "device.hh"

#include <algorithm>

#include "common/logging.hh"
#include "rimehw/chip.hh"
#include "rimehw/fast_model.hh"

namespace rime
{

RimeDevice::RimeDevice(const DeviceConfig &config)
    : config_(config), stats_("rimedev")
{
    hostWrites_ = stats_.counter("hostWrites");
    hostReads_ = stats_.counter("hostReads");
    rangeInits_ = stats_.counter("rangeInits");
    const unsigned chips =
        config.channels * config.geometry.chipsPerChannel;
    if (chips == 0)
        fatal("RIME device needs at least one chip");
    if (config.faults.injecting() && !config.bitLevel)
        fatal("fault injection requires the bit-level chip model");
    chips_.reserve(chips);
    for (unsigned i = 0; i < chips; ++i) {
        if (config.bitLevel) {
            rimehw::FaultParams chip_faults = config.faults;
            // Decorrelate the chips without extra user-visible knobs.
            chip_faults.seed = config.faults.seed + i;
            chips_.push_back(std::make_unique<rimehw::RimeChip>(
                config.geometry, config.timing, config.hostThreads,
                chip_faults));
        } else {
            chips_.push_back(std::make_unique<rimehw::FastRime>(
                config.geometry, config.timing));
        }
    }
    busyUntil_.assign(chips, 0);
}

void
RimeDevice::configure(unsigned k, KeyMode mode)
{
    if (k % 8 != 0)
        fatal("word width %u is not byte-aligned", k);
    k_ = k;
    mode_ = mode;
    for (auto &chip : chips_)
        chip->configure(k, mode);
}

std::uint64_t
RimeDevice::capacityValues() const
{
    return chips_.front()->valueCapacity() * totalChips();
}

std::uint64_t
RimeDevice::capacityBytes() const
{
    return capacityValues() * (k_ / 8);
}

LocalRange
RimeDevice::localRange(unsigned chip, std::uint64_t begin,
                       std::uint64_t end) const
{
    const unsigned chips = totalChips();
    auto count_below = [chips, chip](std::uint64_t bound) {
        // Values v < bound with v % chips == chip.
        if (bound <= chip)
            return std::uint64_t(0);
        return (bound - chip - 1) / chips + 1;
    };
    LocalRange r;
    r.lo = count_below(begin);
    r.hi = count_below(end);
    return r;
}

void
RimeDevice::writeValue(std::uint64_t index, std::uint64_t raw)
{
    const ChipLoc loc = locate(index);
    chips_[loc.chip]->writeValue(loc.local, raw);
    ++hostWrites_;
}

std::uint64_t
RimeDevice::readValue(std::uint64_t index)
{
    const ChipLoc loc = locate(index);
    ++hostReads_;
    return chips_[loc.chip]->readValue(loc.local);
}

std::uint64_t
RimeDevice::peekValue(std::uint64_t index)
{
    const ChipLoc loc = locate(index);
    return chips_[loc.chip]->peekValue(loc.local);
}

void
RimeDevice::pokeValue(std::uint64_t index, std::uint64_t raw)
{
    const ChipLoc loc = locate(index);
    chips_[loc.chip]->pokeValue(loc.local, raw);
}

Tick
RimeDevice::loadValues(std::uint64_t start_index,
                       std::span<const std::uint64_t> raws)
{
    // Value start_index + i lives on chip (start_index + i) % chips,
    // so each chip takes every chips-th value of the span as one run
    // of consecutive local indices.
    const unsigned chips = totalChips();
    const std::uint64_t n = raws.size();
    for (unsigned c = 0; c < chips && c < n; ++c) {
        const ChipLoc loc = locate(start_index + c);
        chips_[loc.chip]->writeValues(loc.local, raws.data() + c,
                                      (n - c + chips - 1) / chips,
                                      chips);
    }
    hostWrites_ += static_cast<double>(n);

    // Timing: the channel store path streams the data while each chip
    // performs one RRAM row write per gathered row of values.
    const double bytes =
        static_cast<double>(raws.size()) * (k_ / 8);
    const double bus_seconds = bytes /
        (config_.loadBandwidthGBps * 1e9 * config_.channels);
    const double per_chip_values = static_cast<double>(raws.size()) /
        totalChips();
    const double row_writes = per_chip_values /
        config_.geometry.slotsPerRow(k_);
    const double write_seconds =
        row_writes * ticksToSeconds(config_.timing.tWrite);
    const double seconds = std::max(bus_seconds, write_seconds);
    return static_cast<Tick>(seconds * 1e12);
}

Tick
RimeDevice::initRange(std::uint64_t begin, std::uint64_t end, Tick now)
{
    if (end > capacityValues() || begin > end)
        fatal("device range [%llu, %llu) out of bounds",
              static_cast<unsigned long long>(begin),
              static_cast<unsigned long long>(end));
    Tick latency = 0;
    for (unsigned c = 0; c < totalChips(); ++c) {
        const LocalRange lr = localRange(c, begin, end);
        if (lr.lo >= lr.hi)
            continue;
        latency = std::max(latency,
                           chips_[c]->initRange(lr.lo, lr.hi));
        // Initialization quiesces the chip for the new operation.
        busyUntil_[c] = std::max(busyUntil_[c], now) + latency;
    }
    ++rangeInits_;
    return latency;
}

PicoJoules
RimeDevice::totalEnergyPJ() const
{
    PicoJoules total = stats_.get("energyPJ");
    for (const auto &chip : chips_)
        total += chip->stats().get("energyPJ");
    return total;
}

StatGroup
RimeDevice::aggregateStats() const
{
    StatGroup all("rime");
    all.merge(stats_);
    for (const auto &chip : chips_)
        all.merge(chip->stats());
    return all;
}

std::uint64_t
RimeDevice::maxBlockWrites() const
{
    std::uint64_t worst = 0;
    for (const auto &chip : chips_)
        worst = std::max(worst, chip->endurance().maxBlockWrites());
    return worst;
}

rimehw::HealthCounts
RimeDevice::healthCounts() const
{
    rimehw::HealthCounts total;
    for (const auto &chip : chips_)
        total += chip->healthCounts();
    return total;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
RimeDevice::drainDeadExtents()
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    const unsigned chips = totalChips();
    for (unsigned c = 0; c < chips; ++c) {
        for (const auto &[lo, hi] : chips_[c]->drainDeadExtents()) {
            if (lo >= hi)
                continue;
            // Local [lo, hi) on chip c covers the striped global
            // indices {v : v % chips == c, lo <= v / chips < hi};
            // report the covering global extent (conservative).
            out.emplace_back(globalIndex(c, lo),
                             globalIndex(c, hi - 1) + 1);
        }
    }
    return out;
}

} // namespace rime
