/**
 * @file
 * RRAM endurance tracking (paper section VII-C): counts writes per
 * memory block, identifies the most frequently written block, and
 * projects the array lifetime under a finite write endurance assuming
 * the hottest block keeps receiving writes at its observed rate.
 */

#ifndef RIME_RIMEHW_ENDURANCE_HH
#define RIME_RIMEHW_ENDURANCE_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>

namespace rime::rimehw
{

/** Write-wear tracker at block granularity. */
class EnduranceTracker
{
  public:
    explicit EnduranceTracker(std::uint64_t block_bytes = 512)
        : blockBytes_(block_bytes)
    {}

    /**
     * Record a write of `bytes` bytes (0 counts as 1) at the given byte
     * offset: one write against every block it touches.
     */
    void
    recordWrite(std::uint64_t byte_offset, std::uint64_t bytes = 1)
    {
        recordRun(byte_offset, bytes ? bytes : 1, 1);
    }

    /**
     * Record `count` back-to-back writes of `bytes` (>= 1) bytes each
     * from `byte_offset` on, with one update per block the run touches.
     */
    void
    recordRun(std::uint64_t byte_offset, std::uint64_t bytes,
              std::uint64_t count)
    {
        if (count == 0)
            return;
        const std::uint64_t last_byte = byte_offset + bytes * count - 1;
        for (std::uint64_t b = byte_offset / blockBytes_;
             b <= last_byte / blockBytes_; ++b) {
            // The run's writes from the one covering the block's
            // first byte to the one covering its last.
            const std::uint64_t lo = b * blockBytes_;
            const std::uint64_t hi =
                std::min(lo + blockBytes_ - 1, last_byte);
            const std::uint64_t first =
                lo > byte_offset ? (lo - byte_offset) / bytes : 0;
            const std::uint64_t n = (hi - byte_offset) / bytes - first + 1;
            const std::uint64_t total = writes_[b] += n;
            maxWrites_ = std::max(maxWrites_, total);
            totalWrites_ += n;
        }
    }

    std::uint64_t totalWrites() const { return totalWrites_; }
    std::uint64_t maxBlockWrites() const { return maxWrites_; }
    std::uint64_t touchedBlocks() const { return writes_.size(); }

    /** Block index covering a byte offset. */
    std::uint64_t blockOf(std::uint64_t byte_offset) const
    { return byte_offset / blockBytes_; }

    /** Writes recorded against the block covering a byte offset. */
    std::uint64_t
    blockWrites(std::uint64_t byte_offset) const
    {
        auto it = writes_.find(blockOf(byte_offset));
        return it == writes_.end() ? 0 : it->second;
    }

    /**
     * Projected lifetime in years: the hottest block observed
     * `maxBlockWrites()` writes over `elapsed_seconds` of simulated
     * execution; with a cell endurance of `endurance_writes` the block
     * survives endurance/rate seconds.
     *
     * Returns +infinity when no writes were recorded.
     */
    double
    lifetimeYears(double elapsed_seconds,
                  double endurance_writes = 1e8) const
    {
        if (maxWrites_ == 0 || elapsed_seconds <= 0.0)
            return std::numeric_limits<double>::infinity();
        const double rate =
            static_cast<double>(maxWrites_) / elapsed_seconds;
        const double seconds = endurance_writes / rate;
        return seconds / (365.25 * 24 * 3600);
    }

    void
    reset()
    {
        writes_.clear();
        maxWrites_ = 0;
        totalWrites_ = 0;
    }

  private:
    std::uint64_t blockBytes_;
    std::unordered_map<std::uint64_t, std::uint64_t> writes_;
    std::uint64_t maxWrites_ = 0;
    std::uint64_t totalWrites_ = 0;
};

} // namespace rime::rimehw

#endif // RIME_RIMEHW_ENDURANCE_HH
