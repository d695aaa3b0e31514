/**
 * @file
 * One DRAM channel: a data bus shared by all ranks/banks of the channel,
 * per-rank activation windows (tRRD / tFAW), and the per-bank state
 * machines.
 */

#ifndef RIME_MEMSIM_CHANNEL_HH
#define RIME_MEMSIM_CHANNEL_HH

#include <array>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "memsim/address_map.hh"
#include "memsim/bank.hh"

namespace rime::memsim
{

/**
 * Per-rank bookkeeping for the rolling four-activate tFAW window: a
 * ring of the last four ACTs' tFAW deadlines (ACT tick + tFAW), oldest
 * at `oldest`.  A slot no ACT has filled yet holds 0, which never
 * delays an ACT, so the first four are bound only by tRRD.
 */
struct RankState
{
    std::array<Tick, 4> fawReady{};
    unsigned oldest = 0;
    Tick lastAct = 0;
};

/**
 * Channel timing model.
 *
 * Requests are served in arrival order (FCFS per channel) but bank
 * preparation (precharge / activate) overlaps freely with other banks'
 * data transfers, which captures bank-level parallelism, the dominant
 * effect for sustained-bandwidth behaviour.
 */
class Channel
{
  public:
    Channel(const DramParams &params, StatGroup *stats)
        : params_(params),
          ranks_(params.ranksPerChannel,
                 std::vector<Bank>(params.banksPerRank)),
          rankState_(params.ranksPerChannel),
          rowHits_(stats->counter("rowHits")),
          rowConflicts_(stats->counter("rowConflicts")),
          rowMisses_(stats->counter("rowMisses")),
          readBursts_(stats->counter("readBursts")),
          bytesRead_(stats->counter("bytesRead")),
          writeBursts_(stats->counter("writeBursts")),
          bytesWritten_(stats->counter("bytesWritten")),
          activates_(stats->counter("activates"))
    {}

    /**
     * Serve one burst to the given coordinates.
     *
     * @return completion tick of the data transfer
     */
    Tick
    access(const DramCoord &coord, AccessType type, Tick earliest)
    {
        Bank &bank = ranks_[coord.rank][coord.bank];
        RankState &rank = rankState_[coord.rank];
        Tick t = earliest;

        const auto outcome =
            bank.classify(static_cast<std::int64_t>(coord.row));
        switch (outcome) {
          case RowBufferOutcome::Hit:
            ++rowHits_;
            break;
          case RowBufferOutcome::Conflict:
            ++rowConflicts_;
            bank.precharge(params_, std::max(t, bank.preReady));
            [[fallthrough]];
          case RowBufferOutcome::Miss:
            if (outcome == RowBufferOutcome::Miss)
                ++rowMisses_;
            activate(bank, rank, coord.row, t);
            break;
        }

        Tick completion;
        if (type == AccessType::Read) {
            Tick cas = std::max(t, bank.readReady);
            // The read data occupies the bus starting tCAS after the
            // column command; delay the command if the bus is busy.
            if (busFree_ > cas + params_.tCAS)
                cas = busFree_ - params_.tCAS;
            bank.columnRead(params_, cas);
            busFree_ = cas + params_.tCAS + params_.burstTime();
            completion = busFree_;
            ++readBursts_;
            bytesRead_ += static_cast<double>(params_.burstBytes);
        } else {
            Tick cas = std::max(t, bank.writeReady);
            if (busFree_ > cas + params_.tCWD)
                cas = busFree_ - params_.tCWD;
            bank.columnWrite(params_, cas);
            busFree_ = cas + params_.tCWD + params_.burstTime();
            completion = busFree_;
            ++writeBursts_;
            bytesWritten_ += static_cast<double>(params_.burstBytes);
        }
        lastCompletion_ = std::max(lastCompletion_, completion);
        return completion;
    }

    Tick lastCompletion() const { return lastCompletion_; }

    /** Return every bank to the idle, all-timers-expired state. */
    void
    reset()
    {
        for (auto &rank : ranks_)
            for (auto &bank : rank)
                bank = Bank();
        for (auto &rs : rankState_)
            rs = RankState();
        busFree_ = 0;
        lastCompletion_ = 0;
    }

  private:
    void
    activate(Bank &bank, RankState &rank, std::uint64_t row, Tick t)
    {
        Tick act = std::max(t, bank.actReady);
        act = std::max(act, rank.lastAct + params_.tRRD);
        // At most four ACTs per tFAW: wait for the oldest of the last
        // four, then this ACT takes its slot.
        act = std::max(act, rank.fawReady[rank.oldest]);
        rank.fawReady[rank.oldest] = act + params_.tFAW;
        rank.oldest = (rank.oldest + 1) % rank.fawReady.size();
        bank.activate(params_, static_cast<std::int64_t>(row), act);
        rank.lastAct = act;
        ++activates_;
    }

    DramParams params_;
    std::vector<std::vector<Bank>> ranks_;
    std::vector<RankState> rankState_;
    Tick busFree_ = 0;
    Tick lastCompletion_ = 0;
    // Resolved once by the constructor; they stay valid across the
    // group's reset().
    StatCounter rowHits_;
    StatCounter rowConflicts_;
    StatCounter rowMisses_;
    StatCounter readBursts_;
    StatCounter bytesRead_;
    StatCounter writeBursts_;
    StatCounter bytesWritten_;
    StatCounter activates_;
};

} // namespace rime::memsim

#endif // RIME_MEMSIM_CHANNEL_HH
