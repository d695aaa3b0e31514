/**
 * @file
 * A small named-counter statistics registry, loosely modelled on gem5's
 * stats package.  Components register counters under a hierarchical name
 * and the harness dumps them uniformly.
 *
 * Beyond scalars, a StatGroup can hold log2-bucketed histograms
 * (per-extraction latency, repair-event batch sizes, survivor
 * distributions).  All recording happens on the controller thread of a
 * simulation, so stat content is deterministic for any RIME_THREADS
 * value; wall-clock measurements use the reserved "*WallNs" name
 * suffix, which deterministic dumps (StatRegistry::dumpJson) exclude.
 *
 * The serving layer adds a second reserved suffix, "*Host": values
 * that are deterministic functions of nothing but host scheduling
 * (queue depths, submission batch coalescing, reject counts under
 * client-thread races).  Both suffixes are excluded from the
 * deterministic dump; "*WallNs" additionally marks the value as being
 * in wall-clock nanoseconds.
 */

#ifndef RIME_COMMON_STATS_HH
#define RIME_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>

namespace rime
{

/** True for stat names carrying host wall-clock time ("*WallNs"). */
bool isWallClockStat(const std::string &stat);

/**
 * True for stat names whose value depends on host thread scheduling
 * ("*WallNs" or "*Host"): excluded from deterministic dumps.
 */
bool isHostDependentStat(const std::string &stat);

/**
 * A log2-bucketed distribution: bucket 0 holds values below 1, bucket
 * b >= 1 holds [2^(b-1), 2^b).  Exact count/sum/min/max ride along.
 * Designed for non-negative quantities (latencies, counts, energies).
 */
class StatHistogram
{
  public:
    void record(double value, std::uint64_t weight = 1);

    /** Merge another histogram's samples into this one. */
    void merge(const StatHistogram &other);

    /** Forget all samples. */
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    /** Smallest recorded value (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }
    /** Largest recorded value (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /** Occupied buckets: bucket index -> sample count. */
    const std::map<int, std::uint64_t> &buckets() const
    { return buckets_; }

    /** Bucket index holding `value`. */
    static int bucketOf(double value);

    /** [lo, hi) value range of bucket `b`. */
    static std::pair<double, double> bucketBounds(int b);

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::map<int, std::uint64_t> buckets_;
};

/**
 * A cached handle to one StatGroup counter, resolved once (one map
 * lookup) and incremented with a plain add afterwards -- the hot-path
 * alternative to StatGroup::inc's per-event string lookup.  The handle
 * points into the group's counter map (std::map nodes are stable), so
 * it stays valid across further insertions, reset() and merge(); only
 * destroying the group invalidates it.
 */
class StatCounter
{
  public:
    StatCounter() = default;

    void inc(double delta = 1.0) { *value_ += delta; }

    /**
     * `times` calls of inc(delta), bit for bit: a bulk store's
     * per-write energy.  When the value and delta are multiples of
     * 2^-q and |value| + times * |delta| < 2^(53-q), every partial
     * sum is representable, so one multiply-add equals the loop;
     * otherwise the adds run in a register loop.
     */
    void incRepeated(double delta, std::uint64_t times);

    StatCounter &
    operator++()
    {
        *value_ += 1.0;
        return *this;
    }

    StatCounter &
    operator+=(double delta)
    {
        *value_ += delta;
        return *this;
    }

    double value() const { return *value_; }

  private:
    friend class StatGroup;
    explicit StatCounter(double *value) : value_(value) {}

    double *value_ = nullptr;
};

/** A group of named scalar and histogram statistics. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    /** Add delta to the named counter (creating it at zero). */
    void
    inc(const std::string &stat, double delta = 1.0)
    {
        values_[stat] += delta;
    }

    /**
     * Resolve a cached handle to the named counter, creating it at
     * zero.  Increments through the handle are indistinguishable from
     * inc() calls on the same name; resolving eagerly means the
     * counter appears in dumps (at 0) even before its first event.
     */
    StatCounter
    counter(const std::string &stat)
    {
        return StatCounter(&values_[stat]);
    }

    /** Overwrite the named value. */
    void
    set(const std::string &stat, double value)
    {
        values_[stat] = value;
    }

    /** Read a value; returns 0 for unknown names. */
    double
    get(const std::string &stat) const
    {
        auto it = values_.find(stat);
        return it == values_.end() ? 0.0 : it->second;
    }

    /** True if the named stat has ever been written. */
    bool
    has(const std::string &stat) const
    {
        return values_.count(stat) != 0;
    }

    /** The named histogram (created empty on first use). */
    StatHistogram &
    hist(const std::string &stat)
    {
        return hists_[stat];
    }

    /** True if the named histogram exists. */
    bool
    hasHist(const std::string &stat) const
    {
        return hists_.count(stat) != 0;
    }

    const std::map<std::string, StatHistogram> &histograms() const
    { return hists_; }

    /** Reset all counters to zero and all histograms to empty. */
    void
    reset()
    {
        for (auto &kv : values_)
            kv.second = 0.0;
        for (auto &kv : hists_)
            kv.second.reset();
    }

    /** Merge another group's counters and histograms into this one. */
    void
    merge(const StatGroup &other)
    {
        for (const auto &kv : other.values_)
            values_[kv.first] += kv.second;
        for (const auto &kv : other.hists_)
            hists_[kv.first].merge(kv.second);
    }

    const std::string &name() const { return name_; }
    const std::map<std::string, double> &values() const { return values_; }

    /**
     * Write "group.stat value" lines (histograms as count/mean/min/max
     * plus occupied buckets).  The caller's stream formatting state is
     * preserved.
     */
    void dump(std::ostream &os) const;

  private:
    std::string name_;
    std::map<std::string, double> values_;
    std::map<std::string, StatHistogram> hists_;
};

} // namespace rime

#endif // RIME_COMMON_STATS_HH
