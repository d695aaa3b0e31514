#include "stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>

namespace rime
{

namespace
{

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
        s.compare(s.size() - suffix.size(), suffix.size(),
                  suffix) == 0;
}

/** Exponent of the lowest set bit of a finite nonzero double. */
int
lowBitExponent(double x)
{
    const auto b = std::bit_cast<std::uint64_t>(x);
    const int biased = static_cast<int>((b >> 52) & 0x7FF);
    std::uint64_t frac = b & ((1ULL << 52) - 1);
    if (biased != 0)
        frac |= 1ULL << 52;
    return std::max(biased, 1) - 1075 + std::countr_zero(frac);
}

/**
 * True when v + i * delta is representable for every i <= times:
 * each add of the loop is then exact, and so is v + times * delta.
 */
bool
repeatedSumIsExact(double v, double delta, std::uint64_t times)
{
    if (!std::isfinite(v) || !std::isfinite(delta))
        return false;
    if (delta == 0.0)
        return true;
    // On the grid of 2^lsb, sums below 2^(53 + lsb) are representable,
    // and finite while 53 + lsb <= 1024.
    int lsb = lowBitExponent(delta);
    if (v != 0.0)
        lsb = std::min(lsb, lowBitExponent(v));
    if (lsb > 1024 - 53)
        return false;
    constexpr std::uint64_t kLimit = 1ULL << 53;
    const double a = std::ldexp(std::fabs(v), -lsb);
    const double d = std::ldexp(std::fabs(delta), -lsb);
    if (!(a < static_cast<double>(kLimit)) ||
        !(d < static_cast<double>(kLimit)))
        return false;
    const auto ai = static_cast<std::uint64_t>(a);
    const auto di = static_cast<std::uint64_t>(d);
    return times <= (kLimit - 1 - ai) / di;
}

} // namespace

void
StatCounter::incRepeated(double delta, std::uint64_t times)
{
    if (times == 0)
        return;
    double v = *value_;
    if (repeatedSumIsExact(v, delta, times)) {
        *value_ = v + static_cast<double>(times) * delta;
        return;
    }
    for (std::uint64_t i = 0; i < times; ++i)
        v += delta;
    *value_ = v;
}

bool
isWallClockStat(const std::string &stat)
{
    return endsWith(stat, "WallNs");
}

bool
isHostDependentStat(const std::string &stat)
{
    return isWallClockStat(stat) || endsWith(stat, "Host");
}

int
StatHistogram::bucketOf(double value)
{
    if (!(value >= 1.0))
        return 0;
    // ilogb is exact on the binary exponent, so bucket boundaries are
    // deterministic (no log() rounding at powers of two).
    return std::ilogb(value) + 1;
}

std::pair<double, double>
StatHistogram::bucketBounds(int b)
{
    if (b <= 0)
        return {0.0, 1.0};
    return {std::ldexp(1.0, b - 1), std::ldexp(1.0, b)};
}

void
StatHistogram::record(double value, std::uint64_t weight)
{
    if (weight == 0)
        return;
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    count_ += weight;
    sum_ += value * static_cast<double>(weight);
    buckets_[bucketOf(value)] += weight;
}

void
StatHistogram::merge(const StatHistogram &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    for (const auto &kv : other.buckets_)
        buckets_[kv.first] += kv.second;
}

void
StatHistogram::reset()
{
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
    buckets_.clear();
}

void
StatGroup::dump(std::ostream &os) const
{
    // setprecision would otherwise leak into the caller's stream.
    const std::ios_base::fmtflags flags = os.flags();
    const std::streamsize precision = os.precision();
    os << std::setprecision(12);
    const std::string prefix = name_.empty() ? "" : name_ + ".";
    for (const auto &kv : values_)
        os << prefix << kv.first << " " << kv.second << "\n";
    for (const auto &kv : hists_) {
        const std::string hp = prefix + kv.first;
        const StatHistogram &h = kv.second;
        os << hp << ".count " << h.count() << "\n";
        if (h.count() == 0)
            continue;
        os << hp << ".mean " << h.mean() << "\n"
           << hp << ".min " << h.min() << "\n"
           << hp << ".max " << h.max() << "\n";
        for (const auto &bucket : h.buckets()) {
            const auto [lo, hi] = StatHistogram::bucketBounds(
                bucket.first);
            os << hp << ".bucket[" << lo << "," << hi << ") "
               << bucket.second << "\n";
        }
    }
    os.flags(flags);
    os.precision(precision);
}

} // namespace rime
