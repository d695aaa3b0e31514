#include "fast_model.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace rime::rimehw
{

FastRime::FastRime(const RimeGeometry &geometry,
                   const RimeTimingParams &timing)
    : geometry_(geometry), timing_(timing), stats_("rimechip"),
      endurance_(512)
{
    rowWrites_ = stats_.counter("rowWrites");
    rowReads_ = stats_.counter("rowReads");
    rangeInits_ = stats_.counter("rangeInits");
    exclusions_ = stats_.counter("exclusions");
    extractions_ = stats_.counter("extractions");
    scanSteps_ = stats_.counter("scanSteps");
    columnSearches_ = stats_.counter("columnSearches");
    energyPJ_ = stats_.counter("energyPJ");
    busyTicks_ = stats_.counter("busyTicks");
    configure(32, KeyMode::UnsignedFixed);
}

void
FastRime::configure(unsigned k, KeyMode mode)
{
    if (k == 0 || k > 64 || geometry_.arrayCols % k != 0)
        fatal("unsupported word width %u for %u-column arrays",
              k, geometry_.arrayCols);
    k_ = k;
    mode_ = mode;
    ops_.clear();
    lastOp_ = nullptr;
}

std::uint64_t
FastRime::valueCapacity() const
{
    return std::uint64_t(geometry_.banksPerChip) *
        geometry_.subbanksPerBank * geometry_.slotsPerRow(k_) *
        geometry_.arrayRows;
}

std::uint64_t
FastRime::encoded(std::uint64_t index) const
{
    const std::uint64_t raw =
        index < values_.size() ? values_[index] : 0;
    return encodeKey(raw, k_, mode_);
}

Tick
FastRime::writeValue(std::uint64_t index, std::uint64_t raw)
{
    writeValues(index, &raw, 1, 1);
    return timing_.tWrite;
}

void
FastRime::writeValues(std::uint64_t index, const std::uint64_t *src,
                      std::uint64_t count, std::size_t stride)
{
    if (count == 0)
        return;
    if (index >= valueCapacity() || count > valueCapacity() - index)
        fatal("value index %llu beyond chip capacity",
              static_cast<unsigned long long>(index + count - 1));
    // Only a built operation must see each store as it lands; an
    // unbuilt one sorts whatever the run leaves behind.
    bool live = false;
    for (const auto &kv : ops_)
        live |= kv.second.built && kv.first.first < index + count &&
            index < kv.first.second;
    if (index + count > values_.size())
        values_.resize(index + count, 0);
    const std::uint64_t mask =
        k_ >= 64 ? ~0ULL : ((1ULL << k_) - 1);
    std::uint64_t *dst = values_.data() + index;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t raw = src[i * stride] & mask;
        if (live) {
            const std::uint64_t old_encoded = encodeKey(dst[i], k_, mode_);
            dst[i] = raw;
            applyLiveWrite(index + i, old_encoded,
                           encodeKey(raw, k_, mode_));
        } else {
            dst[i] = raw;
        }
    }
    rowWrites_ += static_cast<double>(count);
    energyPJ_.incRepeated(timing_.writeEnergy, count);
    const std::uint64_t bytes = (k_ + 7) / 8;
    endurance_.recordRun(index * bytes, bytes, count);
}

std::uint64_t
FastRime::readValue(std::uint64_t index)
{
    ++rowReads_;
    energyPJ_ += timing_.readEnergy;
    return index < values_.size() ? values_[index] : 0;
}

std::uint64_t
FastRime::peekValue(std::uint64_t index)
{
    return index < values_.size() ? values_[index] : 0;
}

void
FastRime::pokeValue(std::uint64_t index, std::uint64_t raw)
{
    if (index >= valueCapacity())
        fatal("value index %llu beyond chip capacity",
              static_cast<unsigned long long>(index));
    if (index >= values_.size())
        values_.resize(index + 1, 0);
    const std::uint64_t mask =
        k_ >= 64 ? ~0ULL : ((1ULL << k_) - 1);
    values_[index] = raw & mask;
}

void
FastRime::applyLiveWrite(std::uint64_t index,
                         std::uint64_t old_encoded,
                         std::uint64_t new_encoded)
{
    for (auto &kv : ops_) {
        const std::uint64_t begin = kv.first.first;
        const std::uint64_t end = kv.first.second;
        OpState &state = kv.second;
        if (index < begin || index >= end || !state.built)
            continue;
        if (state.excluded[index - begin]) {
            // The row's exclusion latch is set: the new value stays
            // invisible to this operation until the next rime_init.
            continue;
        }
        // Retire the value the operation knew at this row.
        const Entry old_entry{old_encoded, index};
        if (auto it = state.overlay.find(old_entry);
            it != state.overlay.end()) {
            state.overlay.erase(it);
        } else {
            const auto pos = std::lower_bound(state.order.begin(),
                                              state.order.end(),
                                              old_entry);
            if (pos == state.order.end() || *pos != old_entry)
                panic("live write: stale entry not found");
            state.taken[static_cast<std::size_t>(
                pos - state.order.begin())] = 1;
        }
        state.overlay.insert(Entry{new_encoded, index});
    }
}

void
FastRime::invalidateOverlapping(std::uint64_t begin, std::uint64_t end)
{
    lastOp_ = nullptr;
    for (auto it = ops_.begin(); it != ops_.end();) {
        const bool overlaps =
            it->first.first < end && begin < it->first.second;
        it = overlaps ? ops_.erase(it) : std::next(it);
    }
}

Tick
FastRime::initRange(std::uint64_t begin, std::uint64_t end)
{
    if (end > valueCapacity() || begin > end)
        fatal("bad range [%llu, %llu)",
              static_cast<unsigned long long>(begin),
              static_cast<unsigned long long>(end));
    invalidateOverlapping(begin, end);
    ops_.emplace(RangeKey{begin, end}, OpState{});
    ++rangeInits_;
    energyPJ_ += timing_.stepEnergy() * 0.1;
    return timing_.stepTime();
}

FastRime::OpState &
FastRime::op(std::uint64_t begin, std::uint64_t end)
{
    const RangeKey key{begin, end};
    if (lastOp_ && lastKey_ == key)
        return *lastOp_;
    auto it = ops_.find(key);
    if (it == ops_.end())
        it = ops_.emplace(key, OpState{}).first;
    if (!it->second.built)
        buildOrder(key, it->second);
    lastKey_ = key;
    lastOp_ = &it->second;
    return it->second;
}

void
FastRime::buildOrder(const RangeKey &key, OpState &state)
{
    const std::uint64_t n = key.second - key.first;
    state.order.clear();
    state.order.reserve(n);
    for (std::uint64_t i = key.first; i < key.second; ++i)
        state.order.emplace_back(encoded(i), i);
    std::sort(state.order.begin(), state.order.end());
    state.taken.assign(state.order.size(), 0);
    state.excluded.assign(n, 0);
    state.overlay.clear();
    state.lo = 0;
    state.hi = state.order.size();
    state.remaining = n;
    state.activeUnits = 0;
    if (n > 0) {
        const std::uint64_t rows = geometry_.arrayRows;
        state.activeUnits =
            (key.second - 1) / rows - key.first / rows + 1;
    }
    state.built = true;
}

std::uint64_t
FastRime::remainingInRange(std::uint64_t begin, std::uint64_t end)
{
    if (begin >= end)
        return 0;
    return op(begin, end).remaining;
}

void
FastRime::exclude(std::uint64_t begin, std::uint64_t end,
                  std::uint64_t index)
{
    if (index < begin || index >= end)
        fatal("exclude index outside the range");
    OpState &state = op(begin, end);
    if (state.excluded[index - begin])
        return;
    // A min extraction's winner is the first untaken vector entry and
    // a max extraction's sits at the tail, so exclusion of the value
    // just scanned -- the overwhelmingly common call -- resolves at
    // the window ends without re-encoding the value or binary
    // searching.  Matching the index alone is sound: an untaken
    // vector entry is necessarily the live copy (overwriting a value
    // marks its vector entry taken before the replacement enters the
    // overlay), so its encoded key already matches.
    bool retired = false;
    if (state.lo < state.hi) {
        if (!state.taken[state.lo] &&
            state.order[state.lo].second == index) {
            state.taken[state.lo] = 1;
            retired = true;
        } else if (!state.taken[state.hi - 1] &&
                   state.order[state.hi - 1].second == index) {
            state.taken[state.hi - 1] = 1;
            retired = true;
        }
    }
    if (!retired) {
        const Entry entry{encoded(index), index};
        if (auto it = state.overlay.find(entry);
            it != state.overlay.end()) {
            state.overlay.erase(it);
        } else {
            const auto pos = std::lower_bound(state.order.begin(),
                                              state.order.end(),
                                              entry);
            if (pos == state.order.end() || *pos != entry)
                panic("exclude: entry not found");
            state.taken[static_cast<std::size_t>(
                pos - state.order.begin())] = 1;
        }
    }
    state.excluded[index - begin] = 1;
    --state.remaining;
    ++exclusions_;
}

bool
FastRime::isExcluded(std::uint64_t begin, std::uint64_t end,
                     std::uint64_t index)
{
    if (index < begin || index >= end)
        fatal("index outside the range");
    return op(begin, end).excluded[index - begin] != 0;
}

ExtractResult
FastRime::scanResult(OpState &state, const Entry &winner,
                     unsigned steps)
{
    if (!timing_.earlyTermination)
        steps = k_; // ablation: no survivor-count tree
    ExtractResult result;
    result.found = true;
    result.index = winner.second;
    // decodeKey is the exact inverse of the encoding the entry was
    // built with, so this equals values_[index] (masked) without the
    // random read into the value array.
    result.raw = decodeKey(winner.first, k_, mode_);
    result.steps = steps;
    result.time = steps * timing_.stepTime() + timing_.tRead;
    ++extractions_;
    scanSteps_ += steps;
    ++rowReads_;
    columnSearches_ += static_cast<double>(steps) *
        static_cast<double>(state.activeUnits);
    energyPJ_ += steps * timing_.stepEnergy() + timing_.readEnergy;
    busyTicks_ += static_cast<double>(result.time);
    return result;
}

ExtractResult
FastRime::scan(std::uint64_t begin, std::uint64_t end, bool find_max)
{
    if (begin >= end)
        return {};
    OpState &state = op(begin, end);
    if (state.remaining == 0)
        return {};

    if (!find_max) {
        while (state.lo < state.hi && state.taken[state.lo])
            ++state.lo;
        const bool have_vec = state.lo < state.hi;
        const bool have_ovl = !state.overlay.empty();
        const Entry vec_head = have_vec ? state.order[state.lo]
                                        : Entry{~0ULL, ~0ULL};
        const Entry ovl_head = have_ovl ? *state.overlay.begin()
                                        : Entry{~0ULL, ~0ULL};
        const bool from_vec = have_vec &&
            (!have_ovl || vec_head < ovl_head);
        const Entry winner = from_vec ? vec_head : ovl_head;

        unsigned steps = 0;
        if (state.remaining > 1) {
            // Runner-up: the other structure's head, or the winning
            // structure's second entry, whichever is smaller.
            Entry runner{~0ULL, ~0ULL};
            if (from_vec) {
                std::size_t second = state.lo + 1;
                while (second < state.hi && state.taken[second])
                    ++second;
                if (second < state.hi)
                    runner = state.order[second];
                if (have_ovl && ovl_head < runner)
                    runner = ovl_head;
            } else {
                auto it = std::next(state.overlay.begin());
                if (it != state.overlay.end())
                    runner = *it;
                if (have_vec && vec_head < runner)
                    runner = vec_head;
            }
            const unsigned lcp =
                commonPrefixLength(winner.first, runner.first, k_);
            steps = std::min(k_, lcp + 1);
        }
        return scanResult(state, winner, steps);
    }

    // ---- Max extraction.  Survivors of a full scan are all values
    // equal to the maximum; the priority encoder picks the lowest
    // address: the first untaken member of the top tie run across
    // both structures.
    while (state.hi > state.lo && state.taken[state.hi - 1])
        --state.hi;
    const bool have_vec = state.hi > state.lo;
    const bool have_ovl = !state.overlay.empty();
    const std::uint64_t vec_max =
        have_vec ? state.order[state.hi - 1].first : 0;
    const std::uint64_t ovl_max =
        have_ovl ? state.overlay.rbegin()->first : 0;
    const std::uint64_t emax = std::max(have_vec ? vec_max : 0,
                                        have_ovl ? ovl_max : 0);

    // Lowest-index tie member and tie count in the vector.
    bool vec_winner_valid = false;
    std::size_t vec_winner_pos = 0;
    std::size_t tie_count = 0;
    if (have_vec && vec_max == emax) {
        std::size_t run_begin = state.hi - 1;
        while (run_begin > state.lo &&
               state.order[run_begin - 1].first == emax) {
            --run_begin;
        }
        for (std::size_t p = run_begin; p < state.hi; ++p) {
            if (!state.taken[p]) {
                if (!vec_winner_valid) {
                    vec_winner_valid = true;
                    vec_winner_pos = p;
                }
                ++tie_count;
            }
        }
    }
    // Lowest-index tie member in the overlay.
    auto ovl_it = state.overlay.end();
    if (have_ovl && ovl_max == emax) {
        ovl_it = state.overlay.lower_bound(Entry{emax, 0});
        tie_count += static_cast<std::size_t>(
            std::distance(ovl_it, state.overlay.end()));
    }

    const bool from_vec = vec_winner_valid &&
        (ovl_it == state.overlay.end() ||
         state.order[vec_winner_pos].second < ovl_it->second);
    const Entry winner = from_vec ? state.order[vec_winner_pos]
                                  : *ovl_it;

    unsigned steps = 0;
    if (state.remaining > 1)
        steps = tie_count > 1 ? k_ : k_; // provisional; refined below
    if (state.remaining > 1 && tie_count <= 1) {
        // Unique maximum: the runner-up is the largest remaining
        // value below emax in either structure.
        std::uint64_t runner_enc = 0;
        bool found_runner = false;
        if (have_vec) {
            // Last untaken vector entry with key < emax.
            auto pos = std::lower_bound(
                state.order.begin() + state.lo,
                state.order.begin() + state.hi, Entry{emax, 0});
            while (pos != state.order.begin() + state.lo) {
                --pos;
                const std::size_t p = static_cast<std::size_t>(
                    pos - state.order.begin());
                if (!state.taken[p]) {
                    runner_enc = pos->first;
                    found_runner = true;
                    break;
                }
            }
        }
        if (have_ovl) {
            auto below = state.overlay.lower_bound(Entry{emax, 0});
            if (below != state.overlay.begin()) {
                const std::uint64_t cand = std::prev(below)->first;
                if (!found_runner || cand > runner_enc) {
                    runner_enc = cand;
                    found_runner = true;
                }
            }
        }
        if (found_runner) {
            const unsigned lcp =
                commonPrefixLength(emax, runner_enc, k_);
            steps = std::min(k_, lcp + 1);
        } else {
            panic("max extraction: remaining > 1 but no runner-up");
        }
    }
    if (state.remaining == 1)
        steps = 0;

    return scanResult(state, winner, steps);
}

} // namespace rime::rimehw
