#include "chip.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "rimehw/kernels.hh"

namespace rime::rimehw
{

RimeChip::RimeChip(const RimeGeometry &geometry,
                   const RimeTimingParams &timing,
                   unsigned host_threads,
                   const FaultParams &faults)
    : geometry_(geometry), timing_(timing), faultParams_(faults),
      stats_("rimechip"), endurance_(512)
{
    // Resolve the hot-path counter handles once; hot loops then
    // increment through pointers instead of per-event map lookups.
    rowReads_ = stats_.counter("rowReads");
    rowWrites_ = stats_.counter("rowWrites");
    energyPJ_ = stats_.counter("energyPJ");
    columnSearches_ = stats_.counter("columnSearches");
    scanSteps_ = stats_.counter("scanSteps");
    extractions_ = stats_.counter("extractions");
    exclusions_ = stats_.counter("exclusions");
    busyTicks_ = stats_.counter("busyTicks");
    scanWallNs_ = stats_.counter("scanWallNs");
    if (faultParams_.injecting())
        faults_ = std::make_unique<FaultModel>(faultParams_);
    arrays_.resize(std::size_t(geometry_.banksPerChip) *
                   geometry_.subbanksPerBank);
    setHostThreads(host_threads);
    configure(32, KeyMode::UnsignedFixed);
}

void
RimeChip::setHostThreads(unsigned host_threads)
{
    explicitWidth_ = host_threads != 0;
    threads_ = host_threads ? host_threads
                            : ThreadPool::configuredThreads();
    if (threads_ > 1)
        ThreadPool::global().ensureThreads(threads_);
    shardScratch_.assign(threads_, ShardSignals{});
}

unsigned
RimeChip::shardCount() const
{
    const std::size_t units = activeUnits_.size();
    const std::size_t work_cap = explicitWidth_
        ? units : std::max<std::size_t>(1, units / kUnitsPerShard);
    return static_cast<unsigned>(
        std::min<std::size_t>({threads_, units, work_cap}));
}

unsigned
RimeChip::rowsPerUnit() const
{
    if (!faults_)
        return geometry_.arrayRows;
    const unsigned spares = std::min(faultParams_.spareRowsPerUnit,
                                     geometry_.arrayRows - 1);
    return geometry_.arrayRows - spares;
}

void
RimeChip::configure(unsigned k, KeyMode mode)
{
    if (k == 0 || k > 64 || geometry_.arrayCols % k != 0)
        fatal("unsupported word width %u for %u-column arrays",
              k, geometry_.arrayCols);
    k_ = k;
    mode_ = mode;
    slots_ = geometry_.slotsPerRow(k);
    unitsTotal_ = std::uint64_t(arrays_.size()) * slots_;
    logicalUnits_ = unitsTotal_;
    if (faults_) {
        const std::uint64_t spares = std::min<std::uint64_t>(
            faultParams_.spareUnitsPerChip, unitsTotal_ - 1);
        logicalUnits_ = unitsTotal_ - spares;
    }
    nextSpareUnit_ = logicalUnits_;
    unitRemap_.clear();
    health_.clear();
    deadExtents_.clear();
    remappedRows_ = 0;
    lostValues_ = 0;
    units_.clear();
    units_.resize(arrays_.size());
    activeUnits_.clear();
    rangeBegin_ = rangeEnd_ = 0;
}

std::uint64_t
RimeChip::valueCapacity() const
{
    return logicalUnits_ * rowsPerUnit();
}

ArrayUnit &
RimeChip::unit(std::uint64_t unit_id)
{
    if (unit_id >= unitsTotal_)
        panic("unit id out of range");
    const std::uint64_t array_id = unit_id / slots_;
    const unsigned slot = static_cast<unsigned>(unit_id % slots_);
    auto &array_units = units_[array_id];
    if (!array_units)
        array_units = std::make_unique<std::unique_ptr<ArrayUnit>[]>(slots_);
    std::unique_ptr<ArrayUnit> &u = array_units[slot];
    if (!u) {
        if (!arrays_[array_id]) {
            arrays_[array_id] = std::make_unique<RramArray>(
                geometry_.arrayRows, geometry_.arrayCols);
            if (faults_)
                arrays_[array_id]->attachFaults(faults_.get(),
                                                array_id);
        }
        u = std::make_unique<ArrayUnit>(arrays_[array_id].get(), slot,
                                        k_, faults_ ? rowsPerUnit() : 0);
    }
    return *u;
}

ArrayUnit &
RimeChip::logicalUnit(std::uint64_t logical_id)
{
    if (faults_) {
        auto it = unitRemap_.find(logical_id);
        if (it != unitRemap_.end())
            return unit(it->second);
    }
    return unit(logical_id);
}

void
RimeChip::invalidateActiveUnits()
{
    rangeBegin_ = rangeEnd_ = 0;
    activeUnits_.clear();
}

void
RimeChip::raiseHealth(std::uint64_t logical_unit, UnitHealth to)
{
    auto it = health_.find(logical_unit);
    if (it == health_.end())
        health_.emplace(logical_unit, to);
    else if (static_cast<std::uint8_t>(to) >
             static_cast<std::uint8_t>(it->second))
        it->second = to;
}

void
RimeChip::chargeRead()
{
    ++rowReads_;
    energyPJ_ += timing_.readEnergy;
}

bool
RimeChip::stableRead(const ArrayUnit &au, unsigned phys,
                     std::uint64_t &out)
{
    out = au.readPhysical(phys);
    chargeRead();
    if (!faults_ || faults_->params().readDisturbRate <= 0.0)
        return true;
    // Disturb is transient and epoch-keyed: re-sense in fresh epochs
    // until two consecutive reads agree.
    std::uint64_t prev = out;
    for (unsigned i = 0; i <= faultParams_.readRetries; ++i) {
        faults_->advanceEpoch();
        const std::uint64_t again = au.readPhysical(phys);
        chargeRead();
        if (again == prev) {
            out = again;
            return true;
        }
        prev = again;
    }
    out = prev;
    return false;
}

bool
RimeChip::writeRowRepair(std::uint64_t logical_unit, ArrayUnit &au,
                         unsigned row, std::uint64_t raw,
                         std::uint64_t block_writes, bool charge_first)
{
    unsigned phys = au.physicalRow(row);
    bool first = true;
    unsigned attempts = 0;
    for (;;) {
        if (!first || charge_first) {
            ++rowWrites_;
            energyPJ_ += timing_.writeEnergy;
        }
        first = false;
        ++attempts;
        au.writePhysical(phys, raw, block_writes);
        std::uint64_t got = 0;
        if (stableRead(au, phys, got) && got == raw) {
            // Distribution of write retries per *repaired* write; the
            // clean first-try path records nothing.
            if (attempts > 1)
                stats_.hist("repairWriteRetries").record(attempts - 1);
            if (phys != au.physicalRow(row)) {
                au.installRemap(row, phys);
                ++remappedRows_;
                stats_.inc("faultRowRemaps");
                if (Tracer::global().enabled()) {
                    Tracer::global().instant(
                        "fault", "rowRemap",
                        traceArgs({{"unit", logical_unit},
                                   {"row", row}, {"phys", phys}}));
                }
                raiseHealth(logical_unit, UnitHealth::Degraded);
                invalidateActiveUnits();
            }
            return true;
        }
        stats_.inc("faultWriteErrors");
        if (phys != au.physicalRow(row))
            au.markBadPhysical(phys); // a spare that failed too
        phys = au.allocateSpare();
        if (phys >= au.rows())
            return false;
    }
}

bool
RimeChip::retireUnit(std::uint64_t logical_unit)
{
    if (nextSpareUnit_ >= unitsTotal_) {
        raiseHealth(logical_unit, UnitHealth::Dead);
        deadExtents_.emplace_back(logical_unit * rowsPerUnit(),
                                  (logical_unit + 1) * rowsPerUnit());
        stats_.inc("faultUnitDeaths");
        if (Tracer::global().enabled()) {
            Tracer::global().instant(
                "fault", "unitDead",
                traceArgs({{"unit", logical_unit}}));
        }
        invalidateActiveUnits();
        return false;
    }
    const std::uint64_t spare = nextSpareUnit_++;
    ArrayUnit &from = logicalUnit(logical_unit);
    ArrayUnit &to = unit(spare);
    const unsigned rpu = rowsPerUnit();
    for (unsigned row = 0; row < rpu; ++row) {
        if (from.isLost(row)) {
            to.markLost(row);
            continue;
        }
        std::uint64_t val = 0;
        stableRead(from, from.physicalRow(row), val);
        if (writeRowRepair(logical_unit, to, row, val, 0, true)) {
            if (from.isExcluded(row))
                to.exclude(row);
        } else {
            to.markLost(row);
            ++lostValues_;
            stats_.inc("faultLostValues");
            deadExtents_.emplace_back(
                logical_unit * rpu + row,
                logical_unit * rpu + row + 1);
        }
    }
    unitRemap_[logical_unit] = spare;
    raiseHealth(logical_unit, UnitHealth::Retired);
    stats_.inc("faultUnitRetires");
    if (Tracer::global().enabled()) {
        Tracer::global().instant(
            "fault", "unitRetire",
            traceArgs({{"unit", logical_unit}, {"spare", spare}}));
    }
    invalidateActiveUnits();
    return true;
}

bool
RimeChip::writeVerified(std::uint64_t logical_unit, unsigned row,
                        std::uint64_t raw, std::uint64_t block_writes)
{
    bool first = true;
    for (;;) {
        ArrayUnit &au = logicalUnit(logical_unit);
        // The first physical write was charged by writeValue().
        if (writeRowRepair(logical_unit, au, row, raw, block_writes,
                           !first))
            return true;
        first = false;
        if (!retireUnit(logical_unit))
            return false;
    }
}

void
RimeChip::checkIndices(std::uint64_t index, std::uint64_t count) const
{
    if (index >= valueCapacity() || count > valueCapacity() - index)
        fatal("value index %llu beyond chip capacity",
              static_cast<unsigned long long>(index + count - 1));
}

Tick
RimeChip::writeValue(std::uint64_t index, std::uint64_t raw)
{
    checkIndices(index, 1);
    const std::uint64_t rows = rowsPerUnit();
    const std::uint64_t unit_id = index / rows;
    const unsigned row = static_cast<unsigned>(index % rows);
    ++rowWrites_;
    energyPJ_ += timing_.writeEnergy;
    endurance_.recordWrite(index * ((k_ + 7) / 8), (k_ + 7) / 8);
    if (!faults_) {
        unit(unit_id).writeValue(row, raw);
        return timing_.tWrite;
    }
    const std::uint64_t block_writes =
        endurance_.blockWrites(index * ((k_ + 7) / 8));
    if (writeVerified(unit_id, row, raw, block_writes)) {
        logicalUnit(unit_id).clearLost(row);
    } else {
        ArrayUnit &au = logicalUnit(unit_id);
        if (!au.isLost(row)) {
            au.markLost(row);
            ++lostValues_;
            stats_.inc("faultLostValues");
        }
        invalidateActiveUnits();
    }
    return timing_.tWrite;
}

void
RimeChip::writeValues(std::uint64_t index, const std::uint64_t *src,
                      std::uint64_t count, std::size_t stride)
{
    if (faults_) {
        RankBackend::writeValues(index, src, count, stride);
        return;
    }
    if (count == 0)
        return;
    checkIndices(index, count);
    const std::uint64_t rows = rowsPerUnit();
    for (std::uint64_t done = 0; done < count;) {
        const std::uint64_t at = index + done;
        const unsigned row = static_cast<unsigned>(at % rows);
        const unsigned n = static_cast<unsigned>(
            std::min<std::uint64_t>(rows - row, count - done));
        unit(at / rows).writeValues(row, src + done * stride, n, stride);
        done += n;
    }
    rowWrites_ += static_cast<double>(count);
    energyPJ_.incRepeated(timing_.writeEnergy, count);
    const std::uint64_t bytes = (k_ + 7) / 8;
    endurance_.recordRun(index * bytes, bytes, count);
}

std::uint64_t
RimeChip::readValue(std::uint64_t index)
{
    const std::uint64_t rows = rowsPerUnit();
    const std::uint64_t unit_id = index / rows;
    const unsigned row = static_cast<unsigned>(index % rows);
    if (faults_) {
        ArrayUnit &au = logicalUnit(unit_id);
        std::uint64_t value = 0;
        stableRead(au, au.physicalRow(row), value);
        return value;
    }
    ++rowReads_;
    energyPJ_ += timing_.readEnergy;
    return unit(unit_id).readValue(row);
}

std::uint64_t
RimeChip::peekValue(std::uint64_t index)
{
    const std::uint64_t rows = rowsPerUnit();
    const std::uint64_t unit_id = index / rows;
    const unsigned row = static_cast<unsigned>(index % rows);
    return logicalUnit(unit_id).peekValue(row);
}

void
RimeChip::pokeValue(std::uint64_t index, std::uint64_t raw)
{
    checkIndices(index, 1);
    const std::uint64_t rows = rowsPerUnit();
    const std::uint64_t unit_id = index / rows;
    const unsigned row = static_cast<unsigned>(index % rows);
    logicalUnit(unit_id).pokeValue(row, raw);
}

Tick
RimeChip::initRange(std::uint64_t begin, std::uint64_t end)
{
    TraceSpan span("chip", "initRange");
    span.arg("begin", begin);
    span.arg("end", end);
    if (end > valueCapacity() || begin > end)
        fatal("bad range [%llu, %llu)",
              static_cast<unsigned long long>(begin),
              static_cast<unsigned long long>(end));
    // Reset the exclusion latches of every row in the range; each
    // unit's latches are private, so units clear concurrently.
    selectRange(begin, end);
    ThreadPool::global().forShards(
        activeUnits_.size(), shardCount(),
        [&](std::size_t lo, std::size_t hi, unsigned) {
            for (std::size_t i = lo; i < hi; ++i) {
                const std::uint64_t rows = rowsPerUnit();
                const std::uint64_t unit_base =
                    (activeFirstUnit_ + i) * rows;
                const unsigned begin_row = begin > unit_base
                    ? static_cast<unsigned>(begin - unit_base) : 0;
                const unsigned end_row = end < unit_base + rows
                    ? static_cast<unsigned>(end - unit_base)
                    : static_cast<unsigned>(rows);
                activeUnits_[i]->clearExclusions(begin_row, end_row);
            }
        });
    stats_.inc("rangeInits");
    // Select-vector initialization propagates begin/end down the
    // H-tree and latches the per-row select bits: one tree traversal.
    energyPJ_ += timing_.stepEnergy() * 0.1;
    return timing_.stepTime();
}

void
RimeChip::selectRange(std::uint64_t begin, std::uint64_t end)
{
    if (begin == rangeBegin_ && end == rangeEnd_ &&
        !activeUnits_.empty())
        return;
    rangeBegin_ = begin;
    rangeEnd_ = end;
    activeUnits_.clear();
    if (begin >= end)
        return;
    const std::uint64_t rows = rowsPerUnit();
    const std::uint64_t first_unit = begin / rows;
    const std::uint64_t last_unit = (end - 1) / rows;
    activeFirstUnit_ = first_unit;
    for (std::uint64_t u = first_unit; u <= last_unit; ++u) {
        ArrayUnit &au = logicalUnit(u);
        const std::uint64_t unit_base = u * rows;
        const unsigned begin_row = begin > unit_base
            ? static_cast<unsigned>(begin - unit_base) : 0;
        const unsigned end_row = end < unit_base + rows
            ? static_cast<unsigned>(end - unit_base)
            : static_cast<unsigned>(rows);
        au.setRange(begin_row, end_row);
        activeUnits_.push_back(&au);
    }
}

std::uint64_t
RimeChip::loadSelectLatches()
{
    return parallelReduce(
        ThreadPool::global(), activeUnits_.size(), shardCount(),
        std::uint64_t(0),
        [&](std::size_t lo, std::size_t hi, unsigned) {
            std::uint64_t count = 0;
            for (std::size_t i = lo; i < hi; ++i)
                count += activeUnits_[i]->beginExtraction();
            return count;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

std::uint64_t
RimeChip::remainingInRange(std::uint64_t begin, std::uint64_t end)
{
    selectRange(begin, end);
    return loadSelectLatches();
}

void
RimeChip::exclude(std::uint64_t begin, std::uint64_t end,
                  std::uint64_t index)
{
    if (index < begin || index >= end)
        fatal("exclude index outside the range");
    const std::uint64_t rows = rowsPerUnit();
    const std::uint64_t unit_id = index / rows;
    const unsigned row = static_cast<unsigned>(index % rows);
    logicalUnit(unit_id).exclude(row);
    ++exclusions_;
}

bool
RimeChip::isExcluded(std::uint64_t begin, std::uint64_t end,
                     std::uint64_t index)
{
    if (index < begin || index >= end)
        fatal("index outside the range");
    const std::uint64_t rows = rowsPerUnit();
    const std::uint64_t unit_id = index / rows;
    const unsigned row = static_cast<unsigned>(index % rows);
    return logicalUnit(unit_id).isExcluded(row);
}

RimeChip::ScanAttempt
RimeChip::runScanSteps(bool find_max, std::uint64_t survivors)
{
    ScanAttempt att;
    // Bit-serial scan, MSB first.  Each step performs a column search
    // in every active unit *concurrently* (all mats of a chip search
    // in lockstep, Figure 11): the units are partitioned into
    // contiguous shards, each shard probes/commits on its own worker,
    // and the controller merges the per-shard (anyMatch, anyMismatch,
    // survivors) partials in shard order -- an order-preserving
    // reduction, so the outcome is bit-identical for any thread
    // count.  The global exclusion decision is then broadcast back.
    ThreadPool &pool = ThreadPool::global();
    Tracer &tracer = Tracer::global();
    const unsigned shards = shardCount();
    // The one recorded-vs-fused decision of the scan path.  The
    // fused scan (no fault model, SIMD dispatched) probes with pure
    // signal reductions and commits by recomputing the match from
    // the stored column, so probing can stop the moment a shard's
    // wired-OR signals both saturate -- further probes only OR in
    // more -- which skips most of the probe pass on split-heavy
    // steps.  The recorded scan keeps each unit's match vector: read
    // disturb makes the match unrecomputable, and its commit consumes
    // every probe's output, so it cannot early-exit.  RIME_SIMD=0
    // keeps the recorded scan, so the scalar/SIMD A/B also compares
    // the two scans.
    const bool record = faults_ || !kernels::simdEnabled();
    bool negatives_present = false;
    if (survivors > 1 || !timing_.earlyTermination) {
        for (unsigned s = 0; s < k_; ++s) {
            const unsigned pos = k_ - 1 - s;
            const bool search_bit = searchPolarity(
                pos, k_, mode_, negatives_present, find_max);
            bool any_match = false;
            bool any_mismatch = false;
            {
                // Probe phase: per-shard wired-OR of the match
                // signals.
                TraceSpan probe_span(tracer, "chip", "probe");
                pool.forShards(
                    activeUnits_.size(), shards,
                    [&](std::size_t lo, std::size_t hi,
                        unsigned shard) {
                        bool m = false, mm = false;
                        for (std::size_t i = lo; i < hi; ++i) {
                            const auto probe = activeUnits_[i]->probe(
                                s, search_bit, record);
                            m = m || probe.anyMatch;
                            mm = mm || probe.anyMismatch;
                            if (!record && m && mm)
                                break;
                        }
                        shardScratch_[shard].anyMatch = m;
                        shardScratch_[shard].anyMismatch = mm;
                    });
                for (unsigned shard = 0; shard < shards; ++shard) {
                    any_match =
                        any_match || shardScratch_[shard].anyMatch;
                    any_mismatch =
                        any_mismatch || shardScratch_[shard].anyMismatch;
                }
                probe_span.arg("step", s);
                probe_span.arg("searchBit", search_bit);
                probe_span.arg("anyMatch", any_match);
                probe_span.arg("anyMismatch", any_mismatch);
            }
            const bool exclude = any_match && any_mismatch;
            if (exclude) {
                // Commit phase: broadcast the decision, re-count
                // survivors through the index tree.
                TraceSpan commit_span(tracer, "chip", "commit");
                pool.forShards(
                    activeUnits_.size(), shards,
                    [&](std::size_t lo, std::size_t hi,
                        unsigned shard) {
                        std::uint64_t n = 0;
                        for (std::size_t i = lo; i < hi; ++i)
                            n += activeUnits_[i]->commitAndCount(
                                s, search_bit, record);
                        shardScratch_[shard].survivors = n;
                    });
                survivors = 0;
                for (unsigned shard = 0; shard < shards; ++shard)
                    survivors += shardScratch_[shard].survivors;
                commit_span.arg("step", s);
                commit_span.arg("survivors", survivors);
                // Survivor-set narrowing distribution, one sample per
                // excluding step (deterministic for any thread count).
                stats_.hist("scanSurvivors").record(
                    static_cast<double>(survivors));
            }
            // No exclusion: the select latches -- and therefore the
            // survivor count -- are unchanged; skip the commit pass.
            //
            // Every survivor of this step carries the same bit at this
            // position.  Rows matching the search bit are the
            // exclusion candidates, so the survivors carry its
            // complement -- unless nothing mismatched and the whole
            // select set carries the search bit itself.  Recording
            // this trajectory lets the controller verify the winner's
            // read-back.
            if (any_mismatch != search_bit)
                att.trajectory |= 1ULL << s;
            ++att.steps;
            if (pos == k_ - 1) {
                // Sign-step outcome tells the controller whether the
                // survivors are negative (drives later polarity).
                negatives_present =
                    find_max ? !any_mismatch : any_mismatch;
            }
            if (survivors <= 1 && timing_.earlyTermination)
                break;
        }
    }

    // One batched add per walk: every step searched one column in
    // every active unit, and k adds of `size` equal one add of
    // `k*size` exactly in double (integer counts), so the dumped
    // totals are unchanged.
    columnSearches_ += static_cast<double>(att.steps) *
        static_cast<double>(activeUnits_.size());

    // Priority-encode the winner: lowest unit, then lowest row.
    for (std::size_t i = 0; i < activeUnits_.size(); ++i) {
        ArrayUnit *au = activeUnits_[i];
        const unsigned row = au->firstSurvivor();
        if (row >= au->rows())
            continue;
        att.found = true;
        att.unitPos = i;
        att.physRow = row;
        return att;
    }
    return att;
}

ExtractResult
RimeChip::scan(std::uint64_t begin, std::uint64_t end, bool find_max)
{
    TraceSpan span("chip", "scan");
    const auto host_start = std::chrono::steady_clock::now();
    const ExtractResult result = scanImpl(begin, end, find_max);
    const auto host_end = std::chrono::steady_clock::now();
    // Host-side wall time: excluded from deterministic JSON stat
    // dumps by the *WallNs naming convention (see isWallClockStat).
    scanWallNs_ += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            host_end - host_start).count());
    if (result.found) {
        stats_.hist("scanStepsPerExtract")
            .record(static_cast<double>(result.steps));
        stats_.hist("scanLatencyTicks")
            .record(static_cast<double>(result.time));
    }
    span.arg("begin", begin);
    span.arg("end", end);
    span.arg("findMax", find_max);
    span.arg("found", result.found);
    span.arg("steps", result.steps);
    span.arg("status", static_cast<unsigned>(result.status));
    return result;
}

ExtractResult
RimeChip::scanImpl(std::uint64_t begin, std::uint64_t end, bool find_max)
{
    selectRange(begin, end);
    ExtractResult result;
    if (activeUnits_.empty())
        return result;

    if (faults_) {
        // A lost value inside the range poisons the extraction: the
        // true minimum may be the value we could not preserve, so
        // refuse explicitly instead of silently skipping it.
        const std::uint64_t rows = rowsPerUnit();
        for (std::size_t i = 0; i < activeUnits_.size(); ++i) {
            const std::uint64_t unit_base =
                (activeFirstUnit_ + i) * rows;
            const unsigned begin_row = begin > unit_base
                ? static_cast<unsigned>(begin - unit_base) : 0;
            const unsigned end_row = end < unit_base + rows
                ? static_cast<unsigned>(end - unit_base)
                : static_cast<unsigned>(rows);
            if (activeUnits_[i]->lostUnexcluded(begin_row, end_row)) {
                result.status = ScanStatus::DataLoss;
                return result;
            }
        }
    }

    // Load select latches: range minus previously extracted rows, and
    // obtain the initial survivor count from the index tree.
    std::uint64_t survivors = loadSelectLatches();
    if (survivors == 0)
        return result;

    if (!faults_) {
        const ScanAttempt att = runScanSteps(find_max, survivors);
        if (!att.found)
            panic("survivor count positive but no survivor found");
        ArrayUnit *au = activeUnits_[att.unitPos];
        result.found = true;
        result.raw = au->readPhysical(att.physRow);
        result.index = (activeFirstUnit_ + att.unitPos) *
            geometry_.arrayRows + att.physRow;
        result.steps = att.steps;
        result.time = att.steps * timing_.stepTime() + timing_.tRead;
        ++extractions_;
        scanSteps_ += att.steps;
        ++rowReads_;
        energyPJ_ += att.steps * timing_.stepEnergy() +
            timing_.readEnergy;
        busyTicks_ += static_cast<double>(result.time);
        return result;
    }

    // Faulty chip: verify and (under read disturb) confirm.
    //
    // Stuck-at and worn-out cells are caught by write-verify, so a
    // successfully stored value always senses correctly -- on such a
    // chip the scan below runs once, verifies, and is exact.  Read
    // disturb is transient and epoch-keyed, so every scan anomaly it
    // causes is non-repeatable: the winner's read-back must match the
    // bit trajectory the scan observed (catches a disturbed winner),
    // and when disturb is enabled two consecutive scans in different
    // epochs must agree on the same winner (catches a disturbed
    // *loser*, e.g. the true minimum knocked out of the survivor
    // set).  Verified-correct item or explicit error; never silent.
    const std::uint64_t rows = rowsPerUnit();
    const bool confirm = faults_->params().readDisturbRate > 0.0;
    // Confirmation consumes a second scan, so it needs two attempts
    // even with retries configured off.
    const unsigned attempts =
        std::max(faultParams_.scanRetries + 1, confirm ? 2u : 1u);
    bool have_prev = false;
    std::size_t prev_pos = 0;
    unsigned prev_phys = 0;
    std::uint64_t prev_raw = 0;
    unsigned total_steps = 0;

    const auto finish = [&](std::size_t pos, unsigned phys,
                            std::uint64_t raw) {
        ArrayUnit *au = activeUnits_[pos];
        result.found = true;
        result.raw = raw;
        result.index = (activeFirstUnit_ + pos) * rows +
            au->logicalRow(phys);
        result.steps = total_steps;
        result.time = total_steps * timing_.stepTime() + timing_.tRead;
        result.status = ScanStatus::Ok;
        ++extractions_;
        scanSteps_ += total_steps;
        energyPJ_ += total_steps * timing_.stepEnergy();
        busyTicks_ += static_cast<double>(result.time);
        return result;
    };

    for (unsigned attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            // Re-arm the select latches (the previous walk consumed
            // them); exclusion latches are untouched, so the reload
            // restores the full candidate set.
            survivors = loadSelectLatches();
            stats_.inc("faultRescans");
        }
        const ScanAttempt att = runScanSteps(find_max, survivors);
        total_steps += att.steps;
        if (!att.found)
            panic("survivor count positive but no survivor found");

        ArrayUnit *au = activeUnits_[att.unitPos];
        std::uint64_t got = 0;
        bool ok = stableRead(*au, att.physRow, got);
        if (ok) {
            for (unsigned s = 0; s < att.steps; ++s) {
                const bool traj = (att.trajectory >> s) & 1ULL;
                const bool bit = (got >> (k_ - 1 - s)) & 1ULL;
                if (bit != traj) {
                    ok = false;
                    break;
                }
            }
        }
        if (!ok) {
            // Transient: a disturbed winner read-back or scan walk.
            // A fresh epoch re-senses everything.
            stats_.inc("faultVerifyMismatches");
            have_prev = false;
            faults_->advanceEpoch();
            continue;
        }
        if (!confirm)
            return finish(att.unitPos, att.physRow, got);
        if (have_prev && prev_pos == att.unitPos &&
            prev_phys == att.physRow && prev_raw == got) {
            return finish(att.unitPos, att.physRow, got);
        }
        // First verified sighting (or disagreement with the previous
        // one): require the next epoch's scan to reproduce it.
        have_prev = true;
        prev_pos = att.unitPos;
        prev_phys = att.physRow;
        prev_raw = got;
        faults_->advanceEpoch();
    }
    stats_.inc("faultScanFailures");
    result.status = ScanStatus::VerifyFailed;
    return result;
}

HealthCounts
RimeChip::healthCounts() const
{
    HealthCounts hc;
    hc.healthyUnits = logicalUnits_;
    for (const auto &[lu, state] : health_) {
        (void)lu;
        switch (state) {
          case UnitHealth::Degraded:
            ++hc.degradedUnits;
            break;
          case UnitHealth::Retired:
            ++hc.retiredUnits;
            break;
          case UnitHealth::Dead:
            ++hc.deadUnits;
            break;
        }
        --hc.healthyUnits;
    }
    hc.remappedRows = remappedRows_;
    hc.lostValues = lostValues_;
    return hc;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
RimeChip::drainDeadExtents()
{
    auto out = std::move(deadExtents_);
    deadExtents_.clear();
    return out;
}

} // namespace rime::rimehw
