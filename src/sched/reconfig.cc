#include "sched/reconfig.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace herald::sched
{

const char *
toString(Reconfig reconfig)
{
    switch (reconfig) {
      case Reconfig::Off:
        return "Off";
      case Reconfig::BacklogSkew:
        return "BacklogSkew";
    }
    util::panic("unknown Reconfig");
}

void
ReconfigOptions::validate() const
{
    if (!std::isfinite(drainCycles) || drainCycles < 0.0 ||
        !std::isfinite(perPeRewireCycles) || perPeRewireCycles < 0.0)
        util::fatal("scheduler options: reconfig penalty cycles must "
                    "be finite and non-negative");
    if (!std::isfinite(cooldownCycles) || cooldownCycles < 0.0)
        util::fatal("scheduler options: reconfig cooldown must be "
                    "finite and non-negative");
    if (!enabled())
        return;
    if (migrationQuantumPes == 0)
        util::fatal("scheduler options: reconfig policy ",
                    toString(policy),
                    " with a zero migration quantum would plan "
                    "outages that migrate nothing");
    if (!std::isfinite(skewThresholdCycles) ||
        skewThresholdCycles <= 0.0)
        util::fatal("scheduler options: reconfig skew threshold must "
                    "be finite and positive (got ",
                    skewThresholdCycles, ")");
}

BacklogSkewPolicy::BacklogSkewPolicy(const ReconfigOptions &options)
    : opts(options)
{
}

ReconfigDecision
BacklogSkewPolicy::evaluate(
    const std::vector<double> &acc_avail,
    const std::vector<std::uint64_t> &pe_split) const
{
    ReconfigDecision d;
    if (acc_avail.size() < 2)
        return d;
    // Strict comparisons: the lowest index wins ties on both ends,
    // which keeps the decision deterministic.
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::size_t a = 1; a < acc_avail.size(); ++a) {
        if (acc_avail[a] < acc_avail[lo])
            lo = a;
        if (acc_avail[a] > acc_avail[hi])
            hi = a;
    }
    if (acc_avail[hi] - acc_avail[lo] <= opts.skewThresholdCycles)
        return d;
    // "Now" for the cooldown is the backlogged frontier: committed
    // work must have advanced past the last window + cooldown.
    if (acc_avail[hi] < cooldownUntil)
        return d;
    if (pe_split[lo] <= 1)
        return d; // donor must keep at least one PE
    const std::uint64_t moved =
        std::min<std::uint64_t>(opts.migrationQuantumPes,
                                pe_split[lo] - 1);
    if (moved == 0)
        return d;
    d.migrate = true;
    d.donor = lo;
    d.receiver = hi;
    d.movedPes = moved;
    return d;
}

void
BacklogSkewPolicy::onMigration(double window_end)
{
    cooldownUntil = window_end + opts.cooldownCycles;
}

accel::PartitionEpoch
planMigrationEpoch(const accel::Accelerator &acc,
                   const ReconfigDecision &decision,
                   std::uint64_t epoch_id)
{
    if (!decision.migrate)
        util::panic("planMigrationEpoch: no migration decided");
    accel::PartitionEpoch epoch = acc.partitionEpoch();
    epoch.epochId = epoch_id;
    const std::size_t d = decision.donor;
    const std::size_t r = decision.receiver;
    if (d >= epoch.peSplit.size() || r >= epoch.peSplit.size() ||
        d == r)
        util::panic("planMigrationEpoch: bad donor/receiver pair ", d,
                    "/", r);
    if (decision.movedPes >= epoch.peSplit[d])
        util::panic("planMigrationEpoch: donor ", d, " cannot give ",
                    decision.movedPes, " of its ", epoch.peSplit[d],
                    " PEs");

    // Bandwidth follows the donor's moved-PE fraction; the buffer
    // follows the chip-wide moved-PE fraction in integer bytes so
    // shares keep summing exactly to the global buffer.
    const double pe_frac = static_cast<double>(decision.movedPes) /
                           static_cast<double>(epoch.peSplit[d]);
    const double bw_moved = epoch.bwSplit[d] * pe_frac;

    if (epoch.bufferSplit.empty()) {
        // Materialize the epoch-0 even split (largest-remainder on
        // the first sub-accs so the shares sum exactly).
        const std::uint64_t buf = acc.globalBufferBytes();
        const std::uint64_t n = epoch.peSplit.size();
        epoch.bufferSplit.assign(n, buf / n);
        for (std::uint64_t i = 0; i < buf % n; ++i)
            epoch.bufferSplit[i] += 1;
    }
    std::uint64_t buf_moved = static_cast<std::uint64_t>(
        static_cast<double>(acc.globalBufferBytes()) *
        static_cast<double>(decision.movedPes) /
        static_cast<double>(acc.chip().numPes));
    if (buf_moved >= epoch.bufferSplit[d])
        buf_moved = epoch.bufferSplit[d] - 1; // keep a non-empty share

    epoch.peSplit[d] -= decision.movedPes;
    epoch.peSplit[r] += decision.movedPes;
    epoch.bwSplit[d] -= bw_moved;
    epoch.bwSplit[r] += bw_moved;
    epoch.bufferSplit[d] -= buf_moved;
    epoch.bufferSplit[r] += buf_moved;
    return epoch;
}

std::vector<std::size_t>
resourceChanges(const accel::Accelerator &from,
                const accel::Accelerator &to)
{
    if (from.numSubAccs() != to.numSubAccs())
        util::panic("resourceChanges: arity mismatch");
    std::vector<std::size_t> changed;
    for (std::size_t a = 0; a < from.numSubAccs(); ++a) {
        if (from.resources(a).identity() != to.resources(a).identity())
            changed.push_back(a);
    }
    return changed;
}

} // namespace herald::sched
