#include "sched/online_scheduler.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.hh"

namespace herald::sched
{

namespace
{

// Log-spaced latency histogram: bucket b covers latencies up to
// 2^((b+1)/kLatScale) - 1 cycles (~4.4% wide buckets). 1024 buckets
// reach 2^64 cycles, far past the workload layer's 2^53 cycle limit.
constexpr double kLatScale = 16.0;
constexpr std::size_t kLatBuckets = 1024;

} // namespace

const char *
toString(SubmitResult result)
{
    switch (result) {
      case SubmitResult::Accepted:
        return "accepted";
      case SubmitResult::Dropped:
        return "dropped";
      case SubmitResult::RejectedQueueFull:
        return "rejected-queue-full";
      case SubmitResult::RejectedHorizon:
        return "rejected-horizon";
    }
    util::panic("unknown SubmitResult");
}

void
OnlineOptions::validate() const
{
    sched.validate();
    if (sched.postProcess)
        util::fatal("online scheduler: idle-time post-processing "
                    "needs the whole schedule and cannot run on a "
                    "stream — set sched.postProcess = false");
    if (maxLiveFrames == 0)
        util::fatal("online scheduler: maxLiveFrames must be >= 1 "
                    "(0 would reject every frame)");
    if (std::isnan(horizonCycles) || horizonCycles <= 0.0)
        util::fatal("online scheduler: admission horizon must be "
                    "> 0 cycles (+infinity disables it), got ",
                    horizonCycles);
    if (maintenancePeriod == 0)
        util::fatal("online scheduler: maintenancePeriod must be "
                    ">= 1 commit");
    if (sched.reconfig.enabled() && !retainSchedule)
        util::fatal("online scheduler: elastic repartitioning "
                    "requires retainSchedule — reconfiguration "
                    "events live on the Schedule and the batch-path "
                    "bit-identity contract cannot be checked with "
                    "history retired");
}

OnlineScheduler::OnlineScheduler(cost::CostModel &cost_model,
                                 const std::vector<dnn::Model> &models,
                                 const accel::Accelerator &acc,
                                 OnlineOptions options)
    : opts(std::move(options)), templateWl("online-templates"),
      memory(acc.globalBufferBytes(), acc.numSubAccs()),
      sched(acc.numSubAccs())
{
    opts.validate();
    if (models.empty())
        util::fatal("online scheduler: no models to serve");
    // One template instance per model: the cost table only depends on
    // the set of unique models, so every stream frame shares it.
    for (const dnn::Model &m : models)
        templateWl.addModel(m, 1);
    ownTable = LayerCostTable::build(cost_model, templateWl, acc,
                                     opts.sched.metric,
                                     opts.sched.rdaOverheads,
                                     opts.sched.prefillThreads);
    bind(cost_model, templateWl, ownTable, acc);
}

OnlineScheduler::OnlineScheduler(cost::CostModel &cost_model,
                                 const workload::Workload &wl,
                                 const accel::Accelerator &acc,
                                 const LayerCostTable &table,
                                 OnlineOptions options)
    : opts(std::move(options)), templateWl("online-templates"),
      memory(acc.globalBufferBytes(), acc.numSubAccs()),
      sched(acc.numSubAccs())
{
    opts.validate();
    if (wl.specs().empty())
        util::fatal("online scheduler: no models to serve");
    if (table.numSubAccs() != acc.numSubAccs())
        util::fatal("online scheduler: cost table covers ",
                    table.numSubAccs(),
                    " sub-accelerators, accelerator has ",
                    acc.numSubAccs());
    bind(cost_model, wl, table, acc);
}

void
OnlineScheduler::bind(cost::CostModel &cost_model,
                      const workload::Workload &spec_wl,
                      const LayerCostTable &base_table,
                      const accel::Accelerator &acc)
{
    nAcc = acc.numSubAccs();
    nModels = spec_wl.specs().size();

    const FaultTimeline &faults = opts.sched.faults;
    faulty = !faults.empty();
    if (faulty && faults.numSubAccs() != nAcc) {
        util::fatal("scheduler: fault timeline covers ",
                    faults.numSubAccs(),
                    " sub-accelerators, accelerator has ", nAcc);
    }

    specWl = &spec_wl;
    table = &base_table;
    activeTable = table;
    uidOf.resize(nModels);
    rowBaseOf.resize(nModels);
    layersOf.resize(nModels);
    for (std::size_t m = 0; m < nModels; ++m) {
        uidOf[m] = spec_wl.uniqueIdOfSpec(m);
        rowBaseOf[m] = table->rowOf(uidOf[m], 0);
        layersOf[m] = spec_wl.specs()[m].model.numLayers();
    }

    reconfig = opts.sched.reconfig.enabled();
    if (reconfig) {
        reconfigCostModel = &cost_model;
        baseAcc = std::make_unique<accel::Accelerator>(acc);
        reconfigPolicy.emplace(opts.sched.reconfig);
        peSplit.reserve(nAcc);
        for (const accel::SubAccelerator &sub : acc.subAccs())
            peSplit.push_back(sub.numPes);
        nextEpochId = acc.partitionEpochId() + 1;
    }

    breadth = opts.sched.ordering == Ordering::BreadthFirst;
    preempt = opts.sched.preemption == Preemption::AtLayerBoundary;
    doomDrop = opts.sched.dropPolicy == DropPolicy::DoomedFrames;
    dropAny = opts.sched.dropPolicy != DropPolicy::None;
    policyKind = opts.sched.policy;
    hysteresis = opts.sched.lstHysteresisCycles > 0.0 &&
                 policyKind == Policy::Lst;

    accAvail.assign(nAcc, 0.0);
    accLastInstance.assign(nAcc, SIZE_MAX);
    retireChecker = EntryChecker(nAcc, faulty ? &faults : nullptr);
    modelStats.assign(nModels, OnlineModelStats{});
    latHist.assign(kLatBuckets, 0);

    if (faulty && dropAny) {
        admissionView =
            std::make_unique<LayerCostTable::DegradedView>(*table);
        deadMask.assign(nAcc, 0);
        bool dead_at_zero = false;
        for (std::size_t a = 0; a < nAcc; ++a) {
            const double fail = faults.permanentFailureCycle(a);
            if (fail <= 0.0) {
                deadMask[a] = 1;
                dead_at_zero = true;
            } else if (std::isfinite(fail)) {
                permFail.emplace_back(fail, a);
            }
        }
        if (dead_at_zero)
            admissionView->rebuild(deadMask);
        std::sort(permFail.begin(), permFail.end());
        if (doomDrop) {
            // The run view starts from the same dead-at-zero state
            // and is refreshed as the floor passes later onsets.
            runView = std::make_unique<LayerCostTable::DegradedView>(
                *table);
            if (dead_at_zero)
                runView->rebuild(deadMask);
        }
    }
}

// ------------------------------------------------------------------
// Window / policy helpers
// ------------------------------------------------------------------

OnlineScheduler::Frame &
OnlineScheduler::frameAt(std::size_t idx)
{
    return win[idx - winBase];
}

const OnlineScheduler::Frame &
OnlineScheduler::frameAt(std::size_t idx) const
{
    return win[idx - winBase];
}

bool
OnlineScheduler::pending(const Frame &f) const
{
    return f.nextLayer < f.numLayers;
}

bool
OnlineScheduler::isReadyMember(std::size_t idx) const
{
    return idx != SIZE_MAX && idx >= winBase && frameAt(idx).member;
}

double
OnlineScheduler::keyOf(std::size_t idx) const
{
    const Frame &f = frameAt(idx);
    switch (policyKind) {
      case Policy::Fifo:
        return 0.0;
      case Policy::Edf:
        return f.deadline;
      case Policy::Lst:
        // Slack up to a shared "now" term that cancels out of every
        // comparison; read off the pristine table, even under faults.
        // Deadline-free frames key to +inf, so LST is an exact no-op
        // (FIFO) on deadline-free workloads.
        return f.deadline == workload::kNoDeadline
                   ? workload::kNoDeadline
                   : f.deadline -
                         table->remainingCycles(f.uid, f.nextLayer);
    }
    util::panic("unknown Policy");
}

void
OnlineScheduler::readyRelease(std::size_t idx)
{
    Frame &f = frameAt(idx);
    const double key = keyOf(idx);
    ready.insert({key, idx});
    f.currentKey = key;
    f.member = true;
}

void
OnlineScheduler::readyRetire(std::size_t idx)
{
    Frame &f = frameAt(idx);
    if (!f.member)
        return;
    ready.erase({f.currentKey, idx});
    f.member = false;
}

void
OnlineScheduler::readyRekey(std::size_t idx)
{
    Frame &f = frameAt(idx);
    if (!f.member)
        return;
    const double key = keyOf(idx);
    if (key == f.currentKey)
        return;
    ready.rekey({f.currentKey, idx}, key);
    f.currentKey = key;
}

double
OnlineScheduler::doomKeyOf(const Frame &f) const
{
    return f.deadline - remCyclesRun(f.uid, f.nextLayer);
}

void
OnlineScheduler::doomTrack(std::size_t idx)
{
    Frame &f = frameAt(idx);
    f.doomKey = doomKeyOf(f);
    doomSet.insert({f.doomKey, idx});
    f.inDoom = true;
}

void
OnlineScheduler::doomRekey(std::size_t idx)
{
    Frame &f = frameAt(idx);
    const double old_key = f.doomKey;
    f.doomKey = doomKeyOf(f);
    doomSet.rekey({old_key, idx}, f.doomKey);
}

void
OnlineScheduler::doomUntrack(std::size_t idx)
{
    Frame &f = frameAt(idx);
    if (!f.inDoom)
        return;
    doomSet.erase({f.doomKey, idx});
    f.inDoom = false;
}

// ------------------------------------------------------------------
// Dispatch-loop helpers
// ------------------------------------------------------------------

double
OnlineScheduler::remCyclesRun(std::size_t uid,
                              std::size_t layer) const
{
    return runView ? runView->remainingCycles(uid, layer)
                   : activeTable->remainingCycles(uid, layer);
}

double
OnlineScheduler::availFrom(std::size_t a, double cycle) const
{
    return faulty ? opts.sched.faults.nextAvailable(a, cycle) : cycle;
}

double
OnlineScheduler::minAvail() const
{
    // The earliest cycle any *usable* capacity frees up. Under faults
    // a dead sub-accelerator's frozen frontier must not hold the
    // floor down forever — each frontier is projected through the
    // fault timeline (kNeverCycle once it has permanently failed;
    // +inf overall means no capacity is left, dooming every deadline
    // frame).
    double lo = kNeverCycle;
    for (std::size_t a = 0; a < nAcc; ++a)
        lo = std::min(lo, availFrom(a, accAvail[a]));
    return lo;
}

std::size_t
OnlineScheduler::oldestLive()
{
    while (liveScan < totalFrames() &&
           frameAt(idAt(liveScan)).finished)
        ++liveScan;
    return liveScan;
}

double
OnlineScheduler::retirementFloor()
{
    // minAvail() is a valid retirement floor but stalls whenever one
    // sub-accelerator sees little work: its idle availability pins
    // the minimum even though nothing can ever be placed that far in
    // the past. Tighten it with P, a lower bound on the start cycle
    // of every future entry: an admitted unfinished frame's next
    // layer starts at or after its readyTime, and a frame not yet
    // submitted arrives at or after the watermark (arrivals are
    // nondecreasing). planLayer() starts every placement at or after
    // max(availability, readyTime), so min over sub-accs of
    // max(nextAvailable, P) bounds every future start — and it keeps
    // advancing with the stream even on a lopsided accelerator mix.
    // The scan walks frames in arrival order. Finished frames never
    // bound P and never become unfinished, so it starts past the
    // finished prefix for good; and a frame's readyTime is never
    // below its arrival, so it stops at the first arrival at or past
    // P, which no later frame can lower.
    double p = draining ? kNeverCycle : std::max(watermark, 0.0);
    for (std::size_t rank = oldestLive(); rank < totalFrames();
         ++rank) {
        const Frame &f = frameAt(idAt(rank));
        if (f.arrival >= p)
            break;
        if (!f.finished)
            p = std::min(p, f.readyTime);
    }
    double floor = kNeverCycle;
    for (std::size_t a = 0; a < nAcc; ++a)
        floor = std::min(floor, std::max(availFrom(a, accAvail[a]), p));
    return floor;
}

// Provably-doomed test against the evolving schedule: the next
// remaining layer cannot start before max(dependence-chain ready time,
// earliest sub-accelerator availability), and the chain needs at least
// its optimistic suffix — if even that lower bound overshoots the
// deadline, no continuation can save the frame. Under faults the
// suffix comes from the run view, which only masks sub-accelerators
// already unusable at every cycle >= the frame's "now".
bool
OnlineScheduler::doomedNow(std::size_t idx, double now_floor) const
{
    const Frame &f = frameAt(idx);
    if (f.deadline == workload::kNoDeadline)
        return false;
    const double now = std::max(f.readyTime, now_floor);
    const double rem = remCyclesRun(f.uid, f.nextLayer);
    return now + rem > f.deadline + kEps;
}

// Fold permanent failures whose onset the availability floor has
// passed into the run view, re-keying the doom set against the shrunk
// capacity (a frame's remaining-work bound can only grow, so re-proofs
// may newly doom it).
void
OnlineScheduler::refreshDegraded(double floor)
{
    bool changed = false;
    while (nextFail < permFail.size() &&
           permFail[nextFail].first <= floor + kEps) {
        deadMask[permFail[nextFail].second] = 1;
        ++nextFail;
        changed = true;
    }
    if (!changed)
        return;
    runView->rebuild(deadMask);
    rekeyDoomSet();
}

// Recompute every doom-set member's key against the current run-time
// remaining-work bounds (after the run view or active table changed).
void
OnlineScheduler::rekeyDoomSet()
{
    doomSet.rekeyAll([&](std::size_t idx) {
        Frame &f = frameAt(idx);
        f.doomKey = doomKeyOf(f);
        return f.doomKey;
    });
}

void
OnlineScheduler::recordLatency(double latency)
{
    maxLatency = std::max(maxLatency, latency);
    std::size_t b = 0;
    if (latency > 0.0) {
        b = static_cast<std::size_t>(
            std::log2(1.0 + latency) * kLatScale);
        b = std::min(b, kLatBuckets - 1);
    }
    ++latHist[b];
}

void
OnlineScheduler::finishFrame(std::size_t idx)
{
    Frame &f = frameAt(idx);
    f.finished = true;
    --liveFrames;
    OnlineModelStats &ms = modelStats[f.modelIdx];
    ++ms.completed;
    recordLatency(f.readyTime - f.arrival);
    // Miss rule mirrors Schedule::computeSla: completion is the last
    // useful (non-killed) end, which is exactly readyTime here.
    if (f.deadline != workload::kNoDeadline &&
        f.readyTime > f.deadline + kEps)
        ++ms.deadlineMisses;
    if (f.hadKill)
        ++framesRescheduled;
}

// Shed a live frame mid-schedule: committed layers stay on the
// timeline (the cycles were really spent), the rest are cancelled, and
// the frame is recorded as dropped (and therefore missed). Called by
// admission for a provably hopeless frame (before any layer ran),
// under DropPolicy::DoomedFrames, and — under any drop policy — when a
// fault timeline leaves a frame with no usable sub-accelerator at all
// (graceful degradation: the alternative is a dispatch loop that can
// never terminate).
void
OnlineScheduler::dropLive(std::size_t idx)
{
    Frame &f = frameAt(idx);
    if (opts.retainSchedule)
        sched.markDropped(idx);
    liveRemaining -= f.numLayers - f.nextLayer;
    f.numLayers = f.nextLayer; // pending() now false
    readyRetire(idx);
    doomUntrack(idx);
    f.dropped = true;
    f.finished = true;
    --liveFrames;
    OnlineModelStats &ms = modelStats[f.modelIdx];
    ++ms.dropped;
    if (f.deadline != workload::kNoDeadline)
        ++ms.deadlineMisses;
    ++latInfCount;
    maxLatency = workload::kNoDeadline;
}

// Released frames with pending layers live in the (key, id)-ordered
// ready set. Under DoomedFrames a frame is doom-tested the moment it
// is released (its arrival may already be inside a backlog) and
// tracked in the doom set afterwards: deadline - remaining < now is
// exactly now + remaining > deadline, so as the floor advances doomed
// frames surface at the set's front and are shed in amortized
// O(log n), with no per-layer scan over all live frames.
void
OnlineScheduler::releaseInst(std::size_t idx)
{
    Frame &f = frameAt(idx);
    if (!pending(f))
        return;
    readyRelease(idx);
    if (!doomDrop || f.deadline == workload::kNoDeadline)
        return;
    if (doomedNow(idx, minAvail()))
        dropLive(idx);
    else
        doomTrack(idx);
}

// The cursor sweeps frames in arrival order, releasing each exactly
// once. The release clock is the latest committed end cycle: a frame
// competes for dispatch once its arrival is inside the committed
// horizon (inclusive: arrival <= bound + kEps). A preemption point
// instead releases everything arriving strictly before the planned
// commit's end (arrival < bound - kEps) — only when at least one such
// arrival is strictly more urgent than the planned frame, so FIFO
// (constant key) never triggers it.
void
OnlineScheduler::releaseUpTo(double bound, bool inclusive)
{
    const std::size_t total = totalFrames();
    while (cursor < total) {
        const std::size_t idx = idAt(cursor);
        const double arrival = frameAt(idx).arrival;
        if (inclusive ? arrival > bound + kEps : arrival >= bound - kEps)
            break;
        ++cursor;
        releaseInst(idx);
    }
}

// Placement on one sub-accelerator under faults: the earliest start
// at or after `earliest` that is memory-feasible, outside every known
// outage and before the sub-accelerator's permanent failure. The
// throttle factor is sampled at the start and held for the whole
// layer (layers are atomic). Termination: each round either returns
// or strictly advances `s` to a memory event boundary past an
// availability point — both finite sets.
bool
OnlineScheduler::placeOn(std::size_t a, double earliest,
                         double base_cycles, double penalty,
                         double bytes, Plan &out) const
{
    const FaultTimeline &faults = opts.sched.faults;
    double s = earliest;
    for (;;) {
        const double avail = faults.nextAvailable(a, s);
        if (!std::isfinite(avail))
            return false; // dead from here on
        const double dur =
            base_cycles * faults.throttleFactorAt(a, avail) + penalty;
        const double fit = memory.firstFeasible(avail, dur, bytes);
        if (fit == avail) {
            out.start = fit;
            out.dur = dur;
            out.killAt = faults.nextOnset(a, fit);
            return true;
        }
        s = fit;
    }
}

// Load-balancing feedback: walk the metric order from the preferred
// @p chosen and demote to the first candidate within the metric
// degradation bound whose frontier keeps the sub-accelerators
// balanced. Only candidates @p usable admits compete.
template <class Usable>
std::size_t
OnlineScheduler::loadBalanced(std::size_t row, double ready_time,
                              std::size_t chosen, Usable usable) const
{
    if (!opts.sched.loadBalance || nAcc < 2)
        return chosen;
    const std::size_t *order = activeTable->order(row);
    const double best_metric = activeTable->metric(row, chosen);
    for (std::size_t k = 0; k < nAcc; ++k) {
        const std::size_t a = order[k];
        if (!usable(a))
            continue;
        if (activeTable->metric(row, a) >
            best_metric * opts.sched.loadBalanceMaxDegradation)
            break; // remaining candidates are worse still
        const double start = std::max(ready_time, accAvail[a]);
        const double frontier =
            start + activeTable->cost(row, a).cost.cycles;
        double max_f = frontier;
        double min_f = frontier;
        for (std::size_t b = 0; b < nAcc; ++b) {
            if (b == a)
                continue;
            max_f = std::max(max_f, accAvail[b]);
            min_f = std::min(min_f, accAvail[b]);
        }
        if (min_f > 0.0 && max_f <= opts.sched.loadBalanceFactor * min_f)
            return a;
    }
    return chosen;
}

double
OnlineScheduler::contextPenalty(std::size_t a, std::size_t inst) const
{
    return opts.sched.contextChangeCycles > 0.0 &&
                   accLastInstance[a] != SIZE_MAX &&
                   accLastInstance[a] != inst
               ? opts.sched.contextChangeCycles
               : 0.0;
}

OnlineScheduler::Plan
OnlineScheduler::planLayer(std::size_t inst) const
{
    const Frame &frame = frameAt(inst);
    const std::size_t row = frame.rowBase + frame.nextLayer;
    const std::size_t *order = activeTable->order(row);

    // Without faults every candidate is usable and the first memory
    // fit of the load-balanced choice is the placement.
    if (!faulty) {
        Plan plan;
        plan.acc = loadBalanced(row, frame.readyTime, order[0],
                                [](std::size_t) { return true; });
        const accel::StyledLayerCost &sc = activeTable->cost(row, plan.acc);
        plan.contextPenalty = contextPenalty(plan.acc, inst);
        plan.dur = sc.cost.cycles + plan.contextPenalty;
        plan.start = memory.firstFeasible(
            std::max(frame.readyTime, accAvail[plan.acc]), plan.dur,
            static_cast<double>(sc.cost.l2FootprintBytes));
        return plan;
    }

    // Dataflow preference: the best-metric sub-accelerator. Only
    // sub-accelerators with a finite availability point from this
    // frame's earliest start compete; the preference order is
    // otherwise unchanged.
    auto usable = [&](std::size_t a) {
        return std::isfinite(
            availFrom(a, std::max(frame.readyTime, accAvail[a])));
    };
    Plan plan;
    std::size_t chosen = SIZE_MAX;
    for (std::size_t k = 0; k < nAcc; ++k) {
        if (usable(order[k])) {
            chosen = order[k];
            break;
        }
    }
    if (chosen == SIZE_MAX) {
        plan.feasible = false;
        return plan;
    }
    chosen = loadBalanced(row, frame.readyTime, chosen, usable);

    // Dependence + memory + fault constrained start time. When
    // placement on the chosen candidate pushes past its permanent
    // failure, demote through the remaining usable candidates; when
    // every candidate fails, the frame can never progress
    // (plan.feasible = false).
    auto try_acc = [&](std::size_t a) {
        const accel::StyledLayerCost &sc = activeTable->cost(row, a);
        Plan p;
        p.acc = a;
        p.contextPenalty = contextPenalty(a, inst);
        if (!placeOn(a, std::max(frame.readyTime, accAvail[a]),
                     sc.cost.cycles, p.contextPenalty,
                     static_cast<double>(sc.cost.l2FootprintBytes), p))
            return false;
        plan = p;
        return true;
    };
    if (try_acc(chosen))
        return plan;
    for (std::size_t k = 0; k < nAcc; ++k) {
        std::size_t a = order[k];
        if (a == chosen || !usable(a))
            continue;
        if (try_acc(a))
            return plan;
    }
    plan.feasible = false;
    return plan;
}

std::size_t
OnlineScheduler::selectReadyIdx() const
{
    if (ready.empty())
        return SIZE_MAX;
    const ChunkedKeySet::Item &first = ready.front();
    if (hysteresis && isReadyMember(grant) &&
        first.first >=
            frameAt(grant).currentKey - opts.sched.lstHysteresisCycles)
        return grant;
    if (breadth) {
        const ChunkedKeySet::Item *it =
            ready.lowerBound({first.first, rotate});
        if (it && it->first == first.first)
            return it->second;
    }
    return first.second;
}

// Nothing-has-arrived fallback: dispatch the nearest future arrival
// (the policy key breaks equal-arrival ties), by the reference
// implementation's epsilon-tolerant scan.
std::size_t
OnlineScheduler::selectFutureIdx(bool &stall) const
{
    stall = false;
    const std::size_t total = totalFrames();
    std::size_t scan = cursor;
    while (scan < total && !pending(frameAt(idAt(scan))))
        ++scan;
    if (scan == total) {
        // No queued pending frame. Before drain that only means
        // "not submitted yet"; after drain it is a real invariant
        // violation (the caller checked liveRemaining > 0).
        if (!draining)
            stall = true;
        return SIZE_MAX;
    }

    // The epsilon-chained component headed by the earliest pending
    // arrival. The reference scan visits *all* pending futures, but
    // its winner provably lies inside (and depends only on) this
    // component: any frame past a > kEps arrival gap can never
    // displace a component member under the scan's tolerance rule.
    // Bounding the walk here is what makes the step incremental.
    std::vector<std::size_t> comp;
    double chain_end = frameAt(idAt(scan)).arrival;
    for (std::size_t j = scan; j < total; ++j) {
        const std::size_t id = idAt(j);
        const Frame &f = frameAt(id);
        if (!pending(f))
            continue;
        if (f.arrival > chain_end + kEps)
            break;
        comp.push_back(id);
        chain_end = f.arrival;
    }

    // Watermark gate: a not-yet-submitted frame (arrival >= the
    // watermark) could still extend the component — the decision is
    // only closed once the watermark has passed the component by more
    // than the tolerance.
    if (!draining && !(watermark > chain_end + kEps)) {
        stall = true;
        return SIZE_MAX;
    }

    // Visit the component in id order rotated at the round-robin
    // cursor. On an exact-equal band every arrival ties, so this keeps
    // the lowest key, first seen — for constant-key FIFO, pure
    // (rotated) base order.
    std::sort(comp.begin(), comp.end());
    std::size_t inst = SIZE_MAX;
    double best_arrival = workload::kNoDeadline;
    double best_key = workload::kNoDeadline;
    auto consider = [&](std::size_t cand) {
        const Frame &cf = frameAt(cand);
        const double key = keyOf(cand);
        bool better = inst == SIZE_MAX ||
                      cf.arrival < best_arrival - kEps ||
                      (std::abs(cf.arrival - best_arrival) <= kEps &&
                       key < best_key);
        if (better) {
            inst = cand;
            best_arrival = cf.arrival;
            best_key = key;
        }
    };
    auto split = std::lower_bound(comp.begin(), comp.end(),
                                  breadth ? rotate : std::size_t{0});
    for (auto it = split; it != comp.end(); ++it)
        consider(*it);
    for (auto it = comp.begin(); it != split; ++it)
        consider(*it);
    return inst;
}

bool
OnlineScheduler::urgentExists(double end, double threshold) const
{
    const std::size_t total = totalFrames();
    for (std::size_t j = cursor; j < total; ++j) {
        const std::size_t id = idAt(j);
        const Frame &f = frameAt(id);
        if (f.arrival >= end - kEps)
            break;
        if (pending(f) && keyOf(id) < threshold)
            return true;
    }
    return false;
}

void
OnlineScheduler::commit(std::size_t inst, const Plan &plan)
{
    Frame &f = frameAt(inst);
    const std::size_t layer_idx = f.nextLayer;
    const std::size_t row = f.rowBase + layer_idx;
    const accel::StyledLayerCost &sc =
        activeTable->cost(row, plan.acc);
    // A plan whose duration crosses the next fault onset is committed
    // as a fault-killed partial execution: it occupies the
    // sub-accelerator (and buffer) up to the onset exactly, performs
    // zero useful work, and the frame's chain retries from the onset.
    const bool killed =
        faulty && plan.killAt < plan.start + plan.dur - kEps;

    ScheduledLayer entry;
    entry.instanceIdx = inst;
    entry.layerIdx = layer_idx;
    entry.accIdx = plan.acc;
    entry.style = sc.style;
    entry.startCycle = plan.start;
    entry.endCycle = killed ? plan.killAt : plan.start + plan.dur;
    entry.energyUnits = sc.cost.energyUnits;
    if (killed) {
        entry.energyUnits *= (plan.killAt - plan.start) / plan.dur;
    }
    entry.l2FootprintBytes = sc.cost.l2FootprintBytes;
    entry.contextPenaltyCycles = plan.contextPenalty;
    entry.faultKilled = killed;
    memory.append(plan.acc,
                  {entry.startCycle, entry.endCycle,
                   static_cast<double>(entry.l2FootprintBytes),
                   committedLayers});
    sched.add(entry);
    ++committedLayers;
    if (killed) {
        ++faultKilledLayers;
        f.hadKill = true;
    }

    f.readyTime = entry.endCycle;
    f.lastEnd = entry.endCycle;
    accAvail[plan.acc] = entry.endCycle;
    releaseFrontier = std::max(releaseFrontier, entry.endCycle);
    accLastInstance[plan.acc] = inst;
    if (!killed) {
        ++f.nextLayer;
        --liveRemaining;
    }
    // Never wrapped: every lookup is a lower_bound over live indices,
    // where "past the end" and "index 0" pick the same element.
    rotate = inst + 1;
    grant = inst;

    // The availability floor of the doom tests; nothing below moves
    // a sub-accelerator frontier.
    const double floor = doomDrop ? minAvail() : kNeverCycle;
    if (pending(f)) {
        // Progress re-keys LST (slack relaxes as layers retire); a
        // kill makes no progress, so the key is unchanged.
        if (!killed && policyKind == Policy::Lst)
            readyRekey(inst);
        // Progress also moved the frame's ready time: re-test it
        // directly (the shared floor sweep below cannot see a ready
        // time that outruns the floor), else re-key its doom entry.
        if (f.inDoom) {
            if (doomedNow(inst, floor)) {
                dropLive(inst);
            } else if (!killed) {
                doomRekey(inst);
            }
        }
    } else {
        readyRetire(inst);
        doomUntrack(inst);
        finishFrame(inst);
    }
    releaseUpTo(releaseFrontier);

    // Doomed-frame sweep: the floor only ever advances, and every
    // live frame whose (deadline - remaining) key fell behind it can
    // no longer finish in time under any continuation.
    if (doomDrop) {
        if (runView)
            refreshDegraded(floor);
        while (!doomSet.empty() &&
               doomSet.front().first < floor - kEps) {
            dropLive(doomSet.front().second);
        }
    }

    // Elastic repartitioning rides the committed-layer sequence (see
    // maybeReconfigure and the reconfigPending doc): the decision is
    // transitively watermark-gated because this commit was, and it
    // reads only committed state — later submissions can never
    // retroactively change it.
    if (reconfig)
        reconfigPending = true;

    if (++commitsSinceMaintenance >= opts.maintenancePeriod)
        maintenance();
}

// Elastic repartitioning hook — evaluated at most once per committed
// layer, so migrations are separated by at least one unit of real
// progress and the loop cannot livelock on back-to-back
// reconfigurations. The decision reads only committed state (the
// sub-accelerator frontiers and the PE split).
void
OnlineScheduler::maybeReconfigure()
{
    const ReconfigDecision d =
        reconfigPolicy->evaluate(accAvail, peSplit);
    if (!d.migrate)
        return;
    const accel::Accelerator &cur = epochAcc ? *epochAcc : *baseAcc;
    const accel::PartitionEpoch epoch =
        planMigrationEpoch(cur, d, nextEpochId++);
    // The migration is a short planned outage on donor and receiver:
    // both drain to their committed frontiers, then rewire for the
    // modeled penalty.
    const double window_start =
        std::max(accAvail[d.donor], accAvail[d.receiver]);
    const double window_end =
        window_start + opts.sched.reconfig.penaltyCycles(d.movedPes);
    epochAcc =
        std::make_unique<accel::Accelerator>(cur.withPartition(epoch));
    peSplit = epoch.peSplit;

    // Swap in the new epoch's costs: only the donor and receiver
    // columns are re-prefilled; every other column is reused verbatim.
    if (!epochTable)
        epochTable = std::make_unique<LayerCostTable>(*table);
    epochTable->rebuildColumns(
        *reconfigCostModel, *specWl, *epochAcc, opts.sched.metric,
        opts.sched.rdaOverheads,
        {std::min(d.donor, d.receiver),
         std::max(d.donor, d.receiver)},
        opts.sched.prefillThreads);
    activeTable = epochTable.get();

    // The run-time feasibility proofs read remaining-work bounds off
    // the active table — rebuild them against the new epoch. The
    // admission view stays frozen on the pristine table.
    if (runView) {
        runView = std::make_unique<LayerCostTable::DegradedView>(
            *activeTable);
        bool any_dead = false;
        for (char dm : deadMask)
            any_dead = any_dead || dm != 0;
        if (any_dead)
            runView->rebuild(deadMask);
    }
    rekeyDoomSet();

    accAvail[d.donor] = window_end;
    accAvail[d.receiver] = window_end;
    releaseFrontier = std::max(releaseFrontier, window_end);

    ReconfigEvent ev;
    ev.epochId = epoch.epochId;
    ev.donor = d.donor;
    ev.receiver = d.receiver;
    ev.movedPes = d.movedPes;
    ev.startCycle = window_start;
    ev.endCycle = window_end;
    ev.peSplit = epoch.peSplit;
    sched.addReconfig(ev);
    reconfigPolicy->onMigration(window_end);
    releaseUpTo(releaseFrontier);
}

bool
OnlineScheduler::tryStep()
{
    for (;;) {
        if (liveRemaining == 0)
            return false;
        // Deferred reconfig evaluation (see reconfigPending): runs
        // before the next selection, on exactly the committed state
        // the matching commit left behind.
        if (reconfigPending) {
            reconfigPending = false;
            maybeReconfigure();
        }
        if (selInst == SIZE_MAX) {
            // Release-frontier gate: an unsubmitted frame arriving
            // at or before the frontier would belong in the ready
            // set this selection reads.
            if (!draining && !(watermark > releaseFrontier + kEps))
                return false;
            std::size_t inst = selectReadyIdx();
            if (inst == SIZE_MAX) {
                bool stall = false;
                inst = selectFutureIdx(stall);
                if (stall)
                    return false;
                if (inst == SIZE_MAX)
                    util::panic("online scheduler: no instance with "
                                "pending layers");
            }
            selInst = inst;
        }
        // The plan is pure (it reads only committed state), so it is
        // recomputed — never stored — across pauses.
        Plan plan = planLayer(selInst);
        if (!plan.feasible) {
            // No usable sub-accelerator left: graceful degradation.
            dropLive(selInst);
            selInst = SIZE_MAX;
            continue;
        }
        // Preemption point (Preemption::AtLayerBoundary): when the
        // planned layer would span the arrival of a strictly more
        // urgent frame (the hysteresis band protects the grant holder
        // here too), release everything arriving inside the planned
        // window and re-select — the urgent frame can claim the
        // sub-accelerator at its arrival instead of queueing behind a
        // commit that has not happened yet. Each round releases at
        // least one frame, so the loop terminates. A killed layer
        // ends at the fault onset, so that is the window tested.
        if (preempt) {
            const double end =
                std::min(plan.start + plan.dur, plan.killAt);
            // Preemption-window gate: urgency is judged against
            // every arrival before `end`, submitted or not.
            if (!draining && !(watermark >= end - kEps))
                return false;
            double threshold = keyOf(selInst);
            if (hysteresis && selInst == grant)
                threshold -= opts.sched.lstHysteresisCycles;
            if (urgentExists(end, threshold)) {
                releaseUpTo(end, false);
                selInst = SIZE_MAX;
                continue;
            }
        }
        commit(selInst, plan);
        selInst = SIZE_MAX;
        return true;
    }
}

void
OnlineScheduler::pump()
{
    while (tryStep()) {
    }
}

// ------------------------------------------------------------------
// Retirement + watchdog
// ------------------------------------------------------------------

void
OnlineScheduler::maintenance()
{
    commitsSinceMaintenance = 0;
    const double floor = retirementFloor();
    if (floor < retireFloor)
        util::panic("online watchdog: retirement floor moved "
                    "backwards (", floor, " < ", retireFloor, ")");
    retireFloor = floor;
    if (ready.size() > liveFrames)
        util::panic("online watchdog: ready set (", ready.size(),
                    ") exceeds live frames (", liveFrames, ")");
    if (opts.retainSchedule)
        return;

    // Audit history as it is forgotten, in list order (per
    // sub-accelerator that is time order), and fail loudly rather
    // than let the rolling counters absorb a corrupt schedule. Commit
    // order is not end order, so this is an order-preserving sweep.
    std::vector<ScheduledLayer> &entries = sched.mutableEntries();
    std::size_t kept = 0;
    for (std::size_t r = 0; r < entries.size(); ++r) {
        const ScheduledLayer &e = entries[r];
        if (e.endCycle > floor) {
            entries[kept++] = e;
            continue;
        }
        if (e.instanceIdx < winFront)
            util::panic("online watchdog: retired entry references "
                        "an already-popped frame ", e.instanceIdx);
        const std::string bad =
            retireChecker.check(e, frameAt(e.instanceIdx).arrival);
        if (!bad.empty())
            util::panic("online watchdog: ", bad);
        ++retiredEntries;
    }
    entries.resize(kept);
    memory.retireBefore(floor);

    // Pop finished frames off the window front once their entries
    // are retired (every committed end <= floor, handled just
    // above). A popped frame may sit ahead of the release cursor —
    // admission drops during a commit-free stretch never get
    // released — but releasing a finished frame is a no-op, so the
    // cursor and the horizon scan just fast-forward past the popped
    // prefix instead of indexing below the window front.
    const std::size_t total = totalFrames();
    while (winFront < total && frameAt(winFront).finished &&
           frameAt(winFront).lastEnd <= floor)
        ++winFront;
    const std::size_t popped = winFront - winBase;
    if (2 * popped >= win.size()) {
        win.erase(win.begin(),
                  win.begin() + static_cast<std::ptrdiff_t>(popped));
        winBase = winFront;
    }
    cursor = std::max(cursor, winFront);
    liveScan = std::max(liveScan, winFront);
}

// ------------------------------------------------------------------
// Public API
// ------------------------------------------------------------------

SubmitResult
OnlineScheduler::submit(std::size_t model_idx, double arrival_cycle,
                        double deadline_cycle)
{
    if (draining)
        util::fatal("online scheduler: submit after drain");
    if (model_idx >= nModels)
        util::fatal("online scheduler: model index ", model_idx,
                    " out of range (", nModels, " models)");
    if (!std::isfinite(arrival_cycle) || arrival_cycle < 0.0)
        util::fatal("online scheduler: arrival must be finite and "
                    ">= 0, got ", arrival_cycle);
    if (arrival_cycle < watermark)
        util::fatal("online scheduler: arrivals must be "
                    "nondecreasing, got ", arrival_cycle, " after ",
                    watermark);
    if (!(arrival_cycle <= workload::kMaxCycle))
        util::fatal("online scheduler: arrival exceeds the ",
                    workload::kMaxCycle, "-cycle limit, got ",
                    arrival_cycle);
    const bool has_deadline =
        deadline_cycle != workload::kNoDeadline;
    if (has_deadline &&
        (!std::isfinite(deadline_cycle) ||
         deadline_cycle < arrival_cycle ||
         deadline_cycle > workload::kMaxCycle))
        util::fatal("online scheduler: deadline must be "
                    "kNoDeadline or a finite cycle in [arrival, ",
                    workload::kMaxCycle, "], got ", deadline_cycle);

    OnlineModelStats &ms = modelStats[model_idx];
    ++ms.submitted;

    // The watermark advances on every validated submission, accepted
    // or not: even a rejected frame proves no earlier arrival can
    // ever appear (arrivals are nondecreasing), which is exactly the
    // information the dispatch gates wait on. Freezing it on
    // rejection would livelock an overloaded server — nothing
    // commits, the oldest live frame never finishes, and the horizon
    // check rejects everything until drain. Pump before deciding
    // admission so the backpressure counters see the frames this
    // very submission just allowed to finish.
    watermark = arrival_cycle;
    pump();

    // --- Deterministic backpressure (mutates nothing but the
    // rejection counters, so reruns reject the same frames) ---
    if (liveFrames >= opts.maxLiveFrames) {
        ++ms.rejected;
        return SubmitResult::RejectedQueueFull;
    }
    if (std::isfinite(opts.horizonCycles)) {
        const std::size_t oldest = oldestLive();
        if (oldest < totalFrames() &&
            arrival_cycle - frameAt(idAt(oldest)).arrival >
                opts.horizonCycles) {
            ++ms.rejected;
            return SubmitResult::RejectedHorizon;
        }
    }

    const SubmitResult result =
        admit(model_idx, arrival_cycle, deadline_cycle);
    releaseUpTo(releaseFrontier); // a dropped frame: sweep past it
    pump();
    // Admission drops commit nothing, so they must count toward
    // maintenance themselves: a flood of hopeless frames would
    // otherwise grow the window without ever popping it.
    if (result == SubmitResult::Dropped &&
        ++commitsSinceMaintenance >= opts.maintenancePeriod)
        maintenance();
    return result;
}

SubmitResult
OnlineScheduler::admit(std::size_t model_idx, double arrival_cycle,
                       double deadline_cycle)
{
    OnlineModelStats &ms = modelStats[model_idx];
    const bool has_deadline =
        deadline_cycle != workload::kNoDeadline;
    const std::size_t idx = totalFrames();
    Frame f;
    f.modelIdx = model_idx;
    f.uid = uidOf[model_idx];
    f.rowBase = rowBaseOf[model_idx];
    f.arrival = arrival_cycle;
    f.deadline = deadline_cycle;
    f.numLayers = layersOf[model_idx];
    f.readyTime = arrival_cycle;
    ++ms.admitted;
    if (has_deadline)
        ++ms.framesWithDeadline;

    // Over-subscription admission control: a frame whose deadline
    // cannot be met even by running every layer back to back on its
    // best sub-accelerator starting at arrival is provably hopeless
    // under *any* schedule (starts cannot precede the arrival, the
    // chain is serial, each layer needs at least its best-case
    // cycles) — shed it up front instead of letting it steal cycles
    // from frames that can still make their deadlines. The proof
    // reads the dead-at-cycle-0 admission view: mid-run failures are
    // doom-sweep business, not admission business. A hopeless frame
    // is admitted live and shed at once, through the one drop path.
    win.push_back(f);
    ++liveFrames;
    liveRemaining += f.numLayers;
    if (dropAny && has_deadline) {
        const double optimistic =
            admissionView ? admissionView->remainingCycles(f.uid, 0)
                          : table->remainingCycles(f.uid, 0);
        if (f.deadline - f.arrival - optimistic < -kEps) {
            dropLive(idx);
            return SubmitResult::Dropped;
        }
    }
    return SubmitResult::Accepted;
}

Schedule
OnlineScheduler::scheduleWorkload()
{
    if (specWl == &templateWl)
        util::fatal("online scheduler: scheduleWorkload() needs an "
                    "engine bound to a workload");
    if (!opts.retainSchedule)
        util::fatal("online scheduler: scheduleWorkload() requires "
                    "retainSchedule");
    if (totalFrames() != 0 || draining)
        util::fatal("online scheduler: scheduleWorkload() needs a "
                    "fresh engine");

    const workload::Workload &wl = *specWl;
    const std::vector<workload::Instance> &instances = wl.instances();
    win.reserve(instances.size());
    sched.reserve(wl.totalLayers());
    // Frame id = instance index: workload order is the base-order
    // tie-break, and it need not be arrival order (addModel appends
    // a model's frames as one block).
    for (const workload::Instance &inst : instances) {
        ++modelStats[inst.specIdx].submitted;
        admit(inst.specIdx, inst.arrivalCycle, inst.deadlineCycle);
    }
    arrivalOrder.resize(instances.size());
    std::iota(arrivalOrder.begin(), arrivalOrder.end(), 0);
    std::stable_sort(arrivalOrder.begin(), arrivalOrder.end(),
                     [&](std::size_t a, std::size_t b) {
                         return instances[a].arrivalCycle <
                                instances[b].arrivalCycle;
                     });
    releaseUpTo(releaseFrontier);
    drain();
    return std::move(sched);
}

BufferLanes
OnlineScheduler::takeLanes()
{
    if (!opts.retainSchedule)
        util::fatal("online scheduler: takeLanes() requires "
                    "retainSchedule — the serving engine retires "
                    "lane slots");
    if (!draining)
        util::fatal("online scheduler: takeLanes() needs a drained "
                    "engine");
    return std::move(memory);
}

void
OnlineScheduler::drain()
{
    if (draining)
        return;
    draining = true;
    pump();
    if (liveRemaining != 0)
        util::panic("online scheduler: drain left ", liveRemaining,
                    " layers pending");
    maintenance();
}

const Schedule &
OnlineScheduler::schedule() const
{
    if (!opts.retainSchedule)
        util::fatal("online scheduler: schedule() requires "
                    "retainSchedule — the serving engine retires "
                    "history; read stats() instead");
    return sched;
}

double
OnlineScheduler::latencyPercentile(double q) const
{
    std::uint64_t finite = 0;
    for (std::uint64_t c : latHist)
        finite += c;
    const std::uint64_t n = finite + latInfCount;
    if (n == 0)
        return 0.0;
    // Nearest-rank, like Schedule::computeSla; dropped frames sit at
    // +infinity past every histogram bucket.
    std::uint64_t r = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    if (r == 0)
        r = 1;
    if (r > finite)
        return workload::kNoDeadline;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < latHist.size(); ++b) {
        cum += latHist[b];
        if (cum >= r)
            return std::exp2(static_cast<double>(b + 1) / kLatScale) -
                   1.0;
    }
    return maxLatency; // unreachable: r <= finite
}

OnlineStats
OnlineScheduler::stats() const
{
    OnlineStats s;
    for (const OnlineModelStats &ms : modelStats) {
        s.submittedFrames += ms.submitted;
        s.rejectedFrames += ms.rejected;
        s.admittedFrames += ms.admitted;
        s.framesWithDeadline += ms.framesWithDeadline;
        s.completedFrames += ms.completed;
        s.droppedFrames += ms.dropped;
        s.deadlineMisses += ms.deadlineMisses;
    }
    s.liveFrames = liveFrames;
    if (s.framesWithDeadline > 0) {
        s.missRate = static_cast<double>(s.deadlineMisses) /
                     static_cast<double>(s.framesWithDeadline);
    }
    s.committedLayers = committedLayers;
    s.faultKilledLayers = faultKilledLayers;
    s.framesRescheduled = framesRescheduled;
    s.p50LatencyCycles = latencyPercentile(0.50);
    s.p99LatencyCycles = latencyPercentile(0.99);
    s.p999LatencyCycles = latencyPercentile(0.999);
    s.maxLatencyCycles = maxLatency;
    s.windowFrames = totalFrames() - winFront;
    s.readyFrames = ready.size();
    s.liveEntries = sched.entries().size();
    s.retiredEntries = retiredEntries;
    s.watermarkCycle = watermark < 0.0 ? 0.0 : watermark;
    s.retireFloorCycle = retireFloor;
    s.perModel = modelStats;
    return s;
}

} // namespace herald::sched
