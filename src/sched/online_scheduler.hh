/**
 * @file
 * Herald's dispatch engine: overload-safe incremental scheduling over
 * an unbounded frame stream with bounded memory, and — in batch mode —
 * the offline scheduler too.
 *
 * This is the one implementation of the event-driven dispatch loop
 * (instance release, policy selection, load-balanced placement,
 * drop/preemption/fault/reconfig hooks at the layer boundary).
 * HeraldScheduler::schedule() is a thin front end over it: bind the
 * engine to the workload and a prebuilt LayerCostTable, run
 * scheduleWorkload(), then post-process the retained schedule. A
 * serving scenario drives the same loop one frame at a time:
 *
 * - submit() admits one frame (nondecreasing arrivals) and advances
 *   the scheduler as far as the *watermark* — the latest submitted
 *   arrival — provably allows. Every dispatch decision depends on
 *   future arrivals only through sharp, checkable gates (release
 *   frontier, arrival tie bands, preemption windows); the loop pauses
 *   at a gate the watermark has not passed and resumes when it has.
 *   drain() declares the stream over (watermark = +infinity) and runs
 *   the loop dry.
 * - scheduleWorkload() is the batch path: every instance of a finite
 *   workload is admitted up front, keyed by its instance index (the
 *   base-order tie-break, which need not be arrival order), and the
 *   loop runs with every gate open.
 * - Committed history is retired incrementally: every
 *   maintenancePeriod commits and admission drops, each entry that
 *   ends by the *retirement floor* (the earliest cycle any usable
 *   sub-accelerator frees up) is audited and dropped from the live
 *   Schedule and MemoryTracker, and finished frames are popped from
 *   the sliding window. Live state is O(in-flight frames).
 * - Overload is handled by deterministic backpressure at admission
 *   (reject when too many frames are live or the arrival span exceeds
 *   the horizon) on top of the drop policies' hopeless/doomed
 *   shedding, which are re-proved incrementally with the same
 *   proofs the batch path runs.
 * - An internal watchdog audits every retirement batch (monotone
 *   floor, per-sub-accelerator non-overlap, arrival causality, fault
 *   consistency, bounded ready set) and panics on the first
 *   violation instead of silently corrupting rolling counters.
 *
 * Equivalence guarantees: on any finite workload, submitting every
 * frame in arrival order and draining yields — in retainSchedule
 * mode — a Schedule bit-identical to the batch path's on the
 * materialized workload, across the full policy x drop x preemption x
 * fault grid (tests/test_online.cc: the watermark gates never decide
 * differently than full knowledge would). The batch path in turn is
 * bit-identical to the independent sched::referenceSchedule() oracle
 * (tests/test_sched_equivalence.cc). Post-processing is excluded from
 * both: idle-time elimination is offline-only by nature.
 */

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cost/cost_model.hh"
#include "dnn/model.hh"
#include "sched/herald_scheduler.hh"
#include "sched/layer_cost_table.hh"
#include "sched/memory_tracker.hh"
#include "sched/schedule.hh"
#include "workload/workload.hh"

namespace herald::sched
{

/** Knobs of the online serving engine. */
struct OnlineOptions
{
    OnlineOptions() { sched.postProcess = false; }

    /**
     * Dispatch-loop options (policy, drop policy, preemption, faults,
     * ...). postProcess must stay false: idle-time elimination
     * rewrites the whole schedule and cannot run on a stream.
     */
    SchedulerOptions sched;

    /**
     * Admission bound on simultaneously live (admitted, unfinished)
     * frames; submit() returns RejectedQueueFull beyond it. The
     * primary backpressure valve — it directly bounds the scheduler's
     * live state.
     */
    std::size_t maxLiveFrames = std::size_t{1} << 20;

    /**
     * Admission bound on the arrival span: a frame arriving more than
     * this many cycles after the oldest live frame is rejected
     * (RejectedHorizon) — an overloaded server must not keep
     * admitting work that queues behind an ever-growing backlog.
     * +infinity (the default) disables the bound.
     */
    double horizonCycles = std::numeric_limits<double>::infinity();

    /**
     * Run retirement + watchdog every this many layer commits and
     * admission drops (and once at drain()). Smaller periods bound
     * live state tighter and audit more often at slightly more
     * bookkeeping per commit.
     */
    std::size_t maintenancePeriod = 1024;

    /**
     * Keep the full Schedule (and per-frame drop marks) instead of
     * retiring history — memory grows with the stream, but schedule()
     * / validate() / computeSla() work. For the batch path,
     * equivalence tests and short diagnostic runs, not for serving.
     * Required when sched.reconfig is enabled: reconfiguration events
     * are recorded on the Schedule and the bit-identity contract
     * against the batch path is meaningless with history retired.
     */
    bool retainSchedule = false;

    /** Reject contradictory combinations up front (util::fatal). */
    void validate() const;
};

/** Outcome of OnlineScheduler::submit(). */
enum class SubmitResult
{
    Accepted, //!< admitted; will be scheduled (or shed if doomed later)
    Dropped,  //!< admitted but provably hopeless — shed immediately
    RejectedQueueFull, //!< backpressure: maxLiveFrames live frames
    RejectedHorizon,   //!< backpressure: arrival span > horizonCycles
};

const char *toString(SubmitResult result);

/** Rolling per-model serving counters. */
struct OnlineModelStats
{
    std::uint64_t submitted = 0; //!< admitted + rejected
    std::uint64_t rejected = 0;  //!< backpressure rejections
    std::uint64_t admitted = 0;
    std::uint64_t framesWithDeadline = 0; //!< admitted subset
    std::uint64_t completed = 0; //!< ran every layer to the end
    std::uint64_t dropped = 0;   //!< shed (hopeless/doomed/no capacity)
    std::uint64_t deadlineMisses = 0; //!< incl. dropped, like SlaStats
};

/**
 * Rolling serving statistics. Counter semantics mirror
 * Schedule::computeSla() exactly (a drained run's totals match the
 * offline oracle's); the latency percentiles come from a log-spaced
 * histogram, so they are upper edges of ~4%-wide buckets rather than
 * exact order statistics — dropped frames count as +infinity, and
 * frames still in flight are not counted yet.
 */
struct OnlineStats
{
    std::uint64_t submittedFrames = 0;
    std::uint64_t rejectedFrames = 0;
    std::uint64_t admittedFrames = 0;
    std::uint64_t framesWithDeadline = 0;
    std::uint64_t completedFrames = 0;
    std::uint64_t droppedFrames = 0;
    std::uint64_t deadlineMisses = 0;
    std::uint64_t liveFrames = 0; //!< admitted, not yet finished
    double missRate = 0.0; //!< misses / framesWithDeadline (0 if none)

    std::uint64_t committedLayers = 0; //!< incl. fault-killed
    std::uint64_t faultKilledLayers = 0;
    std::uint64_t framesRescheduled = 0;

    double p50LatencyCycles = 0.0;
    double p99LatencyCycles = 0.0;
    double p999LatencyCycles = 0.0;
    double maxLatencyCycles = 0.0; //!< exact; +inf once any drop

    // Live-state gauges (the soak bench asserts these stay bounded).
    std::uint64_t windowFrames = 0;   //!< frame states held
    std::uint64_t readyFrames = 0;    //!< ready-set size
    std::uint64_t liveEntries = 0;    //!< un-retired schedule entries
    std::uint64_t liveIntervals = 0;  //!< un-retired memory intervals
    std::uint64_t retiredEntries = 0; //!< total retired so far
    double watermarkCycle = 0.0;
    double retireFloorCycle = 0.0;

    std::vector<OnlineModelStats> perModel; //!< by model index
};

/** See file comment. */
class OnlineScheduler
{
  public:
    /**
     * Bind the engine to a model set and accelerator: builds the
     * LayerCostTable once (all streams share it). @p models is the
     * closed set submit() may reference by index — typically
     * ArrivalSource::models(). @p acc is only read during
     * construction (a copy is kept when elastic repartitioning is
     * enabled, since migrations derive new epochs from it).
     */
    OnlineScheduler(cost::CostModel &cost_model,
                    const std::vector<dnn::Model> &models,
                    const accel::Accelerator &acc,
                    OnlineOptions options = OnlineOptions{});

    /**
     * Bind the engine to the specs of @p wl (model index = spec
     * index) and a prebuilt @p table, which must have been built for
     * this @p wl / @p acc pair with the options' metric and RDA
     * overheads. Both are borrowed and must outlive the engine. This
     * is how the offline scheduler and the DSE reuse one table per
     * candidate instead of building it per engine.
     */
    OnlineScheduler(cost::CostModel &cost_model,
                    const workload::Workload &wl,
                    const accel::Accelerator &acc,
                    const LayerCostTable &table,
                    OnlineOptions options = OnlineOptions{});

    // The degraded views point into the member cost table.
    OnlineScheduler(const OnlineScheduler &) = delete;
    OnlineScheduler &operator=(const OnlineScheduler &) = delete;

    /**
     * Submit one frame of @p model_idx arriving at @p arrival_cycle
     * with absolute deadline @p deadline_cycle (workload::kNoDeadline
     * for none). Arrivals must be nondecreasing across submissions —
     * the stream is a timeline, not a bag. Admission order:
     * backpressure rejections first (mutating nothing but the
     * rejection counters — deterministic across reruns), then the
     * hopeless-frame admission proof (Dropped), then scheduling as
     * far as the new watermark allows. Never blocks, never throws on
     * overload; throws only on caller errors (bad index,
     * non-monotone or non-finite arrival, submit after drain).
     */
    SubmitResult submit(std::size_t model_idx, double arrival_cycle,
                        double deadline_cycle = workload::kNoDeadline);

    /**
     * Declare the stream finished and run the dispatch loop dry:
     * every admitted frame completes or is shed, a final maintenance
     * pass retires/audits the tail, and stats() becomes the run's
     * final accounting. Idempotent; submit() afterwards is fatal.
     */
    void drain();

    /**
     * Batch mode (the offline scheduler): admit every instance of the
     * workload bound by the workload constructor at once — frame id =
     * instance index, so every base-order tie-break follows workload
     * order — drain, and move the schedule out. Requires
     * retainSchedule and a fresh engine; the engine is spent
     * afterwards. Backpressure does not apply: an offline workload is
     * admitted whole.
     */
    Schedule scheduleWorkload();

    /** Rolling counters; callable at any point in the stream. */
    OnlineStats stats() const;

    /**
     * The full schedule (retainSchedule mode only — fatal otherwise):
     * bit-identical to the batch path's on the materialized workload
     * once drained.
     */
    const Schedule &schedule() const;

    const OnlineOptions &options() const { return opts; }

  private:
    /**
     * Per-frame live state. The sliding window is indexed by frame id
     * (submission index when streaming, instance index in batch
     * mode); ids are also the base-order tie-break of every ordered
     * set below.
     */
    struct Frame
    {
        std::size_t modelIdx = 0;
        std::size_t uid = 0;     //!< unique-model id (cost table)
        std::size_t rowBase = 0; //!< table row of layer 0
        double arrival = 0.0;
        double deadline = workload::kNoDeadline;
        std::size_t nextLayer = 0;
        std::size_t numLayers = 0; //!< shrunk to nextLayer on drop
        double readyTime = 0.0;    //!< dependence-chain frontier
        double lastEnd = 0.0;      //!< latest committed end cycle
        double currentKey = 0.0;   //!< ready-set key at insertion
        double doomKey = 0.0;
        bool member = false; //!< in the ready set
        bool inDoom = false; //!< in the doom set
        bool dropped = false;
        bool hadKill = false;  //!< lost >= 1 layer to a fault onset
        bool finished = false; //!< completed or dropped
    };

    /**
     * Tentative layer plan: everything a commit needs, computed
     * without mutating any state, so preemption points can re-plan
     * after releasing an urgent arrival.
     */
    struct Plan
    {
        std::size_t acc = 0;
        double start = 0.0;
        double dur = 0.0; //!< includes the context penalty
        double contextPenalty = 0.0;
        /** False: every candidate placement lands past a permanent
         *  failure — the frame can never progress and is shed. */
        bool feasible = true;
        /** Next fault onset strictly after start (kNeverCycle when
         *  none): a commit crossing it becomes a fault-killed partial
         *  execution ending exactly there. */
        double killAt = kNeverCycle;
    };

    // --- Configuration (fixed at construction) ---
    OnlineOptions opts;
    workload::Workload templateWl; //!< one instance per model
    LayerCostTable ownTable;       //!< built by the streaming ctor
    /** Spec source: templateWl, or the caller's bound workload. */
    const workload::Workload *specWl = nullptr;
    /** The pristine table: ownTable, or the caller's prebuilt one. */
    const LayerCostTable *table = nullptr;
    /**
     * The table the dispatch path reads. Points at `table` until the
     * first migration, then at `epochTable` (a copy with only the
     * affected columns re-prefilled) — so Reconfig::Off takes exactly
     * the historical reads. LST keys and the admission proof read the
     * pristine `table` for the whole run, migrations or not (the
     * semantics the equivalence suites pin).
     */
    const LayerCostTable *activeTable = nullptr;
    std::size_t nAcc = 0;
    std::size_t nModels = 0;
    std::vector<std::size_t> uidOf;     //!< per model
    std::vector<std::size_t> rowBaseOf; //!< per model
    std::vector<std::size_t> layersOf;  //!< per model
    bool breadth = false;
    bool preempt = false;
    bool doomDrop = false;
    bool dropAny = false;
    bool hysteresis = false;
    bool faulty = false;
    Policy policyKind = Policy::Fifo;

    // Degraded-capacity views for the drop-policy feasibility proofs:
    // the pristine table's optimistic remaining work assumes the best
    // sub-accelerator is alive. The admission view masks only columns
    // dead from cycle 0 (sound for every arrival) and is frozen —
    // admissions happen throughout the run and must not see later
    // refreshes. The run view folds in permanent failures as the
    // availability floor passes their onsets and backs the doom
    // re-proofs.
    std::unique_ptr<LayerCostTable::DegradedView> admissionView;
    std::unique_ptr<LayerCostTable::DegradedView> runView;
    std::vector<char> deadMask;
    std::vector<std::pair<double, std::size_t>> permFail; //!< sorted
    std::size_t nextFail = 0;

    // --- Elastic repartitioning state (sched/reconfig.hh) ---
    // The cost model and base accelerator are only retained when the
    // policy is enabled; Reconfig::Off leaves all of this inert and
    // the engine bit-identical to the frozen-partition scheduler.
    bool reconfig = false;
    cost::CostModel *reconfigCostModel = nullptr;
    std::unique_ptr<accel::Accelerator> baseAcc;
    std::unique_ptr<accel::Accelerator> epochAcc;
    std::unique_ptr<LayerCostTable> epochTable;
    std::optional<BacklogSkewPolicy> reconfigPolicy;
    std::vector<std::uint64_t> peSplit;
    std::uint64_t nextEpochId = 0;
    /**
     * Set by commit(), consumed by the next tryStep(): the reconfig
     * hook runs once per committed layer, but only while work remains
     * — an outage with nothing left to run would only stretch the
     * makespan — and mid-stream "work remains" is only known at the
     * next step (which runs only with live work). Nothing between a
     * commit and the next selection touches the state the policy
     * reads (committed frontiers and the PE split), so the deferral
     * changes no decision.
     */
    bool reconfigPending = false;

    // --- Sliding frame window (indexed by frame id) ---
    // A vector, not a deque: frameAt() is on every dispatch path and
    // a deque's two-level indexing measurably slows dispatch. Retired
    // frames are popped logically (winFront) and erased in bulk once
    // they make up half the storage, so each frame is moved at most
    // once on average.
    std::vector<Frame> win;
    std::size_t winBase = 0;  //!< frame id of win[0]
    std::size_t winFront = 0; //!< oldest frame id not yet popped
    /**
     * Batch mode only: frame ids in (arrival, id) order — the order
     * the release cursor walks. Empty when streaming, where
     * submissions arrive in order and rank == id.
     */
    std::vector<std::size_t> arrivalOrder;

    // --- Dispatch-loop state ---
    MemoryTracker memory;
    Schedule sched;
    std::vector<double> accAvail;
    std::vector<std::size_t> accLastInstance; //!< frame id
    std::set<std::pair<double, std::size_t>> ready;   //!< (key, id)
    std::set<std::pair<double, std::size_t>> doomSet; //!< (key, id)
    std::size_t cursor = 0; //!< arrival rank of first unreleased frame
    std::size_t rotate = 0; //!< breadth-first cursor (never wrapped)
    std::size_t grant = SIZE_MAX;   //!< hysteresis grant holder
    std::size_t selInst = SIZE_MAX; //!< resumable selection state
    double releaseFrontier = 0.0;
    std::uint64_t liveRemaining = 0; //!< pending layers, live frames

    // --- Stream state ---
    double watermark = -1.0; //!< latest admitted arrival
    double lastArrival = 0.0;
    bool draining = false;
    std::size_t liveScan = 0; //!< oldest-live probe (backpressure)

    // --- Maintenance / watchdog ---
    std::size_t commitsSinceMaintenance = 0;
    double retireFloor = 0.0;
    std::vector<double> lastRetiredEnd; //!< per sub-accelerator
    std::uint64_t retiredEntries = 0;

    // --- Rolling SLA accumulators ---
    std::vector<OnlineModelStats> modelStats;
    std::uint64_t liveFrames = 0;
    std::uint64_t committedLayers = 0;
    std::uint64_t faultKilledLayers = 0;
    std::uint64_t framesRescheduled = 0;
    std::vector<std::uint64_t> latHist; //!< log-spaced buckets
    std::uint64_t latInfCount = 0;      //!< dropped frames
    double maxLatency = 0.0;

    // --- Setup ---
    void bind(cost::CostModel &cost_model,
              const workload::Workload &spec_wl,
              const LayerCostTable &base_table,
              const accel::Accelerator &acc);
    SubmitResult admit(std::size_t model_idx, double arrival_cycle,
                       double deadline_cycle);

    // --- Window / policy helpers ---
    Frame &frameAt(std::size_t idx);
    const Frame &frameAt(std::size_t idx) const;
    std::size_t totalFrames() const { return winBase + win.size(); }
    /** Frame id of arrival rank @p rank (see arrivalOrder). */
    std::size_t
    idAt(std::size_t rank) const
    {
        return arrivalOrder.empty() ? rank : arrivalOrder[rank];
    }
    bool pending(const Frame &f) const;
    bool isReadyMember(std::size_t idx) const;
    double keyOf(std::size_t idx) const;
    void readyRelease(std::size_t idx);
    void readyRetire(std::size_t idx);
    void readyRekey(std::size_t idx);

    // --- Dispatch-loop helpers ---
    double remCyclesRun(std::size_t uid, std::size_t layer) const;
    double minAvail() const;
    double retirementFloor() const;
    bool doomedNow(std::size_t idx, double now_floor) const;
    void refreshDegraded(double floor);
    void rekeyDoomSet();
    void dropLive(std::size_t idx);
    void releaseInst(std::size_t idx);
    void releaseUpTo(double frontier);
    void releaseWindow(double end);
    bool placeOn(std::size_t a, double earliest, double base_cycles,
                 double penalty, double bytes, Plan &out) const;
    Plan planLayer(std::size_t inst) const;
    std::size_t selectReadyIdx() const;
    std::size_t selectFutureIdx(bool &stall) const;
    bool urgentExists(double end, double threshold) const;
    void commit(std::size_t inst, const Plan &plan);
    void maybeReconfigure();
    bool tryStep();
    void pump();

    // --- Retirement + watchdog ---
    void maintenance();

    // --- SLA accounting ---
    void recordLatency(double latency);
    void finishFrame(std::size_t idx);
    double latencyPercentile(double q) const;
};

} // namespace herald::sched
