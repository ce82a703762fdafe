/**
 * @file
 * Multi-DNN workloads (Table II): a set of models, each with a batch
 * count modeling that sub-task's target processing rate. Every batch
 * expands into an independent model instance: instances have no
 * cross-dependences, while layers within one instance form a linear
 * dependence chain — exactly the structure the paper's scheduling
 * heuristics exploit.
 *
 * Real-time scenarios extend the flat bag-of-instances model with
 * arrivals and deadlines: a periodic model ("MobileNetV2 @ 60 FPS for
 * K frames") expands into one instance per frame with staggered
 * arrival cycles and per-frame absolute deadlines, which the
 * scheduler (sched::SchedulerOptions::policy) and the SLA
 * metrics (sched::SlaStats) consume.
 */

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dnn/model.hh"

namespace herald::workload
{

/** Absolute-deadline value meaning "no deadline". */
inline constexpr double kNoDeadline =
    std::numeric_limits<double>::infinity();

/**
 * Largest cycle value the workload layer accepts (2^53, the last
 * point where doubles still resolve single cycles). Beyond it,
 * arrival/deadline arithmetic silently loses whole cycles and the
 * epsilon-based dispatch comparisons stop being meaningful, so
 * construction rejects it instead of wrapping into nonsense.
 */
inline constexpr double kMaxCycle = 9007199254740992.0;

/** Real-time attributes of a model spec (0 = aperiodic / none). */
struct RealtimeSpec
{
    double periodCycles = 0.0;   //!< frame period; 0 = aperiodic
    double deadlineCycles = 0.0; //!< relative deadline; 0 = none

    bool periodic() const { return periodCycles > 0.0; }
};

/** One model plus its batch count. */
struct ModelSpec
{
    dnn::Model model;
    int batches = 1;
    RealtimeSpec realtime{};
};

/** One independent executable copy of a model (one batch element). */
struct Instance
{
    std::size_t specIdx = 0; //!< index into specs()
    int batchIdx = 0;        //!< which batch element / frame this is
    std::string name;        //!< e.g. "Resnet50#1"
    double arrivalCycle = 0.0;  //!< earliest cycle any layer may start
    double deadlineCycle = kNoDeadline; //!< absolute completion target

    bool hasDeadline() const { return deadlineCycle < kNoDeadline; }
};

/** A named multi-DNN workload. */
class Workload
{
  public:
    explicit Workload(std::string name) : wlName(std::move(name)) {}

    /**
     * Add @p model with @p batches independent copies, all arriving
     * at @p arrival_cycle. A positive @p deadline_cycles gives every
     * copy the absolute deadline arrival + deadline_cycles.
     */
    void addModel(dnn::Model model, int batches = 1,
                  double arrival_cycle = 0.0,
                  double deadline_cycles = 0.0);

    /**
     * Add a periodic real-time stream: @p frames instances of
     * @p model with arrivals staggered by @p period_cycles starting
     * at @p phase_cycles. Each frame's absolute deadline is its
     * arrival plus @p deadline_cycles (the period when 0 — the
     * classic implicit-deadline periodic task).
     */
    void addPeriodicModel(dnn::Model model, int frames,
                          double period_cycles,
                          double deadline_cycles = 0.0,
                          double phase_cycles = 0.0);

    const std::string &name() const { return wlName; }
    const std::vector<ModelSpec> &specs() const { return modelSpecs; }
    const std::vector<Instance> &instances() const { return insts; }
    std::size_t numInstances() const { return insts.size(); }

    /** The model an instance executes. */
    const dnn::Model &modelOf(std::size_t instance_idx) const;

    // --- Unique-model index ---
    // Real-time scenarios expand "model @ FPS for K frames" into
    // thousands of instances of the same few models, and separate
    // addModel/addPeriodicModel calls may pass structurally equal
    // models (e.g. two dnn::mobileNetV2() streams). Specs whose
    // models are structurally equal (same name, layer count and
    // per-layer kind/canonical geometry) share one unique-model id,
    // so per-model work (cost tables, layer statistics) is O(unique
    // models), not O(instances).

    /** Number of structurally distinct models in the workload. */
    std::size_t numUniqueModels() const { return uniqueSpec.size(); }

    /** A representative model for unique-model id @p uid. */
    const dnn::Model &uniqueModel(std::size_t uid) const;

    /** Unique-model id of spec @p spec_idx. */
    std::size_t uniqueIdOfSpec(std::size_t spec_idx) const;

    /** Unique-model id of instance @p instance_idx. */
    std::size_t uniqueIdOfInstance(std::size_t instance_idx) const;

    /** Total schedulable layers across all instances (O(1)). */
    std::size_t totalLayers() const { return cachedTotalLayers; }

    /** Total MACs across all instances (O(1)). */
    std::uint64_t totalMacs() const { return cachedTotalMacs; }

    /** True when any instance arrives after cycle 0. */
    bool hasArrivals() const;

    /** True when any instance carries a finite deadline. */
    bool hasDeadlines() const;

  private:
    std::string wlName;
    std::vector<ModelSpec> modelSpecs;
    std::vector<Instance> insts;

    // Unique-model index (see accessors above). specUniqueId maps a
    // spec to its unique-model id; uniqueSpec maps a unique-model id
    // back to the first spec carrying that model.
    std::vector<std::size_t> specUniqueId;
    std::vector<std::size_t> uniqueSpec;

    std::size_t cachedTotalLayers = 0;
    std::uint64_t cachedTotalMacs = 0;

    /** Dedup @p model against uniqueSpec; records the new spec. */
    void registerSpec(const dnn::Model &model, int copies);
};

/** Frame period in cycles for @p fps at dnn::kClockGHz. */
double fpsPeriodCycles(double fps);

/** AR/VR-A: Resnet50 x2, UNet x4, MobileNetV2 x4 (Table II). */
Workload arvrA();

/** AR/VR-B: adds Br-Q Handpose x2 and DepthNet x2 (Table II). */
Workload arvrB();

/** MLPerf multi-stream: 5 models, @p batch copies each (Table II). */
Workload mlperf(int batch = 1);

/**
 * Real-time AR/VR-A: the Table II mix as periodic frame streams —
 * MobileNetV2 @ 60 FPS, UNet @ 30 FPS, Resnet50 @ 15 FPS — over a
 * horizon of @p frames60 60-FPS frames. Deadlines
 * are implicit (one period).
 */
Workload arvrA60fps(int frames60 = 4);

/**
 * Mixed-rate multi-tenant scenario: a latency-critical AR/VR tenant
 * (MobileNetV2 + Br-Q Handpose @ 60 FPS, DepthNet @ 30 FPS) sharing
 * the chip with a best-effort MLPerf tenant (Resnet50 + SSD-MobileNet
 * batch jobs, no deadlines).
 */
Workload mixedTenantScenario(int frames60 = 2);

/**
 * Over-subscribed variants: the same stream mixes pushed past what
 * an edge-class chip can sustain, for exercising slack-aware
 * scheduling (LST) and drop policies. Frame rates are multiplied by
 * @p overload (arrivals @p overload x denser, relative deadlines
 * shrunk by the same factor), and each mix gains a heavy low-slack
 * straggler — a frame whose deadline is *late* in absolute terms but
 * whose execution time nearly fills it, the shape that separates
 * least-slack from earliest-deadline dispatch under pressure.
 */
Workload arvrAOverloaded(int frames60 = 8, double overload = 4.0);

/** Over-subscribed mixedTenantScenario (see arvrAOverloaded). */
Workload mixedTenantOverloaded(int frames60 = 8,
                               double overload = 6.0);

/**
 * Factory-floor inspection mix for fault-injection studies: three
 * periodic streams (MobileNetV2 @ 60 FPS, Br-Q Handpose @ 30 FPS,
 * Resnet50 @ 15 FPS) with multi-period deadlines — enough slack that
 * an edge-class 2-way HDA meets every deadline fault-free AND a
 * fault-aware scheduler can re-home work onto the survivor when a
 * sub-accelerator dies — plus one best-effort batch job (no
 * deadline) that exercises graceful degradation when capacity runs
 * out entirely. Paired with sched::factoryFaultTimeline() by
 * bench/bench_faults.cc and the fault tests.
 */
Workload faultedFactory(int frames60 = 4);

/**
 * Over-subscribed interactive mix: two heavy loose-SLA analytics
 * jobs (long individual layers) sharing the chip with a dense
 * tight-deadline interactive frame stream whose arrivals land in the
 * middle of the heavy layers. This is the shape where dispatch-loop
 * preemption points (sched::Preemption::AtLayerBoundary) win: a
 * run-to-completion scheduler greedily commits the long heavy layer
 * across the interactive arrival and the frame then queues behind
 * it past its deadline, while a preemption point holds the
 * sub-accelerator for the urgent arrival and slips the heavy layer
 * in afterwards. Frame rate is 60 FPS x @p overload with deadlines
 * well under one period.
 */
Workload interactiveOverloaded(int frames60 = 8,
                               double overload = 4.0);

/**
 * Shifting-load factory scenario for elastic repartitioning
 * (sched::ReconfigOptions): two tenants with opposite dataflow
 * affinity on an NVDLA+Shi-diannao HDA, each heavy in a different
 * half of the run. Tenant A (Br-Q Handpose, NVDLA-affine) streams a
 * dense deadline-bearing first phase; tenant B (UNet, the one
 * Shi-affine model in the zoo) lands its heavy deadline-bearing
 * frames in the second phase. No static PE split serves both phases
 * — a big NVDLA side meets phase 1 and starves phase 2, and vice
 * versa — which is exactly the gap runtime PE migration closes.
 * @p frames scales tenant A's stream (tenant B gets ~frames/8
 * frames); calibrated against the edge-class chip.
 */
Workload shiftingLoadFactory(int frames = 16);

} // namespace herald::workload

