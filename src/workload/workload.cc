#include "workload/workload.hh"

#include <algorithm>
#include <cmath>

#include "dnn/model_zoo.hh"
#include "util/logging.hh"

namespace herald::workload
{

namespace
{

/**
 * Structural model equality: same name, layer count, and per-layer
 * kind + canonical geometry. Layer display names are ignored — cost
 * and scheduling behaviour depend on the geometry only.
 */
bool
modelsStructurallyEqual(const dnn::Model &a, const dnn::Model &b)
{
    if (a.name() != b.name() || a.numLayers() != b.numLayers())
        return false;
    for (std::size_t i = 0; i < a.numLayers(); ++i) {
        const dnn::Layer &la = a.layer(i);
        const dnn::Layer &lb = b.layer(i);
        if (la.kind() != lb.kind() ||
            la.canonical().identity() != lb.canonical().identity())
            return false;
    }
    return true;
}

} // namespace

void
Workload::registerSpec(const dnn::Model &model, int copies)
{
    std::size_t spec_idx = modelSpecs.size() - 1;
    std::size_t uid = uniqueSpec.size();
    for (std::size_t u = 0; u < uniqueSpec.size(); ++u) {
        if (modelsStructurallyEqual(modelSpecs[uniqueSpec[u]].model,
                                    model)) {
            uid = u;
            break;
        }
    }
    if (uid == uniqueSpec.size())
        uniqueSpec.push_back(spec_idx);
    specUniqueId.push_back(uid);

    // Guard the 64-bit MAC accumulator: "model @ FPS for K frames"
    // with a huge K can wrap copies * totalMacs() (or the running
    // sum) and corrupt every downstream throughput statistic.
    const std::uint64_t macs = model.totalMacs();
    const std::uint64_t n = static_cast<std::uint64_t>(copies);
    if (macs > 0 &&
        n > std::numeric_limits<std::uint64_t>::max() / macs)
        util::fatal("workload '", wlName, "': ", copies, " copies of '",
                    model.name(), "' overflow the 64-bit MAC counter");
    const std::uint64_t add = n * macs;
    if (cachedTotalMacs >
        std::numeric_limits<std::uint64_t>::max() - add)
        util::fatal("workload '", wlName,
                    "': total MACs overflow the 64-bit counter at '",
                    model.name(), "'");
    cachedTotalLayers +=
        static_cast<std::size_t>(copies) * model.numLayers();
    cachedTotalMacs += add;
}

void
Workload::addModel(dnn::Model model, int batches,
                   double arrival_cycle, double deadline_cycles)
{
    if (batches < 1)
        util::fatal("workload '", wlName, "': batches must be >= 1");
    if (model.numLayers() == 0)
        util::fatal("workload '", wlName, "': empty model '",
                    model.name(), "'");
    // NaN slips through ordered comparisons (every one is false), so
    // finiteness is tested explicitly — a NaN arrival would silently
    // poison every release/deadline comparison downstream.
    if (!std::isfinite(arrival_cycle) || arrival_cycle < 0.0)
        util::fatal("workload '", wlName,
                    "': arrival must be finite and >= 0, got ",
                    arrival_cycle);
    if (!std::isfinite(deadline_cycles) || deadline_cycles < 0.0)
        util::fatal("workload '", wlName,
                    "': deadline must be finite and >= 0, got ",
                    deadline_cycles);
    if (arrival_cycle + deadline_cycles > kMaxCycle)
        util::fatal("workload '", wlName,
                    "': arrival + deadline exceeds the ", kMaxCycle,
                    "-cycle limit, got ",
                    arrival_cycle + deadline_cycles);
    std::size_t spec_idx = modelSpecs.size();
    for (int b = 0; b < batches; ++b) {
        Instance inst;
        inst.specIdx = spec_idx;
        inst.batchIdx = b;
        inst.name = model.name() + "#" + std::to_string(b + 1);
        inst.arrivalCycle = arrival_cycle;
        inst.deadlineCycle = deadline_cycles > 0.0
                                 ? arrival_cycle + deadline_cycles
                                 : kNoDeadline;
        insts.push_back(std::move(inst));
    }
    RealtimeSpec rt;
    rt.deadlineCycles = deadline_cycles;
    modelSpecs.push_back(ModelSpec{std::move(model), batches, rt});
    registerSpec(modelSpecs.back().model, batches);
}

void
Workload::addPeriodicModel(dnn::Model model, int frames,
                           double period_cycles,
                           double deadline_cycles,
                           double phase_cycles)
{
    if (frames < 1)
        util::fatal("workload '", wlName, "': frames must be >= 1");
    if (model.numLayers() == 0)
        util::fatal("workload '", wlName, "': empty model '",
                    model.name(), "'");
    if (!std::isfinite(period_cycles) || period_cycles <= 0.0)
        util::fatal("workload '", wlName,
                    "': period must be finite and > 0, got ",
                    period_cycles);
    if (!std::isfinite(deadline_cycles) || deadline_cycles < 0.0)
        util::fatal("workload '", wlName,
                    "': deadline must be finite and >= 0, got ",
                    deadline_cycles);
    if (!std::isfinite(phase_cycles) || phase_cycles < 0.0)
        util::fatal("workload '", wlName,
                    "': phase must be finite and >= 0, got ",
                    phase_cycles);
    const double rel_deadline =
        deadline_cycles > 0.0 ? deadline_cycles : period_cycles;
    // Reject streams whose cycle arithmetic would leave the 2^53
    // integer-exact range: past it, arrival = phase + f*period stops
    // resolving individual cycles and frames silently alias. The
    // check covers the last frame's deadline, the largest value the
    // stream ever produces.
    const double last_cycle = phase_cycles +
                              static_cast<double>(frames - 1) *
                                  period_cycles +
                              rel_deadline;
    if (!(last_cycle <= kMaxCycle))
        util::fatal("workload '", wlName, "': stream of ", frames,
                    " frames overflows the ", kMaxCycle,
                    "-cycle limit, got last deadline ", last_cycle);
    std::size_t spec_idx = modelSpecs.size();
    for (int f = 0; f < frames; ++f) {
        Instance inst;
        inst.specIdx = spec_idx;
        inst.batchIdx = f;
        inst.name = model.name() + "#" + std::to_string(f + 1);
        inst.arrivalCycle =
            phase_cycles + static_cast<double>(f) * period_cycles;
        inst.deadlineCycle = inst.arrivalCycle + rel_deadline;
        insts.push_back(std::move(inst));
    }
    RealtimeSpec rt;
    rt.periodCycles = period_cycles;
    rt.deadlineCycles = rel_deadline;
    modelSpecs.push_back(ModelSpec{std::move(model), frames, rt});
    registerSpec(modelSpecs.back().model, frames);
}

const dnn::Model &
Workload::modelOf(std::size_t instance_idx) const
{
    if (instance_idx >= insts.size())
        util::panic("workload '", wlName, "': instance ", instance_idx,
                    " out of range");
    return modelSpecs[insts[instance_idx].specIdx].model;
}

const dnn::Model &
Workload::uniqueModel(std::size_t uid) const
{
    if (uid >= uniqueSpec.size())
        util::panic("workload '", wlName, "': unique model ", uid,
                    " out of range");
    return modelSpecs[uniqueSpec[uid]].model;
}

std::size_t
Workload::uniqueIdOfSpec(std::size_t spec_idx) const
{
    if (spec_idx >= specUniqueId.size())
        util::panic("workload '", wlName, "': spec ", spec_idx,
                    " out of range");
    return specUniqueId[spec_idx];
}

std::size_t
Workload::uniqueIdOfInstance(std::size_t instance_idx) const
{
    if (instance_idx >= insts.size())
        util::panic("workload '", wlName, "': instance ",
                    instance_idx, " out of range");
    return specUniqueId[insts[instance_idx].specIdx];
}

bool
Workload::hasArrivals() const
{
    for (const Instance &inst : insts) {
        if (inst.arrivalCycle > 0.0)
            return true;
    }
    return false;
}

bool
Workload::hasDeadlines() const
{
    for (const Instance &inst : insts) {
        if (inst.hasDeadline())
            return true;
    }
    return false;
}

double
fpsPeriodCycles(double fps, double clock_ghz)
{
    if (!std::isfinite(fps) || fps <= 0.0 ||
        !std::isfinite(clock_ghz) || clock_ghz <= 0.0)
        util::fatal("fpsPeriodCycles: fps and clock must be finite "
                    "and > 0");
    const double period = clock_ghz * 1e9 / fps;
    if (!(period <= kMaxCycle))
        util::fatal("fpsPeriodCycles: period exceeds the ", kMaxCycle,
                    "-cycle limit, got ", period);
    return period;
}

Workload
arvrA()
{
    Workload wl("AR/VR-A");
    wl.addModel(dnn::resnet50(), 2);
    wl.addModel(dnn::uNet(), 4);
    wl.addModel(dnn::mobileNetV2(), 4);
    return wl;
}

Workload
arvrB()
{
    Workload wl("AR/VR-B");
    wl.addModel(dnn::resnet50(), 2);
    wl.addModel(dnn::uNet(), 2);
    wl.addModel(dnn::mobileNetV2(), 4);
    wl.addModel(dnn::brqHandposeNet(), 2);
    wl.addModel(dnn::focalLengthDepthNet(), 2);
    return wl;
}

Workload
mlperf(int batch)
{
    Workload wl(batch == 1 ? "MLPerf"
                           : "MLPerf-b" + std::to_string(batch));
    wl.addModel(dnn::resnet50(), batch);
    wl.addModel(dnn::mobileNetV1(), batch);
    wl.addModel(dnn::ssdResnet34(), batch);
    wl.addModel(dnn::ssdMobileNetV1(), batch);
    wl.addModel(dnn::gnmt(), batch);
    return wl;
}

Workload
arvrA60fps(int frames60, double clock_ghz)
{
    if (frames60 < 1)
        util::fatal("arvrA60fps: frames60 must be >= 1");
    Workload wl("AR/VR-A@60fps");
    const double p60 = fpsPeriodCycles(60.0, clock_ghz);
    const double p30 = fpsPeriodCycles(30.0, clock_ghz);
    const double p15 = fpsPeriodCycles(15.0, clock_ghz);
    wl.addPeriodicModel(dnn::mobileNetV2(), frames60, p60);
    wl.addPeriodicModel(dnn::uNet(), std::max(1, frames60 / 2), p30);
    wl.addPeriodicModel(dnn::resnet50(), std::max(1, frames60 / 4),
                        p15);
    return wl;
}

Workload
mixedTenantScenario(int frames60, double clock_ghz)
{
    if (frames60 < 1)
        util::fatal("mixedTenantScenario: frames60 must be >= 1");
    Workload wl("AR/VR+MLPerf tenants");
    const double p60 = fpsPeriodCycles(60.0, clock_ghz);
    const double p30 = fpsPeriodCycles(30.0, clock_ghz);
    // Latency-critical AR/VR tenant.
    wl.addPeriodicModel(dnn::mobileNetV2(), frames60, p60);
    wl.addPeriodicModel(dnn::brqHandposeNet(), frames60, p60);
    wl.addPeriodicModel(dnn::focalLengthDepthNet(),
                        std::max(1, frames60 / 2), p30);
    // Best-effort MLPerf tenant: batch jobs, no deadlines.
    wl.addModel(dnn::resnet50(), 2);
    wl.addModel(dnn::ssdMobileNetV1(), 1);
    return wl;
}

// The over-subscribed scenarios below are calibrated against the
// edge-class chip's optimistic (best-sub-accelerator) runtimes at
// the default parameters: MobileNetV2 ~1.7e6 cycles, Br-Q Handpose
// ~5.7e6, Resnet50 ~1.34e7, FocalLengthDepthNet ~4.85e7, UNet
// ~3.5e8. The straggler deadlines are fixed cycle budgets sized as a
// small multiple of those runtimes — late in absolute terms, tight
// in slack — which is the shape that separates least-slack from
// earliest-deadline dispatch.

Workload
arvrAOverloaded(int frames60, double overload, double clock_ghz)
{
    if (frames60 < 1)
        util::fatal("arvrAOverloaded: frames60 must be >= 1");
    if (overload <= 1.0)
        util::fatal("arvrAOverloaded: overload must be > 1");
    Workload wl("AR/VR-A overloaded");
    const double p = fpsPeriodCycles(60.0, clock_ghz) / overload;
    // Latency-critical light stream: deadline two (shrunk) periods.
    wl.addPeriodicModel(dnn::mobileNetV2(), frames60, p, 2.0 * p);
    // UNet at these rates is hopeless on an edge-class chip (one
    // optimistic frame is ~40x the implicit deadline): admission
    // control (DropPolicy::HopelessFrames) sheds these instead of
    // letting them poison the live streams.
    wl.addPeriodicModel(dnn::uNet(), std::max(1, frames60 / 2),
                        2.0 * p);
    wl.addPeriodicModel(dnn::resnet50(),
                        std::max(1, frames60 / 4), 4.0 * p,
                        8.0 * p);
    // Heavy tight-slack straggler: ~1.6x its optimistic runtime.
    wl.addModel(dnn::resnet50(), 1, /*arrival=*/0.0,
                /*deadline=*/2.14e7);
    return wl;
}

Workload
mixedTenantOverloaded(int frames60, double overload,
                      double clock_ghz)
{
    if (frames60 < 1)
        util::fatal("mixedTenantOverloaded: frames60 must be >= 1");
    if (overload <= 1.0)
        util::fatal("mixedTenantOverloaded: overload must be > 1");
    Workload wl("AR/VR+MLPerf overloaded");
    const double p = fpsPeriodCycles(60.0, clock_ghz) / overload;
    // Latency-critical tenant with relaxed (multi-frame) pipeline
    // deadlines — delaying one frame is tolerable, dropping the
    // whole stream behind a heavy job is not.
    wl.addPeriodicModel(dnn::mobileNetV2(), frames60, p, 3.0 * p);
    wl.addPeriodicModel(dnn::brqHandposeNet(),
                        std::max(1, frames60 / 2), 2.0 * p,
                        6.0 * p);
    // Heavy analytics job with an SLA: a late absolute deadline
    // (~1.7x its optimistic runtime) but the least slack in the mix.
    // Earliest-deadline dispatch procrastinates on it behind the
    // nearer frame deadlines until it cannot finish; least-slack
    // dispatch starts it immediately.
    wl.addModel(dnn::focalLengthDepthNet(), 1, /*arrival=*/0.0,
                /*deadline=*/8.25e7);
    // Best-effort MLPerf tenant: batch job, no deadline.
    wl.addModel(dnn::ssdMobileNetV1(), 1);
    return wl;
}

Workload
faultedFactory(int frames60, double clock_ghz)
{
    if (frames60 < 1)
        util::fatal("faultedFactory: frames60 must be >= 1");
    Workload wl("factory-faulted");
    const double p60 = fpsPeriodCycles(60.0, clock_ghz);
    const double p30 = fpsPeriodCycles(30.0, clock_ghz);
    const double p15 = fpsPeriodCycles(15.0, clock_ghz);
    // Multi-period deadlines: roughly 25% utilization per
    // sub-accelerator of an edge-class 2-way HDA fault-free, so one
    // surviving sub-accelerator still has headroom to absorb
    // re-homed work — the gap a fault-aware scheduler exploits and a
    // fault-oblivious schedule cannot.
    wl.addPeriodicModel(dnn::mobileNetV2(), frames60, p60,
                        3.0 * p60);
    wl.addPeriodicModel(dnn::brqHandposeNet(),
                        std::max(1, frames60 / 2), p30, 2.0 * p30);
    wl.addPeriodicModel(dnn::resnet50(), std::max(1, frames60 / 4),
                        p15, 1.5 * p15);
    // Best-effort batch job: no deadline, so only total capacity
    // exhaustion (every sub-accelerator permanently dead) can stop
    // it — the graceful-degradation force-drop path.
    wl.addModel(dnn::ssdMobileNetV1(), 1);
    return wl;
}

Workload
shiftingLoadFactory(int frames, double clock_ghz)
{
    if (frames < 8)
        util::fatal("shiftingLoadFactory: frames must be >= 8");
    Workload wl("shifting-load factory");
    const double scale = 1.0 / clock_ghz;
    // Phase 1 — tenant A: Br-Q Handpose (NVDLA-affine, ~4.1e6
    // optimistic cycles on a 768-PE NVDLA side, ~6.0e6 at 512) at a
    // rate only a large NVDLA share sustains; the two-period
    // deadline forgives transient backlog but not a steady one.
    const double p1 = 4.5e6 * scale;
    wl.addPeriodicModel(dnn::brqHandposeNet(), frames, p1, 2.0 * p1);
    // Phase 2 — tenant B: UNet (Shi-affine, ~2.6e8 optimistic cycles
    // on a 768-PE Shi side, ~3.8e8 at 512) arriving after tenant A's
    // stream has drained. The deadline sits between the large-share
    // and even-split runtimes, so only a Shi-heavy second half meets
    // it.
    const double p2 = 3.0e8 * scale;
    const double phase2 =
        static_cast<double>(frames) * p1 + 1.0e7 * scale;
    wl.addPeriodicModel(dnn::uNet(), std::max(2, frames / 8), p2,
                        /*deadline=*/3.2e8 * scale,
                        /*phase=*/phase2);
    return wl;
}

Workload
interactiveOverloaded(int frames60, double overload,
                      double clock_ghz)
{
    if (frames60 < 1)
        util::fatal("interactiveOverloaded: frames60 must be >= 1");
    if (overload <= 1.0)
        util::fatal("interactiveOverloaded: overload must be > 1");
    Workload wl("interactive overloaded");
    const double p = fpsPeriodCycles(60.0, clock_ghz) / overload;
    // Heavy analytics pair: FocalLengthDepthNet's individual layers
    // run for multiple interactive periods on the edge chip, so a
    // greedily committed layer spans several frame arrivals. The SLA
    // is loose (roughly 4x one job's optimistic runtime even with
    // both sharing the chip) — these jobs tolerate being interleaved
    // around the frames, they just must not be starved forever.
    wl.addModel(dnn::focalLengthDepthNet(), 2, /*arrival=*/0.0,
                /*deadline=*/4e8);
    // Interactive stream: tiny frames at overload x 60 FPS with a
    // deadline well inside one period (~1.7x the frame's optimistic
    // runtime) and a phase that drops every arrival into the middle
    // of a heavy layer. Run-to-completion dispatch queues each frame
    // behind the heavy layer committed across its arrival; a
    // preemption point serves it at the arrival instead.
    wl.addPeriodicModel(dnn::mobileNetV2(), frames60, p,
                        /*deadline=*/0.7 * p, /*phase=*/0.37 * p);
    return wl;
}

} // namespace herald::workload
