/**
 * @file
 * Heap-allocation budget of the dispatch engine's per-layer path.
 * Every committed layer re-keys its frame in the ready set (LST) and,
 * under DropPolicy::DoomedFrames, in the doom set. Both sets are
 * ChunkedKeySets, which keep the storage of every chunk they drop, so
 * past their peak size the dispatch loop allocates neither per frame
 * nor per layer: 45 and 54 allocations in all for the 171,600 layers
 * of the two scenarios below (0.00026 and 0.00031 per layer).
 *
 * Its own binary: it replaces the global operator new / delete with a
 * counting malloc / free pair, which must touch no other test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "accel/accelerator.hh"
#include "dnn/model_zoo.hh"
#include "sched/arrival_source.hh"
#include "sched/herald_scheduler.hh"
#include "sched/layer_cost_table.hh"
#include "sched/online_scheduler.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedMalloc(std::size_t size) noexcept
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedNew(std::size_t size)
{
    if (void *p = countedMalloc(size))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every unaligned form, so no allocation bypasses the count and no
// runtime-provided form (a sanitizer's, say) frees a malloc block.
void *operator new(std::size_t size) { return countedNew(size); }
void *operator new[](std::size_t size) { return countedNew(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace
{

using namespace herald;

/**
 * Bound on heap allocations per committed layer: one allocation per
 * released frame (0.049 and 0.025 per layer with std::set nodes)
 * breaks it.
 */
constexpr double kMaxAllocsPerLayer = 0.005;

/** The 2-way NVDLA + Shi-diannao HDA on the edge chip. */
accel::Accelerator
edgeHda()
{
    const accel::AcceleratorClass chip = accel::edgeClass();
    return accel::Accelerator::makeHda(
        chip,
        {dataflow::DataflowStyle::NVDLA,
         dataflow::DataflowStyle::ShiDiannao},
        {chip.numPes / 2, chip.numPes / 2},
        {chip.bwGBps / 2, chip.bwGBps / 2});
}

/**
 * The factory mix (MobileNetV2 @60, BR-Q HandposeNet @30, ResNet-50
 * @15 FPS; deadlines of 3, 2 and 1.5 periods) at 2.3x its rates: near
 * the edge HDA's capacity, so a backlog forms and LST keys move.
 */
sched::ArrivalSource
factoryStreams()
{
    constexpr double kRate = 2.3;
    constexpr std::uint64_t kFrames60 = 2400;
    struct Spec
    {
        dnn::Model (*make)();
        double fps;
        double deadlinePeriods;
        std::uint64_t frames;
    };
    const Spec specs[] = {
        {dnn::mobileNetV2, 60.0, 3.0, kFrames60},
        {dnn::brqHandposeNet, 30.0, 2.0, kFrames60 / 2},
        {dnn::resnet50, 15.0, 1.5, kFrames60 / 4},
    };
    sched::ArrivalSource src;
    for (const Spec &s : specs) {
        const double period = workload::fpsPeriodCycles(s.fps) / kRate;
        src.addStream(s.make(), period, s.deadlinePeriods * period, 0.0,
                      s.frames);
    }
    return src;
}

sched::SchedulerOptions
lstOptions()
{
    sched::SchedulerOptions o;
    o.policy = sched::Policy::Lst;
    o.preemption = sched::Preemption::AtLayerBoundary;
    o.postProcess = false;
    o.prefillThreads = 1;
    return o;
}

class OnlineAllocTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::setVerbose(false); }

    cost::CostModel model;
};

TEST_F(OnlineAllocTest, StreamingLstDoomedFramesAllocatesPerFrameNotPerLayer)
{
    sched::ArrivalSource src = factoryStreams();
    sched::OnlineOptions oopts;
    oopts.sched = lstOptions();
    oopts.sched.dropPolicy = sched::DropPolicy::DoomedFrames;
    oopts.maxLiveFrames = 4096;
    oopts.horizonCycles = 5e7;
    sched::OnlineScheduler eng(model, src.models(), edgeHda(), oopts);

    const std::uint64_t before = allocations.load();
    while (!src.exhausted()) {
        const sched::ArrivalSource::Frame f = src.next();
        eng.submit(f.streamIdx, f.arrivalCycle, f.deadlineCycle);
    }
    eng.drain();
    const std::uint64_t allocs = allocations.load() - before;

    const sched::OnlineStats st = eng.stats();
    ASSERT_EQ(st.submittedFrames, src.emitted());
    ASSERT_EQ(st.rejectedFrames, 0u);
    ASSERT_GT(st.committedLayers, 100000u);
    const double per_layer = static_cast<double>(allocs) /
                             static_cast<double>(st.committedLayers);
    EXPECT_LT(per_layer, kMaxAllocsPerLayer)
        << allocs << " allocations for " << st.committedLayers
        << " committed layers";
}

TEST_F(OnlineAllocTest, BatchLstAllocatesPerFrameNotPerLayer)
{
    const workload::Workload wl = factoryStreams().materialize("factory");
    const accel::Accelerator acc = edgeHda();
    const sched::SchedulerOptions opts = lstOptions();
    const sched::LayerCostTable table = sched::LayerCostTable::build(
        model, wl, acc, opts.metric, opts.rdaOverheads,
        opts.prefillThreads);
    const sched::HeraldScheduler scheduler(model, opts);

    const std::uint64_t before = allocations.load();
    const sched::Schedule s = scheduler.schedule(wl, acc, table);
    const std::uint64_t allocs = allocations.load() - before;

    ASSERT_GT(s.entries().size(), 100000u);
    const double per_layer = static_cast<double>(allocs) /
                             static_cast<double>(s.entries().size());
    EXPECT_LT(per_layer, kMaxAllocsPerLayer)
        << allocs << " allocations for " << s.entries().size()
        << " committed layers";
}

} // namespace
