/**
 * @file
 * Lazy arrival streams for the online serving engine.
 *
 * workload::Workload materializes every frame of a periodic stream up
 * front, which is exactly what an unbounded serving scenario cannot
 * afford: a million-frame soak would allocate a million Instance
 * records before the first layer is scheduled. An ArrivalSource holds
 * only the per-stream generators (model, period, relative deadline,
 * phase, frame budget) and emits frames one at a time in globally
 * nondecreasing arrival order (ties broken by stream index, then
 * frame index — the same deterministic order a materialized workload
 * lists them in), so the driver feeds OnlineScheduler::submit()
 * without ever holding more than O(streams) state.
 *
 * materialize() replays the same merge into a finite
 * workload::Workload — the bridge the equivalence suite uses to
 * compare an online run against the offline HeraldScheduler oracle
 * on the identical frame sequence.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dnn/model.hh"
#include "workload/workload.hh"

namespace herald::sched
{

/** See file comment. */
class ArrivalSource
{
  public:
    /** Stream frame budget meaning "never stops". */
    static constexpr std::uint64_t kUnboundedFrames = UINT64_MAX;

    /** One emitted frame. */
    struct Frame
    {
        std::size_t streamIdx = 0;  //!< also the model index
        std::uint64_t frameIdx = 0; //!< ordinal within its stream
        double arrivalCycle = 0.0;
        /** Absolute deadline; workload::kNoDeadline when none. */
        double deadlineCycle = workload::kNoDeadline;
    };

    /** One periodic generator. */
    struct Stream
    {
        dnn::Model model;
        double periodCycles = 0.0;
        double relDeadlineCycles = 0.0; //!< 0 = no deadline
        double phaseCycles = 0.0;
        std::uint64_t frames = kUnboundedFrames;
    };

    /**
     * Add a periodic stream: frame f arrives at phase + f * period
     * with absolute deadline arrival + rel_deadline (no deadline when
     * @p rel_deadline_cycles is 0). A finite @p frames caps the
     * stream; kUnboundedFrames never stops. Cycle arithmetic is
     * guarded against workload::kMaxCycle exactly like
     * Workload::addPeriodicModel. Returns the stream index.
     */
    std::size_t addStream(dnn::Model model, double period_cycles,
                          double rel_deadline_cycles = 0.0,
                          double phase_cycles = 0.0,
                          std::uint64_t frames = kUnboundedFrames);

    const std::vector<Stream> &streams() const { return streamList; }

    /** Stream models in stream order (OnlineScheduler's model set). */
    std::vector<dnn::Model> models() const;

    /** True once every (finite) stream has emitted its last frame. */
    bool exhausted() const;

    /** The next frame in merge order without consuming it. */
    Frame peek() const;

    /** Emit and consume the next frame in merge order. */
    Frame next();

    /** Frames emitted by next() since construction / reset(). */
    std::uint64_t emitted() const { return emittedCount; }

    /** Rewind every stream to its first frame. */
    void reset();

    /**
     * Replay the merge from the start into a finite Workload named
     * @p name — one instance per frame, in emission order, with the
     * same arrivals and (relative) deadlines. Requires every stream
     * to be finite; the cursor state of this source is untouched.
     */
    workload::Workload materialize(const std::string &name) const;

  private:
    std::vector<Stream> streamList;
    std::vector<std::uint64_t> cursor; //!< next frame per stream
    std::uint64_t emittedCount = 0;

    /** Frame @p f of stream @p s (arrival/deadline arithmetic). */
    Frame frameOf(std::size_t s, std::uint64_t f) const;

    /** Stream emitting next (streamList.size() when exhausted). */
    std::size_t
    nextStream(const std::vector<std::uint64_t> &cur) const;
};

} // namespace herald::sched
