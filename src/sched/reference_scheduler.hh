/**
 * @file
 * The pre-rewrite Herald scheduler, kept verbatim as a verification
 * oracle: per-layer cost-model queries, O(n_instances) selection
 * scans, per-pass state rebuilds in post-processing, and the flat
 * (quadratic-insert) memory tracker.
 *
 * NOT part of libherald — this translation unit is compiled into the
 * separate herald_sched_reference library that only the tests and
 * benchmarks link (ISSUE: "reference implementation behind a
 * test-only flag"). tests/test_sched_equivalence.cc asserts
 * HeraldScheduler::schedule() is bit-identical to this on every
 * scenario; bench_sched_throughput uses it as the speedup baseline.
 *
 * It also freezes the restart-from-0 idle-time post-processing
 * (referencePostProcessIdleTime), the oracle for the production
 * pass's resumed gap-fill scan.
 */

#pragma once

#include "sched/herald_scheduler.hh"

namespace herald::sched
{

/**
 * Schedule @p wl on @p acc with the pre-rewrite implementation under
 * @p opts (prefillThreads is ignored — there is no table to
 * prefill).
 */
Schedule referenceSchedule(cost::CostModel &model,
                           const SchedulerOptions &opts,
                           const workload::Workload &wl,
                           const accel::Accelerator &acc);

/**
 * The idle-time post-processing of HeraldScheduler as it was before
 * its gap-fill scan learned to resume after a move: fault pinning,
 * reconfiguration-window checks and the context-penalty guard
 * included, but every gap-fill move restarts the scan at position 0.
 * Applied to a schedule built with postProcess = false it must give
 * a schedule bit-identical to HeraldScheduler::schedule() with
 * postProcess = true under the same @p opts.
 */
void referencePostProcessIdleTime(Schedule &schedule,
                                  const workload::Workload &wl,
                                  const accel::Accelerator &acc,
                                  const SchedulerOptions &opts);

} // namespace herald::sched

