/**
 * @file
 * Precomputed layer-cost tables for the scheduler's hot loop.
 *
 * A schedule() run queries the cost of every (layer, sub-accelerator)
 * pair it considers. Real-time workloads make those queries massively
 * redundant: addPeriodicModel expands "model @ FPS for K frames" into
 * thousands of instances of the same few models, so the same (layer
 * shape, sub-acc) cost is needed over and over. The CostModel cache
 * absorbs the recomputation but still charges a locked map lookup per
 * query.
 *
 * A LayerCostTable collapses that to pure index arithmetic: before
 * the scheduling loop starts, every (unique layer x sub-acc) cost is
 * evaluated exactly once into a dense array, together with the per-
 * layer metric values and the metric-sorted sub-accelerator order the
 * assignment loop needs — so the loop performs no hashing, takes no
 * locks, and allocates nothing per layer. The prefill fans out over a
 * util::ThreadPool when the table is large enough to amortize the
 * workers (big single-candidate runs; inside the DSE's partition
 * sweep each candidate builds its table serially on its own worker).
 *
 * The table stores exactly what accel::evaluateOnSubAcc returns, so
 * schedules built from it are bit-identical to schedules that query
 * the cost model per layer.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "accel/rda.hh"
#include "sched/metric.hh"
#include "workload/workload.hh"

namespace herald::sched
{

/**
 * Cross-candidate cache of LayerCostTable *columns*: the vector of
 * per-unique-layer StyledLayerCosts of one sub-accelerator, keyed on
 * everything the column is a pure function of — the sub-
 * accelerator's dataflow style (or flexibility), its resource
 * identity (cost::SubAccResources::identity(), the same one the
 * CostModel keys on), and the RDA overhead coefficients. The
 * workload's unique-layer set and the CostModel's coefficients are
 * deliberately NOT part of the key: a cache instance is bound on
 * first use to one workload's row geometry (each row's
 * dnn::CanonicalConv::identity()) and one cost::CostModel::identity()
 * (fatal on a later mismatch of either) and shared across the many
 * accelerator candidates the DSE schedules against that workload.
 *
 * Why columns and not per-layer costs: the CostModel already
 * memoizes per-(layer, style, resources) evaluations, but a table
 * prefill still pays one locked map lookup per entry —
 * rows x sub-accs of them per candidate. Neighboring DSE candidates
 * (an annealing move, a shared axis value of the exhaustive grid)
 * mostly re-request identical columns, so caching at column
 * granularity collapses the whole per-column prefill to one lookup
 * plus a copy (see docs/DSE.md).
 *
 * Thread safety: find/insert may race from any number of
 * Herald::explore workers. One mutex guards the map, the binding and
 * the counters; a sweep probes once per sub-accelerator per
 * candidate against ~1 ms of scheduling, so the lock is uncontended.
 * Map nodes are never erased and columns are immutable once
 * published, so a found column stays valid for the cache's lifetime.
 * On an insert race the first writer wins — both racers computed the
 * identical pure-function column, so the cache stays deterministic.
 */
class CostColumnCache
{
  public:
    /** One column: rows entries in unique-layer row order. */
    using Column = std::vector<accel::StyledLayerCost>;

    /** Hit/miss counters (for bench reporting). */
    struct Stats
    {
        std::size_t hits = 0;
        std::size_t misses = 0;
    };

    Stats stats() const;

    /** Distinct columns currently cached. */
    std::size_t size() const;

  private:
    friend class LayerCostTable;

    /** Style, flexibility, resource identity, RDA coefficients. */
    using Key = std::array<std::uint64_t, 13>;

    /** Everything the column of @p sub on @p res is a function of. */
    static Key keyOf(const accel::SubAccelerator &sub,
                     const cost::SubAccResources &res,
                     const accel::RdaOverheads &rda);

    /** Cached column for @p key, or nullptr (counts the probe). */
    const Column *find(const Key &key);

    /** Publish @p column; an earlier racer's identical copy wins. */
    void insert(const Key &key, Column column);

    /**
     * Bind the cache to @p wl's unique-layer geometry and @p model's
     * identity on first use; fatal when a later build disagrees —
     * sharing one cache across workloads or cost models would
     * silently serve wrong columns.
     */
    void bind(const workload::Workload &wl,
              const cost::CostModel &model);

    mutable std::mutex mutex;
    std::map<Key, Column> columns;
    /** Per-row dnn::CanonicalConv::identity(); empty until bound. */
    std::vector<std::array<std::uint64_t, 9>> rowGeometry;
    /** cost::CostModel::identity(); meaningful once bound. */
    std::array<std::uint64_t, 10> modelIdentity{};
    Stats counts;
};

/** See file comment. */
class LayerCostTable
{
  public:
    /**
     * Evaluate every (unique layer, sub-accelerator) pair of @p wl on
     * @p acc. @p num_threads controls the prefill fan-out: 1 forces
     * the serial path, 0 resolves via HERALD_THREADS then hardware
     * concurrency; a pool is only spun up when the missing-entry
     * count reaches kMinParallelEvals.
     *
     * With a non-null @p cache, whole columns are fetched from (and
     * newly evaluated columns published to) the cross-candidate
     * CostColumnCache instead of being re-evaluated per candidate.
     * The resulting table is bit-identical to an uncached build —
     * columns are pure functions of their key — which
     * tests/test_dse_engine.cc asserts on a randomized candidate
     * sweep.
     */
    static LayerCostTable build(cost::CostModel &model,
                                const workload::Workload &wl,
                                const accel::Accelerator &acc,
                                Metric metric,
                                const accel::RdaOverheads &rda,
                                std::size_t num_threads = 1,
                                CostColumnCache *cache = nullptr);

    /**
     * Re-evaluate only the (layer x sub-acc) costs of the listed
     * @p columns against @p acc's current resource split, then
     * recompute every derived quantity that depends on them (metric
     * values, per-row sub-acc order, optimistic minima, remaining-
     * work suffix sums). This is the epoch-swap path of elastic
     * repartitioning: after a PE/buffer migration only the donor and
     * receiver columns changed, so the other columns' entries are
     * reused verbatim. Rows are independent pure functions, so the
     * threaded refill is bit-identical to the serial one. @p acc
     * must have the same sub-accelerator arity (and @p wl the same
     * unique-model set) the table was built with — fatal otherwise.
     */
    void rebuildColumns(cost::CostModel &model,
                        const workload::Workload &wl,
                        const accel::Accelerator &acc, Metric metric,
                        const accel::RdaOverheads &rda,
                        const std::vector<std::size_t> &columns,
                        std::size_t num_threads = 1);

    /** Sub-accelerator count the table was built for. */
    std::size_t numSubAccs() const { return nAcc; }

    /** Total rows: unique layers summed over unique models. */
    std::size_t numUniqueLayers() const
    {
        return nAcc == 0 ? 0 : entries.size() / nAcc;
    }

    /** Row id of layer @p layer of unique model @p uid. */
    std::size_t
    rowOf(std::size_t uid, std::size_t layer) const
    {
        return modelOffset[uid] + layer;
    }

    /** Cost of row @p row on sub-accelerator @p a. */
    const accel::StyledLayerCost &
    cost(std::size_t row, std::size_t a) const
    {
        return entries[row * nAcc + a];
    }

    /** Assignment-metric value of row @p row on sub-acc @p a. */
    double
    metric(std::size_t row, std::size_t a) const
    {
        return metrics[row * nAcc + a];
    }

    /**
     * Sub-accelerator indices of row @p row sorted by ascending
     * metric (numSubAccs() entries), exactly as the per-layer sort of
     * the reference scheduler would order them.
     */
    const std::size_t *
    order(std::size_t row) const
    {
        return &orders[row * nAcc];
    }

    /** Optimistic (minimum over sub-accs) cycles of row @p row. */
    double minCycles(std::size_t row) const { return minCyc[row]; }

    /**
     * Optimistic remaining work of unique model @p uid from layer
     * @p layer (inclusive) to the last layer: the sum of each
     * remaining layer's best-case (minimum over sub-accelerators)
     * cycles — a lower bound on the residual serial execution of the
     * dependence chain on any schedule. @p layer == numLayers()
     * returns 0. Slack-aware instance selection (LST) and the
     * hopeless-frame drop test are built on this.
     */
    double
    remainingCycles(std::size_t uid, std::size_t layer) const
    {
        // Per-model segments carry a trailing 0 sentinel, hence the
        // "+ uid" shift over the shared row offsets.
        return remSuffix[modelOffset[uid] + uid + layer];
    }

    /**
     * Degraded-capacity view: the optimistic per-row minimum and the
     * remaining-work suffix sums recomputed with permanently failed
     * sub-accelerator columns masked out. The doom/hopeless
     * feasibility proofs re-prove against this once capacity is
     * lost — the pristine table's "best sub-accelerator" lower
     * bound is no longer a bound when that sub-accelerator is dead.
     * Rows with every column masked report +infinity (no
     * continuation exists). The view borrows the table; rebuild() is
     * O(rows x sub-accs).
     */
    class DegradedView
    {
      public:
        /** Identity view (equals the pristine table). */
        explicit DegradedView(const LayerCostTable &table);

        /** Recompute with column @p a removed when dead[a] != 0. */
        void rebuild(const std::vector<char> &dead);

        /** Degraded counterpart of LayerCostTable::minCycles. */
        double minCycles(std::size_t row) const
        {
            return minCycDeg[row];
        }

        /** Degraded counterpart of remainingCycles (may be +inf). */
        double
        remainingCycles(std::size_t uid, std::size_t layer) const
        {
            return remSuffixDeg[table->modelOffset[uid] + uid +
                                layer];
        }

      private:
        const LayerCostTable *table;
        std::vector<double> minCycDeg;
        std::vector<double> remSuffixDeg;
    };

    /**
     * Below this entry count the prefill always runs serially:
     * unique-layer tables are small, warm-cache fills take
     * microseconds, and spawning/joining a pool would dominate. The
     * fan-out is for big cold single-candidate runs (large model
     * zoos x several sub-accelerators).
     */
    static constexpr std::size_t kMinParallelEvals = 1024;

  private:
    /**
     * Evaluate the listed @p columns of every row against @p acc,
     * recompute each row's derived state (metric values, metric-
     * sorted order, minimum over all columns — those read every
     * column, listed or not), then re-fold the suffix sums. Rows are
     * independent pure functions of (layer, acc), so the threaded
     * fill is bit-identical to the serial one; the pool only spins up
     * when rows x columns reaches kMinParallelEvals.
     */
    void fill(cost::CostModel &model, const workload::Workload &wl,
              const accel::Accelerator &acc, Metric metric,
              const accel::RdaOverheads &rda,
              const std::vector<std::size_t> &columns,
              std::size_t num_threads);

    /**
     * Per-model remaining-work suffix sums of the per-row @p min
     * into @p suffix (one trailing 0 per model segment). inf is
     * absorbing: a chain through an unrunnable layer has no finite
     * bound.
     */
    static void foldSuffix(const std::vector<std::size_t> &modelOffset,
                           const std::vector<double> &min,
                           std::vector<double> &suffix);

    std::size_t nAcc = 0;
    std::vector<std::size_t> modelOffset; //!< per unique model
    std::vector<accel::StyledLayerCost> entries; //!< row-major
    std::vector<double> metrics;                 //!< row-major
    std::vector<std::size_t> orders;             //!< row-major
    std::vector<double> minCyc;      //!< per row, min over sub-accs
    /** Per-model min-cycle suffix sums, 0-terminated per segment. */
    std::vector<double> remSuffix;
};

} // namespace herald::sched

