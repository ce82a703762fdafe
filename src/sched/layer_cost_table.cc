#include "sched/layer_cost_table.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.hh"
#include "util/math_utils.hh"
#include "util/thread_pool.hh"

namespace herald::sched
{

CostColumnCache::Stats
CostColumnCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counts;
}

std::size_t
CostColumnCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return columns.size();
}

CostColumnCache::Key
CostColumnCache::keyOf(const accel::SubAccelerator &sub,
                       const cost::SubAccResources &res,
                       const accel::RdaOverheads &rda)
{
    Key key{};
    key[0] = sub.flexible ? 1 : 0;
    key[1] = sub.flexible ? 0 : static_cast<std::uint64_t>(sub.style);
    const std::array<std::uint64_t, 3> id = res.identity();
    std::copy(id.begin(), id.end(), key.begin() + 2);
    key[5] = util::doubleBits(rda.interconnectEnergyTax);
    key[6] = util::doubleBits(rda.reconfigBaseCycles);
    key[7] = util::doubleBits(rda.reconfigCyclesPerPe);
    key[8] = util::doubleBits(rda.reconfigEnergyPerPe);
    return key;
}

const CostColumnCache::Column *
CostColumnCache::find(const Key &key)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = columns.find(key);
    if (it == columns.end()) {
        ++counts.misses;
        return nullptr;
    }
    ++counts.hits;
    return &it->second;
}

void
CostColumnCache::insert(const Key &key, Column column)
{
    std::lock_guard<std::mutex> lock(mutex);
    // emplace keeps the incumbent on a racing double-insert; both
    // racers evaluated the identical pure-function column.
    columns.emplace(key, std::move(column));
}

void
CostColumnCache::bind(const workload::Workload &wl,
                      const cost::CostModel &model)
{
    std::lock_guard<std::mutex> lock(mutex);
    const bool first = rowGeometry.empty();
    if (first)
        modelIdentity = model.identity();
    else if (modelIdentity != model.identity())
        util::fatal("cost column cache: bound to one cost model's "
                    "options and energy coefficients, asked to build "
                    "with another — one cache instance serves one "
                    "cost model");
    bool same = true;
    std::size_t row = 0;
    for (std::size_t u = 0; u < wl.numUniqueModels(); ++u) {
        const dnn::Model &m = wl.uniqueModel(u);
        for (std::size_t l = 0; l < m.numLayers(); ++l, ++row) {
            const auto geometry = m.layer(l).canonical().identity();
            if (first)
                rowGeometry.push_back(geometry);
            else if (row >= rowGeometry.size() ||
                     rowGeometry[row] != geometry)
                same = false;
        }
    }
    if (!same || row != rowGeometry.size())
        util::fatal("cost column cache: bound to a workload with ",
                    rowGeometry.size(), " unique-layer rows, asked to "
                    "build one whose ", row, " rows differ — one cache "
                    "instance serves one workload");
}

LayerCostTable::DegradedView::DegradedView(const LayerCostTable &t,
                                           const std::vector<char> &dead)
    : table(&t), minCycDeg(t.minCyc.size()),
      remSuffixDeg(t.remSuffix.size())
{
    rebuild(dead);
}

void
LayerCostTable::DegradedView::rebuild(const std::vector<char> &dead)
{
    const std::size_t n_acc = table->nAcc;
    if (dead.size() != n_acc)
        util::fatal("degraded view: mask arity mismatch");

    constexpr double inf = std::numeric_limits<double>::infinity();
    for (std::size_t row = 0; row < minCycDeg.size(); ++row) {
        double best = inf;
        for (std::size_t a = 0; a < n_acc; ++a) {
            if (!dead[a])
                best = std::min(
                    best, table->entries[row * n_acc + a].cost.cycles);
        }
        minCycDeg[row] = best;
    }
    foldSuffix(table->modelOffset, minCycDeg, remSuffixDeg);
}

void
LayerCostTable::foldSuffix(const std::vector<std::size_t> &modelOffset,
                           const std::vector<double> &min,
                           std::vector<double> &suffix)
{
    const std::size_t n_models = modelOffset.size();
    for (std::size_t u = 0; u < n_models; ++u) {
        const std::size_t base = modelOffset[u];
        const std::size_t limit =
            u + 1 < n_models ? modelOffset[u + 1] : min.size();
        suffix[limit + u] = 0.0;
        for (std::size_t row = limit; row-- > base;)
            suffix[row + u] = suffix[row + u + 1] + min[row];
    }
}

LayerCostTable
LayerCostTable::build(cost::CostModel &model,
                      const workload::Workload &wl,
                      const accel::Accelerator &acc, Metric metric,
                      const accel::RdaOverheads &rda,
                      std::size_t num_threads, CostColumnCache *cache)
{
    LayerCostTable table;
    table.nAcc = acc.numSubAccs();

    const std::size_t n_models = wl.numUniqueModels();
    table.modelOffset.resize(n_models, 0);
    std::size_t rows = 0;
    for (std::size_t u = 0; u < n_models; ++u) {
        table.modelOffset[u] = rows;
        rows += wl.uniqueModel(u).numLayers();
    }
    table.entries.resize(rows * table.nAcc);
    table.metrics.resize(rows * table.nAcc);
    table.orders.resize(rows * table.nAcc);
    table.minCyc.resize(rows, 0.0);
    table.remSuffix.resize(rows + n_models, 0.0);
    if (rows == 0 || table.nAcc == 0)
        return table;

    // Resolve columns against the cross-candidate cache: copy hits
    // into the table up front, leaving only the missing columns to
    // evaluate. Without a cache every column is missing. A cached
    // column is bit-identical to a re-evaluated one, so cached builds
    // equal cold builds exactly.
    std::vector<std::size_t> missing;
    std::vector<CostColumnCache::Key> keys(table.nAcc);
    if (cache != nullptr)
        cache->bind(wl, model);
    for (std::size_t a = 0; a < table.nAcc; ++a) {
        const CostColumnCache::Column *column = nullptr;
        if (cache != nullptr) {
            keys[a] = CostColumnCache::keyOf(acc.subAccs()[a],
                                             acc.resources(a), rda);
            column = cache->find(keys[a]);
        }
        if (column == nullptr) {
            missing.push_back(a);
            continue;
        }
        for (std::size_t row = 0; row < rows; ++row)
            table.entries[row * table.nAcc + a] = (*column)[row];
    }

    table.fill(model, wl, acc, metric, rda, missing, num_threads);

    // Publish the freshly evaluated columns for later candidates.
    if (cache != nullptr) {
        for (std::size_t a : missing) {
            CostColumnCache::Column column(rows);
            for (std::size_t row = 0; row < rows; ++row)
                column[row] = table.entries[row * table.nAcc + a];
            cache->insert(keys[a], std::move(column));
        }
    }
    return table;
}

void
LayerCostTable::rebuildColumns(cost::CostModel &model,
                               const workload::Workload &wl,
                               const accel::Accelerator &acc,
                               Metric metric,
                               const accel::RdaOverheads &rda,
                               const std::vector<std::size_t> &columns,
                               std::size_t num_threads)
{
    if (acc.numSubAccs() != nAcc)
        util::fatal("layer cost table: rebuildColumns arity mismatch "
                    "(table built for ", nAcc, " sub-accs, got ",
                    acc.numSubAccs(), ")");
    if (wl.numUniqueModels() != modelOffset.size())
        util::fatal("layer cost table: rebuildColumns model-set "
                    "mismatch");
    for (std::size_t a : columns) {
        if (a >= nAcc)
            util::fatal("layer cost table: rebuildColumns column ", a,
                        " out of range");
    }
    fill(model, wl, acc, metric, rda, columns, num_threads);
}

void
LayerCostTable::fill(cost::CostModel &model,
                     const workload::Workload &wl,
                     const accel::Accelerator &acc, Metric metric,
                     const accel::RdaOverheads &rda,
                     const std::vector<std::size_t> &columns,
                     std::size_t num_threads)
{
    // Hoist the per-sub-accelerator resource views out of the fill
    // loop, and map every row back to its layer.
    const std::size_t rows = minCyc.size();
    std::vector<cost::SubAccResources> res(nAcc);
    for (std::size_t a = 0; a < nAcc; ++a)
        res[a] = acc.resources(a);
    std::vector<const dnn::Layer *> layer_of(rows);
    for (std::size_t u = 0; u < modelOffset.size(); ++u) {
        const dnn::Model &m = wl.uniqueModel(u);
        if (modelOffset[u] + m.numLayers() > rows)
            util::fatal("layer cost table: row-count mismatch");
        for (std::size_t l = 0; l < m.numLayers(); ++l)
            layer_of[modelOffset[u] + l] = &m.layer(l);
    }

    auto fill_row = [&](std::size_t row) {
        const dnn::Layer &layer = *layer_of[row];
        const std::size_t base = row * nAcc;
        for (std::size_t a : columns) {
            entries[base + a] = accel::evaluateOnSub(
                model, acc.subAccs()[a], res[a], layer, rda);
        }
        double min_cycles = 0.0;
        for (std::size_t a = 0; a < nAcc; ++a) {
            metrics[base + a] = metricValue(metric, entries[base + a].cost);
            orders[base + a] = a;
            double cycles = entries[base + a].cost.cycles;
            if (a == 0 || cycles < min_cycles)
                min_cycles = cycles;
        }
        minCyc[row] = min_cycles;
        std::sort(orders.begin() + static_cast<std::ptrdiff_t>(base),
                  orders.begin() +
                      static_cast<std::ptrdiff_t>(base + nAcc),
                  [&](std::size_t a, std::size_t b) {
                      return metrics[base + a] < metrics[base + b];
                  });
    };

    std::size_t threads = num_threads == 1
                              ? 1
                              : util::resolveThreadCount(num_threads);
    // One row is the unit of work; spawning more workers than rows
    // would only pay thread create/join cost for idle hands. The
    // pool is gated on the evaluation count: an all-hit build only
    // runs the cheap derived pass.
    threads = std::min(threads, rows);
    if (threads > 1 && rows * columns.size() >= kMinParallelEvals) {
        util::ThreadPool pool(threads - 1);
        pool.parallelFor(0, rows, fill_row);
    } else {
        for (std::size_t row = 0; row < rows; ++row)
            fill_row(row);
    }
    // Staging is tiled to fit a sub-accelerator's buffer share, but a
    // layer whose smallest tile overflows the whole global buffer can
    // never be placed.
    const std::uint64_t capacity = acc.globalBufferBytes();
    for (std::size_t row = 0; row < rows; ++row) {
        for (std::size_t a = 0; a < nAcc; ++a) {
            const std::uint64_t bytes =
                entries[row * nAcc + a].cost.l2FootprintBytes;
            if (bytes > capacity)
                util::fatal("layer cost table: layer '",
                            layer_of[row]->name(), "' stages ", bytes,
                            " bytes on sub-accelerator ", a,
                            ", more than the whole ", capacity,
                            "-byte global buffer");
        }
    }
    foldSuffix(modelOffset, minCyc, remSuffix);
}

} // namespace herald::sched
