#include "cost/cost_model.hh"

#include <algorithm>
#include <array>

#include "util/logging.hh"
#include "util/math_utils.hh"

namespace herald::cost
{

namespace
{

using dataflow::TensorKind;

/** Bytes moved when the given word count crosses a memory boundary. */
double
bytes(std::uint64_t words)
{
    return static_cast<double>(words) *
           static_cast<double>(dnn::kDataBytes);
}

} // namespace

CostModel::CostModel(EnergyModel energy_model, CostOptions options)
    : energy(energy_model), opts(options)
{
    validate(energy);
}

std::array<std::uint64_t, 10>
CostModel::identity() const
{
    return {util::doubleBits(energy.macEnergy),
            util::doubleBits(energy.l1Energy),
            util::doubleBits(energy.l2Energy),
            util::doubleBits(energy.dramEnergy),
            util::doubleBits(energy.nocEnergyPerWord),
            util::doubleBits(energy.staticPerPeCycle),
            util::doubleBits(energy.nocHopReferencePes),
            util::doubleBits(energy.unitPicojoules),
            opts.forwardActivationsThroughL2 ? 1u : 0u,
            opts.staticEnergy ? 1u : 0u};
}

std::array<std::uint64_t, 7>
SubAccResources::identity() const
{
    return {numPes,
            l2Bytes,
            l1Bytes,
            util::doubleBits(bwGBps),
            util::doubleBits(dramBwGBps),
            util::doubleBits(clockGHz),
            util::doubleBits(localBwBytesPerCycle)};
}

LayerCost
CostModel::evaluate(const dnn::Layer &layer,
                    dataflow::DataflowStyle style,
                    const SubAccResources &res)
{
    CacheKey key{};
    const std::array<std::uint64_t, 9> geometry =
        layer.canonical().identity();
    const std::array<std::uint64_t, 7> resources = res.identity();
    std::copy(geometry.begin(), geometry.end(), key.begin());
    key[9] = static_cast<std::uint64_t>(style);
    std::copy(resources.begin(), resources.end(), key.begin() + 10);
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }

    // Miss: compute outside the lock — evaluation is pure, so a
    // concurrent thread computing the same key produces the same
    // value and the emplace race below is benign.
    dataflow::MapperConstraints constraints;
    constraints.numPes = res.numPes;
    constraints.l1Bytes = res.l1Bytes;
    constraints.l2TileBudgetBytes = res.l2Bytes;
    dataflow::Mapping mapping =
        dataflow::buildMapping(style, layer, constraints);
    LayerCost cost = evaluateMapping(mapping, res);

    std::lock_guard<std::mutex> lock(mutex);
    return cache.emplace(key, cost).first->second;
}

std::size_t
CostModel::cacheSize() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return cache.size();
}

LayerCost
CostModel::evaluateMapping(const dataflow::Mapping &mapping,
                           const SubAccResources &res) const
{
    const dnn::CanonicalConv &conv = mapping.layer();
    const ReuseReport reuse = analyzeMapping(mapping);

    LayerCost cost;
    cost.macs = conv.macs();
    cost.mappingUtil = mapping.mappingUtilization();
    cost.edgeUtil = mapping.edgeUtilization();
    cost.effectiveUtil = cost.mappingUtil * cost.edgeUtil;

    const TensorTraffic &in = reuse.of(TensorKind::Input);
    const TensorTraffic &wt = reuse.of(TensorKind::Weight);
    const TensorTraffic &out = reuse.of(TensorKind::Output);

    // --- Global-buffer staging requirement (double buffered) ---
    const std::uint64_t staging_bytes =
        2 * (in.unionTileElems + wt.unionTileElems +
             out.unionTileElems) * dnn::kDataBytes;
    cost.l2FootprintBytes = staging_bytes;

    // --- L2 <-> PE traffic ---
    const std::uint64_t out_writes = out.l2Words();
    const std::uint64_t out_readbacks = reuse.outputReadbacks();
    const std::uint64_t l2_read_words =
        in.l2Words() + wt.l2Words() + out_readbacks;
    cost.l2ReadBytes = bytes(l2_read_words);
    cost.nocBytes = bytes(l2_read_words + out_writes);

    // --- DRAM traffic with L2 retention scope ---
    // Multi-level tiling: find the largest suffix of the tile-
    // sequencing loops whose combined working set fits the L2 share.
    // Data referenced inside that scope stays in L2; only the loops
    // above the scope cause DRAM refetches (same stationarity walk as
    // at the L2->array boundary). Activations are forwarded producer
    // -> consumer inside L2 when they need DRAM only once anyway.
    const std::vector<dataflow::LoopLevel> outer =
        mapping.outerLoops();

    std::size_t scope = 0; // innermost outer loops retained in L2
    for (std::size_t s = 1; s <= outer.size(); ++s) {
        dataflow::RegionExtents ext = mapping.arrayExtents();
        for (std::size_t i = outer.size() - s; i < outer.size(); ++i)
            ext.multiply(outer[i].dim, outer[i].trips);
        std::uint64_t ws = 0;
        for (TensorKind t : {TensorKind::Input, TensorKind::Weight,
                             TensorKind::Output}) {
            ws += dataflow::tensorFootprint(conv, t, ext) *
                  dnn::kDataBytes;
        }
        if (ws <= res.l2Bytes)
            scope = s;
        else
            break;
    }

    dataflow::RegionExtents scope_ext = mapping.arrayExtents();
    for (std::size_t i = outer.size() - scope; i < outer.size(); ++i)
        scope_ext.multiply(outer[i].dim, outer[i].trips);
    const std::vector<dataflow::LoopLevel> above(
        outer.begin(), outer.end() - static_cast<std::ptrdiff_t>(scope));

    auto dram_tile = [&](TensorKind t) {
        return static_cast<double>(
            dataflow::tensorFootprint(conv, t, scope_ext));
    };
    auto dram_deliveries = [&](TensorKind t) {
        return dram_tile(t) *
               static_cast<double>(refetchFactor(conv, t, above));
    };

    double dram_read_words = 0.0;
    double dram_write_words = 0.0;

    const double in_dram = dram_deliveries(TensorKind::Input);
    const bool input_forwarded =
        opts.forwardActivationsThroughL2 &&
        in_dram <= static_cast<double>(in.wholeElems) + 0.5;
    if (!input_forwarded)
        dram_read_words += in_dram;

    // Weights always originate in DRAM.
    dram_read_words += dram_deliveries(TensorKind::Weight);

    // Output: DRAM writes beyond the final map are partial-sum
    // spills, which are also read back. A map that leaves the scope
    // only once can stay in L2 for its consumer (forwarding).
    const double out_dram = dram_deliveries(TensorKind::Output);
    const double out_spills =
        out_dram > static_cast<double>(out.wholeElems)
            ? out_dram - static_cast<double>(out.wholeElems)
            : 0.0;
    const bool output_forwarded =
        opts.forwardActivationsThroughL2 && out_spills <= 0.5;
    if (!output_forwarded)
        dram_write_words += out_dram;
    dram_read_words += out_spills;

    cost.dramBytes = (dram_read_words + dram_write_words) *
                     dnn::kDataBytes;
    cost.l2WriteBytes =
        bytes(out_writes) + dram_read_words * dnn::kDataBytes;

    // --- Latency: double-buffered roofline ---
    // The wide local bus carries buffer-to-array traffic; the
    // sub-accelerator's global NoC share carries the buffer-fill
    // (DRAM-path) traffic — that is the resource Herald partitions.
    cost.computeCycles = static_cast<double>(reuse.outerIters) *
                         static_cast<double>(reuse.innerMacsPerPe);
    const double bw_bytes_cycle = res.bwGBps / res.clockGHz;
    const double dram_bytes_cycle =
        std::min(res.effectiveDramBw(), res.bwGBps) / res.clockGHz;
    cost.nocCycles = cost.nocBytes / res.effectiveLocalBw();
    cost.dramCycles = cost.dramBytes / dram_bytes_cycle;

    const double fill_cycles =
        (static_cast<double>(staging_bytes) / 2.0) / bw_bytes_cycle;
    cost.cycles =
        std::max({cost.computeCycles, cost.nocCycles, cost.dramCycles}) +
        fill_cycles + kLayerOverheadCycles;
    cost.latencySec = cost.cycles / (res.clockGHz * 1e9);

    // --- Energy ---
    const double macs_d = static_cast<double>(cost.macs);
    cost.macEnergy = macs_d * energy.macEnergy;

    // RF: two operand reads per MAC plus the psum read-modify-write,
    // amortized by spatial reduction (adder trees / inter-PE
    // accumulation) and by the temporal accumulation run (output-
    // stationary PEs keep the live partial sum in the accumulator).
    // Operand landing in the RF is folded into the read cost
    // (broadcast operands are consumed directly).
    const double spatial_red =
        static_cast<double>(reuse.spatialReduction);
    const double accum_run =
        spatial_red * static_cast<double>(reuse.innerAccumRun);
    const double rf_accesses =
        2.0 * macs_d + 2.0 * macs_d / accum_run;
    cost.l1EnergyTotal = rf_accesses * energy.l1Energy;

    const double l2_accesses =
        (cost.l2ReadBytes + cost.l2WriteBytes) /
        static_cast<double>(dnn::kDataBytes);
    cost.l2EnergyTotal = l2_accesses * energy.l2Energy;

    // NoC: each word read from (or written to) the local buffer
    // traverses the distribution tree once — multicast shares the
    // traversal and the hop scale accounts for the array diameter.
    const double noc_words =
        cost.nocBytes / static_cast<double>(dnn::kDataBytes) +
        (spatial_red > 1.0 ? macs_d / spatial_red : 0.0);
    cost.nocEnergyTotal =
        noc_words *
        energy.nocWordEnergy(static_cast<double>(res.numPes));

    const double dram_accesses = dram_read_words + dram_write_words;
    cost.dramEnergyTotal = dram_accesses * energy.dramEnergy;

    if (opts.staticEnergy) {
        cost.staticEnergyTotal = energy.staticPerPeCycle *
                                 static_cast<double>(res.numPes) *
                                 cost.cycles;
    }

    cost.energyUnits = cost.macEnergy + cost.l1EnergyTotal +
                       cost.l2EnergyTotal + cost.nocEnergyTotal +
                       cost.dramEnergyTotal + cost.staticEnergyTotal;
    cost.energyMj = energy.toMillijoules(cost.energyUnits);
    return cost;
}

} // namespace herald::cost
