/**
 * @file
 * Analytical latency/energy estimation for one layer on one (sub-)
 * accelerator — the MAESTRO-style cost model Herald builds on
 * (paper Sec. IV-B), extended with: global-buffer residency for
 * inter-layer activation forwarding (execution-model steps 3/7),
 * static energy for the full PE array (dark-silicon cost), and a
 * per-layer context-change penalty knob.
 *
 * Latency uses a double-buffered roofline: compute, NoC and DRAM
 * phases overlap, so a layer takes the maximum of the three plus the
 * initial tile fill. Energy is activity counts times the EnergyModel
 * coefficients.
 */

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>

#include "cost/energy_model.hh"
#include "cost/reuse_analysis.hh"
#include "dataflow/mapper.hh"
#include "dataflow/style.hh"
#include "dnn/layer.hh"

namespace herald::cost
{

/** Hardware resources of the (sub-)accelerator running the layer. */
struct SubAccResources
{
    std::uint64_t numPes = 256;    //!< PE count
    double bwGBps = 32.0;          //!< global NoC bandwidth share
    double dramBwGBps = 0.0;       //!< DRAM bandwidth (0 => == bwGBps)
    std::uint64_t l2Bytes = 1ULL << 20; //!< global-buffer share
    std::uint64_t l1Bytes = 512;   //!< per-PE register file
    double clockGHz = 1.0;         //!< PE clock

    /**
     * Local buffer-to-array interconnect width in bytes/cycle; 0
     * derives it from the array size (a quarter word per PE per
     * cycle, like NVDLA's 2048-bit CBUF port on a 1024-MAC core).
     * The *global* NoC share (bwGBps) — the resource Herald
     * partitions — bounds the buffer-fill (DRAM-path) traffic.
     */
    double localBwBytesPerCycle = 0.0;

    /**
     * Every field as a 64-bit pattern (doubles bit-for-bit), in one
     * fixed order: the resource identity the cost caches key on.
     * This is the one place the fields are listed for that purpose,
     * so a field added here reaches every cache key.
     */
    std::array<std::uint64_t, 7> identity() const;

    double
    effectiveDramBw() const
    {
        return dramBwGBps > 0.0 ? dramBwGBps : bwGBps;
    }

    double
    effectiveLocalBw() const
    {
        if (localBwBytesPerCycle > 0.0)
            return localBwBytesPerCycle;
        double derived = static_cast<double>(numPes) / 4.0;
        return derived < 16.0 ? 16.0 : derived;
    }
};

/** Fixed per-layer control/configuration overhead (cycles). */
inline constexpr double kLayerOverheadCycles = 500.0;

/** Behavioral knobs of the cost model. */
struct CostOptions
{
    /**
     * Activations are forwarded producer->consumer through the global
     * buffer when they fit (paper execution model step 7); when off,
     * every input is (re)fetched from DRAM.
     */
    bool forwardActivationsThroughL2 = true;
    /** Charge static energy for the sub-accelerator's PEs. */
    bool staticEnergy = true;
};

/** Full cost breakdown for one layer on one sub-accelerator. */
struct LayerCost
{
    // Headline metrics.
    double cycles = 0.0;     //!< end-to-end layer latency in cycles
    double latencySec = 0.0; //!< cycles / clock
    double energyUnits = 0.0; //!< total energy in MAC units
    double energyMj = 0.0;   //!< total energy in millijoules

    /** Energy-delay product in (mJ x s). */
    double edp() const { return latencySec * energyMj; }

    // Roofline components (cycles).
    double computeCycles = 0.0;
    double nocCycles = 0.0;
    double dramCycles = 0.0;

    // Utilization.
    double mappingUtil = 0.0;   //!< spatially mapped PEs / all PEs
    double edgeUtil = 0.0;      //!< true MACs / padded MACs
    double effectiveUtil = 0.0; //!< product of the two

    // Volumes (bytes).
    double l2ReadBytes = 0.0;
    double l2WriteBytes = 0.0;
    double nocBytes = 0.0;
    double dramBytes = 0.0;

    // Scheduler inputs.
    std::uint64_t l2FootprintBytes = 0; //!< staging requirement
    std::uint64_t macs = 0;

    // Energy breakdown (MAC units).
    double macEnergy = 0.0;
    double l1EnergyTotal = 0.0;
    double l2EnergyTotal = 0.0;
    double nocEnergyTotal = 0.0;
    double dramEnergyTotal = 0.0;
    double staticEnergyTotal = 0.0;
};

/**
 * Stateless evaluator plus a memoization cache. Evaluation is a pure
 * function of (layer shape, style, resources), so results are cached
 * under that key — the DSE issues millions of queries for repeated
 * layers (batches, repeated blocks).
 *
 * Caching is two-tier: this cache is the cross-candidate tier (keyed
 * on the full tuple, shared by every schedule the DSE builds), while
 * each schedule() run additionally front-loads its queries into a
 * dense sched::LayerCostTable so the scheduling loop itself performs
 * no cache lookup and takes no lock — evaluate() is only reached
 * during table prefill, once per unique (layer, style, resources)
 * tuple per candidate.
 *
 * Thread safety: evaluate() may be called concurrently from any
 * number of threads. One mutex guards the one ordered map, and
 * hits/misses return the LayerCost by value so callers never hold
 * references into a concurrently mutated map. Misses compute outside
 * the lock; on an insert race the first writer wins (both threads
 * computed the identical pure-function result, so this stays
 * deterministic).
 */
class CostModel
{
  public:
    explicit CostModel(EnergyModel energy = EnergyModel{},
                       CostOptions options = CostOptions{});

    /** Evaluate @p layer under @p style on @p res (cached). */
    LayerCost evaluate(const dnn::Layer &layer,
                       dataflow::DataflowStyle style,
                       const SubAccResources &res);

    /** Uncached evaluation of a prepared mapping. */
    LayerCost evaluateMapping(const dataflow::Mapping &mapping,
                              const SubAccResources &res) const;

    const EnergyModel &energyModel() const { return energy; }
    const CostOptions &options() const { return opts; }

    /**
     * Every EnergyModel coefficient (bit pattern) and CostOptions
     * flag, in one fixed order: what an evaluation depends on beyond
     * its (layer, style, resources) key. Caches that outlive one
     * CostModel bind to it.
     */
    std::array<std::uint64_t, 10> identity() const;

    /** Number of distinct (layer, style, resource) keys cached. */
    std::size_t cacheSize() const;

  private:
    /**
     * The full (layer geometry, style, resources) tuple a cached cost
     * is valid for: dnn::CanonicalConv::identity() (evaluation sees
     * the layer only through its canonical dims), the style, then
     * SubAccResources::identity().
     */
    using CacheKey = std::array<std::uint64_t, 17>;

    EnergyModel energy;
    CostOptions opts;
    mutable std::mutex mutex;
    std::map<CacheKey, LayerCost> cache;
};

} // namespace herald::cost

