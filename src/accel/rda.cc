#include "accel/rda.hh"

#include "util/logging.hh"

namespace herald::accel
{

namespace
{

/** Apply RDA interconnect tax and reconfiguration penalties. */
void
applyRdaOverheads(cost::LayerCost &cost, const RdaOverheads &rda,
                  const cost::EnergyModel &energy,
                  const cost::SubAccResources &res)
{
    // Tax on-chip dynamic energy; DRAM and static are unaffected by
    // the flexible interconnect.
    const double onchip = cost.macEnergy + cost.l1EnergyTotal +
                          cost.l2EnergyTotal + cost.nocEnergyTotal;
    const double taxed = onchip * (rda.interconnectEnergyTax - 1.0);

    const double reconfig_cycles =
        rda.reconfigBaseCycles +
        rda.reconfigCyclesPerPe * static_cast<double>(res.numPes);
    const double reconfig_energy =
        rda.reconfigEnergyPerPe * static_cast<double>(res.numPes);

    cost.cycles += reconfig_cycles;
    cost.latencySec = cost.cycles / (dnn::kClockGHz * 1e9);
    cost.energyUnits += taxed + reconfig_energy;
    cost.energyMj = energy.toMillijoules(cost.energyUnits);
}

} // namespace

StyledLayerCost
evaluateOnSubAcc(cost::CostModel &model, const Accelerator &acc,
                 std::size_t sub_idx, const dnn::Layer &layer,
                 const RdaOverheads &rda)
{
    return evaluateOnSub(model, acc.subAccs().at(sub_idx),
                         acc.resources(sub_idx), layer, rda);
}

StyledLayerCost
evaluateOnSub(cost::CostModel &model, const SubAccelerator &sub,
              const cost::SubAccResources &res,
              const dnn::Layer &layer, const RdaOverheads &rda)
{
    if (!sub.flexible) {
        return StyledLayerCost{sub.style,
                               model.evaluate(layer, sub.style, res)};
    }

    // Flexible array: reconfigure to the best style for this layer.
    bool first = true;
    StyledLayerCost best;
    for (dataflow::DataflowStyle style : dataflow::kAllStyles) {
        cost::LayerCost cost = model.evaluate(layer, style, res);
        applyRdaOverheads(cost, rda, model.energyModel(), res);
        if (first || cost.edp() < best.cost.edp()) {
            best = StyledLayerCost{style, cost};
            first = false;
        }
    }
    return best;
}

} // namespace herald::accel
