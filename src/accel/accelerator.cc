#include "accel/accelerator.hh"

#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace herald::accel
{

AcceleratorClass
edgeClass()
{
    return AcceleratorClass{"edge", 1024, 16.0, 4ULL << 20};
}

AcceleratorClass
mobileClass()
{
    return AcceleratorClass{"mobile", 4096, 64.0, 8ULL << 20};
}

AcceleratorClass
cloudClass()
{
    return AcceleratorClass{"cloud", 16384, 256.0, 16ULL << 20};
}

std::vector<AcceleratorClass>
allClasses()
{
    return {edgeClass(), mobileClass(), cloudClass()};
}

const char *
toString(AcceleratorKind kind)
{
    switch (kind) {
      case AcceleratorKind::FDA:
        return "FDA";
      case AcceleratorKind::SMFDA:
        return "SM-FDA";
      case AcceleratorKind::RDA:
        return "RDA";
      case AcceleratorKind::HDA:
        return "HDA";
    }
    util::panic("unknown AcceleratorKind");
}

Accelerator::Accelerator(std::string name, AcceleratorKind kind,
                         std::vector<SubAccelerator> subs_in,
                         const AcceleratorClass &chip)
    : accName(std::move(name)), accKind(kind),
      subs(std::move(subs_in)), chipClass(chip)
{
    validate();
}

void
Accelerator::validate() const
{
    if (subs.empty())
        util::fatal("accelerator '", accName, "': no sub-accelerators");

    std::uint64_t pes = 0;
    double bw = 0.0;
    for (const SubAccelerator &sub : subs) {
        if (sub.numPes == 0)
            util::fatal("accelerator '", accName,
                        "': sub-accelerator with zero PEs");
        if (sub.bwGBps <= 0.0)
            util::fatal("accelerator '", accName,
                        "': sub-accelerator with zero bandwidth");
        pes += sub.numPes;
        bw += sub.bwGBps;
    }
    if (pes != chipClass.numPes) {
        util::fatal("accelerator '", accName, "': PE shares sum to ",
                    pes, " != chip budget ", chipClass.numPes);
    }
    if (std::abs(bw - chipClass.bwGBps) > 1e-6) {
        util::fatal("accelerator '", accName,
                    "': bandwidth shares sum to ", bw,
                    " != chip budget ", chipClass.bwGBps);
    }
}

Accelerator
Accelerator::makeFda(const AcceleratorClass &chip,
                     dataflow::DataflowStyle style)
{
    std::ostringstream name;
    name << toString(style) << " FDA (" << chip.name << ")";
    return Accelerator(name.str(), AcceleratorKind::FDA,
                       {SubAccelerator{style, chip.numPes, chip.bwGBps,
                                       false}},
                       chip);
}

Accelerator
Accelerator::makeScaledOutFda(const AcceleratorClass &chip,
                              dataflow::DataflowStyle style,
                              std::size_t n)
{
    if (n == 0 || chip.numPes % n != 0)
        util::fatal("SM-FDA: sub-accelerator count ", n,
                    " must evenly divide ", chip.numPes, " PEs");
    std::vector<SubAccelerator> subs;
    for (std::size_t i = 0; i < n; ++i) {
        subs.push_back(SubAccelerator{style, chip.numPes / n,
                                      chip.bwGBps / n, false});
    }
    std::ostringstream name;
    name << toString(style) << " SM-FDA x" << n << " (" << chip.name
         << ")";
    return Accelerator(name.str(), AcceleratorKind::SMFDA,
                       std::move(subs), chip);
}

Accelerator
Accelerator::makeRda(const AcceleratorClass &chip)
{
    SubAccelerator sub;
    sub.numPes = chip.numPes;
    sub.bwGBps = chip.bwGBps;
    sub.flexible = true;
    std::ostringstream name;
    name << "MAERI RDA (" << chip.name << ")";
    return Accelerator(name.str(), AcceleratorKind::RDA, {sub}, chip);
}

Accelerator
Accelerator::makeHda(const AcceleratorClass &chip,
                     std::vector<dataflow::DataflowStyle> styles,
                     std::vector<std::uint64_t> pe_split,
                     std::vector<double> bw_split)
{
    if (styles.size() != pe_split.size() ||
        styles.size() != bw_split.size() || styles.empty()) {
        util::fatal("HDA: styles/PE/bandwidth arity mismatch");
    }
    std::vector<SubAccelerator> subs;
    std::ostringstream name;
    name << "HDA";
    for (std::size_t i = 0; i < styles.size(); ++i) {
        subs.push_back(SubAccelerator{styles[i], pe_split[i],
                                      bw_split[i], false});
        name << (i == 0 ? " " : "+") << dataflow::shortName(styles[i]);
    }
    name << " (";
    for (std::size_t i = 0; i < pe_split.size(); ++i)
        name << (i == 0 ? "" : "/") << pe_split[i];
    name << " pe, ";
    for (std::size_t i = 0; i < bw_split.size(); ++i)
        name << (i == 0 ? "" : "/") << bw_split[i];
    name << " GBps, " << chip.name << ")";
    return Accelerator(name.str(), AcceleratorKind::HDA,
                       std::move(subs), chip);
}

cost::SubAccResources
Accelerator::resources(std::size_t idx) const
{
    if (idx >= subs.size())
        util::panic("sub-accelerator index ", idx, " out of range");
    cost::SubAccResources res;
    res.numPes = subs[idx].numPes;
    res.bwGBps = subs[idx].bwGBps;
    res.l2Bytes = bufShare.empty()
                      ? chipClass.globalBufferBytes / subs.size()
                      : bufShare[idx];
    return res;
}

double
reconfigPenaltyCycles(std::uint64_t moved_pes, double drain_cycles,
                      double per_pe_rewire_cycles)
{
    if (!std::isfinite(drain_cycles) || drain_cycles < 0.0 ||
        !std::isfinite(per_pe_rewire_cycles) ||
        per_pe_rewire_cycles < 0.0) {
        util::fatal("reconfigPenaltyCycles: penalty knobs must be "
                    "finite and non-negative");
    }
    return drain_cycles +
           static_cast<double>(moved_pes) * per_pe_rewire_cycles;
}

PartitionEpoch
Accelerator::partitionEpoch() const
{
    PartitionEpoch epoch;
    epoch.epochId = epochId;
    epoch.peSplit.reserve(subs.size());
    epoch.bwSplit.reserve(subs.size());
    for (const SubAccelerator &sub : subs) {
        epoch.peSplit.push_back(sub.numPes);
        epoch.bwSplit.push_back(sub.bwGBps);
    }
    epoch.bufferSplit = bufShare;
    return epoch;
}

Accelerator
Accelerator::withPartition(const PartitionEpoch &epoch) const
{
    if (epoch.peSplit.size() != subs.size() ||
        epoch.bwSplit.size() != subs.size() ||
        (!epoch.bufferSplit.empty() &&
         epoch.bufferSplit.size() != subs.size())) {
        util::fatal("accelerator '", accName,
                    "': partition epoch arity mismatch");
    }
    if (!epoch.bufferSplit.empty()) {
        std::uint64_t buf = 0;
        for (std::uint64_t b : epoch.bufferSplit) {
            if (b == 0)
                util::fatal("accelerator '", accName,
                            "': partition epoch with zero buffer "
                            "share");
            buf += b;
        }
        if (buf != chipClass.globalBufferBytes) {
            util::fatal("accelerator '", accName,
                        "': buffer shares sum to ", buf,
                        " != global buffer ",
                        chipClass.globalBufferBytes);
        }
    }
    Accelerator next(*this);
    for (std::size_t i = 0; i < subs.size(); ++i) {
        next.subs[i].numPes = epoch.peSplit[i];
        next.subs[i].bwGBps = epoch.bwSplit[i];
    }
    next.bufShare = epoch.bufferSplit;
    next.epochId = epoch.epochId;
    next.validate(); // re-checks PE/bandwidth sums and non-zero shares
    return next;
}

} // namespace herald::accel
