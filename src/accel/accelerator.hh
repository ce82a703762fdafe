/**
 * @file
 * Whole-chip accelerator descriptors: the accelerator classes of
 * Table IV (edge / mobile / cloud) and the accelerator styles of
 * Table III (FDA, scaled-out multi-FDA, RDA, HDA).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accel/sub_accelerator.hh"
#include "cost/cost_model.hh"

namespace herald::accel
{

/** Chip-level resource budget (Table IV row). */
struct AcceleratorClass
{
    std::string name;
    std::uint64_t numPes = 0;
    double bwGBps = 0.0;
    std::uint64_t globalBufferBytes = 0;
};

/** Edge: 1024 PEs, 16 GB/s, 4 MiB. */
AcceleratorClass edgeClass();
/** Mobile: 4096 PEs, 64 GB/s, 8 MiB. */
AcceleratorClass mobileClass();
/** Cloud: 16384 PEs, 256 GB/s, 16 MiB. */
AcceleratorClass cloudClass();
/** All three classes in edge/mobile/cloud order. */
std::vector<AcceleratorClass> allClasses();

/** Architecture family of an accelerator instance (Table III). */
enum class AcceleratorKind
{
    FDA,      //!< monolithic fixed-dataflow accelerator
    SMFDA,    //!< scaled-out multi-FDA (same dataflow, even split)
    RDA,      //!< reconfigurable dataflow accelerator (MAERI-style)
    HDA,      //!< heterogeneous dataflow accelerator (this paper)
};

const char *toString(AcceleratorKind kind);

/**
 * One versioned resource split across sub-accelerators. Epoch 0 is
 * the split the accelerator was constructed with; each runtime
 * repartitioning produces a successor epoch via
 * Accelerator::withPartition().
 */
struct PartitionEpoch
{
    std::uint64_t epochId = 0;
    std::vector<std::uint64_t> peSplit;
    std::vector<double> bwSplit;
    /**
     * Per-sub-accelerator share of the global buffer in bytes; empty
     * means an even split (the epoch-0 default).
     */
    std::vector<std::uint64_t> bufferSplit;
};

/**
 * Modeled cost of swapping in a new epoch: a fixed pipeline-drain
 * term plus a rewire term proportional to the PEs that change owner.
 */
double reconfigPenaltyCycles(std::uint64_t moved_pes,
                             double drain_cycles,
                             double per_pe_rewire_cycles);

/**
 * A fully-specified accelerator: sub-accelerators plus the shared
 * global buffer. Factories enforce Definition 1's constraints: PE and
 * bandwidth shares sum exactly to the chip budget.
 */
class Accelerator
{
  public:
    Accelerator(std::string name, AcceleratorKind kind,
                std::vector<SubAccelerator> subs,
                const AcceleratorClass &chip);

    /** Monolithic FDA running @p style with the whole budget. */
    static Accelerator makeFda(const AcceleratorClass &chip,
                               dataflow::DataflowStyle style);

    /** Scaled-out multi-FDA: @p n identical evenly-split sub-accs. */
    static Accelerator makeScaledOutFda(const AcceleratorClass &chip,
                                        dataflow::DataflowStyle style,
                                        std::size_t n = 2);

    /** MAERI-style RDA: one flexible array with the whole budget. */
    static Accelerator makeRda(const AcceleratorClass &chip);

    /**
     * HDA with explicit partitioning. @p styles, @p pe_split and
     * @p bw_split must have equal arity; splits must sum to the chip
     * budget (fatal otherwise).
     */
    static Accelerator makeHda(const AcceleratorClass &chip,
                               std::vector<dataflow::DataflowStyle>
                                   styles,
                               std::vector<std::uint64_t> pe_split,
                               std::vector<double> bw_split);

    const std::string &name() const { return accName; }
    AcceleratorKind kind() const { return accKind; }
    const std::vector<SubAccelerator> &subAccs() const { return subs; }
    std::size_t numSubAccs() const { return subs.size(); }
    const AcceleratorClass &chip() const { return chipClass; }
    std::uint64_t globalBufferBytes() const
    {
        return chipClass.globalBufferBytes;
    }

    /**
     * Cost-model resource view of sub-accelerator @p idx: its PE and
     * bandwidth share plus its buffer share (an even share of the
     * global buffer unless a later epoch reassigned it).
     */
    cost::SubAccResources resources(std::size_t idx) const;

    /**
     * The live resource split as a PartitionEpoch (buffer split is
     * empty while the epoch-0 even split is still in force).
     */
    PartitionEpoch partitionEpoch() const;

    /** Epoch id of the live split (0 until repartitioned). */
    std::uint64_t partitionEpochId() const { return epochId; }

    /**
     * A copy of this accelerator running @p epoch's split: same
     * styles and chip, new per-sub-acc PE/bandwidth/buffer shares.
     * Arity must match and the shares must sum to the chip budget
     * (fatal otherwise, like the factories).
     */
    Accelerator withPartition(const PartitionEpoch &epoch) const;

  private:
    std::string accName;
    AcceleratorKind accKind;
    std::vector<SubAccelerator> subs;
    AcceleratorClass chipClass;
    /** Per-sub-acc buffer bytes; empty = epoch-0 even split. */
    std::vector<std::uint64_t> bufShare;
    std::uint64_t epochId = 0;

    void validate() const;
};

} // namespace herald::accel

