#include "util/pareto.hh"

#include <algorithm>

namespace herald::util
{

bool
dominates(const DesignPoint &a, const DesignPoint &b)
{
    return a.latency <= b.latency && a.energy <= b.energy &&
           a.slaMisses <= b.slaMisses &&
           (a.latency < b.latency || a.energy < b.energy ||
            a.slaMisses < b.slaMisses);
}

std::vector<std::size_t>
paretoFrontIndices(const std::vector<DesignPoint> &points)
{
    // Sort index handles lexicographically by (latency, energy,
    // misses, original index). Any dominator of p is <= p in every
    // axis and != p in one, so it sorts strictly before p — one
    // forward sweep testing each candidate against the survivors so
    // far is therefore complete. The trailing original-index
    // tie-break makes the order (and the duplicate representative) a
    // pure function of the point set.
    std::vector<std::size_t> order(points.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t ia, std::size_t ib) {
                  const DesignPoint &a = points[ia];
                  const DesignPoint &b = points[ib];
                  if (a.latency != b.latency)
                      return a.latency < b.latency;
                  if (a.energy != b.energy)
                      return a.energy < b.energy;
                  if (a.slaMisses != b.slaMisses)
                      return a.slaMisses < b.slaMisses;
                  return ia < ib;
              });

    std::vector<std::size_t> front;
    for (std::size_t idx : order) {
        const DesignPoint &p = points[idx];
        bool keep = true;
        for (std::size_t kept : front) {
            const DesignPoint &f = points[kept];
            // Exact duplicates collapse to the first representative.
            if (dominates(f, p) ||
                (f.latency == p.latency && f.energy == p.energy &&
                 f.slaMisses == p.slaMisses)) {
                keep = false;
                break;
            }
        }
        if (keep)
            front.push_back(idx);
    }
    return front;
}

std::vector<DesignPoint>
paretoFront(std::vector<DesignPoint> points)
{
    std::vector<DesignPoint> out;
    for (std::size_t idx : paretoFrontIndices(points))
        out.push_back(points[idx]);
    return out;
}

} // namespace herald::util
