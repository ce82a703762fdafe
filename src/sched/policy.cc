#include "sched/policy.hh"

#include "util/logging.hh"

namespace herald::sched
{

const char *
toString(Policy policy)
{
    switch (policy) {
      case Policy::Fifo:
        return "FIFO";
      case Policy::Edf:
        return "EDF";
      case Policy::Lst:
        return "LST";
    }
    util::panic("unknown Policy");
}

const char *
toString(DropPolicy drop)
{
    switch (drop) {
      case DropPolicy::None:
        return "no-drop";
      case DropPolicy::HopelessFrames:
        return "drop-hopeless";
      case DropPolicy::DoomedFrames:
        return "drop-doomed";
    }
    util::panic("unknown DropPolicy");
}

} // namespace herald::sched
