/**
 * @file
 * Dense index of trace events by machine op, shared by the CPU and GPU
 * cost models.
 *
 * A machine op is the set of events with the same per-lane sequence
 * number inside one group of @c width adjacent lanes: a SIMD lane
 * group on the CPU, a warp on the GPU.  The index is one counting
 * sort.  Lane group g owns the slots [groupBegin(g), groupEnd(g)),
 * one per sequence number up to the largest the group recorded, so
 * with per-lane sequence numbers counting from 0 (as kdp::GroupCtx
 * records them) there are at most as many slots as events.  Members of
 * a slot keep trace order.  Buffers keep their capacity across
 * build() calls, so steady-state replay allocates nothing.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "kdp/trace.hh"

namespace dysel {
namespace sim {

class OpIndex
{
  public:
    /** Index @p events (kdp::MemAccess or kdp::BranchEvent). */
    template <typename Event>
    void
    build(const std::vector<Event> &events, unsigned width)
    {
        // groupBase[g + 1] = slot count of lane group g, then prefix
        // sums turn counts into first slots.
        groupBase.assign(1, 0);
        for (const Event &e : events) {
            const std::uint32_t g = e.lane / width;
            if (g + 2 > groupBase.size())
                groupBase.resize(g + 2, 0);
            groupBase[g + 1] = std::max(groupBase[g + 1], e.seq + 1);
        }
        for (std::size_t g = 1; g < groupBase.size(); ++g)
            groupBase[g] += groupBase[g - 1];

        // Counting sort by slot.  Counts go two places up so that the
        // prefix sum leaves start[s + 1] = first position of slot s;
        // placing each member then advances start[s + 1] to the end of
        // slot s, which is where slot s + 1 begins.
        const std::uint32_t n = static_cast<std::uint32_t>(events.size());
        start.assign(static_cast<std::size_t>(groupBase.back()) + 2, 0);
        slotOf.resize(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            const Event &e = events[i];
            slotOf[i] = groupBase[e.lane / width] + e.seq;
            ++start[slotOf[i] + 2];
        }
        for (std::size_t s = 2; s < start.size(); ++s)
            start[s] += start[s - 1];
        order.resize(n);
        for (std::uint32_t i = 0; i < n; ++i)
            order[start[slotOf[i] + 1]++] = i;
    }

    /** Lane groups indexed by the last build(). */
    std::uint32_t
    groups() const
    {
        return static_cast<std::uint32_t>(groupBase.size() - 1);
    }

    /** Slots indexed by the last build(). */
    std::uint32_t slots() const { return groupBase.back(); }

    /** First slot of lane group @p g. */
    std::uint32_t groupBegin(std::uint32_t g) const { return groupBase[g]; }

    /** One past the last slot of lane group @p g. */
    std::uint32_t groupEnd(std::uint32_t g) const { return groupBase[g + 1]; }

    /** Slot of event @p i. */
    std::uint32_t slot(std::uint32_t i) const { return slotOf[i]; }

    /** Event indices of slot @p s, in trace order. */
    const std::uint32_t *begin(std::uint32_t s) const
    {
        return order.data() + start[s];
    }
    const std::uint32_t *end(std::uint32_t s) const
    {
        return order.data() + start[s + 1];
    }

    /** Number of events in slot @p s. */
    std::uint32_t size(std::uint32_t s) const
    {
        return start[s + 1] - start[s];
    }

    /**
     * True if event @p i opens its slot: the first of its machine op in
     * trace order.  Visiting events in trace order and emitting the ops
     * they open emits ops in first-touch order.
     */
    bool opens(std::uint32_t i) const { return order[start[slotOf[i]]] == i; }

    /** True if the branch op in slot @p s saw both outcomes. */
    bool
    divergent(const std::vector<kdp::BranchEvent> &branches,
              std::uint32_t s) const
    {
        bool taken = false, not_taken = false;
        for (const std::uint32_t *m = begin(s); m != end(s); ++m)
            (branches[*m].taken ? taken : not_taken) = true;
        return taken && not_taken;
    }

  private:
    std::vector<std::uint32_t> groupBase; ///< lane group -> first slot
    std::vector<std::uint32_t> slotOf;    ///< event -> slot
    std::vector<std::uint32_t> start;     ///< slot -> first position in order
    std::vector<std::uint32_t> order;     ///< event indices sorted by slot
};

} // namespace sim
} // namespace dysel
