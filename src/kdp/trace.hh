/**
 * @file
 * Dynamic execution traces.
 *
 * A kernel executes for real; the context records every memory access,
 * branch outcome, and bulk ALU-op count into a WorkGroupTrace.  Device
 * timing models replay the trace to charge simulated cycles (cache
 * simulation on CPU, coalescing and divergence analysis on GPU).  The
 * trace is per-work-group and reused across work-groups to bound
 * memory.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "support/logging.hh"

#include "mem_space.hh"

namespace dysel {
namespace kdp {

/** One dynamic memory access, in execution order. */
struct MemAccess
{
    std::uint64_t addr;     ///< virtual device address
    std::uint32_t lane;     ///< linear work-item id within the group
    std::uint32_t seq;      ///< per-lane access sequence number
    std::uint16_t bytes;    ///< access width
    MemSpace space;         ///< which memory the access targets
    bool write;             ///< store (or atomic RMW)
    bool atomic;            ///< atomic operation
};

/** One dynamic branch outcome (used for divergence analysis). */
struct BranchEvent
{
    std::uint32_t lane;     ///< work-item that evaluated the branch
    std::uint32_t seq;      ///< per-lane branch sequence number
    bool taken;             ///< outcome
};

/**
 * Storage a GroupCtx borrows from the trace it records into: its
 * per-lane access and branch sequence counters and its scratchpad
 * arena.  One frame per live context, kept as a stack: a fused launch
 * runs each member group on a context nested in the physical group's
 * (GroupCtx::rebased), and the nested frame leaves its parent's
 * counters and arena untouched.  Frames keep their capacity from group
 * to group, so a steady-state work-group allocates nothing.
 *
 * The frames are scratch, not part of the recording: a copied or moved
 * trace starts without any, and assigning a trace leaves the target's
 * frames as they were.
 */
class ContextFrames
{
  public:
    /** One context's storage. */
    struct Frame
    {
        /** Access seqs of lane l at [l], branch seqs at [size + l]. */
        std::vector<std::uint32_t> seqs;
        /** Scratchpad bytes, zero-filled as they are allocated. */
        std::vector<char> arena;
    };

    ContextFrames() = default;
    ContextFrames(const ContextFrames &) noexcept {}
    ContextFrames &operator=(const ContextFrames &) noexcept { return *this; }

    /**
     * Open a frame for a context of @p group_size lanes: every
     * counter 0, arena empty.  Returns its depth.
     */
    std::size_t
    push(std::uint32_t group_size)
    {
        if (live == frames.size())
            frames.emplace_back();
        Frame &f = frames[live];
        f.seqs.assign(2 * std::size_t{group_size}, 0);
        f.arena.clear();
        return live++;
    }

    /** Close the frame at @p depth, which must be the innermost. */
    void
    pop(std::size_t depth)
    {
        if (depth + 1 != live)
            support::panic("GroupCtx closed out of nesting order "
                           "(depth %zu of %zu)", depth, live);
        --live;
    }

    /**
     * The frame at @p depth.  Its vectors' buffers stay put while
     * deeper frames open (a moved vector keeps its buffer).
     */
    Frame &at(std::size_t depth) { return frames[depth]; }

  private:
    static_assert(std::is_nothrow_move_constructible_v<Frame>,
                  "GroupCtx keeps pointers into frames across growth");

    std::vector<Frame> frames;
    std::size_t live = 0;
};

/**
 * Everything recorded while one work-group of one kernel variant
 * executed.
 */
struct WorkGroupTrace
{
    /** Memory accesses in actual execution order. */
    std::vector<MemAccess> accesses;

    /** Branch outcomes in execution order. */
    std::vector<BranchEvent> branches;

    /** ALU-op count per lane (indexed by linear local id). */
    std::vector<std::uint64_t> laneFlops;

    /** Number of work-group barriers executed. */
    std::uint32_t barriers = 0;

    /** Bytes of scratchpad allocated by the group. */
    std::uint64_t scratchBytes = 0;

    /** Counters and arenas of the contexts recording here. */
    ContextFrames contexts;

    /** Clear all recordings and size lane arrays for @p group_size. */
    void reset(std::uint32_t group_size);

    /** Sum of per-lane ALU ops. */
    std::uint64_t totalFlops() const;

    /** Number of recorded accesses to @p space. */
    std::uint64_t countSpace(MemSpace space) const;
};

} // namespace kdp
} // namespace dysel
