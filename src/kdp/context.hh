/**
 * @file
 * Kernel execution contexts.
 *
 * A kernel variant is a C++ function executed once per work-group.  It
 * receives a GroupCtx through which all device memory traffic, ALU
 * work, branches, barriers, and scratchpad allocation flow; the
 * context performs the real data movement *and* records a trace the
 * device timing models replay.
 *
 * Work-items are identified by their linear local id ("lane").  GPU
 * style kernels iterate lanes with forEachItem(); CPU schedule
 * variants write their own loops over lanes and kernel loops in the
 * order the schedule dictates, which is exactly what the trace then
 * reflects.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "support/logging.hh"

#include "args.hh"
#include "buffer.hh"
#include "trace.hh"

namespace dysel {
namespace kdp {

class GroupCtx;

/**
 * Handle to a per-work-group scratchpad array of T.
 *
 * Alloc'd from the group's scratch arena; accesses are traced with
 * MemSpace::Scratchpad.
 */
template <typename T>
class Local
{
  public:
    Local() = default;

    /** Number of elements. */
    std::uint64_t size() const { return count; }

    // Access helpers are defined after GroupCtx below.
    inline T get(GroupCtx &ctx, std::uint64_t i, std::uint32_t lane) const;
    inline void set(GroupCtx &ctx, std::uint64_t i, T v,
                    std::uint32_t lane) const;

  private:
    friend class GroupCtx;
    std::uint64_t offset = 0;   ///< byte offset into the scratch arena
    std::uint64_t count = 0;
};

/**
 * Per-work-group execution context; the kernel's window onto the
 * device.
 *
 * A context keeps its per-lane counters and scratchpad arena in a
 * frame of its trace's ContextFrames stack rather than in storage of
 * its own, so creating one allocates nothing once the trace has
 * served a group of that size.  Contexts on one trace must close in
 * the reverse order they opened, which scoped (stack) contexts do;
 * they can be neither copied nor moved.
 */
class GroupCtx
{
  public:
    /**
     * @param group_id    this group's id in the variant's own grid
     * @param group_size  work-items per group (linear)
     * @param wa_factor   workload units this group covers
     * @param trace       recording target (reset by the caller)
     */
    GroupCtx(std::uint64_t group_id, std::uint32_t group_size,
             std::uint64_t wa_factor, WorkGroupTrace *trace)
        : groupId(group_id), groupSz(group_size), waf(wa_factor),
          rec(trace), depth(trace->contexts.push(group_size)),
          laneSeq(rec->contexts.at(depth).seqs.data()),
          laneBranchSeq(laneSeq + group_size)
    {
    }

    ~GroupCtx() { rec->contexts.pop(depth); }

    GroupCtx(const GroupCtx &) = delete;
    GroupCtx &operator=(const GroupCtx &) = delete;

    /** This group's id within the variant's grid. */
    std::uint64_t group() const { return groupId; }

    /**
     * A fresh context for the same physical group re-addressed as
     * @p group_id, sharing the trace recorder.  Fused launches use
     * this to hand each member kernel a context whose group id (and
     * hence unitBase/globalId) is local to the member's own grid.
     * The new context opens its own frame: its sequence counters all
     * start at 0 and its scratchpad is empty, while this context's
     * counters and scratchpad are kept for when it resumes.
     */
    GroupCtx
    rebased(std::uint64_t group_id) const
    {
        return GroupCtx(group_id, groupSz, waf, rec);
    }

    /** Work-items per group. */
    std::uint32_t groupSize() const { return groupSz; }

    /** Workload units per group (the variant's work assignment factor). */
    std::uint64_t waFactor() const { return waf; }

    /** First workload unit this group covers. */
    std::uint64_t unitBase() const { return groupId * waf; }

    /** Global linear id of @p lane. */
    std::uint64_t
    globalId(std::uint32_t lane) const
    {
        return groupId * groupSz + lane;
    }

    /** Traced load of element @p idx of @p buf by @p lane. */
    template <typename T>
    T
    load(const Buffer<T> &buf, std::uint64_t idx, std::uint32_t lane)
    {
        record(buf.addrOf(idx), sizeof(T), buf.space(), lane, false, false);
        return buf.at(idx);
    }

    /** Traced store. */
    template <typename T>
    void
    store(Buffer<T> &buf, std::uint64_t idx, T v, std::uint32_t lane)
    {
        record(buf.addrOf(idx), sizeof(T), buf.space(), lane, true, false);
        buf.at(idx) = v;
    }

    /**
     * Traced wide load of @p count consecutive elements starting at
     * @p idx (a float4-style vector load: one memory transaction).
     */
    template <typename T>
    void
    loadSpan(const Buffer<T> &buf, std::uint64_t idx, std::uint32_t count,
             std::uint32_t lane, T *out)
    {
        record(buf.addrOf(idx),
               static_cast<std::uint16_t>(count * sizeof(T)), buf.space(),
               lane, false, false);
        for (std::uint32_t i = 0; i < count; ++i)
            out[i] = buf.at(idx + i);
    }

    /** Traced atomic add; returns the old value. */
    template <typename T>
    T
    atomicAdd(Buffer<T> &buf, std::uint64_t idx, T v, std::uint32_t lane)
    {
        record(buf.addrOf(idx), sizeof(T), buf.space(), lane, true, true);
        T old = buf.at(idx);
        buf.at(idx) = old + v;
        return old;
    }

    /** Charge @p n ALU operations to @p lane. */
    void
    flops(std::uint32_t lane, std::uint64_t n)
    {
        checkLane(lane);
        rec->laneFlops[lane] += n;
    }

    /** Record a branch outcome for divergence analysis. */
    void
    branch(std::uint32_t lane, bool taken)
    {
        checkLane(lane);
        rec->branches.push_back({lane, laneBranchSeq[lane]++, taken});
    }

    /** Work-group barrier. */
    void barrier() { ++rec->barriers; }

    /**
     * Allocate a scratchpad array of @p n elements of T for this
     * group.
     */
    template <typename T>
    Local<T>
    allocLocal(std::uint64_t n)
    {
        std::vector<char> &arena = rec->contexts.at(depth).arena;
        Local<T> l;
        l.offset = arena.size();
        l.count = n;
        arena.resize(arena.size() + n * sizeof(T));
        arenaData = arena.data();
        arenaBytes = arena.size();
        rec->scratchBytes = arenaBytes;
        return l;
    }

    /** Scratchpad bytes allocated so far. */
    std::uint64_t scratchBytes() const { return arenaBytes; }

    /** @name Scratchpad access plumbing used by Local<T>. */
    /// @{
    template <typename T>
    T
    localLoad(const Local<T> &l, std::uint64_t i, std::uint32_t lane)
    {
        checkLocal(l, i);
        record(scratchBase + l.offset + i * sizeof(T), sizeof(T),
               MemSpace::Scratchpad, lane, false, false);
        T v;
        std::memcpy(&v, arenaData + l.offset + i * sizeof(T), sizeof(T));
        return v;
    }

    template <typename T>
    void
    localStore(const Local<T> &l, std::uint64_t i, T v, std::uint32_t lane)
    {
        checkLocal(l, i);
        record(scratchBase + l.offset + i * sizeof(T), sizeof(T),
               MemSpace::Scratchpad, lane, true, false);
        std::memcpy(arenaData + l.offset + i * sizeof(T), &v, sizeof(T));
    }
    /// @}

  private:
    /// Virtual base address of scratchpad arenas; disjoint from the
    /// global buffer allocator's range by construction.
    static constexpr std::uint64_t scratchBase = 0x0008'0000'0000'0000ull;

    void
    checkLane(std::uint32_t lane) const
    {
        if (lane >= groupSz)
            support::panic("lane %u out of range (group size %u)",
                           lane, groupSz);
    }

    template <typename T>
    void
    checkLocal(const Local<T> &l, std::uint64_t i) const
    {
        if (i >= l.count)
            support::panic("scratchpad access out of bounds: %llu >= %llu",
                           (unsigned long long)i,
                           (unsigned long long)l.count);
    }

    void
    record(std::uint64_t addr, std::uint16_t bytes, MemSpace space,
           std::uint32_t lane, bool write, bool atomic)
    {
        checkLane(lane);
        rec->accesses.push_back(
            {addr, lane, laneSeq[lane]++, bytes, space, write, atomic});
    }

    std::uint64_t groupId;
    std::uint32_t groupSz;
    std::uint64_t waf;
    WorkGroupTrace *rec;
    std::size_t depth;               ///< this context's frame in rec
    std::uint32_t *laneSeq;          ///< per-lane access seq (frame)
    std::uint32_t *laneBranchSeq;    ///< per-lane branch seq (frame)
    char *arenaData = nullptr;       ///< frame arena, after allocLocal
    std::uint64_t arenaBytes = 0;
};

template <typename T>
T
Local<T>::get(GroupCtx &ctx, std::uint64_t i, std::uint32_t lane) const
{
    return ctx.localLoad(*this, i, lane);
}

template <typename T>
void
Local<T>::set(GroupCtx &ctx, std::uint64_t i, T v, std::uint32_t lane) const
{
    ctx.localStore(*this, i, v, lane);
}

/**
 * Convenience wrapper binding a GroupCtx to one lane, for kernels
 * written in the one-body-per-work-item style.
 */
class ItemCtx
{
  public:
    ItemCtx(GroupCtx &g, std::uint32_t lane) : ctx(g), laneId(lane) {}

    std::uint32_t localId() const { return laneId; }
    std::uint64_t globalId() const { return ctx.globalId(laneId); }
    GroupCtx &group() const { return ctx; }

    template <typename T>
    T load(const Buffer<T> &b, std::uint64_t i) const
    {
        return ctx.load(b, i, laneId);
    }

    template <typename T>
    void store(Buffer<T> &b, std::uint64_t i, T v) const
    {
        ctx.store(b, i, v, laneId);
    }

    template <typename T>
    T atomicAdd(Buffer<T> &b, std::uint64_t i, T v) const
    {
        return ctx.atomicAdd(b, i, v, laneId);
    }

    void flops(std::uint64_t n) const { ctx.flops(laneId, n); }
    void branch(bool taken) const { ctx.branch(laneId, taken); }

    template <typename T>
    T localGet(const Local<T> &l, std::uint64_t i) const
    {
        return l.get(ctx, i, laneId);
    }

    template <typename T>
    void localSet(const Local<T> &l, std::uint64_t i, T v) const
    {
        l.set(ctx, i, v, laneId);
    }

  private:
    GroupCtx &ctx;
    std::uint32_t laneId;
};

/**
 * Run @p body once per work-item of the group, in lane order (the
 * lock-step GPU convention).
 */
template <typename Body>
void
forEachItem(GroupCtx &g, Body &&body)
{
    for (std::uint32_t lane = 0; lane < g.groupSize(); ++lane) {
        ItemCtx item(g, lane);
        body(item);
    }
}

} // namespace kdp
} // namespace dysel
