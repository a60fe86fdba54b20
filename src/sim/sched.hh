/**
 * @file
 * Launch bookkeeping shared by the CPU and GPU devices.
 *
 * Launches are split into per-work-group tasks.  Streams impose CUDA
 * ordering (a launch may not start until every earlier launch in its
 * stream has fully completed); across streams, execution units pick
 * the highest-priority dispatchable launch, FIFO within a priority.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "launch.hh"
#include "time.hh"

namespace dysel {
namespace sim {

/** A launch with its in-flight progress. */
struct ActiveLaunch
{
    Launch launch;
    LaunchStats stats;
    std::uint64_t submitSeq = 0;  ///< global FIFO order
    std::uint64_t nextGroup = 0;  ///< next group index to issue
    std::uint64_t done = 0;       ///< completed groups
    /** Work-group duration multiplier (injected latency spike). */
    double timeScale = 1.0;

    bool allIssued() const { return nextGroup >= launch.numGroups; }
    bool finished() const { return done >= launch.numGroups; }

    /** Absolute grid id of issue-index @p i. */
    std::uint64_t gridId(std::uint64_t i) const
    {
        return launch.firstGroup + i;
    }
};

using LaunchPtr = std::shared_ptr<ActiveLaunch>;

/**
 * Priority/stream-aware dispatch queue.
 *
 * Streams live in one flat array sorted by stream id, each with its
 * pending launches (a vector drained from a head index) and the tick
 * it was last served at, so a pick is one linear scan with no tree
 * walk and, in steady state, no allocation.
 */
class DispatchQueue
{
  public:
    /** Register a submitted launch. */
    void
    add(const LaunchPtr &lp)
    {
        lp->submitSeq = nextSeq++;
        Stream &s = streamFor(lp->launch.stream);
        // Drop retired launches once they are the larger part, so a
        // stream that never quite drains stays bounded.
        if (s.head * 2 >= s.pending.size()) {
            s.pending.erase(s.pending.begin(),
                            s.pending.begin()
                                + static_cast<std::ptrdiff_t>(s.head));
            s.head = 0;
        }
        s.pending.push_back(lp);
    }

    /**
     * Pick the launch the next free execution unit should draw a
     * work-group from, or nullptr when nothing is dispatchable.
     * Equal-priority streams are served round-robin, which is how
     * concurrent CUDA streams interleave blocks; without it the
     * first-registered variant would be profiled at systematically
     * lower SM residency than the others.  Ties go to the stream
     * with the lowest id.
     */
    LaunchPtr
    pick()
    {
        Stream *best = nullptr;
        for (Stream &s : streams) {
            // Retire completed launches from the stream head so the
            // next launch in the stream becomes dispatchable.
            while (s.head < s.pending.size()
                   && s.pending[s.head]->finished())
                s.pending[s.head++].reset();
            if (s.head == s.pending.size())
                continue;
            const ActiveLaunch &head = *s.pending[s.head];
            if (head.allIssued())
                continue;
            if (!best
                || head.launch.priority > best->front().launch.priority
                || (head.launch.priority == best->front().launch.priority
                    && s.servedTick < best->servedTick))
                best = &s;
        }
        if (!best)
            return nullptr;
        best->servedTick = ++tick;
        return best->pending[best->head];
    }

    /** True when no launch has unissued groups. */
    bool drained() { return pick() == nullptr; }

  private:
    struct Stream
    {
        int id = 0;
        /** Launches in submission order; [0, head) are retired. */
        std::vector<LaunchPtr> pending;
        std::size_t head = 0;
        /** Tick of the last pick from this stream (0: never). */
        std::uint64_t servedTick = 0;

        const ActiveLaunch &front() const { return *pending[head]; }
    };

    Stream &
    streamFor(int id)
    {
        auto it = std::lower_bound(
            streams.begin(), streams.end(), id,
            [](const Stream &s, int key) { return s.id < key; });
        if (it == streams.end() || it->id != id) {
            it = streams.insert(it, Stream());
            it->id = id;
        }
        return *it;
    }

    std::vector<Stream> streams;
    std::uint64_t nextSeq = 0;
    std::uint64_t tick = 0;
};

} // namespace sim
} // namespace dysel
