/**
 * @file
 * Batch aggregation policy for the dispatch service (DESIGN §10).
 *
 * Compatible submissions waiting on the same shard -- same signature,
 * same workload-size bucket, same launch policy -- are gathered into
 * one fused launch, so N small jobs pay one queue hop, one store
 * consult, and one device submit.  The Batcher owns only the
 * *policy*: what is eligible, what is mutually compatible, and how
 * much a batch may hold.  Claiming members, running the fused launch,
 * and per-job completion stay in the service.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hh"

#include "buffer_pool.hh"
#include "job.hh"

namespace dysel {
namespace serve {

/** Batch aggregation knobs (ServiceConfig carries one). */
struct BatchLimits
{
    /**
     * Most member jobs per fused launch; <= 1 disables batching
     * entirely (every job runs solo, the pre-batching behaviour).
     */
    std::size_t maxJobs = 1;

    /** Cap on summed workload units per fused launch; 0 = unlimited. */
    std::uint64_t maxUnits = 0;

    /**
     * Bounded delay: with an under-full batch, the worker waits up to
     * this long (wall clock) for more compatible submissions before
     * launching what it has.  0 launches immediately with whatever is
     * already queued.
     */
    sim::TimeNs windowNs = 0;

    bool enabled() const { return maxJobs > 1; }
};

/** Batch gathering policy over one shard's queue. */
class Batcher
{
  public:
    explicit Batcher(BatchLimits limits) : limits_(limits) {}

    const BatchLimits &limits() const { return limits_; }

    /**
     * Whether @p job may join any batch: no per-job installer (a
     * fused launch registers nothing), not opted out, and a non-empty
     * workload.
     */
    static bool eligible(const detail::Job &job);

    /**
     * Whether @p candidate can fuse with @p head: both eligible, same
     * signature, same size bucket (one store record covers the whole
     * batch), and the same launch policy (default variant and
     * orchestration mode).  A fused launch runs under the head's
     * LaunchOptions; member option fields that only affect profiling
     * or eager solo execution (profiling, mode, profileRepeats,
     * eagerChunkUnits) are ignored, since a fused launch performs
     * neither.
     */
    static bool compatible(const detail::Job &head, const detail::Job &candidate);

    /**
     * Extract every job of @p queue compatible with @p head, in queue
     * order, into @p members -- up to maxJobs total (head included)
     * and maxUnits summed units.  The caller holds the shard lock.
     * Returns the number extracted this call.
     */
    std::size_t gather(JobRing &queue, const detail::Job &head,
                       std::vector<detail::QueuedJob> &members) const;

  private:
    BatchLimits limits_;
};

} // namespace serve
} // namespace dysel
