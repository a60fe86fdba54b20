#include "batcher.hh"

#include "dysel/store/selection_store.hh"

namespace dysel {
namespace serve {

bool
Batcher::eligible(const detail::Job &job)
{
    return !job.ensureRegistered && !job.noBatch && job.units > 0;
}

bool
Batcher::compatible(const detail::Job &head, const detail::Job &candidate)
{
    // Fused members execute under the head's LaunchOptions, so the
    // fields that shape a fused launch must agree: initialVariant
    // picks the cold-path variant, orch is stamped on every member's
    // report.  The remaining opt fields (profiling, mode,
    // profileRepeats, eagerChunkUnits) only affect profiling passes
    // and eager solo orchestration, neither of which a fused launch
    // performs -- they are deliberately ignored.
    return eligible(head) && eligible(candidate)
           && head.signature == candidate.signature
           && store::bucketOf(head.units)
                  == store::bucketOf(candidate.units)
           && head.opt.initialVariant == candidate.opt.initialVariant
           && head.opt.orch == candidate.opt.orch;
}

std::size_t
Batcher::gather(JobRing &queue, const detail::Job &head,
                std::vector<detail::QueuedJob> &members) const
{
    std::size_t taken = 0;
    std::uint64_t unitsSum = head.units;
    for (const detail::QueuedJob &m : members)
        unitsSum += m.job.units;
    std::size_t i = 0;
    while (i < queue.size()) {
        if (members.size() + 1 >= limits_.maxJobs)
            break;
        const detail::Job &cand = queue.at(i).job;
        const bool fits =
            limits_.maxUnits == 0
            || unitsSum + cand.units <= limits_.maxUnits;
        if (fits && compatible(head, cand)) {
            unitsSum += cand.units;
            members.push_back(queue.extract(i));
            ++taken;
        } else {
            ++i;
        }
    }
    return taken;
}

} // namespace serve
} // namespace dysel
